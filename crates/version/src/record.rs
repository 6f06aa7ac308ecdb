//! On-disk encodings of atom versions: full records and backward deltas.
//!
//! A stored version is self-identifying (carries its atom number), stamped
//! with its valid-time and transaction-time intervals, and linked into a
//! per-atom backward chain (newest first) via a `prev` record id.
//!
//! Two payload forms exist for chain records:
//!
//! * **full** — the complete tuple;
//! * **delta** — the attribute-level changes that turn the *newer*
//!   neighbouring version's tuple into this version's tuple (backward
//!   delta). Reconstruction walks the chain newest→oldest, applying deltas
//!   to a running tuple.
//!
//! The split layout additionally clusters an atom's current versions in one
//! `CurrentSet` record outside the chain.

use tcom_kernel::codec::{Decoder, Encoder};
use tcom_kernel::{AtomNo, Error, Interval, RecordId, Result, TimePoint, Tuple, Value};

/// A materialized (decoded) atom version.
#[derive(Clone, Debug, PartialEq)]
pub struct AtomVersion {
    /// Valid-time extent.
    pub vt: Interval,
    /// Transaction-time extent (`[t, ∞)` while current).
    pub tt: Interval,
    /// The attribute values.
    pub tuple: Tuple,
}

/// An attribute-level backward delta: the changes turning the newer
/// neighbour's tuple into the older tuple.
#[derive(Clone, Debug, PartialEq, Default)]
pub(crate) struct TupleDelta {
    /// `(attribute ordinal, value in the older tuple)` pairs, ascending.
    pub changes: Vec<(u16, Value)>,
}

impl TupleDelta {
    /// Computes the backward delta from `newer` to `older`.
    ///
    /// Both tuples must have equal arity (schema evolution is out of scope;
    /// the engine enforces a fixed arity per atom type).
    pub(crate) fn diff(newer: &Tuple, older: &Tuple) -> TupleDelta {
        debug_assert_eq!(newer.arity(), older.arity());
        let changes = newer
            .values()
            .iter()
            .zip(older.values())
            .enumerate()
            .filter(|(_, (n, o))| n != o)
            .map(|(i, (_, o))| (i as u16, o.clone()))
            .collect();
        TupleDelta { changes }
    }

    /// Applies the delta to the newer tuple, producing the older one.
    pub(crate) fn apply(&self, newer: &Tuple) -> Tuple {
        let mut t = newer.clone();
        for (i, v) in &self.changes {
            t.set(*i as usize, v.clone());
        }
        t
    }
}

/// Payload of a stored version record.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Payload {
    /// Complete tuple.
    Full(Tuple),
    /// Backward delta relative to the chain predecessor (the newer record).
    Delta(TupleDelta),
}

/// A stored version record: stamp, chain link and payload.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct VersionRecord {
    /// Owning atom (self-identification for scans and integrity checks).
    pub atom_no: AtomNo,
    /// Valid-time extent.
    pub vt: Interval,
    /// Transaction-time extent.
    pub tt: Interval,
    /// Next-older record in the per-atom chain ([`RecordId::INVALID`] ends it).
    pub prev: RecordId,
    /// Full tuple or backward delta.
    pub payload: Payload,
}

impl VersionRecord {
    /// Encodes to the on-disk byte form.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(64);
        e.put_u64(self.atom_no.0);
        e.put_u8(match self.payload {
            Payload::Full(_) => 0,
            Payload::Delta(_) => 1,
        });
        e.put_interval(&self.vt);
        e.put_interval(&self.tt);
        e.put_record_id(self.prev);
        match &self.payload {
            Payload::Full(t) => e.put_tuple(t),
            Payload::Delta(d) => {
                e.put_u64(d.changes.len() as u64);
                for (i, v) in &d.changes {
                    e.put_u64(*i as u64);
                    e.put_value(v);
                }
            }
        }
        e.finish()
    }

    /// Decodes the on-disk byte form.
    pub(crate) fn decode(bytes: &[u8]) -> Result<VersionRecord> {
        let mut d = Decoder::new(bytes);
        let atom_no = AtomNo(d.get_u64()?);
        let kind = d.get_u8()?;
        let vt = d.get_interval()?;
        let tt = d.get_interval()?;
        let prev = d.get_record_id()?;
        let payload = match kind {
            0 => Payload::Full(d.get_tuple()?),
            1 => {
                let n = d.get_u64()? as usize;
                if n > d.remaining() {
                    return Err(Error::corruption("delta change count exceeds buffer"));
                }
                let mut changes = Vec::with_capacity(n);
                for _ in 0..n {
                    let i = d.get_u64()? as u16;
                    changes.push((i, d.get_value()?));
                }
                Payload::Delta(TupleDelta { changes })
            }
            t => {
                return Err(Error::corruption(format!(
                    "unknown version payload tag {t}"
                )))
            }
        };
        if !d.is_exhausted() {
            return Err(Error::corruption("trailing bytes in version record"));
        }
        Ok(VersionRecord {
            atom_no,
            vt,
            tt,
            prev,
            payload,
        })
    }

    /// True iff the record's transaction time is still open.
    pub(crate) fn is_current(&self) -> bool {
        self.tt.is_open_ended()
    }
}

/// All current (tt-open) versions of one atom clustered in one record —
/// the split layout's current area. Entries are `(vt, tt_start, tuple)`,
/// kept sorted by valid-time start.
#[derive(Clone, Debug, PartialEq, Default)]
pub(crate) struct CurrentSet {
    pub(crate) entries: Vec<(Interval, TimePoint, Tuple)>,
}

impl CurrentSet {
    pub(crate) fn encode(&self, no: AtomNo) -> Vec<u8> {
        let mut e = Encoder::with_capacity(64);
        e.put_u64(no.0);
        e.put_u64(self.entries.len() as u64);
        for (vt, tt_start, tuple) in &self.entries {
            e.put_interval(vt);
            e.put_time(*tt_start);
            e.put_tuple(tuple);
        }
        e.finish()
    }

    pub(crate) fn decode(bytes: &[u8], expect_no: AtomNo) -> Result<CurrentSet> {
        let mut d = Decoder::new(bytes);
        let no = AtomNo(d.get_u64()?);
        if no != expect_no {
            return Err(Error::corruption(format!(
                "current-set record of atom {} found while reading atom {}",
                no.0, expect_no.0
            )));
        }
        let n = d.get_u64()? as usize;
        if n > d.remaining() {
            return Err(Error::corruption("current-set entry count exceeds buffer"));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let vt = d.get_interval()?;
            let tt_start = d.get_time()?;
            let tuple = d.get_tuple()?;
            entries.push((vt, tt_start, tuple));
        }
        if !d.is_exhausted() {
            return Err(Error::corruption("trailing bytes in current-set record"));
        }
        Ok(CurrentSet { entries })
    }

    /// The set as materialized versions (all tt-open), in stored order.
    pub(crate) fn into_versions(self) -> impl Iterator<Item = AtomVersion> {
        self.entries
            .into_iter()
            .map(|(vt, tt_start, tuple)| AtomVersion {
                vt,
                tt: Interval::from_start(tt_start),
                tuple,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcom_kernel::time::{iv, iv_from};
    use tcom_kernel::{PageId, SlotId};

    fn tup(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect())
    }

    #[test]
    fn delta_diff_apply_roundtrip() {
        let newer = tup(&[1, 2, 3, 4]);
        let older = tup(&[1, 9, 3, 8]);
        let d = TupleDelta::diff(&newer, &older);
        assert_eq!(d.changes.len(), 2);
        assert_eq!(d.apply(&newer), older);
        // identical tuples -> empty delta
        assert!(TupleDelta::diff(&newer, &newer).changes.is_empty());
        assert_eq!(TupleDelta::diff(&newer, &newer).apply(&newer), newer);
    }

    #[test]
    fn delta_with_mixed_types() {
        let newer = Tuple::new(vec![Value::from("alice"), Value::Int(100), Value::Null]);
        let older = Tuple::new(vec![Value::from("alice"), Value::Int(90), Value::from("x")]);
        let d = TupleDelta::diff(&newer, &older);
        assert_eq!(d.changes.len(), 2);
        assert_eq!(d.apply(&newer), older);
    }

    #[test]
    fn record_roundtrip_full() {
        let r = VersionRecord {
            atom_no: AtomNo(42),
            vt: iv(10, 20),
            tt: iv_from(5),
            prev: RecordId::new(PageId(3), SlotId(7)),
            payload: Payload::Full(tup(&[1, 2, 3])),
        };
        let bytes = r.encode();
        assert_eq!(VersionRecord::decode(&bytes).unwrap(), r);
        assert!(r.is_current());
    }

    #[test]
    fn record_roundtrip_delta() {
        let r = VersionRecord {
            atom_no: AtomNo(7),
            vt: iv(0, 100),
            tt: iv(3, 9),
            prev: RecordId::INVALID,
            payload: Payload::Delta(TupleDelta {
                changes: vec![(1, Value::Int(5)), (3, Value::Null)],
            }),
        };
        let bytes = r.encode();
        assert_eq!(VersionRecord::decode(&bytes).unwrap(), r);
        assert!(!r.is_current());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(VersionRecord::decode(&[]).is_err());
        assert!(VersionRecord::decode(&[0xFF; 4]).is_err());
        // trailing bytes
        let r = VersionRecord {
            atom_no: AtomNo(1),
            vt: iv(0, 1),
            tt: iv(0, 1),
            prev: RecordId::INVALID,
            payload: Payload::Full(tup(&[1])),
        };
        let mut bytes = r.encode();
        bytes.push(0);
        assert!(VersionRecord::decode(&bytes).is_err());
        // bad payload tag
        let mut bytes = r.encode();
        // atom_no varint(1) is 1 byte; tag is at offset 1
        bytes[1] = 9;
        assert!(VersionRecord::decode(&bytes).is_err());
    }
}
