//! Logical log records.

use tcom_kernel::codec::{Decoder, Encoder};
use tcom_kernel::{AtomId, Error, Interval, Result, TimePoint, Tuple, TxnId};

/// One logical log record.
#[derive(Clone, Debug, PartialEq)]
pub enum LogRecord {
    /// Transaction start.
    Begin {
        /// The transaction.
        txn: TxnId,
    },
    /// Transaction commit — everything logged for `txn` becomes durable.
    Commit {
        /// The transaction.
        txn: TxnId,
    },
    /// A version was stored with `tt = [tt_start, ∞)`.
    InsertVersion {
        /// Owning transaction.
        txn: TxnId,
        /// The atom.
        atom: AtomId,
        /// Valid-time extent of the new version.
        vt: Interval,
        /// Transaction-time start (the txn's commit clock value).
        tt_start: TimePoint,
        /// The tuple.
        tuple: Tuple,
    },
    /// The current version with the given valid-time start was closed.
    CloseVersion {
        /// Owning transaction.
        txn: TxnId,
        /// The atom.
        atom: AtomId,
        /// Identifies the current version (unique among current versions).
        vt_start: TimePoint,
        /// Transaction-time end.
        tt_end: TimePoint,
    },
    /// Checkpoint: all data files flushed and synced. Carries the engine
    /// clock and the per-type next-atom-number counters.
    Checkpoint {
        /// Engine transaction-time clock at the checkpoint.
        clock: TimePoint,
        /// `(atom type id, next atom number)` pairs.
        next_atom_nos: Vec<(u32, u64)>,
    },
    /// A compaction segment was published for an atom type: segment file
    /// `seg` holds every closed version of the type with
    /// `tt.end <= cutoff`, and those versions are (being) removed from the
    /// hot heaps. This record is the swap's commit point — once durable,
    /// recovery redoes the heap-side extraction; before it, the segment
    /// temp file is garbage.
    SegmentSwap {
        /// The atom type whose closed history was segmented.
        ty: u32,
        /// Segment sequence number within the type (names the file).
        seg: u64,
        /// Every archived version has `tt.end <= cutoff`.
        cutoff: TimePoint,
    },
}

impl LogRecord {
    /// Encodes to the frame payload form.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(64);
        match self {
            LogRecord::Begin { txn } => {
                e.put_u8(0);
                e.put_u64(txn.0);
            }
            LogRecord::Commit { txn } => {
                e.put_u8(1);
                e.put_u64(txn.0);
            }
            LogRecord::InsertVersion {
                txn,
                atom,
                vt,
                tt_start,
                tuple,
            } => {
                e.put_u8(3);
                e.put_u64(txn.0);
                e.put_atom_id(*atom);
                e.put_interval(vt);
                e.put_time(*tt_start);
                e.put_tuple(tuple);
            }
            LogRecord::CloseVersion {
                txn,
                atom,
                vt_start,
                tt_end,
            } => {
                e.put_u8(4);
                e.put_u64(txn.0);
                e.put_atom_id(*atom);
                e.put_time(*vt_start);
                e.put_time(*tt_end);
            }
            LogRecord::Checkpoint {
                clock,
                next_atom_nos,
            } => {
                e.put_u8(5);
                e.put_time(*clock);
                e.put_u64(next_atom_nos.len() as u64);
                for (ty, no) in next_atom_nos {
                    e.put_u64(*ty as u64);
                    e.put_u64(*no);
                }
            }
            LogRecord::SegmentSwap { ty, seg, cutoff } => {
                e.put_u8(6);
                e.put_u64(*ty as u64);
                e.put_u64(*seg);
                e.put_time(*cutoff);
            }
        }
        e.finish()
    }

    /// Decodes a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<LogRecord> {
        let mut d = Decoder::new(bytes);
        let rec = match d.get_u8()? {
            0 => LogRecord::Begin {
                txn: TxnId(d.get_u64()?),
            },
            1 => LogRecord::Commit {
                txn: TxnId(d.get_u64()?),
            },
            3 => LogRecord::InsertVersion {
                txn: TxnId(d.get_u64()?),
                atom: d.get_atom_id()?,
                vt: d.get_interval()?,
                tt_start: d.get_time()?,
                tuple: d.get_tuple()?,
            },
            4 => LogRecord::CloseVersion {
                txn: TxnId(d.get_u64()?),
                atom: d.get_atom_id()?,
                vt_start: d.get_time()?,
                tt_end: d.get_time()?,
            },
            5 => {
                let clock = d.get_time()?;
                let n = d.get_u64()? as usize;
                if n > d.remaining() {
                    return Err(Error::corruption("checkpoint counter count exceeds buffer"));
                }
                let mut next_atom_nos = Vec::with_capacity(n);
                for _ in 0..n {
                    let ty = d.get_u64()? as u32;
                    let no = d.get_u64()?;
                    next_atom_nos.push((ty, no));
                }
                LogRecord::Checkpoint {
                    clock,
                    next_atom_nos,
                }
            }
            6 => LogRecord::SegmentSwap {
                ty: d.get_u64()? as u32,
                seg: d.get_u64()?,
                cutoff: d.get_time()?,
            },
            t => return Err(Error::corruption(format!("unknown log record tag {t}"))),
        };
        if !d.is_exhausted() {
            return Err(Error::corruption("trailing bytes in log record"));
        }
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcom_kernel::time::iv;
    use tcom_kernel::{AtomNo, AtomTypeId, Value};

    fn all_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin { txn: TxnId(7) },
            LogRecord::Commit { txn: TxnId(7) },
            LogRecord::InsertVersion {
                txn: TxnId(7),
                atom: AtomId::new(AtomTypeId(1), AtomNo(99)),
                vt: iv(5, 10),
                tt_start: TimePoint(3),
                tuple: Tuple::new(vec![Value::Int(1), Value::from("x"), Value::Null]),
            },
            LogRecord::CloseVersion {
                txn: TxnId(7),
                atom: AtomId::new(AtomTypeId(1), AtomNo(99)),
                vt_start: TimePoint(5),
                tt_end: TimePoint(9),
            },
            LogRecord::Checkpoint {
                clock: TimePoint(42),
                next_atom_nos: vec![(0, 100), (1, 7)],
            },
            LogRecord::SegmentSwap {
                ty: 3,
                seg: 2,
                cutoff: TimePoint(41),
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for r in all_records() {
            let bytes = r.encode();
            assert_eq!(LogRecord::decode(&bytes).unwrap(), r);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(LogRecord::decode(&[]).is_err());
        assert!(LogRecord::decode(&[99]).is_err());
        // Tag 2 is unassigned (no writer ever produced it); a later record
        // kind must not reuse it silently.
        assert!(LogRecord::decode(&[2, 1]).is_err());
        let mut bytes = LogRecord::Begin { txn: TxnId(1) }.encode();
        bytes.push(0xFF);
        assert!(LogRecord::decode(&bytes).is_err());
    }
}
