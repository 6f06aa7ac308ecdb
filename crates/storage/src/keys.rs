//! Order-preserving key encodings for the B⁺-tree.
//!
//! The tree stores fixed-width composite keys ([`BKey`]: two `u64` words).
//! Index layers encode typed values into the high word so that `u64`
//! comparison agrees with the value order, and disambiguate duplicates via
//! the low word (usually the packed [`tcom_kernel::RecordId`] or atom
//! number). Encodings:
//!
//! * integers: offset-binary (`x ⊕ 2⁶³`),
//! * floats: the IEEE-754 total-order trick (flip sign bit for positives,
//!   flip all bits for negatives),
//! * text: the first 8 bytes big-endian (a *prefix* encoding — equal
//!   prefixes require a residual comparison, which index scans perform
//!   against the heap record),
//! * time points: identity.

use tcom_kernel::{TimePoint, Value};

/// Fixed-width composite B⁺-tree key: compared as `(hi, lo)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BKey {
    /// Primary dimension (encoded value / time / atom number).
    pub hi: u64,
    /// Tie-breaker dimension (record id / atom number / zero).
    pub lo: u64,
}

impl BKey {
    /// Composes a key.
    pub fn new(hi: u64, lo: u64) -> BKey {
        BKey { hi, lo }
    }

    /// Smallest key with the given high word.
    pub fn min_for(hi: u64) -> BKey {
        BKey { hi, lo: 0 }
    }

    /// Largest key with the given high word.
    pub fn max_for(hi: u64) -> BKey {
        BKey { hi, lo: u64::MAX }
    }

    /// The smallest possible key.
    pub const MIN: BKey = BKey { hi: 0, lo: 0 };
    /// The largest possible key.
    pub const MAX: BKey = BKey {
        hi: u64::MAX,
        lo: u64::MAX,
    };
}

/// Order-preserving encoding of an `i64`.
pub fn encode_int(v: i64) -> u64 {
    (v as u64) ^ (1 << 63)
}

/// Order-preserving encoding of an `f64` (total order; NaNs sort high).
pub fn encode_float(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits & (1 << 63) == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// Order-preserving 8-byte prefix of a string (big-endian, zero-padded).
pub fn encode_text_prefix(s: &str) -> u64 {
    let b = s.as_bytes();
    let mut a = [0u8; 8];
    let n = b.len().min(8);
    a[..n].copy_from_slice(&b[..n]);
    u64::from_be_bytes(a)
}

/// Encodes an indexable value into the key's high word. Returns `None` for
/// value kinds no index is defined over (`Null`, `Bytes`, references).
///
/// Note the encodings of different types occupy the same `u64` space; an
/// index is always over a single typed attribute, so cross-type collisions
/// cannot occur within one index.
pub fn encode_value(v: &Value) -> Option<u64> {
    match v {
        Value::Bool(b) => Some(*b as u64),
        Value::Int(i) => Some(encode_int(*i)),
        Value::Float(f) => Some(encode_float(*f)),
        Value::Text(s) => Some(encode_text_prefix(s)),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Composite transaction-time keys (the per-store interval index)
//
// The transaction-time interval index stores every version under a key whose
// high word combines a partition bit with the version's `tt.start`:
//
//   hi = partition | tt_start        lo = caller-chosen discriminator
//
// The top bit separates the small *open* partition (tt-open records — the
// current database state) from the *closed* partition (everything whose
// transaction time has ended). Transaction times are commit ticks counted
// from zero, so they never reach bit 63 and the partitions cannot collide.
// Within a partition keys sort by `tt_start`, which makes "every version
// that had started by time t" a single range scan.
// ---------------------------------------------------------------------------

/// Partition bit of composite transaction-time keys: set for tt-open
/// (current) entries, clear for closed ones.
const TT_OPEN_BIT: u64 = 1 << 63;

/// Key of a transaction-time index entry: `(partition | tt_start, lo)`.
///
/// `tt_start` must stay below the partition bit `1 << 63` (commit ticks
/// always do).
pub fn encode_tt_key(open: bool, tt_start: TimePoint, lo: u64) -> BKey {
    debug_assert!(
        tt_start.0 < TT_OPEN_BIT,
        "transaction time overflows the partition bit"
    );
    let part = if open { TT_OPEN_BIT } else { 0 };
    BKey::new(part | tt_start.0, lo)
}

/// The `tt_start` a composite key's high word encodes.
pub fn decode_tt_start(hi: u64) -> TimePoint {
    TimePoint(hi & !TT_OPEN_BIT)
}

/// Half-open scan bounds covering every key of the chosen partition with
/// `tt_start <= through` (pass `TimePoint::FOREVER` for the whole
/// partition). Feed directly to `BTree::scan_range`.
pub fn tt_scan_bounds(open: bool, through: TimePoint) -> (BKey, BKey) {
    let part = if open { TT_OPEN_BIT } else { 0 };
    let lo = BKey::min_for(part);
    // Exclusive upper: first hi word past the range. Saturate at the
    // partition's end; the open partition tops out at BKey::MAX (that exact
    // key is never stored — no record starts at tt 2⁶³−1 with lo=u64::MAX).
    let cap = through.0.saturating_add(1).min(TT_OPEN_BIT);
    let hi = if cap == TT_OPEN_BIT {
        if open {
            BKey::MAX
        } else {
            BKey::min_for(TT_OPEN_BIT)
        }
    } else {
        BKey::min_for(part | cap)
    };
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_encoding_preserves_order() {
        let vals = [i64::MIN, -1_000_000, -1, 0, 1, 42, i64::MAX];
        for w in vals.windows(2) {
            assert!(encode_int(w[0]) < encode_int(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn float_encoding_preserves_order() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.5,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(
                encode_float(w[0]) <= encode_float(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        // strict for distinct non-zero pairs
        assert!(encode_float(-1.5) < encode_float(1.5));
        // NaN sorts at the top
        assert!(encode_float(f64::NAN) > encode_float(f64::INFINITY));
    }

    #[test]
    fn text_prefix_preserves_order() {
        let vals = ["", "a", "ab", "abc", "abd", "b", "zzzzzzzzz"];
        for w in vals.windows(2) {
            assert!(
                encode_text_prefix(w[0]) <= encode_text_prefix(w[1]),
                "{:?} vs {:?}",
                w[0],
                w[1]
            );
        }
        // Shared 8-byte prefix collides, as documented.
        assert_eq!(
            encode_text_prefix("abcdefghX"),
            encode_text_prefix("abcdefghY")
        );
    }

    #[test]
    fn bkey_ordering() {
        assert!(BKey::new(1, u64::MAX) < BKey::new(2, 0));
        assert!(BKey::new(2, 1) < BKey::new(2, 2));
        assert!(BKey::MIN < BKey::MAX);
        assert_eq!(BKey::min_for(5).hi, 5);
        assert_eq!(BKey::max_for(5).lo, u64::MAX);
    }

    #[test]
    fn tt_keys_partition_and_order() {
        let open = encode_tt_key(true, TimePoint(5), 1);
        let closed = encode_tt_key(false, TimePoint(900), 1);
        // Every open key sorts after every closed key, whatever the times.
        assert!(closed < open);
        assert_eq!(decode_tt_start(open.hi), TimePoint(5));
        assert_eq!(decode_tt_start(closed.hi), TimePoint(900));
        // Within a partition, keys order by (tt_start, lo).
        assert!(encode_tt_key(false, TimePoint(3), 9) < encode_tt_key(false, TimePoint(4), 0));
        assert!(encode_tt_key(true, TimePoint(3), 1) < encode_tt_key(true, TimePoint(3), 2));
    }

    #[test]
    fn tt_scan_bounds_cover_exactly_started_by() {
        let in_bounds = |open: bool, through: u64, t: u64, lo: u64| {
            let (b_lo, b_hi) = tt_scan_bounds(open, TimePoint(through));
            let k = encode_tt_key(open, TimePoint(t), lo);
            b_lo <= k && k < b_hi
        };
        assert!(in_bounds(false, 10, 10, u64::MAX)); // inclusive `through`
        assert!(in_bounds(false, 10, 0, 0));
        assert!(!in_bounds(false, 10, 11, 0));
        assert!(in_bounds(true, 10, 10, 7));
        assert!(!in_bounds(true, 10, 11, 7));
        // FOREVER covers each whole partition without leaking across.
        assert!(in_bounds(false, u64::MAX, 1 << 40, 3));
        assert!(in_bounds(true, u64::MAX, 1 << 40, 3));
        let (lo, hi) = tt_scan_bounds(false, TimePoint::FOREVER);
        assert!(encode_tt_key(true, TimePoint(0), 0) >= hi && lo == BKey::MIN);
        let (lo, _) = tt_scan_bounds(true, TimePoint::FOREVER);
        assert!(encode_tt_key(false, TimePoint(u64::MAX >> 1), u64::MAX) < lo);
    }

    #[test]
    fn encode_value_dispatch() {
        assert_eq!(encode_value(&Value::Bool(false)), Some(0));
        assert_eq!(encode_value(&Value::Bool(true)), Some(1));
        assert_eq!(encode_value(&Value::Int(7)), Some(encode_int(7)));
        assert_eq!(encode_value(&Value::Float(1.0)), Some(encode_float(1.0)));
        assert_eq!(
            encode_value(&Value::Text("hi".into())),
            Some(encode_text_prefix("hi"))
        );
        assert_eq!(encode_value(&Value::Null), None);
        assert_eq!(encode_value(&Value::Bytes(vec![1])), None);
    }
}
