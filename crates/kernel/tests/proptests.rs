//! Property tests for the kernel: temporal-element set-algebra laws and
//! codec round-trips over arbitrary values.

use proptest::prelude::*;
use tcom_kernel::codec::{Decoder, Encoder};
use tcom_kernel::{AtomId, AtomNo, AtomTypeId, Interval, TemporalElement, TimePoint, Tuple, Value};

// ---- generators ----

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0u64..1000, 1u64..100)
        .prop_map(|(s, len)| Interval::new(TimePoint(s), TimePoint(s + len)).expect("len >= 1"))
}

fn element_strategy() -> impl Strategy<Value = TemporalElement> {
    proptest::collection::vec(interval_strategy(), 0..12).prop_map(TemporalElement::from_intervals)
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks PartialEq-based round-trip checks.
        (-1e300f64..1e300).prop_map(Value::Float),
        "[a-zA-Z0-9 _äöü]{0,24}".prop_map(Value::Text),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
        (0u32..100, 0u64..100_000)
            .prop_map(|(t, n)| Value::Ref(AtomId::new(AtomTypeId(t), AtomNo(n)))),
        proptest::collection::vec((0u32..4, 0u64..50), 0..6).prop_map(|ids| {
            Value::ref_set(
                ids.into_iter()
                    .map(|(t, n)| AtomId::new(AtomTypeId(t), AtomNo(n))),
            )
        }),
    ]
}

fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(value_strategy(), 0..8).prop_map(Tuple::new)
}

// ---- reference semantics: elements as sets of instants ----

fn points_of(e: &TemporalElement, universe: u64) -> Vec<bool> {
    (0..universe).map(|t| e.contains(TimePoint(t))).collect()
}

const UNIVERSE: u64 = 1200;

proptest! {
    #[test]
    fn canonical_form_invariants(e in element_strategy()) {
        let ivs = e.intervals();
        for w in ivs.windows(2) {
            // sorted, disjoint, non-adjacent
            prop_assert!(w[0].end() < w[1].start());
        }
    }

    #[test]
    fn union_matches_pointwise(a in element_strategy(), b in element_strategy()) {
        let u = a.union(&b);
        let (pa, pb, pu) = (points_of(&a, UNIVERSE), points_of(&b, UNIVERSE), points_of(&u, UNIVERSE));
        for t in 0..UNIVERSE as usize {
            prop_assert_eq!(pu[t], pa[t] || pb[t], "t={}", t);
        }
    }

    #[test]
    fn intersect_matches_pointwise(a in element_strategy(), b in element_strategy()) {
        let i = a.intersect(&b);
        let (pa, pb, pi) = (points_of(&a, UNIVERSE), points_of(&b, UNIVERSE), points_of(&i, UNIVERSE));
        for t in 0..UNIVERSE as usize {
            prop_assert_eq!(pi[t], pa[t] && pb[t], "t={}", t);
        }
    }

    #[test]
    fn difference_matches_pointwise(a in element_strategy(), b in element_strategy()) {
        let d = a.difference(&b);
        let (pa, pb, pd) = (points_of(&a, UNIVERSE), points_of(&b, UNIVERSE), points_of(&d, UNIVERSE));
        for t in 0..UNIVERSE as usize {
            prop_assert_eq!(pd[t], pa[t] && !pb[t], "t={}", t);
        }
    }

    #[test]
    fn set_algebra_laws(a in element_strategy(), b in element_strategy(), c in element_strategy()) {
        // commutativity
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        // associativity
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        prop_assert_eq!(a.intersect(&b).intersect(&c), a.intersect(&b.intersect(&c)));
        // absorption
        prop_assert_eq!(a.union(&a.intersect(&b)), a.clone());
        prop_assert_eq!(a.intersect(&a.union(&b)), a.clone());
        // difference partition: (a − b) ∪ (a ∩ b) == a, and the parts are disjoint
        let d = a.difference(&b);
        let i = a.intersect(&b);
        prop_assert_eq!(d.union(&i), a.clone());
        prop_assert!(!d.overlaps(&i) || d.is_empty() || i.is_empty());
        // idempotence of canonicalization
        prop_assert_eq!(TemporalElement::from_intervals(a.intervals().iter().copied()), a.clone());
    }

    #[test]
    fn duration_is_additive_under_disjoint_union(a in element_strategy(), b in element_strategy()) {
        let d = a.difference(&b);
        let i = a.intersect(&b);
        let (Some(dd), Some(di), Some(da)) = (d.duration(), i.duration(), a.duration()) else {
            return Ok(());
        };
        prop_assert_eq!(dd + di, da);
    }

    // ---- codec round-trips ----

    #[test]
    fn value_codec_roundtrip(v in value_strategy()) {
        let mut e = Encoder::new();
        e.put_value(&v);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        prop_assert_eq!(d.get_value().unwrap(), v);
        prop_assert!(d.is_exhausted());
    }

    #[test]
    fn tuple_codec_roundtrip(t in tuple_strategy()) {
        let mut e = Encoder::new();
        e.put_tuple(&t);
        let bytes = e.finish();
        prop_assert_eq!(Decoder::new(&bytes).get_tuple().unwrap(), t);
    }

    #[test]
    fn varint_roundtrip(v in any::<u64>(), s in any::<i64>()) {
        let mut e = Encoder::new();
        e.put_u64(v);
        e.put_i64(s);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        prop_assert_eq!(d.get_u64().unwrap(), v);
        prop_assert_eq!(d.get_i64().unwrap(), s);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Whatever the input, decoding returns Ok or Err — never panics.
        let mut d = Decoder::new(&bytes);
        let _ = d.get_value();
        let mut d = Decoder::new(&bytes);
        let _ = d.get_tuple();
        let mut d = Decoder::new(&bytes);
        let _ = d.get_interval();
    }

    // ---- interval relations are consistent with point semantics ----

    #[test]
    fn overlap_iff_shared_point(a in interval_strategy(), b in interval_strategy()) {
        let shared = (0..1200u64).any(|t| a.contains(TimePoint(t)) && b.contains(TimePoint(t)));
        prop_assert_eq!(a.overlaps(&b), shared);
    }

    #[test]
    fn subtract_covers_exactly_outside(a in interval_strategy(), b in interval_strategy()) {
        let (l, r) = a.subtract(&b);
        for t in 0..1200u64 {
            let tp = TimePoint(t);
            let in_result = l.is_some_and(|i| i.contains(tp)) || r.is_some_and(|i| i.contains(tp));
            prop_assert_eq!(in_result, a.contains(tp) && !b.contains(tp), "t={}", t);
        }
    }

    #[test]
    fn intersect_matches_point_semantics(a in interval_strategy(), b in interval_strategy()) {
        let i = a.intersect(&b);
        prop_assert_eq!(i, b.intersect(&a)); // commutative
        for t in 0..1200u64 {
            let tp = TimePoint(t);
            prop_assert_eq!(
                i.is_some_and(|iv| iv.contains(tp)),
                a.contains(tp) && b.contains(tp),
                "t={}", t
            );
        }
    }

    #[test]
    fn merge_is_commutative_and_exact(a in interval_strategy(), b in interval_strategy()) {
        let m = a.merge(&b);
        prop_assert_eq!(m, b.merge(&a)); // commutative
        // Defined exactly when the union is a single interval, and then
        // covers precisely the union of instants.
        prop_assert_eq!(m.is_some(), a.overlaps(&b) || a.is_adjacent(&b));
        if let Some(m) = m {
            for t in 0..1200u64 {
                let tp = TimePoint(t);
                prop_assert_eq!(m.contains(tp), a.contains(tp) || b.contains(tp), "t={}", t);
            }
        }
        // Idempotent: an interval merges with itself to itself.
        prop_assert_eq!(a.merge(&a), Some(a));
    }
}
