//! Property test: the three storage formats are observationally equivalent.
//!
//! A random sequence of bitemporal mutation primitives is applied to all
//! three stores and to a naive in-memory model (a plain `Vec` of versions).
//! After every step, the visibility queries of every store must agree with
//! the model — same current versions, same time-slices at every past
//! transaction time, same histories.

use proptest::prelude::*;
use std::sync::Arc;
use tcom_kernel::time::Interval;
use tcom_kernel::{AtomNo, TimePoint, Tuple, Value};
use tcom_storage::buffer::BufferPool;
use tcom_storage::disk::DiskManager;
use tcom_version::record::AtomVersion;
use tcom_version::{Store, StoreKind};

/// Naive executable specification of a version store.
#[derive(Default)]
struct Model {
    versions: Vec<AtomVersion>,
}

impl Model {
    fn insert(&mut self, vt: Interval, tt_start: TimePoint, tuple: &Tuple) {
        self.versions.push(AtomVersion {
            vt,
            tt: Interval::from_start(tt_start),
            tuple: tuple.clone(),
        });
    }

    fn close(&mut self, vt_start: TimePoint, tt_end: TimePoint) -> bool {
        for v in &mut self.versions {
            if v.tt.is_open_ended() && v.vt.start() == vt_start {
                v.tt = Interval::new(v.tt.start(), tt_end).expect("close after open");
                return true;
            }
        }
        false
    }

    fn current(&self) -> Vec<AtomVersion> {
        let mut out: Vec<AtomVersion> = self
            .versions
            .iter()
            .filter(|v| v.tt.is_open_ended())
            .cloned()
            .collect();
        out.sort_by_key(|v| v.vt.start());
        out
    }

    fn at(&self, tt: TimePoint) -> Vec<AtomVersion> {
        let mut out: Vec<AtomVersion> = self
            .versions
            .iter()
            .filter(|v| v.tt.contains(tt))
            .cloned()
            .collect();
        out.sort_by_key(|v| v.vt.start());
        out
    }

    fn history_sorted(&self) -> Vec<AtomVersion> {
        let mut out = self.versions.clone();
        out.sort_by(|a, b| {
            b.tt.start()
                .cmp(&a.tt.start())
                .then(a.vt.start().cmp(&b.vt.start()))
                .then(a.tt.end().cmp(&b.tt.end()))
        });
        out
    }
}

fn make_stores(tag: &str) -> (Vec<Store>, Vec<std::path::PathBuf>) {
    let pool = BufferPool::new(128);
    let mut paths = Vec::new();
    let mut stores = Vec::new();
    for kind in [StoreKind::Chain, StoreKind::Delta, StoreKind::Split] {
        let mut files = Vec::new();
        for suffix in kind.file_suffixes() {
            let p = std::env::temp_dir().join(format!(
                "tcom-eq-{}-{tag}-{kind}-{suffix}",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&p);
            files.push(pool.register_file(Arc::new(DiskManager::open(&p).unwrap())));
            paths.push(p);
        }
        stores.push(Store::open(kind, pool.clone(), &files, true).unwrap());
    }
    (stores, paths)
}

/// One mutation step of the generated workload.
#[derive(Clone, Debug)]
enum Op {
    /// Insert a version with vt = [start, start+len) (len 0 = open-ended).
    Insert {
        vt_start: u8,
        vt_len: u8,
        val: i8,
        wide_change: bool,
    },
    /// Close the current version whose vt starts at `vt_start`.
    Close { vt_start: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..20, 0u8..10, any::<i8>(), any::<bool>()).prop_map(|(vt_start, vt_len, val, wide_change)| Op::Insert {
            vt_start,
            vt_len,
            val,
            wide_change
        }),
        2 => (0u8..20).prop_map(|vt_start| Op::Close { vt_start }),
    ]
}

fn tuple_for(val: i8, wide_change: bool) -> Tuple {
    // 6 attributes; `wide_change` toggles whether several attributes or
    // just one differ between consecutive tuples (exercises both narrow
    // and wide deltas).
    Tuple::new(vec![
        Value::Int(val as i64),
        Value::from("constant text attribute"),
        if wide_change {
            Value::Int(val as i64 * 7)
        } else {
            Value::Int(0)
        },
        Value::Null,
        if wide_change {
            Value::from(format!("v{val}"))
        } else {
            Value::from("fixed")
        },
        Value::Bool(val % 2 == 0),
    ])
}

/// The single-atom workload makes an index-backed slice easy to flatten:
/// at most one group (atom 1) comes back.
fn indexed_slice(s: &Store, tt: TimePoint) -> Vec<AtomVersion> {
    let mut groups = s.slice_at(tt).unwrap();
    assert!(groups.len() <= 1, "unexpected atoms in slice");
    groups.pop().map_or_else(Vec::new, |(no, vs)| {
        assert_eq!(no, AtomNo(1), "unexpected atom in slice");
        vs
    })
}

fn assert_same(label: &str, got: &[AtomVersion], want: &[AtomVersion]) {
    assert_eq!(got.len(), want.len(), "{label}: cardinality");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.vt, w.vt, "{label}: vt");
        assert_eq!(g.tt, w.tt, "{label}: tt");
        assert_eq!(g.tuple, w.tuple, "{label}: tuple");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn stores_agree_with_model(ops in proptest::collection::vec(op_strategy(), 1..40), seed in 0u64..u64::MAX) {
        let tag = format!("{seed:x}");
        let (stores, paths) = make_stores(&tag);
        let mut model = Model::default();
        let no = AtomNo(1);
        let mut clock = 1u64;

        for op in &ops {
            let now = TimePoint(clock);
            match op {
                Op::Insert { vt_start, vt_len, val, wide_change } => {
                    let vs = TimePoint(*vt_start as u64);
                    let vt = if *vt_len == 0 {
                        Interval::from_start(vs)
                    } else {
                        Interval::new(vs, TimePoint(*vt_start as u64 + *vt_len as u64)).unwrap()
                    };
                    // Keep the engine invariant: current vts are disjoint.
                    // Skip inserts that would overlap a current version.
                    let overlaps = model.current().iter().any(|v| v.vt.overlaps(&vt));
                    if overlaps {
                        continue;
                    }
                    let t = tuple_for(*val, *wide_change);
                    model.insert(vt, now, &t);
                    for s in &stores {
                        s.insert_version(no, vt, now, &t).unwrap();
                    }
                }
                Op::Close { vt_start } => {
                    let vs = TimePoint(*vt_start as u64);
                    let expect = model.close(vs, now);
                    for s in &stores {
                        let got = s.close_version(no, vs, now).unwrap().is_some();
                        assert_eq!(got, expect, "{}: close result", s.kind());
                    }
                }
            }
            clock += 1;

            // After every step: all visibility queries agree.
            let want_cur = model.current();
            let want_hist = model.history_sorted();
            for s in &stores {
                assert_same(
                    &format!("{} current", s.kind()),
                    &s.current_versions(no).unwrap(),
                    &want_cur,
                );
                assert_same(
                    &format!("{} history", s.kind()),
                    &s.history(no).unwrap(),
                    &want_hist,
                );
            }
        }

        // Final: time-slices at every transaction time seen so far, through
        // both access paths (the per-atom walk and the time index).
        for t in 0..clock + 1 {
            let tt = TimePoint(t);
            let want = model.at(tt);
            for s in &stores {
                assert_same(
                    &format!("{} slice@{t}", s.kind()),
                    &s.versions_at(no, tt).unwrap(),
                    &want,
                );
                assert_same(
                    &format!("{} index-slice@{t}", s.kind()),
                    &indexed_slice(s, tt),
                    &want,
                );
            }
        }
        // FOREVER means "current state" on both paths.
        for s in &stores {
            assert_same(
                &format!("{} index-slice@forever", s.kind()),
                &indexed_slice(s, TimePoint::FOREVER),
                &model.current(),
            );
            assert_same(
                &format!("{} slice@forever", s.kind()),
                &s.versions_at(no, TimePoint::FOREVER).unwrap(),
                &model.current(),
            );
        }

        for p in paths {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Deterministic long-history equivalence (heavier than the proptest cases).
#[test]
fn long_history_equivalence() {
    let (stores, paths) = make_stores("long");
    let mut model = Model::default();
    let no = AtomNo(1);
    let mut rng_state = 0x12345678u64;
    let mut rand = move || {
        rng_state = rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng_state >> 33) as i8
    };

    let mut clock = 1u64;
    // 200 update rounds: close the open slice, insert a replacement.
    let vt0 = TimePoint(0);
    let t = tuple_for(rand(), false);
    model.insert(Interval::from_start(vt0), TimePoint(clock), &t);
    for s in &stores {
        s.insert_version(no, Interval::from_start(vt0), TimePoint(clock), &t)
            .unwrap();
    }
    clock += 1;
    for _ in 0..200 {
        let now = TimePoint(clock);
        assert!(model.close(vt0, now));
        for s in &stores {
            assert!(s.close_version(no, vt0, now).unwrap().is_some());
        }
        let t = tuple_for(rand(), rand() % 3 == 0);
        model.insert(Interval::from_start(vt0), now, &t);
        for s in &stores {
            s.insert_version(no, Interval::from_start(vt0), now, &t)
                .unwrap();
        }
        clock += 1;
    }

    for t in (0..clock).step_by(13) {
        let tt = TimePoint(t);
        let want = model.at(tt);
        for s in &stores {
            assert_same(
                &format!("{} slice@{t}", s.kind()),
                &s.versions_at(no, tt).unwrap(),
                &want,
            );
        }
    }
    let want_hist = model.history_sorted();
    assert_eq!(want_hist.len(), 201);
    for s in &stores {
        assert_same(
            &format!("{} history", s.kind()),
            &s.history(no).unwrap(),
            &want_hist,
        );
    }

    // Prune half the history: every store must agree with the pruned model.
    let cutoff = TimePoint(clock / 2);
    model.versions.retain(|v| v.tt.end() > cutoff);
    let mut removed_counts = Vec::new();
    for s in &stores {
        removed_counts.push(
            s.extract_closed(&s.maintenance(), no, cutoff)
                .unwrap()
                .len(),
        );
    }
    assert!(removed_counts
        .iter()
        .all(|&r| r == removed_counts[0] && r > 0));
    let want_hist = model.history_sorted();
    for s in &stores {
        assert_same(
            &format!("{} history after prune", s.kind()),
            &s.history(no).unwrap(),
            &want_hist,
        );
        assert_same(
            &format!("{} current after prune", s.kind()),
            &s.current_versions(no).unwrap(),
            &model.current(),
        );
    }
    // Post-cutoff slices unaffected — on the walk and on the index, whose
    // entries prune rebuilt under relocated record ids.
    for t in (cutoff.0..clock).step_by(17) {
        let tt = TimePoint(t);
        let want = model.at(tt);
        for s in &stores {
            assert_same(
                &format!("{} slice@{t} after prune", s.kind()),
                &s.versions_at(no, tt).unwrap(),
                &want,
            );
            assert_same(
                &format!("{} index-slice@{t} after prune", s.kind()),
                &indexed_slice(s, tt),
                &want,
            );
        }
    }

    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}
