//! Unit tests of the store core, table-driven over [`StoreKind`]: every
//! case that does not depend on a layout runs for all three; the locality,
//! compression-shape and logical-delete cases stay with the layout they
//! are about.

use super::*;
use tcom_kernel::time::{iv, iv_from};
use tcom_kernel::Value;
use tcom_storage::disk::DiskManager;

const KINDS: [StoreKind; 3] = [StoreKind::Chain, StoreKind::Delta, StoreKind::Split];

/// Removes a test store's files when dropped.
struct Files(Vec<std::path::PathBuf>);

impl Drop for Files {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Fresh files of `kind`'s layout, registered with a 64-frame pool.
fn files(kind: StoreKind, name: &str) -> (Arc<BufferPool>, Vec<FileId>, Files) {
    let pool = BufferPool::new(64);
    let mut paths = Vec::new();
    let mut ids = Vec::new();
    for suffix in kind.file_suffixes() {
        let p = std::env::temp_dir().join(format!(
            "tcom-store-{}-{kind}-{name}-{suffix}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        ids.push(pool.register_file(Arc::new(DiskManager::open(&p).unwrap())));
        paths.push(p);
    }
    (pool, ids, Files(paths))
}

fn store(kind: StoreKind, name: &str) -> (Store, Files) {
    let (pool, ids, files) = files(kind, name);
    (Store::open(kind, pool, &ids, true).unwrap(), files)
}

fn tup(v: i64) -> Tuple {
    Tuple::new(vec![Value::Int(v), Value::from("some payload text")])
}

/// Wide tuple where only one attribute changes per update — the delta
/// layout's sweet spot.
fn wide(v: i64) -> Tuple {
    let mut vals: Vec<Value> = (0..16)
        .map(|i| Value::Text(format!("attr-{i}-constant-payload")))
        .collect();
    vals[3] = Value::Int(v);
    Tuple::new(vals)
}

/// `n` versions of one open-ended valid-time slice: `make(0)` at tt 1, then
/// `n - 1` close+insert rounds at tt 2, 3, ….
fn run_updates(s: &Store, no: AtomNo, n: u64, make: fn(i64) -> Tuple) {
    s.insert_version(no, iv_from(0), TimePoint(1), &make(0))
        .unwrap();
    for t in 1..n {
        s.close_version(no, TimePoint(0), TimePoint(t + 1)).unwrap();
        s.insert_version(no, iv_from(0), TimePoint(t + 1), &make(t as i64))
            .unwrap();
    }
}

/// The walk-backed reference: per-atom `versions_at` over `atoms`.
fn sweep(s: &Store, tt: TimePoint) -> Vec<(u64, Vec<AtomVersion>)> {
    let mut out = Vec::new();
    for no in s.atoms().unwrap() {
        let vs = s.versions_at(no, tt).unwrap();
        if !vs.is_empty() {
            out.push((no.0, vs));
        }
    }
    out
}

fn slice(s: &Store, tt: TimePoint) -> Vec<(u64, Vec<AtomVersion>)> {
    let groups = s.slice_at(tt).unwrap();
    groups.into_iter().map(|(no, vs)| (no.0, vs)).collect()
}

/// The index-backed slice agrees with the walk at ticks `0..=through` and
/// at `FOREVER`.
fn assert_slice_matches_sweep(s: &Store, through: u64) {
    for tt in (0..=through).map(TimePoint).chain([TimePoint::FOREVER]) {
        assert_eq!(slice(s, tt), sweep(s, tt), "{} tt={tt:?}", s.kind());
    }
}

// ---- layout-independent cases ----

#[test]
fn open_checks_the_file_count() {
    for kind in KINDS {
        let pool = BufferPool::new(8);
        assert!(Store::open(kind, pool, &[], true).is_err(), "{kind}");
    }
}

#[test]
fn insert_and_read_current() {
    for kind in KINDS {
        let (s, _files) = store(kind, "cur");
        let no = AtomNo(1);
        assert!(!s.exists(no).unwrap());
        s.insert_version(no, iv_from(0), TimePoint(1), &tup(10))
            .unwrap();
        assert!(s.exists(no).unwrap());
        let cur = s.current_versions(no).unwrap();
        assert_eq!(cur.len(), 1);
        assert_eq!(cur[0].tuple, tup(10));
        assert_eq!(cur[0].tt, iv_from(1));
    }
}

#[test]
fn update_sequence_builds_history() {
    for kind in KINDS {
        let (s, _files) = store(kind, "hist");
        let no = AtomNo(7);
        // tt=1: value 10; tt=2: close and write 20; tt=3: close and write 30.
        s.insert_version(no, iv_from(0), TimePoint(1), &tup(10))
            .unwrap();
        assert!(s
            .close_version(no, TimePoint(0), TimePoint(2))
            .unwrap()
            .is_some());
        s.insert_version(no, iv_from(0), TimePoint(2), &tup(20))
            .unwrap();
        assert!(s
            .close_version(no, TimePoint(0), TimePoint(3))
            .unwrap()
            .is_some());
        s.insert_version(no, iv_from(0), TimePoint(3), &tup(30))
            .unwrap();

        let cur = s.current_versions(no).unwrap();
        assert_eq!(cur.len(), 1);
        assert_eq!(cur[0].tuple, tup(30));

        // Time-slice at tt=1 and tt=2.
        let v1 = s.versions_at(no, TimePoint(1)).unwrap();
        assert_eq!(v1.len(), 1);
        assert_eq!(v1[0].tuple, tup(10));
        let v2 = s.versions_at(no, TimePoint(2)).unwrap();
        assert_eq!(v2[0].tuple, tup(20));
        // Before creation: nothing.
        assert!(s.versions_at(no, TimePoint(0)).unwrap().is_empty());

        let h = s.history(no).unwrap();
        assert_eq!(h.len(), 3);
        assert_eq!(h[0].tuple, tup(30)); // newest first
        assert_eq!(h[2].tuple, tup(10));
    }
}

#[test]
fn current_and_slices_over_a_long_history() {
    for kind in KINDS {
        for make in [tup as fn(i64) -> Tuple, wide] {
            let (s, _files) = store(kind, "long");
            let no = AtomNo(1);
            run_updates(&s, no, 10, make);
            let cur = s.current_versions(no).unwrap();
            assert_eq!(cur.len(), 1);
            assert_eq!(cur[0].tuple, make(9));
            for t in 1..=10u64 {
                let vs = s.versions_at(no, TimePoint(t)).unwrap();
                assert_eq!(vs.len(), 1, "{kind} tt={t}");
                assert_eq!(vs[0].tuple, make(t as i64 - 1), "{kind} tt={t}");
            }
            assert!(s.versions_at(no, TimePoint(0)).unwrap().is_empty());
            let h = s.history(no).unwrap();
            assert_eq!(h.len(), 10);
            for (i, v) in h.iter().enumerate() {
                assert_eq!(v.tuple, make((9 - i) as i64), "{kind} version {i}");
            }
        }
    }
}

#[test]
fn close_false_cases() {
    for kind in KINDS {
        let (s, _files) = store(kind, "false");
        let no = AtomNo(3);
        assert!(s
            .close_version(no, TimePoint(0), TimePoint(5))
            .unwrap()
            .is_none());
        s.insert_version(no, iv(0, 10), TimePoint(1), &tup(1))
            .unwrap();
        // wrong vt start
        assert!(s
            .close_version(no, TimePoint(5), TimePoint(5))
            .unwrap()
            .is_none());
        assert!(s
            .close_version(no, TimePoint(42), TimePoint(5))
            .unwrap()
            .is_none());
        assert!(s
            .close_version(no, TimePoint(99), TimePoint(5))
            .unwrap()
            .is_none());
        // right vt start: the close hands back the tuple it closed
        assert_eq!(
            s.close_version(no, TimePoint(0), TimePoint(5)).unwrap(),
            Some(tup(1)),
            "{kind}"
        );
        // already closed: idempotent false
        assert!(s
            .close_version(no, TimePoint(0), TimePoint(6))
            .unwrap()
            .is_none());
    }
}

#[test]
fn multiple_current_vt_slices() {
    for kind in KINDS {
        let (s, _files) = store(kind, "slices");
        let no = AtomNo(9);
        // Two slices recorded in the same tick, a third one later.
        s.insert_version(no, iv(0, 10), TimePoint(1), &tup(1))
            .unwrap();
        s.insert_version(no, iv(10, 20), TimePoint(1), &tup(2))
            .unwrap();
        s.insert_version(no, iv_from(20), TimePoint(2), &tup(3))
            .unwrap();
        let cur = s.current_versions(no).unwrap();
        assert_eq!(cur.len(), 3);
        assert_eq!(cur[0].vt, iv(0, 10)); // sorted by vt
        assert_eq!(cur[2].vt, iv_from(20));
        // Close the middle slice.
        assert!(s
            .close_version(no, TimePoint(10), TimePoint(5))
            .unwrap()
            .is_some());
        assert_eq!(s.current_versions(no).unwrap().len(), 2);
        // At tt=4, all three were visible.
        assert_eq!(s.versions_at(no, TimePoint(4)).unwrap().len(), 3);
        // At tt=5, only two.
        assert_eq!(s.versions_at(no, TimePoint(5)).unwrap().len(), 2);
        assert_slice_matches_sweep(&s, 6);
    }
}

#[test]
fn atoms_in_order_including_deleted_ones() {
    for kind in KINDS {
        let (s, _files) = store(kind, "scan");
        for no in [5u64, 1, 9, 3] {
            s.insert_version(AtomNo(no), iv_from(0), TimePoint(1), &tup(no as i64))
                .unwrap();
        }
        s.close_version(AtomNo(1), TimePoint(0), TimePoint(2))
            .unwrap();
        let seen: Vec<u64> = s.atoms().unwrap().iter().map(|no| no.0).collect();
        assert_eq!(seen, vec![1, 3, 5, 9]);
    }
}

#[test]
fn stats_reflect_growth() {
    for kind in KINDS {
        let (s, _files) = store(kind, "stats");
        for i in 0..50u64 {
            s.insert_version(AtomNo(i), iv_from(0), TimePoint(1), &tup(i as i64))
                .unwrap();
        }
        for i in 0..50u64 {
            s.close_version(AtomNo(i), TimePoint(0), TimePoint(2))
                .unwrap();
            s.insert_version(AtomNo(i), iv_from(0), TimePoint(2), &tup(-(i as i64)))
                .unwrap();
        }
        let st = s.stats().unwrap();
        assert_eq!(st.atoms, 50);
        assert_eq!(st.versions, 100);
        assert_eq!(st.open_versions, 50);
        assert_eq!(st.max_depth, 2);
        assert!(st.record_bytes > 0);
        assert!(st.heap_pages >= 1);

        let (s, _files) = store(kind, "stats2");
        for no in 0..10u64 {
            run_updates(&s, AtomNo(no), 5, tup);
        }
        let st = s.stats().unwrap();
        assert_eq!(st.atoms, 10);
        assert_eq!(st.versions, 50);
        assert!(st.record_bytes > 0);
    }
}

#[test]
fn slice_at_matches_walks() {
    for kind in KINDS {
        let (s, _files) = store(kind, "slice");
        for no in [2u64, 5, 8] {
            s.insert_version(AtomNo(no), iv_from(0), TimePoint(1), &tup(no as i64))
                .unwrap();
            s.close_version(AtomNo(no), TimePoint(0), TimePoint(3))
                .unwrap();
            s.insert_version(AtomNo(no), iv_from(0), TimePoint(3), &tup(no as i64 + 100))
                .unwrap();
        }
        // Atom 8 is pruned of its closed history.
        assert_eq!(
            s.extract_closed(&s.maintenance(), AtomNo(8), TimePoint(3))
                .unwrap()
                .len(),
            1
        );
        assert_slice_matches_sweep(&s, 4);
        // FOREVER means the current state on both paths.
        assert_eq!(slice(&s, TimePoint::FOREVER).len(), 3);
    }
}

#[test]
fn slice_at_matches_walks_through_compression() {
    for kind in KINDS {
        let (s, _files) = store(kind, "ix");
        for no in [1u64, 4, 6] {
            run_updates(&s, AtomNo(no), 6, wide);
        }
        // Delta chains are mostly deltas now; the index-backed slice must
        // still agree with the per-atom walk at every tick.
        assert_slice_matches_sweep(&s, 7);
        let after: Vec<(u64, usize)> = slice(&s, TimePoint(3))
            .iter()
            .map(|(no, vs)| (*no, vs.len()))
            .collect();
        assert_eq!(after, vec![(1, 1), (4, 1), (6, 1)]);
    }
}

#[test]
fn slice_at_after_delete_and_prune_and_forever_is_current() {
    for kind in KINDS {
        let (s, _files) = store(kind, "ix2");
        for no in [1u64, 2, 5] {
            run_updates(&s, AtomNo(no), 6, tup);
        }
        // Atom 2 ends logically deleted; atom 5 loses its old history.
        s.close_version(AtomNo(2), TimePoint(0), TimePoint(7))
            .unwrap();
        assert!(!s
            .extract_closed(&s.maintenance(), AtomNo(5), TimePoint(4))
            .unwrap()
            .is_empty());
        assert_slice_matches_sweep(&s, 8);
        // FOREVER == current state: the deleted atom 2 is absent.
        let cur = slice(&s, TimePoint::FOREVER);
        assert_eq!(cur.iter().map(|(n, _)| *n).collect::<Vec<_>>(), vec![1, 5]);
    }
}

#[test]
fn extract_is_previewed_by_collect_and_is_idempotent() {
    for kind in KINDS {
        let (s, _files) = store(kind, "extract");
        let no = AtomNo(4);
        run_updates(&s, no, 8, wide);
        let key = |v: &AtomVersion| v.tt.start();
        let mut preview = s.collect_closed(no, TimePoint(5)).unwrap();
        let mut extracted = s
            .extract_closed(&s.maintenance(), no, TimePoint(5))
            .unwrap();
        preview.sort_by_key(key);
        extracted.sort_by_key(key);
        assert_eq!(preview, extracted, "{kind}");
        assert_eq!(extracted.len(), 4, "{kind}: tt.end 2..=5");
        assert!(s
            .extract_closed(&s.maintenance(), no, TimePoint(5))
            .unwrap()
            .is_empty());
        assert!(s.collect_closed(no, TimePoint(5)).unwrap().is_empty());
        // What stays still reads back, and the atom outlives its history.
        let h = s.history(no).unwrap();
        assert_eq!(h.len(), 4);
        assert_eq!(h[0].tuple, wide(7));
        assert_eq!(h[3].tuple, wide(4));
        assert_eq!(
            s.extract_closed(&s.maintenance(), no, TimePoint(8))
                .unwrap()
                .len(),
            3
        );
        assert_eq!(s.current_versions(no).unwrap()[0].tuple, wide(7));
    }
}

// ---- single-layout cases ----

#[test]
fn logical_delete_empties_current() {
    let (s, _files) = store(StoreKind::Split, "del");
    let no = AtomNo(2);
    s.insert_version(no, iv_from(0), TimePoint(1), &tup(5))
        .unwrap();
    assert!(s
        .close_version(no, TimePoint(0), TimePoint(3))
        .unwrap()
        .is_some());
    assert!(s.current_versions(no).unwrap().is_empty());
    assert!(
        s.exists(no).unwrap(),
        "deleted atom still exists historically"
    );
    // Still visible in the past.
    let vs = s.versions_at(no, TimePoint(2)).unwrap();
    assert_eq!(vs.len(), 1);
}

#[test]
fn current_heap_stays_small() {
    let (s, _files) = store(StoreKind::Split, "locality");
    for no in 0..50u64 {
        run_updates(&s, AtomNo(no), 20, tup);
    }
    let shape = s.shape().unwrap();
    assert!(
        shape.chain_pages > shape.current_pages * 2,
        "history should dominate: {shape:?}"
    );
}

#[test]
fn only_the_delta_layout_compresses() {
    for kind in KINDS {
        let (s, _files) = store(kind, "shape");
        run_updates(&s, AtomNo(1), 10, wide);
        let shape = s.shape().unwrap();
        match kind {
            // All but the head should have been compressed to deltas.
            StoreKind::Delta => assert_eq!((shape.full, shape.delta), (1, 9)),
            // The split chain holds the nine closed versions only.
            StoreKind::Split => assert_eq!((shape.full, shape.delta), (9, 0)),
            StoreKind::Chain => assert_eq!((shape.full, shape.delta), (10, 0)),
        }
    }
}

#[test]
fn a_delta_record_in_a_full_copy_store_is_corruption() {
    // The same files opened under the wrong layout: the chain layout must
    // refuse the delta payloads instead of misreading them.
    let (pool, ids, _files) = files(StoreKind::Delta, "wrongkind");
    let delta = Store::open(StoreKind::Delta, pool.clone(), &ids, true).unwrap();
    run_updates(&delta, AtomNo(1), 4, wide);
    let chain = Store::open(StoreKind::Chain, pool, &ids, false).unwrap();
    let err = chain.history(AtomNo(1)).unwrap_err();
    assert!(err
        .to_string()
        .contains("delta record in a full-copy store"));
}

#[test]
fn delta_store_uses_less_space_than_full_copies() {
    let (s, _files) = store(StoreKind::Delta, "space");
    for no in 0..20u64 {
        run_updates(&s, AtomNo(no), 16, wide);
    }
    let st = s.stats().unwrap();
    assert_eq!(st.versions, 320);
    // A full wide() tuple encodes to ~400 bytes; a one-attribute delta
    // to ~15. With 15/16 of records compressed, the average must be far
    // below the full size.
    let avg = st.record_bytes / st.versions;
    let full_len = VersionRecord {
        atom_no: AtomNo(0),
        vt: iv_from(0),
        tt: iv_from(1),
        prev: RecordId::INVALID,
        payload: Payload::Full(wide(0)),
    }
    .encode()
    .len() as u64;
    assert!(
        avg < full_len / 3,
        "avg record {avg} bytes vs full {full_len} bytes"
    );
}

#[test]
fn multiple_current_slices_stay_full() {
    let (s, _files) = store(StoreKind::Delta, "multi");
    let no = AtomNo(5);
    s.insert_version(no, iv(0, 10), TimePoint(1), &wide(1))
        .unwrap();
    s.insert_version(no, iv(10, 20), TimePoint(1), &wide(2))
        .unwrap();
    // Both are current: nothing may be compressed.
    let shape = s.shape().unwrap();
    assert_eq!((shape.full, shape.delta), (2, 0));
    let cur = s.current_versions(no).unwrap();
    assert_eq!(cur.len(), 2);
    assert_eq!(cur[0].tuple, wide(1));
    assert_eq!(cur[1].tuple, wide(2));
    // Close the older slice; a later insert compresses it.
    s.close_version(no, TimePoint(0), TimePoint(2)).unwrap();
    s.insert_version(no, iv(0, 10), TimePoint(2), &wide(3))
        .unwrap();
    let h = s.history(no).unwrap();
    assert_eq!(h.len(), 3);
    // Everything still reconstructs.
    assert!(h.iter().any(|v| v.tuple == wide(1)));
    assert!(h.iter().any(|v| v.tuple == wide(2)));
    assert!(h.iter().any(|v| v.tuple == wide(3)));
}
