//! Regression: pruning a delta-compressed chain must leave every surviving
//! record reconstructible.
//!
//! A delta record's payload is a diff against its chain predecessor (the
//! next-newer record). Pruning removes the oldest records and *relocates*
//! the kept ones, so a buggy prune can leave a delta whose base was deleted
//! or whose diff was computed against the wrong neighbour — which silently
//! reconstructs the wrong tuple rather than failing. This suite locks in
//! the invariant by comparing every reconstruction against an in-memory
//! model after prunes at awkward cutoffs, with updates continuing in
//! between.

use std::sync::Arc;
use tcom_kernel::time::Interval;
use tcom_kernel::{AtomNo, TimePoint, Tuple, Value};
use tcom_storage::buffer::BufferPool;
use tcom_storage::disk::DiskManager;
use tcom_version::{Store, StoreKind};

fn make_store(tag: &str) -> (Store, Vec<std::path::PathBuf>) {
    let pool = BufferPool::new(128);
    let mut paths = Vec::new();
    let mut file = |suffix: &str| {
        let p = std::env::temp_dir().join(format!(
            "tcom-prune-{}-{}-{}",
            std::process::id(),
            tag,
            suffix
        ));
        let _ = std::fs::remove_file(&p);
        let id = pool.register_file(Arc::new(DiskManager::open(&p).unwrap()));
        paths.push(p);
        id
    };
    let kind = StoreKind::Delta;
    let files: Vec<_> = kind.file_suffixes().iter().map(|s| file(s)).collect();
    let s = Store::open(kind, pool.clone(), &files, true).unwrap();
    (s, paths)
}

/// Tuples that differ in one attribute between consecutive rounds, so the
/// store actually stores deltas (narrow diffs) rather than degenerating to
/// full records.
fn tuple_for(round: u64) -> Tuple {
    Tuple::new(vec![
        Value::Int(round as i64),
        Value::from("constant text that makes full records expensive"),
        Value::Bool(round.is_multiple_of(2)),
    ])
}

/// Expected versions of the single atom: `(tt, tuple)` with tt half-open.
struct Model {
    rows: Vec<(Interval, Tuple)>,
}

impl Model {
    fn at(&self, tt: TimePoint) -> Vec<Tuple> {
        self.rows
            .iter()
            .filter(|(iv, _)| iv.contains(tt))
            .map(|(_, t)| t.clone())
            .collect()
    }
}

/// Runs `rounds` close+insert update rounds starting at `clock`, mirroring
/// them into `model`; returns the advanced clock.
fn update_rounds(s: &Store, model: &mut Model, no: AtomNo, mut clock: u64, rounds: u64) -> u64 {
    let vt0 = TimePoint(0);
    for r in 0..rounds {
        let now = TimePoint(clock);
        assert!(s.close_version(no, vt0, now).unwrap().is_some());
        let (iv, _) = model.rows.last_mut().unwrap();
        *iv = Interval::new(iv.start(), now).unwrap();
        let t = tuple_for(clock + r);
        s.insert_version(no, Interval::from_start(vt0), now, &t)
            .unwrap();
        model.rows.push((Interval::from_start(now), t));
        clock += 1;
    }
    clock
}

fn assert_matches_model(s: &Store, model: &Model, no: AtomNo, clock: u64, label: &str) {
    // History reconstructs every surviving tuple (newest→oldest walk).
    let hist = s.history(no).unwrap();
    assert_eq!(hist.len(), model.rows.len(), "{label}: history cardinality");
    for v in &hist {
        let want = model
            .rows
            .iter()
            .find(|(iv, _)| *iv == v.tt)
            .unwrap_or_else(|| panic!("{label}: unexpected tt {:?}", v.tt));
        assert_eq!(v.tuple, want.1, "{label}: reconstruction at tt {:?}", v.tt);
    }
    // Every transaction-time slice agrees.
    for t in 0..clock + 1 {
        let got: Vec<Tuple> = s
            .versions_at(no, TimePoint(t))
            .unwrap()
            .into_iter()
            .map(|v| v.tuple)
            .collect();
        assert_eq!(got, model.at(TimePoint(t)), "{label}: slice@{t}");
    }
}

#[test]
fn prune_preserves_delta_reconstruction() {
    let (s, paths) = make_store("compress");
    let no = AtomNo(1);
    let mut model = Model { rows: Vec::new() };

    // Seed the atom, then 48 update rounds to grow a compressed chain.
    let mut clock = 1u64;
    let t = tuple_for(0);
    s.insert_version(no, Interval::from_start(TimePoint(0)), TimePoint(clock), &t)
        .unwrap();
    model.rows.push((Interval::from_start(TimePoint(clock)), t));
    clock += 1;
    clock = update_rounds(&s, &mut model, no, clock, 48);

    // Precondition: compression engaged — the chain holds real deltas.
    let shape = s.shape().unwrap();
    assert!(shape.delta > 0, "chain never compressed ({shape:?})");

    // Prune a prefix whose cutoff lands strictly inside the chain, so the
    // oldest *kept* record was a delta against a now-deleted neighbour and
    // must have been re-based during the rebuild.
    let cutoff = TimePoint(clock / 3);
    let removed = s
        .extract_closed(&s.maintenance(), no, cutoff)
        .unwrap()
        .len();
    assert!(removed > 0, "nothing pruned");
    model.rows.retain(|(iv, _)| iv.end() > cutoff);
    assert_matches_model(&s, &model, no, clock, "after first prune");
    assert!(
        s.shape().unwrap().delta > 0,
        "prune rebuilt everything as full records"
    );

    // Keep updating after the prune — new deltas stack on relocated bases.
    clock = update_rounds(&s, &mut model, no, clock, 16);
    assert_matches_model(&s, &model, no, clock, "after post-prune updates");

    // Prune again with a cutoff that removes most of the remaining chain,
    // leaving only a short suffix (head re-bases onto nothing).
    let cutoff = TimePoint(clock - 4);
    let removed = s
        .extract_closed(&s.maintenance(), no, cutoff)
        .unwrap()
        .len();
    assert!(removed > 0);
    model.rows.retain(|(iv, _)| iv.end() > cutoff);
    assert_matches_model(&s, &model, no, clock, "after second prune");

    // Idempotence: a cutoff that removes nothing leaves the chain intact.
    assert!(s
        .extract_closed(&s.maintenance(), no, cutoff)
        .unwrap()
        .is_empty());
    assert_matches_model(&s, &model, no, clock, "after no-op prune");

    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn prune_on_multiple_compressed_atoms() {
    let (s, paths) = make_store("multi");
    let mut models: Vec<Model> = Vec::new();
    let mut clock = 1u64;

    // Three atoms with interleaved histories of different depths.
    for i in 0..3u64 {
        let no = AtomNo(i + 1);
        let t = tuple_for(i);
        s.insert_version(no, Interval::from_start(TimePoint(0)), TimePoint(clock), &t)
            .unwrap();
        models.push(Model {
            rows: vec![(Interval::from_start(TimePoint(clock)), t)],
        });
        clock += 1;
    }
    for round in 0..24u64 {
        let no = AtomNo(round % 3 + 1);
        clock = update_rounds(&s, &mut models[(round % 3) as usize], no, clock, 1);
    }

    // Prune each atom at a distinct cutoff; the others must be untouched.
    for i in 0..3u64 {
        let no = AtomNo(i + 1);
        let cutoff = TimePoint(clock / 2 + i * 3);
        s.extract_closed(&s.maintenance(), no, cutoff).unwrap();
        models[i as usize].rows.retain(|(iv, _)| iv.end() > cutoff);
        for j in 0..3u64 {
            assert_matches_model(
                &s,
                &models[j as usize],
                AtomNo(j + 1),
                clock,
                &format!("atom {} after pruning atom {}", j + 1, i + 1),
            );
        }
    }

    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}
