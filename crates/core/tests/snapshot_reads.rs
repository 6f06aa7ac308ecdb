//! Snapshot-read regression battery: readers must never block behind a
//! committing writer (liveness) and must never observe a torn — partially
//! applied — transaction (atomicity).
//!
//! The liveness test parks a commit *inside* its apply section using the
//! engine's `block_applies_for_test` hook (which holds `commit_lock`
//! exclusively, exactly where an applying commit holds it shared). A
//! reader that touched `commit_lock` on its path would block behind that
//! guard; the bounded-wall-clock assertion turns any such regression into
//! a test failure.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tcom_core::{
    AtomId, AtomTypeId, AttrDef, DataType, Database, DbConfig, Interval, StoreKind, SyncPolicy,
    TimePoint, Tuple, Value,
};
use tcom_query::exec::{execute, execute_with, ExecOptions, QueryOutput};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-snap-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn open(tag: &str) -> (Database, AtomTypeId, PathBuf) {
    let dir = tmpdir(tag);
    let db = Database::open(
        &dir,
        DbConfig::default()
            .store_kind(StoreKind::Split)
            .sync_policy(SyncPolicy::OnCheckpoint)
            .checkpoint_interval(0),
    )
    .unwrap();
    let ty = db
        .define_atom_type("emp", vec![AttrDef::new("salary", DataType::Int)])
        .unwrap();
    (db, ty, dir)
}

fn tup(v: i64) -> Tuple {
    Tuple::new(vec![Value::Int(v)])
}

fn salaries(db: &Database) -> Vec<i64> {
    match execute(db, "SELECT * FROM emp").unwrap() {
        QueryOutput::Rows { rows, .. } => rows
            .iter()
            .map(|r| match r.values[0] {
                Value::Int(v) => v,
                ref other => panic!("unexpected value {other:?}"),
            })
            .collect(),
        other => panic!("unexpected output {other:?}"),
    }
}

/// A reader completes, with the pre-commit state, while a large commit is
/// parked mid-apply — and within a hard wall-clock bound, proving it
/// never touched `commit_lock`.
#[test]
fn reader_completes_while_commit_applies() {
    let (db, ty, dir) = open("liveness");
    const ATOMS: usize = 64;
    let mut txn = db.begin();
    let atoms: Vec<AtomId> = (0..ATOMS)
        .map(|_| txn.insert_atom(ty, Interval::all(), tup(1)).unwrap())
        .collect();
    txn.commit().unwrap();

    // Park every apply: the next commit stalls after WAL durability,
    // right where it would take `commit_lock` shared.
    let guard = db.block_applies_for_test();

    let (staged_tx, staged_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let db2 = &db;
        let atoms2 = &atoms;
        s.spawn(move || {
            let mut big = db2.begin();
            for a in atoms2 {
                big.update(*a, Interval::all(), tup(2)).unwrap();
            }
            staged_tx.send(()).unwrap();
            big.commit().unwrap(); // blocks on the parked apply
        });
        staged_rx.recv().unwrap();
        // Let the committer reach the blocked apply section.
        std::thread::sleep(Duration::from_millis(100));

        let t0 = Instant::now();
        let got = salaries(&db);
        let elapsed = t0.elapsed();
        assert_eq!(got, vec![1i64; ATOMS], "reader must see pre-commit state");
        assert!(
            elapsed < Duration::from_secs(2),
            "reader took {elapsed:?} with a commit parked mid-apply — \
             it blocked behind commit_lock"
        );
        // Readers stay live indefinitely while the apply is parked.
        assert_eq!(salaries(&db), vec![1i64; ATOMS]);
        drop(guard); // un-park; the commit finishes
    });

    assert_eq!(salaries(&db), vec![2i64; ATOMS], "commit visible after");
    assert!(db.verify_integrity().unwrap().is_ok());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Uniform-value commits: every transaction rewrites *all* atoms to one
/// value, so any scan that observes two different values saw a torn
/// commit. Readers hammer the scan while the writer churns.
#[test]
fn scans_never_observe_torn_commits() {
    let (db, ty, dir) = open("atomicity");
    const ATOMS: usize = 16;
    const COMMITS: i64 = 60;
    let mut txn = db.begin();
    let atoms: Vec<AtomId> = (0..ATOMS)
        .map(|_| txn.insert_atom(ty, Interval::all(), tup(0)).unwrap())
        .collect();
    txn.commit().unwrap();

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db2 = &db;
        let atoms2 = &atoms;
        let done2 = &done;
        s.spawn(move || {
            for k in 1..=COMMITS {
                let mut txn = db2.begin();
                for a in atoms2 {
                    txn.update(*a, Interval::all(), tup(k)).unwrap();
                }
                txn.commit().unwrap();
            }
            done2.store(true, Ordering::Release);
        });
        for _ in 0..2 {
            let db2 = &db;
            let done2 = &done;
            s.spawn(move || {
                let mut last = -1i64;
                loop {
                    let writer_done = done2.load(Ordering::Acquire);
                    let got = salaries(db2);
                    assert_eq!(got.len(), ATOMS);
                    let v = got[0];
                    assert!(
                        got.iter().all(|&x| x == v),
                        "torn scan: mixed values {got:?}"
                    );
                    assert!(v >= last, "snapshot went backwards: {v} after {last}");
                    last = v;
                    if writer_done && last == COMMITS {
                        break;
                    }
                }
            });
        }
    });
    assert!(db.verify_integrity().unwrap().is_ok());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pinned `ASOF TT` slice is immutable: the visible row *content*
/// (atom, values, valid time, version birth) cannot change no matter how
/// many commits land after it. Only a version's tt *end* may move — from
/// `∞` to the closing timestamp — which is recorded history, not content.
fn slice_content(db: &Database, q: &str) -> Vec<(AtomId, Vec<Value>, Interval, u64)> {
    slice_content_with(db, q, ExecOptions::default())
}

fn slice_content_with(
    db: &Database,
    q: &str,
    opts: ExecOptions,
) -> Vec<(AtomId, Vec<Value>, Interval, u64)> {
    match execute_with(db, q, opts).unwrap() {
        QueryOutput::Rows { rows, .. } => rows
            .into_iter()
            .map(|r| (r.atom, r.values, r.vt, r.tt.start().0))
            .collect(),
        other => panic!("unexpected output {other:?}"),
    }
}

#[test]
fn asof_slices_stay_frozen_under_churn() {
    let (db, ty, dir) = open("frozen");
    let mut txn = db.begin();
    let atom = txn.insert_atom(ty, Interval::all(), tup(7)).unwrap();
    let tt0 = txn.commit().unwrap();

    let q = format!("SELECT * FROM emp ASOF TT {}", tt0.0);
    let frozen = slice_content(&db, &q);

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db2 = &db;
        let done2 = &done;
        s.spawn(move || {
            for k in 0..40i64 {
                let mut txn = db2.begin();
                txn.update(atom, Interval::all(), tup(100 + k)).unwrap();
                txn.commit().unwrap();
            }
            done2.store(true, Ordering::Release);
        });
        let db3 = &db;
        let q2 = &q;
        let frozen2 = &frozen;
        let done3 = &done;
        s.spawn(move || {
            while !done3.load(Ordering::Acquire) {
                assert_eq!(
                    &slice_content(db3, q2),
                    frozen2,
                    "pinned ASOF slice changed under concurrent commits"
                );
            }
        });
    });
    assert_eq!(&slice_content(&db, &q), &frozen);
    assert!(db.verify_integrity().unwrap().is_ok());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A Split database with `ATOMS` `tag` atoms, atom `i` holding `k =
/// value(i)`, inserted in one commit at the returned tt.
fn tag_fixture(
    tag: &str,
    atoms: usize,
    value: impl Fn(usize) -> i64,
) -> (Database, Vec<AtomId>, TimePoint, PathBuf) {
    let dir = tmpdir(tag);
    let db = Database::open(
        &dir,
        DbConfig::default()
            .store_kind(StoreKind::Split)
            .sync_policy(SyncPolicy::OnCheckpoint)
            .checkpoint_interval(0),
    )
    .unwrap();
    let ty = db
        .define_atom_type("tag", vec![AttrDef::new("k", DataType::Int).indexed()])
        .unwrap();
    let mut txn = db.begin();
    let ids: Vec<AtomId> = (0..atoms)
        .map(|i| txn.insert_atom(ty, Interval::all(), tup(value(i))).unwrap())
        .collect();
    let tt0 = txn.commit().unwrap();
    (db, ids, tt0, dir)
}

/// A current-state lookup through the value index answers at its
/// statement's view. Half of 200 atoms hold `k = 1` and half `k = 2`, and
/// a writer swaps every value in one commit per round, so every snapshot
/// holds exactly 100 atoms with `k = 1`; beside it a reader repeats
/// `WHERE k = 1`. Were the live index probed after a swap that landed
/// past the statement's pin, the atoms holding 1 at its view would sit
/// under key 2 by then, and the answer would lack them.
#[test]
fn current_index_probe_answers_at_its_view() {
    const ATOMS: usize = 200;
    let (db, atoms, _, dir) = tag_fixture("current-probe", ATOMS, |i| 1 + i as i64 % 2);
    let q = "SELECT * FROM tag WHERE k = 1";
    let p = tcom_query::prepare(&db, q).unwrap();
    assert!(
        matches!(
            p.access,
            tcom_query::AccessPath::IndexRange { tt: None, .. }
        ),
        "the lookup must probe the current value index: {:?}",
        p.access
    );

    let done = AtomicBool::new(false);
    let answers = std::thread::scope(|s| {
        s.spawn(|| {
            let start = Instant::now();
            for round in 1i64.. {
                if start.elapsed() > Duration::from_secs(2) {
                    break;
                }
                let mut txn = db.begin();
                for (i, &atom) in atoms.iter().enumerate() {
                    let k = 1 + (i as i64 + round) % 2;
                    txn.update(atom, Interval::all(), tup(k)).unwrap();
                }
                txn.commit().unwrap();
            }
            done.store(true, Ordering::Release);
        });
        let mut n = 0u64;
        while !done.load(Ordering::Acquire) {
            let rows = slice_content(&db, q);
            assert!(
                rows.len() == ATOMS / 2 && rows.iter().all(|r| r.1 == [Value::Int(1)]),
                "answer {n} holds {} rows, not the {} of every snapshot",
                rows.len(),
                ATOMS / 2
            );
            n += 1;
        }
        n
    });
    eprintln!(
        "{answers} answers, {} of them as of their view's tt",
        db.metrics().counter("index.stale_probes")
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`tag_fixture`] with every atom holding `k = 1`, and `WHERE k = 1 ASOF
/// TT` the insert's tt, which must plan the value-index probe at it.
fn flip_fixture(tag: &str, atoms: usize) -> (Database, Vec<AtomId>, String, PathBuf) {
    let (db, ids, tt0, dir) = tag_fixture(tag, atoms, |_| 1);
    let q = format!("SELECT * FROM tag WHERE k = 1 ASOF TT {}", tt0.0);
    let p = tcom_query::prepare(&db, &q).unwrap();
    assert!(
        matches!(p.access, tcom_query::AccessPath::IndexRange { tt: Some(t), .. } if t == tt0),
        "the lookup must probe the value index at t0: {:?}",
        p.access
    );
    (db, ids, q, dir)
}

/// Flips `atoms`' `k` between 2 and 1, one atom per commit, pausing
/// `pause` after each, until `stop` is set or `cap` has passed.
fn flip_until(db: &Database, atoms: &[AtomId], pause: Duration, stop: &AtomicBool, cap: Duration) {
    let start = Instant::now();
    for round in 0i64.. {
        for &atom in atoms {
            if stop.load(Ordering::Acquire) || start.elapsed() > cap {
                return;
            }
            let mut txn = db.begin();
            txn.update(atom, Interval::all(), tup(2 - round % 2))
                .unwrap();
            txn.commit().unwrap();
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
    }
}

/// An `ASOF TT` lookup through the value index reads its two candidate
/// sources — the index's current holders and the versions closed since
/// the statement's tt — as one snapshot. A writer flips an indexed value
/// `1 ↔ 2` on the same atoms, one atom per commit; beside it a reader
/// repeats `WHERE k = 1 ASOF TT t0`, where every atom held 1, and each
/// answer must equal the first. Were the two sources read in two validated
/// sections, the closed half first, a flip landing between them would
/// close an atom's visible version after the closed half looked and move
/// it out of the index before the probe looked, and the answer would lose
/// that atom. The writer pauses after each commit so that the probe's
/// section often validates — what is tested here is that section, not the
/// per-atom walk it gives way to under back-to-back commits (the next
/// test) — and the reader checks that at least 100 answers came from it.
#[test]
fn asof_index_probe_is_one_snapshot() {
    let (db, atoms, q, dir) = flip_fixture("probe", 200);
    let first = slice_content(&db, &q);
    assert_eq!(first.len(), atoms.len());

    let done = AtomicBool::new(false);
    let answers = std::thread::scope(|s| {
        s.spawn(|| {
            flip_until(
                &db,
                &atoms,
                Duration::from_micros(100),
                &AtomicBool::new(false),
                Duration::from_secs(2),
            );
            done.store(true, Ordering::Release);
        });
        let mut n = 0u64;
        while !done.load(Ordering::Acquire) {
            assert_eq!(
                slice_content(&db, &q),
                first,
                "an ASOF index lookup changed under concurrent flips (answer {n})"
            );
            n += 1;
        }
        n
    });
    let walks = db.metrics().counter("index.asof_walks");
    assert!(
        answers - walks >= 100,
        "the probe's section validated too rarely to test it: \
         {walks} of {answers} answers walked"
    );
    assert_eq!(slice_content(&db, &q), first);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Liveness of the same lookup, and of the same statement without its
/// filter through the forced time-index slice, under back-to-back
/// commits: each one's validated section spans many commit gaps, so it
/// seldom validates, and each answer must still arrive within a deadline
/// — through the per-atom walk after a few failed runs — and equal the
/// first.
#[test]
fn asof_index_probe_answers_under_back_to_back_commits() {
    const ANSWERS: usize = 20;
    const DEADLINE: Duration = Duration::from_secs(1);
    let (db, atoms, q, dir) = flip_fixture("probe-live", 2000);
    let forced = ExecOptions {
        force_time_index: true,
        ..Default::default()
    };
    let slice = q.replace(" WHERE k = 1", "");
    let p = tcom_query::prepare_with(&db, &slice, forced).unwrap();
    assert!(
        matches!(p.access, tcom_query::AccessPath::TimeSlice { .. }),
        "the forced statement must slice: {:?}",
        p.access
    );
    let inputs = [(&q, ExecOptions::default()), (&slice, forced)];
    let first = slice_content(&db, &q);
    assert_eq!(first.len(), atoms.len());
    assert_eq!(slice_content_with(&db, &slice, forced), first);

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| flip_until(&db, &atoms, Duration::ZERO, &stop, Duration::from_secs(10)));
        // Let the writer close enough t0 versions that the probe's closed
        // half outlasts a commit gap.
        std::thread::sleep(Duration::from_millis(100));
        for n in 0..ANSWERS {
            for (stmt, opts) in inputs {
                let start = Instant::now();
                let answer = slice_content_with(&db, stmt, opts);
                let took = start.elapsed();
                if took > DEADLINE || answer != first {
                    stop.store(true, Ordering::Release);
                }
                assert!(
                    took <= DEADLINE,
                    "answer {n} to {stmt} took {took:?} beside the writer"
                );
                assert_eq!(
                    answer, first,
                    "answer {n} to {stmt} changed under back-to-back flips"
                );
            }
        }
        stop.store(true, Ordering::Release);
    });
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
