//! Wait-die stripe-lock batteries: randomized acquisition schedules must
//! never deadlock (bounded wall-clock), and an aborted victim transaction
//! must leave zero residue in the engine — no overlay leakage, no stuck
//! stripe, unchanged committed state, and a clean retry that succeeds.

use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;
use tcom_core::stripes::StripeLocks;
use tcom_core::{
    is_wait_die_abort, AtomTypeId, AttrDef, AttrId, DataType, Database, DbConfig, Interval,
    StoreKind, SyncPolicy, Tuple, Value,
};
use tcom_storage::keys::encode_int;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-stripe-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn tup(v: i64) -> Tuple {
    Tuple::new(vec![Value::Int(v)])
}

/// Runs `f` on a worker thread and panics if it has not finished within
/// `secs` — the liveness bound that turns a deadlock into a test failure.
/// A panic inside `f` is re-raised as itself.
fn with_deadline<F>(secs: u64, what: &str, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let (done_tx, done_rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => {}
        Err(RecvTimeoutError::Timeout) => {
            panic!("{what}: not finished within {secs}s — deadlock?")
        }
        Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
            worker
                .join()
                .expect_err("a worker that never sent has panicked"),
        ),
    }
}

// ---- randomized schedules directly against the lock table ----

proptest! {
    /// Arbitrary per-thread stripe-acquisition orders, run concurrently
    /// with wait-die retry (abort → release everything, take a fresh
    /// younger id, try again): every schedule must terminate.
    #[test]
    fn random_schedules_never_deadlock(
        schedules in proptest::collection::vec(
            proptest::collection::vec(0usize..8, 0..6),
            2..5,
        ),
    ) {
        let locks = Arc::new(StripeLocks::new(8));
        let table = Arc::clone(&locks);
        let ids = Arc::new(AtomicU64::new(1));
        let sched2 = schedules.clone();
        with_deadline(30, "random stripe schedule", move || {
            std::thread::scope(|s| {
                for seq in &sched2 {
                    let locks = Arc::clone(&locks);
                    let ids = Arc::clone(&ids);
                    s.spawn(move || {
                        let mut attempts = 0u32;
                        'retry: loop {
                            attempts += 1;
                            assert!(attempts < 10_000, "livelock: {attempts} retries");
                            let me = ids.fetch_add(1, Ordering::AcqRel);
                            let mut held: Vec<usize> = Vec::new();
                            for &idx in seq {
                                match locks.acquire(idx, me, false) {
                                    Ok(()) => {
                                        if !held.contains(&idx) {
                                            held.push(idx);
                                        }
                                    }
                                    Err(e) => {
                                        assert!(is_wait_die_abort(&e), "{e}");
                                        for &h in &held {
                                            locks.release(h, me);
                                        }
                                        std::thread::yield_now();
                                        continue 'retry;
                                    }
                                }
                            }
                            for &h in &held {
                                locks.release(h, me);
                            }
                            break;
                        }
                    });
                }
            });
        });
        // Every stripe of the schedule's own table must be free again: a
        // sweep under an id no schedule drew takes each one without
        // waiting — in no-wait mode a stripe still held would abort.
        for idx in 0..table.len() {
            prop_assert!(
                table.acquire(idx, 0, true).is_ok(),
                "stripe {idx} still held after every schedule finished"
            );
        }
    }
}

// ---- engine-level wait-die semantics ----

fn one_stripe_db(tag: &str) -> (Database, AtomTypeId, PathBuf) {
    let dir = tmpdir(tag);
    let db = Database::open(
        &dir,
        DbConfig::default()
            .store_kind(StoreKind::Split)
            .sync_policy(SyncPolicy::OnCheckpoint),
    )
    .unwrap();
    let ty = db
        .define_atom_type("emp", vec![AttrDef::new("salary", DataType::Int)])
        .unwrap();
    (db, ty, dir)
}

/// A younger transaction hitting a held stripe dies immediately; the
/// victim leaves no residue: committed state is unchanged, the abort
/// counter ticks, and an identical retry afterwards succeeds.
#[test]
fn victim_aborts_cleanly_and_retry_succeeds() {
    let (db, ty, dir) = one_stripe_db("victim");

    let mut seed = db.begin();
    let atom = seed.insert_atom(ty, Interval::all(), tup(100)).unwrap();
    seed.commit().unwrap();
    let before = db.current_versions(atom).unwrap();

    let mut older = db.begin();
    older.update(atom, Interval::all(), tup(200)).unwrap(); // takes the stripe

    // Younger arrival on the same (only) stripe: wait-die abort at first
    // touch, not at commit.
    let mut younger = db.begin();
    let err = younger
        .insert_atom(ty, Interval::all(), tup(999))
        .unwrap_err();
    assert!(is_wait_die_abort(&err), "unexpected error: {err}");
    drop(younger);

    // The victim changed nothing: the older transaction still owns the
    // stripe and commits; committed state shows only its update.
    assert_eq!(db.current_versions(atom).unwrap(), before);
    older.commit().unwrap();
    let after = db.current_versions(atom).unwrap();
    assert_eq!(after.len(), 1);
    assert_eq!(after[0].tuple, tup(200));
    assert!(db.metrics().counter("txn.wait_die_aborts") >= 1);

    // Clean retry of the victim's work.
    let mut retry = db.begin();
    retry.insert_atom(ty, Interval::all(), tup(999)).unwrap();
    retry.commit().unwrap();
    assert!(db.verify_integrity().unwrap().is_ok());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An older transaction finding the stripe held *waits* (never dies) and
/// proceeds once the younger holder finishes.
#[test]
fn older_waits_for_younger_holder() {
    let (db, ty, dir) = one_stripe_db("older-waits");

    let mut seed = db.begin();
    let atom = seed.insert_atom(ty, Interval::all(), tup(1)).unwrap();
    seed.commit().unwrap();

    // Begin order fixes wait-die age: `older` first, `younger` second.
    let older = db.begin();
    let mut younger = db.begin();
    younger.update(atom, Interval::all(), tup(2)).unwrap(); // younger holds the stripe

    let (started_tx, started_rx) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut older = older;
            started_tx.send(()).unwrap();
            // First touch blocks (older waits) until the younger commits.
            older.update(atom, Interval::all(), tup(3)).unwrap();
            older.commit().unwrap();
        });
        started_rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        younger.commit().unwrap();
    });

    let cur = db.current_versions(atom).unwrap();
    assert_eq!(cur.len(), 1);
    assert_eq!(cur[0].tuple, tup(3), "older's update must land last");
    assert!(db.metrics().counter("txn.stripe_waits") >= 1);
    assert!(db.verify_integrity().unwrap().is_ok());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writers on disjoint atom types never conflict: N threads × M commits
/// each, all must succeed with zero wait-die aborts, and every committed
/// version must be present afterwards.
#[test]
fn disjoint_writers_commit_in_parallel() {
    let dir = tmpdir("disjoint");
    let db = Database::open(
        &dir,
        DbConfig::default()
            .store_kind(StoreKind::Split)
            .sync_policy(SyncPolicy::OnCheckpoint),
    )
    .unwrap();
    const THREADS: usize = 4;
    const COMMITS: usize = 20;
    let types: Vec<AtomTypeId> = (0..THREADS)
        .map(|i| {
            db.define_atom_type(format!("t{i}"), vec![AttrDef::new("v", DataType::Int)])
                .unwrap()
        })
        .collect();

    std::thread::scope(|s| {
        for &ty in &types {
            let db = &db;
            s.spawn(move || {
                for k in 0..COMMITS {
                    let mut txn = db.begin();
                    txn.insert_atom(ty, Interval::all(), tup(k as i64)).unwrap();
                    txn.commit().unwrap();
                }
            });
        }
    });

    for &ty in &types {
        assert_eq!(db.all_atoms(ty).unwrap().len(), COMMITS);
    }
    assert_eq!(db.metrics().counter("txn.wait_die_aborts"), 0);
    assert!(db.verify_integrity().unwrap().is_ok());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writers on two atom types commit updates and inserts (retrying
/// wait-die aborts) while one thread loops every maintenance entry point:
/// segment swap, history pruning, checkpoint and page flush, and another
/// loops a whole-type slice and an indexed `ASOF TT` probe of each type.
/// The run must finish inside the deadline — maintenance that took its
/// locks out of order would deadlock against a committer or the reader
/// instead — pass the integrity check, and show every committed write.
#[test]
fn maintenance_never_wedges_commits() {
    const COMMITS: i64 = 100;
    let dir = tmpdir("maint");
    let dir2 = dir.clone();
    with_deadline(60, "writers beside maintenance", move || {
        let db = Database::open(
            &dir2,
            DbConfig::default()
                .store_kind(StoreKind::Split)
                .sync_policy(SyncPolicy::OnCheckpoint)
                .checkpoint_interval(8),
        )
        .unwrap();
        let types: Vec<AtomTypeId> = ["a", "b"]
            .iter()
            .map(|n| {
                db.define_atom_type(*n, vec![AttrDef::new("v", DataType::Int).indexed()])
                    .unwrap()
            })
            .collect();
        // One counter per writer; writer `w` updates its counter in type
        // `w` and inserts into the other type, so every commit touches
        // both stripes and the two writers collide under wait-die.
        let mut seed = db.begin();
        let counters: Vec<_> = types
            .iter()
            .map(|&ty| seed.insert_atom(ty, Interval::all(), tup(0)).unwrap())
            .collect();
        seed.commit().unwrap();

        let writers_done = AtomicUsize::new(0);
        let (cycles, reads) = std::thread::scope(|s| {
            let maintenance = s.spawn(|| {
                let mut cycles = 0u64;
                while writers_done.load(Ordering::Acquire) < types.len() || cycles == 0 {
                    for &ty in &types {
                        db.compact_type(ty).unwrap();
                    }
                    db.prune_history(db.now()).unwrap();
                    db.checkpoint().unwrap();
                    db.sync_pages().unwrap();
                    cycles += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                cycles
            });
            let reader = s.spawn(|| {
                let mut reads = 0u64;
                while writers_done.load(Ordering::Acquire) < types.len() || reads == 0 {
                    for &ty in &types {
                        let tt = db.now();
                        db.slice_at(ty, tt, &mut |_, _| Ok(true)).unwrap();
                        let (lo, hi) = (encode_int(1), encode_int(1000));
                        db.index_range_asof(ty, AttrId(0), lo, hi, tt).unwrap();
                    }
                    reads += 1;
                }
                reads
            });
            for w in 0..types.len() {
                let (db, types, counters, done) = (&db, &types, &counters, &writers_done);
                s.spawn(move || {
                    let other = types[(w + 1) % types.len()];
                    for k in 1..=COMMITS {
                        let value = w as i64 * 1000 + k;
                        loop {
                            let mut txn = db.begin();
                            let attempt = txn
                                .update(counters[w], Interval::all(), tup(value))
                                .and_then(|()| txn.insert_atom(other, Interval::all(), tup(value)))
                                .and_then(|_| txn.commit());
                            match attempt {
                                Ok(_) => break,
                                Err(e) if is_wait_die_abort(&e) => std::thread::yield_now(),
                                Err(e) => panic!("writer {w}: {e}"),
                            }
                        }
                    }
                    done.fetch_add(1, Ordering::AcqRel);
                });
            }
            (maintenance.join().unwrap(), reader.join().unwrap())
        });
        assert!(cycles >= 1 && reads >= 1);

        // Every committed write is visible: each counter holds its
        // writer's last value, each type every value inserted into it.
        for (w, &counter) in counters.iter().enumerate() {
            let cur = db.current_versions(counter).unwrap();
            assert_eq!(cur.len(), 1);
            assert_eq!(cur[0].tuple, tup(w as i64 * 1000 + COMMITS));
        }
        for (t, &ty) in types.iter().enumerate() {
            let writer = (t + 1) % types.len();
            let mut got: Vec<Tuple> = Vec::new();
            for atom in db.all_atoms(ty).unwrap() {
                if atom != counters[t] {
                    got.extend(
                        db.current_versions(atom)
                            .unwrap()
                            .into_iter()
                            .map(|v| v.tuple),
                    );
                }
            }
            // One writer inserts here, in commit order, and atom numbers
            // are allocated in that order.
            let want: Vec<Tuple> = (1..=COMMITS)
                .map(|k| tup(writer as i64 * 1000 + k))
                .collect();
            assert_eq!(got, want, "inserts into type {t}");
        }
        assert!(db.verify_integrity().unwrap().is_ok());
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A writer is never a maintenance victim. One `begin_no_wait` writer —
/// any held stripe would abort it at once — updates atoms in a loop while
/// another thread runs rounds of segment swaps and prunes that archive
/// real history. Maintenance takes no stripe, so on every store kind the
/// writer sees no abort, every atom ends at its last committed value, and
/// the integrity check passes.
#[test]
fn writer_is_never_a_maintenance_victim() {
    const ROUNDS: usize = 20;
    for kind in [StoreKind::Chain, StoreKind::Delta, StoreKind::Split] {
        let dir = tmpdir(&format!("no-victim-{kind:?}"));
        let dir2 = dir.clone();
        with_deadline(120, "writer beside maintenance rounds", move || {
            let db = Database::open(
                &dir2,
                DbConfig::default()
                    .store_kind(kind)
                    .sync_policy(SyncPolicy::OnCheckpoint),
            )
            .unwrap();
            let ty = db
                .define_atom_type("emp", vec![AttrDef::new("v", DataType::Int).indexed()])
                .unwrap();
            let mut seed = db.begin();
            let atoms: Vec<_> = (0..8)
                .map(|i| seed.insert_atom(ty, Interval::all(), tup(i)).unwrap())
                .collect();
            seed.commit().unwrap();

            let done = AtomicBool::new(false);
            let (commits, aborts, last) = std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    let (mut commits, mut aborts) = (0u64, 0u64);
                    let mut last = HashMap::new();
                    let mut k = 0i64;
                    while !done.load(Ordering::Acquire) {
                        k += 1;
                        let atom = atoms[k as usize % atoms.len()];
                        let mut txn = db.begin_no_wait();
                        let attempt = txn
                            .update(atom, Interval::all(), tup(k))
                            .and_then(|()| txn.commit());
                        match attempt {
                            Ok(_) => {
                                commits += 1;
                                last.insert(atom, k);
                            }
                            Err(e) if is_wait_die_abort(&e) => aborts += 1,
                            Err(e) => panic!("{kind:?} writer: {e}"),
                        }
                    }
                    (commits, aborts, last)
                });
                let mut rounds = 0;
                while rounds < ROUNDS {
                    let archived = db.compact_type(ty).unwrap();
                    let pruned = db.prune_history(db.now()).unwrap();
                    if archived > 0 && pruned > 0 {
                        rounds += 1;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                done.store(true, Ordering::Release);
                writer.join().unwrap()
            });
            assert_eq!(
                aborts, 0,
                "{kind:?}: {aborts} aborts beside {commits} commits"
            );
            assert_eq!(db.metrics().counter("txn.wait_die_aborts"), 0);
            for (atom, k) in last {
                let cur = db.current_versions(atom).unwrap();
                assert_eq!(cur.len(), 1);
                assert_eq!(cur[0].tuple, tup(k), "{kind:?}: {atom}");
            }
            let report = db.verify_integrity().unwrap();
            assert!(report.is_ok(), "{kind:?}: {:?}", report.violations);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
