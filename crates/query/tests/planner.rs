//! Cost-based planner regression tests.
//!
//! Pins the E15 finding: on deep-history `ASOF TT` slices the time index
//! wins on chain and split stores, but *loses* on delta stores (slicing a
//! delta store still replays chains, so the index adds pure overhead).
//! The cost model must therefore choose the slice on chain/split and the
//! heap walk on delta — and the per-statement hints must still override it.
//! On a cold reopen of a wide, deep history the executed plan's pages stay
//! within twice the model's estimate, and the estimate within twice the
//! pages.

use rand::prelude::*;
use tcom_core::{
    AttrDef, DataType, Database, DbConfig, Interval, StoreKind, SyncPolicy, Tuple, Value,
};
use tcom_query::{explain_analyze_with, prepare_with, run_statement, AccessPath, ExecOptions};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-planner-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn run(db: &Database, sql: &str) {
    run_statement(db, sql).unwrap_or_else(|e| panic!("statement failed: {sql}\n  {e}"));
}

/// `n_atoms` employees, each updated `depth` times: plenty of closed
/// versions for a past slice to skip, and a heap large enough that the
/// cost asymmetry between the paths is unambiguous.
fn deep_history(dir: &std::path::Path, kind: StoreKind, n_atoms: usize, depth: usize) -> Database {
    let db = Database::open(
        dir,
        DbConfig::default()
            .store_kind(kind)
            .buffer_frames(256)
            .checkpoint_interval(0),
    )
    .unwrap();
    run(&db, "CREATE TYPE emp (name TEXT NOT NULL, salary INT)");
    for i in 0..n_atoms {
        run(
            &db,
            &format!("INSERT INTO emp (name, salary) VALUES ('e{i}', {})", i * 10),
        );
    }
    for round in 0..depth {
        for i in 0..n_atoms {
            run(
                &db,
                &format!(
                    "UPDATE emp SET salary = {} WHERE name = 'e{i}'",
                    i * 10 + round + 1
                ),
            );
        }
    }
    db
}

const N_ATOMS: usize = 24;
const DEPTH: usize = 40;

/// A transaction time just after the initial inserts: the slice touches a
/// tiny index prefix while the walk must cross the whole heap.
fn early_tt() -> u64 {
    N_ATOMS as u64
}

#[test]
fn chain_deep_history_prefers_the_slice() {
    for kind in [StoreKind::Chain, StoreKind::Split] {
        let dir = tmpdir(&format!("slice-{kind}"));
        let db = deep_history(&dir, kind, N_ATOMS, DEPTH);
        let sql = format!("SELECT * FROM emp ASOF TT {}", early_tt());
        let p = prepare_with(&db, &sql, ExecOptions::default()).unwrap();
        assert!(
            matches!(p.access, AccessPath::TimeSlice { .. }),
            "[{kind}] deep-history slice should use the time index: {:?}",
            p.access
        );
        assert!(
            p.est_pages.is_some(),
            "[{kind}] cost-model decisions must carry an estimate"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn delta_deep_history_prefers_the_walk() {
    let dir = tmpdir("walk-delta");
    let db = deep_history(&dir, StoreKind::Delta, N_ATOMS, DEPTH);
    // The delta regression holds at every depth: reconstruction replays
    // the chains anyway, so the index never pays for itself.
    for tt in [early_tt(), early_tt() * 4, u64::MAX] {
        let sql = if tt == u64::MAX {
            "SELECT * FROM emp ASOF TT FOREVER".to_string()
        } else {
            format!("SELECT * FROM emp ASOF TT {tt}")
        };
        let p = prepare_with(&db, &sql, ExecOptions::default()).unwrap();
        assert_eq!(
            p.access,
            AccessPath::Scan,
            "[delta] cost model must choose the heap walk for {sql}"
        );
        assert!(p.est_pages.is_some());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn override_knobs_beat_the_cost_model() {
    let dir = tmpdir("knobs");
    let db = deep_history(&dir, StoreKind::Delta, N_ATOMS, DEPTH);
    let sql = format!("SELECT * FROM emp ASOF TT {}", early_tt());

    // force_time_index pins the slice even where the model says walk.
    let p = prepare_with(
        &db,
        &sql,
        ExecOptions {
            force_time_index: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(matches!(p.access, AccessPath::TimeSlice { .. }));
    assert!(
        p.est_pages.is_none(),
        "forced plans are not cost-model estimates"
    );

    // no_time_index always walks.
    let p = prepare_with(
        &db,
        &sql,
        ExecOptions {
            no_time_index: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(p.access, AccessPath::Scan);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `syn(a0 INT INDEXED, a1 .. a7 INT)` with 200 atoms, each updated 64
/// times (one attribute changed per version) in rounds that visit the
/// atoms in a seeded order, checkpointed.
fn wide_deep_history(db: &Database) {
    const ATOMS: usize = 200;
    const WIDTH: usize = 8;
    let tuple = |key: usize, round: i64| -> Tuple {
        (0..WIDTH)
            .map(|i| match i {
                0 => Value::Int(key as i64),
                1 => Value::Int(round * 31 + 1),
                _ => Value::Int(i as i64 * 1000),
            })
            .collect()
    };
    let attrs = (0..WIDTH)
        .map(|i| {
            let a = AttrDef::new(format!("a{i}"), DataType::Int);
            if i == 0 {
                a.indexed()
            } else {
                a
            }
        })
        .collect();
    let ty = db.define_atom_type("syn", attrs).unwrap();
    let mut txn = db.begin();
    let atoms: Vec<_> = (0..ATOMS)
        .map(|k| txn.insert_atom(ty, Interval::all(), tuple(k, 0)).unwrap())
        .collect();
    txn.commit().unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    for round in 1..=64 {
        let mut order: Vec<usize> = (0..ATOMS).collect();
        order.shuffle(&mut rng);
        let mut txn = db.begin();
        for k in order {
            txn.update(atoms[k], Interval::all(), tuple(k, round))
                .unwrap();
        }
        txn.commit().unwrap();
    }
    db.checkpoint().unwrap();
}

/// The cost model's page estimate holds on a cold reopen: for a
/// mid-history `ASOF TT` slice over 65 versions of 200 atoms, the chosen
/// plan (slice on chain/split, walk on delta) reads at most `2·est + 8`
/// pages, and the estimate is at most `2·actual + 8`.
#[test]
fn deep_history_estimate_holds_on_a_cold_reopen() {
    for kind in [StoreKind::Chain, StoreKind::Delta, StoreKind::Split] {
        let dir = tmpdir(&format!("estimate-{kind}"));
        let config = DbConfig::default()
            .store_kind(kind)
            .buffer_frames(4096)
            .checkpoint_interval(0)
            .sync_policy(SyncPolicy::OnCheckpoint);
        let tt = {
            let db = Database::open(&dir, config).unwrap();
            wide_deep_history(&db);
            db.now().0 / 2
        };
        let db = Database::open(&dir, config).unwrap();
        let sql = format!("SELECT * FROM syn ASOF TT {tt}");
        let p = prepare_with(&db, &sql, ExecOptions::default()).unwrap();
        let est = p.est_pages.expect("cost-model estimate");
        if kind == StoreKind::Delta {
            assert_eq!(p.access, AccessPath::Scan, "[{kind}] {:?}", p.access);
        } else {
            assert!(
                matches!(p.access, AccessPath::TimeSlice { .. }),
                "[{kind}] {:?}",
                p.access
            );
        }
        let (_, report) = explain_analyze_with(
            &db,
            &format!("EXPLAIN ANALYZE {sql}"),
            ExecOptions::default(),
        )
        .unwrap();
        let actual = report.total_pages_read;
        assert!(
            actual <= 2 * est + 8 && est <= 2 * actual + 8,
            "[{kind}] estimate off: est={est} actual={actual}\n{}",
            report.render()
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
