//! Differential suite for tiered segment storage: compacting closed
//! history into immutable compressed segments must be *logically
//! invisible*. The full TQL battery runs against an uncompacted twin and
//! a compacted database on every store layout and must render
//! byte-identically before vs after [`Database::compact_all`]; EXPLAIN
//! ANALYZE keeps its exact page accounting (total == pool-miss delta,
//! per-operator counts sum to the total) with segment pages in the mix;
//! and the whole arrangement survives a clean reopen, with the background
//! [`Compactor`] thread driving the same archival on its own. On a deep
//! history compacted phase by phase, a cold mid-history slice reads
//! strictly fewer pages than on a flat twin.

use rand::prelude::*;
use std::sync::Arc;
use tcom_core::{
    AttrDef, Compactor, DataType, Database, DbConfig, Interval, StoreKind, SyncPolicy, Tuple, Value,
};
use tcom_query::{run_statement, StatementOutput};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-compact-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&d);
    d
}

const KINDS: [StoreKind; 3] = [StoreKind::Chain, StoreKind::Delta, StoreKind::Split];

fn config(kind: StoreKind) -> DbConfig {
    DbConfig::default()
        .store_kind(kind)
        .buffer_frames(256)
        .checkpoint_interval(0)
}

fn open(dir: &std::path::Path, kind: StoreKind) -> Database {
    Database::open(dir, config(kind)).unwrap()
}

fn run(db: &Database, sql: &str) -> StatementOutput {
    run_statement(db, sql).unwrap_or_else(|e| panic!("statement failed: {sql}\n  {e}"))
}

/// The E1-style university schema with a deepened version history: the
/// differential populate plus salary churn rounds, so every store holds a
/// closed-version majority worth archiving.
fn populate(db: &Database) {
    run(db, "CREATE TYPE proj (title TEXT NOT NULL, budget INT)");
    run(
        db,
        "CREATE TYPE emp (name TEXT NOT NULL, salary INT INDEXED, proj REF(proj))",
    );
    run(
        db,
        "CREATE TYPE dept (name TEXT NOT NULL, employs REFSET(emp))",
    );
    run(
        db,
        "CREATE MOLECULE dept_mol ROOT dept (dept.employs TO emp, emp.proj TO proj) DEPTH 4",
    );

    let mut projects = Vec::new();
    for (i, title) in ["alpha", "beta"].iter().enumerate() {
        let out = run(
            db,
            &format!(
                "INSERT INTO proj (title, budget) VALUES ('{title}', {})",
                (i as i64 + 1) * 1000
            ),
        );
        let StatementOutput::Inserted(id, _) = out else {
            panic!("expected Inserted, got {out:?}")
        };
        projects.push(id);
    }
    let mut emps = Vec::new();
    for (i, name) in ["ann", "bob", "carol", "dave", "erin", "frank"]
        .iter()
        .enumerate()
    {
        let p = projects[i % projects.len()];
        let out = run(
            db,
            &format!(
                "INSERT INTO emp (name, salary, proj) VALUES ('{name}', {}, @{}.{}) \
                 VALID IN [0, 100)",
                (i as i64 + 1) * 100,
                p.ty.0,
                p.no.0
            ),
        );
        let StatementOutput::Inserted(id, _) = out else {
            panic!("expected Inserted, got {out:?}")
        };
        emps.push(id);
    }
    for (dname, members) in [("research", &emps[..3]), ("sales", &emps[3..])] {
        let refs: Vec<String> = members
            .iter()
            .map(|id| format!("@{}.{}", id.ty.0, id.no.0))
            .collect();
        run(
            db,
            &format!(
                "INSERT INTO dept (name, employs) VALUES ('{dname}', {{{}}})",
                refs.join(", ")
            ),
        );
    }

    run(db, "UPDATE emp SET salary = 350 WHERE name = 'carol'");
    run(
        db,
        "UPDATE emp SET salary = 120 WHERE name = 'ann' VALID IN [10, 20)",
    );
    run(db, "DELETE FROM emp WHERE name = 'dave'");
    run(db, "UPDATE proj SET budget = 2500 WHERE title = 'beta'");

    // Churn: each round closes the previous salary version of every
    // surviving employee, deepening the closed history the compactor
    // tiers out. Values are deterministic so twin runs stay identical.
    for round in 0..10i64 {
        for (i, name) in ["ann", "bob", "carol", "erin", "frank"].iter().enumerate() {
            run(
                db,
                &format!(
                    "UPDATE emp SET salary = {} WHERE name = '{name}'",
                    1000 + round * 100 + i as i64
                ),
            );
        }
    }
}

/// The canned battery from the store-differential suite (25+ queries):
/// current state, indexed predicates, time travel, history,
/// changed-in-window, molecules, temporal joins, coalescing, aggregates.
const BATTERY: &[&str] = &[
    "SELECT * FROM emp",
    "SELECT name, salary FROM emp WHERE salary >= 200",
    "SELECT * FROM emp WHERE salary = 300",
    "SELECT name FROM emp WHERE salary > 100 AND NOT name = 'bob' LIMIT 3",
    "SELECT * FROM emp ASOF TT 8",
    "SELECT * FROM emp ASOF TT 10 VALID AT 15",
    "SELECT name, salary FROM emp WHERE salary >= 200 ASOF TT 9",
    "SELECT * FROM emp ASOF TT FOREVER",
    "SELECT name FROM emp WHERE salary > 100 ASOF TT FOREVER",
    "SELECT * FROM proj ASOF TT 2",
    "SELECT * FROM emp ASOF TT 16",
    "SELECT * FROM emp ASOF TT 30 VALID AT 50",
    "SELECT HISTORY FROM emp",
    "SELECT HISTORY FROM emp WHERE salary > 100 VALID IN [0, 50)",
    "SELECT * FROM emp VALID IN [5, 30)",
    "SELECT MOLECULE FROM dept_mol VALID AT 10",
    "SELECT MOLECULE FROM dept_mol WHERE root.name = 'research' VALID AT 10",
    "SELECT * FROM proj",
    "SELECT a.name, b.name FROM emp a JOIN emp b ON a.salary = b.salary",
    "SELECT a.name, b.salary FROM emp a JOIN emp b ON a.name = b.name \
     WHERE a.salary > 100 ASOF TT 9",
    "SELECT a.name, b.title FROM emp a JOIN proj b ON a.salary = b.budget",
    "SELECT COALESCE * FROM emp",
    "SELECT COALESCE salary FROM emp WHERE salary >= 200 VALID IN [0, 50)",
    "SELECT COUNT(*) FROM emp",
    "SELECT COUNT(*) FROM emp ASOF TT 8 VALID IN [0, 30)",
    "SELECT SUM(salary) FROM emp VALID IN [0, 60)",
    "SELECT INTEGRAL(salary) FROM emp VALID IN [0, 80)",
];

fn render_battery(db: &Database) -> Vec<String> {
    BATTERY
        .iter()
        .map(|sql| format!("{sql}\n{:?}", run(db, sql)))
        .collect()
}

/// Every battery statement renders byte-identically before and after a
/// forced compaction, and matches an uncompacted twin — on all three
/// store layouts.
#[test]
fn battery_identical_before_and_after_compaction() {
    for kind in KINDS {
        let twin_dir = tmpdir(&format!("twin-{kind}"));
        let twin = open(&twin_dir, kind);
        populate(&twin);
        let want = render_battery(&twin);

        let dir = tmpdir(&format!("tiered-{kind}"));
        let db = open(&dir, kind);
        populate(&db);
        let before = render_battery(&db);
        for (b, w) in before.iter().zip(&want) {
            assert_eq!(b, w, "[{kind}] twin diverged before compaction");
        }

        let archived = db.compact_all().unwrap();
        assert!(archived > 0, "[{kind}] nothing archived");
        let after = render_battery(&db);
        for (a, w) in after.iter().zip(&want) {
            assert_eq!(a, w, "[{kind}] compaction changed a query result");
        }

        // A second pass has nothing left to archive for untouched types.
        let again = db.compact_all().unwrap();
        assert_eq!(again, 0, "[{kind}] re-compaction re-archived versions");
        assert!(db.verify_integrity().unwrap().is_ok(), "[{kind}]");

        // Archival is observable: compaction count, live segments, and
        // fence accounting all land in the registry.
        let snap = db.metrics();
        assert!(snap.counter("segment.compactions") > 0, "[{kind}]");
        assert!(snap.counter("segment.live") > 0, "[{kind}]");
        assert!(snap.counter("segment.versions") > 0, "[{kind}]");
        assert!(
            snap.counter("segment.reads") + snap.counter("segment.skips") > 0,
            "[{kind}] battery never consulted a segment fence"
        );

        drop(db);
        drop(twin);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&twin_dir);
    }
}

/// The PR-3 invariant holds with segments in the read path: EXPLAIN
/// ANALYZE's total equals the pool-miss delta and the per-operator pages
/// sum to the total — for every battery statement, after compaction, on
/// every store layout. A cold mid-history slice must also show segment
/// reads in the report.
#[test]
fn explain_analyze_pages_exact_after_compaction() {
    for kind in KINDS {
        let dir = tmpdir(&format!("explain-{kind}"));
        let db = open(&dir, kind);
        populate(&db);
        assert!(db.compact_all().unwrap() > 0);
        for sql in BATTERY {
            let ea = format!("EXPLAIN ANALYZE {sql}");
            let misses_before = db.buffer_stats().misses;
            let out = run(&db, &ea);
            let misses_delta = db.buffer_stats().misses - misses_before;
            let StatementOutput::Explain(report) = out else {
                panic!("expected Explain output for {ea}, got {out:?}")
            };
            assert_eq!(
                report.total_pages_read,
                misses_delta,
                "[{kind}] total pages != pool-miss delta for {sql}\n{}",
                report.render()
            );
            assert_eq!(
                report.pages_read(),
                report.total_pages_read,
                "[{kind}] per-operator pages don't sum to the total for {sql}\n{}",
                report.render()
            );
        }

        // Reopen, then a mid-history slice: versions now come from the
        // segment files and the report must say so ("segs read=..." on
        // the access operator). The first run also warms the planner's
        // statistics (their recomputation faults pages *before* the
        // report's measurement window opens), so the second run's
        // external pool-miss delta must match the report exactly.
        drop(db);
        let db = open(&dir, kind);
        let slice = "EXPLAIN ANALYZE SELECT * FROM emp ASOF TT 16";
        let StatementOutput::Explain(report) = run(&db, slice) else {
            panic!("expected Explain output")
        };
        assert_eq!(report.pages_read(), report.total_pages_read, "[{kind}]");
        let text = report.render();
        assert!(
            text.contains("segs read="),
            "[{kind}] mid-history slice must report segment reads:\n{text}"
        );
        let misses_before = db.buffer_stats().misses;
        let StatementOutput::Explain(report) = run(&db, slice) else {
            panic!("expected Explain output")
        };
        let misses_delta = db.buffer_stats().misses - misses_before;
        assert_eq!(report.total_pages_read, misses_delta, "[{kind}]");
        assert_eq!(report.pages_read(), report.total_pages_read, "[{kind}]");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Segments survive a clean shutdown (whose checkpoint truncates the
/// swap's WAL record, leaving the control file as the only witness): the
/// reopened database still answers the whole battery byte-identically.
#[test]
fn compaction_survives_clean_reopen() {
    for kind in KINDS {
        let dir = tmpdir(&format!("reopen-{kind}"));
        let db = open(&dir, kind);
        populate(&db);
        let want = render_battery(&db);
        assert!(db.compact_all().unwrap() > 0);
        drop(db);

        let db = open(&dir, kind);
        assert!(
            db.metrics().counter("segment.live") > 0,
            "[{kind}] the control file did not restore the segment set"
        );
        let got = render_battery(&db);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w, "[{kind}] reopen after compaction changed a result");
        }
        assert!(db.verify_integrity().unwrap().is_ok(), "[{kind}]");

        // And the battery equally survives a *second* compaction cycle
        // stacked on the first (new churn → a second segment).
        run(&db, "UPDATE emp SET salary = 9999 WHERE name = 'bob'");
        run(&db, "UPDATE emp SET salary = 9998 WHERE name = 'bob'");
        let want2 = render_battery(&db);
        assert!(db.compact_all().unwrap() > 0, "[{kind}] second cycle");
        let got2 = render_battery(&db);
        for (g, w) in got2.iter().zip(&want2) {
            assert_eq!(g, w, "[{kind}] second compaction changed a result");
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The background [`Compactor`] thread archives on its own once a type
/// crosses the closed-version threshold, without disturbing any query.
#[test]
fn background_compactor_archives_and_preserves_results() {
    let twin_dir = tmpdir("bg-twin");
    let twin = open(&twin_dir, StoreKind::Chain);
    populate(&twin);
    let want = render_battery(&twin);

    let dir = tmpdir("bg-tiered");
    let db = Arc::new(
        Database::open(
            &dir,
            DbConfig::default()
                .store_kind(StoreKind::Chain)
                .buffer_frames(256)
                .checkpoint_interval(0)
                .compaction(true)
                .compact_min_closed(8)
                .compact_interval_ms(10),
        )
        .unwrap(),
    );
    populate(&db);
    let mut compactor = Compactor::spawn(db.clone());
    assert!(compactor.is_active());

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while db.metrics().counter("segment.compactions") == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "compactor never archived (cycles={}, errors={})",
            compactor.cycles(),
            compactor.errors()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    compactor.stop();
    assert_eq!(compactor.errors(), 0, "compactor cycles must be clean");

    let got = render_battery(&db);
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "background compaction changed a query result");
    }
    assert!(db.verify_integrity().unwrap().is_ok());

    drop(compactor);
    drop(db);
    drop(twin);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&twin_dir);
}

/// An inert compactor handle (config knob off) spawns no thread.
#[test]
fn compactor_is_inert_when_disabled() {
    let dir = tmpdir("inert");
    let db = Arc::new(open(&dir, StoreKind::Split));
    let compactor = Compactor::spawn(db.clone());
    assert!(!compactor.is_active());
    assert_eq!(compactor.cycles(), 0);
    drop(compactor);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Loads `syn(a0 INT INDEXED, a1 .. a7 INT)` with 200 atoms, then updates
/// every atom's `a1` 64 times, in 8 phases of 8 rounds that each visit
/// the atoms in a seeded order. `tiered` compacts after every phase —
/// the steady state a background compactor converges to, with each
/// segment covering one narrow transaction-time band.
fn deep_syn_history(db: &Database, tiered: bool) {
    const ATOMS: usize = 200;
    const WIDTH: usize = 8;
    let tuple = |key: usize, a1: i64| -> Tuple {
        (0..WIDTH)
            .map(|i| match i {
                0 => Value::Int(key as i64),
                1 => Value::Int(a1),
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
    for phase in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(42 + phase);
        for round in 1..=8i64 {
            let mut order: Vec<usize> = (0..ATOMS).collect();
            order.shuffle(&mut rng);
            let mut txn = db.begin();
            for k in order {
                txn.update(atoms[k], Interval::all(), tuple(k, round * 31 + 1))
                    .unwrap();
            }
            txn.commit().unwrap();
        }
        if tiered {
            assert!(
                db.compact_all().unwrap() > 0,
                "phase {phase} archived nothing"
            );
        }
    }
}

/// Tiering pays on a deep history: after 64 rounds compacted in 8 phases,
/// a cold `ASOF TT` slice at mid-history reads strictly fewer pages than
/// on a flat twin with the same history, answers byte-identically, and
/// skips whole segments by their fences — on every store layout. Both
/// twins reopen behind 16 frames, so the planner's statistics sweep washes
/// through the pool and the slice itself runs cold.
#[test]
fn tiered_cold_slice_reads_fewer_pages_than_flat() {
    for kind in KINDS {
        let load = config(kind)
            .buffer_frames(4096)
            .sync_policy(SyncPolicy::OnCheckpoint);
        let flat_dir = tmpdir(&format!("deep-flat-{kind}"));
        let tiered_dir = tmpdir(&format!("deep-tiered-{kind}"));
        let tt = {
            let flat = Database::open(&flat_dir, load).unwrap();
            let tiered = Database::open(&tiered_dir, load).unwrap();
            deep_syn_history(&flat, false);
            deep_syn_history(&tiered, true);
            assert_eq!(flat.now(), tiered.now(), "[{kind}] twin clocks diverged");
            flat.now().0 / 2
        };
        let sql = format!("EXPLAIN ANALYZE SELECT * FROM syn ASOF TT {tt}");
        let cold = |dir| {
            let db = Database::open(dir, load.buffer_frames(16)).unwrap();
            let (out, report) =
                tcom_query::explain_analyze_with(&db, &sql, Default::default()).unwrap();
            assert_eq!(report.pages_read(), report.total_pages_read, "[{kind}]");
            let skips = db.metrics().counter("segment.skips");
            (format!("{out:?}"), report.pages_read(), skips)
        };
        let (flat_out, flat_pages, _) = cold(&flat_dir);
        let (tiered_out, tiered_pages, skips) = cold(&tiered_dir);
        assert_eq!(flat_out, tiered_out, "[{kind}] tiering changed the slice");
        assert!(
            tiered_pages < flat_pages,
            "[{kind}] tiered slice read {tiered_pages} pages, flat {flat_pages}"
        );
        assert!(skips > 0, "[{kind}] no segment was skipped by its fences");
        let _ = std::fs::remove_dir_all(&flat_dir);
        let _ = std::fs::remove_dir_all(&tiered_dir);
    }
}
