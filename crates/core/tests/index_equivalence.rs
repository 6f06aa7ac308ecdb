//! Differential test: the two `ASOF TT` access paths — the index-backed
//! time-slice scan and the plain chain walk — must return byte-identical
//! results on every store layout, for every transaction time including the
//! `FOREVER` sentinel, and the planner must actually pick the path the
//! options ask for.

use tcom_core::{Database, DbConfig, StoreKind};
use tcom_query::{
    execute_with, prepare_with, run_statement, AccessPath, ExecOptions, StatementOutput,
};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-ixeq-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&d);
    d
}

const KINDS: [StoreKind; 3] = [StoreKind::Chain, StoreKind::Delta, StoreKind::Split];

fn open(dir: &std::path::Path, kind: StoreKind) -> Database {
    Database::open(
        dir,
        DbConfig::default()
            .store_kind(kind)
            .buffer_frames(256)
            .checkpoint_interval(0),
    )
    .unwrap()
}

fn run(db: &Database, sql: &str) {
    run_statement(db, sql).unwrap_or_else(|e| panic!("statement failed: {sql}\n  {e}"));
}

/// Builds deep version histories: `depth` salary updates per employee, so
/// past slices have plenty of closed versions to skip over.
fn populate(db: &Database, depth: usize) {
    run(
        db,
        "CREATE TYPE emp (name TEXT NOT NULL, salary INT, grade INT)",
    );
    for (i, name) in ["ann", "bob", "carol", "dave"].iter().enumerate() {
        run(
            db,
            &format!(
                "INSERT INTO emp (name, salary, grade) VALUES ('{name}', {}, {i})",
                (i + 1) * 100
            ),
        );
    }
    for round in 0..depth {
        for (i, name) in ["ann", "bob", "carol", "dave"].iter().enumerate() {
            run(
                db,
                &format!(
                    "UPDATE emp SET salary = {} WHERE name = '{name}'",
                    (i + 1) * 100 + round + 1
                ),
            );
        }
    }
    run(db, "DELETE FROM emp WHERE name = 'dave'");
}

#[test]
fn both_access_paths_agree_on_every_slice() {
    for kind in KINDS {
        let dir = tmpdir(&format!("paths-{kind}"));
        let db = open(&dir, kind);
        populate(&db, 8);

        let walk = ExecOptions {
            no_time_index: true,
            ..Default::default()
        };
        // The cost model is free to pick either path by price; forcing the
        // index pins the slice path for the planner assertion and the
        // differential run below.
        let force = ExecOptions {
            force_time_index: true,
            ..Default::default()
        };
        // 4 inserts + 8 rounds × 4 updates + 1 delete ⇒ tt runs past 37.
        let mut queries: Vec<String> = (0..40)
            .map(|t| format!("SELECT * FROM emp ASOF TT {t}"))
            .collect();
        queries.push("SELECT * FROM emp ASOF TT FOREVER".into());
        queries.push("SELECT name FROM emp WHERE salary > 101 ASOF TT 20".into());
        queries.push("SELECT name, grade FROM emp ASOF TT 6 LIMIT 2".into());

        for sql in &queries {
            let p = prepare_with(&db, sql, force).unwrap();
            assert!(
                matches!(p.access, AccessPath::TimeSlice { .. }),
                "[{kind}] unexpected plan for {sql}: {:?}",
                p.access
            );
            // Under default options the cost model picks one of the two
            // paths — never anything else.
            let p = prepare_with(&db, sql, ExecOptions::default()).unwrap();
            assert!(
                matches!(p.access, AccessPath::TimeSlice { .. } | AccessPath::Scan),
                "[{kind}] cost model produced unexpected plan for {sql}: {:?}",
                p.access
            );
            let p = prepare_with(&db, sql, walk).unwrap();
            assert!(
                !matches!(p.access, AccessPath::TimeSlice { .. }),
                "[{kind}] no_time_index must disable the index path for {sql}"
            );

            let via_index = execute_with(&db, sql, force).unwrap();
            let via_walk = execute_with(&db, sql, walk).unwrap();
            assert_eq!(
                format!("{via_index:?}"),
                format!("{via_walk:?}"),
                "[{kind}] access paths diverged on {sql}"
            );
        }
    }
}

/// The agreement must survive a checkpoint + cold reopen (the index is read
/// back from disk rather than the pages it was built through).
#[test]
fn paths_agree_after_cold_reopen() {
    for kind in KINDS {
        let dir = tmpdir(&format!("cold-{kind}"));
        {
            let db = open(&dir, kind);
            populate(&db, 8);
            db.checkpoint().unwrap();
        }
        let db = open(&dir, kind);
        let walk = ExecOptions {
            no_time_index: true,
            ..Default::default()
        };
        let force = ExecOptions {
            force_time_index: true,
            ..Default::default()
        };
        for t in [1u64, 10, 20, 37] {
            let sql = format!("SELECT * FROM emp ASOF TT {t}");
            let via_index = execute_with(&db, &sql, force).unwrap();
            let via_walk = execute_with(&db, &sql, walk).unwrap();
            assert_eq!(
                format!("{via_index:?}"),
                format!("{via_walk:?}"),
                "[{kind}] cold-reopen divergence on {sql}"
            );
        }
    }
}

/// `ASOF TT FOREVER` equals the current state, on a reopened database too.
#[test]
fn forever_semantics() {
    for kind in KINDS {
        let dir = tmpdir(&format!("gate-{kind}"));
        {
            let db = open(&dir, kind);
            populate(&db, 4);
        }
        let db = open(&dir, kind);
        // FOREVER ≡ current state, independent of access path.
        let StatementOutput::Query(now) = run_statement(&db, "SELECT * FROM emp").unwrap() else {
            panic!("expected rows")
        };
        let StatementOutput::Query(forever) =
            run_statement(&db, "SELECT * FROM emp ASOF TT FOREVER").unwrap()
        else {
            panic!("expected rows")
        };
        assert_eq!(
            format!("{forever:?}"),
            format!("{now:?}"),
            "[{kind}] FOREVER must mean the current state"
        );
    }
}
