//! Differential test: the `ASOF TT` access paths — the index-backed
//! time-slice scan, the plain chain walk and, for an indexed conjunct, the
//! value-index probe at the statement's tt — must return byte-identical
//! results on every store layout, for every transaction time including the
//! `FOREVER` sentinel, and the planner must actually pick the path the
//! options ask for.

use tcom_core::{Database, DbConfig, Interval, StoreKind, TimePoint, Tuple, Value};
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

/// Filler employees, inserted in one commit and never changed: the probe
/// must answer without them, so they are most of what it leaves out.
const FILLER: usize = 300;

/// Every way an indexed value can move around a past transaction time,
/// one named employee each, with `badge = 7` as the probed key: a value
/// that leaves 7, one that arrives at 7, a `VALID`-split update that leaves
/// one atom with an open piece and a closed piece both visible at a tt, a
/// delete and an insert, and versions archived by `compact_type` into a
/// segment (every version closed before the mid-script compaction).
/// Returns the clock at the end.
fn indexed_history(db: &Database) -> u64 {
    run(
        db,
        "CREATE TYPE emp (name TEXT NOT NULL, badge INT INDEXED, pad TEXT)",
    );
    let ty = db.atom_type_id("emp").unwrap();
    let mut txn = db.begin();
    for i in 0..FILLER {
        let tuple = Tuple::new(vec![
            Value::Text(format!("f{i}")),
            Value::Int(1000 + i as i64),
            Value::Text("x".repeat(64)),
        ]);
        txn.insert_atom(ty, Interval::all(), tuple).unwrap();
    }
    txn.commit().unwrap();
    for (name, badge) in [
        ("leaves", 7),
        ("arrives", 9),
        ("split", 7),
        ("deleted", 7),
        ("archived", 7),
    ] {
        run(
            db,
            &format!("INSERT INTO emp (name, badge) VALUES ('{name}', {badge})"),
        );
    }
    run(db, "UPDATE emp SET badge = 8 WHERE name = 'archived'");
    run(
        db,
        "UPDATE emp SET badge = 8 WHERE name = 'split' VALID IN [10, 20)",
    );
    assert!(db.compact_type(ty).unwrap() > 0, "nothing was archived");
    for sql in [
        "UPDATE emp SET badge = 8 WHERE name = 'leaves'",
        "UPDATE emp SET badge = 7 WHERE name = 'arrives'",
        // Closes only the [10, 20) piece; the pieces around it stay open.
        "UPDATE emp SET badge = 9 WHERE name = 'split' VALID IN [10, 20)",
        "DELETE FROM emp WHERE name = 'deleted'",
        "INSERT INTO emp (name, badge) VALUES ('inserted', 7)",
        "UPDATE emp SET badge = 9 WHERE name = 'archived'",
    ] {
        run(db, sql);
    }
    db.now().0
}

/// An `ASOF TT` lookup on an indexed attribute plans the value-index probe
/// at its tt, on every layout and at every tt, and answers exactly what
/// the walk and the slice answer.
#[test]
fn index_probe_agrees_with_walk_and_slice_at_every_tt() {
    let walk = ExecOptions {
        no_time_index: true,
        ..Default::default()
    };
    let slice = ExecOptions {
        force_time_index: true,
        ..Default::default()
    };
    for kind in KINDS {
        let dir = tmpdir(&format!("probe-{kind}"));
        let db = open(&dir, kind);
        let now = indexed_history(&db);
        let tts = (0..=now)
            .map(|t| (TimePoint(t), t.to_string()))
            .chain([(TimePoint::FOREVER, "FOREVER".to_string())]);
        for (tt, at) in tts {
            for filter in [
                "badge = 7",
                "badge = 8",
                "badge = 9",
                "badge >= 8",
                "badge = 8 VALID AT 15",
            ] {
                let sql = format!("SELECT name, badge FROM emp WHERE {filter} ASOF TT {at}");
                let p = prepare_with(&db, &sql, ExecOptions::default()).unwrap();
                assert!(
                    matches!(p.access, AccessPath::IndexRange { tt: Some(t), .. } if t == tt),
                    "[{kind}] {sql} planned {:?}",
                    p.access
                );
                let probe = format!(
                    "{:?}",
                    execute_with(&db, &sql, ExecOptions::default()).unwrap()
                );
                for (path, opts) in [("walk", walk), ("slice", slice)] {
                    assert_eq!(
                        probe,
                        format!("{:?}", execute_with(&db, &sql, opts).unwrap()),
                        "[{kind}] the probe and the {path} diverged on {sql}"
                    );
                }
            }
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
