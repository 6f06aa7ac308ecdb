//! End-to-end tests for TQL DDL and DML statements.

use std::time::{Duration, Instant};
use tcom_core::{Database, DbConfig, StoreKind, SyncPolicy, TimePoint, Value};
use tcom_kernel::time::iv;
use tcom_kernel::{AtomId, AtomNo, AttrId, Interval, Tuple};
use tcom_query::{
    apply_statement, parse_statement, run_statement, QueryOutput, StatementApply, StatementOutput,
};
use tcom_storage::keys::encode_int as enc;

fn db(name: &str) -> (Database, std::path::PathBuf) {
    let d = std::env::temp_dir().join(format!("tcom-stmt-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&d);
    let db = Database::open(
        &d,
        DbConfig::default()
            .store_kind(StoreKind::Split)
            .checkpoint_interval(0),
    )
    .unwrap();
    (db, d)
}

fn rows(out: StatementOutput) -> Vec<Vec<Value>> {
    match out {
        StatementOutput::Query(QueryOutput::Rows { rows, .. }) => {
            rows.into_iter().map(|r| r.values).collect()
        }
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn create_insert_select_roundtrip() {
    let (db, dir) = db("cisr");
    let out = run_statement(
        &db,
        "CREATE TYPE emp (name TEXT NOT NULL, salary INT INDEXED, nick TEXT)",
    )
    .unwrap();
    assert!(matches!(out, StatementOutput::TypeCreated(_)));

    let out = run_statement(&db, "INSERT INTO emp (name, salary) VALUES ('ann', 100)").unwrap();
    let StatementOutput::Inserted(ann, tt) = out else {
        panic!()
    };
    assert_eq!(tt, TimePoint(1));
    assert_eq!(ann.no.0, 0);
    run_statement(
        &db,
        "INSERT INTO emp (name, salary, nick) VALUES ('bob', 90, 'bobby')",
    )
    .unwrap();

    let r = rows(run_statement(&db, "SELECT name, salary FROM emp WHERE salary >= 95").unwrap());
    assert_eq!(r, vec![vec![Value::from("ann"), Value::Int(100)]]);
    // Unlisted attribute defaulted to NULL.
    let r = rows(run_statement(&db, "SELECT name FROM emp WHERE nick IS NULL").unwrap());
    assert_eq!(r, vec![vec![Value::from("ann")]]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn update_and_delete_statements() {
    let (db, dir) = db("ud");
    run_statement(&db, "CREATE TYPE emp (name TEXT, salary INT INDEXED)").unwrap();
    for (n, s) in [("ann", 100), ("bob", 90), ("carol", 80)] {
        run_statement(
            &db,
            &format!("INSERT INTO emp (name, salary) VALUES ('{n}', {s})"),
        )
        .unwrap();
    }
    // Raise everyone under 95.
    let out = run_statement(&db, "UPDATE emp SET salary = 95 WHERE salary < 95").unwrap();
    let StatementOutput::Modified(n, _) = out else {
        panic!()
    };
    assert_eq!(n, 2);
    let r = rows(run_statement(&db, "SELECT name FROM emp WHERE salary = 95").unwrap());
    assert_eq!(r.len(), 2);

    // Fire bob.
    let out = run_statement(&db, "DELETE FROM emp WHERE name = 'bob'").unwrap();
    assert!(matches!(out, StatementOutput::Modified(1, _)));
    let r = rows(run_statement(&db, "SELECT name FROM emp").unwrap());
    assert_eq!(r.len(), 2);
    // Bob's history remains.
    let out = run_statement(&db, "SELECT HISTORY FROM emp e WHERE e.name = 'bob'").unwrap();
    let StatementOutput::Query(QueryOutput::Histories(h)) = out else {
        panic!()
    };
    assert_eq!(h.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn valid_time_clauses_in_dml() {
    let (db, dir) = db("vt");
    run_statement(&db, "CREATE TYPE contract (who TEXT, rate INT)").unwrap();
    run_statement(
        &db,
        "INSERT INTO contract (who, rate) VALUES ('x', 10) VALID IN [0, 100)",
    )
    .unwrap();
    // Rate change only for [40, 60).
    run_statement(
        &db,
        "UPDATE contract SET rate = 20 WHERE who = 'x' VALID IN [40, 60)",
    )
    .unwrap();
    let r = rows(run_statement(&db, "SELECT rate FROM contract VALID AT 50").unwrap());
    assert_eq!(r, vec![vec![Value::Int(20)]]);
    let r = rows(run_statement(&db, "SELECT rate FROM contract VALID AT 30").unwrap());
    assert_eq!(r, vec![vec![Value::Int(10)]]);
    // VALID FROM (open-ended).
    run_statement(
        &db,
        "INSERT INTO contract (who, rate) VALUES ('y', 5) VALID FROM 200",
    )
    .unwrap();
    let r = rows(run_statement(&db, "SELECT who FROM contract VALID AT 500").unwrap());
    assert_eq!(r, vec![vec![Value::from("y")]]);
    // Delete only part of x's contract.
    run_statement(&db, "DELETE FROM contract WHERE who = 'x' VALID IN [0, 20)").unwrap();
    let out = run_statement(&db, "SELECT who, rate FROM contract WHERE who = 'x'").unwrap();
    let StatementOutput::Query(QueryOutput::Rows { rows, .. }) = out else {
        panic!()
    };
    assert_eq!(rows[0].vt, iv(20, 40));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn references_and_molecules_via_statements() {
    let (db, dir) = db("refs");
    run_statement(&db, "CREATE TYPE proj (title TEXT)").unwrap();
    run_statement(&db, "CREATE TYPE emp (name TEXT, works_on REFSET(proj))").unwrap();
    run_statement(
        &db,
        "CREATE TYPE dept (name TEXT, head REF(emp), employs REFSET(emp))",
    )
    .unwrap();
    let out = run_statement(
        &db,
        "CREATE MOLECULE dm ROOT dept (dept.employs TO emp, emp.works_on TO proj)",
    )
    .unwrap();
    assert!(matches!(out, StatementOutput::MoleculeCreated(_)));

    let StatementOutput::Inserted(p1, _) =
        run_statement(&db, "INSERT INTO proj (title) VALUES ('apollo')").unwrap()
    else {
        panic!()
    };
    let StatementOutput::Inserted(e1, _) = run_statement(
        &db,
        &format!(
            "INSERT INTO emp (name, works_on) VALUES ('ann', {{@{}.{}}})",
            p1.ty.0, p1.no.0
        ),
    )
    .unwrap() else {
        panic!()
    };
    run_statement(
        &db,
        &format!(
            "INSERT INTO dept (name, head, employs) VALUES ('r', @{}.{}, {{@{}.{}}})",
            e1.ty.0, e1.no.0, e1.ty.0, e1.no.0
        ),
    )
    .unwrap();

    let out = run_statement(&db, "SELECT MOLECULE FROM dm VALID AT 0").unwrap();
    let StatementOutput::Query(QueryOutput::Molecules(ms)) = out else {
        panic!()
    };
    assert_eq!(ms.len(), 1);
    assert_eq!(ms[0].size(), 3); // dept + emp + proj

    // Dangling reference rejected at DML time.
    let r = run_statement(&db, "INSERT INTO dept (name, head) VALUES ('bad', @1.999)");
    assert!(r.is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn self_referential_type_via_statement() {
    let (db, dir) = db("selfref");
    run_statement(&db, "CREATE TYPE part (name TEXT, components REFSET(part))").unwrap();
    let StatementOutput::Inserted(leaf, _) =
        run_statement(&db, "INSERT INTO part (name) VALUES ('leaf')").unwrap()
    else {
        panic!()
    };
    run_statement(
        &db,
        &format!(
            "INSERT INTO part (name, components) VALUES ('root', {{@{}.{}}})",
            leaf.ty.0, leaf.no.0
        ),
    )
    .unwrap();
    run_statement(
        &db,
        "CREATE MOLECULE bom ROOT part (part.components TO part) DEPTH 4",
    )
    .unwrap();
    let out = run_statement(
        &db,
        "SELECT MOLECULE FROM bom WHERE root.name = 'root' VALID AT 0",
    )
    .unwrap();
    let StatementOutput::Query(QueryOutput::Molecules(ms)) = out else {
        panic!()
    };
    assert_eq!(ms[0].size(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn statement_errors() {
    let (db, dir) = db("errors");
    run_statement(&db, "CREATE TYPE t (v INT)").unwrap();
    assert!(run_statement(&db, "CREATE TYPE t (v INT)").is_err()); // duplicate
    assert!(run_statement(&db, "CREATE TYPE u (v NOPE)").is_err()); // bad type
    assert!(run_statement(&db, "INSERT INTO nosuch (v) VALUES (1)").is_err());
    assert!(run_statement(&db, "INSERT INTO t (ghost) VALUES (1)").is_err());
    assert!(run_statement(&db, "INSERT INTO t (v) VALUES (1, 2)").is_err()); // arity
    assert!(run_statement(&db, "INSERT INTO t (v) VALUES (1) VALID IN [9, 3)").is_err());
    assert!(run_statement(&db, "UPDATE t SET ghost = 1").is_err());
    assert!(run_statement(&db, "DROP TABLE t").is_err()); // unknown statement
                                                          // Statement with trailing junk.
    assert!(run_statement(&db, "CREATE TYPE w (v INT) garbage").is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn update_with_no_matches_is_noop() {
    let (db, dir) = db("noop");
    run_statement(&db, "CREATE TYPE t (v INT)").unwrap();
    run_statement(&db, "INSERT INTO t (v) VALUES (1)").unwrap();
    let before = db.now();
    let out = run_statement(&db, "UPDATE t SET v = 9 WHERE v = 42").unwrap();
    assert!(matches!(out, StatementOutput::Modified(0, _)));
    assert_eq!(db.now(), before, "no clock tick for empty transactions");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn update_claim_takes_oldest_qualifying_row() {
    let (db, dir) = db("claim");
    run_statement(&db, "CREATE TYPE job (key INT, state INT)").unwrap();
    for k in 0..3 {
        run_statement(
            &db,
            &format!("INSERT INTO job (key, state) VALUES ({k}, 0)"),
        )
        .unwrap();
    }
    // Claims drain the queue in insertion order, one row per statement.
    for expect_key in 0..3i64 {
        let out = run_statement(&db, "UPDATE job CLAIM SET state = 1 WHERE state = 0").unwrap();
        assert!(matches!(out, StatementOutput::Modified(1, _)));
        let r = rows(run_statement(&db, "SELECT key FROM job WHERE state = 1").unwrap());
        let mut keys: Vec<i64> = r
            .into_iter()
            .map(|row| match row[0] {
                Value::Int(k) => k,
                ref other => panic!("int key, got {other:?}"),
            })
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..=expect_key).collect::<Vec<_>>());
    }
    // Queue empty: the claim is a no-op and must not tick the clock.
    let before = db.now();
    let out = run_statement(&db, "UPDATE job CLAIM SET state = 1 WHERE state = 0").unwrap();
    assert!(matches!(out, StatementOutput::Modified(0, _)));
    assert_eq!(db.now(), before);
    // Claimed rows keep their history: the open state is still visible ASOF.
    let r = rows(run_statement(&db, "SELECT key FROM job WHERE state = 0 ASOF TT 3").unwrap());
    assert_eq!(r.len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `UPDATE … CLAIM` inside a transaction sees the rows that transaction
/// inserted, like every other DML statement: the committed row is claimed
/// first (oldest atom), then the transaction's own, then the queue is
/// empty. Scanned and index-probed predicates alike.
fn claim_sees_the_transactions_own_insert(tag: &str, state_attr: &str) {
    let (db, dir) = db(tag);
    run_statement(&db, &format!("CREATE TYPE job (key INT, {state_attr})")).unwrap();
    run_statement(&db, "INSERT INTO job (key, state) VALUES (1, 0)").unwrap();
    let mut txn = db.begin();
    let mut apply = |sql: &str| apply_statement(&db, &mut txn, parse_statement(sql).unwrap());
    assert!(matches!(
        apply("INSERT INTO job (key, state) VALUES (7, 0)").unwrap(),
        StatementApply::Inserted(_)
    ));
    let claim = "UPDATE job CLAIM SET state = 1 WHERE state = 0";
    assert_eq!(apply(claim).unwrap(), StatementApply::Modified(1));
    assert_eq!(apply(claim).unwrap(), StatementApply::Modified(1));
    assert_eq!(apply(claim).unwrap(), StatementApply::Modified(0));
    txn.commit().unwrap();
    let r = rows(run_statement(&db, "SELECT key FROM job WHERE state = 1").unwrap());
    assert_eq!(r, vec![vec![Value::Int(1)], vec![Value::Int(7)]]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn update_claim_sees_the_transactions_own_insert() {
    claim_sees_the_transactions_own_insert("claim-own", "state INT");
}

#[test]
fn indexed_update_claim_sees_the_transactions_own_insert() {
    claim_sees_the_transactions_own_insert("claim-own-ix", "state INT INDEXED");
}

/// Stripe order is serialization order for DML too. An older transaction
/// whose `UPDATE` / `DELETE` waits on the type's stripe behind a younger
/// inserter must, once the insert commits, see the new row: the statement
/// takes the stripe *before* it enumerates the type, so it cannot act on
/// an enumeration older than the commit it waited for. Indexed and scanned
/// predicates alike.
#[test]
fn dml_waiting_on_the_stripe_sees_the_insert_it_waited_for() {
    let cases = [
        ("upd-probe", "UPDATE emp SET name = 'z' WHERE salary >= 100"),
        ("upd-scan", "UPDATE emp SET salary = 1 WHERE name != 'none'"),
        ("del-probe", "DELETE FROM emp WHERE salary >= 100"),
        ("del-scan", "DELETE FROM emp WHERE name != 'none'"),
    ];
    for (tag, sql) in cases {
        let (db, dir) = db(&format!("phantom-{tag}"));
        run_statement(&db, "CREATE TYPE emp (name TEXT, salary INT INDEXED)").unwrap();
        for s in 100..103 {
            run_statement(
                &db,
                &format!("INSERT INTO emp (name, salary) VALUES ('e{s}', {s})"),
            )
            .unwrap();
        }
        let waits = || db.metrics().counter("txn.stripe_waits");
        let older = db.begin();
        let mut younger = db.begin();
        apply_statement(
            &db,
            &mut younger,
            parse_statement("INSERT INTO emp (name, salary) VALUES ('new', 500)").unwrap(),
        )
        .unwrap();
        let waits_before = waits();
        let applied = std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let mut older = older;
                let applied = apply_statement(&db, &mut older, parse_statement(sql).unwrap());
                older.commit().unwrap();
                applied.unwrap()
            });
            // The older statement is parked on the stripe the younger holds.
            let deadline = Instant::now() + Duration::from_secs(10);
            while waits() == waits_before {
                assert!(
                    Instant::now() < deadline,
                    "{tag}: never waited on the stripe"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            younger.commit().unwrap();
            worker.join().unwrap()
        });
        assert_eq!(applied, StatementApply::Modified(4), "{tag}: {sql}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Buffer-pool fetches of `f` (pool counters are engine-wide; these tests
/// run one thread against a database with no background work).
fn fetches(db: &Database, f: impl FnOnce()) -> u64 {
    let before = db.metrics().counter("pool.fetches");
    f();
    db.metrics().counter("pool.fetches") - before
}

/// A database holding one `emp` type of `n` atoms (`badge` = atom number,
/// indexed; `code` = badge, unindexed), loaded in one transaction.
fn emp_db(tag: &str, n: i64) -> (Database, std::path::PathBuf) {
    let d = std::env::temp_dir().join(format!("tcom-stmt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    let db = Database::open(
        &d,
        DbConfig::default()
            .store_kind(StoreKind::Split)
            .sync_policy(SyncPolicy::OnCheckpoint)
            .checkpoint_interval(0),
    )
    .unwrap();
    run_statement(
        &db,
        "CREATE TYPE emp (badge INT INDEXED, code INT, salary INT INDEXED)",
    )
    .unwrap();
    let ty = db.atom_type_id("emp").unwrap();
    let mut txn = db.begin();
    for k in 0..n {
        let t = Tuple::new(vec![Value::Int(k), Value::Int(k), Value::Int(1000 + k)]);
        txn.insert_atom(ty, Interval::all(), t).unwrap();
    }
    txn.commit().unwrap();
    (db, d)
}

/// Pool fetches of staging and of committing one DML statement.
fn dml_fetches(db: &Database, sql: &str) -> (u64, u64) {
    let mut txn = db.begin();
    let stage = fetches(db, || {
        let applied = apply_statement(db, &mut txn, parse_statement(sql).unwrap()).unwrap();
        assert_eq!(applied, StatementApply::Modified(1), "{sql}");
    });
    let commit = fetches(db, || {
        txn.commit().unwrap();
    });
    (stage, commit)
}

/// A one-row indexed `UPDATE` costs a probe, one atom's reads and its own
/// commit — the same page fetches on a type ten times larger, up to one
/// more B⁺-tree level per descent.
#[test]
fn one_row_indexed_update_costs_the_same_at_any_type_size() {
    let (small, small_dir) = emp_db("cost-500", 500);
    let (big, big_dir) = emp_db("cost-5000", 5000);
    let sql = "UPDATE emp SET salary = 7 WHERE badge = 321";
    // Warm both pools so neither side pays first-touch misses the other
    // does not; fetches count hits and misses alike.
    for db in [&small, &big] {
        run_statement(db, "SELECT * FROM emp WHERE badge = 321").unwrap();
    }
    let (s_stage, s_commit) = dml_fetches(&small, sql);
    let (b_stage, b_commit) = dml_fetches(&big, sql);
    // Descents: the value-index probe and the directory / current-area
    // reads while staging; the two value-index diffs (salary out, salary
    // in) and the store's own trees while committing.
    const SLACK: u64 = 4;
    assert!(
        b_stage <= s_stage + SLACK && b_commit <= s_commit + SLACK,
        "500 atoms: stage {s_stage} commit {s_commit}; 5000 atoms: stage {b_stage} commit {b_commit}"
    );
    drop((small, big));
    let _ = std::fs::remove_dir_all(&small_dir);
    let _ = std::fs::remove_dir_all(&big_dir);
}

/// Commit work is bounded by the write set, not by what the statement
/// read: an unindexed scan `UPDATE` matching one row of 2 000 writes
/// exactly the WAL bytes of the indexed one, leaves one atom in the write
/// set, commits with the same page fetches, and makes the same value-index
/// changes.
#[test]
fn scan_update_commits_only_its_write_set() {
    let (probe, probe_dir) = emp_db("ws-probe", 2000);
    let (scan, scan_dir) = emp_db("ws-scan", 2000);
    let salary = AttrId(2);
    let wal_bytes = |db: &Database| db.metrics().counter("wal.bytes");
    let mut commit_fetches = Vec::new();
    let mut wal = Vec::new();
    for (db, sql) in [
        (&probe, "UPDATE emp SET salary = 7 WHERE badge = 1234"),
        (&scan, "UPDATE emp SET salary = 7 WHERE code = 1234"),
    ] {
        let ty = db.atom_type_id("emp").unwrap();
        let bytes = wal_bytes(db);
        let mut txn = db.begin();
        apply_statement(db, &mut txn, parse_statement(sql).unwrap()).unwrap();
        assert_eq!(txn.written_atoms().count(), 1, "{sql}");
        commit_fetches.push(fetches(db, || {
            txn.commit().unwrap();
        }));
        wal.push(wal_bytes(db) - bytes);
        // The salary index moved the one atom from 2234 to 7, nothing else.
        let at = |v: i64| {
            db.index_range_inclusive(ty, salary, enc(v), enc(v))
                .unwrap()
        };
        assert_eq!(at(7), vec![AtomId::new(ty, AtomNo(1234))], "{sql}");
        assert!(at(2234).is_empty(), "{sql}");
        let all = db.index_range_inclusive(ty, salary, 0, u64::MAX).unwrap();
        assert_eq!(all.len(), 2000, "{sql}");
    }
    assert_eq!(wal[0], wal[1], "WAL bytes: indexed vs scan");
    assert_eq!(
        commit_fetches[0], commit_fetches[1],
        "commit fetches: indexed vs scan"
    );
    drop((probe, scan));
    let _ = std::fs::remove_dir_all(&probe_dir);
    let _ = std::fs::remove_dir_all(&scan_dir);
}

/// Inside one transaction an indexed predicate sees the transaction's own
/// rewrites: after `salary` goes 1005 → 7, `WHERE salary = 7` finds the
/// atom (the committed index does not hold it yet) and `WHERE salary =
/// 1005` does not (the committed index still does).
#[test]
fn indexed_dml_sees_the_transactions_own_rewrites() {
    let (db, dir) = emp_db("rewrite", 50);
    let mut txn = db.begin();
    let mut apply = |sql: &str| apply_statement(&db, &mut txn, parse_statement(sql).unwrap());
    assert_eq!(
        apply("UPDATE emp SET salary = 7 WHERE salary = 1005").unwrap(),
        StatementApply::Modified(1)
    );
    assert_eq!(
        apply("UPDATE emp SET code = -1 WHERE salary = 7").unwrap(),
        StatementApply::Modified(1)
    );
    assert_eq!(
        apply("DELETE FROM emp WHERE salary = 1005").unwrap(),
        StatementApply::Modified(0)
    );
    assert_eq!(
        apply("DELETE FROM emp WHERE salary <= 1001 AND salary >= 1000").unwrap(),
        StatementApply::Modified(2)
    );
    txn.commit().unwrap();
    let r = rows(run_statement(&db, "SELECT badge, code FROM emp WHERE salary < 1002").unwrap());
    assert_eq!(r, vec![vec![Value::Int(5), Value::Int(-1)]]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
