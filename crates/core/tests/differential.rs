//! Differential test suite: the same logical data and the same TQL battery
//! run against all three version-store layouts must produce byte-identical
//! results (compared via `{:?}` renderings).
//!
//! On top of result equivalence, every run checks the observability
//! invariants:
//! * `hits + misses == fetches` on the buffer pool, both via
//!   [`Database::buffer_stats`] and via the metrics registry;
//! * the page count reported by `EXPLAIN ANALYZE` equals the buffer-pool
//!   miss delta observed around the statement, and the per-operator page
//!   counts sum to exactly that total;
//! * every `ASOF` statement answers the same with the time index forbidden.

use tcom_core::{Database, DbConfig, StoreKind};
use tcom_query::{execute_with, run_statement, ExecOptions, StatementOutput};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-diff-{}-{}", std::process::id(), name));
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

/// Runs one statement. The time index is an access path, never a source of
/// truth: every `ASOF` query must also answer the same through the chain
/// walk.
fn run(db: &Database, sql: &str) -> StatementOutput {
    let out = run_statement(db, sql).unwrap_or_else(|e| panic!("statement failed: {sql}\n  {e}"));
    if let (StatementOutput::Query(planned), true) = (&out, sql.contains("ASOF")) {
        let walk = ExecOptions {
            no_time_index: true,
            ..Default::default()
        };
        let walked = execute_with(db, sql, walk).unwrap();
        assert_eq!(
            format!("{planned:?}"),
            format!("{walked:?}"),
            "the time index changed the answer to {sql}"
        );
    }
    out
}

/// Populates the E1-style university schema purely through TQL:
/// departments employing employees who work on projects, with updates and
/// a deletion to give every atom a version history.
fn populate(db: &Database) {
    // Referenced types must exist before the referencing type.
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

    // Version history: raises, a correction window, and a departure.
    run(db, "UPDATE emp SET salary = 350 WHERE name = 'carol'");
    run(
        db,
        "UPDATE emp SET salary = 120 WHERE name = 'ann' VALID IN [10, 20)",
    );
    run(db, "DELETE FROM emp WHERE name = 'dave'");
    run(db, "UPDATE proj SET budget = 2500 WHERE title = 'beta'");
}

/// The canned battery: current state, projections with index-eligible
/// predicates, as-of (time travel), history, changed-in-window, and
/// molecule materialization.
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
    "SELECT HISTORY FROM emp",
    "SELECT HISTORY FROM emp WHERE salary > 100 VALID IN [0, 50)",
    "SELECT * FROM emp VALID IN [5, 30)",
    "SELECT MOLECULE FROM dept_mol VALID AT 10",
    "SELECT MOLECULE FROM dept_mol WHERE root.name = 'research' VALID AT 10",
    "SELECT * FROM proj",
    // Temporal operators: equi-join on overlapping time, period
    // normalization (COALESCE), and valid-time aggregation.
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

/// Checks the pool-counter invariant both on the raw stats and through the
/// registry (which must agree with the pool they gauge).
fn assert_pool_invariants(db: &Database) {
    let stats = db.buffer_stats();
    assert_eq!(
        stats.hits + stats.misses,
        stats.fetches,
        "pool counter invariant violated: {stats:?}"
    );
    let snap = db.metrics();
    assert_eq!(snap.counter("pool.fetches"), stats.fetches);
    assert_eq!(snap.counter("pool.hits"), stats.hits);
    assert_eq!(snap.counter("pool.misses"), stats.misses);
}

#[test]
fn battery_is_store_independent() {
    let mut renderings: Vec<Vec<String>> = Vec::new();
    for kind in KINDS {
        let dir = tmpdir(&format!("battery-{kind}"));
        let db = open(&dir, kind);
        populate(&db);
        let mut outs = Vec::new();
        for sql in BATTERY {
            let out = run(&db, sql);
            assert_pool_invariants(&db);
            outs.push(format!("{sql}\n{out:?}"));
        }
        renderings.push(outs);
    }
    for (i, sql) in BATTERY.iter().enumerate() {
        assert_eq!(
            renderings[0][i], renderings[1][i],
            "chain vs delta diverged on {sql}"
        );
        assert_eq!(
            renderings[0][i], renderings[2][i],
            "chain vs split diverged on {sql}"
        );
    }
}

#[test]
fn explain_analyze_pages_match_pool_misses() {
    for kind in KINDS {
        let dir = tmpdir(&format!("explain-{kind}"));
        let db = open(&dir, kind);
        populate(&db);
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
            assert_pool_invariants(&db);
        }
    }
}

/// E1-style check after a cold reopen: the first molecule query faults its
/// pages in from disk, and EXPLAIN ANALYZE must attribute every one of
/// those misses to an operator — across all three store layouts.
#[test]
fn explain_analyze_cold_molecule_query() {
    for kind in KINDS {
        let dir = tmpdir(&format!("cold-{kind}"));
        {
            let db = open(&dir, kind);
            populate(&db);
            db.checkpoint().unwrap();
        }
        let db = open(&dir, kind);
        let misses_before = db.buffer_stats().misses;
        let out = run(
            &db,
            "EXPLAIN ANALYZE SELECT MOLECULE FROM dept_mol VALID AT 10",
        );
        let misses_delta = db.buffer_stats().misses - misses_before;
        let StatementOutput::Explain(report) = out else {
            panic!("expected Explain output, got {out:?}")
        };
        assert!(
            report.total_pages_read > 0,
            "[{kind}] cold molecule query should fault pages in:\n{}",
            report.render()
        );
        assert_eq!(report.total_pages_read, misses_delta, "[{kind}]");
        assert_eq!(report.pages_read(), report.total_pages_read, "[{kind}]");
        assert_eq!(report.root_rows(), 2, "[{kind}] two departments expected");
        // The rendered tree carries the operator names and annotations.
        let text = report.render();
        assert!(text.contains("Materialize"), "{text}");
        assert!(
            text.contains("Scan") || text.contains("IndexProbe"),
            "{text}"
        );
        assert_pool_invariants(&db);
    }
}

/// Store-kind metrics land under the right label in the registry.
#[test]
fn store_metrics_labeled_by_kind() {
    for kind in KINDS {
        let dir = tmpdir(&format!("label-{kind}"));
        let db = open(&dir, kind);
        populate(&db);
        run(&db, "SELECT HISTORY FROM emp");
        let snap = db.metrics();
        let label = kind.to_string();
        let walks = snap.counter_labeled("store.chain_walks", &label);
        assert!(
            walks > 0,
            "[{kind}] expected labeled chain-walk count, got {walks}"
        );
        if kind == StoreKind::Delta {
            assert!(
                snap.counter_labeled("store.delta_reconstructions", &label) > 0,
                "[{kind}] delta reconstructions should be counted"
            );
        }
        // The text exposition renders every registered instrument.
        let text = snap.render_text();
        assert!(text.contains("store.chain_walks"), "{text}");
        assert!(text.contains("pool.fetches"), "{text}");
        assert!(text.contains("wal.appends"), "{text}");
    }
}

/// Retroactive valid-time corrections: rewriting the *valid-time past*
/// must never disturb the *transaction-time past*. The content of ASOF
/// slices pinned before a past-vt UPDATE — atoms, values, valid times —
/// stays byte-identical after it (only the tt-*end* stamp of a superseded
/// version may advance, which is the correction being recorded, so the
/// before/after comparison masks tt intervals), the corrected current
/// state reflects exactly the corrected windows, and every rendering —
/// before and after — agrees across all three store layouts.
#[test]
fn retroactive_corrections_are_store_independent() {
    /// Masks `tt: [..)` stamps so supersession (a later tt-end) doesn't
    /// count as a change to the pinned slice's content.
    fn mask_tt(s: &str) -> String {
        let mut out = String::new();
        let mut rest = s;
        while let Some(i) = rest.find("tt: [") {
            out.push_str(&rest[..i]);
            out.push_str("tt: [..)");
            let after = &rest[i + 5..];
            let j = after.find(')').map(|j| j + 1).unwrap_or(after.len());
            rest = &after[j..];
        }
        out.push_str(rest);
        out
    }
    let probes = |tt: u64| {
        vec![
            format!("SELECT * FROM emp ASOF TT {tt}"),
            format!("SELECT * FROM emp ASOF TT {tt} VALID AT 5"),
            format!("SELECT name, salary FROM emp WHERE salary >= 200 ASOF TT {tt}"),
        ]
    };
    let current = [
        "SELECT * FROM emp",
        "SELECT * FROM emp VALID IN [0, 12)",
        "SELECT HISTORY FROM emp WHERE name = 'bob'",
        "SELECT * FROM emp ASOF TT FOREVER VALID AT 5",
    ];
    let mut renderings: Vec<Vec<String>> = Vec::new();
    for kind in KINDS {
        let dir = tmpdir(&format!("retro-{kind}"));
        let db = open(&dir, kind);
        populate(&db);
        // The pre-correction transaction time is deterministic, so the
        // probe strings (and their renderings) are comparable across kinds.
        let pre_tt = db.now().0;
        let asof = probes(pre_tt);
        let before: Vec<String> = asof
            .iter()
            .map(|sql| format!("{sql}\n{:?}", run(&db, sql)))
            .collect();

        // The corrections: bob's salary was really 111 during [0, 8), and
        // everyone then earning under 150 was really at 99 during [2, 5).
        run(
            &db,
            "UPDATE emp SET salary = 111 WHERE name = 'bob' VALID IN [0, 8)",
        );
        run(
            &db,
            "UPDATE emp SET salary = 99 WHERE salary < 150 VALID IN [2, 5)",
        );

        // Transaction-time immutability: the pinned ASOF slices must not
        // have moved by a byte.
        let after: Vec<String> = asof
            .iter()
            .map(|sql| format!("{sql}\n{:?}", run(&db, sql)))
            .collect();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(
                mask_tt(b),
                mask_tt(a),
                "[{kind}] retroactive correction rewrote the transaction-time past"
            );
        }

        // The corrected windows read back exactly as corrected.
        let bob_late = format!(
            "{:?}",
            run(
                &db,
                "SELECT salary FROM emp WHERE name = 'bob' VALID IN [5, 8)"
            )
        );
        assert!(bob_late.contains("111"), "[{kind}] got {bob_late}");
        let bob_mid = format!(
            "{:?}",
            run(
                &db,
                "SELECT salary FROM emp WHERE name = 'bob' VALID IN [2, 5)"
            )
        );
        assert!(bob_mid.contains("99"), "[{kind}] got {bob_mid}");

        let mut outs = before;
        for sql in current {
            outs.push(format!("{sql}\n{:?}", run(&db, sql)));
            assert_pool_invariants(&db);
        }
        renderings.push(outs);
    }
    for (chain, (delta, split)) in renderings[0]
        .iter()
        .zip(renderings[1].iter().zip(renderings[2].iter()))
    {
        assert_eq!(
            chain, delta,
            "chain vs delta diverged after retroactive correction"
        );
        assert_eq!(
            chain, split,
            "chain vs split diverged after retroactive correction"
        );
    }
}
