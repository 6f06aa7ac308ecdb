//! End-to-end TQL tests against a populated database.

use tcom_core::{AttrDef, DataType, Database, DbConfig, MoleculeEdge, StoreKind, Tuple, Value};
use tcom_kernel::time::{iv, iv_from};
use tcom_kernel::{AttrId, TimePoint};
use tcom_query::{
    execute, execute_with, prepare, prepare_with, AccessPath, ExecOptions, QueryOutput,
};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-tql-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Builds the university database used across the TQL tests:
///
/// * tt=1: 6 employees inserted (salaries 100..600), dept "research"
///   employing the first three, dept "sales" employing the rest.
/// * tt=2: carol's (salary 300) salary raised to 350.
/// * tt=3: dave (salary 400) deleted.
fn university(dir: &std::path::Path) -> Database {
    let db = Database::open(
        dir,
        DbConfig::default()
            .store_kind(StoreKind::Split)
            .buffer_frames(256)
            .checkpoint_interval(0),
    )
    .unwrap();
    let emp = db
        .define_atom_type(
            "emp",
            vec![
                AttrDef::new("name", DataType::Text).not_null(),
                AttrDef::new("salary", DataType::Int).indexed(),
                AttrDef::new("nickname", DataType::Text),
            ],
        )
        .unwrap();
    let dept = db
        .define_atom_type(
            "dept",
            vec![
                AttrDef::new("name", DataType::Text).not_null(),
                AttrDef::new("employs", DataType::RefSet(emp)),
            ],
        )
        .unwrap();
    db.define_molecule_type(
        "dept_mol",
        dept,
        vec![MoleculeEdge {
            from: dept,
            attr: AttrId(1),
            to: emp,
        }],
        None,
    )
    .unwrap();

    let names = ["ann", "bob", "carol", "dave", "erin", "frank"];
    let mut txn = db.begin();
    let mut ids = Vec::new();
    for (i, n) in names.iter().enumerate() {
        let nick = if i % 2 == 0 {
            Value::from(format!("{n}y"))
        } else {
            Value::Null
        };
        ids.push(
            txn.insert_atom(
                emp,
                iv_from(0),
                Tuple::new(vec![
                    Value::from(*n),
                    Value::Int((i as i64 + 1) * 100),
                    nick,
                ]),
            )
            .unwrap(),
        );
    }
    txn.insert_atom(
        dept,
        iv_from(0),
        Tuple::new(vec![
            Value::from("research"),
            Value::ref_set(ids[0..3].to_vec()),
        ]),
    )
    .unwrap();
    txn.insert_atom(
        dept,
        iv_from(0),
        Tuple::new(vec![
            Value::from("sales"),
            Value::ref_set(ids[3..6].to_vec()),
        ]),
    )
    .unwrap();
    txn.commit().unwrap(); // tt=1

    let mut txn = db.begin();
    txn.update(
        ids[2],
        iv_from(0),
        Tuple::new(vec![
            Value::from("carol"),
            Value::Int(350),
            Value::from("caroly"),
        ]),
    )
    .unwrap();
    txn.commit().unwrap(); // tt=2

    let mut txn = db.begin();
    txn.delete(ids[3], iv_from(0)).unwrap();
    txn.commit().unwrap(); // tt=3

    db
}

fn rows(out: &QueryOutput) -> &[tcom_query::Row] {
    match out {
        QueryOutput::Rows { rows, .. } => rows,
        other => panic!("expected rows, got {other:?}"),
    }
}

fn names_of(out: &QueryOutput) -> Vec<String> {
    let mut v: Vec<String> = rows(out)
        .iter()
        .map(|r| match &r.values[0] {
            Value::Text(s) => s.clone(),
            other => panic!("expected text, got {other}"),
        })
        .collect();
    v.sort();
    v
}

#[test]
fn select_star_current() {
    let dir = tmpdir("star");
    let db = university(&dir);
    let out = execute(&db, "SELECT * FROM emp").unwrap();
    // dave was deleted: 5 current employees.
    assert_eq!(out.len(), 5);
    let QueryOutput::Rows { columns, .. } = &out else {
        panic!()
    };
    assert_eq!(columns, &["name", "salary", "nickname"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn predicate_filtering_and_projection() {
    let dir = tmpdir("pred");
    let db = university(&dir);
    let out = execute(&db, "SELECT e.name FROM emp e WHERE e.salary > 300").unwrap();
    assert_eq!(names_of(&out), vec!["carol", "erin", "frank"]); // 350, 500, 600
    let out = execute(
        &db,
        "SELECT e.name FROM emp e WHERE e.salary > 300 AND NOT e.name = 'frank'",
    )
    .unwrap();
    assert_eq!(names_of(&out), vec!["carol", "erin"]);
    let out = execute(
        &db,
        "SELECT e.name FROM emp e WHERE e.salary = 100 OR e.salary = 200",
    )
    .unwrap();
    assert_eq!(names_of(&out), vec!["ann", "bob"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transaction_time_travel() {
    let dir = tmpdir("tt");
    let db = university(&dir);
    // As of tt=1: dave alive, carol at 300.
    let out = execute(&db, "SELECT e.name, e.salary FROM emp e ASOF TT 1").unwrap();
    assert_eq!(out.len(), 6);
    let out = execute(
        &db,
        "SELECT e.name FROM emp e WHERE e.salary = 300 ASOF TT 1",
    )
    .unwrap();
    assert_eq!(names_of(&out), vec!["carol"]);
    // As of tt=2: carol already at 350, dave still alive.
    let out = execute(
        &db,
        "SELECT e.name FROM emp e WHERE e.salary = 350 ASOF TT 2",
    )
    .unwrap();
    assert_eq!(names_of(&out), vec!["carol"]);
    let out = execute(
        &db,
        "SELECT e.name FROM emp e WHERE e.name = 'dave' ASOF TT 2",
    )
    .unwrap();
    assert_eq!(out.len(), 1);
    // Now: dave gone.
    let out = execute(&db, "SELECT e.name FROM emp e WHERE e.name = 'dave'").unwrap();
    assert!(out.is_empty());
    // Before anything existed.
    let out = execute(&db, "SELECT * FROM emp ASOF TT 0").unwrap();
    assert!(out.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn is_null_and_three_valued_logic() {
    let dir = tmpdir("null");
    let db = university(&dir);
    let out = execute(&db, "SELECT e.name FROM emp e WHERE e.nickname IS NULL").unwrap();
    // bob, frank have NULL nicknames (dave deleted).
    assert_eq!(names_of(&out), vec!["bob", "frank"]);
    let out = execute(&db, "SELECT e.name FROM emp e WHERE e.nickname IS NOT NULL").unwrap();
    assert_eq!(names_of(&out), vec!["ann", "carol", "erin"]);
    // NULL comparisons never qualify.
    let out = execute(&db, "SELECT e.name FROM emp e WHERE e.nickname = 'boby'").unwrap();
    assert!(out.is_empty());
    // ... and = NULL never qualifies either (use IS NULL).
    let out = execute(&db, "SELECT e.name FROM emp e WHERE e.nickname = NULL").unwrap();
    assert!(out.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn index_vs_scan_same_answers() {
    let dir = tmpdir("idx");
    let db = university(&dir);
    let queries = [
        "SELECT e.name FROM emp e WHERE e.salary = 350",
        "SELECT e.name FROM emp e WHERE e.salary > 250",
        "SELECT e.name FROM emp e WHERE e.salary >= 350",
        "SELECT e.name FROM emp e WHERE e.salary < 300",
        "SELECT e.name FROM emp e WHERE e.salary <= 200",
        "SELECT e.name FROM emp e WHERE 400 <= e.salary",
    ];
    for q in queries {
        let p = prepare(&db, q).unwrap();
        assert!(
            matches!(p.access, AccessPath::IndexRange { .. }),
            "expected index for {q}"
        );
        let via_index = execute(&db, q).unwrap();
        let via_scan = execute_with(
            &db,
            q,
            ExecOptions {
                force_scan: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(names_of(&via_index), names_of(&via_scan), "query: {q}");
    }
    // A past-time query with an indexed conjunct probes the value index at
    // the statement's transaction time: the current holders plus the atoms
    // whose version visible then has closed since.
    let asof_q = "SELECT e.name FROM emp e WHERE e.salary = 300 ASOF TT 1";
    let p = prepare(&db, asof_q).unwrap();
    assert!(
        matches!(
            p.access,
            AccessPath::IndexRange {
                tt: Some(TimePoint(1)),
                ..
            }
        ),
        "ASOF must probe the value index at its tt: {:?}",
        p.access
    );
    let p = prepare_with(
        &db,
        asof_q,
        ExecOptions {
            force_time_index: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(
        p.access,
        AccessPath::TimeSlice { tt: TimePoint(1) },
        "forcing the index must plan a time-slice scan"
    );
    // …unless the time index is disabled, which falls back to the walk —
    // and both paths return identical answers.
    let opts = ExecOptions {
        no_time_index: true,
        ..Default::default()
    };
    let p = prepare_with(&db, asof_q, opts).unwrap();
    assert_eq!(p.access, AccessPath::Scan);
    assert_eq!(
        names_of(&execute(&db, asof_q).unwrap()),
        names_of(&execute_with(&db, asof_q, opts).unwrap()),
        "index-backed and walk-backed ASOF answers must agree"
    );
    // Unindexed attribute -> scan.
    let p = prepare(&db, "SELECT e.name FROM emp e WHERE e.name = 'ann'").unwrap();
    assert_eq!(p.access, AccessPath::Scan);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn molecule_queries() {
    let dir = tmpdir("mol");
    let db = university(&dir);
    let out = execute(&db, "SELECT MOLECULE FROM dept_mol VALID AT 0").unwrap();
    let QueryOutput::Molecules(mols) = &out else {
        panic!()
    };
    assert_eq!(mols.len(), 2);
    // research: 1 + 3 emp; sales: 1 + 2 (dave deleted).
    let mut sizes: Vec<usize> = mols.iter().map(|m| m.size()).collect();
    sizes.sort();
    assert_eq!(sizes, vec![3, 4]);

    // Filtered by root attribute.
    let out = execute(
        &db,
        "SELECT MOLECULE FROM dept_mol WHERE root.name = 'sales' VALID AT 0",
    )
    .unwrap();
    let QueryOutput::Molecules(mols) = &out else {
        panic!()
    };
    assert_eq!(mols.len(), 1);
    assert_eq!(mols[0].size(), 3);

    // As of tt=1 sales still had dave.
    let out = execute(
        &db,
        "SELECT MOLECULE FROM dept_mol WHERE root.name = 'sales' ASOF TT 1 VALID AT 0",
    )
    .unwrap();
    let QueryOutput::Molecules(mols) = &out else {
        panic!()
    };
    assert_eq!(mols[0].size(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn history_queries() {
    let dir = tmpdir("hist");
    let db = university(&dir);
    let out = execute(&db, "SELECT HISTORY FROM emp e WHERE e.name = 'carol'").unwrap();
    let QueryOutput::Histories(hs) = &out else {
        panic!()
    };
    assert_eq!(hs.len(), 1);
    assert_eq!(hs[0].1.len(), 2); // 300 then 350
    let out = execute(&db, "SELECT HISTORY FROM emp e WHERE e.salary = 400").unwrap();
    let QueryOutput::Histories(hs) = &out else {
        panic!()
    };
    assert_eq!(hs.len(), 1, "deleted dave still has history");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn valid_time_windows() {
    let dir = tmpdir("vt");
    let db = university(&dir);
    let emp = db.atom_type_id("emp").unwrap();
    // An employee with a bounded contract [10, 20).
    let mut txn = db.begin();
    txn.insert_atom(
        emp,
        iv(10, 20),
        Tuple::new(vec![Value::from("temp"), Value::Int(50), Value::Null]),
    )
    .unwrap();
    txn.commit().unwrap();

    let out = execute(
        &db,
        "SELECT e.name FROM emp e WHERE e.name = 'temp' VALID AT 15",
    )
    .unwrap();
    assert_eq!(out.len(), 1);
    let out = execute(
        &db,
        "SELECT e.name FROM emp e WHERE e.name = 'temp' VALID AT 25",
    )
    .unwrap();
    assert!(out.is_empty());
    // Window overlap with clipping.
    let out = execute(
        &db,
        "SELECT e.name FROM emp e WHERE e.name = 'temp' VALID IN [15, 40)",
    )
    .unwrap();
    let r = &rows(&out)[0];
    assert_eq!(r.vt, iv(15, 20));
    let out = execute(
        &db,
        "SELECT e.name FROM emp e WHERE e.name = 'temp' VALID IN [20, 40)",
    )
    .unwrap();
    assert!(out.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn limits_and_errors() {
    let dir = tmpdir("err");
    let db = university(&dir);
    let out = execute(&db, "SELECT * FROM emp LIMIT 2").unwrap();
    assert_eq!(out.len(), 2);
    assert!(execute(&db, "SELECT * FROM nosuch").is_err());
    assert!(execute(&db, "SELECT e.nope FROM emp e").is_err());
    assert!(execute(&db, "SELECT x.name FROM emp e").is_err());
    assert!(execute(&db, "SELECT e.name FROM emp e WHERE e.ghost = 1").is_err());
    assert!(execute(&db, "SELECT MOLECULE FROM dept_mol VALID IN [0, 5)").is_err());
    assert!(execute(&db, "SELECT MOLECULE FROM emp").is_err()); // not a molecule type
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn qualifier_defaults_to_source_name() {
    let dir = tmpdir("qual");
    let db = university(&dir);
    // No alias: the type name is the qualifier; bare attribute also works.
    let out = execute(&db, "SELECT emp.name FROM emp WHERE salary = 100").unwrap();
    assert_eq!(names_of(&out), vec!["ann"]);
    let _ = std::fs::remove_dir_all(&dir);
}
