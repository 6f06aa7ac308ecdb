//! Full-stack integration tests: every layer from TQL down to the disk
//! manager exercised together through the facade crate.

use tcom::prelude::*;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-fs-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A complete lifecycle: schema → load → evolve → query (all temporal
/// modes) → crash → recover → query again → age → compact → reopen → query
/// once more — for every storage format, whose answers must be identical.
#[test]
fn lifecycle_every_store_kind() {
    let mut answers: Vec<(StoreKind, Vec<QueryOutput>)> = Vec::new();
    for kind in [StoreKind::Chain, StoreKind::Delta, StoreKind::Split] {
        let dir = tmpdir(&format!("life-{kind}"));
        let (emp_ty, ann);
        let mut staff = Vec::new();
        {
            let db = Database::open(&dir, DbConfig::default().store_kind(kind)).unwrap();
            emp_ty = db
                .define_atom_type(
                    "emp",
                    vec![
                        AttrDef::new("name", DataType::Text).not_null(),
                        AttrDef::new("salary", DataType::Int).indexed(),
                    ],
                )
                .unwrap();
            let mut txn = db.begin();
            ann = txn
                .insert_atom(
                    emp_ty,
                    Interval::all(),
                    Tuple::new(vec![Value::from("ann"), Value::Int(100)]),
                )
                .unwrap();
            for i in 0..9i64 {
                let tuple = Tuple::new(vec![Value::from(format!("e{i}")), Value::Int(100 + i)]);
                staff.push(txn.insert_atom(emp_ty, Interval::all(), tuple).unwrap());
            }
            txn.commit().unwrap();
            let mut txn = db.begin();
            txn.update(
                ann,
                iv_from(50),
                Tuple::new(vec![Value::from("ann"), Value::Int(200)]),
            )
            .unwrap();
            txn.commit().unwrap();

            // TQL across temporal modes.
            let out = execute(
                &db,
                "SELECT name, salary FROM emp WHERE salary >= 200 VALID AT 60",
            )
            .unwrap();
            assert_eq!(out.len(), 1);
            let out = execute(&db, "SELECT name FROM emp WHERE name = 'ann' VALID AT 10").unwrap();
            assert_eq!(out.len(), 1);
            let out = execute(&db, "SELECT HISTORY FROM emp e WHERE e.name = 'ann'").unwrap();
            let QueryOutput::Histories(hs) = out else {
                panic!()
            };
            assert_eq!(hs[0].1.len(), 3); // original + split remainder + raised
            db.crash();
        }
        {
            let db = Database::open(&dir, DbConfig::default().store_kind(kind)).unwrap();
            let out = execute(
                &db,
                "SELECT name, salary FROM emp WHERE salary >= 200 VALID AT 60",
            )
            .unwrap();
            assert_eq!(out.len(), 1, "{kind}: recovery lost the raise");
            assert_eq!(db.current_versions(ann).unwrap().len(), 2);
        }
        // Age the staff so every atom has closed history, then archive it
        // into a segment: the same statements must read the same before
        // the swap, after it, and after a reopen over heaps + segment.
        let db = Database::open(&dir, DbConfig::default().store_kind(kind)).unwrap();
        for round in 1..=4i64 {
            let mut txn = db.begin();
            for (i, e) in staff.iter().enumerate() {
                let raised = Value::Int(100 * round + i as i64);
                let tuple = Tuple::new(vec![Value::from(format!("e{i}")), raised]);
                txn.update(*e, Interval::all(), tuple).unwrap();
            }
            txn.commit().unwrap();
        }
        let mid = db.now().0 - 2;
        let ask = |db: &Database| -> Vec<QueryOutput> {
            [
                format!("SELECT name, salary FROM emp ASOF TT {mid}"),
                "SELECT HISTORY FROM emp e WHERE e.name = 'e3'".to_string(),
                "SELECT name, salary FROM emp".to_string(),
            ]
            .iter()
            .map(|sql| execute(db, sql).unwrap())
            .collect()
        };
        let before = ask(&db);
        // ann holds two valid-time slices beside the nine others.
        assert_eq!(before[0].len(), 11, "{kind}: mid-history slice");
        assert!(db.compact_all().unwrap() > 0, "{kind}: nothing archived");
        assert_eq!(ask(&db), before, "{kind}: answers moved with the swap");
        drop(db);
        let db = Database::open(&dir, DbConfig::default().store_kind(kind)).unwrap();
        assert_eq!(ask(&db), before, "{kind}: answers moved with the reopen");
        answers.push((kind, before));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    for (kind, got) in &answers[1..] {
        assert_eq!(got, &answers[0].1, "{kind} answers differ from chain");
    }
}

/// Molecules spanning three atom types survive reopen and answer both
/// API-level and TQL-level time travel identically.
#[test]
fn molecules_survive_reopen() {
    let dir = tmpdir("mol-reopen");
    let (mol, root, t_before);
    {
        let db = Database::open(&dir, DbConfig::default()).unwrap();
        let proj = db
            .define_atom_type("proj", vec![AttrDef::new("title", DataType::Text)])
            .unwrap();
        let emp = db
            .define_atom_type(
                "emp",
                vec![
                    AttrDef::new("name", DataType::Text),
                    AttrDef::new("works_on", DataType::RefSet(proj)),
                ],
            )
            .unwrap();
        let dept = db
            .define_atom_type(
                "dept",
                vec![
                    AttrDef::new("name", DataType::Text),
                    AttrDef::new("employs", DataType::RefSet(emp)),
                ],
            )
            .unwrap();
        mol = db
            .define_molecule_type(
                "dm",
                dept,
                vec![
                    MoleculeEdge {
                        from: dept,
                        attr: AttrId(1),
                        to: emp,
                    },
                    MoleculeEdge {
                        from: emp,
                        attr: AttrId(1),
                        to: proj,
                    },
                ],
                None,
            )
            .unwrap();
        let mut txn = db.begin();
        let p = txn
            .insert_atom(proj, Interval::all(), Tuple::new(vec![Value::from("x")]))
            .unwrap();
        let e1 = txn
            .insert_atom(
                emp,
                Interval::all(),
                Tuple::new(vec![Value::from("a"), Value::ref_set([p])]),
            )
            .unwrap();
        let e2 = txn
            .insert_atom(
                emp,
                Interval::all(),
                Tuple::new(vec![Value::from("b"), Value::ref_set([p])]),
            )
            .unwrap();
        root = txn
            .insert_atom(
                dept,
                Interval::all(),
                Tuple::new(vec![Value::from("d"), Value::ref_set([e1, e2])]),
            )
            .unwrap();
        t_before = txn.commit().unwrap();
        let mut txn = db.begin();
        txn.delete(e2, Interval::all()).unwrap();
        txn.commit().unwrap();
    }
    let db = Database::open(&dir, DbConfig::default()).unwrap();
    let now = db
        .materialize_current(mol, root, TimePoint(0))
        .unwrap()
        .unwrap();
    assert_eq!(now.size(), 3); // dept + a + x (b deleted)
    let past = db
        .materialize(mol, root, t_before, TimePoint(0))
        .unwrap()
        .unwrap();
    assert_eq!(past.size(), 5); // dept + 2 emps + x twice (shared child repeated per parent)
    let _ = std::fs::remove_dir_all(&dir);
}

/// The WAL sync policy and checkpoint interval knobs behave sanely
/// together under sustained load.
#[test]
fn sustained_load_with_auto_checkpoints() {
    let dir = tmpdir("sustained");
    let db = Database::open(
        &dir,
        DbConfig::default()
            .store_kind(StoreKind::Split)
            .buffer_frames(64) // tiny pool: forces pressure flushes
            .checkpoint_interval(50)
            .sync_policy(SyncPolicy::OnCheckpoint),
    )
    .unwrap();
    let ty = db
        .define_atom_type("t", vec![AttrDef::new("v", DataType::Int).indexed()])
        .unwrap();
    let mut atoms = Vec::new();
    for chunk in 0..20 {
        let mut txn = db.begin();
        for i in 0..50i64 {
            atoms.push(
                txn.insert_atom(
                    ty,
                    Interval::all(),
                    Tuple::new(vec![Value::Int(chunk * 50 + i)]),
                )
                .unwrap(),
            );
        }
        txn.commit().unwrap();
    }
    // 1000 atoms on a 64-frame pool: loading alone exceeded the pool, so
    // pressure flushes must have happened and everything must read back.
    for (i, a) in atoms.iter().enumerate() {
        let t = db.current_tuple(*a, TimePoint(0)).unwrap().unwrap();
        assert_eq!(t.get(0), &Value::Int(i as i64));
    }
    // Heavy updates with the same tiny pool.
    for round in 0..5i64 {
        let mut txn = db.begin();
        for a in atoms.iter().step_by(7) {
            txn.update(
                *a,
                Interval::all(),
                Tuple::new(vec![Value::Int(round * 1_000_000)]),
            )
            .unwrap();
        }
        txn.commit().unwrap();
    }
    let out = tcom::query::execute(&db, "SELECT v FROM t WHERE v = 4000000").unwrap();
    assert_eq!(out.len(), atoms.iter().step_by(7).count());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Readers on other threads see only committed states while a writer
/// churns, across the whole stack.
#[test]
fn cross_thread_consistency() {
    let dir = tmpdir("threads");
    let db = std::sync::Arc::new(Database::open(&dir, DbConfig::default()).unwrap());
    let ty = db
        .define_atom_type(
            "pair",
            vec![
                AttrDef::new("a", DataType::Int),
                AttrDef::new("b", DataType::Int),
            ],
        )
        .unwrap();
    // Invariant per commit: a == -b.
    let mut txn = db.begin();
    let atom = txn
        .insert_atom(
            ty,
            Interval::all(),
            Tuple::new(vec![Value::Int(0), Value::Int(0)]),
        )
        .unwrap();
    txn.commit().unwrap();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        for _ in 0..2 {
            let db = db.clone();
            let stop = stop.clone();
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    // One consistent read through the engine API…
                    let t = db.current_tuple(atom, TimePoint(0)).unwrap().unwrap();
                    let (Value::Int(a), Value::Int(b)) = (t.get(0), t.get(1)) else {
                        panic!()
                    };
                    assert_eq!(*a, -*b, "torn read");
                    // …and one through TQL: the returned row itself must be
                    // internally consistent (commits may land in between).
                    let out = tcom::query::execute(&db, "SELECT a, b FROM pair").unwrap();
                    let QueryOutput::Rows { rows, .. } = out else {
                        panic!()
                    };
                    assert_eq!(rows.len(), 1);
                    let (Value::Int(a), Value::Int(b)) = (&rows[0].values[0], &rows[0].values[1])
                    else {
                        panic!()
                    };
                    assert_eq!(*a, -*b, "torn TQL read");
                }
            });
        }
        for i in 1..=100i64 {
            let mut txn = db.begin();
            txn.update(
                atom,
                Interval::all(),
                Tuple::new(vec![Value::Int(i), Value::Int(-i)]),
            )
            .unwrap();
            txn.commit().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(db.history(atom).unwrap().len(), 101);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Valid-time windows, TQL clipping and the temporal algebra agree.
#[test]
fn valid_time_semantics_across_layers() {
    let dir = tmpdir("vt-layers");
    let db = Database::open(&dir, DbConfig::default()).unwrap();
    let ty = db
        .define_atom_type(
            "contract",
            vec![
                AttrDef::new("who", DataType::Text),
                AttrDef::new("rate", DataType::Int),
            ],
        )
        .unwrap();
    let mut txn = db.begin();
    let c = txn
        .insert_atom(
            ty,
            iv(0, 100),
            Tuple::new(vec![Value::from("x"), Value::Int(10)]),
        )
        .unwrap();
    txn.commit().unwrap();
    // Rate change for [40, 60).
    let mut txn = db.begin();
    txn.update(
        c,
        iv(40, 60),
        Tuple::new(vec![Value::from("x"), Value::Int(20)]),
    )
    .unwrap();
    txn.commit().unwrap();

    // Engine view: 3 current slices.
    let cur = db.current_versions(c).unwrap();
    assert_eq!(cur.len(), 3);
    assert_eq!(cur[1].vt, iv(40, 60));

    // TQL window clips.
    let out = execute(&db, "SELECT rate FROM contract VALID IN [50, 80)").unwrap();
    let QueryOutput::Rows { rows, .. } = out else {
        panic!()
    };
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].vt, iv(50, 60));
    assert_eq!(rows[1].vt, iv(60, 80));

    // Algebra: build a temporal relation from the versions and slice it.
    use tcom::core::algebra::{timeslice, TemporalRow};
    let rel: Vec<TemporalRow> = cur
        .iter()
        .map(|v| TemporalRow {
            tuple: v.tuple.clone(),
            time: TemporalElement::from_interval(v.vt),
        })
        .collect();
    let snap = timeslice(&rel, TimePoint(45));
    assert_eq!(snap.len(), 1);
    assert_eq!(snap[0].get(1), &Value::Int(20));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A past-time point lookup on an indexed attribute goes through the value
/// index at the statement's transaction time: over 2 000 atoms with churn,
/// `EXPLAIN ANALYZE` shows the probe examining at most two candidates, and
/// the answer equals the directory scan's.
#[test]
fn asof_point_lookup_probes_the_value_index() {
    const ATOMS: i64 = 2000;
    let dir = tmpdir("asof-probe");
    let db = Database::open(
        &dir,
        DbConfig::default()
            .store_kind(StoreKind::Split)
            .sync_policy(SyncPolicy::OnCheckpoint),
    )
    .unwrap();
    let ty = db
        .define_atom_type(
            "emp",
            vec![
                AttrDef::new("name", DataType::Text).not_null(),
                AttrDef::new("badge", DataType::Int).indexed(),
                AttrDef::new("salary", DataType::Int),
            ],
        )
        .unwrap();
    let emp = |k: i64, salary: i64| {
        Tuple::new(vec![
            Value::from(format!("e{k}")),
            Value::Int(k),
            Value::Int(salary),
        ])
    };
    let mut txn = db.begin();
    let atoms: Vec<AtomId> = (0..ATOMS)
        .map(|k| txn.insert_atom(ty, Interval::all(), emp(k, 100)).unwrap())
        .collect();
    txn.commit().unwrap();
    // Churn: every round raises a third of the staff, one commit per round.
    for round in 1..=4i64 {
        let mut txn = db.begin();
        for (k, &atom) in atoms.iter().enumerate().skip(round as usize % 3).step_by(3) {
            txn.update(atom, Interval::all(), emp(k as i64, 100 + round))
                .unwrap();
        }
        txn.commit().unwrap();
    }
    for (badge, tt) in [(1234, 3), (1001, 2), (7, 5)] {
        let sql = format!("SELECT name, salary FROM emp WHERE badge = {badge} ASOF TT {tt}");
        let (out, report) =
            tcom::query::explain_analyze(&db, &format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let probe = report
            .ops
            .iter()
            .find(|op| op.name == "IndexProbe")
            .unwrap_or_else(|| panic!("no index probe:\n{}", report.render()));
        assert!(
            probe.detail.contains(&format!("tt={tt}")) && probe.rows <= 2,
            "the probe must run at tt={tt} over at most 2 candidates:\n{}",
            report.render()
        );
        let scan = execute_with(
            &db,
            &sql,
            ExecOptions {
                force_scan: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out, scan, "{sql}");
        assert_eq!(out.len(), 1, "{sql}");
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
