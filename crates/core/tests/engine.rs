//! End-to-end engine tests: DDL, bitemporal DML, time travel, indexes,
//! molecules, persistence and crash recovery — run against every storage
//! format.

use tcom_core::{
    AtomId, AttrDef, DataType, Database, DbConfig, Interval, MoleculeEdge, StoreKind, TimePoint,
    Tuple, Value,
};
use tcom_kernel::time::{iv, iv_from};
use tcom_kernel::AttrId;
use tcom_query::execute;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-eng-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn all_kinds() -> [StoreKind; 3] {
    [StoreKind::Chain, StoreKind::Delta, StoreKind::Split]
}

fn cfg(kind: StoreKind) -> DbConfig {
    DbConfig::default()
        .store_kind(kind)
        .buffer_frames(256)
        .checkpoint_interval(0)
}

/// Standard schema: emp(name TEXT NOT NULL, salary INT indexed).
fn setup_emp(db: &Database) -> tcom_core::AtomTypeId {
    db.define_atom_type(
        "emp",
        vec![
            AttrDef::new("name", DataType::Text).not_null(),
            AttrDef::new("salary", DataType::Int).indexed(),
        ],
    )
    .unwrap()
}

fn emp(name: &str, salary: i64) -> Tuple {
    Tuple::new(vec![Value::from(name), Value::Int(salary)])
}

#[test]
fn insert_read_current() {
    for kind in all_kinds() {
        let dir = tmpdir(&format!("irc-{kind}"));
        let db = Database::open(&dir, cfg(kind)).unwrap();
        let ty = setup_emp(&db);

        let mut txn = db.begin();
        let ann = txn.insert_atom(ty, iv_from(0), emp("ann", 100)).unwrap();
        let bob = txn.insert_atom(ty, iv_from(5), emp("bob", 120)).unwrap();
        let tt = txn.commit().unwrap();
        assert_eq!(tt, TimePoint(1));

        assert_eq!(
            db.current_tuple(ann, TimePoint(10)).unwrap(),
            Some(emp("ann", 100))
        );
        assert_eq!(db.current_tuple(bob, TimePoint(3)).unwrap(), None); // before bob's vt
        assert_eq!(
            db.current_tuple(bob, TimePoint(5)).unwrap(),
            Some(emp("bob", 120))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn update_creates_history_and_timeslices_work() {
    for kind in all_kinds() {
        let dir = tmpdir(&format!("hist-{kind}"));
        let db = Database::open(&dir, cfg(kind)).unwrap();
        let ty = setup_emp(&db);

        let mut txn = db.begin();
        let ann = txn.insert_atom(ty, iv_from(0), emp("ann", 100)).unwrap();
        txn.commit().unwrap(); // tt=1

        for (i, salary) in [110i64, 120, 130].iter().enumerate() {
            let mut txn = db.begin();
            txn.update(ann, iv_from(0), emp("ann", *salary)).unwrap();
            assert_eq!(txn.commit().unwrap(), TimePoint(2 + i as u64));
        }

        // Current
        assert_eq!(
            db.current_tuple(ann, TimePoint(0)).unwrap(),
            Some(emp("ann", 130))
        );
        // Transaction-time travel
        assert_eq!(
            db.version_at(ann, TimePoint(1), TimePoint(0))
                .unwrap()
                .unwrap()
                .tuple,
            emp("ann", 100)
        );
        assert_eq!(
            db.version_at(ann, TimePoint(3), TimePoint(0))
                .unwrap()
                .unwrap()
                .tuple,
            emp("ann", 120)
        );
        assert!(db
            .version_at(ann, TimePoint(0), TimePoint(0))
            .unwrap()
            .is_none());
        assert_eq!(db.history(ann).unwrap().len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn valid_time_update_splits() {
    let dir = tmpdir("vtsplit");
    let db = Database::open(&dir, cfg(StoreKind::Split)).unwrap();
    let ty = setup_emp(&db);

    let mut txn = db.begin();
    // Ann's salary is 100 for all time.
    let ann = txn
        .insert_atom(ty, Interval::all(), emp("ann", 100))
        .unwrap();
    txn.commit().unwrap();

    // Raise to 200 for [10, 20) only.
    let mut txn = db.begin();
    txn.update(ann, iv(10, 20), emp("ann", 200)).unwrap();
    txn.commit().unwrap();

    let cur = db.current_versions(ann).unwrap();
    assert_eq!(cur.len(), 3);
    assert_eq!(cur[0].vt, iv(0, 10));
    assert_eq!(cur[0].tuple, emp("ann", 100));
    assert_eq!(cur[1].vt, iv(10, 20));
    assert_eq!(cur[1].tuple, emp("ann", 200));
    assert_eq!(cur[2].vt, iv_from(20));
    assert_eq!(cur[2].tuple, emp("ann", 100));

    // Setting [10,20) back to 100 re-coalesces to one version.
    let mut txn = db.begin();
    txn.update(ann, iv(10, 20), emp("ann", 100)).unwrap();
    txn.commit().unwrap();
    let cur = db.current_versions(ann).unwrap();
    assert_eq!(cur.len(), 1);
    assert_eq!(cur[0].vt, Interval::all());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn logical_delete_keeps_history() {
    for kind in all_kinds() {
        let dir = tmpdir(&format!("del-{kind}"));
        let db = Database::open(&dir, cfg(kind)).unwrap();
        let ty = setup_emp(&db);

        let mut txn = db.begin();
        let ann = txn.insert_atom(ty, iv_from(0), emp("ann", 100)).unwrap();
        txn.commit().unwrap(); // tt=1
        let mut txn = db.begin();
        txn.delete(ann, iv_from(0)).unwrap();
        txn.commit().unwrap(); // tt=2

        assert_eq!(db.current_tuple(ann, TimePoint(5)).unwrap(), None);
        assert!(db.atom_exists(ann).unwrap());
        // Still visible in the past.
        assert_eq!(
            db.version_at(ann, TimePoint(1), TimePoint(5))
                .unwrap()
                .unwrap()
                .tuple,
            emp("ann", 100)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn multi_op_transaction_is_atomic_in_tt() {
    let dir = tmpdir("atomic");
    let db = Database::open(&dir, cfg(StoreKind::Chain)).unwrap();
    let ty = setup_emp(&db);

    let mut txn = db.begin();
    let a = txn.insert_atom(ty, iv_from(0), emp("a", 1)).unwrap();
    let b = txn.insert_atom(ty, iv_from(0), emp("b", 2)).unwrap();
    txn.update(a, iv_from(0), emp("a", 10)).unwrap();
    let tt = txn.commit().unwrap();

    // Netting: a's first version never hit the store.
    assert_eq!(db.history(a).unwrap().len(), 1);
    assert_eq!(
        db.current_tuple(a, TimePoint(0)).unwrap(),
        Some(emp("a", 10))
    );
    assert_eq!(
        db.current_tuple(b, TimePoint(0)).unwrap(),
        Some(emp("b", 2))
    );
    // Both share the same transaction time.
    assert_eq!(db.history(a).unwrap()[0].tt.start(), tt);
    assert_eq!(db.history(b).unwrap()[0].tt.start(), tt);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn abort_leaves_no_trace() {
    let dir = tmpdir("abort");
    let db = Database::open(&dir, cfg(StoreKind::Split)).unwrap();
    let ty = setup_emp(&db);

    let mut txn = db.begin();
    let ann = txn.insert_atom(ty, iv_from(0), emp("ann", 100)).unwrap();
    txn.commit().unwrap();

    let clock_before = db.now();
    let mut txn = db.begin();
    txn.update(ann, iv_from(0), emp("ann", 999)).unwrap();
    let ghost = txn.insert_atom(ty, iv_from(0), emp("ghost", 0)).unwrap();
    txn.abort();

    assert_eq!(db.now(), clock_before);
    assert_eq!(
        db.current_tuple(ann, TimePoint(0)).unwrap(),
        Some(emp("ann", 100))
    );
    assert!(!db.atom_exists(ghost).unwrap());
    assert_eq!(db.history(ann).unwrap().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_your_writes_inside_txn() {
    let dir = tmpdir("ryw");
    let db = Database::open(&dir, cfg(StoreKind::Delta)).unwrap();
    let ty = setup_emp(&db);

    let mut txn = db.begin();
    let ann = txn.insert_atom(ty, iv_from(0), emp("ann", 100)).unwrap();
    assert_eq!(
        txn.current_tuple(ann, TimePoint(3)).unwrap(),
        Some(emp("ann", 100))
    );
    txn.update(ann, iv_from(0), emp("ann", 150)).unwrap();
    assert_eq!(
        txn.current_tuple(ann, TimePoint(3)).unwrap(),
        Some(emp("ann", 150))
    );
    // Committed state does not see it yet.
    assert!(!db.atom_exists(ann).unwrap());
    txn.commit().unwrap();
    assert_eq!(
        db.current_tuple(ann, TimePoint(3)).unwrap(),
        Some(emp("ann", 150))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn type_and_constraint_violations_rejected() {
    let dir = tmpdir("types");
    let db = Database::open(&dir, cfg(StoreKind::Chain)).unwrap();
    let ty = setup_emp(&db);

    let mut txn = db.begin();
    // Wrong arity
    assert!(txn
        .insert_atom(ty, iv_from(0), Tuple::new(vec![Value::Int(1)]))
        .is_err());
    // NOT NULL violation
    assert!(txn
        .insert_atom(ty, iv_from(0), Tuple::new(vec![Value::Null, Value::Int(1)]))
        .is_err());
    // Wrong type
    assert!(txn
        .insert_atom(
            ty,
            iv_from(0),
            Tuple::new(vec![Value::Int(1), Value::Int(2)])
        )
        .is_err());
    // Dangling reference in a ref-typed schema
    drop(txn);
    let dept = db
        .define_atom_type("dept", vec![AttrDef::new("head", DataType::Ref(ty))])
        .unwrap();
    let mut txn = db.begin();
    let missing = AtomId::new(ty, tcom_kernel::AtomNo(999));
    assert!(txn
        .insert_atom(dept, iv_from(0), Tuple::new(vec![Value::Ref(missing)]))
        .is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overlapping_insert_rejected_and_update_of_missing() {
    let dir = tmpdir("overlap");
    let db = Database::open(&dir, cfg(StoreKind::Split)).unwrap();
    let ty = setup_emp(&db);
    let mut txn = db.begin();
    let ann = txn.insert_atom(ty, iv(0, 100), emp("ann", 1)).unwrap();
    assert!(txn.insert_version(ann, iv(50, 150), emp("ann", 2)).is_err());
    assert!(txn.insert_version(ann, iv(100, 150), emp("ann", 2)).is_ok());
    let ghost = AtomId::new(ty, tcom_kernel::AtomNo(12345));
    assert!(txn.update(ghost, iv_from(0), emp("x", 1)).is_err());
    assert!(txn.delete(ghost, iv_from(0)).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn value_index_tracks_current_state() {
    for kind in all_kinds() {
        let dir = tmpdir(&format!("idx-{kind}"));
        let db = Database::open(&dir, cfg(kind)).unwrap();
        let ty = setup_emp(&db);
        let salary_attr = AttrId(1);

        let mut txn = db.begin();
        let mut atoms = Vec::new();
        for i in 0..20i64 {
            atoms.push(
                txn.insert_atom(ty, iv_from(0), emp(&format!("e{i}"), i * 10))
                    .unwrap(),
            );
        }
        txn.commit().unwrap();

        use tcom_storage::keys::encode_int;
        // salary in [50, 100)
        let hits = db
            .index_range(ty, salary_attr, encode_int(50), encode_int(100))
            .unwrap();
        assert_eq!(hits.len(), 5); // 50,60,70,80,90

        // Update one employee out of the range, delete another.
        let mut txn = db.begin();
        txn.update(atoms[5], iv_from(0), emp("e5", 500)).unwrap(); // 50 -> 500
        txn.delete(atoms[6], iv_from(0)).unwrap(); // 60 gone
        txn.commit().unwrap();

        let hits = db
            .index_range(ty, salary_attr, encode_int(50), encode_int(100))
            .unwrap();
        assert_eq!(hits.len(), 3); // 70,80,90
        let hits = db
            .index_range(ty, salary_attr, encode_int(500), encode_int(501))
            .unwrap();
        assert_eq!(hits, vec![atoms[5]]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn scans_current_and_past() {
    let dir = tmpdir("scans");
    let db = Database::open(&dir, cfg(StoreKind::Split)).unwrap();
    let ty = setup_emp(&db);

    let mut txn = db.begin();
    for i in 0..10i64 {
        txn.insert_atom(ty, iv_from(0), emp(&format!("e{i}"), i))
            .unwrap();
    }
    txn.commit().unwrap(); // tt=1

    // Delete half at tt=2.
    let atoms = db.all_atoms(ty).unwrap();
    let mut txn = db.begin();
    for a in atoms.iter().take(5) {
        txn.delete(*a, iv_from(0)).unwrap();
    }
    txn.commit().unwrap();

    let n = execute(&db, "SELECT * FROM emp VALID AT 0").unwrap().len();
    assert_eq!(n, 5);

    let n = execute(&db, "SELECT * FROM emp ASOF TT 1 VALID AT 0")
        .unwrap()
        .len();
    assert_eq!(n, 10);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn molecule_materialization_and_time_travel() {
    let dir = tmpdir("mol");
    let db = Database::open(&dir, cfg(StoreKind::Split)).unwrap();
    // proj(title), emp(name, works_on REFSET proj), dept(name, employs REFSET emp)
    let proj = db
        .define_atom_type("proj", vec![AttrDef::new("title", DataType::Text)])
        .unwrap();
    let empty = db
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
                AttrDef::new("employs", DataType::RefSet(empty)),
            ],
        )
        .unwrap();
    let mol = db
        .define_molecule_type(
            "dept_mol",
            dept,
            vec![
                MoleculeEdge {
                    from: dept,
                    attr: AttrId(1),
                    to: empty,
                },
                MoleculeEdge {
                    from: empty,
                    attr: AttrId(1),
                    to: proj,
                },
            ],
            None,
        )
        .unwrap();

    let mut txn = db.begin();
    let p1 = txn
        .insert_atom(proj, iv_from(0), Tuple::new(vec![Value::from("apollo")]))
        .unwrap();
    let p2 = txn
        .insert_atom(proj, iv_from(0), Tuple::new(vec![Value::from("gemini")]))
        .unwrap();
    let e1 = txn
        .insert_atom(
            empty,
            iv_from(0),
            Tuple::new(vec![Value::from("ann"), Value::ref_set([p1, p2])]),
        )
        .unwrap();
    let e2 = txn
        .insert_atom(
            empty,
            iv_from(0),
            Tuple::new(vec![Value::from("bob"), Value::ref_set([p1])]),
        )
        .unwrap();
    let d = txn
        .insert_atom(
            dept,
            iv_from(0),
            Tuple::new(vec![Value::from("research"), Value::ref_set([e1, e2])]),
        )
        .unwrap();
    txn.commit().unwrap(); // tt=1

    let m = db
        .materialize_current(mol, d, TimePoint(0))
        .unwrap()
        .unwrap();
    assert_eq!(m.size(), 6); // dept + 2 emp + (2 + 1) proj (p1 appears twice)
    assert_eq!(m.root.id, d);
    assert_eq!(m.root.children.len(), 1);
    let emps = &m.root.children[0].1;
    assert_eq!(emps.len(), 2);

    // Bob leaves at tt=2 (delete his atom).
    let mut txn = db.begin();
    txn.delete(e2, iv_from(0)).unwrap();
    txn.commit().unwrap();

    let now_m = db
        .materialize_current(mol, d, TimePoint(0))
        .unwrap()
        .unwrap();
    assert_eq!(now_m.size(), 4, "bob and his project edge vanish");
    // But the molecule as of tt=1 still contains bob.
    let past_m = db
        .materialize(mol, d, TimePoint(1), TimePoint(0))
        .unwrap()
        .unwrap();
    assert_eq!(past_m.size(), 6);

    // Molecule history sees both states.
    let hist = db
        .molecule_history(mol, d, TimePoint(0), TimePoint(0), TimePoint(100))
        .unwrap();
    assert_eq!(hist.len(), 2);
    assert_eq!(hist[0].1.size(), 6);
    assert_eq!(hist[1].1.size(), 4);
    // A window opening after the last change still starts with the state
    // in force at its start.
    for from in [2, 3] {
        let hist = db
            .molecule_history(mol, d, TimePoint(0), TimePoint(from), TimePoint(100))
            .unwrap();
        assert_eq!(hist.len(), 1, "window [{from}, 100)");
        assert_eq!(hist[0].1.size(), 4, "window [{from}, 100)");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recursive_molecule_bom() {
    let dir = tmpdir("bom");
    let db = Database::open(&dir, cfg(StoreKind::Chain)).unwrap();
    // part(name, components REFSET part) — self-referential type 0.
    let part = db
        .define_atom_type(
            "part",
            vec![
                AttrDef::new("name", DataType::Text),
                AttrDef::new("components", DataType::RefSet(tcom_core::AtomTypeId(0))),
            ],
        )
        .unwrap();
    let mol = db
        .define_molecule_type(
            "bom",
            part,
            vec![MoleculeEdge {
                from: part,
                attr: AttrId(1),
                to: part,
            }],
            Some(10),
        )
        .unwrap();

    let mut txn = db.begin();
    let wheel = txn
        .insert_atom(
            part,
            iv_from(0),
            Tuple::new(vec![Value::from("wheel"), Value::ref_set([])]),
        )
        .unwrap();
    let axle = txn
        .insert_atom(
            part,
            iv_from(0),
            Tuple::new(vec![Value::from("axle"), Value::ref_set([])]),
        )
        .unwrap();
    let chassis = txn
        .insert_atom(
            part,
            iv_from(0),
            Tuple::new(vec![Value::from("chassis"), Value::ref_set([wheel, axle])]),
        )
        .unwrap();
    let car = txn
        .insert_atom(
            part,
            iv_from(0),
            Tuple::new(vec![Value::from("car"), Value::ref_set([chassis, wheel])]),
        )
        .unwrap();
    txn.commit().unwrap();

    let m = db
        .materialize_current(mol, car, TimePoint(0))
        .unwrap()
        .unwrap();
    // car -> chassis -> {wheel, axle}, car -> wheel  => 5 nodes (wheel twice)
    assert_eq!(m.size(), 5);
    assert_eq!(m.root.depth(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistence_across_clean_reopen() {
    for kind in all_kinds() {
        let dir = tmpdir(&format!("persist-{kind}"));
        let ann;
        {
            let db = Database::open(&dir, cfg(kind)).unwrap();
            let ty = setup_emp(&db);
            let mut txn = db.begin();
            ann = txn.insert_atom(ty, iv_from(0), emp("ann", 100)).unwrap();
            txn.commit().unwrap();
            let mut txn = db.begin();
            txn.update(ann, iv_from(0), emp("ann", 200)).unwrap();
            txn.commit().unwrap();
            // drop -> clean shutdown checkpoint
        }
        {
            let db = Database::open(&dir, cfg(kind)).unwrap();
            assert_eq!(db.now(), TimePoint(2));
            assert_eq!(
                db.current_tuple(ann, TimePoint(0)).unwrap(),
                Some(emp("ann", 200))
            );
            assert_eq!(db.history(ann).unwrap().len(), 2);
            // Index survived.
            use tcom_storage::keys::encode_int;
            let ty = db.atom_type_id("emp").unwrap();
            let hits = db
                .index_range(ty, AttrId(1), encode_int(200), encode_int(201))
                .unwrap();
            assert_eq!(hits, vec![ann]);
            // New transactions continue with fresh atom numbers and clock.
            let mut txn = db.begin();
            let bob = txn.insert_atom(ty, iv_from(0), emp("bob", 300)).unwrap();
            assert_eq!(txn.commit().unwrap(), TimePoint(3));
            assert_ne!(bob.no, ann.no);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_recovery_replays_committed_work() {
    for kind in all_kinds() {
        let dir = tmpdir(&format!("crash-{kind}"));
        let (ann, bob);
        {
            let db = Database::open(&dir, cfg(kind)).unwrap();
            let ty = setup_emp(&db);
            let mut txn = db.begin();
            ann = txn.insert_atom(ty, iv_from(0), emp("ann", 100)).unwrap();
            txn.commit().unwrap();
            db.checkpoint().unwrap();

            // Post-checkpoint committed work that only lives in the WAL.
            let mut txn = db.begin();
            txn.update(ann, iv_from(0), emp("ann", 150)).unwrap();
            txn.commit().unwrap();
            let mut txn = db.begin();
            bob = txn.insert_atom(ty, iv_from(0), emp("bob", 300)).unwrap();
            txn.commit().unwrap();

            db.crash(); // no shutdown checkpoint
        }
        {
            let db = Database::open(&dir, cfg(kind)).unwrap();
            assert_eq!(db.now(), TimePoint(3));
            assert_eq!(
                db.current_tuple(ann, TimePoint(0)).unwrap(),
                Some(emp("ann", 150))
            );
            assert_eq!(
                db.current_tuple(bob, TimePoint(0)).unwrap(),
                Some(emp("bob", 300))
            );
            assert_eq!(db.history(ann).unwrap().len(), 2);
            // Time travel across the crash boundary still works.
            assert_eq!(
                db.version_at(ann, TimePoint(1), TimePoint(0))
                    .unwrap()
                    .unwrap()
                    .tuple,
                emp("ann", 100)
            );
            // Indexes were rebuilt.
            use tcom_storage::keys::encode_int;
            let ty = db.atom_type_id("emp").unwrap();
            let hits = db
                .index_range(ty, AttrId(1), encode_int(150), encode_int(151))
                .unwrap();
            assert_eq!(hits, vec![ann]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_discards_uncommitted_tail() {
    let dir = tmpdir("crash-tail");
    let ann;
    {
        let db = Database::open(&dir, cfg(StoreKind::Split)).unwrap();
        let ty = setup_emp(&db);
        let mut txn = db.begin();
        ann = txn.insert_atom(ty, iv_from(0), emp("ann", 100)).unwrap();
        txn.commit().unwrap();
        // An uncommitted transaction in flight at crash time.
        let mut txn = db.begin();
        txn.update(ann, iv_from(0), emp("ann", 999)).unwrap();
        // never committed
        drop(txn);
        db.crash();
    }
    {
        let db = Database::open(&dir, cfg(StoreKind::Split)).unwrap();
        assert_eq!(
            db.current_tuple(ann, TimePoint(0)).unwrap(),
            Some(emp("ann", 100))
        );
        assert_eq!(db.history(ann).unwrap().len(), 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_crashes_converge() {
    let dir = tmpdir("crash-loop");
    let db = Database::open(&dir, cfg(StoreKind::Delta)).unwrap();
    let ty = setup_emp(&db);
    let mut txn = db.begin();
    let ann = txn.insert_atom(ty, iv_from(0), emp("ann", 0)).unwrap();
    txn.commit().unwrap();
    db.crash();

    for round in 1..=5i64 {
        let db = Database::open(&dir, cfg(StoreKind::Delta)).unwrap();
        let mut txn = db.begin();
        txn.update(ann, iv_from(0), emp("ann", round * 10)).unwrap();
        txn.commit().unwrap();
        db.crash();
    }
    let db = Database::open(&dir, cfg(StoreKind::Delta)).unwrap();
    assert_eq!(
        db.current_tuple(ann, TimePoint(0)).unwrap(),
        Some(emp("ann", 50))
    );
    assert_eq!(db.history(ann).unwrap().len(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_kind_is_sticky() {
    let dir = tmpdir("sticky");
    {
        let db = Database::open(&dir, cfg(StoreKind::Chain)).unwrap();
        setup_emp(&db);
    }
    // Requesting a different kind silently keeps the on-disk layout.
    let db = Database::open(&dir, cfg(StoreKind::Split)).unwrap();
    assert_eq!(db.config().store_kind, StoreKind::Chain);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A type whose store files are a mix of written and empty ones is
/// reported as damage, naming the type and the file — for whichever
/// companion is lost, on every layout.
#[test]
fn truncated_store_file_is_reported_as_corruption() {
    for kind in all_kinds() {
        for (i, lost) in kind.file_suffixes().iter().enumerate() {
            let dir = tmpdir(&format!("mixed-{kind}-{i}"));
            {
                let db = Database::open(&dir, cfg(kind)).unwrap();
                let ty = setup_emp(&db);
                let mut txn = db.begin();
                txn.insert_atom(ty, iv_from(0), emp("ann", 100)).unwrap();
                txn.commit().unwrap();
            }
            let name = format!("t0_{lost}.tcm");
            std::fs::File::create(dir.join(&name)).unwrap(); // truncates
            let Err(err) = Database::open(&dir, cfg(kind)) else {
                panic!("{kind}: reopened over a truncated {name}");
            };
            let text = err.to_string();
            assert!(
                matches!(err, tcom_kernel::Error::Corruption(_)),
                "{kind}/{name}: {text}"
            );
            assert!(text.contains("atom type #0"), "{kind}/{name}: {text}");
            assert!(text.contains(&name), "{kind}/{name}: {text}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// DDL flushes a new type's files with the catalog that names it, so a
/// cataloged type whose files are all empty is damage too, not a crash
/// window to paper over.
#[test]
fn cataloged_type_with_only_empty_files_is_reported_as_corruption() {
    for kind in all_kinds() {
        let dir = tmpdir(&format!("unflushed-{kind}"));
        {
            let db = Database::open(&dir, cfg(kind)).unwrap();
            setup_emp(&db);
        }
        for suffix in kind.file_suffixes() {
            std::fs::File::create(dir.join(format!("t0_{suffix}.tcm"))).unwrap();
        }
        std::fs::File::create(dir.join("t0_idx1.tcm")).unwrap();
        let Err(err) = Database::open(&dir, cfg(kind)) else {
            panic!("{kind}: opened a cataloged type over empty files");
        };
        let text = err.to_string();
        assert!(
            matches!(err, tcom_kernel::Error::Corruption(_)),
            "{kind}: {text}"
        );
        assert!(text.contains("atom type #0"), "{kind}: {text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn concurrent_readers_during_writes() {
    let dir = tmpdir("concur");
    let db = std::sync::Arc::new(Database::open(&dir, cfg(StoreKind::Split)).unwrap());
    let ty = setup_emp(&db);
    let mut txn = db.begin();
    let ann = txn.insert_atom(ty, iv_from(0), emp("ann", 0)).unwrap();
    txn.commit().unwrap();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        for _ in 0..3 {
            let db = db.clone();
            let stop = stop.clone();
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    // Readers must always observe a consistent committed value:
                    // name "ann" with a salary that is a multiple of 10.
                    let t = db.current_tuple(ann, TimePoint(0)).unwrap().unwrap();
                    let Value::Int(s) = t.get(1) else {
                        panic!("int")
                    };
                    assert_eq!(s % 10, 0);
                }
            });
        }
        for round in 1..=50i64 {
            let mut txn = db.begin();
            txn.update(ann, iv_from(0), emp("ann", round * 10)).unwrap();
            txn.commit().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(
        db.current_tuple(ann, TimePoint(0)).unwrap(),
        Some(emp("ann", 500))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auto_checkpoint_truncates_wal() {
    let dir = tmpdir("autockpt");
    let db = Database::open(&dir, cfg(StoreKind::Chain).checkpoint_interval(10)).unwrap();
    let ty = setup_emp(&db);
    let mut txn = db.begin();
    let ann = txn.insert_atom(ty, iv_from(0), emp("ann", 0)).unwrap();
    txn.commit().unwrap();
    let mut grew_then_shrank = false;
    let mut prev = db.wal_len();
    for i in 0..25i64 {
        let mut txn = db.begin();
        txn.update(ann, iv_from(0), emp("ann", i)).unwrap();
        txn.commit().unwrap();
        let now = db.wal_len();
        if now < prev {
            grew_then_shrank = true;
        }
        prev = now;
    }
    assert!(
        grew_then_shrank,
        "auto checkpoint should have truncated the log"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn prune_history_reclaims_space_and_preserves_recent_slices() {
    for kind in all_kinds() {
        let dir = tmpdir(&format!("prune-{kind}"));
        let db = Database::open(&dir, cfg(kind)).unwrap();
        let ty = setup_emp(&db);

        let mut txn = db.begin();
        let ann = txn.insert_atom(ty, iv_from(0), emp("ann", 0)).unwrap();
        txn.commit().unwrap(); // tt=1
        for i in 1..=10i64 {
            let mut txn = db.begin();
            txn.update(ann, iv_from(0), emp("ann", i * 10)).unwrap();
            txn.commit().unwrap(); // tt=1+i
        }
        assert_eq!(db.history(ann).unwrap().len(), 11);

        // Prune everything closed before tt=6.
        let removed = db.prune_history(TimePoint(6)).unwrap();
        assert_eq!(removed, 5, "{kind}: versions closed at tt<=6");
        assert_eq!(db.history(ann).unwrap().len(), 6);

        // Slices at tt >= 6 are unaffected.
        for t in 6..=11u64 {
            let v = db
                .version_at(ann, TimePoint(t), TimePoint(0))
                .unwrap()
                .unwrap();
            assert_eq!(v.tuple, emp("ann", (t as i64 - 1) * 10), "{kind} tt={t}");
        }
        // Current state intact.
        assert_eq!(
            db.current_tuple(ann, TimePoint(0)).unwrap(),
            Some(emp("ann", 100))
        );

        // Crash + recover: pruned versions must not resurrect.
        db.crash();
        let db = Database::open(&dir, cfg(kind)).unwrap();
        assert_eq!(
            db.history(ann).unwrap().len(),
            6,
            "{kind}: resurrection after crash"
        );
        assert_eq!(
            db.current_tuple(ann, TimePoint(0)).unwrap(),
            Some(emp("ann", 100))
        );

        // Pruning again with a later cutoff removes more; fully-deleted
        // atoms can lose their entire history.
        let mut txn = db.begin();
        txn.delete(ann, iv_from(0)).unwrap();
        txn.commit().unwrap(); // tt=12
        let removed = db.prune_history(TimePoint(100)).unwrap();
        assert_eq!(removed, 6, "{kind}: everything closed is prunable");
        assert!(db.history(ann).unwrap().is_empty());
        assert_eq!(db.current_tuple(ann, TimePoint(0)).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn prune_keeps_multi_slice_current_state() {
    let dir = tmpdir("prune-multi");
    let db = Database::open(&dir, cfg(StoreKind::Delta)).unwrap();
    let ty = setup_emp(&db);
    let mut txn = db.begin();
    let ann = txn
        .insert_atom(ty, Interval::all(), emp("ann", 100))
        .unwrap();
    txn.commit().unwrap();
    // Create vt structure + history.
    let mut txn = db.begin();
    txn.update(ann, iv(10, 20), emp("ann", 200)).unwrap();
    txn.commit().unwrap();
    let mut txn = db.begin();
    txn.update(ann, iv(10, 20), emp("ann", 300)).unwrap();
    txn.commit().unwrap();
    let before = db.current_versions(ann).unwrap();
    assert_eq!(before.len(), 3);
    let removed = db.prune_history(TimePoint(1000)).unwrap();
    assert!(removed > 0);
    // Current state byte-identical after pruning.
    assert_eq!(db.current_versions(ann).unwrap(), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pruning leaves the transaction-time index dense: a cold slice at
/// `tt = cutoff` after a prune that removed most closed versions reads a
/// fraction of the pages it read before the prune — lazy deletes alone
/// would leave every emptied leaf on the scan chain — and a recovery that
/// redoes a later commit over the pruned files keeps it that way. Counted
/// behind a 16-frame pool, as in `cost_golden`.
#[test]
fn prune_repacks_the_time_index() {
    const ATOMS: i64 = 200;
    const ROUNDS: i64 = 24;
    for kind in all_kinds() {
        let dir = tmpdir(&format!("prune-dense-{kind}"));
        let db = Database::open(&dir, cfg(kind)).unwrap();
        let ty = setup_emp(&db);
        let side = db
            .define_atom_type("side", vec![AttrDef::new("v", DataType::Int)])
            .unwrap();
        let mut txn = db.begin();
        let atoms: Vec<AtomId> = (0..ATOMS)
            .map(|i| txn.insert_atom(ty, iv_from(0), emp("e", i)).unwrap())
            .collect();
        txn.commit().unwrap(); // tt=1
        for round in 1..=ROUNDS {
            let mut txn = db.begin();
            for a in &atoms {
                txn.update(*a, iv_from(0), emp("e", round)).unwrap();
            }
            txn.commit().unwrap(); // tt=1+round
        }
        let cutoff = TimePoint(ROUNDS as u64);
        let cold_slice = |db: &Database| {
            let misses = db.buffer_stats().misses;
            let mut rows = Vec::new();
            db.slice_at(ty, cutoff, &mut |no, vs| {
                rows.push((no, vs));
                Ok(true)
            })
            .unwrap();
            (db.buffer_stats().misses - misses, rows)
        };
        let small = cfg(kind).buffer_frames(16);
        let write_side = |db: &Database| {
            let mut txn = db.begin();
            txn.insert_atom(side, iv_from(0), Tuple::new(vec![Value::Int(1)]))
                .unwrap();
            txn.commit().unwrap();
        };

        // Before the prune.
        drop(db);
        let db = Database::open(&dir, small).unwrap();
        let unpruned = cold_slice(&db);
        drop(db);

        // Every version closed at tt <= ROUNDS goes: all but the last
        // closed version of each atom.
        let db = Database::open(&dir, cfg(kind)).unwrap();
        let removed = db.prune_history(cutoff).unwrap();
        assert_eq!(removed, (ATOMS * (ROUNDS - 1)) as u64, "{kind}");
        assert!(removed * 10 >= (ATOMS * ROUNDS) as u64 * 9);

        // As pruned.
        write_side(&db);
        drop(db);
        let db = Database::open(&dir, small).unwrap();
        let pruned = cold_slice(&db);
        drop(db);

        // Recovered: a commit the WAL still holds at a crash is redone
        // over the pruned files.
        let db = Database::open(&dir, cfg(kind)).unwrap();
        write_side(&db);
        db.crash();
        drop(Database::open(&dir, cfg(kind)).unwrap());
        let db = Database::open(&dir, small).unwrap();
        let recovered = cold_slice(&db);

        eprintln!(
            "{kind}: cold slice misses unpruned {} pruned {} recovered {}",
            unpruned.0, pruned.0, recovered.0
        );
        assert_eq!(pruned.1.len(), ATOMS as usize, "{kind}");
        assert_eq!(unpruned.1, pruned.1, "{kind}: answers, unpruned vs pruned");
        assert_eq!(
            pruned.1, recovered.1,
            "{kind}: answers, pruned vs recovered"
        );
        assert_eq!(
            pruned.0, recovered.0,
            "{kind}: pool misses, pruned vs recovered"
        );
        assert!(
            pruned.0 * 2 < unpruned.0,
            "{kind}: a pruned slice read {} pages, the unpruned one {}",
            pruned.0,
            unpruned.0
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn integrity_verification_passes_on_real_workloads() {
    for kind in all_kinds() {
        let dir = tmpdir(&format!("fsck-{kind}"));
        let db = Database::open(&dir, cfg(kind)).unwrap();
        let ty = setup_emp(&db);
        let mut atoms = Vec::new();
        let mut txn = db.begin();
        for i in 0..30i64 {
            atoms.push(
                txn.insert_atom(ty, iv_from(0), emp(&format!("e{i}"), i))
                    .unwrap(),
            );
        }
        txn.commit().unwrap();
        // Churn: updates, vt splits, deletes.
        for round in 0..5i64 {
            let mut txn = db.begin();
            for (i, a) in atoms.iter().enumerate() {
                match (i + round as usize) % 4 {
                    0 => txn.update(*a, iv_from(0), emp("x", round * 100)).unwrap(),
                    1 => txn.update(*a, iv(10, 20), emp("y", round)).unwrap(),
                    2 if txn
                        .current_versions(*a)
                        .unwrap()
                        .iter()
                        .any(|v| v.vt.overlaps(&iv(5, 8))) =>
                    {
                        txn.delete(*a, iv(5, 8)).unwrap();
                    }
                    _ => {}
                }
            }
            txn.commit().unwrap();
        }
        let report = db.verify_integrity().unwrap();
        assert!(report.is_ok(), "{kind}: {:?}", report.violations);
        assert_eq!(report.atoms_checked, 30);
        assert!(report.versions_checked > 100);

        // Still clean after crash recovery and pruning.
        db.crash();
        let db = Database::open(&dir, cfg(kind)).unwrap();
        db.assert_integrity().unwrap();
        db.prune_history(TimePoint(3)).unwrap();
        db.assert_integrity().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn integrity_detects_manual_corruption() {
    let dir = tmpdir("fsck-bad");
    let db = Database::open(&dir, cfg(StoreKind::Chain)).unwrap();
    let ty = setup_emp(&db);
    let mut txn = db.begin();
    let a = txn.insert_atom(ty, iv_from(0), emp("a", 7)).unwrap();
    txn.commit().unwrap();
    // Poke a ghost entry straight into the value index.
    use tcom_storage::keys::{encode_int, BKey};
    let ghost = BKey::new(encode_int(999_999), a.no.0);
    db.with_index_for_test(ty, tcom_kernel::AttrId(1), |idx| {
        idx.insert(ghost, a.no.0).unwrap();
    });
    let report = db.verify_integrity().unwrap();
    assert!(!report.is_ok());
    assert!(report.violations[0].contains("ghost"));
    assert!(db.assert_integrity().is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn integrity_detects_a_wrong_count() {
    let dir = tmpdir("fsck-count");
    let db = Database::open(&dir, cfg(StoreKind::Split)).unwrap();
    let ty = setup_emp(&db);
    let mut txn = db.begin();
    let a = txn.insert_atom(ty, iv_from(0), emp("a", 7)).unwrap();
    txn.commit().unwrap();
    db.assert_integrity().unwrap();
    // The atom's one current version holds 7; claim two do.
    use tcom_storage::keys::{encode_int, BKey};
    db.with_index_for_test(ty, tcom_kernel::AttrId(1), |idx| {
        assert_eq!(
            idx.insert(BKey::new(encode_int(7), a.no.0), 2).unwrap(),
            Some(1)
        );
    });
    let report = db.verify_integrity().unwrap();
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    let v = &report.violations[0];
    assert!(v.contains(&format!("atom {}", a.no.0)), "{v}");
    assert!(v.contains("counts 2") && v.contains("holds 1"), "{v}");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A close whose value the index does not count fails the commit, as a
/// close of a missing version does, rather than drive a count negative.
#[test]
fn a_count_below_zero_fails_the_commit() {
    let dir = tmpdir("count-below-zero");
    let db = Database::open(&dir, cfg(StoreKind::Chain)).unwrap();
    let ty = setup_emp(&db);
    let mut txn = db.begin();
    let a = txn.insert_atom(ty, iv_from(0), emp("a", 7)).unwrap();
    txn.commit().unwrap();
    use tcom_storage::keys::{encode_int, BKey};
    db.with_index_for_test(ty, AttrId(1), |idx| {
        assert_eq!(
            idx.remove(BKey::new(encode_int(7), a.no.0)).unwrap(),
            Some(1)
        );
    });
    let mut txn = db.begin();
    txn.update(a, iv_from(0), emp("a", 8)).unwrap();
    let err = txn.commit().unwrap_err();
    assert!(err.to_string().contains("would drop below zero"), "{err}");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two current versions of one atom can share an indexed value; its index
/// entry must outlive the close of either and go with the last. A
/// partial-valid-time update of the name splits the one version into a
/// renamed middle and two remainders, all with salary 50; deleting the
/// middle and then each remainder closes them one by one. The leader is
/// checked after every commit, and again after a crash and a reopen that
/// redoes it.
#[test]
fn shared_index_value_survives_until_its_last_version_closes() {
    use tcom_storage::keys::encode_int;
    for kind in all_kinds() {
        let dir = tmpdir(&format!("shared-{kind}"));
        let mut db = Database::open(&dir, cfg(kind)).unwrap();
        let ty = setup_emp(&db);
        let mut txn = db.begin();
        let a = txn.insert_atom(ty, iv_from(0), emp("a", 50)).unwrap();
        txn.commit().unwrap();
        // An update to the tuple, or a delete where there is none.
        let steps = [
            ("rename [10, 20)", iv(10, 20), Some(emp("b", 50)), true),
            ("delete the middle", iv(10, 20), None, true),
            ("delete one remainder", iv(0, 10), None, true),
            ("delete the other", iv_from(20), None, false),
        ];
        for (what, vt, tuple, found) in steps {
            let mut txn = db.begin();
            match tuple {
                Some(t) => txn.update(a, vt, t).unwrap(),
                None => txn.delete(a, vt).unwrap(),
            }
            txn.commit().unwrap();
            for role in ["leader", "reopened"] {
                if role == "reopened" {
                    db.crash();
                    db = Database::open(&dir, cfg(kind)).unwrap();
                }
                let hits = db
                    .index_range_inclusive(ty, AttrId(1), encode_int(50), encode_int(50))
                    .unwrap();
                assert_eq!(
                    hits,
                    if found { vec![a] } else { vec![] },
                    "{kind} {role}: {what}"
                );
                let report = db.verify_integrity().unwrap();
                assert!(
                    report.is_ok(),
                    "{kind} {role}: {what}: {:?}",
                    report.violations
                );
            }
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
