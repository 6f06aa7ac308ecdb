//! Parallel molecule materialization: equivalence with the sequential
//! path, determinism across thread counts, and correctness under a pool
//! smaller than the working set (so the fan-out drives real evictions).

use tcom_core::{
    AttrDef, DataType, Database, DbConfig, MoleculeEdge, StoreKind, TimePoint, Tuple, Value,
};
use tcom_kernel::time::iv_from;
use tcom_kernel::AttrId;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-par-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// dept(name, employs REFSET emp) → emp(name, works_on REFSET proj)
/// → proj(title), populated with `depts` departments of `fanout` employees
/// each, every employee on 2 shared projects.
fn build_university(db: &Database, depts: u64, fanout: u64) -> tcom_kernel::MoleculeTypeId {
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
    let mol = db
        .define_molecule_type(
            "dept_mol",
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
    let mut projects = Vec::new();
    for p in 0..(depts * 2) {
        projects.push(
            txn.insert_atom(
                proj,
                iv_from(0),
                Tuple::new(vec![Value::from(format!("proj-{p}"))]),
            )
            .unwrap(),
        );
    }
    txn.commit().unwrap();
    // One transaction per department: keeps the dirty set of any single
    // transaction small, so the fixture also builds in tiny pools.
    for d in 0..depts {
        let mut txn = db.begin();
        let mut emps = Vec::new();
        for e in 0..fanout {
            let ps = [
                projects[(d as usize * 2) % projects.len()],
                projects[(d as usize * 2 + e as usize) % projects.len()],
            ];
            emps.push(
                txn.insert_atom(
                    emp,
                    iv_from(0),
                    Tuple::new(vec![
                        Value::from(format!("emp-{d}-{e}")),
                        Value::ref_set(ps),
                    ]),
                )
                .unwrap(),
            );
        }
        txn.insert_atom(
            dept,
            iv_from(0),
            Tuple::new(vec![Value::from(format!("dept-{d}")), Value::ref_set(emps)]),
        )
        .unwrap();
        txn.commit().unwrap();
    }
    mol
}

#[test]
fn parallel_matches_sequential_for_every_store_kind() {
    for kind in [StoreKind::Chain, StoreKind::Delta, StoreKind::Split] {
        let dir = tmpdir(&format!("eq-{kind}"));
        let db = Database::open(
            &dir,
            DbConfig::default()
                .store_kind(kind)
                .buffer_frames(256)
                .checkpoint_interval(0),
        )
        .unwrap();
        let mol = build_university(&db, 24, 6);

        let tt = db.now();
        let vt = TimePoint(10);
        let mut sequential = Vec::new();
        db.materialize_all(mol, tt, vt, |m| {
            sequential.push(m);
            Ok(true)
        })
        .unwrap();
        assert_eq!(sequential.len(), 24);

        for threads in [1, 2, 4, 8] {
            let parallel = db.materialize_all_parallel(mol, tt, vt, threads).unwrap();
            assert_eq!(
                parallel, sequential,
                "threads={threads} kind={kind} diverged from sequential"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn parallel_under_eviction_pressure() {
    // Build with a comfortable pool, then reopen with a pool far smaller
    // than the working set: every materialization round churns frames
    // through the striped clock while 8 threads race.
    let dir = tmpdir("pressure");
    {
        let db = Database::open(&dir, DbConfig::default().checkpoint_interval(0)).unwrap();
        build_university(&db, 64, 120);
    }
    let db = Database::open(
        &dir,
        DbConfig::default()
            .buffer_frames(32)
            .buffer_shards(2)
            .checkpoint_interval(0),
    )
    .unwrap();
    assert_eq!(db.pool().shard_count(), 2);
    let mol = db.molecule_type_id("dept_mol").unwrap();
    db.reset_buffer_stats();

    let tt = db.now();
    let baseline = db
        .materialize_all_parallel(mol, tt, TimePoint(10), 1)
        .unwrap();
    assert_eq!(baseline.len(), 64);
    let cold = db.buffer_stats();
    assert!(
        cold.misses as usize > db.pool().capacity(),
        "fixture must not fit in the pool: {cold:?}"
    );
    for _ in 0..3 {
        let got = db
            .materialize_all_parallel(mol, tt, TimePoint(10), 8)
            .unwrap();
        assert_eq!(got, baseline);
    }
    let s = db.buffer_stats();
    assert!(s.evictions > 0, "working set must overflow the pool: {s:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_thread_config_is_respected() {
    let dir = tmpdir("cfg");
    let db = Database::open(&dir, DbConfig::default().checkpoint_interval(0)).unwrap();
    let mol = build_university(&db, 4, 2);
    // threads=0 resolves to the available parallelism; result must still match.
    let auto = db
        .materialize_all_parallel(mol, db.now(), TimePoint(10), 0)
        .unwrap();
    assert_eq!(auto.len(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}
