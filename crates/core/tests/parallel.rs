//! Concurrent molecule reads through one shared buffer pool: scoped
//! threads fanning `Database::materialize` over the root set return what
//! the sequential reads return, on every store kind, and under a pool
//! smaller than the working set (so the fan-out drives real evictions).

use std::sync::atomic::{AtomicUsize, Ordering};
use tcom_core::{
    AttrDef, DataType, Database, DbConfig, Molecule, MoleculeEdge, MoleculeTypeId, StoreKind,
    TimePoint, Tuple, Value,
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
fn build_university(db: &Database, depts: u64, fanout: u64) -> MoleculeTypeId {
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

/// Every `dept_mol` molecule at `(tt, vt)`, in root order: one at a time
/// when `threads` is 1, otherwise by scoped workers claiming roots from a
/// shared cursor.
fn materialize_roots(
    db: &Database,
    mol: MoleculeTypeId,
    tt: TimePoint,
    vt: TimePoint,
    threads: usize,
) -> Vec<Molecule> {
    let roots = db.all_atoms(db.atom_type_id("dept").unwrap()).unwrap();
    let cursor = AtomicUsize::new(0);
    let mut got: Vec<(usize, Molecule)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&root) = roots.get(i) else {
                            return mine;
                        };
                        if let Some(m) = db.materialize(mol, root, tt, vt).unwrap() {
                            mine.push((i, m));
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("materialization worker panicked"))
            .collect()
    });
    got.sort_by_key(|(i, _)| *i);
    got.into_iter().map(|(_, m)| m).collect()
}

#[test]
fn concurrent_reads_match_sequential_for_every_store_kind() {
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
        let sequential = materialize_roots(&db, mol, tt, vt, 1);
        assert_eq!(sequential.len(), 24);
        for threads in [2, 4, 8] {
            assert_eq!(
                materialize_roots(&db, mol, tt, vt, threads),
                sequential,
                "threads={threads} kind={kind} diverged from sequential"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn concurrent_reads_under_eviction_pressure() {
    // Build with a comfortable pool, then reopen with a 128-frame pool —
    // derived as two clock shards — smaller than the working set: every
    // materialization round churns frames through the striped clock while
    // 8 threads race.
    for kind in [StoreKind::Chain, StoreKind::Delta, StoreKind::Split] {
        let dir = tmpdir(&format!("pressure-{kind}"));
        let config = DbConfig::default().store_kind(kind).checkpoint_interval(0);
        {
            let db = Database::open(&dir, config).unwrap();
            build_university(&db, 128, 120);
        }
        let db = Database::open(&dir, config.buffer_frames(128)).unwrap();
        assert_eq!(db.pool().shard_count(), 2, "[{kind}]");
        let mol = db.molecule_type_id("dept_mol").unwrap();
        let before = db.buffer_stats();

        let tt = db.now();
        let baseline = materialize_roots(&db, mol, tt, TimePoint(10), 1);
        assert_eq!(baseline.len(), 128);
        let cold = db.buffer_stats();
        assert!(
            (cold.misses - before.misses) as usize > db.pool().capacity(),
            "[{kind}] fixture must not fit in the pool: {cold:?} since {before:?}"
        );
        for _ in 0..3 {
            assert_eq!(
                materialize_roots(&db, mol, tt, TimePoint(10), 8),
                baseline,
                "[{kind}] concurrent reads under eviction diverged"
            );
        }
        let s = db.buffer_stats();
        assert!(
            s.evictions > before.evictions,
            "[{kind}] working set must overflow the pool: {s:?} since {before:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
