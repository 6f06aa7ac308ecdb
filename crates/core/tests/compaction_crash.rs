//! Crash matrix for the compaction swap protocol, over the deterministic
//! fault-injection VFS.
//!
//! A fixed workload builds a deep closed history, then a *golden* run
//! compacts it with an unarmed [`FaultVfs`] to learn the exact mutation
//! I/O window of one compaction cycle (segment build, rename, WAL commit
//! point, heap extraction, checkpoint). Then, for every
//! mutation-op index in that window, the run repeats with a power cut
//! armed at that index: the cut strikes mid-compaction, the engine is
//! reopened on the surviving bytes, and recovery must land on a state
//! *logically identical* to both the pre- and post-compaction image
//! (compaction never changes query results — the two are the same
//! bitemporal content). Every recovered run must pass the integrity
//! sweep, render every `ASOF TT` slice byte-identically to an
//! uncompacted twin, and support a fresh compaction afterwards.
//!
//! `TCOM_CRASH_SAMPLE=k` strides the matrix exactly like the recovery
//! suite's, and reopens run under the same deadline.
//!
//! A swap does not drain commits, so a commit can log its batch after the
//! swap record while the extraction is still to come;
//! `commit_between_swap_record_and_extraction_*` cuts the power there.

mod reopen;

use reopen::reopen;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcom_core::{
    AtomId, AtomTypeId, AttrDef, DataType, Database, DbConfig, FaultVfs, Interval, StoreKind,
    SyncPolicy, TimePoint, Tuple, Value,
};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-cc-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn cfg(kind: StoreKind) -> DbConfig {
    // No auto-checkpoint: the only checkpoint in the crash window is the
    // one `compact_type` itself issues, keeping the window tight around
    // the protocol under test.
    DbConfig::default()
        .store_kind(kind)
        .buffer_frames(256)
        .sync_policy(SyncPolicy::OnCommit)
        .checkpoint_interval(0)
}

fn setup(db: &Database) -> AtomTypeId {
    db.define_atom_type(
        "emp",
        vec![
            AttrDef::new("salary", DataType::Int).indexed(),
            AttrDef::new("note", DataType::Text),
        ],
    )
    .unwrap()
}

fn tup(salary: i64, note: &str) -> Tuple {
    Tuple::new(vec![Value::Int(salary), Value::from(note)])
}

/// Deterministic workload: 6 atoms, then update/delete rounds that close
/// a version per touch — leaving a closed-version majority to archive.
fn populate(db: &Database, ty: AtomTypeId) -> Vec<AtomId> {
    let mut atoms = Vec::new();
    let mut txn = db.begin();
    for i in 0..6i64 {
        atoms.push(
            txn.insert_atom(ty, Interval::all(), tup(100 + i, "init"))
                .unwrap(),
        );
    }
    txn.commit().unwrap();
    for round in 0..6u64 {
        for (i, &a) in atoms.iter().enumerate() {
            let mut txn = db.begin();
            let lo = (round * 13 + i as u64 * 7) % 80;
            if (round + i as u64) % 5 == 4 {
                let vt = Interval::new(TimePoint(lo), TimePoint(lo + 5)).unwrap();
                txn.delete(a, vt).unwrap();
            } else {
                let vt = Interval::new(TimePoint(lo), TimePoint(lo + 11)).unwrap();
                txn.update(a, vt, tup((round * 100 + i as u64) as i64, "upd"))
                    .unwrap();
            }
            txn.commit().unwrap();
        }
    }
    atoms
}

/// Full bitemporal dump: one sorted line per recorded version. Merged
/// reads make archived and hot versions indistinguishable here — which is
/// exactly the contract.
fn dump(db: &Database, ty: AtomTypeId) -> Vec<String> {
    let mut out = Vec::new();
    for atom in db.all_atoms(ty).unwrap() {
        for v in db.history(atom).unwrap() {
            out.push(format!(
                "{atom} vt={} tt={} tuple={:?}",
                v.vt, v.tt, v.tuple
            ));
        }
    }
    out.sort();
    out
}

/// One rendered `ASOF TT` slice per transaction time `0..=now`, plus the
/// current state (`FOREVER`).
fn slices(db: &Database, ty: AtomTypeId) -> Vec<String> {
    let mut tts: Vec<TimePoint> = (0..=db.now().0).map(TimePoint).collect();
    tts.push(TimePoint::FOREVER);
    tts.iter()
        .map(|&tt| {
            let mut rows = Vec::new();
            for atom in db.all_atoms(ty).unwrap() {
                for v in db.versions_at(atom, tt).unwrap() {
                    rows.push(format!("{atom}|{:?}|{}|{}", v.tuple, v.vt, v.tt));
                }
            }
            rows.sort();
            format!("tt={tt}::{}", rows.join(";"))
        })
        .collect()
}

struct Golden {
    /// Mutation-op count when `compact_type` starts.
    op_base: u64,
    /// Mutation-op count when it returns.
    op_end: u64,
    /// The bitemporal dump (identical before and after compaction).
    dump: Vec<String>,
    /// Every `ASOF TT` slice of the *uncompacted* state — the twin.
    slices: Vec<String>,
}

fn golden_run(kind: StoreKind, tag: &str) -> Golden {
    let dir = tmpdir(tag);
    let vfs = FaultVfs::new();
    let db = Database::open_with_vfs(&dir, cfg(kind), Arc::new(vfs.clone())).unwrap();
    let ty = setup(&db);
    populate(&db, ty);

    let pre_dump = dump(&db, ty);
    let pre_slices = slices(&db, ty);
    let op_base = vfs.mut_ops();
    let archived = db.compact_type(ty).unwrap();
    assert!(
        archived > 0,
        "workload must leave closed history to archive"
    );
    let op_end = vfs.mut_ops();
    assert!(
        op_end - op_base >= 15,
        "compaction window too narrow to be a meaningful matrix: {}",
        op_end - op_base
    );

    // The tentpole smoke, inside the matrix harness: compaction is
    // logically invisible — dump and every slice byte-identical.
    assert_eq!(pre_dump, dump(&db, ty), "compaction changed the dump");
    assert_eq!(pre_slices, slices(&db, ty), "compaction changed a slice");
    assert!(db.verify_integrity().unwrap().is_ok());

    db.crash();
    let _ = std::fs::remove_dir_all(&dir);
    Golden {
        op_base,
        op_end,
        dump: pre_dump,
        slices: pre_slices,
    }
}

/// One cell: arm a power cut at mutation-op `j`, compact until it dies,
/// reopen, and require the twin's exact state — then compact again.
fn run_crash_point(kind: StoreKind, g: &Golden, j: u64, tag: &str) {
    let dir = tmpdir(tag);
    let vfs = FaultVfs::new();
    let db = Database::open_with_vfs(&dir, cfg(kind), Arc::new(vfs.clone())).unwrap();
    let ty = setup(&db);
    populate(&db, ty);
    assert_eq!(
        vfs.mut_ops(),
        g.op_base,
        "workload I/O must be deterministic (crash point {j})"
    );
    vfs.power_cut_at(j);
    assert!(
        db.compact_type(ty).is_err(),
        "cut at op {j} must surface through compact_type"
    );
    db.crash();
    assert!(
        vfs.crashed(),
        "cut armed at op {j} inside the window must fire"
    );

    // Reopen on exactly the durable bytes; segment recovery (the control
    // file's list, then the WAL's swap records adopted in the redo pass,
    // extraction redo, orphan cleanup) runs inside open.
    vfs.reset_after_crash();
    let db = reopen(&dir, cfg(kind), Arc::new(vfs.clone())).unwrap();
    assert_eq!(
        dump(&db, ty),
        g.dump,
        "crash at op {j}: recovered dump diverged from the twin"
    );
    let report = db.verify_integrity().unwrap();
    assert!(
        report.is_ok(),
        "crash at op {j}: integrity violations after recovery: {:?}",
        report.violations
    );
    assert_eq!(
        slices(&db, ty),
        g.slices,
        "crash at op {j}: an ASOF TT slice diverged from the twin"
    );

    // The interrupted cycle must not wedge the tiering machinery: a fresh
    // compaction succeeds (a no-op when recovery already landed on the
    // post-swap image) and is still logically invisible.
    db.compact_type(ty)
        .unwrap_or_else(|e| panic!("crash at op {j}: re-compaction failed: {e}"));
    assert_eq!(dump(&db, ty), g.dump, "crash at op {j}: re-compaction dump");
    assert_eq!(
        slices(&db, ty),
        g.slices,
        "crash at op {j}: re-compaction slices"
    );
    assert!(db.verify_integrity().unwrap().is_ok(), "crash at op {j}");

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

fn crash_sample() -> u64 {
    std::env::var("TCOM_CRASH_SAMPLE")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .filter(|&k| k >= 1)
        .unwrap_or(1)
}

fn crash_matrix(kind: StoreKind, tag: &str) {
    let g = golden_run(kind, &format!("{tag}-golden"));
    let window = g.op_end - g.op_base;
    let step = crash_sample();
    let mut tested = 0u64;
    let mut j = g.op_base;
    while j < g.op_end {
        run_crash_point(kind, &g, j, &format!("{tag}-p{j}"));
        tested += 1;
        j += step;
    }
    eprintln!(
        "compaction crash matrix [{tag}]: {tested} crash points over a window of {window} ops"
    );
}

#[test]
fn compaction_crash_matrix_chain() {
    crash_matrix(StoreKind::Chain, "chain");
}

#[test]
fn compaction_crash_matrix_delta() {
    crash_matrix(StoreKind::Delta, "delta");
}

#[test]
fn compaction_crash_matrix_split() {
    crash_matrix(StoreKind::Split, "split");
}

/// Polls `cond` until it holds, panicking after 30 s.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "{what} never became durable"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Parks the swap's extraction (and every apply) after its `SegmentSwap`
/// record is durable, lets a commit that closes a version log its batch
/// behind that record, and copies the durable bytes as a power cut at that
/// instant would leave them. Recovery of the copy redoes the extraction at
/// the swap record and then the later commit, and must answer every
/// `ASOF TT` slice and every history exactly as the live database does
/// once both parked threads have finished.
fn commit_between_swap_and_extraction(kind: StoreKind, tag: &str) {
    let dir = tmpdir(tag);
    let vfs = FaultVfs::new();
    let db = Database::open_with_vfs(&dir, cfg(kind), Arc::new(vfs.clone())).unwrap();
    let ty = setup(&db);
    let atoms = populate(&db, ty);
    let cutoff = db.now();
    // The WAL segment appends go to: the newest, by its first LSN.
    let wal = vfs
        .paths()
        .into_iter()
        .rfind(|p| p.file_name().unwrap().to_string_lossy().starts_with("wal."))
        .unwrap();
    let durable_wal = || vfs.durable_len(&wal).unwrap_or(0);

    let (copy, archived, late_tt) = std::thread::scope(|s| {
        let parked = db.block_applies_for_test();
        let start = durable_wal();
        let compaction = s.spawn(|| db.compact_type(ty));
        wait_until("the swap record", || durable_wal() > start);
        let swap_end = durable_wal();
        let writer = s.spawn(|| {
            let mut txn = db.begin();
            txn.update(atoms[0], Interval::all(), tup(-1, "late"))?;
            txn.commit()
        });
        wait_until("the late commit's batch", || durable_wal() > swap_end);
        let copy = vfs.durable_copy();
        drop(parked);
        let archived = compaction.join().unwrap().unwrap();
        (copy, archived, writer.join().unwrap().unwrap())
    });
    assert!(archived > 0, "the swap must archive history");
    assert!(
        late_tt > cutoff,
        "the late commit draws a tt above the cutoff"
    );

    let recovered = reopen(&dir, cfg(kind), Arc::new(copy)).unwrap();
    assert_eq!(recovered.now(), late_tt);
    assert_eq!(dump(&recovered, ty), dump(&db, ty), "HISTORY diverged");
    assert_eq!(slices(&recovered, ty), slices(&db, ty), "a slice diverged");
    for (name, d) in [("recovered", &recovered), ("live", &db)] {
        let report = d.verify_integrity().unwrap();
        assert!(report.is_ok(), "{name}: {:?}", report.violations);
    }
    drop(recovered);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commit_between_swap_record_and_extraction_chain() {
    commit_between_swap_and_extraction(StoreKind::Chain, "late-chain");
}

#[test]
fn commit_between_swap_record_and_extraction_delta() {
    commit_between_swap_and_extraction(StoreKind::Delta, "late-delta");
}

#[test]
fn commit_between_swap_record_and_extraction_split() {
    commit_between_swap_and_extraction(StoreKind::Split, "late-split");
}
