//! Crash-recovery matrix over the deterministic fault-injection VFS.
//!
//! A fixed multi-transaction temporal workload is first executed against an
//! unarmed [`FaultVfs`] (the *golden* run) to learn the exact sequence of
//! mutation I/O operations and the engine state after every acked commit.
//! Then, for every mutation-op index in the workload window, the run is
//! repeated with a power cut armed at that index: the VFS discards every
//! byte written since the last per-file sync, the database is reopened on
//! the surviving bytes, and recovery must land on exactly the state after
//! `acked` or `acked + 1` commits (the `+1` case is a commit whose WAL
//! frame became durable but whose post-commit work died) — never anything
//! else, never a torn hybrid, never an uncommitted write.
//!
//! `TCOM_CRASH_SAMPLE=k` strides the matrix (test every k-th op index) to
//! bound CI wall-clock; the default tests every single crash point.
//!
//! Beside it: the group-commit batch matrix, the same batches with buffer
//! pressure flushing pages ahead of the durable WAL, a cut at every op of
//! a history prune, a cut at every op of DDL, the cost of a reopen against
//! history depth, and the one WAL pass an open makes. Every reopen runs
//! under [`reopen::reopen`]'s deadline.

mod reopen;

use reopen::reopen;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use tcom_core::{
    AtomId, AtomTypeId, AttrDef, AttrId, DataType, Database, DbConfig, Error, Fault, FaultVfs,
    Interval, MoleculeEdge, StoreKind, SyncPolicy, TimePoint, Tuple, Value, Vfs, VfsFile,
};
use tcom_kernel::Lsn;
use tcom_wal::{segment_path, LogRecord, Wal};

const KINDS: [StoreKind; 3] = [StoreKind::Chain, StoreKind::Delta, StoreKind::Split];

/// Transactions in the workload. Sized so the mutation-op window
/// comfortably exceeds the 50-crash-point floor for every store kind.
const NUM_TXNS: usize = 12;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-recov-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn cfg(kind: StoreKind) -> DbConfig {
    // A small checkpoint interval forces the double-write journal, the
    // WAL roll and the removal of the rolled-off segment into the crash
    // window several times per run.
    DbConfig::default()
        .store_kind(kind)
        .buffer_frames(128)
        .sync_policy(SyncPolicy::OnCommit)
        .checkpoint_interval(4)
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

/// Executes transaction `k` of the deterministic workload. The op mix
/// covers inserts, bitemporal updates (splitting + coalescing), and
/// logical deletes over varied valid-time intervals.
fn run_txn(
    db: &Database,
    ty: AtomTypeId,
    k: usize,
    atoms: &mut Vec<AtomId>,
) -> tcom_core::Result<TimePoint> {
    let mut txn = db.begin();
    if k == 0 {
        for i in 0..3 {
            let a = txn.insert_atom(ty, Interval::all(), tup(100 + i, "init"))?;
            atoms.push(a);
        }
    } else {
        let a = atoms[k % atoms.len()];
        let lo = (k as u64 * 7) % 90;
        match k % 3 {
            1 => {
                let vt = Interval::new(TimePoint(lo), TimePoint(lo + 15)).unwrap();
                txn.update(a, vt, tup(1000 + k as i64, "upd"))?;
            }
            2 => {
                let vt = Interval::new(TimePoint(lo + 2), TimePoint(lo + 7)).unwrap();
                txn.delete(a, vt)?;
            }
            _ => {
                let vt = Interval::from_start(TimePoint(100 + k as u64));
                let b = txn.insert_atom(ty, vt, tup(2000 + k as i64, "ins"))?;
                atoms.push(b);
            }
        }
    }
    txn.commit()
}

/// Full bitemporal dump of every atom of `ty`: one line per recorded
/// version with its exact vt/tt coordinates and tuple. Sorted, so two
/// dumps are comparable regardless of replay order.
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

struct Golden {
    /// Mutation-op count after open + DDL (start of the crash window).
    op_base: u64,
    /// Mutation-op count after the last commit (end of the crash window).
    op_end: u64,
    /// `snapshots[k]` = full dump after `k` acked commits.
    snapshots: Vec<Vec<String>>,
}

fn golden_run(kind: StoreKind, tag: &str) -> Golden {
    let dir = tmpdir(tag);
    let vfs = FaultVfs::new();
    let db = Database::open_with_vfs(&dir, cfg(kind), Arc::new(vfs.clone())).unwrap();
    let ty = setup(&db);
    let op_base = vfs.mut_ops();
    let mut atoms = Vec::new();
    let mut snapshots = vec![dump(&db, ty)];
    for k in 0..NUM_TXNS {
        run_txn(&db, ty, k, &mut atoms).unwrap();
        snapshots.push(dump(&db, ty));
    }
    let op_end = vfs.mut_ops();
    db.crash();
    let _ = std::fs::remove_dir_all(&dir);
    Golden {
        op_base,
        op_end,
        snapshots,
    }
}

struct CrashOutcome {
    acked: usize,
    fingerprint: u64,
    ops_at_crash: u64,
}

/// One cell of the matrix: arm a power cut at mutation-op `j`, run the
/// workload until it dies, reopen on the surviving bytes, and check the
/// recovery invariants.
fn run_crash_point(kind: StoreKind, g: &Golden, j: u64, tag: &str) -> CrashOutcome {
    let dir = tmpdir(tag);
    let vfs = FaultVfs::new();
    let db = Database::open_with_vfs(&dir, cfg(kind), Arc::new(vfs.clone())).unwrap();
    let ty = setup(&db);
    assert_eq!(
        vfs.mut_ops(),
        g.op_base,
        "setup I/O must be deterministic (crash point {j})"
    );
    vfs.power_cut_at(j);

    let mut atoms = Vec::new();
    let mut acked = 0usize;
    for k in 0..NUM_TXNS {
        match run_txn(&db, ty, k, &mut atoms) {
            Ok(_) => acked += 1,
            Err(_) => break,
        }
    }
    db.crash();
    assert!(
        vfs.crashed(),
        "power cut armed at op {j} inside the window must fire"
    );
    let fingerprint = vfs.durable_fingerprint();
    let ops_at_crash = vfs.mut_ops();

    // Reopen on exactly the durable bytes; recovery runs inside open.
    vfs.reset_after_crash();
    let db = reopen(&dir, cfg(kind), Arc::new(vfs.clone())).unwrap();
    let got = dump(&db, ty);

    // Invariant: recovered state is the exact post-commit snapshot for
    // `acked` commits — or `acked + 1` when the dying commit's WAL frame
    // reached durability before the cut. Nothing in between, nothing else.
    let exact = got == g.snapshots[acked];
    let one_ahead = acked + 1 < g.snapshots.len() && got == g.snapshots[acked + 1];
    assert!(
        exact || one_ahead,
        "crash at op {j}: recovered state matches neither S_{} nor S_{}\n\
         acked={acked}\ngot:\n  {}\nwant S_{}:\n  {}",
        acked,
        acked + 1,
        got.join("\n  "),
        acked,
        g.snapshots[acked].join("\n  "),
    );

    // Structural invariant: stores, indexes, and time indexes agree.
    let report = db.verify_integrity().unwrap();
    assert!(
        report.is_ok(),
        "crash at op {j}: integrity violations after recovery: {:?}",
        report.violations
    );

    // No WAL segment below the control file's watermark is left: the
    // reopen's checkpoint removes the ones it read, and the control file
    // names those a cut checkpoint retired but did not remove, so the one
    // segment it rolled to is all that remains.
    let segments = wal_segments(&vfs, &dir);
    assert_eq!(
        segments.len(),
        1,
        "crash at op {j}: WAL segments left after reopen: {segments:?}"
    );

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    CrashOutcome {
        acked,
        fingerprint,
        ops_at_crash,
    }
}

/// The WAL segment files present in `dir`, by first LSN.
fn wal_segments(vfs: &FaultVfs, dir: &Path) -> Vec<PathBuf> {
    vfs.paths()
        .into_iter()
        .filter(|p| p.parent() == Some(dir))
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("wal."))
        .collect()
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
    assert!(
        window >= 50,
        "workload must expose at least 50 crash points, got {window}"
    );
    let step = crash_sample();
    let mut tested = 0u64;
    let mut j = g.op_base;
    while j < g.op_end {
        run_crash_point(kind, &g, j, &format!("{tag}-p{j}"));
        tested += 1;
        j += step;
    }
    eprintln!("crash matrix [{tag}]: {tested} crash points over a window of {window} mutation ops");
}

#[test]
fn crash_matrix_split() {
    crash_matrix(StoreKind::Split, "split");
}

#[test]
fn crash_matrix_chain() {
    crash_matrix(StoreKind::Chain, "chain");
}

#[test]
fn crash_matrix_delta() {
    crash_matrix(StoreKind::Delta, "delta");
}

/// Same seed + same schedule ⇒ same failure, same acked prefix, and
/// bit-identical durable file images.
#[test]
fn fault_injection_is_deterministic() {
    let g = golden_run(StoreKind::Split, "det-golden");
    let j = g.op_base + (g.op_end - g.op_base) / 2;
    let a = run_crash_point(StoreKind::Split, &g, j, "det-run");
    let b = run_crash_point(StoreKind::Split, &g, j, "det-run");
    assert_eq!(a.acked, b.acked, "acked commit count must be reproducible");
    assert_eq!(
        a.ops_at_crash, b.ops_at_crash,
        "op counter at crash must be reproducible"
    );
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "durable bytes after the crash must be bit-identical across runs"
    );
}

// ---- group-commit batch crash matrix ----
//
// Group commit batches multiple commits' WAL records between fsyncs. The
// engine stages each commit's records under the `wal_order` mutex at the
// moment its transaction time is drawn, so WAL byte order always equals
// transaction-time order — which is what makes a torn batch recover to a
// *prefix* of the batch, never an interior subset. This matrix simulates
// losing an arbitrary tail of a multi-transaction batch: under
// `SyncPolicy::OnCheckpoint` no commit fsyncs, so the whole workload is
// one unsynced batch, and a power cut at mutation-op `j` discards every
// WAL byte written after the last sync. Recovery must land on *exactly*
// `snapshots[m]` for some batch prefix length `m` — a commit may only be
// durable if every earlier commit is too.

fn batch_cfg(kind: StoreKind) -> DbConfig {
    // No per-commit fsync and no auto-checkpoint: every commit of the
    // workload joins one open WAL batch. A large pool keeps the no-steal
    // pressure flush out of the window, so *only* WAL bytes are at risk.
    DbConfig::default()
        .store_kind(kind)
        .buffer_frames(1024)
        .sync_policy(SyncPolicy::OnCheckpoint)
        .checkpoint_interval(0)
}

/// Transaction `k` of the batch workload: inserts one atom whose tuple
/// holds `k`, so every prefix of the batch has a distinct, recognizable
/// dump.
fn run_batch_txn(db: &Database, ty: AtomTypeId, k: usize) -> tcom_core::Result<TimePoint> {
    let mut txn = db.begin();
    txn.insert_atom(ty, Interval::all(), tup(3000 + k as i64, "batch"))?;
    txn.commit()
}

const BATCH_TXNS: usize = 32;

/// A batch matrix: its configuration and its transaction `k`.
struct Batch {
    cfg: fn(StoreKind) -> DbConfig,
    txn: fn(&Database, AtomTypeId, usize) -> tcom_core::Result<TimePoint>,
}

const BATCH: Batch = Batch {
    cfg: batch_cfg,
    txn: run_batch_txn,
};

/// The batch workload's golden run, plus which of its transactions found
/// the pool under pressure and flushed it first (`flushed[k]`: the flush
/// at the start of transaction `k` wrote the state after `k` commits).
fn batch_golden(kind: StoreKind, b: &Batch, tag: &str) -> (Golden, Vec<bool>) {
    let dir = tmpdir(tag);
    let vfs = FaultVfs::new();
    let db = Database::open_with_vfs(&dir, (b.cfg)(kind), Arc::new(vfs.clone())).unwrap();
    let ty = setup(&db);
    let op_base = vfs.mut_ops();
    let mut snapshots = vec![dump(&db, ty)];
    let mut flushed = Vec::with_capacity(BATCH_TXNS);
    for k in 0..BATCH_TXNS {
        let writebacks = db.buffer_stats().writebacks;
        (b.txn)(&db, ty, k).unwrap();
        flushed.push(db.buffer_stats().writebacks > writebacks);
        snapshots.push(dump(&db, ty));
    }
    let op_end = vfs.mut_ops();
    db.crash();
    let _ = std::fs::remove_dir_all(&dir);
    (
        Golden {
            op_base,
            op_end,
            snapshots,
        },
        flushed,
    )
}

/// One cell: cut the power at op `j` mid-batch, reopen, and demand that
/// recovery kept exactly a prefix of the batch's commits — at least as
/// long as the last flush an acked transaction completed, at most one
/// past the acked ones — with the clock at that prefix's last commit.
fn run_batch_crash_point(
    kind: StoreKind,
    b: &Batch,
    (g, flushed): &(Golden, Vec<bool>),
    j: u64,
    tag: &str,
) {
    let dir = tmpdir(tag);
    let vfs = FaultVfs::new();
    let db = Database::open_with_vfs(&dir, (b.cfg)(kind), Arc::new(vfs.clone())).unwrap();
    let ty = setup(&db);
    assert_eq!(vfs.mut_ops(), g.op_base, "batch setup I/O deterministic");
    vfs.power_cut_at(j);

    let mut acked = 0usize;
    for k in 0..BATCH_TXNS {
        match (b.txn)(&db, ty, k) {
            Ok(_) => acked += 1,
            Err(_) => break,
        }
    }
    db.crash();
    assert!(vfs.crashed(), "cut at op {j} inside the window must fire");

    vfs.reset_after_crash();
    let db = reopen(&dir, (b.cfg)(kind), Arc::new(vfs.clone())).unwrap();
    let got = dump(&db, ty);

    // Exactly-a-prefix: the recovered dump must equal snapshots[m] for
    // some m — commit m+1 durable without commit m would be an interior
    // subset and match nothing.
    let prefix_len = g.snapshots.iter().position(|s| *s == got);
    assert!(
        prefix_len.is_some(),
        "batch crash at op {j} (acked={acked}): recovered state is not a \
         batch prefix\ngot:\n  {}",
        got.join("\n  "),
    );
    // Unsynced batch: durability can never exceed what the workload acked.
    let m = prefix_len.unwrap();
    assert!(
        m <= acked + 1,
        "batch crash at op {j}: {m} commits recovered but only {acked} acked"
    );
    // A completed flush is durable whatever the WAL lost: the pages it
    // wrote hold `k` commits, and recovery must not fall behind them.
    let floor = (0..acked).filter(|&k| flushed[k]).max().unwrap_or(0);
    assert!(
        m >= floor,
        "batch crash at op {j}: {m} commits recovered behind a flush of {floor}"
    );
    // Commit k draws tt k: the clock must resume at the recovered prefix,
    // or the next commit would reuse a transaction time already stored.
    assert_eq!(
        db.now(),
        TimePoint(m as u64),
        "batch crash at op {j}: clock after recovering {m} commits"
    );
    let report = db.verify_integrity().unwrap();
    assert!(
        report.is_ok(),
        "batch crash at op {j}: integrity violations: {:?}",
        report.violations
    );
    assert_slices_agree(&db, ty, &format!("batch crash at op {j}"));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

fn batch_crash_matrix(kind: StoreKind, b: &Batch, tag: &str) -> usize {
    let golden = batch_golden(kind, b, &format!("{tag}-golden"));
    let window = golden.0.op_end - golden.0.op_base;
    assert!(
        window >= 30,
        "batch workload must expose at least 30 crash points, got {window}"
    );
    let step = crash_sample();
    let mut tested = 0u64;
    let mut j = golden.0.op_base;
    while j < golden.0.op_end {
        run_batch_crash_point(kind, b, &golden, j, &format!("{tag}-p{j}"));
        tested += 1;
        j += step;
    }
    eprintln!("batch crash matrix [{tag}]: {tested} crash points over {window} ops");
    golden.1.iter().filter(|&&f| f).count()
}

#[test]
fn batch_crash_matrix_split() {
    batch_crash_matrix(StoreKind::Split, &BATCH, "batch-split");
}

#[test]
fn batch_crash_matrix_chain() {
    batch_crash_matrix(StoreKind::Chain, &BATCH, "batch-chain");
}

#[test]
fn batch_crash_matrix_delta() {
    batch_crash_matrix(StoreKind::Delta, &BATCH, "batch-delta");
}

// ---- pressure-flush crash matrix ----
//
// The batch matrix again, with rows wide enough to fill a heap page every
// other commit behind a pool small enough that the no-steal pressure
// guard flushes it at transaction boundaries. Under `OnCheckpoint` no
// commit fsyncs the WAL, so each such flush puts pages on disk that are
// *ahead* of the durable log: after a cut, the store files hold commits
// the WAL no longer has.

fn pressure_cfg(kind: StoreKind) -> DbConfig {
    batch_cfg(kind).buffer_frames(16)
}

/// Transaction `k` of the pressure workload: one atom with a 3 KB note.
fn run_wide_batch_txn(db: &Database, ty: AtomTypeId, k: usize) -> tcom_core::Result<TimePoint> {
    let mut txn = db.begin();
    txn.insert_atom(ty, Interval::all(), tup(3000 + k as i64, &"w".repeat(3000)))?;
    txn.commit()
}

const PRESSURE: Batch = Batch {
    cfg: pressure_cfg,
    txn: run_wide_batch_txn,
};

fn pressure_crash_matrix(kind: StoreKind, tag: &str) {
    let flushes = batch_crash_matrix(kind, &PRESSURE, tag);
    eprintln!("pressure crash matrix [{tag}]: {flushes} flushes in the window");
    assert!(
        flushes >= 2,
        "the pressure guard must flush inside the window, flushed {flushes} times"
    );
}

#[test]
fn pressure_crash_matrix_split() {
    pressure_crash_matrix(StoreKind::Split, "pressure-split");
}

#[test]
fn pressure_crash_matrix_chain() {
    pressure_crash_matrix(StoreKind::Chain, "pressure-chain");
}

#[test]
fn pressure_crash_matrix_delta() {
    pressure_crash_matrix(StoreKind::Delta, "pressure-delta");
}

/// The index-backed slice of `ty` must agree with per-atom walks at every
/// transaction time, and at `FOREVER`: nothing rebuilds the time index
/// after recovery, so replay must have kept it.
fn assert_slices_agree(db: &Database, ty: AtomTypeId, what: &str) {
    let tts = (0..=db.now().0 + 1).map(TimePoint);
    for tt in tts.chain([TimePoint::FOREVER]) {
        let mut sliced = Vec::new();
        db.slice_at(ty, tt, &mut |no, vs| {
            sliced.push((no, vs));
            Ok(true)
        })
        .unwrap();
        let mut walked = Vec::new();
        for atom in db.all_atoms(ty).unwrap() {
            let vs = db.versions_at(atom, tt).unwrap();
            if !vs.is_empty() {
                walked.push((atom.no, vs));
            }
        }
        assert_eq!(
            sliced, walked,
            "{what}: the slice at tt {tt} disagrees with the walks"
        );
    }
}

// ---- prune crash matrix ----
//
// `prune_history` rewrites heap pages outside the commit path, then
// checkpoints: the checkpoint's flush lands the pruned pages while the
// WAL still holds the commits those pages already contain. A cut at
// every mutation op of the prune must recover exactly the pre-prune or
// the post-prune history — never logged commits replayed over pruned
// pages.

fn prune_cfg(kind: StoreKind) -> DbConfig {
    DbConfig::default()
        .store_kind(kind)
        .buffer_frames(128)
        .sync_policy(SyncPolicy::OnCommit)
        .checkpoint_interval(0)
}

/// One atom inserted and updated twice, a checkpoint, then three more
/// updates: six versions, the last three logged past the checkpoint.
fn prune_shape(db: &Database) -> (AtomTypeId, AtomId) {
    let ty = setup(db);
    let mut txn = db.begin();
    let atom = txn.insert_atom(ty, Interval::all(), tup(0, "v0")).unwrap();
    txn.commit().unwrap();
    for k in 1..6 {
        if k == 3 {
            db.checkpoint().unwrap();
        }
        let mut txn = db.begin();
        txn.update(atom, Interval::all(), tup(k, &format!("v{k}")))
            .unwrap();
        txn.commit().unwrap();
    }
    (ty, atom)
}

fn history(db: &Database, atom: AtomId) -> Vec<String> {
    db.history(atom)
        .unwrap()
        .iter()
        .map(|v| format!("vt={} tt={} tuple={:?}", v.vt, v.tt, v.tuple))
        .collect()
}

fn prune_crash_matrix(kind: StoreKind, tag: &str) {
    let dir = tmpdir(&format!("{tag}-golden"));
    let vfs = FaultVfs::new();
    let db = Database::open_with_vfs(&dir, prune_cfg(kind), Arc::new(vfs.clone())).unwrap();
    let (_, atom) = prune_shape(&db);
    let pre = history(&db, atom);
    let op_base = vfs.mut_ops();
    assert_eq!(db.prune_history(db.now()).unwrap(), 5);
    let op_end = vfs.mut_ops();
    let post = history(&db, atom);
    assert_eq!((pre.len(), post.len()), (6, 1));
    db.crash();
    let _ = std::fs::remove_dir_all(&dir);

    let step = crash_sample();
    let mut j = op_base;
    while j < op_end {
        let dir = tmpdir(&format!("{tag}-p{j}"));
        let vfs = FaultVfs::new();
        let db = Database::open_with_vfs(&dir, prune_cfg(kind), Arc::new(vfs.clone())).unwrap();
        let (ty, atom) = prune_shape(&db);
        assert_eq!(vfs.mut_ops(), op_base, "prune setup I/O deterministic");
        vfs.power_cut_at(j);
        assert!(
            db.prune_history(db.now()).is_err(),
            "cut at op {j} must surface through prune_history"
        );
        db.crash();
        assert!(vfs.crashed(), "cut at op {j} inside the prune must fire");

        vfs.reset_after_crash();
        let db = reopen(&dir, prune_cfg(kind), Arc::new(vfs.clone())).unwrap();
        let got = history(&db, atom);
        assert!(
            got == pre || got == post,
            "prune crash at op {j}: recovered a history of {} versions, neither the \
             pre-prune {} nor the post-prune {}\ngot:\n  {}",
            got.len(),
            pre.len(),
            post.len(),
            got.join("\n  ")
        );
        let report = db.verify_integrity().unwrap();
        assert!(
            report.is_ok(),
            "prune crash at op {j}: integrity violations: {:?}",
            report.violations
        );
        assert_slices_agree(&db, ty, &format!("prune crash at op {j}"));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        j += step;
    }
    eprintln!(
        "prune crash matrix [{tag}]: a window of {} mutation ops",
        op_end - op_base
    );
}

#[test]
fn prune_crash_matrix_chain() {
    prune_crash_matrix(StoreKind::Chain, "prune-chain");
}

#[test]
fn prune_crash_matrix_delta() {
    prune_crash_matrix(StoreKind::Delta, "prune-delta");
}

#[test]
fn prune_crash_matrix_split() {
    prune_crash_matrix(StoreKind::Split, "prune-split");
}

// ---- recovery cost ----

/// Pool fetches of a reopen that redoes 20 logged updates of one atom
/// whose checkpointed history is `depth` versions deep, and the leader's
/// pool fetches for the 20 commits that logged them.
fn reopen_fetches(kind: StoreKind, depth: i64, tag: &str) -> (u64, u64) {
    let dir = tmpdir(tag);
    let cfg = prune_cfg(kind).buffer_frames(1024);
    let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new());
    let db = Database::open_with_vfs(&dir, cfg, vfs.clone()).unwrap();
    let ty = setup(&db);
    let mut txn = db.begin();
    let atom = txn
        .insert_atom(ty, Interval::all(), tup(0, "deep"))
        .unwrap();
    txn.commit().unwrap();
    let update = |k: i64, note: &str| {
        let mut txn = db.begin();
        txn.update(atom, Interval::all(), tup(k, note)).unwrap();
        txn.commit().unwrap();
    };
    for k in 1..depth {
        update(k, "deep");
    }
    db.checkpoint().unwrap();
    let before = db.buffer_stats().fetches;
    for k in 0..20 {
        update(10_000 + k, "replayed");
    }
    let leader = db.buffer_stats().fetches - before;
    db.crash();

    let db = reopen(&dir, cfg, vfs).unwrap();
    let fetches = db.buffer_stats().fetches;
    assert_eq!(db.history(atom).unwrap().len() as i64, depth + 20);
    assert_eq!(db.now(), TimePoint(depth as u64 + 20));
    db.assert_integrity().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    (fetches, leader)
}

/// Recovery redoes the logged batches above the flush watermark from the
/// batches alone: it neither probes nor rebuilds the histories they touch,
/// so what a reopen reads does not grow with their depth, and on chain
/// and delta (whose leader reads the whole chain to find an atom's current
/// versions) it reads no more than the leader did to log them.
#[test]
fn recovery_cost_does_not_grow_with_history_depth() {
    for kind in KINDS {
        let (shallow, lead_shallow) = reopen_fetches(kind, 8, &format!("depth8-{kind}"));
        let (deep, lead_deep) = reopen_fetches(kind, 256, &format!("depth256-{kind}"));
        eprintln!(
            "reopen fetches [{kind}]: {shallow} at depth 8, {deep} at depth 256; \
             the leader's for the same commits: {lead_shallow} and {lead_deep}"
        );
        assert!(
            shallow.abs_diff(deep) <= 4,
            "{kind}: the reopen fetched {shallow} pages over a depth-8 history \
             but {deep} over a depth-256 one"
        );
        if kind != StoreKind::Split {
            assert!(
                shallow <= lead_shallow && deep <= lead_deep,
                "{kind}: the reopen fetched {shallow} and {deep} pages, \
                 the leader {lead_shallow} and {lead_deep}"
            );
        }
    }
}

/// A directory without a control file opens only when its WAL holds
/// nothing past the head checkpoint: otherwise its store files cannot say
/// which logged commits they already hold, and the open fails naming the
/// missing file rather than guess. A directory an earlier version wrote
/// (`db.meta`, no control file) fails naming what it holds.
#[test]
fn directory_without_a_control_file_fails_naming_it() {
    let dir = tmpdir("no-control");
    let cfg = cfg(StoreKind::Chain);
    let db = Database::open(&dir, cfg).unwrap();
    let ty = setup(&db);
    run_txn(&db, ty, 0, &mut Vec::new()).unwrap();
    db.crash();
    std::fs::remove_file(dir.join("control.tcm")).unwrap();
    match reopen(&dir, cfg, tcom_core::StdVfs::arc()) {
        Err(e @ Error::Corruption(_)) => assert!(e.to_string().contains("control.tcm"), "{e}"),
        Err(e) => panic!("expected a corruption error naming control.tcm, got {e}"),
        Ok(_) => panic!("opened a WAL with commits past its checkpoint without a control file"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    let dir = tmpdir("legacy");
    std::fs::write(dir.join("db.meta"), "tcom v1\nstore_kind=chain\n").unwrap();
    match reopen(&dir, cfg, tcom_core::StdVfs::arc()) {
        Err(e @ Error::Corruption(_)) => assert!(e.to_string().contains("db.meta"), "{e}"),
        Err(e) => panic!("expected a corruption error naming db.meta, got {e}"),
        Ok(_) => panic!("opened an earlier version's directory"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A control state larger than one page (a catalog of sixteen types with
/// twenty long-named attributes each) survives a clean reopen and a
/// crash reopen.
#[test]
fn control_state_larger_than_a_page_survives_reopen() {
    let dir = tmpdir("wide-catalog");
    let fault = FaultVfs::new();
    let vfs: Arc<dyn Vfs> = Arc::new(fault.clone());
    let db = Database::open_with_vfs(&dir, cfg(StoreKind::Split), vfs.clone()).unwrap();
    let mut last = None;
    for t in 0..16 {
        let attrs = (0..20)
            .map(|a| {
                AttrDef::new(
                    format!("attribute_{a:02}_of_the_wide_type_{t:02}"),
                    DataType::Int,
                )
            })
            .collect();
        last = Some(db.define_atom_type(format!("wide_{t}"), attrs).unwrap());
    }
    let ty = last.unwrap();
    let control = dir.join("control.tcm");
    assert!(
        fault.durable_len(&control).unwrap() > 8192,
        "the control state fits one page"
    );
    let catalog = |db: &Database| db.with_catalog(|c| format!("{:?}", c.atom_types()));
    let want = catalog(&db);
    let insert = |db: &Database, k: i64| {
        let mut txn = db.begin();
        txn.insert_atom(
            ty,
            Interval::all(),
            Tuple::new((0..20).map(|a| Value::Int(k + a)).collect()),
        )
        .unwrap();
        txn.commit().unwrap();
    };
    insert(&db, 0);
    drop(db);

    let db = reopen(&dir, cfg(StoreKind::Split), vfs.clone()).unwrap();
    assert_eq!(catalog(&db), want, "clean reopen");
    assert_eq!(db.all_atoms(ty).unwrap().len(), 1);
    insert(&db, 100);
    db.crash();

    let db = reopen(&dir, cfg(StoreKind::Split), vfs).unwrap();
    assert_eq!(catalog(&db), want, "crash reopen");
    assert_eq!(db.all_atoms(ty).unwrap().len(), 2);
    assert!(db.verify_integrity().unwrap().is_ok());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- DDL crash matrix ----
//
// DDL is a journaled flush: a catalog change reaches disk in the control
// file, in the same journal as the new type's formatted store and index
// pages. A cut at every mutation op of a `CREATE TYPE` with an indexed
// attribute, a `CREATE MOLECULE` over it and the first inserts into the
// new type must recover the state before or after the step it cut: the
// type absent, or present with every file and index.

/// The DDL workload's steps: step 0 creates `dept`, step 1 a molecule
/// type rooted at it, every later step inserts one `dept` atom.
const DDL_STEPS: usize = 5;

fn run_ddl_step(db: &Database, emp: AtomTypeId, k: usize) -> tcom_core::Result<()> {
    match k {
        0 => db
            .define_atom_type(
                "dept",
                vec![
                    AttrDef::new("name", DataType::Text),
                    AttrDef::new("budget", DataType::Int).indexed(),
                    AttrDef::new("staff", DataType::RefSet(emp)),
                ],
            )
            .map(drop),
        1 => {
            let dept = db.atom_type_id("dept")?;
            let edge = MoleculeEdge {
                from: dept,
                attr: AttrId(2),
                to: emp,
            };
            db.define_molecule_type("dept_staff", dept, vec![edge], None)
                .map(drop)
        }
        _ => {
            let dept = db.atom_type_id("dept")?;
            let mut txn = db.begin();
            let row = vec![
                Value::from(format!("d{k}")),
                Value::Int(k as i64 * 10),
                Value::Null,
            ];
            txn.insert_atom(dept, Interval::all(), Tuple::new(row))?;
            txn.commit().map(drop)
        }
    }
}

/// The catalog's names and every `dept` version.
fn ddl_state(db: &Database) -> String {
    let names = db.with_catalog(|c| {
        let types: Vec<&str> = c.atom_types().iter().map(|t| t.name.as_str()).collect();
        let mols: Vec<&str> = c.molecule_types().iter().map(|m| m.name.as_str()).collect();
        format!("types={types:?} molecules={mols:?}")
    });
    match db.atom_type_id("dept") {
        Ok(dept) => format!("{names} dept={:?}", dump(db, dept)),
        Err(_) => names,
    }
}

/// Opens a directory holding `emp` and three of its atoms: the state the
/// DDL workload starts from.
fn ddl_base(dir: &std::path::Path, kind: StoreKind, vfs: &FaultVfs) -> (Database, AtomTypeId) {
    let db = Database::open_with_vfs(dir, cfg(kind), Arc::new(vfs.clone())).unwrap();
    let emp = setup(&db);
    run_txn(&db, emp, 0, &mut Vec::new()).unwrap();
    (db, emp)
}

fn ddl_crash_matrix(kind: StoreKind, tag: &str) {
    let dir = tmpdir(&format!("{tag}-golden"));
    let vfs = FaultVfs::new();
    let (db, emp) = ddl_base(&dir, kind, &vfs);
    let op_base = vfs.mut_ops();
    let mut snapshots = vec![ddl_state(&db)];
    for k in 0..DDL_STEPS {
        run_ddl_step(&db, emp, k).unwrap();
        snapshots.push(ddl_state(&db));
    }
    let op_end = vfs.mut_ops();
    db.crash();
    let _ = std::fs::remove_dir_all(&dir);

    let step = crash_sample();
    let mut j = op_base;
    while j < op_end {
        let dir = tmpdir(&format!("{tag}-p{j}"));
        let vfs = FaultVfs::new();
        let (db, emp) = ddl_base(&dir, kind, &vfs);
        assert_eq!(vfs.mut_ops(), op_base, "DDL setup I/O deterministic");
        vfs.power_cut_at(j);
        let acked = (0..DDL_STEPS)
            .take_while(|&k| run_ddl_step(&db, emp, k).is_ok())
            .count();
        db.crash();
        assert!(
            vfs.crashed(),
            "cut at op {j} inside the DDL window must fire"
        );

        vfs.reset_after_crash();
        let db = reopen(&dir, cfg(kind), Arc::new(vfs.clone())).unwrap();
        let got = ddl_state(&db);
        assert!(
            got == snapshots[acked] || (acked < DDL_STEPS && got == snapshots[acked + 1]),
            "DDL crash at op {j} (acked={acked}): recovered\n  {got}\nwant\n  {}",
            snapshots[acked]
        );
        let report = db.verify_integrity().unwrap();
        assert!(
            report.is_ok(),
            "DDL crash at op {j}: integrity violations: {:?}",
            report.violations
        );
        if let Ok(dept) = db.atom_type_id("dept") {
            let files = kind.file_suffixes().iter().chain(&["idx1"]);
            for suffix in files {
                let path = dir.join(format!("t{}_{suffix}.tcm", dept.0));
                assert!(
                    vfs.durable_len(&path).unwrap_or(0) > 0,
                    "DDL crash at op {j}: dept is cataloged but {} is empty",
                    path.display()
                );
            }
            let mut indexed = false;
            db.with_index_for_test(dept, AttrId(1), |_| indexed = true);
            assert!(indexed, "DDL crash at op {j}: dept's index is not open");
            assert_slices_agree(&db, dept, &format!("DDL crash at op {j}"));
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
        j += step;
    }
    eprintln!(
        "DDL crash matrix [{tag}]: a window of {} mutation ops",
        op_end - op_base
    );
}

#[test]
fn ddl_crash_matrix_chain() {
    ddl_crash_matrix(StoreKind::Chain, "ddl-chain");
}

#[test]
fn ddl_crash_matrix_delta() {
    ddl_crash_matrix(StoreKind::Delta, "ddl-delta");
}

#[test]
fn ddl_crash_matrix_split() {
    ddl_crash_matrix(StoreKind::Split, "ddl-split");
}

// ---- checkpoints over a killed process, and back to back ----

/// A process kill (no power loss) leaves the WAL's unsynced tail in the
/// page cache, where the reopen reads and redoes it. A cut at any op of
/// that reopen, the roll-to-flush window of its checkpoint included, must
/// leave a directory that reopens to the commits up to some point at or
/// past the last checkpoint, with one WAL segment: the reopen's roll
/// fsyncs the tail before it creates a segment named after its end, so
/// the old segment never comes back shorter than that name says and
/// leaves the new one unreachable.
#[test]
fn reopen_after_a_kill_survives_a_cut_in_its_checkpoint() {
    let kind = StoreKind::Chain;
    let dir = tmpdir("kill-reopen");
    // Four checkpointed commits, then four that only the page cache holds.
    let killed = || {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = FaultVfs::new();
        let db = Database::open_with_vfs(&dir, batch_cfg(kind), Arc::new(vfs.clone())).unwrap();
        let ty = setup(&db);
        let mut snapshots = vec![dump(&db, ty)];
        for k in 0..8 {
            if k == 4 {
                db.checkpoint().unwrap();
            }
            run_batch_txn(&db, ty, k).unwrap();
            snapshots.push(dump(&db, ty));
        }
        db.crash();
        (vfs, ty, snapshots)
    };
    let mut cut = 0;
    loop {
        let (vfs, ty, snapshots) = killed();
        vfs.power_cut_at(vfs.mut_ops() + cut);
        if let Ok(db) = Database::open_with_vfs(&dir, batch_cfg(kind), Arc::new(vfs.clone())) {
            db.crash();
        }
        if !vfs.crashed() {
            assert_eq!(wal_segments(&vfs, &dir).len(), 1);
            break;
        }
        vfs.reset_after_crash();
        let db = reopen(&dir, batch_cfg(kind), Arc::new(vfs.clone())).unwrap();
        let got = dump(&db, ty);
        assert!(
            snapshots[4..].contains(&got),
            "cut at reopen op {cut}: the commits up to no point at or past the checkpoint:\n  {}",
            got.join("\n  ")
        );
        assert!(db.verify_integrity().unwrap().is_ok());
        let segments = wal_segments(&vfs, &dir);
        assert_eq!(
            segments.len(),
            1,
            "cut at reopen op {cut}: WAL segments left: {segments:?}"
        );
        drop(db);
        cut += 1;
    }
    eprintln!("killed reopen: {cut} cut points");
    assert!(cut >= 5, "the reopen exposes only {cut} cut points");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The op a [`Parking`] file system parks: the next write to, or the next
/// removal of, a file whose name starts with the prefix.
#[derive(Clone, Copy)]
enum ParkAt {
    Write(&'static str),
    Remove(&'static str),
}

/// Where a [`Parking`] file system parks the armed op: it reports its
/// entry, then waits for its release.
type ParkSlot = Arc<Mutex<Option<(ParkAt, mpsc::Sender<()>, mpsc::Receiver<()>)>>>;

/// A [`FaultVfs`] whose writes and removals can be parked one at a time.
#[derive(Clone, Default)]
struct Parking {
    inner: FaultVfs,
    slot: ParkSlot,
}

impl Parking {
    /// Arms the slot for the op `at`; returns where that op reports its
    /// entry and where it takes its release.
    fn arm(&self, at: ParkAt) -> (mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        *self.slot.lock().unwrap() = Some((at, entered_tx, release_rx));
        (entered, release)
    }
}

impl ParkAt {
    /// True iff this is a write (`removal` false) or a removal of `path`.
    fn parks(self, removal: bool, path: &Path) -> bool {
        let name = path.file_name().unwrap().to_string_lossy();
        match self {
            ParkAt::Write(prefix) => !removal && name.starts_with(prefix),
            ParkAt::Remove(prefix) => removal && name.starts_with(prefix),
        }
    }
}

/// Parks a write (`removal` false) or a removal of `path` when the slot
/// is armed for it.
fn park_if_armed(slot: &ParkSlot, removal: bool, path: &Path) {
    let armed = {
        let mut slot = slot.lock().unwrap();
        match &*slot {
            Some((at, _, _)) if at.parks(removal, path) => slot.take(),
            _ => None,
        }
    };
    if let Some((_, entered, release)) = armed {
        entered.send(()).unwrap();
        release.recv().unwrap();
    }
}

struct ParkedFile(Arc<dyn VfsFile>, PathBuf, ParkSlot);

impl VfsFile for ParkedFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> tcom_core::Result<()> {
        self.0.read_at(buf, offset)
    }
    fn write_at(&self, buf: &[u8], offset: u64) -> tcom_core::Result<()> {
        park_if_armed(&self.2, false, &self.1);
        self.0.write_at(buf, offset)
    }
    fn sync(&self) -> tcom_core::Result<()> {
        self.0.sync()
    }
    fn set_len(&self, len: u64) -> tcom_core::Result<()> {
        self.0.set_len(len)
    }
    fn len(&self) -> tcom_core::Result<u64> {
        self.0.len()
    }
}

impl Vfs for Parking {
    fn open(&self, path: &Path) -> tcom_core::Result<Arc<dyn VfsFile>> {
        Ok(Arc::new(ParkedFile(
            self.inner.open(path)?,
            path.to_owned(),
            self.slot.clone(),
        )))
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn remove(&self, path: &Path) -> tcom_core::Result<()> {
        park_if_armed(&self.slot, true, path);
        self.inner.remove(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> tcom_core::Result<()> {
        self.inner.rename(from, to)
    }
}

/// Two checkpoints back to back. The first removes the segment it
/// retired inside its commits scope: commits wait for the removal, so no
/// second checkpoint rolls past the watermark the first recorded before
/// that removal bounds itself by it. The commits then land, and a cut
/// before the second checkpoint's flush reopens from the first one's
/// watermark with every acked commit.
#[test]
fn back_to_back_checkpoints_keep_every_acked_commit() {
    let dir = tmpdir("two-ckpts");
    let vfs = Parking::default();
    let fault = vfs.inner.clone();
    let config = cfg(StoreKind::Chain).checkpoint_interval(0);
    let db = Database::open_with_vfs(&dir, config, Arc::new(vfs.clone())).unwrap();
    let ty = setup(&db);
    let mut atoms = Vec::new();
    run_txn(&db, ty, 0, &mut atoms).unwrap();

    let (entered, release) = vfs.arm(ParkAt::Remove("wal."));
    std::thread::scope(|s| {
        let first = s.spawn(|| db.checkpoint());
        entered
            .recv_timeout(Duration::from_secs(30))
            .expect("the first checkpoint removes a segment");
        let before = db.now();
        let committer = s.spawn(|| {
            for k in 1..4 {
                run_txn(&db, ty, k, &mut atoms).unwrap();
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        let landed = db.now() != before;
        release.send(()).unwrap();
        first.join().unwrap().unwrap();
        committer.join().unwrap();
        assert!(
            !landed,
            "a commit landed while the first checkpoint removed its retired segment"
        );
    });
    let want = dump(&db, ty);

    let (entered, release) = vfs.arm(ParkAt::Write("ckpt.jrnl"));
    std::thread::scope(|s| {
        let second = s.spawn(|| db.checkpoint());
        entered
            .recv_timeout(Duration::from_secs(30))
            .expect("the second checkpoint writes its journal");
        // The second roll is durable; its flush has not begun to land.
        fault.power_cut_at(fault.mut_ops());
        release.send(()).unwrap();
        assert!(second.join().unwrap().is_err());
    });
    db.crash();
    fault.reset_after_crash();
    let db = reopen(&dir, config, Arc::new(fault.clone())).unwrap();
    assert_eq!(dump(&db, ty), want, "an acked commit was lost");
    assert_eq!(wal_segments(&fault, &dir).len(), 1);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- one WAL pass at open ----

/// The WAL reads one open made: `(segment file, offset, length)`.
type Reads = Arc<Mutex<Vec<(PathBuf, u64, usize)>>>;

/// A [`Vfs`] that records the reads of WAL segment files and passes
/// everything through to a [`FaultVfs`].
struct WalReads {
    inner: FaultVfs,
    reads: Reads,
}

struct CountedFile(Arc<dyn VfsFile>, PathBuf, Reads);

impl VfsFile for CountedFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> tcom_core::Result<()> {
        self.2
            .lock()
            .unwrap()
            .push((self.1.clone(), offset, buf.len()));
        self.0.read_at(buf, offset)
    }
    fn write_at(&self, buf: &[u8], offset: u64) -> tcom_core::Result<()> {
        self.0.write_at(buf, offset)
    }
    fn sync(&self) -> tcom_core::Result<()> {
        self.0.sync()
    }
    fn set_len(&self, len: u64) -> tcom_core::Result<()> {
        self.0.set_len(len)
    }
    fn len(&self) -> tcom_core::Result<u64> {
        self.0.len()
    }
}

impl Vfs for WalReads {
    fn open(&self, path: &Path) -> tcom_core::Result<Arc<dyn VfsFile>> {
        let file = self.inner.open(path)?;
        if path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("wal.")
        {
            Ok(Arc::new(CountedFile(
                file,
                path.to_owned(),
                self.reads.clone(),
            )))
        } else {
            Ok(file)
        }
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn remove(&self, path: &Path) -> tcom_core::Result<()> {
        self.inner.remove(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> tcom_core::Result<()> {
        self.inner.rename(from, to)
    }
}

/// Builds a directory whose WAL holds commits above the flush watermark
/// and a segment swap the control file does not list yet: the history
/// is compacted, and the power is cut at the first op after the swap's
/// record became durable. Returns the cut directory's file system. Up to
/// that cut the swap's own checkpoint has not rolled the log, so it
/// starts at the oldest segment on disk.
fn dir_with_swap_in_the_wal(dir: &Path) -> FaultVfs {
    let cfg = prune_cfg(StoreKind::Chain);
    let build = |cut: Option<u64>| {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).unwrap();
        let vfs = FaultVfs::new();
        let db = Database::open_with_vfs(dir, cfg, Arc::new(vfs.clone())).unwrap();
        let (ty, atom) = prune_shape(&db);
        let ops = vfs.mut_ops();
        if let Some(cut) = cut {
            vfs.power_cut_at(ops + cut);
        }
        let compacted = db.compact_type(ty);
        let mut txn = db.begin();
        let _ = txn.update(atom, Interval::all(), tup(99, "after"));
        let _ = txn.commit();
        db.crash();
        vfs.reset_after_crash();
        (vfs, compacted.is_ok())
    };
    assert!(build(None).1, "the uncut compaction archives history");
    for cut in 0..64 {
        let (vfs, _) = build(Some(cut));
        let oldest = &wal_segments(&vfs, dir)[0];
        let hex = oldest.extension().unwrap().to_str().unwrap();
        let start = Lsn(u64::from_str_radix(hex, 16).unwrap());
        assert_eq!(*oldest, segment_path(&dir.join("wal"), start));
        let wal = Wal::open_at(
            Arc::new(vfs.clone()),
            dir.join("wal"),
            SyncPolicy::OnCommit,
            start,
        )
        .unwrap();
        let mut cursor = wal.read_from(start).unwrap();
        let (mut swap, mut commits) = (false, 0);
        while let Some((_, rec)) = cursor.next_record().unwrap() {
            swap |= matches!(rec, LogRecord::SegmentSwap { .. });
            commits += matches!(rec, LogRecord::Commit { .. }) as usize;
        }
        if swap {
            assert!(commits > 0, "the WAL holds the swap but no commit");
            return vfs;
        }
    }
    panic!("no cut left the swap record in the WAL");
}

/// `Database::open` reads each WAL byte once: over a directory whose WAL
/// holds commits above the watermark and a segment swap, the one pass
/// from the watermark both redoes the log and finds its valid end, so
/// the open reads every byte of the segments on disk exactly once, and
/// no byte twice.
#[test]
fn open_reads_the_wal_once() {
    let dir = tmpdir("one-pass");
    let fault = dir_with_swap_in_the_wal(&dir);
    let on_disk: Vec<(PathBuf, u64)> = wal_segments(&fault, &dir)
        .into_iter()
        .map(|p| {
            let len = fault.durable_len(&p).unwrap();
            (p, len)
        })
        .collect();

    let reads: Reads = Arc::default();
    let vfs = WalReads {
        inner: fault.clone(),
        reads: reads.clone(),
    };
    let db = reopen(&dir, prune_cfg(StoreKind::Chain), Arc::new(vfs)).unwrap();
    let mut reads = reads.lock().unwrap().clone();
    reads.sort();
    for pair in reads.windows(2) {
        let ((a, at, n), (b, bt, _)) = (&pair[0], &pair[1]);
        assert!(
            a != b || at + *n as u64 <= *bt,
            "open read bytes {bt}.. of {} twice",
            b.display()
        );
    }
    for (path, len) in &on_disk {
        let read: u64 = reads
            .iter()
            .filter(|(p, _, _)| p == path)
            .map(|(_, _, n)| *n as u64)
            .sum();
        assert_eq!(
            read,
            *len,
            "open read {read} of {len} bytes of {}",
            path.display()
        );
    }
    assert_eq!(
        db.metrics().counter("segment.live"),
        1,
        "the swap's segment was adopted"
    );
    assert!(db.verify_integrity().unwrap().is_ok());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A transient write failure (no power cut) fails the in-flight commit but
/// leaves the engine consistent and usable: the failed transaction's
/// writes stay invisible and later transactions proceed normally.
#[test]
fn transient_write_failure_fails_commit_cleanly() {
    let dir = tmpdir("transient");
    let vfs = FaultVfs::new();
    let db = Database::open_with_vfs(&dir, cfg(StoreKind::Split), Arc::new(vfs.clone())).unwrap();
    let ty = setup(&db);

    let mut txn = db.begin();
    let atom = txn
        .insert_atom(ty, Interval::all(), tup(500, "base"))
        .unwrap();
    txn.commit().unwrap();

    // Fail the very next mutation op: the first WAL append of the commit.
    let mut sched = tcom_core::FaultSchedule::default();
    sched.on_mutation.insert(vfs.mut_ops(), Fault::FailWrite);
    vfs.set_schedule(sched);
    let mut txn = db.begin();
    txn.update(atom, Interval::all(), tup(999, "lost")).unwrap();
    assert!(
        txn.commit().is_err(),
        "commit must surface the injected write failure"
    );
    assert!(!vfs.crashed(), "a failed write is transient, not a crash");

    // The failed update is invisible and the engine still works.
    let t = db.current_tuple(atom, TimePoint(5)).unwrap().unwrap();
    assert_eq!(t.values()[0], Value::Int(500));
    let mut txn = db.begin();
    txn.update(atom, Interval::all(), tup(777, "ok")).unwrap();
    txn.commit().unwrap();
    let t = db.current_tuple(atom, TimePoint(5)).unwrap().unwrap();
    assert_eq!(t.values()[0], Value::Int(777));
    assert!(db.verify_integrity().unwrap().is_ok());

    // And the failed txn stays invisible across a clean reopen.
    drop(db);
    let db = reopen(&dir, cfg(StoreKind::Split), Arc::new(vfs.clone())).unwrap();
    let t = db.current_tuple(atom, TimePoint(5)).unwrap().unwrap();
    assert_eq!(t.values()[0], Value::Int(777));
    assert!(db.verify_integrity().unwrap().is_ok());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
