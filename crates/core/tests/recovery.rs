//! Crash recovery over the deterministic fault-injection VFS.
//!
//! Every power-cut matrix is a row of the one driver in [`crash`]: a
//! golden run, a cut at every mutating op of the row's window, a reopen
//! under [`reopen::reopen`]'s deadline, and a judgment against the states
//! the golden run passed through. The rows: a mixed temporal workload
//! with auto-checkpoints, group-commit batches with and without buffer
//! pressure, a history prune, DDL, a compaction swap, the reopen after a
//! process kill, and sequences drawn from fixed seeds that mix every step
//! kind the others cut one at a time.
//!
//! Beside them: the determinism of the fault injection, the cost of a
//! reopen against history depth, control-file edge cases, races parked
//! at chosen file ops, the one WAL pass an open makes, and a transient
//! write failure.

mod crash;
mod reopen;

use crash::{dump, dump_all, matrix, steps, tmpdir, wal_segments, Durable, Live, Scenario, Step};
use reopen::reopen;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use tcom_core::{
    AtomId, AtomTypeId, AttrDef, AttrId, DataType, Database, DbConfig, Error, Fault, FaultVfs,
    Interval, MoleculeEdge, StoreKind, SyncPolicy, TimePoint, Tuple, Value, Vfs, VfsFile,
};
use tcom_kernel::Lsn;
use tcom_wal::{segment_path, LogRecord, Wal};

const KINDS: [StoreKind; 3] = [StoreKind::Chain, StoreKind::Delta, StoreKind::Split];

/// Transactions in the crash row. Sized so its window comfortably exceeds
/// 50 cut points for every store kind.
const NUM_TXNS: usize = 12;

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

/// `emp` holding the three atoms of the crash row's transaction 0.
fn setup_staffed(db: &Database) -> AtomTypeId {
    let emp = setup(db);
    run_txn(db, emp, 0, &mut Vec::new()).unwrap();
    emp
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

// ---- the rows ----

/// The crash row: the mixed workload, every commit synced, a checkpoint
/// every four commits.
fn crash_row() -> Scenario<(AtomTypeId, Vec<AtomId>)> {
    let steps = steps(NUM_TXNS, |live, k| {
        let (db, (ty, atoms)) = live.parts();
        run_txn(db, *ty, k, atoms).map(drop)
    });
    Scenario {
        min_window: 50,
        ..Scenario::new("crash", cfg, |db| (setup(db), Vec::new()), steps)
    }
}

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

/// The batch row. Group commit stages each commit's records under the
/// `wal_order` mutex at the moment its transaction time is drawn, so WAL
/// byte order equals transaction-time order, and a torn batch recovers to
/// a *prefix* of it, never an interior subset. Under
/// `SyncPolicy::OnCheckpoint` no commit fsyncs, so the whole workload is
/// one unsynced batch that a cut may lose any tail of.
fn batch_row() -> Scenario<AtomTypeId> {
    let steps = steps(BATCH_TXNS, |live, k| {
        run_batch_txn(live.db(), live.s, k).map(drop)
    });
    Scenario {
        durable: Durable::Flushed,
        min_window: 30,
        ..Scenario::new("batch", batch_cfg, setup, steps)
    }
}

/// The pressure row: the batch row with rows wide enough to fill a heap
/// page every other commit behind a pool small enough that the no-steal
/// pressure guard flushes it at transaction boundaries. No commit fsyncs
/// the WAL, so each such flush puts pages on disk that are *ahead* of the
/// durable log: after a cut, the store files hold commits the WAL no
/// longer has, and recovery must not fall behind them.
fn pressure_row() -> Scenario<AtomTypeId> {
    let steps = steps(BATCH_TXNS, |live, k| {
        let mut txn = live.db().begin();
        let row = tup(3000 + k as i64, &"w".repeat(3000));
        txn.insert_atom(live.s, Interval::all(), row)?;
        txn.commit().map(drop)
    });
    Scenario {
        name: "pressure".into(),
        cfg: |kind| batch_cfg(kind).buffer_frames(16),
        steps,
        min_flushes: 2,
        ..batch_row()
    }
}

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

/// The prune row. `prune_history` rewrites heap pages outside the commit
/// path, then checkpoints: the checkpoint's flush lands the pruned pages
/// while the WAL still holds the commits those pages already contain. A
/// cut at any op of it must recover exactly the pre-prune or the
/// post-prune history, never logged commits replayed over pruned pages.
fn prune_row() -> Scenario<(AtomTypeId, AtomId)> {
    let steps = steps(1, |live, _| {
        let (db, &mut (_, atom)) = live.parts();
        let before = db.history(atom)?.len();
        let pruned = db.prune_history(db.now())?;
        assert_eq!((before, pruned, db.history(atom)?.len()), (6, 5, 1));
        Ok(())
    });
    Scenario::new("prune", prune_cfg, prune_shape, steps)
}

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

/// The DDL row. DDL is a journaled flush: a catalog change reaches disk
/// in the control file, in the same journal as the new type's formatted
/// store and index pages. A cut in a `CREATE TYPE` with an indexed
/// attribute, a `CREATE MOLECULE` over it or the first inserts into the
/// new type must recover the type absent, or present with every file and
/// index.
fn ddl_row() -> Scenario<AtomTypeId> {
    let steps = steps(DDL_STEPS, |live, k| run_ddl_step(live.db(), live.s, k));
    Scenario {
        check: |live, _| {
            let db = live.db();
            let Ok(dept) = db.atom_type_id("dept") else {
                return;
            };
            for suffix in live.kind.file_suffixes().iter().chain(&["idx1"]) {
                let path = live.dir.join(format!("t{}_{suffix}.tcm", dept.0));
                assert!(
                    live.vfs.durable_len(&path).unwrap_or(0) > 0,
                    "dept is cataloged but {} is empty",
                    path.display()
                );
            }
            let mut indexed = false;
            db.with_index_for_test(dept, AttrId(1), |_| indexed = true);
            assert!(indexed, "dept's index is not open");
        },
        ..Scenario::new("ddl", cfg, setup_staffed, steps)
    }
}

/// No auto-checkpoint: the only checkpoint in the compaction row's window
/// is the one `compact_type` itself issues.
fn compaction_cfg(kind: StoreKind) -> DbConfig {
    prune_cfg(kind).buffer_frames(256)
}

/// Six atoms, then update/delete rounds that close a version per touch,
/// leaving a closed-version majority to archive.
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

/// One rendered `ASOF TT` slice per transaction time `0..=now`, plus the
/// current state (`FOREVER`), read per atom.
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

/// What a compaction must not change: the full dump, and every `ASOF TT`
/// slice of `emp`, whose segment reads skip by their fences.
fn compaction_view(db: &Database) -> Vec<String> {
    let mut out = dump_all(db);
    out.extend(slices(db, db.atom_type_id("emp").unwrap()));
    out
}

/// The compaction row: a swap must not change what a reader sees, and a
/// cut in it (segment build, rename, WAL commit point, heap extraction,
/// checkpoint) must recover a state that answers every history and
/// `ASOF TT` slice as before; and the interrupted cycle must not wedge
/// tiering: a fresh compaction succeeds (a no-op when recovery already
/// landed on the post-swap image) and changes nothing either.
fn compaction_row() -> Scenario<AtomTypeId> {
    let steps = steps(1, |live, _| {
        let archived = live.db().compact_type(live.s)?;
        assert!(
            archived > 0,
            "the workload leaves closed history to archive"
        );
        Ok(())
    });
    let populated = |db: &Database| {
        let ty = setup(db);
        populate(db, ty);
        ty
    };
    Scenario {
        observe: compaction_view,
        min_window: 15,
        check: |live, recovered| {
            let db = live.db();
            db.compact_type(live.s)
                .unwrap_or_else(|e| panic!("re-compaction failed: {e}"));
            assert_eq!(
                compaction_view(db),
                recovered,
                "re-compaction changed a view"
            );
            assert!(db.verify_integrity().unwrap().is_ok());
        },
        ..Scenario::new("compaction", compaction_cfg, populated, steps)
    }
}

/// The killed-reopen row. A process kill (no power loss) leaves the
/// WAL's unsynced tail in the page cache, where the reopen reads and
/// redoes it. A cut at any op of that reopen, the roll-to-flush window of
/// its checkpoint included, must leave a directory that reopens to the
/// commits up to some point at or past the last checkpoint, with one WAL
/// segment: the reopen's roll fsyncs the tail before it creates a segment
/// named after its end, so the old segment never comes back shorter than
/// that name says and leaves the new one unreachable. Two commits follow
/// that only log: a cut in them must keep every commit the reopen made
/// durable.
fn killed_reopen_row() -> Scenario<AtomTypeId> {
    // Four checkpointed commits, then four that only the page cache holds.
    let mut steps = steps(8, |live, k| {
        if k == 4 {
            live.db().checkpoint()?;
        }
        run_batch_txn(live.db(), live.s, k).map(drop)
    });
    steps.push(Box::new(|live| live.kill_and_reopen()));
    steps.extend((9..11).map(|k| -> Step<AtomTypeId> {
        Box::new(move |live| run_batch_txn(live.db(), live.s, k).map(drop))
    }));
    Scenario {
        cut_from: 8,
        durable: Durable::Flushed,
        min_window: 5,
        ..Scenario::new("killed-reopen", batch_cfg, setup, steps)
    }
}

// ---- the generated row ----
//
// Each seed draws a short sequence that mixes every kind of step the
// rows above cut one at a time: commits of inserts, `VALID`-piece updates
// and deletes (some rows wide enough to press a small pool into flushing),
// checkpoints, compactions, prunes, type and molecule definitions, and
// process kills. A new durability step joins here as one more kind.

/// The seeds, each cut on one store kind: seed `SEEDS[i]` on
/// `KINDS[i % 3]`. Even seeds sync every commit, odd ones only at
/// checkpoints.
const SEEDS: [u64; 3] = [1, 2, 3];

/// Steps drawn per seed.
const DRAWN_STEPS: usize = 10;

/// A drawn step. Numbers pick among what exists when the step runs (the
/// type, the atom), so every step applies to whatever the cut before
/// it left.
#[derive(Clone, Debug)]
enum Op {
    Commit(Vec<Write>),
    Checkpoint,
    Compact(u64),
    /// Prunes the history closed that many transaction times ago.
    Prune(u64),
    DefineType(String),
    DefineMolecule(String, u64),
    Kill,
}

/// A write of a drawn commit: `op` 0 inserts, 1 updates and 2 deletes.
#[derive(Clone, Copy, Debug)]
struct Write {
    op: u64,
    ty: u64,
    atom: u64,
    lo: u64,
    len: u64,
    value: u64,
}

/// splitmix64: a seeded, dependency-free draw.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

fn draw_ops(seed: u64) -> Vec<Op> {
    let mut d = Draw(seed);
    let mut types = 0;
    let mut ops = Vec::with_capacity(DRAWN_STEPS);
    for k in 0..DRAWN_STEPS {
        ops.push(match d.below(10) {
            0..=3 => {
                let n = 1 + d.below(3);
                let write = |d: &mut Draw| Write {
                    op: d.below(3),
                    ty: d.below(8),
                    atom: d.below(64),
                    lo: d.below(60),
                    len: 1 + d.below(20),
                    value: d.below(1000),
                };
                Op::Commit((0..n).map(|_| write(&mut d)).collect())
            }
            4 => Op::Checkpoint,
            5 => Op::Compact(d.below(8)),
            6 => Op::Prune(d.below(3)),
            7 | 8 if types == 0 || d.below(2) == 0 => {
                types += 1;
                Op::DefineType(format!("g{k}"))
            }
            7 | 8 => Op::DefineMolecule(format!("m{k}"), d.below(types)),
            _ => Op::Kill,
        });
    }
    ops
}

fn run_op(live: &mut Live<AtomTypeId>, op: &Op) -> tcom_core::Result<()> {
    if let Op::Kill = op {
        return live.kill_and_reopen();
    }
    let (db, &mut emp) = live.parts();
    let types: Vec<(AtomTypeId, usize)> = db.with_catalog(|c| {
        c.atom_types()
            .iter()
            .map(|t| (t.id, t.attrs.len()))
            .collect()
    });
    let pick = |n: u64| types[(n % types.len() as u64) as usize];
    match op {
        Op::Commit(writes) => {
            let mut txn = db.begin();
            for w in writes {
                let (ty, arity) = pick(w.ty);
                // Every third value comes with a note of 3 KB.
                let note = if w.value.is_multiple_of(3) {
                    "w".repeat(3000)
                } else {
                    format!("n{}", w.value)
                };
                let mut row = vec![Value::Int(w.value as i64), Value::from(note)];
                row.resize(arity, Value::Null);
                let vt = Interval::new(TimePoint(w.lo), TimePoint(w.lo + w.len)).unwrap();
                let atoms = db.all_atoms(ty)?;
                let atom =
                    (!atoms.is_empty()).then(|| atoms[(w.atom % atoms.len() as u64) as usize]);
                match (w.op, atom) {
                    (1, Some(atom)) => txn.update(atom, vt, Tuple::new(row))?,
                    (2, Some(atom)) => txn.delete(atom, vt)?,
                    _ => {
                        let vt = Interval::from_start(TimePoint(w.lo));
                        txn.insert_atom(ty, vt, Tuple::new(row))?;
                    }
                }
            }
            txn.commit().map(drop)
        }
        Op::Checkpoint => db.checkpoint(),
        Op::Compact(ty) => db.compact_type(pick(*ty).0).map(drop),
        Op::Prune(ago) => db
            .prune_history(TimePoint(db.now().0.saturating_sub(*ago)))
            .map(drop),
        Op::DefineType(name) => db
            .define_atom_type(
                name.as_str(),
                vec![
                    AttrDef::new("salary", DataType::Int).indexed(),
                    AttrDef::new("note", DataType::Text),
                    AttrDef::new("staff", DataType::RefSet(emp)),
                ],
            )
            .map(drop),
        Op::DefineMolecule(name, root) => {
            let roots: Vec<AtomTypeId> = types.iter().map(|t| t.0).filter(|&t| t != emp).collect();
            let from = roots[(root % roots.len() as u64) as usize];
            let edge = MoleculeEdge {
                from,
                attr: AttrId(2),
                to: emp,
            };
            db.define_molecule_type(name.as_str(), from, vec![edge], None)
                .map(drop)
        }
        Op::Kill => unreachable!("handled above"),
    }
}

/// The generated row of `seed`: its drawn steps over a 32-frame pool.
fn generated_row(seed: u64) -> Scenario<AtomTypeId> {
    let steps = draw_ops(seed)
        .into_iter()
        .map(|op| -> Step<AtomTypeId> { Box::new(move |live| run_op(live, &op)) })
        .collect();
    let (cfg, durable): (fn(StoreKind) -> DbConfig, _) = if seed.is_multiple_of(2) {
        (|kind| prune_cfg(kind).buffer_frames(32), Durable::Acked)
    } else {
        (|kind| batch_cfg(kind).buffer_frames(32), Durable::Flushed)
    };
    // Checkpointed, so that what the steps start from is durable.
    let setup = |db: &Database| {
        let emp = setup_staffed(db);
        db.checkpoint().unwrap();
        emp
    };
    Scenario {
        durable,
        ..Scenario::new(format!("generated-{seed}"), cfg, setup, steps)
    }
}

/// One test per store kind for each row.
macro_rules! rows {
    ($($test:ident => $row:expr;)*) => {$(
        mod $test {
            use super::*;

            #[test]
            fn chain() {
                $row(StoreKind::Chain);
            }

            #[test]
            fn delta() {
                $row(StoreKind::Delta);
            }

            #[test]
            fn split() {
                $row(StoreKind::Split);
            }
        }
    )*};
}

rows! {
    crash_matrix => |kind| matrix(kind, &crash_row());
    batch_crash_matrix => |kind| matrix(kind, &batch_row());
    pressure_crash_matrix => |kind| matrix(kind, &pressure_row());
    prune_crash_matrix => |kind| matrix(kind, &prune_row());
    ddl_crash_matrix => |kind| matrix(kind, &ddl_row());
    compaction_crash_matrix => |kind| {
        let g = matrix(kind, &compaction_row());
        assert_eq!(g.state(0), g.state(1), "compaction changed a reader's view");
    };
    killed_reopen_crash_matrix => |kind| {
        let g = matrix(kind, &killed_reopen_row());
        assert_eq!(g.floor(Durable::Flushed, 11), 8, "the reopen of step 8 flushed");
    };
    generated_crash_matrix => |kind| {
        let i = KINDS.iter().position(|&k| k == kind).unwrap();
        for &seed in SEEDS.iter().skip(i).step_by(KINDS.len()) {
            matrix(kind, &generated_row(seed));
        }
    };
}

/// Same seed + same schedule ⇒ same failure, same acked prefix, and
/// bit-identical durable file images.
#[test]
fn fault_injection_is_deterministic() {
    let row = crash_row();
    let g = crash::golden(StoreKind::Split, &row);
    let j = g.op_base + (g.op_end - g.op_base) / 2;
    let a = crash::cut(StoreKind::Split, &row, &g, j);
    let b = crash::cut(StoreKind::Split, &row, &g, j);
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

// ---- parked races ----

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

// ---- a commit between a swap's record and its extraction ----
//
// A swap does not drain commits, so a commit can log its batch after the
// swap record while the extraction is still to come.

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
    let db = Database::open_with_vfs(&dir, compaction_cfg(kind), Arc::new(vfs.clone())).unwrap();
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

    let recovered = reopen(&dir, compaction_cfg(kind), Arc::new(copy)).unwrap();
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
