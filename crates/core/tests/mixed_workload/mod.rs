//! Mixed-workload soak driver with fault injection and invariant oracles.
//!
//! A seeded run drives N concurrent actor threads drawn from a weighted
//! scenario mix — OLTP inserters/updaters, retroactive valid-time
//! correctors (updates strictly below the valid-time "present"
//! watermark), ASOF analytical readers on pinned [`ReadView`]s, recursive
//! BOM-explosion readers (complete part trees under a recursive molecule type),
//! and a queue consumer that claims the oldest open job row —
//! optionally above [`FaultVfs`] with scheduled power cuts followed by
//! recovery-and-resume.
//!
//! Correctness is enforced by oracles, not just liveness:
//!
//! * every actor logs its committed operations to a **content-keyed
//!   journal** (`(tt, scenario, ops)`, rows identified by their key
//!   attribute, never by atom id);
//! * [`verify_soak`] serially replays the journal on all three store
//!   kinds; every replayed commit must **draw the live run's transaction
//!   time**, every claim must claim the live run's row, and the ASOF
//!   slices at sampled timestamps must be **byte-identical** between the
//!   live engine and all three replays;
//! * after each injected power cut the recovered state must be exactly
//!   the committed prefix: no *reported* commit may be lost, and every
//!   recovered transaction time above the journal must be claimed by an
//!   **in-doubt** commit attempt — one whose `commit` call errored after
//!   the cut, though the group-commit fsync had already made its WAL
//!   record durable. Resolution matches each such tt against the unique
//!   attempt whose content fingerprint (fresh keys, random values) the
//!   recovered store carries; the store must also pass the integrity
//!   sweep before the actors resume.
//!
//! Why replay-equality is sound: every soak transaction touches a single
//! atom type, so its first stripe acquisition precedes any read or atom
//! allocation — wait-die victims die before they burn state, committed
//! transaction times are consecutive, and the state a transaction saw in
//! the live run (committed same-type state below its own tt) is exactly
//! the state the serial replay presents at the same position.
//!
//! Per-scenario operation counts are recorded through `tcom-obs`
//! counters labeled by scenario.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use tcom_core::{
    is_wait_die_abort, AtomId, AtomTypeId, AttrDef, AttrId, Compactor, Counter, DataType, Database,
    DbConfig, Error, FaultSchedule, FaultVfs, Interval, MoleculeEdge, MoleculeTypeId, Registry,
    Result, StoreKind, SyncPolicy, TimePoint, Tuple, Txn, Value,
};

/// The scenario mix, by label. Actor `i` runs scenario `i % 5`, so any
/// actor count ≥ 5 exercises every scenario.
pub const SCENARIOS: [&str; 5] = ["oltp", "correct", "asof", "bom", "queue"];

/// The valid-time "present" watermark: retroactive correctors write
/// strictly below it, OLTP activity stays at or above it.
const VT_NOW: u64 = 5_000;

/// One soak run's shape. All randomness derives from `seed`; the oracle
/// assertions hold for any thread schedule.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Master seed; actor RNGs derive from it.
    pub seed: u64,
    /// Store kind of the live engine (replays always cover all three).
    pub kind: StoreKind,
    /// Actor threads; `i % 5` picks the scenario.
    pub actors: usize,
    /// Committed transactions (writers) / queries (readers) per actor.
    pub txns_per_actor: usize,
    /// Pre-seeded record atoms (keys `0..rec_atoms`).
    pub rec_atoms: usize,
    /// BOM tree fanout.
    pub bom_fanout: usize,
    /// BOM tree depth.
    pub bom_depth: usize,
    /// Power cuts to inject (0 = fault-free run).
    pub power_cuts: usize,
    /// Mutating I/O operations between arming a cut and it striking.
    pub crash_op_spacing: u64,
    /// Run a background [`Compactor`] on the live engine (replays never
    /// compact — they are the oracle the tiered engine must match).
    pub compaction: bool,
}

impl SoakConfig {
    /// The small deterministic shape the tier-1 smoke test runs per seed.
    pub fn small(seed: u64, kind: StoreKind, power_cuts: usize) -> SoakConfig {
        SoakConfig {
            seed,
            kind,
            actors: 5,
            txns_per_actor: 8,
            rec_atoms: 8,
            bom_fanout: 2,
            bom_depth: 2,
            power_cuts,
            crash_op_spacing: 30,
            compaction: false,
        }
    }
}

/// SplitMix64: tiny, seedable, fully deterministic.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One journaled operation. Rows are identified by content (the key
/// attribute or the pre-seed index), never by atom id: the journal must
/// replay on a fresh engine whose id sequence it does not control.
#[derive(Clone, Debug)]
pub enum SoakOp {
    /// Insert a brand-new record atom.
    NewRec {
        /// Unique content key (attribute 0).
        key: i64,
        /// Payload.
        val: i64,
        /// Valid extent.
        vt: Interval,
    },
    /// Bitemporal update of pre-seeded record `idx`.
    SetRec {
        /// Index into the pre-seeded record atoms (== its key).
        idx: usize,
        /// New payload.
        val: i64,
        /// Valid extent (below [`VT_NOW`] for correctors).
        vt: Interval,
    },
    /// Logical deletion over a valid extent of pre-seeded record `idx`.
    DelRec {
        /// Index into the pre-seeded record atoms.
        idx: usize,
        /// Deleted extent.
        vt: Interval,
    },
    /// Produce an open queue job.
    NewJob {
        /// Unique job key.
        key: i64,
    },
    /// Claim-and-close the oldest open job; `key` is the row the live run
    /// claimed — the replay must claim the same one.
    Claim {
        /// Key of the row the claim took.
        key: i64,
    },
}

/// One committed transaction: `(tt, scenario index, ops)`.
pub type CommittedTxn = (u64, usize, Vec<SoakOp>);

/// The seeded schema and data every engine (live and replay) starts from.
pub struct SoakWorld {
    /// Record type (`rec(key INT INDEXED, val INT)`).
    pub rec: AtomTypeId,
    /// Queue type (`job(key INT, state INT)`), state 0 = open.
    pub job: AtomTypeId,
    /// BOM part type (type 0, so its component refset points back at itself).
    pub part: AtomTypeId,
    /// The `bom` molecule type.
    pub mol: MoleculeTypeId,
    /// Pre-seeded record atoms; index == key.
    pub recs: Vec<AtomId>,
    /// BOM root assemblies.
    pub roots: Vec<AtomId>,
    /// Transaction time after seeding; the journal starts above it.
    pub base_tt: u64,
}

fn rec_tuple(key: i64, val: i64) -> Tuple {
    Tuple::new(vec![Value::Int(key), Value::Int(val)])
}

fn job_tuple(key: i64, state: i64) -> Tuple {
    Tuple::new(vec![Value::Int(key), Value::Int(state)])
}

/// Seeds the soak schema and base data. Fully deterministic: live and
/// replay engines call this with the same config and must end at the same
/// transaction time with the same atom ids.
pub fn seed_world(db: &Database, cfg: &SoakConfig) -> Result<SoakWorld> {
    // The BOM first: `Bom::create` declares the self-referential part
    // type, which must be type 0 for its component refset to point back
    // at itself.
    let bom = Bom::create(db, 1, cfg.bom_fanout, cfg.bom_depth)?;
    let rec = db.define_atom_type(
        "rec",
        vec![
            AttrDef::new("key", DataType::Int).indexed(),
            AttrDef::new("val", DataType::Int),
        ],
    )?;
    let job = db.define_atom_type(
        "job",
        vec![
            AttrDef::new("key", DataType::Int),
            AttrDef::new("state", DataType::Int),
        ],
    )?;
    let mut txn = db.begin();
    let recs: Vec<AtomId> = (0..cfg.rec_atoms)
        .map(|k| txn.insert_atom(rec, Interval::all(), rec_tuple(k as i64, 0)))
        .collect::<Result<_>>()?;
    txn.commit()?;
    Ok(SoakWorld {
        rec,
        job,
        part: bom.part,
        mol: bom.mol,
        recs,
        roots: bom.roots,
        base_tt: db.now().0,
    })
}

/// Applies one journaled op to a transaction. Returns the claimed key for
/// [`SoakOp::Claim`], `None` otherwise.
fn apply_soak_op(
    db: &Database,
    txn: &mut Txn<'_>,
    world: &SoakWorld,
    op: &SoakOp,
) -> Result<Option<i64>> {
    match op {
        SoakOp::NewRec { key, val, vt } => {
            txn.insert_atom(world.rec, *vt, rec_tuple(*key, *val))?;
            Ok(None)
        }
        SoakOp::SetRec { idx, val, vt } => {
            txn.update(world.recs[*idx], *vt, rec_tuple(*idx as i64, *val))?;
            Ok(None)
        }
        SoakOp::DelRec { idx, vt } => {
            txn.delete(world.recs[*idx], *vt)?;
            Ok(None)
        }
        SoakOp::NewJob { key } => {
            txn.insert_atom(world.job, Interval::all(), job_tuple(*key, 0))?;
            Ok(None)
        }
        SoakOp::Claim { .. } => claim_job(db, txn, world.job),
    }
}

/// Claims the oldest open job: under the job type's stripe, walks the
/// committed atoms in atom-number (insertion) order and rewrites the first
/// whose current tuple at valid time 0 has state 0 to state 1, over that
/// version's whole valid time. Returns the claimed job's key. The live run
/// and the serial replays share this loop, so the oracle checks which row
/// the scan order picks independently of TQL's `UPDATE … CLAIM`.
fn claim_job(db: &Database, txn: &mut Txn<'_>, ty: AtomTypeId) -> Result<Option<i64>> {
    txn.lock_type(ty)?;
    for atom in db.all_atoms(ty)? {
        let cur = txn.current_versions(atom)?;
        let Some(v) = cur.iter().find(|v| v.vt.contains(TimePoint(0))) else {
            continue;
        };
        if v.tuple.get(1) != &Value::Int(0) {
            continue;
        }
        let (vt, mut claimed) = (v.vt, v.tuple.clone());
        claimed.set(1, Value::Int(1));
        let key = match claimed.get(0) {
            Value::Int(k) => *k,
            other => panic!("job key must be an int, got {other:?}"),
        };
        txn.update(atom, vt, claimed)?;
        return Ok(Some(key));
    }
    Ok(None)
}

/// A bounded valid interval strictly below the [`VT_NOW`] watermark — the
/// retroactive corrector's domain.
fn past_vt(rng: &mut Rng) -> Interval {
    let lo = rng.below(VT_NOW - 500);
    let hi = (lo + 1 + rng.below(400)).min(VT_NOW);
    Interval::new(TimePoint(lo), TimePoint(hi)).expect("non-empty past interval")
}

/// A valid interval at or above the watermark — the OLTP domain.
fn live_vt(rng: &mut Rng) -> Interval {
    let lo = VT_NOW + rng.below(4_000);
    if rng.below(4) == 0 {
        Interval::from_start(TimePoint(lo))
    } else {
        let hi = lo + 1 + rng.below(800);
        Interval::new(TimePoint(lo), TimePoint(hi)).expect("non-empty live interval")
    }
}

struct Actor {
    scenario: usize,
    rng: Rng,
    remaining: usize,
    next_key: i64,
    iter: u64,
}

struct LegCtx<'a> {
    db: &'a Database,
    world: &'a SoakWorld,
    journal: &'a Mutex<Vec<CommittedTxn>>,
    /// Commit attempts that errored *inside* `Txn::commit` during a fault
    /// window: the power cut may have struck after the WAL fsync, in which
    /// case the transaction is durable even though the API reported
    /// failure (a classic in-doubt commit). Recovery resolves these
    /// against the recovered store's per-tt effects.
    in_doubt: &'a Mutex<Vec<(usize, Vec<SoakOp>)>>,
    crashed: &'a AtomicBool,
    faults_armed: bool,
    ops: &'a [Counter],
}

/// True when the error is the fault VFS refusing I/O — the actor's signal
/// that the power went out and the leg is over.
fn is_crash(e: &Error) -> bool {
    matches!(e, Error::FaultInjected(_))
}

/// Asserts the planner invariant every reader checks online: versions of
/// one atom at one transaction time never overlap in valid time.
fn assert_nonoverlapping(vs: &[tcom_version::AtomVersion], what: &str) {
    for w in vs.windows(2) {
        assert!(
            !w[0].vt.overlaps(&w[1].vt),
            "{what}: overlapping valid times {:?} / {:?}",
            w[0].vt,
            w[1].vt
        );
    }
}

/// The durable effects of transaction time `tt` in the recovered store:
/// `(inserted, closed)` version facts, each `(type index, atom, tuple,
/// valid interval)`.
type TtEffects = (
    Vec<(usize, AtomId, Tuple, Interval)>,
    Vec<(usize, AtomId, Tuple, Interval)>,
);

fn effects_at(db: &Database, world: &SoakWorld, tt: u64) -> TtEffects {
    let types = [world.rec, world.job, world.part];
    let mut inserted = Vec::new();
    let mut closed = Vec::new();
    for (ti, &ty) in types.iter().enumerate() {
        for atom in db.all_atoms(ty).expect("atoms") {
            for v in db.history(atom).expect("history") {
                if v.tt.start().0 == tt {
                    inserted.push((ti, atom, v.tuple.clone(), v.vt));
                }
                if v.tt.end().0 == tt {
                    closed.push((ti, atom, v.tuple.clone(), v.vt));
                }
            }
        }
    }
    (inserted, closed)
}

/// Whether an in-doubt attempt's content fingerprint is present in the
/// durable effects of one transaction time. Returns `(matches, strong)`:
/// `strong` is true when the attempt carries unique content (fresh keys,
/// random values) rather than only close-side evidence (`DelRec`).
fn attempt_explains(world: &SoakWorld, ops: &[SoakOp], effects: &TtEffects) -> (bool, bool) {
    let (inserted, closed) = effects;
    let mut strong = false;
    for op in ops {
        let ok = match op {
            SoakOp::NewRec { key, val, vt } => {
                strong = true;
                inserted
                    .iter()
                    .any(|(ti, _, t, ivt)| *ti == 0 && *t == rec_tuple(*key, *val) && ivt == vt)
            }
            SoakOp::SetRec { idx, val, vt } => {
                strong = true;
                inserted.iter().any(|(ti, atom, t, ivt)| {
                    *ti == 0
                        && *atom == world.recs[*idx]
                        && *t == rec_tuple(*idx as i64, *val)
                        && ivt.covers(vt)
                })
            }
            SoakOp::NewJob { key } => {
                strong = true;
                inserted
                    .iter()
                    .any(|(ti, _, t, _)| *ti == 1 && *t == job_tuple(*key, 0))
            }
            SoakOp::Claim { key } => {
                strong = true;
                inserted
                    .iter()
                    .any(|(ti, _, t, _)| *ti == 1 && *t == job_tuple(*key, 1))
            }
            // A delete may have planned to nothing (empty overlap) and
            // its closes carry no unique content — evidence is optional.
            SoakOp::DelRec { .. } => true,
        };
        if !ok {
            return (false, strong);
        }
    }
    let _ = closed;
    (true, strong)
}

/// Picks the unique pending in-doubt attempt that the recovered store
/// proves committed at `tt`. Panics when resolution is ambiguous — with
/// unique keys and 20-bit random values, two distinct attempts matching
/// the same effects means the oracle itself is broken.
fn resolve_in_doubt(
    db: &Database,
    world: &SoakWorld,
    tt: u64,
    pending: &[(usize, Vec<SoakOp>)],
) -> usize {
    let effects = effects_at(db, world, tt);
    let mut strong_hits = Vec::new();
    let mut weak_hits = Vec::new();
    for (i, (_, ops)) in pending.iter().enumerate() {
        match attempt_explains(world, ops, &effects) {
            (true, true) => strong_hits.push(i),
            (true, false) => weak_hits.push(i),
            (false, _) => {}
        }
    }
    match (strong_hits.len(), weak_hits.len()) {
        (1, _) => strong_hits[0],
        (0, 1) => weak_hits[0],
        (s, w) => panic!(
            "in-doubt resolution at recovered tt {tt} is ambiguous: \
             {s} strong / {w} weak candidates among {} pending attempts",
            pending.len()
        ),
    }
}

/// One writer transaction for the actor's scenario. `Ok(Some(..))` was
/// committed and journaled by the caller; `Ok(None)` means the attempt
/// was a semantic no-op (empty queue, nothing to delete). `attempt` is
/// set to the op list just before `commit` is entered, so a commit-phase
/// error leaves the caller holding the (possibly durable) in-doubt ops.
fn writer_txn(
    ctx: &LegCtx<'_>,
    actor: &mut Actor,
    attempt: &mut Option<Vec<SoakOp>>,
) -> Result<Option<(u64, Vec<SoakOp>)>> {
    let world = ctx.world;
    let scenario = SCENARIOS[actor.scenario % SCENARIOS.len()];
    let mut ops: Vec<SoakOp> = Vec::new();
    let mut txn = ctx.db.begin();
    match scenario {
        "oltp" => {
            for _ in 0..1 + actor.rng.below(3) {
                let op = match actor.rng.below(6) {
                    0 => {
                        let key = actor.next_key;
                        actor.next_key += 1;
                        SoakOp::NewRec {
                            key,
                            val: actor.rng.below(1_000_000) as i64,
                            vt: live_vt(&mut actor.rng),
                        }
                    }
                    5 => SoakOp::DelRec {
                        idx: actor.rng.below(world.recs.len() as u64) as usize,
                        vt: live_vt(&mut actor.rng),
                    },
                    _ => SoakOp::SetRec {
                        idx: actor.rng.below(world.recs.len() as u64) as usize,
                        val: actor.rng.below(1_000_000) as i64,
                        vt: live_vt(&mut actor.rng),
                    },
                };
                apply_soak_op(ctx.db, &mut txn, world, &op)?;
                ops.push(op);
            }
        }
        "correct" => {
            // Retroactive corrections: rewrite history strictly below the
            // valid-time present (the archive-state warehousing pattern).
            let op = SoakOp::SetRec {
                idx: actor.rng.below(world.recs.len() as u64) as usize,
                val: actor.rng.below(1_000_000) as i64,
                vt: past_vt(&mut actor.rng),
            };
            apply_soak_op(ctx.db, &mut txn, world, &op)?;
            ops.push(op);
        }
        "queue" => {
            if actor.iter.is_multiple_of(2) {
                let key = actor.next_key;
                actor.next_key += 1;
                let op = SoakOp::NewJob { key };
                apply_soak_op(ctx.db, &mut txn, world, &op)?;
                ops.push(op);
            } else {
                match apply_soak_op(ctx.db, &mut txn, world, &SoakOp::Claim { key: 0 })? {
                    Some(key) => ops.push(SoakOp::Claim { key }),
                    None => {
                        txn.abort();
                        return Ok(None);
                    }
                }
            }
        }
        other => unreachable!("not a writer scenario: {other}"),
    }
    if txn.pending_ops() == 0 {
        // A delete over an empty extent nets to nothing; committing would
        // not draw a transaction time, so nothing may be journaled.
        txn.abort();
        return Ok(None);
    }
    *attempt = Some(ops.clone());
    let tt = txn.commit()?;
    *attempt = None;
    Ok(Some((tt.0, ops)))
}

/// One reader operation (analytical ASOF reads or a BOM explosion).
fn reader_op(ctx: &LegCtx<'_>, actor: &mut Actor) -> Result<()> {
    let world = ctx.world;
    let db = ctx.db;
    let now = db.now().0;
    let tt = TimePoint(actor.rng.below(now + 1));
    match SCENARIOS[actor.scenario % SCENARIOS.len()] {
        "asof" => {
            // Point ASOF-TT reads at a sampled past transaction time.
            for _ in 0..3 {
                let atom = world.recs[actor.rng.below(world.recs.len() as u64) as usize];
                let vs = db.versions_at(atom, tt)?;
                assert_nonoverlapping(&vs, "asof versions_at");
            }
            // Snapshot reads through a pinned view: per-atom fetches must
            // be coherent with the pinned published clock.
            let view = db.pin_view();
            for _ in 0..3 {
                let atom = world.recs[actor.rng.below(world.recs.len() as u64) as usize];
                let vs = db.versions_at_view(atom, &view)?;
                assert_nonoverlapping(&vs, "asof view read");
            }
            // And a bitemporal point lookup.
            let atom = world.recs[actor.rng.below(world.recs.len() as u64) as usize];
            let vt = TimePoint(actor.rng.below(2 * VT_NOW));
            let _ = db.version_at(atom, tt, vt)?;
        }
        "bom" => {
            // Recursive explosion of the assembly at a random
            // bitemporal point; the root may predate `tt`.
            let vt = TimePoint(actor.rng.below(2 * VT_NOW));
            let root = world.roots[actor.rng.below(world.roots.len() as u64) as usize];
            if let Some(m) = db.materialize(world.mol, root, tt, vt)? {
                assert!(m.size() >= 1, "materialized molecule without a root");
            }
        }
        other => unreachable!("not a reader scenario: {other}"),
    }
    Ok(())
}

fn run_actor(ctx: &LegCtx<'_>, actor: &mut Actor) {
    let is_writer = matches!(
        SCENARIOS[actor.scenario % SCENARIOS.len()],
        "oltp" | "correct" | "queue"
    );
    let count = &ctx.ops[actor.scenario % SCENARIOS.len()];
    while actor.remaining > 0 && !ctx.crashed.load(Ordering::Acquire) {
        let mut attempt: Option<Vec<SoakOp>> = None;
        let r: Result<bool> = if is_writer {
            writer_txn(ctx, actor, &mut attempt).map(|committed| {
                if let Some((tt, ops)) = committed {
                    ctx.journal.lock().expect("journal poisoned").push((
                        tt,
                        actor.scenario % SCENARIOS.len(),
                        ops,
                    ));
                    true
                } else {
                    false
                }
            })
        } else {
            reader_op(ctx, actor).map(|()| true)
        };
        match r {
            Ok(did_work) => {
                actor.iter += 1;
                actor.remaining -= 1;
                if did_work {
                    count.inc();
                }
            }
            Err(e) if is_wait_die_abort(&e) => {
                // Wait-die victim: nothing applied, nothing burned — retry.
                std::thread::yield_now();
            }
            Err(e) if ctx.faults_armed && is_crash(&e) => {
                if let Some(ops) = attempt.take() {
                    // The error surfaced inside `commit`: the WAL record
                    // may already be durable. Recovery decides its fate.
                    ctx.in_doubt
                        .lock()
                        .expect("in-doubt list poisoned")
                        .push((actor.scenario % SCENARIOS.len(), ops));
                }
                ctx.crashed.store(true, Ordering::Release);
                return;
            }
            Err(e) => panic!("soak actor failed outside a fault window: {e}"),
        }
    }
}

/// Everything a finished run hands to the oracle.
pub struct SoakReport {
    /// The merged journal, sorted by transaction time.
    pub committed: Vec<CommittedTxn>,
    /// Power cuts that struck (each followed by recovery and resume).
    pub crashes: usize,
    /// Per-scenario operation counts (`soak.ops`).
    pub metrics: tcom_core::MetricsSnapshot,
    /// Transaction time after seeding.
    pub base_tt: u64,
    /// Final published transaction time of the live engine.
    pub final_now: u64,
    /// The transaction times the slice oracle sampled.
    pub sample_tts: Vec<u64>,
    /// Canonical ASOF slices of the live engine at `sample_tts`.
    pub slices: Vec<String>,
    /// Compaction cycles the live engine completed (0 unless
    /// [`SoakConfig::compaction`] is set).
    pub compactions: u64,
}

fn soak_db_config(kind: StoreKind) -> DbConfig {
    DbConfig::default()
        .store_kind(kind)
        .buffer_frames(512)
        .checkpoint_interval(0)
        .sync_policy(SyncPolicy::OnCommit)
        .group_commit(true)
}

fn soak_dir(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("tcom-soak-{}-{seq}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("soak dir");
    dir
}

/// Evenly sampled transaction times in `0..=now` (at most ~25 points,
/// always including `now` itself).
fn sample_points(now: u64) -> Vec<u64> {
    let step = (now / 24).max(1);
    let mut tts: Vec<u64> = (0..=now).step_by(step as usize).collect();
    if tts.last() != Some(&now) {
        tts.push(now);
    }
    tts
}

/// The canonical ASOF slice at each sampled transaction time: one line
/// per tt holding the sorted multiset of visible version contents across
/// all three types. Content-keyed — atom ids are excluded; the key
/// attribute carries identity.
fn sample_slices(db: &Database, world: &SoakWorld, tts: &[u64]) -> Vec<String> {
    let types = [world.rec, world.job, world.part];
    tts.iter()
        .map(|&tt| {
            let mut rows: Vec<String> = Vec::new();
            for (ti, &ty) in types.iter().enumerate() {
                for atom in db.all_atoms(ty).expect("atoms") {
                    for v in db.versions_at(atom, TimePoint(tt)).expect("versions") {
                        rows.push(format!("{ti}|{:?}|{:?}|{:?}", v.tuple, v.vt, v.tt));
                    }
                }
            }
            rows.sort();
            format!("tt={tt}::{}", rows.join(";"))
        })
        .collect()
}

/// Runs one live soak: seeding, actor legs, scheduled power cuts with
/// recovery-and-resume, then the slice sampling. Panics on any oracle
/// violation (committed prefix, reader invariants, unexpected errors).
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let dir = soak_dir(&format!("live-{}-{}", cfg.kind, cfg.seed));
    let vfs = FaultVfs::new();
    let registry = Registry::new();
    let ops: Vec<Counter> = SCENARIOS
        .iter()
        .map(|name| registry.counter("soak.ops", name))
        .collect();
    let vfs_handle: Arc<dyn tcom_core::Vfs> = Arc::new(vfs.clone());
    // The live engine may tier closed history in the background; the
    // replays never do, so the slice oracle compares a compacted engine
    // against uncompacted twins. Aggressive knobs make the thread fire
    // many cycles inside even a short run.
    let live_cfg = || {
        let c = soak_db_config(cfg.kind);
        if cfg.compaction {
            c.compaction(true)
                .compact_min_closed(16)
                .compact_interval_ms(5)
        } else {
            c
        }
    };

    let mut db = Arc::new(
        Database::open_with_vfs(&dir, live_cfg(), vfs_handle.clone()).expect("open soak db"),
    );
    let mut compactor = cfg.compaction.then(|| Compactor::spawn(db.clone()));
    let world = seed_world(&db, cfg).expect("seed world");

    let mut actors: Vec<Actor> = (0..cfg.actors)
        .map(|i| Actor {
            scenario: i % SCENARIOS.len(),
            rng: Rng::new(cfg.seed.wrapping_mul(1_000).wrapping_add(i as u64)),
            remaining: cfg.txns_per_actor,
            next_key: 1_000_000 * (i as i64 + 1),
            iter: 0,
        })
        .collect();

    let journal: Mutex<Vec<CommittedTxn>> = Mutex::new(Vec::new());
    let in_doubt: Mutex<Vec<(usize, Vec<SoakOp>)>> = Mutex::new(Vec::new());
    let mut crashes = 0usize;
    let mut cuts_left = cfg.power_cuts;
    loop {
        if cuts_left > 0 {
            vfs.power_cut_at(vfs.mut_ops() + cfg.crash_op_spacing);
        }
        let crashed = AtomicBool::new(false);
        let ctx = LegCtx {
            db: db.as_ref(),
            world: &world,
            journal: &journal,
            in_doubt: &in_doubt,
            crashed: &crashed,
            faults_armed: cuts_left > 0,
            ops: &ops,
        };
        std::thread::scope(|s| {
            for actor in actors.iter_mut() {
                let ctx = &ctx;
                s.spawn(move || run_actor(ctx, actor));
            }
        });
        if vfs.crashed() {
            // Power cut: discard the in-memory engine without its shutdown
            // checkpoint, "reboot the disk", and recover from WAL.
            crashes += 1;
            cuts_left -= 1;
            // Stop (and join) the compactor first: it holds the only other
            // engine handle, and a cut may have struck mid-compaction —
            // recovery must land on the pre- or post-swap image either way.
            drop(compactor.take());
            Arc::try_unwrap(db)
                .ok()
                .expect("compactor joined; sole engine handle remains")
                .crash();
            vfs.reset_after_crash();
            db = Arc::new(
                crate::reopen::reopen(&dir, live_cfg(), vfs_handle.clone())
                    .expect("reopen after power cut"),
            );
            compactor = cfg.compaction.then(|| Compactor::spawn(db.clone()));
            // Committed-prefix oracle: every transaction whose commit was
            // *reported* must survive, and every recovered tt above the
            // journal must be accounted for by an in-doubt commit attempt
            // (one whose `commit` call errored after the power cut — its
            // WAL record may have been made durable by the group-commit
            // fsync before the fault surfaced). Resolution matches each
            // unexplained tt against the unique attempt whose content
            // fingerprint (keys, values) the recovered store carries.
            {
                let mut j = journal.lock().expect("journal poisoned");
                let max_tt = j.iter().map(|c| c.0).max().unwrap_or(world.base_tt);
                let now_tt = db.now().0;
                assert!(
                    now_tt >= max_tt,
                    "durability violation: reported commit tt {max_tt} lost \
                     (recovered clock {now_tt})"
                );
                // An in-doubt tt is not necessarily above the journal max:
                // a younger commit can succeed (all its pages resident)
                // while an older one errors on post-fsync I/O, leaving a
                // gap *inside* the journaled range. Resolve every gap.
                let journaled: std::collections::HashSet<u64> = j.iter().map(|c| c.0).collect();
                let mut pending =
                    std::mem::take(&mut *in_doubt.lock().expect("in-doubt list poisoned"));
                for tt in world.base_tt + 1..=now_tt {
                    if journaled.contains(&tt) {
                        continue;
                    }
                    let i = resolve_in_doubt(&db, &world, tt, &pending);
                    let (scenario, ops) = pending.remove(i);
                    j.push((tt, scenario, ops));
                }
                // Whatever remains was torn away before durability — a
                // cleanly failed commit; nothing to journal.
            }
            assert!(
                db.verify_integrity().expect("integrity sweep").is_ok(),
                "recovered store failed the integrity sweep"
            );
            continue;
        }
        break;
    }
    // Never-struck cuts must not ambush the shutdown checkpoint.
    vfs.set_schedule(FaultSchedule::default());

    // Force one last archival sweep so the sampled slices are guaranteed
    // to read through segments regardless of background timing — the
    // replay oracle then compares a tiered engine against flat twins.
    if cfg.compaction {
        drop(compactor.take());
        db.compact_all().expect("final compaction sweep");
    }
    let compactions = if cfg.compaction {
        db.metrics().counter("segment.compactions")
    } else {
        0
    };

    let mut committed = journal.into_inner().expect("journal poisoned");
    committed.sort_by_key(|c| c.0);
    let final_now = db.now().0;
    let sample_tts = sample_points(final_now);
    let slices = sample_slices(&db, &world, &sample_tts);
    drop(compactor);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    SoakReport {
        committed,
        crashes,
        metrics: registry.snapshot(),
        base_tt: world.base_tt,
        final_now,
        sample_tts,
        slices,
        compactions,
    }
}

/// Serially replays a journal on a fresh engine of `kind`, asserting the
/// model draws the live run's transaction times and claims the live run's
/// rows, and returns its sampled slices.
fn replay_slices(cfg: &SoakConfig, kind: StoreKind, report: &SoakReport) -> Vec<String> {
    let dir = soak_dir(&format!("replay-{kind}-{}", cfg.seed));
    let vfs: std::sync::Arc<dyn tcom_core::Vfs> = std::sync::Arc::new(FaultVfs::new());
    let db = Database::open_with_vfs(&dir, soak_db_config(kind), vfs).expect("open replay db");
    let world = seed_world(&db, cfg).expect("seed replay world");
    assert_eq!(
        world.base_tt, report.base_tt,
        "replay seeding must draw the live run's base transaction time"
    );
    for (tt, _, ops) in &report.committed {
        let mut txn = db.begin();
        for op in ops {
            let claimed = apply_soak_op(&db, &mut txn, &world, op)
                .expect("journaled op must re-apply in serial replay");
            if let SoakOp::Claim { key } = op {
                assert_eq!(
                    claimed,
                    Some(*key),
                    "serial replay must claim the live run's row"
                );
            }
        }
        assert!(txn.pending_ops() > 0, "journaled txn replayed to a no-op");
        let got = txn.commit().expect("replay commit");
        assert_eq!(got.0, *tt, "replay must draw the live run's commit tt");
    }
    assert_eq!(db.now().0, report.final_now, "replay clock mismatch");
    let slices = sample_slices(&db, &world, &report.sample_tts);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    slices
}

/// The post-run invariant oracle: the journal's transaction times are
/// consecutive above the seed, and a serial replay on **each of the three
/// store kinds** draws identical transaction times and produces ASOF
/// slices byte-identical to the live engine's at every sampled timestamp.
pub fn verify_soak(cfg: &SoakConfig, report: &SoakReport) {
    for (i, c) in report.committed.iter().enumerate() {
        assert_eq!(
            c.0,
            report.base_tt + 1 + i as u64,
            "seed {} kind {}: journaled transaction times must be consecutive above the seed (crashes: {})",
            cfg.seed,
            cfg.kind,
            report.crashes
        );
    }
    for kind in [StoreKind::Chain, StoreKind::Delta, StoreKind::Split] {
        let slices = replay_slices(cfg, kind, report);
        assert_eq!(
            slices.len(),
            report.slices.len(),
            "{kind}: sampled slice count diverged"
        );
        for (got, want) in slices.iter().zip(&report.slices) {
            assert_eq!(got, want, "{kind}: ASOF slice diverged from live run");
        }
    }
}

/// The CAD bill-of-materials shape: a recursive `part` type whose
/// `components` refset points back at itself, and complete part trees.
struct Bom {
    part: AtomTypeId,
    /// The `bom` molecule type (part → part over `components`).
    mol: MoleculeTypeId,
    roots: Vec<AtomId>,
}

impl Bom {
    /// Builds `n_roots` assemblies as complete `fanout`-ary trees of the
    /// given `depth` (leaves at depth 1).
    fn create(db: &Database, n_roots: usize, fanout: usize, depth: usize) -> Result<Bom> {
        let part = db.define_atom_type(
            "part",
            vec![
                AttrDef::new("name", DataType::Text).not_null(),
                AttrDef::new("mass", DataType::Int),
                AttrDef::new("components", DataType::RefSet(AtomTypeId(0))),
            ],
        )?;
        let mol = db.define_molecule_type(
            "bom",
            part,
            vec![MoleculeEdge {
                from: part,
                attr: AttrId(2),
                to: part,
            }],
            Some(depth as u32 + 1),
        )?;
        let mut roots = Vec::new();
        for r in 0..n_roots {
            let mut txn = db.begin();
            roots.push(build_tree(
                &mut txn,
                part,
                &format!("asm{r}"),
                fanout,
                depth,
            )?);
            txn.commit()?;
        }
        Ok(Bom { part, mol, roots })
    }
}

fn build_tree(
    txn: &mut Txn<'_>,
    part: AtomTypeId,
    name: &str,
    fanout: usize,
    depth: usize,
) -> Result<AtomId> {
    let children: Vec<AtomId> = if depth <= 1 {
        Vec::new()
    } else {
        (0..fanout)
            .map(|i| build_tree(txn, part, &format!("{name}.{i}"), fanout, depth - 1))
            .collect::<Result<_>>()?
    };
    txn.insert_atom(
        part,
        Interval::all(),
        Tuple::new(vec![
            Value::from(name),
            Value::Int(depth as i64 * 100),
            Value::ref_set(children),
        ]),
    )
}
