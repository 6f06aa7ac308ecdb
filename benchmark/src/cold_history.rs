//! `cold-history.embedded`: the paper's own comparison. Three databases —
//! chain, delta, split — receive the same deterministic history, the older
//! part of it compacted into segments, and are reopened with a pool an
//! eighth of their size or less. Every operation is issued to all three in
//! turn, so each kind sees the same operations and the answers can be
//! compared with each other and with the generator's model.

use crate::host;
use crate::layers::{query_own_share, Layers};
use crate::rng::{Rng, Schedule, SCHEDULE_CYCLE};
use crate::run::{
    describe, drive, end_to_end, repeat_setup, summarize, Config, Limit, Outcome, Step,
};
use crate::tql::{asof_core_read, select, Complaints};
use crate::trace::Tracer;
use crate::util::{dir_bytes, tuple_bytes, Res};
use serde_json::json;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tcom_client::proto::enc_output;
use tcom_core::{
    AtomId, AtomNo, AtomTypeId, Database, DbConfig, Interval, MoleculeTypeId, StoreKind,
    SyncPolicy, TimePoint, Tuple, Value,
};
use tcom_query::{prepare, run_statement, QueryOutput, StatementOutput};
use tcom_version::record::AtomVersion;

pub const KINDS: [StoreKind; 3] = [StoreKind::Chain, StoreKind::Delta, StoreKind::Split];
/// Parts and update rounds at full size (`--smoke` loads fewer).
pub const PARTS: usize = 500;
pub const PARTS_PER_ASM: usize = 10;
pub const ROUNDS: usize = 16;
pub const PHASES: usize = 8;
/// Phases followed by a compaction. The newest two stay in the heaps, so
/// reads of recent transaction times walk the version stores and reads of
/// older ones go through segment fences and decode.
pub const COMPACTED_PHASES: usize = 6;
pub const POOL_FRAMES: usize = 16;
/// Pool the data is loaded through before the reopen.
const LOAD_FRAMES: usize = 4096;
/// Updates per load transaction.
const LOAD_TXN: usize = 250;
const OP_NAMES: [&str; 4] = ["versions_at", "molecule", "slice", "history"];
/// Shares in percent, in class order. Sorted by cost the operations run
/// versions_at < chain/split slice < molecule < history < delta slice (the
/// delta store reconstructs every version and is slower by far), so the
/// median lies inside the per-atom class, the 95th percentile inside the
/// history class, and the delta slices — 3 % of operations — weigh on
/// `ops_per_s` and p99.
const MIX: [usize; 4] = [66, 12, 9, 13];
/// Bands the history is cut into for drawing transaction times: the whole-type
/// slices of one schedule cycle, so every window slice spreads its slices
/// evenly over the history.
const TT_STRATA: u64 = 9;
/// Nominal operations per second, for sizing warm-up and traced runs.
const OPS_PER_S: u64 = 300;

/// The tuple of part `k` after update round `r`: every round bumps `rev`
/// and rewrites one of four weights.
fn part_tuple(k: usize, r: usize) -> Tuple {
    let weight = |j: usize| {
        // The round that last wrote weight j, at or before r.
        let last = (0..=r).rev().find(|q| q % 4 == j).unwrap_or(0);
        Value::Int(((k * 31 + j * 7 + last * 131) % 100_000) as i64)
    };
    Tuple::new(vec![
        Value::Int(k as i64),
        Value::Int(r as i64),
        weight(0),
        weight(1),
        weight(2),
        weight(3),
        Value::from(format!(
            "part-{k:05}-{:016x}",
            (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        )),
    ])
}

/// The tuple of assembly `a` after phase `p`: each phase bumps `rev`.
fn asm_tuple(a: usize, p: usize, members: &[AtomId]) -> Tuple {
    Tuple::new(vec![
        Value::Int(a as i64),
        Value::Int(p as i64),
        Value::ref_set(members.iter().copied()),
    ])
}

/// Sum of the INT values of a tuple or row — the checksum unit.
fn int_sum(values: &[Value]) -> i64 {
    values
        .iter()
        .map(|v| if let Value::Int(i) = v { *i } else { 0 })
        .sum()
}

/// What the generator knows about the history it wrote.
#[derive(PartialEq)]
struct Model {
    parts: usize,
    rounds: usize,
    /// `tts[k][r]`: transaction time at which part `k` got round `r`.
    tts: Vec<Vec<u64>>,
    /// `asm_tts[p]`: transaction time at which every assembly got revision
    /// `p` (revision 0 is the insert; each load phase adds one).
    asm_tts: Vec<u64>,
    last_tt: u64,
    user_bytes: u64,
}

impl Model {
    /// The round of part `k` visible at transaction time `t`.
    fn round_at(&self, k: usize, t: u64) -> Option<usize> {
        self.tts[k].partition_point(|&tt| tt <= t).checked_sub(1)
    }

    /// The revision of every assembly visible at transaction time `t`.
    fn asm_rev_at(&self, t: u64) -> Option<usize> {
        self.asm_tts.partition_point(|&tt| tt <= t).checked_sub(1)
    }
}

struct Store {
    kind: StoreKind,
    db: Database,
    dir: PathBuf,
    bytes: u64,
}

struct Ids {
    part_ty: AtomTypeId,
    asm_ty: AtomTypeId,
    mol: MoleculeTypeId,
}

fn load_config(kind: StoreKind) -> DbConfig {
    DbConfig::default()
        .store_kind(kind)
        .buffer_frames(LOAD_FRAMES)
        .sync_policy(SyncPolicy::OnCheckpoint)
        .checkpoint_interval(0)
}

/// Writes the history into a fresh database of `kind` and returns the
/// model of what was written.
fn load(dir: &Path, kind: StoreKind, seed: u64, parts: usize, rounds: usize) -> Res<Model> {
    let db = Database::open(dir, load_config(kind))?;
    for ddl in [
        "CREATE TYPE part (key INT INDEXED, rev INT, w0 INT, w1 INT, w2 INT, w3 INT, note TEXT)",
        "CREATE TYPE asm (key INT INDEXED, rev INT, parts REFSET(part))",
        "CREATE MOLECULE asm_mol ROOT asm (asm.parts TO part)",
    ] {
        run_statement(&db, ddl)?;
    }
    let part_ty = db.atom_type_id("part")?;
    let asm_ty = db.atom_type_id("asm")?;
    let mut rng = Rng::new(seed, 1);
    let mut m = Model {
        parts,
        rounds,
        tts: vec![Vec::with_capacity(rounds + 1); parts],
        asm_tts: Vec::new(),
        last_tt: 0,
        user_bytes: 0,
    };

    let mut atoms = Vec::with_capacity(parts);
    for chunk in (0..parts).collect::<Vec<_>>().chunks(LOAD_TXN) {
        let mut txn = db.begin();
        for &k in chunk {
            let t = part_tuple(k, 0);
            m.user_bytes += tuple_bytes(&t);
            atoms.push(txn.insert_atom(part_ty, Interval::all(), t)?);
        }
        let tt = txn.commit()?.0;
        for &k in chunk {
            m.tts[k].push(tt);
        }
    }
    let members = |a: usize| &atoms[a * PARTS_PER_ASM..(a + 1) * PARTS_PER_ASM];
    let mut txn = db.begin();
    let mut asms = Vec::with_capacity(parts / PARTS_PER_ASM);
    for a in 0..parts / PARTS_PER_ASM {
        let t = asm_tuple(a, 0, members(a));
        m.user_bytes += tuple_bytes(&t);
        asms.push(txn.insert_atom(asm_ty, Interval::all(), t)?);
    }
    m.asm_tts.push(txn.commit()?.0);

    let per_phase = rounds / PHASES;
    for phase in 0..PHASES {
        for r in phase * per_phase + 1..=(phase + 1) * per_phase {
            let mut order: Vec<usize> = (0..parts).collect();
            rng.shuffle(&mut order);
            for chunk in order.chunks(LOAD_TXN) {
                let mut txn = db.begin();
                for &k in chunk {
                    let t = part_tuple(k, r);
                    m.user_bytes += tuple_bytes(&t);
                    txn.update(atoms[k], Interval::all(), t)?;
                }
                let tt = txn.commit()?.0;
                for &k in chunk {
                    m.tts[k].push(tt);
                }
            }
        }
        let mut txn = db.begin();
        for (a, &atom) in asms.iter().enumerate() {
            let t = asm_tuple(a, phase + 1, members(a));
            m.user_bytes += tuple_bytes(&t);
            txn.update(atom, Interval::all(), t)?;
        }
        m.asm_tts.push(txn.commit()?.0);
        if phase < COMPACTED_PHASES {
            db.compact_all()?;
        }
    }
    m.last_tt = db.now().0;
    db.checkpoint()?;
    Ok(m)
}

/// Loads all three kinds, checks they received the same history, and
/// reopens each through the small pool.
fn setup(parent: &Path, round: usize, cfg: &Config) -> Res<(Vec<Store>, Model)> {
    let mut model: Option<Model> = None;
    let mut stores = Vec::new();
    for kind in KINDS {
        let dir = parent.join(format!("cold-{round}-{kind}"));
        let _ = std::fs::remove_dir_all(&dir);
        let m = load(
            &dir,
            kind,
            cfg.seed,
            cfg.size(PARTS, 200),
            cfg.size(ROUNDS, 8),
        )?;
        match &model {
            None => model = Some(m),
            Some(first) if *first != m => {
                return Err(format!("{kind} store drew a different history").into())
            }
            Some(_) => {}
        }
        let bytes = dir_bytes(&dir)?;
        let db = Database::open(
            &dir,
            DbConfig::default()
                .store_kind(kind)
                .buffer_frames(POOL_FRAMES),
        )?;
        stores.push(Store {
            kind,
            db,
            dir,
            bytes,
        });
    }
    Ok((stores, model.expect("three kinds")))
}

fn remove(stores: Vec<Store>) {
    for s in stores {
        drop(s.db);
        let _ = std::fs::remove_dir_all(&s.dir);
    }
}

#[derive(Clone, Copy)]
enum Op {
    VersionsAt { k: usize, t: u64 },
    Molecule { a: usize, t: u64 },
    Slice { t: u64 },
    History { a: usize },
}

impl Op {
    /// `nth` counts the operations of this class drawn so far. The
    /// transaction time is drawn from the `nth % TT_STRATA`-th band of the
    /// history: what a read costs depends on how far back it reaches (heap
    /// walk or segment decode), and nine consecutive draws of a class then
    /// always cover the whole history once.
    fn draw(class: u8, nth: u64, rng: &mut Rng, m: &Model) -> Op {
        let band = nth % TT_STRATA;
        let t = 1 + (band * m.last_tt + rng.below(m.last_tt)) / TT_STRATA;
        let k = rng.below(m.parts as u64) as usize;
        match class {
            0 => Op::VersionsAt { k, t },
            1 => Op::Molecule {
                a: k / PARTS_PER_ASM,
                t,
            },
            2 => Op::Slice { t },
            _ => Op::History {
                a: k / PARTS_PER_ASM,
            },
        }
    }

    fn class(&self) -> usize {
        match self {
            Op::VersionsAt { .. } => 0,
            Op::Molecule { .. } => 1,
            Op::Slice { .. } => 2,
            Op::History { .. } => 3,
        }
    }

    fn sql(&self) -> Option<String> {
        match self {
            Op::VersionsAt { .. } => None,
            Op::Molecule { a, t } => Some(format!(
                "SELECT MOLECULE FROM asm_mol WHERE root.key = {a} VALID AT 0 ASOF TT {t}"
            )),
            Op::Slice { t } => Some(format!("SELECT * FROM part ASOF TT {t}")),
            Op::History { a } => Some(format!("SELECT HISTORY FROM asm a WHERE a.key = {a}")),
        }
    }

    /// `(size, checksum)` the model expects: versions (or molecule atoms)
    /// returned, and the sum of their INT values.
    fn expected(&self, m: &Model) -> (u64, i64) {
        let part_sum =
            |k: usize, t: u64| m.round_at(k, t).map(|r| int_sum(part_tuple(k, r).values()));
        match *self {
            Op::VersionsAt { k, t } => part_sum(k, t).map_or((0, 0), |s| (1, s)),
            Op::Molecule { a, t } => {
                let Some(rev) = m.asm_rev_at(t) else {
                    return (0, 0);
                };
                let parts: Vec<i64> = (a * PARTS_PER_ASM..(a + 1) * PARTS_PER_ASM)
                    .filter_map(|k| part_sum(k, t))
                    .collect();
                (
                    1 + parts.len() as u64,
                    (a + rev) as i64 + parts.iter().sum::<i64>(),
                )
            }
            Op::Slice { t } => {
                let rows: Vec<i64> = (0..m.parts).filter_map(|k| part_sum(k, t)).collect();
                (rows.len() as u64, rows.iter().sum())
            }
            Op::History { a } => (
                m.asm_tts.len() as u64,
                (0..m.asm_tts.len()).map(|p| (a + p) as i64).sum(),
            ),
        }
    }
}

/// An answer in the form the kinds are compared in.
#[derive(PartialEq)]
enum Answer {
    Versions(Vec<AtomVersion>),
    /// Wire encoding of a statement's output.
    Encoded(Vec<u8>),
}

/// What an operation returned, before it is digested.
enum Raw {
    Versions(Vec<AtomVersion>),
    Output(StatementOutput),
}

fn digest_versions<'a>(vs: impl Iterator<Item = &'a AtomVersion>) -> (u64, i64) {
    vs.fold((0, 0), |(n, s), v| (n + 1, s + int_sum(v.tuple.values())))
}

fn digest_output(out: &StatementOutput) -> (u64, i64) {
    let StatementOutput::Query(q) = out else {
        return (u64::MAX, 0);
    };
    match q {
        QueryOutput::Rows { rows, .. } => rows
            .iter()
            .fold((0, 0), |(n, s), r| (n + 1, s + int_sum(&r.values))),
        QueryOutput::Histories(hs) => digest_versions(hs.iter().flat_map(|(_, vs)| vs)),
        QueryOutput::Molecules(ms) => {
            let (mut n, mut s) = (0u64, 0i64);
            for m in ms {
                m.root.visit(&mut |a| {
                    n += 1;
                    s += int_sum(a.version.tuple.values());
                });
            }
            (n, s)
        }
        QueryOutput::Aggregate { .. } => (u64::MAX, 0),
    }
}

struct Runner<'a> {
    stores: &'a [Store],
    ids: Ids,
    model: &'a Model,
    schedule: Schedule,
    /// Operations drawn so far, per class.
    drawn: [u64; 4],
    /// The operation the current group of three is issuing, with the first
    /// kind's answer.
    group: Option<(Op, Option<Answer>)>,
    cross_kind_mismatches: u64,
    complaints: Complaints,
}

impl Runner<'_> {
    /// Atom numbers are handed out from 0 in insertion order, the same in
    /// all three databases.
    fn part(&self, k: usize) -> AtomId {
        AtomId::new(self.ids.part_ty, AtomNo(k as u64))
    }

    /// Back to the start of the class schedule, for a pass that must issue
    /// the same sequence as another.
    fn restart(&mut self) {
        self.group = None;
        self.schedule = Schedule::new(&MIX);
        self.drawn = [0; 4];
    }

    /// Operation `i` goes to kind `i % 3`; a new operation is drawn every
    /// third step.
    fn step(&mut self, i: u64, rng: &mut Rng, tr: &mut Tracer) -> Res<Step> {
        let kind = (i % 3) as usize;
        if kind == 0 || self.group.is_none() {
            let class = self.schedule.next(rng);
            let nth = self.drawn[class as usize];
            self.drawn[class as usize] += 1;
            self.group = Some((Op::draw(class, nth, rng, self.model), None));
        }
        let op = self.group.as_ref().expect("group set").0;
        let db = &self.stores[kind].db;
        let sql = op.sql();

        let span = tr.begin(match op {
            Op::VersionsAt { .. } => "op.versions_at",
            _ => "op.run_statement",
        });
        let t0 = Instant::now();
        let raw: Res<Raw> = match (&op, &sql) {
            (Op::VersionsAt { k, t }, _) => {
                let s = tr.begin("core.read");
                let vs = db.versions_at(self.part(*k), TimePoint(*t));
                tr.end(s);
                vs.map(Raw::Versions).map_err(Into::into)
            }
            (_, Some(sql)) => select(db, sql, tr).map(Raw::Output),
            (_, None) => unreachable!("every other class is a statement"),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        tr.end(span);

        let result = raw.map(|raw| match raw {
            Raw::Versions(vs) => {
                let d = digest_versions(vs.iter());
                (Answer::Versions(vs), d)
            }
            Raw::Output(out) => (Answer::Encoded(enc_output(&out)), digest_output(&out)),
        });
        let ok = match result {
            Ok((answer, got)) => {
                let mut ok = got == op.expected(self.model);
                let first = &mut self.group.as_mut().expect("group set").1;
                match first {
                    None => *first = Some(answer),
                    Some(f) if *f != answer => {
                        self.cross_kind_mismatches += 1;
                        ok = false;
                    }
                    Some(_) => {}
                }
                ok
            }
            Err(e) => {
                self.complaints
                    .note(&sql.unwrap_or_else(|| "versions_at".into()), &e);
                false
            }
        };
        if tr.on() {
            self.shadow_core_read(&op, db, tr)?;
        }
        Ok(Step {
            class: (kind * OP_NAMES.len() + op.class()) as u8,
            ns,
            ok,
        })
    }

    /// The logical reads behind a statement, issued straight at `Database`
    /// the way the executor issues them: `HISTORY` and `MOLECULE ... ASOF`
    /// cannot use a value index, so both visit every atom of the type.
    fn shadow_core_read(&self, op: &Op, db: &Database, tr: &mut Tracer) -> Res<()> {
        let Some(sql) = op.sql() else {
            // `versions_at` already is a direct read.
            return Ok(());
        };
        let access = prepare(db, &sql)?.access;
        let s = tr.begin("shadow.core.read");
        match *op {
            Op::VersionsAt { .. } => {}
            Op::Molecule { a, t } => {
                let (tt, vt) = (TimePoint(t), TimePoint(0));
                for root in db.all_atoms(self.ids.asm_ty)? {
                    std::hint::black_box(db.version_at(root, tt, vt)?);
                }
                let root = AtomId::new(self.ids.asm_ty, AtomNo(a as u64));
                std::hint::black_box(db.materialize(self.ids.mol, root, tt, vt)?);
            }
            Op::Slice { t } => asof_core_read(db, self.ids.part_ty, TimePoint(t), &access)?,
            Op::History { .. } => {
                for atom in db.all_atoms(self.ids.asm_ty)? {
                    std::hint::black_box(db.history(atom)?);
                }
            }
        }
        tr.end(s);
        Ok(())
    }
}

pub fn run(cfg: &Config) -> Res<Outcome> {
    host::require_threads(1)?;
    let cpu = host::pin_to_one_cpu();
    let ((stores, model), setup_s) = repeat_setup(
        cfg,
        |round| setup(&cfg.dir, round, cfg),
        |(stores, _)| remove(stores),
    )?;

    let pages: Vec<u64> = stores.iter().map(|s| s.bytes / host::PAGE).collect();
    for (s, &p) in stores.iter().zip(&pages) {
        if p < 8 * POOL_FRAMES as u64 && !cfg.smoke {
            return Err(format!(
                "sizing guard: {} store is {p} pages, under 8x the {POOL_FRAMES}-frame pool",
                s.kind
            )
            .into());
        }
    }
    let total_bytes: u64 = stores.iter().map(|s| s.bytes).sum();
    let space_amp = total_bytes as f64 / (3 * model.user_bytes) as f64;

    let db0 = &stores[0].db;
    let ids = Ids {
        part_ty: db0.atom_type_id("part")?,
        asm_ty: db0.atom_type_id("asm")?,
        mol: db0.molecule_type_id("asm_mol")?,
    };
    let mut runner = Runner {
        stores: &stores,
        ids,
        model: &model,
        schedule: Schedule::new(&MIX),
        drawn: [0; 4],
        group: None,
        cross_kind_mismatches: 0,
        complaints: Complaints::new(),
    };
    let class_names: Vec<String> = KINDS
        .iter()
        .flat_map(|k| OP_NAMES.iter().map(move |o| format!("{k}.{o}")))
        .collect();
    let class_refs: Vec<&str> = class_names.iter().map(String::as_str).collect();

    let mut off = Tracer::new(false);
    let mut warm_rng = Rng::new(cfg.seed, 2);
    let warm_ops = cfg.warmup_ops(OPS_PER_S);
    let warm = drive(Limit::Ops(warm_ops), &mut off, |i, tr| {
        runner.step(i, &mut warm_rng, tr)
    })?;
    runner.restart();

    let mut report = vec![
        format!(
            "data: {} parts x {} update rounds in {PHASES} phases ({COMPACTED_PHASES} compacted), \
             {} assemblies; {POOL_FRAMES}-frame pool; 1 thread pinned to cpu {cpu:?}; warm-up {} ops",
            model.parts,
            model.rounds,
            model.parts / PARTS_PER_ASM,
            warm.samples.len()
        ),
        format!(
            "pages per store: chain {} delta {} split {} (data/pool {:.1} / {:.1} / {:.1}); \
             space_amp per kind {:.2} / {:.2} / {:.2}",
            pages[0],
            pages[1],
            pages[2],
            pages[0] as f64 / POOL_FRAMES as f64,
            pages[1] as f64 / POOL_FRAMES as f64,
            pages[2] as f64 / POOL_FRAMES as f64,
            stores[0].bytes as f64 / model.user_bytes as f64,
            stores[1].bytes as f64 / model.user_bytes as f64,
            stores[2].bytes as f64 / model.user_bytes as f64,
        ),
    ];
    let sizing = json!({
        "pool_frames": POOL_FRAMES,
        "pages_per_store": json!({"chain": pages[0], "delta": pages[1], "split": pages[2]}),
        "data_to_pool": pages.iter().map(|&p| p as f64 / POOL_FRAMES as f64).collect::<Vec<_>>(),
        "threads": 1,
        "pinned_cpu": cpu.map(|c| c as u64),
        "parts": model.parts,
        "rounds": model.rounds
    });

    let outcome = if cfg.trace {
        let ops = cfg.traced_ops(OPS_PER_S);
        // The same operation sequence twice: untraced, then traced. Counters
        // are taken around the untraced pass, which issues nothing but the
        // operations themselves.
        let before: Vec<_> = stores.iter().map(|s| s.db.metrics()).collect();
        let mut rng = Rng::new(cfg.seed, 3);
        let plain = drive(Limit::Ops(ops), &mut off, |i, tr| {
            runner.step(i, &mut rng, tr)
        })?;
        let deltas: Vec<_> = stores
            .iter()
            .zip(&before)
            .map(|(s, b)| s.db.metrics().delta(b))
            .collect();
        let plain = summarize(&plain, &class_refs, 3 * SCHEDULE_CYCLE);
        runner.restart();

        let mut tracer = Tracer::new(true);
        let mut rng = Rng::new(cfg.seed, 3);
        let w = drive(Limit::Ops(ops), &mut tracer, |i, tr| {
            runner.step(i, &mut rng, tr)
        })?;
        let traced = summarize(&w, &class_refs, 3 * SCHEDULE_CYCLE);

        let mut layers = Layers::default();
        layers.set_storage(&deltas, ops);
        layers.set_span_median("query.parse_us", &tracer, &["query.parse"]);
        layers.set_span_median("query.plan_us", &tracer, &["query.plan"]);
        layers.set_span_median("query.exec_us", &tracer, &["query.exec"]);
        layers.set_span_median("core.read_us", &tracer, &["core.read", "shadow.core.read"]);
        let per_kind = ops as f64 / 3.0;
        for (kind, (op_us, pages_per_op)) in [
            ("version.chain.op_us", "version.chain.pages_per_op"),
            ("version.delta.op_us", "version.delta.pages_per_op"),
            ("version.split.op_us", "version.split.pages_per_op"),
        ]
        .into_iter()
        .enumerate()
        {
            let busy: u64 = w
                .samples
                .iter()
                .filter(|&&(c, _)| c as usize / OP_NAMES.len() == kind)
                .map(|&(_, ns)| ns)
                .sum();
            layers.set(op_us, busy as f64 / 1e3 / per_kind);
            layers.set(
                pages_per_op,
                deltas[kind].counter("pool.misses") as f64 / per_kind,
            );
        }
        layers.set(
            "store.chain_steps_per_op",
            deltas[0].counter("store.chain_steps") as f64 / per_kind,
        );
        layers.set(
            "store.delta_reconstructions_per_op",
            deltas[1].counter("store.delta_reconstructions") as f64 / per_kind,
        );
        layers.set_segments(&deltas, &stores[0].db.metrics());
        let sum = |name: &str| deltas.iter().map(|d| d.counter(name)).sum::<u64>();
        report.push(format!("traced run: {ops} ops, untraced then traced"));
        report.push(format!(
            "counts: pool misses chain {} delta {} split {}; chain steps {}; delta reconstructions {}; \
             segment reads {} skips {}",
            deltas[0].counter("pool.misses"),
            deltas[1].counter("pool.misses"),
            deltas[2].counter("pool.misses"),
            deltas[0].counter("store.chain_steps"),
            deltas[1].counter("store.delta_reconstructions"),
            sum("segment.reads"),
            sum("segment.skips"),
        ));
        layers.set_passes(&mut report, &tracer, ops, &plain, &traced);
        report.push(query_own_share(&tracer));
        Outcome {
            attempted: w.samples.len() as u64,
            failed: w.failed,
            metrics: layers.into_metrics(),
            report,
            sizing,
            trace: Some(tracer.to_json()),
        }
    } else {
        let mut rng = Rng::new(cfg.seed, 3);
        let w = drive(Limit::Seconds(cfg.seconds), &mut off, |i, tr| {
            runner.step(i, &mut rng, tr)
        })?;
        let s = summarize(&w, &class_refs, 3 * SCHEDULE_CYCLE);
        report.extend(describe(&s));
        Outcome {
            attempted: s.n,
            failed: w.failed,
            metrics: end_to_end(&s, space_amp, &setup_s),
            report,
            sizing,
            trace: None,
        }
    };
    let mut outcome = outcome;
    outcome.report.push(format!(
        "answers differing between store kinds: {}",
        runner.cross_kind_mismatches
    ));
    drop(runner);
    remove(stores);
    Ok(outcome)
}
