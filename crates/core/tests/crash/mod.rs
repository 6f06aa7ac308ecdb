//! One crash matrix: a power cut at every mutating op of a scenario's
//! window, over the deterministic fault-injection VFS.
//!
//! A [`Scenario`] row supplies a configuration, a setup, its steps, an
//! observation of the database and what of its acknowledged steps must
//! survive. [`matrix`] first runs the steps against an unarmed
//! [`FaultVfs`] (the *golden* run) to learn the window of mutating ops and
//! the observation and clock after every step. Then, for every op index
//! of the window, it runs them again with a power cut armed there: the
//! file system discards every byte written since its file's last sync,
//! the database is reopened on the surviving bytes under [`reopen`]'s
//! deadline, and recovery must land on the state after `m` steps, with
//! the clock at it, for some `m` from what must be durable up to one past
//! the acknowledged steps (the `+ 1` is a step whose commit point became
//! durable before the cut) — never a torn hybrid, never an unlogged
//! write. Every cut must also surface as a failed step and leave a
//! directory that passes the integrity sweep, holds one WAL segment and
//! answers every type's index-backed slices as per-atom walks do.
//!
//! `TCOM_CRASH_SAMPLE=k` strides every matrix (a cut at every k-th op) to
//! bound CI wall-clock; the default cuts at every op.

use crate::reopen::reopen;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tcom_core::{AtomTypeId, Database, DbConfig, FaultVfs, Result, StoreKind, TimePoint};

pub fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-recov-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// What recovery must keep of the acknowledged steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Durable {
    /// All of them: each step syncs its commit point before it returns.
    Acked,
    /// The state the last completed flush wrote, and any tt-prefix of the
    /// steps logged since (under `SyncPolicy::OnCheckpoint` a commit only
    /// logs): a commit may be durable only if every earlier one is.
    Flushed,
}

/// One step of a scenario: a commit, a checkpoint, DDL, a kill and
/// reopen, …
pub type Step<S> = Box<dyn Fn(&mut Live<S>) -> Result<()>>;

/// `n` steps, step `k` calling `f(live, k)`.
pub fn steps<S: 'static>(n: usize, f: fn(&mut Live<S>, usize) -> Result<()>) -> Vec<Step<S>> {
    (0..n)
        .map(|k| -> Step<S> { Box::new(move |live| f(live, k)) })
        .collect()
}

/// One row of the matrix.
pub struct Scenario<S> {
    /// Names the row's directories and messages.
    pub name: String,
    pub cfg: fn(StoreKind) -> DbConfig,
    /// Runs on the freshly opened database, before every step; returns
    /// what the steps and the row's check work on.
    pub setup: fn(&Database) -> S,
    pub steps: Vec<Step<S>>,
    /// The steps before this one run in every cut run, but are never cut.
    pub cut_from: usize,
    /// Renders what recovery must preserve; equal renderings are equal
    /// states.
    pub observe: fn(&Database) -> Vec<String>,
    pub durable: Durable,
    /// The fewest mutating ops the window must hold.
    pub min_window: u64,
    /// The fewest steps of the window that must flush pages.
    pub min_flushes: usize,
    /// The row's own checks on a reopened database, given what `observe`
    /// rendered of it.
    pub check: fn(&Live<S>, &[String]),
}

impl<S> Scenario<S> {
    /// A row whose every acknowledged step is durable, observed by
    /// [`dump_all`], with no checks of its own.
    pub fn new(
        name: impl Into<String>,
        cfg: fn(StoreKind) -> DbConfig,
        setup: fn(&Database) -> S,
        steps: Vec<Step<S>>,
    ) -> Scenario<S> {
        Scenario {
            name: name.into(),
            cfg,
            setup,
            steps,
            cut_from: 0,
            observe: dump_all,
            durable: Durable::Acked,
            min_window: 1,
            min_flushes: 0,
            check: |_, _| {},
        }
    }
}

/// A scenario's database while its steps run.
pub struct Live<S> {
    /// `None` once a step's reopen failed, or after a crash.
    db: Option<Database>,
    pub dir: PathBuf,
    pub vfs: FaultVfs,
    pub kind: StoreKind,
    cfg: DbConfig,
    pub s: S,
    /// Kills and reopens so far: each reopen's checkpoint flushes.
    reopens: usize,
}

impl<S> Live<S> {
    fn open(kind: StoreKind, sc: &Scenario<S>, tag: &str) -> Live<S> {
        let dir = tmpdir(tag);
        let vfs = FaultVfs::new();
        let cfg = (sc.cfg)(kind);
        let db = Database::open_with_vfs(&dir, cfg, Arc::new(vfs.clone())).unwrap();
        let s = (sc.setup)(&db);
        Live {
            db: Some(db),
            dir,
            vfs,
            kind,
            cfg,
            s,
            reopens: 0,
        }
    }

    pub fn db(&self) -> &Database {
        self.db.as_ref().expect("the database is open")
    }

    /// The database and the scenario's state, the latter mutable.
    pub fn parts(&mut self) -> (&Database, &mut S) {
        (self.db.as_ref().expect("the database is open"), &mut self.s)
    }

    /// A process kill, no power loss (the page cache keeps every byte
    /// written), then a reopen: recovery runs inside it.
    pub fn kill_and_reopen(&mut self) -> Result<()> {
        self.crash();
        self.db = Some(reopen(&self.dir, self.cfg, Arc::new(self.vfs.clone()))?);
        self.reopens += 1;
        Ok(())
    }

    /// Drops the database without its shutdown checkpoint.
    fn crash(&mut self) {
        if let Some(db) = self.db.take() {
            db.crash();
        }
    }
}

impl<S> Drop for Live<S> {
    fn drop(&mut self) {
        self.crash();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What the uncut run learned.
pub struct Golden {
    /// Mutating ops before the window's first step.
    pub op_base: u64,
    /// Mutating ops after the last step.
    pub op_end: u64,
    /// `states[k]`: the observation after `k` steps.
    states: Vec<Vec<String>>,
    /// `clocks[k]`: the published clock after `k` steps.
    clocks: Vec<TimePoint>,
    /// `flushed[k]`: step `k` wrote pages back, or replaced the database
    /// by a reopen, so the state after `k` steps was on disk before it
    /// returned.
    flushed: Vec<bool>,
}

/// The uncut run: every step must succeed, and leave a database that
/// passes the integrity sweep and holds one WAL segment. It ends with a
/// kill and reopen, which must recover the last state, again with one
/// WAL segment.
pub fn golden<S>(kind: StoreKind, sc: &Scenario<S>) -> Golden {
    let mut live = Live::open(kind, sc, &format!("{}-{kind}-golden", sc.name));
    let mut states = vec![(sc.observe)(live.db())];
    let mut clocks = vec![live.db().now()];
    let mut flushed = Vec::with_capacity(sc.steps.len());
    let mut op_base = live.vfs.mut_ops();
    for (k, step) in sc.steps.iter().enumerate() {
        if k == sc.cut_from {
            op_base = live.vfs.mut_ops();
        }
        // A reopen's pool counts from zero, so a step that reopened
        // flushed whatever the counts say.
        let (writebacks, reopens) = (live.db().buffer_stats().writebacks, live.reopens);
        step(&mut live).unwrap_or_else(|e| panic!("{} [{kind}]: uncut step {k}: {e}", sc.name));
        flushed.push(live.reopens > reopens || live.db().buffer_stats().writebacks > writebacks);
        states.push((sc.observe)(live.db()));
        clocks.push(live.db().now());
    }
    let op_end = live.vfs.mut_ops();
    let window = op_end - op_base;
    assert!(
        window >= sc.min_window,
        "{} [{kind}]: a window of {window} ops, fewer than {}",
        sc.name,
        sc.min_window
    );
    let flushes = flushed[sc.cut_from..].iter().filter(|&&f| f).count();
    assert!(
        flushes >= sc.min_flushes,
        "{} [{kind}]: {flushes} steps of the window flushed, fewer than {}",
        sc.name,
        sc.min_flushes
    );

    let report = live.db().verify_integrity().unwrap();
    assert!(
        report.is_ok(),
        "{} [{kind}]: integrity violations after the steps: {:?}",
        sc.name,
        report.violations
    );
    // The last state with one WAL segment, before and after a kill.
    let last = (states.last().unwrap().clone(), *clocks.last().unwrap());
    let settled = |live: &Live<S>, when: &str| {
        let db = live.db();
        let what = format!("{} [{kind}] {when}", sc.name);
        assert_eq!(((sc.observe)(db), db.now()), last, "{what}: the last state");
        let segments = wal_segments(&live.vfs, &live.dir);
        assert_eq!(segments.len(), 1, "{what}: WAL segments: {segments:?}");
    };
    settled(&live, "after the steps");
    live.kill_and_reopen().unwrap();
    settled(&live, "after a kill and reopen");
    Golden {
        op_base,
        op_end,
        states,
        clocks,
        flushed,
    }
}

impl Golden {
    /// The observation after `k` steps.
    pub fn state(&self, k: usize) -> &[String] {
        &self.states[k]
    }

    /// The fewest steps whose state must survive a cut after `acked`
    /// acknowledged steps.
    pub fn floor(&self, durable: Durable, acked: usize) -> usize {
        match durable {
            Durable::Acked => acked,
            Durable::Flushed => (0..acked).filter(|&k| self.flushed[k]).max().unwrap_or(0),
        }
    }
}

/// What one cut left.
pub struct Cut {
    /// Steps that returned `Ok`.
    pub acked: usize,
    /// A hash of every durable byte after the cut.
    pub fingerprint: u64,
    /// The op counter after the cut.
    pub ops_at_crash: u64,
}

/// One cell of the matrix: arm a power cut at mutating op `j`, run the
/// steps until one fails, reopen on the surviving bytes, and judge.
pub fn cut<S>(kind: StoreKind, sc: &Scenario<S>, g: &Golden, j: u64) -> Cut {
    let what = format!("{} [{kind}] cut at op {j}", sc.name);
    let mut live = Live::open(kind, sc, &format!("{}-{kind}-p{j}", sc.name));
    let mut acked = 0;
    for (k, step) in sc.steps.iter().enumerate() {
        if k == sc.cut_from {
            assert_eq!(
                live.vfs.mut_ops(),
                g.op_base,
                "{what}: the I/O before the window is deterministic"
            );
            live.vfs.power_cut_at(j);
        }
        if step(&mut live).is_err() {
            break;
        }
        acked += 1;
    }
    live.crash();
    assert!(
        live.vfs.crashed(),
        "{what}: the cut inside the window fires"
    );
    assert!(
        acked < sc.steps.len(),
        "{what}: the cut surfaces as a failed step"
    );
    let out = Cut {
        acked,
        fingerprint: live.vfs.durable_fingerprint(),
        ops_at_crash: live.vfs.mut_ops(),
    };

    // Reopen on exactly the durable bytes; recovery runs inside open.
    live.vfs.reset_after_crash();
    live.db = Some(reopen(&live.dir, live.cfg, Arc::new(live.vfs.clone())).unwrap());
    let db = live.db();
    let (got, now) = ((sc.observe)(db), db.now());
    let lo = g.floor(sc.durable, acked);
    let hi = (acked + 1).min(sc.steps.len());
    assert!(
        (lo..=hi).any(|m| g.states[m] == got && g.clocks[m] == now),
        "{what}: recovered the state after none of steps {lo}..={hi} (acked {acked}), \
         clock {now}\ngot:\n  {}\nwant after {acked} (clock {}):\n  {}",
        got.join("\n  "),
        g.clocks[acked],
        g.states[acked].join("\n  "),
    );
    let report = db.verify_integrity().unwrap();
    assert!(
        report.is_ok(),
        "{what}: integrity violations after recovery: {:?}",
        report.violations
    );
    // No WAL segment below the control file's watermark is left: the
    // reopen's checkpoint removes the ones it read, and the control file
    // names those a cut checkpoint retired but did not remove, so the one
    // segment it rolled to is all that remains.
    let segments = wal_segments(&live.vfs, &live.dir);
    assert_eq!(segments.len(), 1, "{what}: WAL segments left: {segments:?}");
    for ty in db.with_catalog(|c| c.atom_types().iter().map(|t| t.id).collect::<Vec<_>>()) {
        assert_slices_agree(db, ty, &what);
    }
    (sc.check)(&live, &got);
    out
}

/// Every row runs through here: the golden run, then a cut at every
/// `TCOM_CRASH_SAMPLE`-th op of its window. Returns the golden run.
pub fn matrix<S>(kind: StoreKind, sc: &Scenario<S>) -> Golden {
    let g = golden(kind, sc);
    let mut cuts = 0;
    for j in (g.op_base..g.op_end).step_by(crash_sample()) {
        cut(kind, sc, &g, j);
        cuts += 1;
    }
    eprintln!(
        "{} [{kind}]: {cuts} cuts over a window of {} ops",
        sc.name,
        g.op_end - g.op_base
    );
    g
}

fn crash_sample() -> usize {
    std::env::var("TCOM_CRASH_SAMPLE")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&k| k >= 1)
        .unwrap_or(1)
}

/// The WAL segment files present in `dir`, by first LSN.
pub fn wal_segments(vfs: &FaultVfs, dir: &Path) -> Vec<PathBuf> {
    vfs.paths()
        .into_iter()
        .filter(|p| p.parent() == Some(dir))
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("wal."))
        .collect()
}

/// Full bitemporal dump of every atom of `ty`: one line per recorded
/// version with its exact vt/tt coordinates and tuple. Sorted, so two
/// dumps are comparable regardless of replay order.
pub fn dump(db: &Database, ty: AtomTypeId) -> Vec<String> {
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

/// The catalog's atom and molecule types, then the [`dump`] of every atom
/// type.
pub fn dump_all(db: &Database) -> Vec<String> {
    let (names, types) = db.with_catalog(|c| {
        let types: Vec<&str> = c.atom_types().iter().map(|t| t.name.as_str()).collect();
        let mols: Vec<&str> = c.molecule_types().iter().map(|m| m.name.as_str()).collect();
        let ids: Vec<AtomTypeId> = c.atom_types().iter().map(|t| t.id).collect();
        (format!("types={types:?} molecules={mols:?}"), ids)
    });
    let mut out = vec![names];
    for ty in types {
        out.extend(dump(db, ty));
    }
    out
}

/// The index-backed slice of `ty` must agree with per-atom walks at every
/// transaction time, and at `FOREVER`: nothing rebuilds the time index
/// after recovery, so replay must have kept it. The walks go atom by
/// atom, each at every transaction time, so a small pool reads an atom's
/// pages once rather than once per transaction time.
pub fn assert_slices_agree(db: &Database, ty: AtomTypeId, what: &str) {
    let tts: Vec<TimePoint> = (0..=db.now().0 + 1)
        .map(TimePoint)
        .chain([TimePoint::FOREVER])
        .collect();
    let mut walked = vec![Vec::new(); tts.len()];
    for atom in db.all_atoms(ty).unwrap() {
        for (walk, &tt) in walked.iter_mut().zip(&tts) {
            let vs = db.versions_at(atom, tt).unwrap();
            if !vs.is_empty() {
                walk.push((atom.no, vs));
            }
        }
    }
    for (walked, tt) in walked.into_iter().zip(tts) {
        let mut sliced = Vec::new();
        db.slice_at(ty, tt, &mut |no, vs| {
            sliced.push((no, vs));
            Ok(true)
        })
        .unwrap();
        assert_eq!(
            sliced, walked,
            "{what}: the slice of type #{} at tt {tt} disagrees with the walks",
            ty.0
        );
    }
}
