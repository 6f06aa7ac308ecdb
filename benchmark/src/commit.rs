//! `commit.embedded`: durable single- and few-row write transactions on
//! the university database, with auto-checkpoints and the background
//! compactor running, so their stalls fall inside the window.
//!
//! Flush policy: `SyncPolicy::OnCommit` with group commit on (the engine
//! default) — a commit is acknowledged after its WAL records are fsynced.

use crate::host;
use crate::layers::Layers;
use crate::rng::{Rng, Schedule, SCHEDULE_CYCLE};
use crate::run::{
    describe, drive, end_to_end, repeat_setup, summarize, Config, Limit, Outcome, Step, Window,
};
use crate::tql::{select, Complaints};
use crate::trace::{Harvest, Tracer};
use crate::university::{
    self as uni, digest, emp_tuple, setup, Emp, Loaded, Step as Salary, University,
};
use crate::util::{median, percentile, tuple_bytes, Res};
use serde_json::json;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;
use tcom_core::{
    is_wait_die_abort, Compactor, Database, DbConfig, Interval, StoreKind, SyncPolicy, TimePoint,
};
use tcom_query::{apply_statement, parse_statement, run_statement, StatementOutput};
use tcom_wal::{record::LogRecord, Wal};

pub const POOL_FRAMES: usize = 4096;
/// Commits between auto-checkpoints: low enough that several checkpoint
/// cycles fall inside one window.
pub const CHECKPOINT_INTERVAL: u64 = 500;
const CLASSES: [&str; 4] = ["select", "insert", "txn10", "update"];
/// Shares in percent, in class order: indexed `SELECT` of the key just
/// written, TQL `INSERT`, ten-update `Txn`, one-row TQL `UPDATE`. The
/// median lies among the single-fsync writes; the `UPDATE`, which scans the
/// type for its row, is the slow two fifths and holds the 95th percentile.
const MIX: [usize; 4] = [20, 20, 20, 40];
const TXN_UPDATES: usize = 10;
/// Nominal operations per second, for sizing warm-up and traced runs.
const OPS_PER_S: u64 = 150;
/// Appends timed against the scratch WAL.
const WAL_PROBES: usize = 40;

fn config() -> DbConfig {
    DbConfig::default()
        .store_kind(StoreKind::Split)
        .buffer_frames(POOL_FRAMES)
        .sync_policy(SyncPolicy::OnCommit)
        .group_commit(true)
        .checkpoint_interval(CHECKPOINT_INTERVAL)
        .compaction(true)
}

enum Op {
    Select { k: usize },
    Insert { salary: i64 },
    Txn { raises: Vec<(usize, i64)> },
    Update { k: usize, salary: i64 },
}

struct Runner<'a> {
    db: &'a Database,
    uni: &'a mut University,
    /// Employees present after set-up; only these carry projects.
    loaded: usize,
    last_written: usize,
    schedule: Schedule,
    touched: BTreeSet<usize>,
    commits: u64,
    user_bytes: u64,
    retries: u64,
    complaints: Complaints,
}

impl Runner<'_> {
    fn draw(&self, class: u8, rng: &mut Rng) -> Op {
        let salary = rng.range(300, 9000) as i64;
        match class {
            0 => Op::Select {
                k: self.last_written,
            },
            1 => Op::Insert { salary },
            2 => {
                let mut ks = BTreeSet::new();
                while ks.len() < TXN_UPDATES {
                    ks.insert(rng.below(self.loaded as u64) as usize);
                }
                Op::Txn {
                    raises: ks
                        .into_iter()
                        .map(|k| (k, rng.range(300, 9000) as i64))
                        .collect(),
                }
            }
            _ => Op::Update {
                k: rng.below(self.uni.emps.len() as u64) as usize,
                salary,
            },
        }
    }

    /// Runs one DML statement as its own transaction. Untraced this is
    /// `run_statement`; traced it is the calls `run_statement` makes, with
    /// a span around parse, staging and commit.
    fn dml(&mut self, sql: &str, tr: &mut Tracer) -> Res<StatementOutput> {
        if !tr.on() {
            return Ok(run_statement(self.db, sql)?);
        }
        let s = tr.begin("query.parse");
        let stmt = parse_statement(sql);
        tr.end(s);
        let mut txn = self.db.begin();
        let s = tr.begin("txn.stage");
        let applied = apply_statement(self.db, &mut txn, stmt?);
        tr.end(s);
        let applied = applied?;
        let s = tr.begin("txn.commit");
        let tt = txn.commit();
        tr.end(s);
        let tt = tt?;
        Ok(match applied {
            tcom_query::StatementApply::Inserted(a) => StatementOutput::Inserted(a, tt),
            tcom_query::StatementApply::Modified(n) => StatementOutput::Modified(n, tt),
        })
    }

    fn txn(&mut self, raises: &[(usize, i64)], tr: &mut Tracer) -> Res<u64> {
        let mut txn = self.db.begin();
        for &(k, salary) in raises {
            let e = &self.uni.emps[k];
            let s = tr.begin("txn.stage");
            let staged = txn.update(
                e.atom,
                Interval::from_start(TimePoint(e.hire)),
                e.tuple(salary),
            );
            tr.end(s);
            staged?;
        }
        let s = tr.begin("txn.commit");
        let tt = txn.commit();
        tr.end(s);
        Ok(tt?.0)
    }

    /// Executes `op` once; `Ok(false)` means the answer was wrong.
    fn attempt(&mut self, op: &Op, tr: &mut Tracer) -> Res<bool> {
        match op {
            Op::Select { k } => {
                let e = &self.uni.emps[*k];
                let sql = format!(
                    "SELECT name, salary FROM emp WHERE badge = {} VALID AT 1000",
                    e.badge
                );
                let out = select(self.db, &sql, tr)?;
                Ok(digest(&out, self.uni) == (1, self.uni.emps[*k].current_salary()))
            }
            Op::Insert { salary } => {
                let badge = self.uni.emps.len() as i64;
                let hire = badge as u64 % uni::HIRE_SPAN;
                let sql = format!(
                    "INSERT INTO emp (name, salary, badge, team) VALUES ('emp-{badge}', {salary}, \
                     {badge}, {}) VALID FROM {hire}",
                    badge / uni::TEAM as i64
                );
                let StatementOutput::Inserted(atom, tt) = self.dml(&sql, tr)? else {
                    return Ok(false);
                };
                self.user_bytes += tuple_bytes(&emp_tuple(badge, *salary, None));
                self.uni.emps.push(Emp {
                    atom,
                    badge,
                    hire,
                    projs: None,
                    steps: vec![Salary {
                        tt: tt.0,
                        from_vt: hire,
                        salary: *salary,
                    }],
                });
                self.wrote(badge as usize);
                Ok(true)
            }
            Op::Txn { raises } => {
                let tt = self.txn(raises, tr)?;
                for &(k, salary) in raises {
                    self.user_bytes += tuple_bytes(&self.uni.emps[k].tuple(salary));
                    self.acknowledge(k, tt, salary);
                }
                Ok(true)
            }
            Op::Update { k, salary } => {
                let sql = format!(
                    "UPDATE emp SET salary = {salary} WHERE badge = {}",
                    self.uni.emps[*k].badge
                );
                let StatementOutput::Modified(n, tt) = self.dml(&sql, tr)? else {
                    return Ok(false);
                };
                self.user_bytes += tuple_bytes(&self.uni.emps[*k].tuple(*salary));
                self.acknowledge(*k, tt.0, *salary);
                Ok(n == 1)
            }
        }
    }

    fn acknowledge(&mut self, k: usize, tt: u64, salary: i64) {
        let e = &mut self.uni.emps[k];
        e.steps.push(Salary {
            tt,
            from_vt: e.hire,
            salary,
        });
        self.wrote(k);
    }

    fn wrote(&mut self, k: usize) {
        self.last_written = k;
        self.touched.insert(k);
    }

    fn step(&mut self, rng: &mut Rng, tr: &mut Tracer) -> Res<Step> {
        let class = self.schedule.next(rng);
        let op = self.draw(class, rng);
        let span = tr.begin("op");
        let t0 = Instant::now();
        // A compaction swap holds every commit stripe as the oldest
        // transaction, so a writer arriving meanwhile is told to retry
        // (wait-die). The retries are part of the operation's latency.
        let result = loop {
            match self.attempt(&op, tr) {
                Err(e) if is_engine_wait_die(e.as_ref()) => {
                    self.retries += 1;
                    std::thread::yield_now();
                }
                other => break other,
            }
        };
        if class != 0 && result.is_ok() {
            self.commits += 1;
        }
        let ns = t0.elapsed().as_nanos() as u64;
        tr.end(span);
        let ok = result.unwrap_or_else(|e| {
            self.complaints.note(CLASSES[class as usize], &e);
            false
        });
        Ok(Step { class, ns, ok })
    }
}

fn is_engine_wait_die(e: &(dyn std::error::Error + Send + Sync + 'static)) -> bool {
    e.downcast_ref::<tcom_core::Error>()
        .is_some_and(is_wait_die_abort)
}

/// Median µs of `append_commit` + fsync on a scratch WAL beside the
/// database, fed a version record of the observed tuple size: the floor
/// the sandbox's flush sets under every commit.
fn wal_append_sync_us(l: &Loaded) -> Res<f64> {
    let path = l.dir.join("scratch-wal.log");
    let wal = Wal::open(&path, SyncPolicy::OnCommit)?;
    let e = &l.uni.emps[0];
    let mut us = Vec::with_capacity(WAL_PROBES);
    for i in 0..WAL_PROBES {
        let rec = LogRecord::InsertVersion {
            txn: tcom_kernel::TxnId(i as u64),
            atom: e.atom,
            vt: Interval::all(),
            tt_start: TimePoint(i as u64),
            tuple: e.tuple(i as i64),
        };
        let t0 = Instant::now();
        wal.append_commit(&rec)?;
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(wal);
    let _ = std::fs::remove_file(&path);
    Ok(median(&us))
}

/// Mean µs per operation spent above the class median by operations that
/// took over ten times that median while a checkpoint or compaction span
/// was open.
fn stall_us(w: &Window, background: &[(u64, u64)]) -> f64 {
    let mut medians = [0u64; CLASSES.len()];
    for (c, m) in medians.iter_mut().enumerate() {
        let mut lat: Vec<u64> = w
            .samples
            .iter()
            .filter(|&&(k, _)| k as usize == c)
            .map(|&(_, ns)| ns)
            .collect();
        lat.sort_unstable();
        *m = percentile(&lat, 50.0);
    }
    let mut stalled = 0u64;
    for (&(class, ns), &end) in w.samples.iter().zip(&w.ends_ns) {
        let m = medians[class as usize];
        let start = end.saturating_sub(ns);
        if ns > 10 * m && background.iter().any(|&(s, e)| s < end && start < e) {
            stalled += ns - m;
        }
    }
    stalled as f64 / 1e3 / w.samples.len().max(1) as f64
}

/// Durability check: drops the database without its shutdown checkpoint,
/// reopens it (recovery replays the WAL) and re-reads the last acknowledged
/// salary of every key written. Returns how many were not read back.
///
/// `Database::crash` keeps the operating system's cache, so this shows that
/// every acknowledged commit reached the log, not that the log reached the
/// device; a power cut is the job of `crates/core/tests/recovery.rs`.
fn lost_after_crash(
    db: Database,
    dir: &std::path::Path,
    uni: &University,
    touched: &BTreeSet<usize>,
) -> Res<u64> {
    db.crash();
    let db = Database::open(dir, config().compaction(false))?;
    let mut lost = 0;
    for &k in touched {
        let e = &uni.emps[k];
        let sql = format!(
            "SELECT name, salary FROM emp WHERE badge = {} VALID AT 1000",
            e.badge
        );
        let got = run_statement(&db, &sql).map(|out| digest(&out, uni));
        if got.ok() != Some((1, e.current_salary())) {
            lost += 1;
        }
    }
    Ok(lost)
}

pub fn run(cfg: &Config) -> Res<Outcome> {
    // One writer plus the background compactor.
    let threads = 2;
    host::require_threads(threads)?;
    let ((mut l, mut compactor), setup_s) = repeat_setup(
        cfg,
        |round| {
            let l = setup(
                &cfg.dir,
                &format!("commit-{round}"),
                cfg.seed,
                false,
                cfg.size(uni::DEPTS, 4),
                config(),
            )?;
            let compactor = Compactor::spawn(l.db.clone());
            Ok((l, compactor))
        },
        |(l, compactor)| {
            drop(compactor);
            let _ = std::fs::remove_dir_all(&l.dir);
        },
    )?;
    let db = l.db.clone();
    let loaded_emps = l.uni.emps.len();
    let mut runner = Runner {
        db: &db,
        loaded: loaded_emps,
        last_written: 0,
        schedule: Schedule::new(&MIX),
        touched: BTreeSet::new(),
        commits: 0,
        user_bytes: 0,
        retries: 0,
        complaints: Complaints::new(),
        uni: &mut l.uni,
    };

    let mut off = Tracer::new(false);
    let mut warm_rng = Rng::new(cfg.seed, 2);
    let warm = drive(Limit::Ops(cfg.warmup_ops(OPS_PER_S)), &mut off, |_, tr| {
        runner.step(&mut warm_rng, tr)
    })?;
    let mut report = vec![format!(
        "data: {loaded_emps} emps, split store, {} pages in a {POOL_FRAMES}-frame pool; OnCommit + group commit, \
         checkpoint every {CHECKPOINT_INTERVAL} commits, compactor on; {threads} threads; warm-up {} ops",
        l.pages,
        warm.samples.len()
    )];
    let sizing = json!({
        "pool_frames": POOL_FRAMES,
        "data_pages": l.pages,
        "data_to_pool": l.pages as f64 / POOL_FRAMES as f64,
        "threads": threads,
        "emps": loaded_emps,
        "checkpoint_interval": CHECKPOINT_INTERVAL
    });

    let mut rng = Rng::new(cfg.seed, 3);
    let outcome = if cfg.trace {
        let ops = cfg.traced_ops(OPS_PER_S);
        let plain = drive(Limit::Ops(ops), &mut off, |_, tr| runner.step(&mut rng, tr))?;
        let plain = summarize(&plain, &CLASSES, SCHEDULE_CYCLE);

        let before = db.metrics();
        let (commits0, bytes0, retries0) = (runner.commits, runner.user_bytes, runner.retries);
        let harvest = Harvest::install(&db);
        let mut tracer = Tracer::new(true);
        let w = drive(Limit::Ops(ops), &mut tracer, |_, tr| {
            runner.step(&mut rng, tr)
        })?;
        db.obs().set_span_sink(None);
        tracer.adopt(&harvest);
        let delta = db.metrics().delta(&before);
        let traced = summarize(&w, &CLASSES, SCHEDULE_CYCLE);
        let txns = (runner.commits - commits0).max(1);

        let mut layers = Layers::default();
        layers.set_storage(std::slice::from_ref(&delta), ops);
        layers.set_span_median("query.parse_us", &tracer, &["query.parse"]);
        layers.set_span_median("query.plan_us", &tracer, &["query.plan"]);
        layers.set_span_median("query.exec_us", &tracer, &["query.exec"]);
        // Per transaction, not per span: a ten-update transaction stages
        // ten times and an `UPDATE ... WHERE` once, at very different cost.
        layers.set_span_mean("txn.stage_us", &tracer, "txn.stage", txns);
        layers.set_span_mean("txn.commit_us", &tracer, "txn.commit", txns);
        layers.set("txn.stripe_waits", delta.counter("txn.stripe_waits") as f64);
        layers.set("txn.wait_die_retries", (runner.retries - retries0) as f64);
        layers.set(
            "wal.fsyncs_per_commit",
            delta.counter("wal.fsyncs") as f64 / txns as f64,
        );
        layers.set(
            "wal.bytes_per_user_byte",
            delta.counter("wal.bytes") as f64 / (runner.user_bytes - bytes0).max(1) as f64,
        );
        let checkpoints = tracer.engine_spans("db.checkpoint");
        let compactions = tracer.engine_spans("db.compact");
        let busy_ms =
            |spans: &[(u64, u64)]| spans.iter().map(|(s, e)| e - s).sum::<u64>() as f64 / 1e6;
        layers.set("core.checkpoint.busy_ms", busy_ms(&checkpoints));
        layers.set("core.compact.busy_ms", busy_ms(&compactions));
        let background: Vec<(u64, u64)> = checkpoints.iter().chain(&compactions).copied().collect();
        layers.set("commit.stall_us", stall_us(&w, &background));
        layers.set_segments(std::slice::from_ref(&delta), &db.metrics());
        report.push(format!(
            "traced run: {ops} ops, untraced then traced; {} checkpoints ({:.1} ms), {} compactions ({:.1} ms, \
             each ending in a checkpoint), {} wait-die retries in the traced window",
            checkpoints.len(),
            busy_ms(&checkpoints),
            compactions.len(),
            busy_ms(&compactions),
            runner.retries - retries0
        ));
        layers.set_passes(&mut report, &tracer, ops, &plain, &traced);
        (w, layers, Some(tracer.to_json()))
    } else {
        let w = drive(Limit::Seconds(cfg.seconds), &mut off, |_, tr| {
            runner.step(&mut rng, tr)
        })?;
        (w, Layers::default(), None)
    };

    let touched = std::mem::take(&mut runner.touched);
    let retries = runner.retries;
    drop(runner);
    compactor.stop();
    let wal_floor = if cfg.trace {
        wal_append_sync_us(&l)?
    } else {
        0.0
    };
    drop(db);
    let db = Arc::try_unwrap(l.db).map_err(|_| "database still shared at crash time")?;
    let lost = lost_after_crash(db, &l.dir, &l.uni, &touched)?;
    let _ = std::fs::remove_dir_all(&l.dir);

    let (w, mut layers, trace) = outcome;
    report.push(format!(
        "durability: crash + reopen, {} written keys re-read, {lost} lost; {retries} wait-die retries in all",
        touched.len()
    ));
    let metrics = if cfg.trace {
        layers.set("wal.append_sync_us", wal_floor);
        layers.into_metrics()
    } else {
        let s = summarize(&w, &CLASSES, SCHEDULE_CYCLE);
        report.extend(describe(&s));
        end_to_end(&s, l.space_amp, &setup_s)
    };
    Ok(Outcome {
        attempted: w.samples.len() as u64,
        failed: w.failed + lost,
        metrics,
        report,
        sizing,
        trace,
    })
}
