//! `hot-query.embedded` and `hot-query.wire`: TQL reads over a university
//! database that fits the buffer pool four times over. The same seeded
//! statement sequence runs either through `run_statement` or through one
//! `Client` session against a loopback `Server`.

use crate::host;
use crate::layers::{query_own_share, Layers};
use crate::rng::{Rng, Schedule, SCHEDULE_CYCLE};
use crate::run::{
    describe, drive, end_to_end, repeat_setup, summarize, Config, Limit, Outcome, Step,
};
use crate::tql::{asof_core_read, select, Complaints};
use crate::trace::Tracer;
use crate::university::{self as uni, digest, setup, University};
use crate::util::{median, Res};
use serde_json::json;
use std::time::Instant;
use tcom_client::proto::{dec_output, enc_output, enc_str};
use tcom_client::Client;
use tcom_core::{AttrId, Database, DbConfig, StoreKind, TimePoint};
use tcom_kernel::frame::{Frame, FrameKind};
use tcom_query::{explain_analyze, prepare, run_statement, StatementOutput};
use tcom_server::{Server, ServerConfig};
use tcom_storage::keys::encode_value;

pub const POOL_FRAMES: usize = 4096;
pub const CLASSES: [&str; 4] = ["point", "asof", "count", "molecule"];
/// Shares in percent, in class order. Sorted by cost the classes run point <
/// count < molecule < asof, so the median lies inside the point class (at
/// its 64th percentile), the 95th percentile inside the molecule class (at
/// its 75th), and the `ASOF TT` lookup — which slices the whole type and
/// costs a thousand point lookups — shows in `ops_per_s` and p99 without
/// owning every metric.
const MIX: [usize; 4] = [78, 2, 8, 12];
/// Valid-time window width of the aggregate statement.
const COUNT_WINDOW: u64 = 60;
/// Nominal operations per second, for sizing warm-up and traced runs.
const OPS_PER_S: u64 = 1500;
/// Every n-th wire answer is compared byte for byte with the embedded one.
const WIRE_CHECK_EVERY: u64 = 16;
/// Statements sampled through `explain_analyze` in a traced run.
const EXPLAIN_SAMPLE: u64 = 200;

enum Op {
    Point { k: usize, vt: u64 },
    Asof { k: usize, vt: u64, tt: u64 },
    Count { team: usize, x: u64 },
    Molecule { d: usize, vt: u64 },
}

impl Op {
    fn draw(class: u8, rng: &mut Rng, u: &University) -> Op {
        let n = (u.depts * uni::EMPS_PER_DEPT) as u64;
        let vt = rng.below(200);
        match class {
            0 => Op::Point {
                k: rng.below(n) as usize,
                vt,
            },
            1 => Op::Asof {
                k: rng.below(n) as usize,
                vt,
                tt: rng.range(u.churn_tt, u.loaded_tt + 1),
            },
            2 => Op::Count {
                team: rng.below(n / uni::TEAM as u64) as usize,
                x: rng.below(uni::HIRE_SPAN),
            },
            _ => Op::Molecule {
                d: rng.below(u.depts as u64) as usize,
                vt,
            },
        }
    }

    fn sql(&self) -> String {
        match self {
            Op::Point { k, vt } => {
                format!("SELECT name, salary FROM emp WHERE badge = {k} VALID AT {vt}")
            }
            Op::Asof { k, vt, tt } => {
                format!("SELECT name, salary FROM emp WHERE badge = {k} VALID AT {vt} ASOF TT {tt}")
            }
            Op::Count { team, x } => format!(
                "SELECT COUNT(*) FROM emp WHERE team = {team} VALID IN [{x}, {})",
                x + COUNT_WINDOW
            ),
            Op::Molecule { d, vt } => format!(
                "SELECT MOLECULE FROM dept_mol WHERE root.budget = {} VALID AT {vt}",
                uni::dept_budget(*d)
            ),
        }
    }

    /// What the generator's model says the answer digests to.
    fn expected(&self, u: &University) -> (u64, i64) {
        match *self {
            Op::Point { k, vt } => row_digest(u.emps[k].salary_at(u64::MAX, vt)),
            Op::Asof { k, vt, tt } => row_digest(u.emps[k].salary_at(tt, vt)),
            Op::Count { team, x } => {
                // One tuple per employee is alive from the hire on, however
                // many valid-time slices raises cut it into.
                let members = &u.emps[team * uni::TEAM..(team + 1) * uni::TEAM];
                let alive = |t: u64| members.iter().filter(|e| e.hire <= t).count() as i64;
                let (mut steps, mut area, mut prev) = (0u64, 0i64, 0i64);
                for t in x..x + COUNT_WINDOW {
                    let c = alive(t);
                    if c > 0 && c != prev {
                        steps += 1;
                    }
                    area += c;
                    prev = c;
                }
                (steps, area)
            }
            Op::Molecule { d, vt } => {
                let visible: Vec<i64> = u
                    .dept_emps(d)
                    .iter()
                    .filter_map(|e| e.salary_at(u64::MAX, vt))
                    .collect();
                // dept + each visible employee with two projects.
                (1 + 3 * visible.len() as u64, visible.iter().sum())
            }
        }
    }
}

fn row_digest(salary: Option<i64>) -> (u64, i64) {
    salary.map_or((0, 0), |s| (1, s))
}

fn config() -> DbConfig {
    DbConfig::default()
        .store_kind(StoreKind::Split)
        .buffer_frames(POOL_FRAMES)
}

/// How one statement reaches the engine.
enum Route {
    Embedded,
    Wire(Box<Client>),
}

struct Runner<'a> {
    db: &'a Database,
    uni: &'a University,
    route: Route,
    schedule: Schedule,
    /// Wire answers compared byte for byte with the embedded one, and how
    /// many differed.
    wire_compared: u64,
    wire_mismatches: u64,
    /// `(operation, statement, wire answer)` of a traced wire window.
    replay: Vec<(u64, String, StatementOutput)>,
    /// Candidates examined / rows returned over the explain sample.
    examined: (u64, u64),
    complaints: Complaints,
}

impl Runner<'_> {
    fn execute(&mut self, sql: &str, tr: &mut Tracer) -> Res<StatementOutput> {
        match &mut self.route {
            Route::Wire(client) => Ok(client.query_output(sql)?),
            Route::Embedded => select(self.db, sql, tr),
        }
    }

    fn step(&mut self, i: u64, rng: &mut Rng, tr: &mut Tracer) -> Res<Step> {
        let class = self.schedule.next(rng);
        let op = Op::draw(class, rng, self.uni);
        let sql = op.sql();
        let span = tr.begin(match self.route {
            Route::Embedded => "op.run_statement",
            Route::Wire(_) => "op.client.query_output",
        });
        let t0 = Instant::now();
        let out = self.execute(&sql, tr);
        let ns = t0.elapsed().as_nanos() as u64;
        tr.end(span);

        let mut ok = match &out {
            Ok(out) => digest(out, self.uni) == op.expected(self.uni),
            Err(e) => {
                self.complaints.note(&sql, e);
                false
            }
        };
        let out = out.ok();
        if let (Route::Wire(_), Some(wire)) = (&self.route, out) {
            if tr.on() {
                // Compared after the window (see `replay_embedded`).
                self.replay.push((i, sql.clone(), wire));
            } else if i.is_multiple_of(WIRE_CHECK_EVERY) && !self.same_embedded(&sql, &wire, tr) {
                ok = false;
            }
        }
        if tr.on() && matches!(self.route, Route::Embedded) {
            self.shadow_core_read(&op, &sql, tr)?;
            if i < EXPLAIN_SAMPLE {
                let (_, report) = explain_analyze(self.db, &sql)?;
                self.examined.0 += report.ops.last().map_or(0, |o| o.rows);
                self.examined.1 += report.root_rows();
            }
        }
        Ok(Step { class, ns, ok })
    }

    /// Runs `sql` embedded and compares its wire encoding byte for byte
    /// with the answer that came over the wire.
    fn same_embedded(&mut self, sql: &str, wire: &StatementOutput, tr: &mut Tracer) -> bool {
        let s = tr.begin("shadow.embedded");
        let embedded = run_statement(self.db, sql);
        tr.end(s);
        self.wire_compared += 1;
        let same = embedded.map(|e| enc_output(&e)).ok() == Some(enc_output(wire));
        self.wire_mismatches += u64::from(!same);
        same
    }

    /// The traced wire window's statements once more, embedded, each paired
    /// with its wire span by operation id, plus the codec work on the real
    /// payloads. Done after the window: on one CPU, client work between
    /// requests would land inside the server's own statement timer.
    /// Returns how many answers differed.
    fn replay_embedded(&mut self, tr: &mut Tracer) -> Res<u64> {
        let before = self.wire_mismatches;
        for (i, sql, wire) in std::mem::take(&mut self.replay) {
            tr.set_op(i);
            self.same_embedded(&sql, &wire, tr);
            self.shadow_codec(&sql, &wire, tr)?;
        }
        Ok(self.wire_mismatches - before)
    }

    /// The logical read behind `op`, issued straight at `Database`.
    fn shadow_core_read(&self, op: &Op, sql: &str, tr: &mut Tracer) -> Res<()> {
        let (db, u) = (self.db, self.uni);
        let access = prepare(db, sql)?.access;
        let probe = |ty, attr: u16, v: i64| -> Res<Vec<tcom_core::AtomId>> {
            let enc = encode_value(&tcom_core::Value::Int(v)).expect("INT encodes");
            Ok(db.index_range(ty, AttrId(attr), enc, enc + 1)?)
        };
        let s = tr.begin("shadow.core.read");
        match *op {
            Op::Point { k, .. } => {
                for a in probe(u.emp_ty, uni::EMP_BADGE, k as i64)? {
                    std::hint::black_box(db.current_versions(a)?);
                }
            }
            Op::Asof { tt, .. } => asof_core_read(db, u.emp_ty, TimePoint(tt), &access)?,
            Op::Count { team, .. } => {
                for a in probe(u.emp_ty, uni::EMP_TEAM, team as i64)? {
                    std::hint::black_box(db.current_versions(a)?);
                }
            }
            Op::Molecule { d, vt } => {
                for root in probe(u.dept_ty, uni::DEPT_BUDGET, uni::dept_budget(d))? {
                    std::hint::black_box(db.materialize(u.mol, root, db.now(), TimePoint(vt))?);
                }
            }
        }
        tr.end(s);
        Ok(())
    }

    /// The frame and payload codec work one wire statement costs both
    /// ends, on the real request and reply.
    fn shadow_codec(&self, sql: &str, out: &StatementOutput, tr: &mut Tracer) -> Res<()> {
        let s = tr.begin("shadow.codec");
        let request = Frame::new(FrameKind::Query, enc_str(sql)).encode();
        let (request, _) = Frame::decode(&request)?.ok_or("short request frame")?;
        std::hint::black_box(tcom_client::proto::dec_str(&request.payload)?);
        let reply = Frame::new(FrameKind::Rows, enc_output(out)).encode();
        let (reply, _) = Frame::decode(&reply)?.ok_or("short reply frame")?;
        std::hint::black_box(dec_output(&reply.payload)?);
        tr.end(s);
        Ok(())
    }
}

pub fn run(cfg: &Config, wire: bool) -> Res<Outcome> {
    let threads = if wire { 2 } else { 1 };
    host::require_threads(threads)?;
    // One thread is busy at a time (the wire session is synchronous).
    let cpu = host::pin_to_one_cpu();

    let ((l, mut server), setup_s) = repeat_setup(
        cfg,
        |round| {
            let l = setup(
                &cfg.dir,
                &format!("hot-{round}"),
                cfg.seed,
                true,
                cfg.size(uni::DEPTS, 4),
                config(),
            )?;
            // The wire workload's set-up includes bringing the server up.
            let server = if wire {
                Some(Server::start(
                    l.db.clone(),
                    ServerConfig::default().server_threads(1),
                )?)
            } else {
                None
            };
            Ok((l, server))
        },
        |(l, server)| {
            drop(server);
            let _ = std::fs::remove_dir_all(&l.dir);
        },
    )?;
    let ratio = l.pages as f64 / POOL_FRAMES as f64;
    if ratio > 0.25 && !cfg.smoke {
        return Err(format!(
            "sizing guard: hot-query data is {} pages, over a quarter of the {POOL_FRAMES}-frame pool",
            l.pages
        )
        .into());
    }

    let route = match &server {
        Some(s) => Route::Wire(Box::new(Client::connect(s.local_addr())?)),
        None => Route::Embedded,
    };
    let mut runner = Runner {
        db: &l.db,
        uni: &l.uni,
        route,
        schedule: Schedule::new(&MIX),
        wire_compared: 0,
        wire_mismatches: 0,
        replay: Vec::new(),
        examined: (0, 0),
        complaints: Complaints::new(),
    };

    // Warm-up: fault every page in (the data is a quarter of the pool, so
    // nothing is evicted afterwards), then its own operation stream.
    let mid_tt = (l.uni.churn_tt + l.uni.loaded_tt) / 2;
    for sql in [
        "SELECT HISTORY FROM emp".to_string(),
        "SELECT HISTORY FROM dept".to_string(),
        "SELECT HISTORY FROM proj".to_string(),
        "SELECT name FROM emp WHERE badge >= 0".to_string(),
        "SELECT name FROM emp WHERE team >= 0".to_string(),
        "SELECT name FROM emp WHERE salary >= 0".to_string(),
        "SELECT name FROM dept WHERE budget >= 0".to_string(),
        format!("SELECT name FROM emp ASOF TT {mid_tt}"),
    ] {
        run_statement(&l.db, &sql)?;
    }
    let mut off = Tracer::new(false);
    let mut warm_rng = Rng::new(cfg.seed, 2);
    let warm = drive(Limit::Ops(cfg.warmup_ops(OPS_PER_S)), &mut off, |i, tr| {
        runner.step(i, &mut warm_rng, tr)
    })?;

    let mut report = vec![format!(
        "data: {} emps in {} depts, {} churn rounds, split store; {} pages in a {POOL_FRAMES}-frame pool \
         (ratio {ratio:.3}); {threads} thread(s) pinned to cpu {cpu:?}; warm-up {} ops",
        l.uni.emps.len(),
        l.uni.depts,
        uni::CHURN_ROUNDS,
        l.pages,
        warm.samples.len()
    )];
    let sizing = json!({
        "pool_frames": POOL_FRAMES,
        "data_pages": l.pages,
        "data_to_pool": ratio,
        "threads": threads,
        "pinned_cpu": cpu.map(|c| c as u64),
        "emps": l.uni.emps.len()
    });

    let outcome = if cfg.trace {
        let ops = cfg.traced_ops(OPS_PER_S);
        // The same operation sequence twice: untraced, then traced. Counters
        // are taken around the untraced pass, which issues nothing but the
        // operations themselves.
        let before = l.db.metrics();
        let mut rng = Rng::new(cfg.seed, 3);
        runner.schedule = Schedule::new(&MIX);
        let plain = drive(Limit::Ops(ops), &mut off, |i, tr| {
            runner.step(i, &mut rng, tr)
        })?;
        let after = l.db.metrics();
        let delta = after.delta(&before);
        let plain = summarize(&plain, &CLASSES, SCHEDULE_CYCLE);

        let mut tracer = Tracer::new(true);
        let mut rng = Rng::new(cfg.seed, 3);
        runner.schedule = Schedule::new(&MIX);
        let w = drive(Limit::Ops(ops), &mut tracer, |i, tr| {
            runner.step(i, &mut rng, tr)
        })?;
        let traced = summarize(&w, &CLASSES, SCHEDULE_CYCLE);
        let differed = runner.replay_embedded(&mut tracer)?;

        let mut layers = Layers::default();
        layers.set_storage(std::slice::from_ref(&delta), ops);
        if wire {
            // `delta` drops histograms; difference the two samples by hand.
            let stmt = |m: &tcom_core::MetricsSnapshot| {
                m.histogram_labeled("server.stmt_us", "statement")
                    .map_or((0, 0), |h| (h.sum, h.count))
            };
            let ((s0, n0), (s1, n1)) = (stmt(&before), stmt(&after));
            layers.set("server.stmt_us", (s1 - s0) as f64 / (n1 - n0).max(1) as f64);
            layers.set_span_median("kernel.frame.codec_us", &tracer, &["shadow.codec"]);
            let wire_ns = tracer.durations("op.client.query_output");
            let emb_ns = tracer.durations("shadow.embedded");
            let paired: Vec<f64> = wire_ns
                .iter()
                .zip(&emb_ns)
                .map(|(&w, &e)| (w as f64 - e as f64) / 1e3)
                .collect();
            layers.set("wire.overhead_us", median(&paired));
        } else {
            layers.set_span_median("query.parse_us", &tracer, &["query.parse"]);
            layers.set_span_median("query.plan_us", &tracer, &["query.plan"]);
            layers.set_span_median("query.exec_us", &tracer, &["query.exec"]);
            layers.set_span_median("core.read_us", &tracer, &["shadow.core.read"]);
            layers.set(
                "query.rows_examined_per_row",
                runner.examined.0 as f64 / runner.examined.1.max(1) as f64,
            );
        }
        report.push(format!("traced run: {ops} ops, untraced then traced"));
        layers.set_passes(&mut report, &tracer, ops, &plain, &traced);
        if !wire {
            report.push(query_own_share(&tracer));
        }
        Outcome {
            attempted: w.samples.len() as u64,
            failed: w.failed + differed,
            metrics: layers.into_metrics(),
            report,
            sizing,
            trace: Some(tracer.to_json()),
        }
    } else {
        let mut rng = Rng::new(cfg.seed, 3);
        runner.schedule = Schedule::new(&MIX);
        let w = drive(Limit::Seconds(cfg.seconds), &mut off, |i, tr| {
            runner.step(i, &mut rng, tr)
        })?;
        let s = summarize(&w, &CLASSES, SCHEDULE_CYCLE);
        report.extend(describe(&s));
        Outcome {
            attempted: s.n,
            failed: w.failed,
            metrics: end_to_end(&s, l.space_amp, &setup_s),
            report,
            sizing,
            trace: None,
        }
    };
    let mut outcome = outcome;
    if wire {
        outcome.report.push(format!(
            "wire answers byte-compared with embedded: {} ({} differed)",
            runner.wire_compared, runner.wire_mismatches
        ));
    }
    drop(runner);
    if let Some(s) = server.as_mut() {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&l.dir);
    Ok(outcome)
}
