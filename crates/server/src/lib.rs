//! # tcom-server
//!
//! TCP front-end for the tcom engine: a threadpool accept loop serving the
//! length-prefixed frame protocol of [`tcom_kernel::frame`], with typed
//! payloads from [`tcom_client::proto`].
//!
//! ## Sessions
//!
//! Each connection is one *session*, owned by one worker thread for its
//! whole life ([`ServerConfig::server_threads`] workers; excess
//! connections wait in the listen backlog). A session:
//!
//! * pins a fresh [`ReadView`] at the start of every statement (inside the
//!   executor), so a query never observes a commit that publishes
//!   mid-statement;
//! * holds **at most one** open transaction (`BEGIN` … `COMMIT` /
//!   `ROLLBACK`); DML inside it buffers in the engine's [`Txn`] overlay
//!   with read-your-writes, and an execution error *poisons* the session —
//!   the transaction is dropped (releasing its commit stripes immediately)
//!   and everything but `ROLLBACK` is refused until the client
//!   acknowledges;
//! * caches prepared statements (`PREPARE` / `EXECUTE`): `SELECT` plans are
//!   kept fully analyzed, other statements parsed.
//!
//! A dropped connection aborts any open transaction via [`Txn`]'s `Drop`,
//! so an abandoned client can never strand a commit stripe.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] flips a stop flag and joins the workers. Statements
//! execute synchronously inside the frame dispatch, so any in-flight
//! commit finishes (and publishes) before its worker observes the flag —
//! shutdown drains, it never tears.
//!
//! ## Metrics
//!
//! Through the database's [`Registry`](tcom_obs::Registry):
//! `server.sessions` (live-session gauge), `server.connections` (accepted
//! total), `server.frames` (per frame kind, both directions), and the
//! `server.stmt_us` statement-latency histogram.
//!
//! [`ReadView`]: tcom_core::ReadView
//! [`Txn`]: tcom_core::Txn

#![warn(missing_docs)]

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tcom_client::proto::{self, error_code, Ack};
use tcom_core::{Database, Txn};
use tcom_kernel::frame::{Frame, FrameKind};
use tcom_kernel::{Error, Lsn, Result};
use tcom_obs::{Counter, Histogram};
use tcom_query::{
    apply_statement, parse_statement, prepare_query, run_parsed, run_prepared, run_query,
    ExecOptions, Prepared, Statement, StatementApply, StatementOutput,
};

/// How long a worker blocks in one socket read / accept poll before
/// re-checking the stop flag. Bounds shutdown latency without spinning.
const POLL: Duration = Duration::from_millis(25);

/// Tunables of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address. Port 0 picks an ephemeral port; the bound address is
    /// available as [`Server::local_addr`].
    pub addr: String,
    /// Worker threads in the accept/session pool. Each worker owns one
    /// live session at a time, so this is also the concurrent-session
    /// ceiling; further connections queue in the listen backlog.
    pub server_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            server_threads: 8,
        }
    }
}

impl ServerConfig {
    /// Builder-style: sets the bind address.
    pub fn addr(mut self, addr: impl Into<String>) -> ServerConfig {
        self.addr = addr.into();
        self
    }

    /// Builder-style: sets the worker-thread count (minimum 1).
    pub fn server_threads(mut self, n: usize) -> ServerConfig {
        self.server_threads = n.max(1);
        self
    }
}

struct Shared {
    db: Arc<Database>,
    listener: TcpListener,
    stop: AtomicBool,
    next_session: AtomicU64,
    live: Arc<AtomicU64>,
    /// Total accepted connections (`server.connections`).
    connections: Counter,
    /// Per-frame-kind counters (`server.frames`), both directions.
    frames: HashMap<u8, Counter>,
    /// Statement latency in microseconds (`server.stmt_us`).
    stmt_us: Histogram,
    name: String,
}

impl Shared {
    fn count_frame(&self, kind: FrameKind) {
        if let Some(c) = self.frames.get(&(kind as u8)) {
            c.inc();
        }
    }
}

/// A running server. Dropping it shuts it down.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Server {
    /// Binds and starts serving `db` on the configured address.
    pub fn start(db: Arc<Database>, config: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let obs = db.obs().clone();
        let live = Arc::new(AtomicU64::new(0));
        {
            let live = live.clone();
            obs.register_gauge("server.sessions", "live", move || {
                live.load(Ordering::Acquire)
            });
        }
        let mut frames = HashMap::new();
        for tag in 1u8.. {
            let Some(kind) = FrameKind::from_u8(tag) else {
                break;
            };
            frames.insert(tag, obs.counter("server.frames", kind.name()));
        }
        let shared = Arc::new(Shared {
            db,
            listener,
            stop: AtomicBool::new(false),
            next_session: AtomicU64::new(0),
            live,
            connections: obs.counter("server.connections", "accepted"),
            frames,
            stmt_us: obs.histogram("server.stmt_us", "statement"),
            name: format!("tcom-server/{} @ {addr}", env!("CARGO_PKG_VERSION")),
        });
        let workers = (0..config.server_threads.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("tcom-server-{i}"))
                    .spawn(move || worker(&shared))
                    .expect("spawn server worker")
            })
            .collect();
        Ok(Server {
            shared,
            workers,
            addr,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, lets every worker finish its in-flight statement,
    /// and joins the pool. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept loop: each worker alternates between polling the shared listener
/// and serving one session to completion.
fn worker(shared: &Shared) {
    while !shared.stop.load(Ordering::Acquire) {
        match shared.listener.accept() {
            Ok((stream, _)) => {
                let sid = shared.next_session.fetch_add(1, Ordering::Relaxed) + 1;
                shared.connections.inc();
                shared.live.fetch_add(1, Ordering::AcqRel);
                // Session errors (I/O, protocol violations) end that
                // session only; the worker goes back to accepting.
                let _ = Session::run(shared, stream, sid);
                shared.live.fetch_sub(1, Ordering::AcqRel);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            // Transient accept errors (e.g. a connection reset before
            // accept): back off briefly and keep serving.
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// A cached statement in a session's PREPARE/EXECUTE slot (a handful per
/// session, so the variants' size difference is of no account).
#[allow(clippy::large_enum_variant)]
enum Cached {
    /// `SELECT` or `EXPLAIN ANALYZE SELECT`, fully analyzed and planned.
    Query {
        plan: Prepared,
        /// Answer with the run's EXPLAIN ANALYZE report instead of rows.
        explain: bool,
    },
    /// DML / DDL, parsed.
    Stmt(Statement),
}

/// What one socket poll produced.
enum Step {
    Frame(Frame),
    Idle,
    Closed,
}

struct Session<'db> {
    shared: &'db Shared,
    db: &'db Database,
    stream: TcpStream,
    buf: Vec<u8>,
    txn: Option<Txn<'db>>,
    /// Set when a DML or COMMIT error destroyed the open transaction:
    /// everything but ROLLBACK is refused until the client acknowledges.
    poisoned: bool,
    cache: HashMap<u64, Cached>,
    next_stmt: u64,
}

impl<'db> Session<'db> {
    fn run(shared: &Shared, stream: TcpStream, sid: u64) -> Result<()> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL))?;
        let mut s = Session {
            shared,
            db: shared.db.as_ref(),
            stream,
            buf: Vec::new(),
            txn: None,
            poisoned: false,
            cache: HashMap::new(),
            next_stmt: 0,
        };
        if !s.handshake(sid)? {
            return Ok(());
        }
        loop {
            if shared.stop.load(Ordering::Acquire) {
                return Ok(());
            }
            match s.poll_frame() {
                Ok(Step::Frame(f)) => {
                    if !s.dispatch(f)? {
                        return Ok(());
                    }
                }
                Ok(Step::Idle) => continue,
                // Abandoned connection: dropping `s` drops any open Txn,
                // releasing its commit stripes.
                Ok(Step::Closed) => return Ok(()),
                Err(e) => {
                    // Malformed stream: tell the client why, then close.
                    let _ = s.send_error(error_code::PROTOCOL, &e.to_string());
                    return Err(e);
                }
            }
        }
    }

    /// First frame must be Hello; replies HelloOk. Returns false when the
    /// session should close (bad first frame, early disconnect, shutdown).
    fn handshake(&mut self, sid: u64) -> Result<bool> {
        let first = loop {
            if self.shared.stop.load(Ordering::Acquire) {
                return Ok(false);
            }
            match self.poll_frame()? {
                Step::Frame(f) => break f,
                Step::Idle => continue,
                Step::Closed => return Ok(false),
            }
        };
        if first.kind != FrameKind::Hello {
            self.send_error(
                error_code::PROTOCOL,
                &format!("expected Hello, got {}", first.kind.name()),
            )?;
            return Ok(false);
        }
        // The client's self-description is informational only.
        let _client = proto::dec_hello(&first.payload)?;
        self.send(Frame::new(
            FrameKind::HelloOk,
            proto::enc_hello_ok(sid, &self.shared.name, self.db.now()),
        ))?;
        Ok(true)
    }

    /// Handles one frame. Returns false to close the session.
    fn dispatch(&mut self, frame: Frame) -> Result<bool> {
        match frame.kind {
            FrameKind::Ping => {
                self.send(Frame::new(FrameKind::Pong, proto::enc_time(self.db.now())))?;
                Ok(true)
            }
            FrameKind::Query => {
                let sql = proto::dec_str(&frame.payload)?;
                let t0 = Instant::now();
                match parse_statement(&sql) {
                    Ok(stmt) => self.exec_stmt(stmt)?,
                    Err(e) => self.send_error(error_code::STATEMENT, &e.to_string())?,
                }
                self.shared.stmt_us.record(t0.elapsed().as_micros() as u64);
                Ok(true)
            }
            FrameKind::Prepare => {
                let sql = proto::dec_str(&frame.payload)?;
                match self.prepare(&sql) {
                    Ok(id) => {
                        self.send(Frame::new(FrameKind::Prepared, proto::enc_u64(id)))?;
                    }
                    Err(e) => self.send_error(error_code::STATEMENT, &e.to_string())?,
                }
                Ok(true)
            }
            FrameKind::Execute => {
                let id = proto::dec_u64(&frame.payload)?;
                let t0 = Instant::now();
                self.execute(id)?;
                self.shared.stmt_us.record(t0.elapsed().as_micros() as u64);
                Ok(true)
            }
            FrameKind::Begin => {
                if self.poisoned {
                    self.send_error(
                        error_code::SESSION,
                        "transaction aborted by a prior error; send ROLLBACK first",
                    )?;
                } else if self.txn.is_some() {
                    self.send_error(
                        error_code::SESSION,
                        "transaction already open (nested BEGIN is not supported)",
                    )?;
                } else {
                    self.txn = Some(self.db.begin());
                    self.send_ack(Ack::Done)?;
                }
                Ok(true)
            }
            FrameKind::Commit => {
                if self.poisoned {
                    self.send_error(
                        error_code::SESSION,
                        "transaction aborted by a prior error; send ROLLBACK first",
                    )?;
                } else {
                    match self.txn.take() {
                        None => self.send_error(error_code::SESSION, "no open transaction")?,
                        Some(txn) => match txn.commit() {
                            Ok(tt) => self.send_ack(Ack::Committed(tt))?,
                            Err(e) => {
                                self.poisoned = true;
                                self.send_error(error_code::STATEMENT, &e.to_string())?;
                            }
                        },
                    }
                }
                Ok(true)
            }
            FrameKind::Rollback => {
                // Idempotent: aborts an open transaction and clears any
                // poison, whether or not either exists.
                self.txn = None;
                self.poisoned = false;
                self.send_ack(Ack::Done)?;
                Ok(true)
            }
            FrameKind::ReplSubscribe => {
                if self.txn.is_some() || self.poisoned {
                    self.send_error(
                        error_code::SESSION,
                        "cannot subscribe to replication with an open transaction",
                    )?;
                    return Ok(false);
                }
                let sub = proto::dec_repl_subscribe(&frame.payload)?;
                // The subscription takes over the session for its whole
                // remaining life; when the stream ends, close.
                self.stream_wal(&sub)?;
                Ok(false)
            }
            // Everything else is server-to-client (or a repeated Hello):
            // a protocol violation that closes the session.
            other => {
                self.send_error(
                    error_code::PROTOCOL,
                    &format!("unexpected {} frame", other.name()),
                )?;
                Ok(false)
            }
        }
    }

    /// Runs one parsed statement in the session's current state.
    fn exec_stmt(&mut self, stmt: Statement) -> Result<()> {
        if self.poisoned {
            return self.send_error(
                error_code::SESSION,
                "transaction aborted by a prior error; send ROLLBACK first",
            );
        }
        match stmt {
            // Queries inside a transaction get read-your-writes: atoms the
            // transaction wrote are served from its overlay (DESIGN §13.2
            // states the overlay's scope).
            Statement::Select(_) | Statement::ExplainAnalyze(_) => {
                let out = run_query(self.db, self.txn.as_ref(), stmt);
                self.send_result(out)
            }
            // No open transaction: DDL runs at once, DML auto-commits.
            stmt if self.txn.is_none() => {
                let out = run_parsed(self.db, stmt);
                self.send_result(out)
            }
            Statement::CreateType { .. } | Statement::CreateMolecule { .. } => self.send_error(
                error_code::SESSION,
                "DDL is not allowed inside a transaction",
            ),
            dml => {
                let txn = self.txn.as_mut().expect("checked above");
                match apply_statement(self.db, txn, dml) {
                    Ok(StatementApply::Inserted(atom)) => self.send_ack(Ack::PendingInsert(atom)),
                    Ok(StatementApply::Modified(n)) => {
                        self.send_ack(Ack::PendingModified(n as u64))
                    }
                    Err(e) => {
                        // The transaction may hold a partial write set;
                        // drop it now (releasing its stripes) and make the
                        // client acknowledge with ROLLBACK.
                        self.txn = None;
                        self.poisoned = true;
                        self.send_error(error_code::STATEMENT, &e.to_string())
                    }
                }
            }
        }
    }

    fn prepare(&mut self, sql: &str) -> Result<u64> {
        let cached = match parse_statement(sql)?.into_query() {
            Ok((q, explain)) => Cached::Query {
                plan: prepare_query(self.db, q, ExecOptions::default())?,
                explain,
            },
            Err(stmt) => Cached::Stmt(stmt),
        };
        self.next_stmt += 1;
        let id = self.next_stmt;
        self.cache.insert(id, cached);
        Ok(id)
    }

    fn execute(&mut self, id: u64) -> Result<()> {
        if self.poisoned {
            return self.send_error(
                error_code::SESSION,
                "transaction aborted by a prior error; send ROLLBACK first",
            );
        }
        match self.cache.get(&id) {
            None => self.send_error(
                error_code::SESSION,
                &format!("unknown statement handle {id}"),
            ),
            // Prepared queries also honor an open transaction's overlay —
            // EXECUTE must see the same state as the equivalent QUERY.
            Some(Cached::Query { plan, explain }) => {
                let out = run_prepared(self.db, self.txn.as_ref(), plan, *explain);
                self.send_result(out)
            }
            Some(Cached::Stmt(s)) => {
                let stmt = s.clone();
                self.exec_stmt(stmt)
            }
        }
    }

    /// Serves a replication subscription: streams durable WAL chunks to
    /// the follower until it disconnects or the server shuts down.
    ///
    /// A position is one LSN, and the durable log only grows, so the
    /// stream just runs on from it (an `OnCheckpoint` leader ships its
    /// unsynced tail too, and after a crash its replicas are reseeded). One below the oldest retained segment streams
    /// from that segment's head `Checkpoint` record, which tells the
    /// follower whether the removed segments held transactions it never
    /// saw (resync required). One past the durable end, or off a frame
    /// boundary, gets an error frame naming it.
    fn stream_wal(&mut self, sub: &proto::ReplSubscribe) -> Result<()> {
        /// Max raw WAL bytes per `ReplFrame`.
        const CHUNK: usize = 1 << 20;
        let mut pos = Lsn(sub.lsn);
        loop {
            if self.shared.stop.load(Ordering::Acquire) {
                return Ok(());
            }
            let chunk = match self.db.wal_chunk(pos, CHUNK) {
                Ok(chunk) => chunk,
                Err(e) => return self.send_error(error_code::SESSION, &e.to_string()),
            };
            if chunk.bytes.is_empty() {
                // Caught up: drain follower acks and wait (bounded by
                // POLL) for new durable writes or a disconnect.
                match self.poll_frame()? {
                    Step::Frame(f) if f.kind == FrameKind::ReplAck => {
                        proto::dec_repl_ack(&f.payload)?;
                    }
                    Step::Frame(f) => {
                        return self.send_error(
                            error_code::PROTOCOL,
                            &format!("unexpected {} frame on a replication stream", f.kind.name()),
                        );
                    }
                    Step::Idle => {}
                    Step::Closed => return Ok(()),
                }
                continue;
            }
            pos = Lsn(chunk.start.0 + chunk.bytes.len() as u64);
            self.send(Frame::new(
                FrameKind::ReplFrame,
                proto::enc_repl_frame(&proto::ReplFrame {
                    start_lsn: chunk.start.0,
                    durable_end: self.db.wal_durable_len(),
                    leader_tt: self.db.now(),
                    bytes: chunk.bytes,
                }),
            ))?;
        }
    }

    // ---- framed I/O ----

    fn poll_frame(&mut self) -> Result<Step> {
        loop {
            if let Some((frame, used)) = Frame::decode(&self.buf)? {
                self.buf.drain(..used);
                self.shared.count_frame(frame.kind);
                return Ok(Step::Frame(frame));
            }
            let mut chunk = [0u8; 8192];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(Step::Closed),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(Step::Idle)
                }
                Err(e) => return Err(Error::Io(e)),
            }
        }
    }

    fn send(&mut self, frame: Frame) -> Result<()> {
        self.shared.count_frame(frame.kind);
        self.stream.write_all(&frame.encode())?;
        Ok(())
    }

    /// Replies with a statement's output, or its error.
    fn send_result(&mut self, out: Result<StatementOutput>) -> Result<()> {
        match out {
            Ok(out) => self.send(Frame::new(FrameKind::Rows, proto::enc_output(&out))),
            Err(e) => self.send_error(error_code::STATEMENT, &e.to_string()),
        }
    }

    fn send_ack(&mut self, ack: Ack) -> Result<()> {
        self.send(Frame::new(FrameKind::Ack, proto::enc_ack(&ack)))
    }

    fn send_error(&mut self, code: u8, message: &str) -> Result<()> {
        self.send(Frame::new(
            FrameKind::Error,
            proto::enc_error(code, message),
        ))
    }
}
