//! # tcom-client
//!
//! Blocking TCP client for the tcom server, plus the typed payload codecs
//! ([`proto`]) shared by both sides of the wire.
//!
//! ```no_run
//! use tcom_client::Client;
//!
//! let mut c = Client::connect("127.0.0.1:7464").unwrap();
//! let out = c.query_output("SELECT * FROM emp").unwrap();
//! println!("{out:?}");
//! ```
//!
//! One client owns one session: the server pins a fresh [`ReadView`] per
//! statement, holds at most one open transaction (`begin` / `commit` /
//! `rollback`), and caches prepared statements per session. The client is
//! strictly request-response — a statement is written as one frame and the
//! reply read back before the next request — which keeps it a plain
//! `&mut self` API with no background machinery.
//!
//! [`ReadView`]: tcom_core::ReadView

#![warn(missing_docs)]

pub mod proto;
mod repl;

pub use repl::ReplicaFollower;

use proto::Ack;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use tcom_kernel::frame::{Frame, FrameKind};
use tcom_kernel::{Error, Result, TimePoint};
use tcom_query::StatementOutput;

/// A statement handle returned by [`Client::prepare`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StmtId(pub u64);

/// What a statement produced.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A complete result (query rows, DDL confirmation, committed DML).
    Output(StatementOutput),
    /// DML buffered in the session's open transaction: effects are not
    /// durable or visible until [`Client::commit`].
    Pending(Ack),
}

/// A connected session with a tcom server.
pub struct Client {
    stream: TcpStream,
    /// Unparsed bytes read off the socket (may hold partial frames).
    buf: Vec<u8>,
    server: String,
}

impl Client {
    /// Connects and performs the Hello handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut c = Client {
            stream,
            buf: Vec::new(),
            server: String::new(),
        };
        c.send(&Frame::new(
            FrameKind::Hello,
            proto::enc_hello(concat!("tcom-client/", env!("CARGO_PKG_VERSION"))),
        ))?;
        let reply = c.recv()?;
        match reply.kind {
            FrameKind::HelloOk => {
                let (_session, server, _tt) = proto::dec_hello_ok(&reply.payload)?;
                c.server = server;
                Ok(c)
            }
            FrameKind::Error => Err(proto::dec_error(&reply.payload)?.into_error()),
            k => Err(Error::corruption(format!(
                "expected HelloOk, server sent {}",
                k.name()
            ))),
        }
    }

    /// The server's self-description from the handshake.
    pub fn server_info(&self) -> &str {
        &self.server
    }

    /// Executes one TQL statement.
    pub fn query(&mut self, sql: &str) -> Result<Response> {
        self.send(&Frame::new(FrameKind::Query, proto::enc_str(sql)))?;
        self.read_response()
    }

    /// Executes one TQL statement, requiring a complete result — errors if
    /// the statement was DML buffered in an open transaction.
    pub fn query_output(&mut self, sql: &str) -> Result<StatementOutput> {
        match self.query(sql)? {
            Response::Output(out) => Ok(out),
            Response::Pending(_) => Err(Error::Txn(
                "statement buffered in open transaction; COMMIT to get its result".into(),
            )),
        }
    }

    /// Parses and plans a statement into the session's statement cache.
    pub fn prepare(&mut self, sql: &str) -> Result<StmtId> {
        self.send(&Frame::new(FrameKind::Prepare, proto::enc_str(sql)))?;
        let reply = self.expect([FrameKind::Prepared])?;
        Ok(StmtId(proto::dec_u64(&reply.payload)?))
    }

    /// Runs a previously prepared statement.
    pub fn execute(&mut self, stmt: StmtId) -> Result<Response> {
        self.send(&Frame::new(FrameKind::Execute, proto::enc_u64(stmt.0)))?;
        self.read_response()
    }

    /// Opens an explicit transaction on the session.
    pub fn begin(&mut self) -> Result<()> {
        self.send(&Frame::empty(FrameKind::Begin))?;
        let reply = self.expect([FrameKind::Ack])?;
        match proto::dec_ack(&reply.payload)? {
            Ack::Done => Ok(()),
            a => Err(Error::corruption(format!("unexpected BEGIN ack {a:?}"))),
        }
    }

    /// Commits the session's open transaction, returning its transaction
    /// time.
    pub fn commit(&mut self) -> Result<TimePoint> {
        self.send(&Frame::empty(FrameKind::Commit))?;
        let reply = self.expect([FrameKind::Ack])?;
        match proto::dec_ack(&reply.payload)? {
            Ack::Committed(tt) => Ok(tt),
            a => Err(Error::corruption(format!("unexpected COMMIT ack {a:?}"))),
        }
    }

    /// Abandons the session's open transaction.
    pub fn rollback(&mut self) -> Result<()> {
        self.send(&Frame::empty(FrameKind::Rollback))?;
        let reply = self.expect([FrameKind::Ack])?;
        match proto::dec_ack(&reply.payload)? {
            Ack::Done => Ok(()),
            a => Err(Error::corruption(format!("unexpected ROLLBACK ack {a:?}"))),
        }
    }

    /// Liveness probe; returns the server's published transaction-time
    /// clock.
    pub fn ping(&mut self) -> Result<TimePoint> {
        self.send(&Frame::empty(FrameKind::Ping))?;
        let reply = self.expect([FrameKind::Pong])?;
        proto::dec_time(&reply.payload)
    }

    fn read_response(&mut self) -> Result<Response> {
        let reply = self.expect([FrameKind::Rows, FrameKind::Ack])?;
        match reply.kind {
            FrameKind::Rows => Ok(Response::Output(proto::dec_output(&reply.payload)?)),
            _ => Ok(Response::Pending(proto::dec_ack(&reply.payload)?)),
        }
    }

    /// Reads one frame, surfacing server Error frames as engine errors and
    /// anything outside `accept` as a protocol violation.
    fn expect<const N: usize>(&mut self, accept: [FrameKind; N]) -> Result<Frame> {
        let frame = self.recv()?;
        if frame.kind == FrameKind::Error {
            return Err(proto::dec_error(&frame.payload)?.into_error());
        }
        if !accept.contains(&frame.kind) {
            return Err(Error::corruption(format!(
                "unexpected {} frame from server",
                frame.kind.name()
            )));
        }
        Ok(frame)
    }

    fn send(&mut self, frame: &Frame) -> Result<()> {
        self.stream.write_all(&frame.encode())?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame> {
        let mut chunk = [0u8; 8192];
        loop {
            if let Some((frame, used)) = Frame::decode(&self.buf)? {
                self.buf.drain(..used);
                return Ok(frame);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(Error::corruption(
                    "server closed the connection mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}
