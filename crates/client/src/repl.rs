//! The network side of a replication follower.
//!
//! [`ReplicaFollower`] owns a background thread that keeps one
//! subscription to a leader alive: it connects, performs the ordinary
//! Hello handshake, sends `ReplSubscribe` with the applier's persisted
//! resume position, and then applies every received `ReplFrame` through
//! the engine's [`WalApplier`], acknowledging progress with `ReplAck`.
//!
//! Disconnects are expected (leader restart, network blip): the follower
//! rewinds the applier to its durable applied boundary and reconnects
//! with resume, counting each attempt in `repl.reconnects`. Re-streamed
//! transactions are skipped idempotently by the applier. Apply-side
//! errors (log damage, a gap requiring a reseed, a position the leader
//! refuses) are *fatal*:
//! the follower parks and exposes the error via
//! [`ReplicaFollower::last_error`] instead of retrying into the same
//! wall.

use crate::proto::{self, ReplAck, ReplSubscribe};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use tcom_core::{Counter, WalApplier};
use tcom_kernel::frame::{Frame, FrameKind};
use tcom_kernel::{Error, Result};

/// How long a blocking read waits before re-checking the stop flag.
const POLL: Duration = Duration::from_millis(100);
/// Pause between reconnect attempts.
const RETRY: Duration = Duration::from_millis(100);

/// A running replication follower (see module docs).
pub struct ReplicaFollower {
    handle: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    error: Arc<Mutex<Option<String>>>,
}

impl ReplicaFollower {
    /// Spawns the follower loop subscribing to the leader at `addr`,
    /// driving `applier`.
    pub fn start(addr: impl Into<String>, applier: WalApplier) -> ReplicaFollower {
        let addr = addr.into();
        let stop = Arc::new(AtomicBool::new(false));
        let error = Arc::new(Mutex::new(None));
        let reconnects = applier.db().obs().counter("repl.reconnects", "");
        let (s, e) = (stop.clone(), error.clone());
        let handle = std::thread::Builder::new()
            .name("tcom-replica".into())
            .spawn(move || run(&addr, applier, &s, &e, &reconnects))
            .expect("spawn replica thread");
        ReplicaFollower {
            handle: Some(handle),
            stop,
            error,
        }
    }

    /// The fatal error that parked the follower, if any (a resync-required
    /// gap, log damage). Connection drops are not fatal — they reconnect.
    pub fn last_error(&self) -> Option<String> {
        self.error.lock().expect("error slot").clone()
    }

    /// Signals the loop to stop and joins it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReplicaFollower {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn run(
    addr: &str,
    mut applier: WalApplier,
    stop: &AtomicBool,
    error: &Mutex<Option<String>>,
    reconnects: &Counter,
) {
    let mut first = true;
    while !stop.load(Ordering::Acquire) {
        if !first {
            reconnects.inc();
            applier.rewind_to_boundary();
            std::thread::sleep(RETRY);
        }
        first = false;
        match stream_once(addr, &mut applier, stop) {
            Ok(()) => return, // stop requested
            Err(Error::Io(_)) => continue,
            Err(e) => {
                *error.lock().expect("error slot") = Some(e.to_string());
                return;
            }
        }
    }
}

/// One connection lifetime: handshake, subscribe, apply frames until the
/// connection drops (`Err(Io)`), a fatal apply error occurs, or stop is
/// requested (`Ok`).
fn stream_once(addr: &str, applier: &mut WalApplier, stop: &AtomicBool) -> Result<()> {
    let mut conn = Conn::connect(addr)?;
    conn.send(&Frame::new(
        FrameKind::Hello,
        proto::enc_hello(concat!("tcom-replica/", env!("CARGO_PKG_VERSION"))),
    ))?;
    match conn.recv(stop)? {
        None => return Ok(()),
        Some(f) if f.kind == FrameKind::HelloOk => {}
        Some(f) if f.kind == FrameKind::Error => {
            return Err(proto::dec_error(&f.payload)?.into_error())
        }
        Some(f) => {
            return Err(Error::corruption(format!(
                "expected HelloOk, leader sent {}",
                f.kind.name()
            )))
        }
    }
    conn.send(&Frame::new(
        FrameKind::ReplSubscribe,
        proto::enc_repl_subscribe(&ReplSubscribe {
            lsn: applier.resume_lsn().0,
            published_tt: applier.published_tt(),
        }),
    ))?;
    loop {
        let Some(frame) = conn.recv(stop)? else {
            return Ok(()); // stop requested
        };
        match frame.kind {
            FrameKind::ReplFrame => {
                let f = proto::dec_repl_frame(&frame.payload)?;
                applier.apply_chunk(
                    tcom_kernel::Lsn(f.start_lsn),
                    &f.bytes,
                    f.durable_end,
                    f.leader_tt.0,
                )?;
                conn.send(&Frame::new(
                    FrameKind::ReplAck,
                    proto::enc_repl_ack(&ReplAck {
                        applied_lsn: applier.resume_lsn().0,
                    }),
                ))?;
            }
            FrameKind::Error => return Err(proto::dec_error(&frame.payload)?.into_error()),
            k => {
                return Err(Error::corruption(format!(
                    "unexpected {} frame on replication stream",
                    k.name()
                )))
            }
        }
    }
}

/// A minimal framed connection with a poll-based stop check.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    fn send(&mut self, frame: &Frame) -> Result<()> {
        self.stream.write_all(&frame.encode())?;
        Ok(())
    }

    /// Reads one frame; `Ok(None)` means stop was requested while
    /// waiting.
    fn recv(&mut self, stop: &AtomicBool) -> Result<Option<Frame>> {
        let mut chunk = [0u8; 64 << 10];
        loop {
            if let Some((frame, used)) = Frame::decode(&self.buf)? {
                self.buf.drain(..used);
                return Ok(Some(frame));
            }
            if stop.load(Ordering::Acquire) {
                return Ok(None);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(Error::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "leader closed the replication connection",
                    )))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => return Err(Error::Io(e)),
            }
        }
    }
}
