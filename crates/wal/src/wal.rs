//! The log manager: framed appends over segment files in one monotone
//! LSN space, crash-tolerant reads, checkpoint rolls.

use crate::record::LogRecord;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use tcom_kernel::codec::crc32c;
use tcom_kernel::{Error, Lsn, Result};
use tcom_obs::{Counter, Histogram};
use tcom_storage::vfs::{StdVfs, Vfs, VfsFile};

/// When the log file is fsynced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncPolicy {
    /// fsync on every commit (full durability; the default).
    OnCommit,
    /// fsync only at checkpoints (benchmarks; loses the tail on power
    /// failure but never corrupts).
    OnCheckpoint,
}

/// One segment file: the log's bytes from LSN `start` up to the next
/// segment's start (the last segment's: up to the log's end).
#[derive(Clone)]
struct Segment {
    start: u64,
    file: Arc<dyn VfsFile>,
}

/// The path of the segment of the log at `base` whose first LSN is
/// `start`: `base` with `.<start as 16 hex digits>` appended.
pub fn segment_path(base: &Path, start: Lsn) -> PathBuf {
    let mut name = base.as_os_str().to_owned();
    name.push(format!(".{:016x}", start.0));
    PathBuf::from(name)
}

/// The segment of `segments` holding LSN `at` (the last one starting at
/// or before it; `at` is never below the first).
fn segment_at(segments: &[Segment], at: u64) -> usize {
    segments.partition_point(|s| s.start <= at) - 1
}

/// Reads `buf.len()` bytes of the log at LSN `at` from the segments that
/// hold them.
fn read_span(segments: &[Segment], mut buf: &mut [u8], mut at: u64) -> Result<()> {
    while !buf.is_empty() {
        let i = segment_at(segments, at);
        let seg_end = segments.get(i + 1).map_or(u64::MAX, |s| s.start);
        let n = (buf.len() as u64).min(seg_end - at) as usize;
        segments[i]
            .file
            .read_at(&mut buf[..n], at - segments[i].start)?;
        buf = &mut buf[n..];
        at += n as u64;
    }
    Ok(())
}

struct Inner {
    /// The last segment, which appends go to: a copy of
    /// `Wal::segments`' last entry, kept here so appends take only this
    /// lock and never the `RwLock`.
    tail: Segment,
    /// Next append LSN: one past the log's last byte.
    end: u64,
    /// Where recovery starts: the first LSN of the segment the last roll
    /// began, or of the one the log was opened at.
    start: u64,
}

/// One chunk of raw, CRC-validated WAL frames handed to a replication
/// subscriber: whole frames only, starting at `start`, within the durable
/// prefix of the log.
#[derive(Clone, Debug)]
pub struct WalChunk {
    /// LSN of the first frame in `bytes`.
    pub start: Lsn,
    /// Raw frame bytes (`[len][crc][payload]`*, zero or more whole frames).
    pub bytes: Vec<u8>,
}

/// Group-commit durability gate (leader/follower fsync batching).
struct SyncGate {
    /// LSN up to which the log is known to be on stable storage: only an
    /// fsync raises it, never an open, and it only grows.
    synced_end: u64,
    /// True while some thread is inside `file.sync()` on the gate's
    /// behalf; arriving committers become followers and wait.
    leader_active: bool,
}

/// Shared observability handles of one [`Wal`]. Cloning shares the
/// underlying cells, so the database registry can hold the same handles
/// the log increments.
#[derive(Clone, Default)]
pub struct WalObs {
    /// Records appended.
    pub appends: Counter,
    /// Frame bytes appended (payload + 8-byte header).
    pub bytes: Counter,
    /// fsyncs issued.
    pub fsyncs: Counter,
    /// Group-commit size: write batches (one per committing transaction,
    /// or one per standalone record) made durable by each fsync.
    pub group_size: Histogram,
}

/// An append-only write-ahead log over segment files. An LSN is a byte
/// position in the log's whole history; no durable byte's LSN is ever
/// reused (a crash that loses an unsynced tail hands its LSNs out again).
/// Segment `path.<lsn>` holds the bytes from its first LSN up to the next
/// segment's. A checkpoint rolls the log onto a new segment
/// ([`Wal::roll`]) and, once the control file records it, removes the
/// ones below ([`Wal::remove_below`]). Nothing is truncated in place
/// except a torn tail at open.
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    /// Every retained segment, by first LSN; the last is `inner.tail`.
    /// Reads of old segments hold it shared, so no segment is removed
    /// under a read. Taken before `inner`.
    segments: RwLock<Vec<Segment>>,
    inner: Mutex<Inner>,
    policy: SyncPolicy,
    obs: WalObs,
    /// Write batches appended since the last fsync (feeds
    /// `obs.group_size`): a batch is one `append_all` (a transaction's
    /// records) or one standalone `append`.
    unsynced: AtomicU64,
    gate: Mutex<SyncGate>,
    gate_changed: Condvar,
}

impl Wal {
    /// Opens (creating if missing) the log at `path` on the real file
    /// system from LSN 0, and cuts it to its valid prefix so new appends
    /// never interleave with a torn tail left by a crash. A log whose
    /// segment 0 a roll has removed reopens with [`Wal::open_at`] at its
    /// start, then [`Wal::cut_tail`].
    pub fn open(path: impl AsRef<Path>, policy: SyncPolicy) -> Result<Wal> {
        Wal::open_with(StdVfs::arc(), path, policy)
    }

    /// [`Wal::open`] through `vfs`.
    fn open_with(vfs: Arc<dyn Vfs>, path: impl AsRef<Path>, policy: SyncPolicy) -> Result<Wal> {
        let wal = Wal::open_at(vfs, path, policy, Lsn(0))?;
        let mut cursor = wal.read_from(Lsn(0))?;
        while cursor.next_record()?.is_some() {}
        wal.cut_tail(cursor.position())?;
        Ok(wal)
    }

    /// Opens the log at `path` through `vfs` for a recovery pass from
    /// `start`, the first LSN of a segment, without reading a byte of it:
    /// each segment ends where the next one on disk begins, and the last
    /// is the first without a successor. Until [`Wal::cut_tail`] its end
    /// may include a torn tail; the caller's pass over
    /// [`Wal::read_from`] finds the valid end, and cuts the log there
    /// before it appends.
    pub fn open_at(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        policy: SyncPolicy,
        start: Lsn,
    ) -> Result<Wal> {
        let path = path.as_ref().to_owned();
        let mut segments = Vec::new();
        let mut at = start.0;
        let end = loop {
            let file = vfs.open(&segment_path(&path, Lsn(at)))?;
            let len = file.len()?;
            segments.push(Segment { start: at, file });
            if len == 0 || !vfs.exists(&segment_path(&path, Lsn(at + len))) {
                break at + len;
            }
            at += len;
        };
        let tail = segments.last().expect("one segment").clone();
        Ok(Wal {
            vfs,
            path,
            segments: RwLock::new(segments),
            inner: Mutex::new(Inner {
                tail,
                end,
                start: start.0,
            }),
            policy,
            obs: WalObs::default(),
            unsynced: AtomicU64::new(0),
            gate: Mutex::new(SyncGate {
                synced_end: start.0,
                leader_active: false,
            }),
            gate_changed: Condvar::new(),
        })
    }

    /// Cuts the log at `end`, the valid end a pass over it found: the torn
    /// bytes past it go, with every segment that begins past it, and
    /// appends continue from it. The durable horizon stays at the start:
    /// after a process kill the surviving prefix may live only in the page
    /// cache, so the next [`Wal::sync_to`] or [`Wal::roll`] fsyncs it.
    pub fn cut_tail(&self, end: Lsn) -> Result<()> {
        let mut segments = self.segments.write().expect("wal segments");
        let mut inner = self.inner.lock().expect("wal lock");
        while segments.len() > 1 && segments.last().expect("a segment").start > end.0 {
            let seg = segments.pop().expect("a segment");
            self.vfs.remove(&segment_path(&self.path, Lsn(seg.start)))?;
        }
        let last = segments.last().expect("a segment");
        if last.file.len()? != end.0 - last.start {
            last.file.set_len(end.0 - last.start)?;
        }
        inner.tail = last.clone();
        inner.end = end.0;
        Ok(())
    }

    /// The configured sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// The log's observability handles (clone to register them).
    pub fn obs(&self) -> &WalObs {
        &self.obs
    }

    /// The log's length: the LSN the next append gets.
    pub fn len(&self) -> u64 {
        self.inner.lock().expect("wal lock").end
    }

    /// True iff the log never held a record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the retained segments hold: the log's length minus the
    /// first LSN of its oldest segment on disk.
    pub fn retained_len(&self) -> u64 {
        let oldest = self.segments.read().expect("wal segments")[0].start;
        self.len() - oldest
    }

    /// Where a recovery of this log starts: the first LSN of the segment
    /// the last [`Wal::roll`] began (or of the one it was opened at).
    pub fn start(&self) -> Lsn {
        Lsn(self.inner.lock().expect("wal lock").start)
    }

    /// The first LSNs of the retained segments below [`Wal::start`]: a
    /// roll retires them, and [`Wal::remove_below`] removes them.
    pub fn retired(&self) -> Vec<Lsn> {
        let segments = self.segments.read().expect("wal segments");
        let start = self.start().0;
        segments
            .iter()
            .take_while(|s| s.start < start)
            .map(|s| Lsn(s.start))
            .collect()
    }

    /// Writes `bytes`, one write batch of `records` records, at the log's
    /// end.
    fn write_locked(&self, inner: &mut Inner, bytes: &[u8], records: u64) -> Result<()> {
        debug_assert!(self.segments.try_read().map_or(true, |segments| segments
            .last()
            .is_some_and(|last| last.start == inner.tail.start)));
        inner
            .tail
            .file
            .write_at(bytes, inner.end - inner.tail.start)?;
        inner.end += bytes.len() as u64;
        self.obs.appends.add(records);
        self.obs.bytes.add(bytes.len() as u64);
        self.unsynced.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Appends a record, returning its LSN.
    pub fn append(&self, rec: &LogRecord) -> Result<Lsn> {
        let frame = encode_frame(rec);
        let mut inner = self.inner.lock().expect("wal lock");
        let lsn = Lsn(inner.end);
        self.write_locked(&mut inner, &frame, 1)?;
        Ok(lsn)
    }

    /// Appends a whole batch of records in one contiguous write under one
    /// lock acquisition, returning the log length *after* the batch — the
    /// LSN a committer hands to [`Wal::sync_to`] to make the batch
    /// durable. Concurrent `append_all` calls never interleave records.
    pub fn append_all(&self, recs: &[LogRecord]) -> Result<Lsn> {
        let mut buf = Vec::new();
        for rec in recs {
            buf.extend_from_slice(&encode_frame(rec));
        }
        let mut inner = self.inner.lock().expect("wal lock");
        self.write_locked(&mut inner, &buf, recs.len() as u64)?;
        Ok(Lsn(inner.end))
    }

    /// Appends a commit record and syncs per policy.
    pub fn append_commit(&self, rec: &LogRecord) -> Result<Lsn> {
        let lsn = self.append(rec)?;
        if self.policy == SyncPolicy::OnCommit {
            self.sync()?;
        }
        Ok(lsn)
    }

    /// Group commit: blocks until the log is durable up to at least
    /// `upto`, issuing at most one fsync for every batch of concurrently
    /// waiting committers. The first arrival becomes the *leader* and
    /// fsyncs whatever the log holds at that moment (possibly covering
    /// records staged after `upto`); arrivals while an fsync is in flight
    /// become *followers* and wait — when the leader finishes, every
    /// follower whose records the fsync covered returns without its own
    /// fsync. A no-op when the policy is [`SyncPolicy::OnCheckpoint`].
    pub fn sync_to(&self, upto: Lsn) -> Result<()> {
        if self.policy != SyncPolicy::OnCommit {
            return Ok(());
        }
        let mut gate = self.gate.lock().expect("wal gate");
        loop {
            if gate.synced_end >= upto.0 {
                return Ok(());
            }
            if gate.leader_active {
                gate = self.gate_changed.wait(gate).expect("wal gate");
                continue;
            }
            gate.leader_active = true;
            drop(gate);
            // Leader: capture the current end, then fsync *outside* both
            // locks so followers keep appending during the fsync — that
            // window is where batching comes from.
            let (file, end) = {
                let inner = self.inner.lock().expect("wal lock");
                (inner.tail.file.clone(), inner.end)
            };
            let res = file.sync();
            let mut g = self.gate.lock().expect("wal gate");
            g.leader_active = false;
            if res.is_ok() {
                g.synced_end = g.synced_end.max(end);
                self.obs.fsyncs.inc();
                self.obs
                    .group_size
                    .record(self.unsynced.swap(0, Ordering::Relaxed));
            }
            drop(g);
            self.gate_changed.notify_all();
            res?;
            gate = self.gate.lock().expect("wal gate");
        }
    }

    /// Forces the log to stable storage (unconditional fsync). The end it
    /// raises the durable horizon to is captured with the segment it
    /// fsyncs: a roll during the fsync begins a later segment, whose bytes
    /// that end does not reach.
    pub fn sync(&self) -> Result<()> {
        let (file, end) = {
            let inner = self.inner.lock().expect("wal lock");
            (inner.tail.file.clone(), inner.end)
        };
        file.sync()?;
        {
            let mut gate = self.gate.lock().expect("wal gate");
            gate.synced_end = gate.synced_end.max(end);
        }
        self.gate_changed.notify_all();
        self.obs.fsyncs.inc();
        self.obs
            .group_size
            .record(self.unsynced.swap(0, Ordering::Relaxed));
        Ok(())
    }

    /// The *replicable* horizon: how far a subscriber may safely be
    /// streamed. Under [`SyncPolicy::OnCommit`] only fsynced bytes ship —
    /// a power cut must never leave a replica ahead of its leader. Under
    /// [`SyncPolicy::OnCheckpoint`] the whole in-memory tail ships (the
    /// leader has already accepted losing it on power failure): a crash
    /// that loses it leaves replicas ahead of the reopened leader, whose
    /// next appends reuse those LSNs, so its replicas must be reseeded.
    pub fn durable_len(&self) -> u64 {
        match self.policy {
            SyncPolicy::OnCommit => self.gate.lock().expect("wal gate").synced_end,
            SyncPolicy::OnCheckpoint => self.len(),
        }
    }

    /// Opens an incremental cursor over the valid records starting at LSN
    /// `from` (a frame boundary previously handed out as an LSN), or at
    /// the oldest retained segment's head when that begins later. The
    /// cursor snapshots the log's end at creation; records appended later
    /// are not observed. Reads the log in bounded chunks — memory use is
    /// O(largest record), not O(log).
    pub fn read_from(&self, from: Lsn) -> Result<WalCursor> {
        let segments = self.segments.read().expect("wal segments").clone();
        let end = self.len();
        let pos = from.0.max(segments[0].start);
        Ok(WalCursor {
            segments,
            pos,
            end,
            buf: Vec::new(),
            buf_start: pos,
            filled: 0,
        })
    }

    /// Reads up to `max_bytes` of raw, CRC-validated frames for a
    /// replication subscriber positioned at `from`. Only *whole* frames
    /// within the durable horizon are returned (the first frame is
    /// included even when it alone exceeds `max_bytes`, so one oversized
    /// record cannot stall the stream). A position below the oldest
    /// retained segment streams from that segment's head `Checkpoint`
    /// record, and the chunk says so by its `start`. An empty `bytes`
    /// means the subscriber is caught up. A position past the durable end,
    /// or one that is not on a frame boundary, is an error naming it.
    pub fn read_chunk(&self, from: Lsn, max_bytes: usize) -> Result<WalChunk> {
        let segments = self.segments.read().expect("wal segments");
        let durable = self.durable_len();
        let start = from.0.max(segments[0].start);
        if start > durable {
            return Err(Error::corruption(format!(
                "replication: lsn {start} lies past the leader's durable end {durable}"
            )));
        }
        let mut bytes = Vec::new();
        let mut pos = start;
        while pos < durable {
            let i = segment_at(&segments, pos);
            let limit = segments
                .get(i + 1)
                .map_or(durable, |s| s.start.min(durable));
            let off_boundary = || {
                Error::corruption(format!(
                    "replication: lsn {pos} is not on a frame boundary of the leader's log"
                ))
            };
            if pos + 8 > limit {
                return Err(off_boundary());
            }
            let mut header = [0u8; 8];
            read_span(&segments, &mut header, pos)?;
            let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as u64;
            let frame_end = pos + 8 + len;
            if frame_end > limit {
                return Err(off_boundary());
            }
            let mut payload = vec![0u8; len as usize];
            read_span(&segments, &mut payload, pos + 8)?;
            if crc32c(&payload).to_le_bytes() != header[4..] {
                return Err(off_boundary());
            }
            bytes.extend_from_slice(&header);
            bytes.extend_from_slice(&payload);
            pos = frame_end;
            if bytes.len() >= max_bytes {
                break;
            }
        }
        Ok(WalChunk {
            start: Lsn(start),
            bytes,
        })
    }

    /// Rolls the log onto a new segment at its end whose first record is
    /// `head` (a checkpoint record), makes it durable, and makes its first
    /// LSN the log's [`Wal::start`], which it returns. The segment before
    /// it is cut to its length and fsynced first, unless an fsync already
    /// covers it, so a durable head is never preceded by a segment shorter
    /// than its successor's name says; a segment that is still empty takes
    /// `head` itself. The segments below stay until the caller has
    /// recorded the returned start durably and calls [`Wal::remove_below`]
    /// with it.
    pub fn roll(&self, head: &LogRecord) -> Result<Lsn> {
        let frame = encode_frame(head);
        let start = {
            let mut segments = self.segments.write().expect("wal segments");
            let mut inner = self.inner.lock().expect("wal lock");
            let len = inner.end - inner.tail.start;
            if len > 0 {
                let long = inner.tail.file.len()? > len;
                if long {
                    inner.tail.file.set_len(len)?;
                }
                if long || self.gate.lock().expect("wal gate").synced_end < inner.end {
                    inner.tail.file.sync()?;
                    self.obs.fsyncs.inc();
                }
                let file = self.vfs.open(&segment_path(&self.path, Lsn(inner.end)))?;
                if file.len()? > 0 {
                    // A file no chain reached: its frames must never follow
                    // the head, not even after a power cut.
                    file.set_len(0)?;
                    file.sync()?;
                }
                let tail = Segment {
                    start: inner.end,
                    file,
                };
                segments.push(tail.clone());
                inner.tail = tail;
            }
            self.write_locked(&mut inner, &frame, 1)?;
            inner.tail.start
        };
        self.sync()?;
        self.inner.lock().expect("wal lock").start = start;
        Ok(Lsn(start))
    }

    /// Removes the segments below `start`, oldest first: the start a
    /// [`Wal::roll`] returned, once a control file records it durably. A
    /// later roll's start is not yet recorded, so it bounds nothing here.
    /// One whose removal fails stays [`Wal::retired`].
    pub fn remove_below(&self, start: Lsn) -> Result<()> {
        let mut segments = self.segments.write().expect("wal segments");
        while segments.len() > 1 && segments[0].start < start.0 {
            self.vfs
                .remove(&segment_path(&self.path, Lsn(segments[0].start)))?;
            segments.remove(0);
        }
        Ok(())
    }

    /// Removes those of the segments beginning at `starts` that are still
    /// on disk: the ones a checkpoint retired and a crash kept it from
    /// removing. None of them may be retained.
    pub fn remove_leftovers(&self, starts: &[Lsn]) -> Result<()> {
        for &start in starts {
            debug_assert!(start.0 < self.segments.read().expect("wal segments")[0].start);
            let path = segment_path(&self.path, start);
            if self.vfs.exists(&path) {
                self.vfs.remove(&path)?;
            }
        }
        Ok(())
    }
}

/// Streaming decoder over a snapshot of one log's valid prefix. Produced
/// by [`Wal::read_from`]; also usable over raw replicated bytes via
/// [`decode_frames`].
pub struct WalCursor {
    segments: Vec<Segment>,
    /// LSN of the next unparsed byte.
    pos: u64,
    /// Log length snapshot taken at cursor creation.
    end: u64,
    /// Read-ahead buffer; `buf[..filled]` holds log bytes starting at
    /// LSN `buf_start`.
    buf: Vec<u8>,
    buf_start: u64,
    filled: usize,
}

impl WalCursor {
    /// Bytes fetched from the file per read-ahead.
    const CHUNK: usize = 64 << 10;

    /// The LSN of the next record [`WalCursor::next_record`] would return —
    /// after the final record, one past the last valid frame.
    pub fn position(&self) -> Lsn {
        Lsn(self.pos)
    }

    /// Ensures at least `need` bytes starting at `self.pos` are buffered,
    /// or as many as the snapshot end allows.
    fn fill(&mut self, need: usize) -> Result<usize> {
        let have = (self.buf_start + self.filled as u64).saturating_sub(self.pos) as usize;
        if have >= need {
            return Ok(have);
        }
        // Discard consumed bytes, then read ahead from the segments.
        let offset = (self.pos - self.buf_start) as usize;
        self.buf.drain(..offset);
        self.filled -= offset;
        self.buf_start = self.pos;
        let want = need.max(Self::CHUNK);
        let avail = (self.end - self.buf_start) as usize;
        let target = want.min(avail);
        if target > self.filled {
            let at = self.buf_start + self.filled as u64;
            let old_len = self.buf.len();
            self.buf.resize(old_len.max(target), 0);
            read_span(&self.segments, &mut self.buf[self.filled..target], at)?;
            self.filled = target;
        }
        Ok(self.filled)
    }

    /// Decodes the next valid record, or `None` at the end of the valid
    /// prefix (a torn or corrupt frame ends the scan cleanly, exactly as
    /// the materializing scan did).
    pub fn next_record(&mut self) -> Result<Option<(Lsn, LogRecord)>> {
        if self.fill(8)? < 8 {
            return Ok(None);
        }
        let base = (self.pos - self.buf_start) as usize;
        let len =
            u32::from_le_bytes(self.buf[base..base + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(self.buf[base + 4..base + 8].try_into().expect("4 bytes"));
        if self.fill(8 + len)? < 8 + len {
            return Ok(None); // torn frame
        }
        let base = (self.pos - self.buf_start) as usize;
        let payload = &self.buf[base + 8..base + 8 + len];
        if crc32c(payload) != crc {
            return Ok(None); // corrupt frame — treat as end of log
        }
        match LogRecord::decode(payload) {
            Ok(rec) => {
                let lsn = Lsn(self.pos);
                self.pos += 8 + len as u64;
                Ok(Some((lsn, rec)))
            }
            Err(_) => Ok(None),
        }
    }
}

/// Decodes raw frame bytes (as shipped in a [`WalChunk`]) into records,
/// returning each record with its LSN (`base` + offset within `bytes`).
/// Errors on a torn or corrupt frame: unlike a log *file* tail, replicated
/// bytes passed CRC validation on the leader, so damage here means the
/// transport or the subscriber's bookkeeping is broken.
pub fn decode_frames(base: Lsn, bytes: &[u8]) -> Result<Vec<(Lsn, LogRecord)>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        if pos + 8 > bytes.len() {
            return Err(tcom_kernel::Error::corruption(
                "replicated WAL chunk ends mid-header",
            ));
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if pos + 8 + len > bytes.len() {
            return Err(tcom_kernel::Error::corruption(
                "replicated WAL chunk ends mid-frame",
            ));
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32c(payload) != crc {
            return Err(tcom_kernel::Error::corruption(
                "replicated WAL frame failed CRC",
            ));
        }
        out.push((Lsn(base.0 + pos as u64), LogRecord::decode(payload)?));
        pos += 8 + len;
    }
    Ok(out)
}

fn encode_frame(rec: &LogRecord) -> Vec<u8> {
    let payload = rec.encode();
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32c(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::sync::mpsc;
    use tcom_kernel::{TimePoint, TxnId};
    use tcom_storage::vfs::FaultVfs;

    /// Every valid record of the retained log, through the cursor.
    fn read_all(wal: &Wal) -> Result<Vec<(Lsn, LogRecord)>> {
        let mut out = Vec::new();
        let mut cursor = wal.read_from(Lsn(0))?;
        while let Some(item) = cursor.next_record()? {
            out.push(item);
        }
        Ok(out)
    }

    /// A log path `<fresh temp dir>/wal`; drop the dir with [`rmlog`].
    fn tmplog(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tcom-wal-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal")
    }

    fn rmlog(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    fn checkpoint(clock: u64) -> LogRecord {
        LogRecord::Checkpoint {
            clock: TimePoint(clock),
            next_atom_nos: vec![(0, clock)],
        }
    }

    /// An armed parking slot: where a sync reports its entry, and where
    /// it waits for its release.
    type Park = Arc<Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>>;

    /// A file whose next `sync` parks once armed: it reports its entry,
    /// then waits for a release before it fsyncs.
    struct ParkedSync {
        file: Arc<dyn VfsFile>,
        park: Park,
    }

    impl VfsFile for ParkedSync {
        fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
            self.file.read_at(buf, offset)
        }
        fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
            self.file.write_at(buf, offset)
        }
        fn sync(&self) -> Result<()> {
            let armed = self.park.lock().unwrap().take();
            if let Some((entered, release)) = armed {
                entered.send(()).unwrap();
                release.recv().unwrap();
            }
            self.file.sync()
        }
        fn set_len(&self, len: u64) -> Result<()> {
            self.file.set_len(len)
        }
        fn len(&self) -> Result<u64> {
            self.file.len()
        }
    }

    /// A [`FaultVfs`] whose files share one parking slot.
    #[derive(Clone, Default)]
    struct Parking {
        vfs: FaultVfs,
        park: Park,
    }

    impl Vfs for Parking {
        fn open(&self, path: &Path) -> Result<Arc<dyn VfsFile>> {
            Ok(Arc::new(ParkedSync {
                file: self.vfs.open(path)?,
                park: self.park.clone(),
            }))
        }
        fn exists(&self, path: &Path) -> bool {
            self.vfs.exists(path)
        }
        fn remove(&self, path: &Path) -> Result<()> {
            self.vfs.remove(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> Result<()> {
            self.vfs.rename(from, to)
        }
    }

    /// An unconditional `sync` whose fsync of the old segment straddles a
    /// checkpoint's roll must not mark the new segment's bytes durable:
    /// a horizon past them would let a later commit's `sync_to` skip its
    /// fsync.
    #[test]
    fn sync_straddling_a_roll_keeps_the_durable_horizon() {
        let vfs = Parking::default();
        let wal = Wal::open_with(Arc::new(vfs.clone()), "wal", SyncPolicy::OnCommit).unwrap();
        for i in 1..=8 {
            wal.append(&LogRecord::Begin { txn: TxnId(i) }).unwrap();
        }
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        *vfs.park.lock().unwrap() = Some((entered_tx, release_rx));
        let end = std::thread::scope(|s| {
            let syncer = s.spawn(|| wal.sync());
            entered.recv().unwrap();
            wal.roll(&checkpoint(8)).unwrap();
            let end = wal
                .append_all(&[LogRecord::Begin { txn: TxnId(9) }])
                .unwrap();
            release.send(()).unwrap();
            syncer.join().unwrap().unwrap();
            end
        });
        assert!(
            wal.durable_len() < end.0,
            "the new segment's batch is not durable yet"
        );
        wal.sync_to(end).unwrap();
        assert_eq!(wal.durable_len(), end.0);
    }

    #[test]
    fn append_read_roundtrip() {
        let path = tmplog("rt");
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        assert!(wal.is_empty());
        let recs = vec![
            LogRecord::Begin { txn: TxnId(1) },
            LogRecord::CloseVersion {
                txn: TxnId(1),
                atom: tcom_kernel::AtomId::new(tcom_kernel::AtomTypeId(0), tcom_kernel::AtomNo(5)),
                vt_start: TimePoint(0),
                tt_end: TimePoint(9),
            },
            LogRecord::Commit { txn: TxnId(1) },
        ];
        let mut lsns = Vec::new();
        for r in &recs {
            lsns.push(wal.append(r).unwrap());
        }
        wal.sync().unwrap();
        let back = read_all(&wal).unwrap();
        assert_eq!(back.len(), 3);
        for ((lsn, rec), (want_lsn, want_rec)) in back.iter().zip(lsns.iter().zip(&recs)) {
            assert_eq!(lsn, want_lsn);
            assert_eq!(rec, want_rec);
        }
        rmlog(&path);
    }

    /// A reopened log keeps its records, and its next LSN continues from
    /// the old end: across a roll too, reopened at its start, no LSN is
    /// ever handed out twice.
    #[test]
    fn survives_reopen() {
        let path = tmplog("reopen");
        let end = {
            let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
            wal.append(&LogRecord::Begin { txn: TxnId(9) }).unwrap();
            wal.append_commit(&LogRecord::Commit { txn: TxnId(9) })
                .unwrap();
            wal.len()
        };
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        let back = read_all(&wal).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].1, LogRecord::Commit { txn: TxnId(9) });
        // Appends continue after the existing records.
        assert_eq!(
            wal.append(&LogRecord::Begin { txn: TxnId(10) }).unwrap(),
            Lsn(end)
        );
        assert_eq!(read_all(&wal).unwrap().len(), 3);
        let start = wal.roll(&checkpoint(10)).unwrap();
        wal.remove_below(start).unwrap();
        let end = wal
            .append_all(&[LogRecord::Commit { txn: TxnId(10) }])
            .unwrap();
        drop(wal);

        let wal = Wal::open_at(StdVfs::arc(), &path, SyncPolicy::OnCommit, start).unwrap();
        let mut cursor = wal.read_from(start).unwrap();
        let mut back = Vec::new();
        while let Some((lsn, rec)) = cursor.next_record().unwrap() {
            assert!(lsn >= start, "a record below the start");
            back.push(rec);
        }
        wal.cut_tail(cursor.position()).unwrap();
        assert_eq!(
            back,
            vec![checkpoint(10), LogRecord::Commit { txn: TxnId(10) }]
        );
        assert_eq!(
            wal.append(&LogRecord::Begin { txn: TxnId(11) }).unwrap(),
            end,
            "the next LSN continues from the old end"
        );
        rmlog(&path);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let path = tmplog("torn");
        {
            let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
            wal.append(&LogRecord::Begin { txn: TxnId(1) }).unwrap();
            wal.append(&LogRecord::Commit { txn: TxnId(1) }).unwrap();
            wal.sync().unwrap();
        }
        // Simulate a crash mid-append: garbage half-frame at the end.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(segment_path(&path, Lsn(0)))
                .unwrap();
            f.write_all(&[200, 0, 0, 0, 0xDE, 0xAD]).unwrap();
        }
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        let back = read_all(&wal).unwrap();
        assert_eq!(back.len(), 2, "torn tail must not surface");
        // New appends land cleanly after the valid prefix.
        wal.append(&LogRecord::Begin { txn: TxnId(2) }).unwrap();
        assert_eq!(read_all(&wal).unwrap().len(), 3);
        rmlog(&path);
    }

    #[test]
    fn corrupt_middle_frame_truncates_from_there() {
        let path = tmplog("corrupt");
        {
            let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
            for i in 0..5 {
                wal.append(&LogRecord::Begin { txn: TxnId(i) }).unwrap();
            }
            wal.sync().unwrap();
        }
        // Flip a byte in the middle of the file.
        {
            let seg = segment_path(&path, Lsn(0));
            let mut data = std::fs::read(&seg).unwrap();
            let mid = data.len() / 2;
            data[mid] ^= 0x55;
            std::fs::write(&seg, &data).unwrap();
        }
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        let back = read_all(&wal).unwrap();
        assert!(back.len() < 5, "records after the corruption are dropped");
        rmlog(&path);
    }

    /// A roll starts a new segment whose first record is the checkpoint,
    /// and the log's length keeps growing; once the old segment is
    /// removed, only the checkpoint is retained.
    #[test]
    fn roll_starts_a_segment_with_the_checkpoint() {
        let path = tmplog("roll");
        let wal = Wal::open(&path, SyncPolicy::OnCheckpoint).unwrap();
        for i in 0..100 {
            wal.append(&LogRecord::Begin { txn: TxnId(i) }).unwrap();
        }
        let before = wal.len();
        let start = wal.roll(&checkpoint(55)).unwrap();
        assert_eq!(start, Lsn(before));
        assert_eq!(wal.start(), start);
        assert!(wal.len() > before);
        assert_eq!(wal.retired(), vec![Lsn(0)]);
        assert_eq!(read_all(&wal).unwrap().len(), 101);
        wal.remove_below(start).unwrap();
        assert!(wal.retired().is_empty());
        assert!(!segment_path(&path, Lsn(0)).exists());
        assert_eq!(wal.retained_len(), wal.len() - before);
        let back = read_all(&wal).unwrap();
        assert_eq!(back, vec![(start, checkpoint(55))]);
        rmlog(&path);
    }

    /// Reopened at a start below a roll, the log chains its segments by
    /// name and length: one pass reads across the boundary, and a torn
    /// tail of the last segment is cut.
    #[test]
    fn reopen_chains_segments_from_the_start() {
        let path = tmplog("chain");
        let recs: Vec<LogRecord> = (0..6).map(|i| LogRecord::Begin { txn: TxnId(i) }).collect();
        let (start, end) = {
            let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
            wal.append_all(&recs[..3]).unwrap();
            let start = wal.roll(&checkpoint(3)).unwrap();
            let end = wal.append_all(&recs[3..]).unwrap();
            wal.sync().unwrap();
            (start, end)
        };
        // A crash mid-append leaves a half frame in the last segment.
        OpenOptions::new()
            .append(true)
            .open(segment_path(&path, start))
            .unwrap()
            .write_all(&[200, 0, 0, 0, 0xDE])
            .unwrap();
        let wal = Wal::open_at(StdVfs::arc(), &path, SyncPolicy::OnCommit, Lsn(0)).unwrap();
        let mut cursor = wal.read_from(Lsn(0)).unwrap();
        let mut back = Vec::new();
        while let Some((_, rec)) = cursor.next_record().unwrap() {
            back.push(rec);
        }
        assert_eq!(cursor.position(), end);
        let mut want = recs[..3].to_vec();
        want.push(checkpoint(3));
        want.extend_from_slice(&recs[3..]);
        assert_eq!(back, want);
        wal.cut_tail(cursor.position()).unwrap();
        assert_eq!(
            std::fs::metadata(segment_path(&path, start)).unwrap().len(),
            end.0 - start.0,
            "the torn bytes are cut"
        );
        assert_eq!(
            wal.append(&LogRecord::Commit { txn: TxnId(5) }).unwrap(),
            end
        );
        rmlog(&path);
    }

    #[test]
    fn append_all_matches_sequential_appends() {
        let p1 = tmplog("batch-a");
        let p2 = tmplog("batch-b");
        let recs: Vec<LogRecord> = (0..5).map(|i| LogRecord::Begin { txn: TxnId(i) }).collect();
        let w1 = Wal::open(&p1, SyncPolicy::OnCommit).unwrap();
        let end = w1.append_all(&recs).unwrap();
        assert_eq!(end.0, w1.len());
        let w2 = Wal::open(&p2, SyncPolicy::OnCommit).unwrap();
        for r in &recs {
            w2.append(r).unwrap();
        }
        let a: Vec<_> = read_all(&w1).unwrap();
        let b: Vec<_> = read_all(&w2).unwrap();
        assert_eq!(a, b, "batched and sequential appends must be identical");
        rmlog(&p1);
        rmlog(&p2);
    }

    #[test]
    fn sync_to_is_single_fsync_uncontended() {
        let path = tmplog("gate");
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        let end = wal
            .append_all(&[
                LogRecord::Begin { txn: TxnId(1) },
                LogRecord::Commit { txn: TxnId(1) },
            ])
            .unwrap();
        wal.sync_to(end).unwrap();
        assert_eq!(wal.obs().fsyncs.get(), 1);
        // Already durable up to `end`: no further fsync.
        wal.sync_to(end).unwrap();
        assert_eq!(wal.obs().fsyncs.get(), 1);
        rmlog(&path);
    }

    /// After a roll, a batch in the new segment still needs its own
    /// fsync: the horizon the roll left covers only its head.
    #[test]
    fn sync_to_after_roll_refsyncs() {
        let path = tmplog("gate-roll");
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        let end = wal
            .append_all(&[LogRecord::Begin { txn: TxnId(1) }])
            .unwrap();
        wal.sync_to(end).unwrap();
        wal.roll(&checkpoint(1)).unwrap();
        let fsyncs = wal.obs().fsyncs.get();
        let end = wal
            .append_all(&[LogRecord::Begin { txn: TxnId(2) }])
            .unwrap();
        wal.sync_to(end).unwrap();
        assert_eq!(wal.obs().fsyncs.get(), fsyncs + 1);
        rmlog(&path);
    }

    /// Removal is bounded by the start its caller recorded, not by the
    /// live one: the segment a later roll retired, while no control file
    /// names that roll yet, stays.
    #[test]
    fn remove_below_keeps_what_a_later_roll_retired() {
        let path = tmplog("remove-below");
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        wal.append_all(&[LogRecord::Begin { txn: TxnId(1) }])
            .unwrap();
        let first = wal.roll(&checkpoint(1)).unwrap();
        wal.append_all(&[LogRecord::Begin { txn: TxnId(2) }])
            .unwrap();
        let second = wal.roll(&checkpoint(2)).unwrap();
        wal.remove_below(first).unwrap();
        assert!(!segment_path(&path, Lsn(0)).exists());
        assert!(segment_path(&path, first).exists());
        assert_eq!(wal.retired(), vec![first]);
        assert_eq!(read_all(&wal).unwrap()[0], (first, checkpoint(1)));
        wal.remove_below(second).unwrap();
        assert!(wal.retired().is_empty());
        assert_eq!(read_all(&wal).unwrap(), vec![(second, checkpoint(2))]);
        rmlog(&path);
    }

    /// A process kill leaves the unsynced tail in the page cache, where a
    /// reopen reads it; the reopen must not count it durable. The first
    /// roll fsyncs it, so after a power cut before any control file names
    /// the roll, the old segment is still as long as the new one's name
    /// says, and a pass from the old start reaches the head.
    #[test]
    fn reopen_over_a_killed_process_leaves_its_tail_to_an_fsync() {
        let vfs = FaultVfs::new();
        let recs: Vec<LogRecord> = (0..4).map(|i| LogRecord::Begin { txn: TxnId(i) }).collect();
        Wal::open_with(Arc::new(vfs.clone()), "wal", SyncPolicy::OnCommit)
            .unwrap()
            .append_all(&recs)
            .unwrap();
        let wal = Wal::open_with(Arc::new(vfs.clone()), "wal", SyncPolicy::OnCommit).unwrap();
        assert_eq!(read_all(&wal).unwrap().len(), 4);
        assert_eq!(wal.durable_len(), 0, "no fsync has covered the tail");
        wal.roll(&checkpoint(4)).unwrap();

        let cut = vfs.durable_copy();
        let wal = Wal::open_at(Arc::new(cut), "wal", SyncPolicy::OnCommit, Lsn(0)).unwrap();
        let mut want = recs;
        want.push(checkpoint(4));
        let back: Vec<LogRecord> = read_all(&wal).unwrap().into_iter().map(|r| r.1).collect();
        assert_eq!(back, want);
    }

    /// A roll onto a name that a file no chain reached already holds
    /// empties it durably first: its frames never follow the head, not
    /// even after a power cut.
    #[test]
    fn roll_empties_a_stale_segment_file() {
        let vfs = FaultVfs::new();
        let wal = Wal::open_with(Arc::new(vfs.clone()), "wal", SyncPolicy::OnCommit).unwrap();
        let end = wal
            .append_all(&[LogRecord::Begin { txn: TxnId(1) }])
            .unwrap();
        // The head's own frame, then one more valid frame past it.
        let mut stale = encode_frame(&checkpoint(1));
        stale.extend_from_slice(&encode_frame(&LogRecord::Commit { txn: TxnId(7) }));
        let file = vfs.open(&segment_path(Path::new("wal"), end)).unwrap();
        file.write_at(&stale, 0).unwrap();
        file.sync().unwrap();

        let start = wal.roll(&checkpoint(1)).unwrap();
        assert_eq!(start, end);
        wal.remove_below(start).unwrap();
        assert_eq!(read_all(&wal).unwrap(), vec![(start, checkpoint(1))]);
        let cut = vfs.durable_copy();
        let wal = Wal::open_at(Arc::new(cut), "wal", SyncPolicy::OnCommit, start).unwrap();
        assert_eq!(read_all(&wal).unwrap(), vec![(start, checkpoint(1))]);
    }

    #[test]
    fn cursor_matches_read_all_and_resumes_mid_log() {
        let path = tmplog("cursor");
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        let recs: Vec<LogRecord> = (0..50)
            .map(|i| LogRecord::Begin { txn: TxnId(i) })
            .collect();
        let mut lsns = Vec::new();
        for r in &recs {
            lsns.push(wal.append(r).unwrap());
        }
        wal.sync().unwrap();
        let all = read_all(&wal).unwrap();
        assert_eq!(all.len(), 50);
        // Resume from the LSN of record 30: the cursor yields the suffix.
        let mut cursor = wal.read_from(lsns[30]).unwrap();
        let mut suffix = Vec::new();
        while let Some(item) = cursor.next_record().unwrap() {
            suffix.push(item);
        }
        assert_eq!(suffix, all[30..].to_vec());
        assert_eq!(cursor.position().0, wal.len());
        rmlog(&path);
    }

    #[test]
    fn cursor_snapshots_end_at_creation() {
        let path = tmplog("cursor-snap");
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        wal.append(&LogRecord::Begin { txn: TxnId(1) }).unwrap();
        let mut cursor = wal.read_from(Lsn(0)).unwrap();
        wal.append(&LogRecord::Begin { txn: TxnId(2) }).unwrap();
        assert!(cursor.next_record().unwrap().is_some());
        assert!(
            cursor.next_record().unwrap().is_none(),
            "records appended after cursor creation must not be observed"
        );
        rmlog(&path);
    }

    #[test]
    fn read_chunk_ships_only_durable_whole_frames() {
        let path = tmplog("chunk");
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        let recs: Vec<LogRecord> = (0..10)
            .map(|i| LogRecord::Begin { txn: TxnId(i) })
            .collect();
        let end = wal.append_all(&recs[..6]).unwrap();
        wal.sync_to(end).unwrap();
        // Unsynced tail: must not ship under OnCommit.
        wal.append_all(&recs[6..]).unwrap();
        let chunk = wal.read_chunk(Lsn(0), usize::MAX).unwrap();
        let decoded = decode_frames(chunk.start, &chunk.bytes).unwrap();
        assert_eq!(
            decoded.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
            recs[..6].to_vec(),
            "only the fsynced prefix is replicable"
        );
        // A tiny max_bytes still ships at least one whole frame.
        let small = wal.read_chunk(Lsn(0), 1).unwrap();
        let one = decode_frames(small.start, &small.bytes).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].1, recs[0]);
        // Resuming from the end of the durable prefix yields nothing.
        let caught_up = wal.read_chunk(Lsn(end.0), usize::MAX).unwrap();
        assert!(caught_up.bytes.is_empty());
        assert_eq!(caught_up.start, end);
        rmlog(&path);
    }

    /// A subscriber position below the oldest retained segment streams
    /// from that segment's head checkpoint; one past the durable end, or
    /// off a frame boundary, is an error naming it instead of an endless
    /// run of empty chunks.
    #[test]
    fn read_chunk_positions_outside_the_stream() {
        let path = tmplog("chunk-edges");
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        let first = wal
            .append_all(&[LogRecord::Begin { txn: TxnId(1) }])
            .unwrap();
        wal.sync_to(first).unwrap();
        let start = wal.roll(&checkpoint(1)).unwrap();
        let end = wal
            .append_all(&[LogRecord::Begin { txn: TxnId(2) }])
            .unwrap();
        wal.sync_to(end).unwrap();
        wal.remove_below(start).unwrap();

        let below = wal.read_chunk(Lsn(0), usize::MAX).unwrap();
        assert_eq!(below.start, start, "streams from the oldest head");
        let recs = decode_frames(below.start, &below.bytes).unwrap();
        assert_eq!(recs[0].1, checkpoint(1));
        assert_eq!(recs.len(), 2);

        let past = wal.read_chunk(Lsn(end.0 + 1), usize::MAX).unwrap_err();
        assert!(
            past.to_string().contains("past the leader's durable end"),
            "{past}"
        );
        let mid = wal.read_chunk(Lsn(start.0 + 3), usize::MAX).unwrap_err();
        assert!(mid.to_string().contains("not on a frame boundary"), "{mid}");
        rmlog(&path);
    }

    #[test]
    fn decode_frames_rejects_damage() {
        let path = tmplog("decode-damage");
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        wal.append(&LogRecord::Begin { txn: TxnId(1) }).unwrap();
        wal.sync().unwrap();
        let chunk = wal.read_chunk(Lsn(0), usize::MAX).unwrap();
        // Truncated mid-frame.
        assert!(decode_frames(Lsn(0), &chunk.bytes[..chunk.bytes.len() - 1]).is_err());
        // Flipped payload byte.
        let mut bad = chunk.bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(decode_frames(Lsn(0), &bad).is_err());
        rmlog(&path);
    }

    #[test]
    fn lsn_is_byte_offset() {
        let path = tmplog("lsn");
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        let a = wal.append(&LogRecord::Begin { txn: TxnId(1) }).unwrap();
        let b = wal.append(&LogRecord::Begin { txn: TxnId(2) }).unwrap();
        assert_eq!(a, Lsn(0));
        assert!(b > a);
        rmlog(&path);
    }
}
