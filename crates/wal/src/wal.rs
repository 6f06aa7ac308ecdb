//! The log manager: framed appends, crash-tolerant reads, truncation.

use crate::record::LogRecord;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use tcom_kernel::codec::crc32c;
use tcom_kernel::{Lsn, Result};
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

struct Inner {
    file: Arc<dyn VfsFile>,
    /// Next append offset == current log length in bytes.
    end: u64,
    /// The log's *epoch*: a fresh, incarnation-unique value drawn at every
    /// open and at every [`Wal::reset_with`] truncation. LSNs are byte
    /// offsets, so a truncation makes old LSNs ambiguous; the epoch lets a
    /// replication subscriber detect that its resume position belongs to a
    /// log that no longer exists.
    epoch: u64,
}

/// Draws an epoch no other log incarnation of this or any concurrently
/// running process will draw (process id ⊕ a process-local counter).
fn fresh_epoch() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    ((std::process::id() as u64) << 32) | COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// One chunk of raw, CRC-validated WAL frames handed to a replication
/// subscriber: whole frames only, starting at `start`, within the durable
/// prefix of log incarnation `epoch`.
#[derive(Clone, Debug)]
pub struct WalChunk {
    /// The log incarnation these bytes belong to.
    pub epoch: u64,
    /// Byte offset of the first frame in `bytes`.
    pub start: Lsn,
    /// Raw frame bytes (`[len][crc][payload]`*, zero or more whole frames).
    pub bytes: Vec<u8>,
}

/// Group-commit durability gate (leader/follower fsync batching).
struct SyncGate {
    /// Log length known to be on stable storage.
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

/// An append-only write-ahead log.
pub struct Wal {
    inner: Mutex<Inner>,
    path: PathBuf,
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
    /// system.
    pub fn open(path: impl AsRef<Path>, policy: SyncPolicy) -> Result<Wal> {
        Wal::open_with(&StdVfs, path, policy)
    }

    /// Opens (creating if missing) the log at `path` through `vfs`.
    ///
    /// `open` truncates the file to the last valid frame boundary so new
    /// appends never interleave with a torn tail left by a crash.
    pub fn open_with(vfs: &dyn Vfs, path: impl AsRef<Path>, policy: SyncPolicy) -> Result<Wal> {
        let path = path.as_ref().to_owned();
        let file = vfs.open(&path)?;
        // Find the end of the valid prefix.
        let valid_end = scan_valid_end(&file)?;
        if valid_end != file.len()? {
            file.set_len(valid_end)?;
        }
        Ok(Wal {
            inner: Mutex::new(Inner {
                file,
                end: valid_end,
                epoch: fresh_epoch(),
            }),
            path,
            policy,
            obs: WalObs::default(),
            unsynced: AtomicU64::new(0),
            gate: Mutex::new(SyncGate {
                // The surviving prefix was durable before the reopen.
                synced_end: valid_end,
                leader_active: false,
            }),
            gate_changed: Condvar::new(),
        })
    }

    /// The configured sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// The log's observability handles (clone to register them).
    pub fn obs(&self) -> &WalObs {
        &self.obs
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current log length in bytes.
    pub fn len(&self) -> u64 {
        self.inner.lock().expect("wal lock").end
    }

    /// True iff the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a record, returning its LSN (byte offset of the frame).
    pub fn append(&self, rec: &LogRecord) -> Result<Lsn> {
        let frame = encode_frame(rec);
        let mut inner = self.inner.lock().expect("wal lock");
        let lsn = Lsn(inner.end);
        inner.file.write_at(&frame, inner.end)?;
        inner.end += frame.len() as u64;
        self.obs.appends.inc();
        self.obs.bytes.add(frame.len() as u64);
        self.unsynced.fetch_add(1, Ordering::Relaxed);
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
        inner.file.write_at(&buf, inner.end)?;
        inner.end += buf.len() as u64;
        self.obs.appends.add(recs.len() as u64);
        self.obs.bytes.add(buf.len() as u64);
        self.unsynced.fetch_add(1, Ordering::Relaxed);
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
                (inner.file.clone(), inner.end)
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

    /// Forces the log to stable storage (unconditional fsync).
    pub fn sync(&self) -> Result<()> {
        let (file, end, epoch) = {
            let inner = self.inner.lock().expect("wal lock");
            (inner.file.clone(), inner.end, inner.epoch)
        };
        file.sync()?;
        // A reset during the fsync truncated what it covered: only an
        // fsync of the current epoch moves the durable horizon.
        let inner = self.inner.lock().expect("wal lock");
        if inner.epoch == epoch {
            let mut gate = self.gate.lock().expect("wal gate");
            gate.synced_end = gate.synced_end.max(end);
        }
        drop(inner);
        self.gate_changed.notify_all();
        self.obs.fsyncs.inc();
        self.obs
            .group_size
            .record(self.unsynced.swap(0, Ordering::Relaxed));
        Ok(())
    }

    /// The log's current epoch (changes on every [`Wal::reset_with`]).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().expect("wal lock").epoch
    }

    /// The *replicable* horizon: how far a subscriber may safely be
    /// streamed. Under [`SyncPolicy::OnCommit`] only fsynced bytes ship —
    /// a power cut must never leave a replica ahead of its leader. Under
    /// [`SyncPolicy::OnCheckpoint`] the whole in-memory tail ships (the
    /// leader has already accepted losing it on power failure).
    pub fn durable_len(&self) -> u64 {
        match self.policy {
            SyncPolicy::OnCommit => self.gate.lock().expect("wal gate").synced_end,
            SyncPolicy::OnCheckpoint => self.len(),
        }
    }

    /// Opens an incremental cursor over the valid records starting at
    /// byte offset `from` (must be a frame boundary previously handed out
    /// as an LSN, or 0). The cursor snapshots the log length at creation;
    /// records appended later are not observed. Reads the log in bounded
    /// chunks — memory use is O(largest record), not O(log).
    pub fn read_from(&self, from: Lsn) -> Result<WalCursor> {
        let inner = self.inner.lock().expect("wal lock");
        Ok(WalCursor::new(inner.file.clone(), from.0, inner.end))
    }

    /// Reads up to `max_bytes` of raw, CRC-validated frames for a
    /// replication subscriber positioned at `from`. Only *whole* frames
    /// within the durable horizon are returned (the first frame is
    /// included even when it alone exceeds `max_bytes`, so one oversized
    /// record cannot stall the stream). An empty `bytes` means the
    /// subscriber is caught up — or, if `from` lies beyond the durable
    /// end, that its position belongs to a different epoch.
    pub fn read_chunk(&self, from: Lsn, max_bytes: usize) -> Result<WalChunk> {
        loop {
            let (file, epoch) = {
                let inner = self.inner.lock().expect("wal lock");
                (inner.file.clone(), inner.epoch)
            };
            let durable = self.durable_len();
            let mut chunk = WalChunk {
                epoch,
                start: from,
                bytes: Vec::new(),
            };
            let mut pos = from.0;
            while pos + 8 <= durable {
                let mut header = [0u8; 8];
                file.read_at(&mut header, pos)?;
                let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as u64;
                let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
                if pos + 8 + len > durable {
                    break;
                }
                let mut payload = vec![0u8; len as usize];
                file.read_at(&mut payload, pos + 8)?;
                if crc32c(&payload) != crc {
                    break;
                }
                chunk.bytes.extend_from_slice(&header);
                chunk.bytes.extend_from_slice(&payload);
                pos += 8 + len;
                if chunk.bytes.len() >= max_bytes {
                    break;
                }
            }
            // A checkpoint truncation may have swept the log out from under
            // this read (epoch capture → truncate → stale bytes). Retry
            // until the epoch was stable across the whole read; only then
            // are the bytes guaranteed to belong to `epoch`.
            if self.inner.lock().expect("wal lock").epoch == epoch {
                return Ok(chunk);
            }
        }
    }

    /// Truncates the log to empty, then appends `first` (typically a
    /// checkpoint record) and syncs. The caller must have flushed and
    /// synced all data files *before* calling this. Draws a fresh epoch:
    /// pre-truncation LSNs are meaningless afterwards.
    pub fn reset_with(&self, first: &LogRecord) -> Result<Lsn> {
        {
            let mut inner = self.inner.lock().expect("wal lock");
            inner.file.set_len(0)?;
            inner.end = 0;
            inner.epoch = fresh_epoch();
            // The durable horizon moved backwards with the truncation; a
            // stale `synced_end` would let `sync_to` skip a needed fsync.
            self.gate.lock().expect("wal gate").synced_end = 0;
        }
        let lsn = self.append(first)?;
        self.sync()?;
        Ok(lsn)
    }
}

/// Streaming decoder over a snapshot of one log's valid prefix. Produced
/// by [`Wal::read_from`]; also usable over raw replicated bytes via
/// [`decode_frames`].
pub struct WalCursor {
    file: Arc<dyn VfsFile>,
    /// Absolute offset of the next unparsed byte.
    pos: u64,
    /// Log length snapshot taken at cursor creation.
    end: u64,
    /// Read-ahead buffer; `buf[..filled]` holds file bytes starting at
    /// absolute offset `buf_start`.
    buf: Vec<u8>,
    buf_start: u64,
    filled: usize,
}

impl WalCursor {
    /// Bytes fetched from the file per read-ahead.
    const CHUNK: usize = 64 << 10;

    fn new(file: Arc<dyn VfsFile>, pos: u64, end: u64) -> WalCursor {
        WalCursor {
            file,
            pos,
            end,
            buf: Vec::new(),
            buf_start: pos,
            filled: 0,
        }
    }

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
        // Discard consumed bytes, then read ahead from the file.
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
            self.file.read_at(&mut self.buf[self.filled..target], at)?;
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

/// Scans the file from the start in bounded chunks, returning the byte
/// offset one past the last valid frame — without materializing records.
fn scan_valid_end(file: &Arc<dyn VfsFile>) -> Result<u64> {
    let file_len = file.len()?;
    let mut cursor = WalCursor::new(file.clone(), 0, file_len);
    while cursor.next_record()?.is_some() {}
    Ok(cursor.position().0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::sync::mpsc;
    use tcom_kernel::{TimePoint, TxnId};
    use tcom_storage::vfs::FaultVfs;

    /// Every valid record from the start of the log, through the cursor.
    fn read_all(wal: &Wal) -> Result<Vec<(Lsn, LogRecord)>> {
        let mut out = Vec::new();
        let mut cursor = wal.read_from(Lsn(0))?;
        while let Some(item) = cursor.next_record()? {
            out.push(item);
        }
        Ok(out)
    }

    fn tmplog(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("tcom-wal-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// A file whose next `sync` parks once armed: it reports its entry,
    /// then waits for a release before it fsyncs.
    struct ParkedSync {
        file: Arc<dyn VfsFile>,
        park: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
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

    struct OneFile(Arc<ParkedSync>);

    impl Vfs for OneFile {
        fn open(&self, _: &Path) -> Result<Arc<dyn VfsFile>> {
            Ok(self.0.clone())
        }
        fn exists(&self, _: &Path) -> bool {
            true
        }
        fn remove(&self, _: &Path) -> Result<()> {
            unreachable!("the log is never removed")
        }
        fn rename(&self, _: &Path, _: &Path) -> Result<()> {
            unreachable!("the log is never renamed")
        }
    }

    /// An unconditional `sync` whose fsync straddles a checkpoint's reset
    /// must not raise the durable horizon past the new, shorter log: a
    /// stale horizon would let a later commit's `sync_to` skip its fsync.
    #[test]
    fn sync_straddling_a_reset_keeps_the_durable_horizon() {
        let path = Path::new("wal.log");
        let file = Arc::new(ParkedSync {
            file: FaultVfs::new().open(path).unwrap(),
            park: Mutex::new(None),
        });
        let wal = Wal::open_with(&OneFile(file.clone()), path, SyncPolicy::OnCommit).unwrap();
        for i in 1..=8 {
            wal.append(&LogRecord::Begin { txn: TxnId(i) }).unwrap();
        }
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        *file.park.lock().unwrap() = Some((entered_tx, release_rx));
        std::thread::scope(|s| {
            let syncer = s.spawn(|| wal.sync());
            entered.recv().unwrap();
            wal.reset_with(&LogRecord::Checkpoint {
                clock: TimePoint(8),
                next_atom_nos: vec![],
            })
            .unwrap();
            release.send(()).unwrap();
            syncer.join().unwrap().unwrap();
        });
        assert_eq!(wal.durable_len(), wal.len());
        let end = wal
            .append_all(&[LogRecord::Begin { txn: TxnId(9) }])
            .unwrap();
        assert!(
            wal.durable_len() < end.0,
            "the new batch is not durable yet"
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
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn survives_reopen() {
        let path = tmplog("reopen");
        {
            let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
            wal.append(&LogRecord::Begin { txn: TxnId(9) }).unwrap();
            wal.append_commit(&LogRecord::Commit { txn: TxnId(9) })
                .unwrap();
        }
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        let back = read_all(&wal).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].1, LogRecord::Commit { txn: TxnId(9) });
        // Appends continue after the existing records.
        wal.append(&LogRecord::Begin { txn: TxnId(10) }).unwrap();
        assert_eq!(read_all(&wal).unwrap().len(), 3);
        let _ = std::fs::remove_file(&path);
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
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[200, 0, 0, 0, 0xDE, 0xAD]).unwrap();
        }
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        let back = read_all(&wal).unwrap();
        assert_eq!(back.len(), 2, "torn tail must not surface");
        // New appends land cleanly after the valid prefix.
        wal.append(&LogRecord::Begin { txn: TxnId(2) }).unwrap();
        assert_eq!(read_all(&wal).unwrap().len(), 3);
        let _ = std::fs::remove_file(&path);
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
            let data = std::fs::read(&path).unwrap();
            let mut data = data;
            let mid = data.len() / 2;
            data[mid] ^= 0x55;
            std::fs::write(&path, &data).unwrap();
        }
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        let back = read_all(&wal).unwrap();
        assert!(back.len() < 5, "records after the corruption are dropped");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reset_with_checkpoint() {
        let path = tmplog("reset");
        let wal = Wal::open(&path, SyncPolicy::OnCheckpoint).unwrap();
        for i in 0..100 {
            wal.append(&LogRecord::Begin { txn: TxnId(i) }).unwrap();
        }
        let before = wal.len();
        wal.reset_with(&LogRecord::Checkpoint {
            clock: TimePoint(55),
            next_atom_nos: vec![(0, 10)],
        })
        .unwrap();
        assert!(wal.len() < before);
        let back = read_all(&wal).unwrap();
        assert_eq!(back.len(), 1);
        assert!(matches!(
            back[0].1,
            LogRecord::Checkpoint {
                clock: TimePoint(55),
                ..
            }
        ));
        let _ = std::fs::remove_file(&path);
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
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
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
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_to_after_reset_refsyncs() {
        let path = tmplog("gate-reset");
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        let end = wal
            .append_all(&[LogRecord::Begin { txn: TxnId(1) }])
            .unwrap();
        wal.sync_to(end).unwrap();
        wal.reset_with(&LogRecord::Checkpoint {
            clock: TimePoint(1),
            next_atom_nos: vec![],
        })
        .unwrap();
        let fsyncs = wal.obs().fsyncs.get();
        // The new tail is shorter than the pre-reset durable horizon; a
        // stale gate would wrongly skip this fsync.
        let end = wal
            .append_all(&[LogRecord::Begin { txn: TxnId(2) }])
            .unwrap();
        wal.sync_to(end).unwrap();
        assert_eq!(wal.obs().fsyncs.get(), fsyncs + 1);
        let _ = std::fs::remove_file(&path);
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
        let _ = std::fs::remove_file(&path);
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
        let _ = std::fs::remove_file(&path);
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
        assert_eq!(caught_up.epoch, wal.epoch());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn epoch_changes_on_reset_but_not_reopen_resume() {
        let path = tmplog("epoch");
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        let e1 = wal.epoch();
        wal.append(&LogRecord::Begin { txn: TxnId(1) }).unwrap();
        wal.reset_with(&LogRecord::Checkpoint {
            clock: TimePoint(3),
            next_atom_nos: vec![],
        })
        .unwrap();
        let e2 = wal.epoch();
        assert_ne!(
            e1, e2,
            "truncation must invalidate old LSNs via a fresh epoch"
        );
        let _ = std::fs::remove_file(&path);
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
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lsn_is_byte_offset() {
        let path = tmplog("lsn");
        let wal = Wal::open(&path, SyncPolicy::OnCommit).unwrap();
        let a = wal.append(&LogRecord::Begin { txn: TxnId(1) }).unwrap();
        let b = wal.append(&LogRecord::Begin { txn: TxnId(2) }).unwrap();
        assert_eq!(a, Lsn(0));
        assert!(b > a);
        let _ = std::fs::remove_file(&path);
    }
}
