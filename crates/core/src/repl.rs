//! WAL-streaming replication: the follower's apply engine.
//!
//! A replica is a normal [`Database`] opened on its own directory and
//! switched into read-only mode. The leader ships raw durable WAL frames
//! (see [`Database::wal_chunk`]); a [`WalApplier`] replays them **in WAL
//! order**, which by construction equals transaction-time order, so the
//! replica's `ASOF TT` slices are byte-identical to the leader's at every
//! published tt. Per committed transaction batch the applier:
//!
//! 1. appends the batch to the replica's **own** WAL and makes it durable
//!    first — a crash mid-apply recovers through the ordinary recovery in
//!    `Database::open`, which redoes the batches above the replica's flush
//!    watermark through the very routine of step 2;
//! 2. redoes the batch through `Database::replay_commit`: raises the
//!    atom-number allocators past every replicated number (a promoted
//!    replica never reuses one), then applies it through the leader's own
//!    apply routine (`Database::apply_commit`: store mutation, planner
//!    change notes, value-index counts from the batch alone), which
//!    republishes the transaction time via `publish_replicated`, making
//!    the commit visible to snapshot reads on the replica. A close that
//!    finds no version to close means the replica has diverged from its
//!    leader: the batch fails rather than applying the rest.
//!
//! **Resume.** A position is one LSN: a byte position in the leader's
//! whole log history, whose durable part only grows (an `OnCheckpoint`
//! leader that crashes can lose bytes it shipped and reuse their LSNs,
//! so its replicas are reseeded; DESIGN §14.2). The applier persists
//! `applied_lsn` in a `repl.pos` sidecar after each applied chunk, where
//! `applied_lsn` is the end of the last fully applied commit record —
//! never mid-batch, so a resumed stream always starts at a `Begin`. Loss
//! or staleness of the sidecar is safe: resuming earlier merely
//! re-streams transactions the replica skips (their tt is at or below its
//! published clock).
//!
//! **Gaps.** A position below the leader's oldest retained WAL segment
//! streams from that segment's head checkpoint, the one forward jump the
//! applier accepts. If the removed segments held commits the replica
//! never received, that checkpoint carries a clock *ahead* of the
//! replica's — the applier reports a `resync required` error instead of
//! silently skipping transactions; the replica must be reseeded.
//!
//! **DDL is not replicated.** Schema definitions are not WAL-logged, so a
//! replica must be seeded with the identical DDL (in the identical order —
//! atom type ids are allocation-ordered) before subscribing.

use crate::db::Database;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tcom_kernel::{AtomTypeId, Error, Lsn, Result, TimePoint};
use tcom_obs::Counter;
use tcom_wal::{decode_frames, LogRecord, SyncPolicy};

/// Name of the sidecar file recording the replication resume position.
const POS_FILE: &str = "repl.pos";

/// Applies leader WAL chunks to a replica database. Single-threaded: one
/// applier per replica, driven by the network follower loop (or directly
/// by tests).
pub struct WalApplier {
    db: Arc<Database>,
    pos_path: PathBuf,
    /// Next byte expected from the stream (may sit mid-batch).
    next_lsn: u64,
    /// End of the last fully applied commit — the persisted resume point.
    applied_lsn: Arc<AtomicU64>,
    /// Last transaction time applied (equals the replica's clock).
    applied_tt: Arc<AtomicU64>,
    /// Leader's durable WAL horizon, from the last received frame.
    leader_lsn: Arc<AtomicU64>,
    /// Leader's published clock, from the last received frame.
    leader_tt: Arc<AtomicU64>,
    /// Buffered records of the batch currently being received.
    pending: Vec<LogRecord>,
    frames: Counter,
    bytes: Counter,
    txns_applied: Counter,
}

impl WalApplier {
    /// Wraps `db` as a replication follower: switches it into read-only
    /// replica mode, loads the persisted resume position (if any) and
    /// registers the `repl.*` lag gauges and throughput counters on the
    /// database's metrics registry.
    pub fn new(db: Arc<Database>) -> Result<WalApplier> {
        db.set_replica_mode(true);
        let pos_path = db.dir().join(POS_FILE);
        let lsn = read_pos(&pos_path);
        let applied_lsn = Arc::new(AtomicU64::new(lsn));
        let applied_tt = Arc::new(AtomicU64::new(db.now().0));
        let leader_lsn = Arc::new(AtomicU64::new(lsn));
        let leader_tt = Arc::new(AtomicU64::new(db.now().0));
        let obs = db.obs();
        let (a, b) = (applied_lsn.clone(), applied_tt.clone());
        obs.register_gauge("repl.applied_lsn", "", move || a.load(Ordering::Acquire));
        obs.register_gauge("repl.applied_tt", "", move || b.load(Ordering::Acquire));
        let (l, a) = (leader_lsn.clone(), applied_lsn.clone());
        obs.register_gauge("repl.lsn_lag", "", move || {
            l.load(Ordering::Acquire)
                .saturating_sub(a.load(Ordering::Acquire))
        });
        let (l, a) = (leader_tt.clone(), applied_tt.clone());
        obs.register_gauge("repl.tt_lag", "", move || {
            l.load(Ordering::Acquire)
                .saturating_sub(a.load(Ordering::Acquire))
        });
        let frames = obs.counter("repl.frames", "");
        let bytes = obs.counter("repl.bytes", "");
        let txns_applied = obs.counter("repl.txns_applied", "");
        Ok(WalApplier {
            db,
            pos_path,
            next_lsn: lsn,
            applied_lsn,
            applied_tt,
            leader_lsn,
            leader_tt,
            pending: Vec::new(),
            frames,
            bytes,
            txns_applied,
        })
    }

    /// The replica database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The LSN to subscribe from: the end of the last fully applied
    /// commit.
    pub fn resume_lsn(&self) -> Lsn {
        Lsn(self.applied_lsn.load(Ordering::Acquire))
    }

    /// The replica's published clock (sent with the subscription for
    /// leader-side observability).
    pub fn published_tt(&self) -> TimePoint {
        self.db.now()
    }

    /// Rewinds the in-memory stream cursor to the persisted applied
    /// boundary and drops any half-received batch. Call before
    /// re-subscribing after a disconnect: the leader restreams from the
    /// boundary, so the next record is always a `Begin`.
    pub fn rewind_to_boundary(&mut self) {
        self.pending.clear();
        self.next_lsn = self.applied_lsn.load(Ordering::Acquire);
    }

    /// Applies one leader chunk: `bytes` is a whole-frame run starting at
    /// `start`; `leader_durable` / `leader_tt` are the leader's durable
    /// horizon and published clock at send time (they feed the
    /// `repl.lsn_lag` / `repl.tt_lag` gauges). An empty chunk only
    /// refreshes the lag markers. A chunk must continue the stream, except
    /// that it may jump forward onto a segment's head checkpoint: the
    /// leader removed the segment the position lay in, and the
    /// checkpoint's clock decides whether the replica missed a commit.
    pub fn apply_chunk(
        &mut self,
        start: Lsn,
        bytes: &[u8],
        leader_durable: u64,
        leader_tt: u64,
    ) -> Result<()> {
        self.leader_lsn.store(leader_durable, Ordering::Release);
        self.leader_tt.store(leader_tt, Ordering::Release);
        self.frames.inc();
        self.bytes.add(bytes.len() as u64);
        // Leader chunks were CRC-checked at read time; any damage here is
        // a transport bug, so decode strictly.
        let recs = decode_frames(start, bytes)?;
        let onto_head = start.0 > self.next_lsn
            && matches!(recs.first(), Some((_, LogRecord::Checkpoint { .. })));
        if start.0 != self.next_lsn && !onto_head {
            return Err(Error::corruption(format!(
                "replication: chunk at lsn {} does not continue the stream at {}",
                start.0, self.next_lsn
            )));
        }
        // A batch cut off by the jump is gone from the leader's log.
        if onto_head {
            self.pending.clear();
        }
        let chunk_end = start.0 + bytes.len() as u64;
        // Each record's end offset is the next record's start (the chunk
        // holds whole frames only).
        let ends: Vec<u64> = recs
            .iter()
            .skip(1)
            .map(|(l, _)| l.0)
            .chain(std::iter::once(chunk_end))
            .collect();
        let before = self.applied_lsn.load(Ordering::Acquire);
        for ((_, rec), end) in recs.into_iter().zip(ends) {
            self.handle(rec, end)?;
        }
        self.next_lsn = chunk_end;
        // The persisted position must never run ahead of the replica's own
        // durable WAL: under `OnCheckpoint` sync the applied batches may
        // not be durable yet, so don't advance the sidecar — after a crash
        // the stream restarts from the last safe point and the replica
        // skips re-streamed transactions by clock.
        if self.applied_lsn.load(Ordering::Acquire) != before
            && self.db.wal().policy() == SyncPolicy::OnCommit
        {
            self.persist_pos()?;
        }
        Ok(())
    }

    fn handle(&mut self, rec: LogRecord, end: u64) -> Result<()> {
        match rec {
            LogRecord::Checkpoint {
                clock,
                next_atom_nos,
            } => {
                if !self.pending.is_empty() {
                    return Err(Error::corruption(
                        "replication: checkpoint record inside an open batch",
                    ));
                }
                if clock.0 > self.db.now().0 {
                    return Err(Error::corruption(format!(
                        "replication: leader log starts at checkpoint clock {} but replica is at {}; \
                         the missing transactions were truncated — reseed the replica from a leader copy",
                        clock.0,
                        self.db.now().0
                    )));
                }
                for (ty, n) in next_atom_nos {
                    self.db.bump_atom_no_at_least(AtomTypeId(ty), n);
                }
                self.applied_lsn.store(end, Ordering::Release);
            }
            LogRecord::Begin { .. } => {
                if !self.pending.is_empty() {
                    return Err(Error::corruption("replication: Begin inside an open batch"));
                }
                self.pending.push(rec);
            }
            LogRecord::InsertVersion { .. } | LogRecord::CloseVersion { .. } => {
                if self.pending.is_empty() {
                    return Err(Error::corruption(
                        "replication: mutation record outside a batch",
                    ));
                }
                self.pending.push(rec);
            }
            LogRecord::Commit { txn } => {
                let tt = TimePoint(txn.0);
                let mut batch = std::mem::take(&mut self.pending);
                batch.push(rec);
                self.apply_batch(tt, batch)?;
                self.applied_lsn.store(end, Ordering::Release);
                self.applied_tt.store(tt.0, Ordering::Release);
            }
            LogRecord::SegmentSwap { .. } => {
                // Compaction is a physical reorganization, not a logical
                // change: the leader's segment files are not streamed, and
                // the replica compacts on its own schedule (its slices stay
                // byte-identical either way). Skip, but never mid-batch.
                if !self.pending.is_empty() {
                    return Err(Error::corruption(
                        "replication: segment-swap record inside an open batch",
                    ));
                }
                self.applied_lsn.store(end, Ordering::Release);
            }
        }
        Ok(())
    }

    /// Replays one committed batch at transaction time `tt`. Batches at or
    /// below the replica's published clock were already applied (the
    /// stream resumed from an earlier LSN) and are skipped.
    fn apply_batch(&mut self, tt: TimePoint, recs: Vec<LogRecord>) -> Result<()> {
        if tt.0 <= self.db.now().0 {
            return Ok(());
        }
        let db = &self.db;
        // Own-log durability first: after a crash mid-apply, recovery
        // redoes this batch from the replica's own log.
        {
            let _order = db.wal_order.lock();
            let wal = db.wal();
            let end = wal.append_all(&recs)?;
            if wal.policy() == SyncPolicy::OnCommit {
                wal.sync_to(end)?;
            }
        }
        db.replay_commit(tt, &recs)?;
        db.note_commit()?;
        self.txns_applied.inc();
        Ok(())
    }

    /// Persists the resume position via write-to-temp + rename. Failure
    /// to persist is non-fatal in principle (a stale position only causes
    /// idempotent re-streaming) but surfaced so operators see the broken
    /// disk.
    fn persist_pos(&self) -> Result<()> {
        let tmp = self.pos_path.with_extension("pos.tmp");
        let body = format!("{}\n", self.applied_lsn.load(Ordering::Acquire));
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, &self.pos_path)?;
        Ok(())
    }
}

/// Reads a persisted position: 0, a safe re-stream from the leader's
/// oldest retained segment, when the file is absent or its body is not
/// exactly one number (an earlier version's two-field file among them).
fn read_pos(path: &PathBuf) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|body| body.trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbConfig;
    use tcom_catalog::AttrDef;
    use tcom_kernel::{AtomId, AtomNo, DataType, Interval, Tuple, TxnId, Value};
    use tcom_wal::Wal;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tcom-repl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A replica database at `dir` with the one type `t (v INT)`.
    fn replica(dir: PathBuf) -> (Arc<Database>, AtomTypeId) {
        let db = Arc::new(Database::open(dir, DbConfig::default()).unwrap());
        let ty = db
            .define_atom_type("t", vec![AttrDef::new("v", DataType::Int)])
            .unwrap();
        (db, ty)
    }

    /// The records of the commit at `tt` inserting atom `no` of `ty`.
    fn insert(ty: AtomTypeId, tt: u64, no: u64) -> Vec<LogRecord> {
        let txn = TxnId(tt);
        vec![
            LogRecord::Begin { txn },
            LogRecord::InsertVersion {
                txn,
                atom: AtomId::new(ty, AtomNo(no)),
                vt: Interval::all(),
                tt_start: TimePoint(tt),
                tuple: Tuple::new(vec![Value::Int(no as i64)]),
            },
            LogRecord::Commit { txn },
        ]
    }

    /// `repl.pos` holds one LSN. A body that is not exactly one number —
    /// an earlier version's two-field file among them — reads as absent:
    /// position 0, a safe re-stream, never its first field as an LSN.
    #[test]
    fn repl_pos_holds_one_number() {
        let dir = tmpdir("pos");
        let (db, _) = replica(dir.clone());
        for (body, want) in [("42\n", 42), ("7 42\n", 0), ("x\n", 0), ("", 0)] {
            std::fs::write(dir.join(POS_FILE), body).unwrap();
            let applier = WalApplier::new(db.clone()).unwrap();
            assert_eq!(applier.resume_lsn(), Lsn(want), "body {body:?}");
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A chunk may jump forward only onto a segment's head checkpoint, and
    /// that checkpoint's clock decides: a replica that missed a commit in
    /// the removed segment gets `resync required`, one that missed none
    /// streams on, and a jump onto any other record is refused.
    #[test]
    fn a_forward_jump_is_accepted_only_onto_a_head_checkpoint() {
        let dir = tmpdir("jump");
        let (behind, ty) = replica(dir.join("behind"));
        let (caught_up, _) = replica(dir.join("caught-up"));
        let leader = Wal::open(dir.join("leader-wal"), SyncPolicy::OnCommit).unwrap();
        let first = leader.append_all(&insert(ty, 1, 0)).unwrap();
        // A record past the commit keeps its end below the roll.
        leader
            .append(&LogRecord::SegmentSwap {
                ty: ty.0,
                seg: 0,
                cutoff: TimePoint(0),
            })
            .unwrap();
        leader.sync().unwrap();
        let head = leader.read_chunk(Lsn(0), 1 << 20).unwrap();
        let start = leader
            .roll(&LogRecord::Checkpoint {
                clock: TimePoint(1),
                next_atom_nos: vec![(ty.0, 1)],
            })
            .unwrap();
        let end = leader.append_all(&insert(ty, 2, 1)).unwrap();
        leader.sync().unwrap();
        leader.remove_below(start).unwrap();
        let durable = leader.durable_len();

        let mut applier = WalApplier::new(behind.clone()).unwrap();
        let chunk = leader.read_chunk(Lsn(0), 1 << 20).unwrap();
        assert_eq!(chunk.start, start, "streams from the oldest head");
        let err = applier
            .apply_chunk(chunk.start, &chunk.bytes, durable, 2)
            .unwrap_err();
        assert!(err.to_string().contains("reseed the replica"), "{err}");
        assert_eq!(behind.now(), TimePoint(0));

        let mut applier = WalApplier::new(caught_up.clone()).unwrap();
        let split = (first.0 - head.start.0) as usize;
        applier
            .apply_chunk(head.start, &head.bytes[..split], durable, 2)
            .unwrap();
        assert_eq!(applier.resume_lsn(), first);
        let chunk = leader.read_chunk(applier.resume_lsn(), 1 << 20).unwrap();
        applier
            .apply_chunk(chunk.start, &chunk.bytes, durable, 2)
            .unwrap();
        assert_eq!(caught_up.now(), TimePoint(2));
        assert_eq!(applier.resume_lsn(), end);

        let later = leader.append_all(&insert(ty, 3, 2)).unwrap();
        leader.append_all(&insert(ty, 4, 3)).unwrap();
        leader.sync().unwrap();
        let chunk = leader.read_chunk(later, 1 << 20).unwrap();
        let err = applier
            .apply_chunk(chunk.start, &chunk.bytes, leader.durable_len(), 4)
            .unwrap_err();
        assert!(err.to_string().contains("does not continue"), "{err}");
        assert_eq!(caught_up.now(), TimePoint(2));
        drop((applier, behind, caught_up));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A replicated close that finds no version to close means the replica
    /// has diverged from its leader: the batch fails and publishes nothing.
    #[test]
    fn close_of_a_missing_version_fails_the_batch() {
        let dir = tmpdir("diverged");
        let (db, ty) = replica(dir.join("replica"));
        // A leader log whose one commit closes a version of an atom this
        // replica never received.
        let leader = Wal::open(dir.join("leader-wal"), SyncPolicy::OnCommit).unwrap();
        let txn = TxnId(1);
        leader
            .append_all(&[
                LogRecord::Begin { txn },
                LogRecord::CloseVersion {
                    txn,
                    atom: AtomId::new(ty, AtomNo(0)),
                    vt_start: TimePoint(0),
                    tt_end: TimePoint(1),
                },
                LogRecord::Commit { txn },
            ])
            .unwrap();
        leader.sync().unwrap();
        let chunk = leader.read_chunk(Lsn(0), 1 << 20).unwrap();
        let mut applier = WalApplier::new(db.clone()).unwrap();
        let err = applier
            .apply_chunk(chunk.start, &chunk.bytes, leader.durable_len(), 1)
            .unwrap_err();
        assert!(
            err.to_string().contains("close of missing version"),
            "{err}"
        );
        assert_eq!(db.now(), TimePoint(0));
        drop(applier);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
