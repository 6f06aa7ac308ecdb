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
//! **Resume.** LSNs are byte offsets into one log *incarnation*; every
//! leader checkpoint truncates the log and draws a fresh epoch. The
//! applier persists `(epoch, applied_lsn)` in a `repl.pos` sidecar after
//! each applied chunk, where `applied_lsn` is the end of the last fully
//! applied commit record — never mid-batch, so a resumed stream always
//! starts at a `Begin`. Loss or staleness of the sidecar is safe:
//! resuming earlier merely re-streams transactions the replica skips
//! (their tt is at or below its published clock).
//!
//! **Gaps.** If the leader truncated log records the replica never
//! received, the fresh epoch's head checkpoint carries a clock *ahead* of
//! the replica's — the applier reports a `resync required` error instead
//! of silently skipping transactions; the replica must be reseeded.
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
    /// Leader log incarnation the stream position belongs to.
    epoch: u64,
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
        let (epoch, lsn) = read_pos(&pos_path);
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
            epoch,
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

    /// The leader epoch the resume position belongs to (0 before first
    /// contact — it matches no live epoch, so the leader streams from the
    /// start of its current log).
    pub fn resume_epoch(&self) -> u64 {
        self.epoch
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
    /// `start` in log incarnation `epoch`; `leader_durable` / `leader_tt`
    /// are the leader's durable horizon and published clock at send time
    /// (they feed the `repl.lsn_lag` / `repl.tt_lag` gauges). An empty
    /// chunk only refreshes the lag markers (and, on an epoch change,
    /// resets the stream position).
    pub fn apply_chunk(
        &mut self,
        epoch: u64,
        start: Lsn,
        bytes: &[u8],
        leader_durable: u64,
        leader_tt: u64,
    ) -> Result<()> {
        self.leader_lsn.store(leader_durable, Ordering::Release);
        self.leader_tt.store(leader_tt, Ordering::Release);
        self.frames.inc();
        self.bytes.add(bytes.len() as u64);
        if epoch != self.epoch {
            // The leader's log was truncated (or this is first contact):
            // the stream restarts from the head of the new incarnation.
            // Whether the replica can follow is decided by the head
            // checkpoint's clock, below.
            if start.0 != 0 {
                return Err(Error::corruption(format!(
                    "replication: epoch changed to {epoch:#x} but chunk starts at lsn {} (expected 0)",
                    start.0
                )));
            }
            self.epoch = epoch;
            self.next_lsn = 0;
            self.pending.clear();
            self.applied_lsn.store(0, Ordering::Release);
            self.persist_pos()?;
        }
        if start.0 != self.next_lsn {
            return Err(Error::corruption(format!(
                "replication: chunk at lsn {} does not continue the stream at {}",
                start.0, self.next_lsn
            )));
        }
        if bytes.is_empty() {
            return Ok(());
        }
        // Leader chunks were CRC-checked at read time; any damage here is
        // a transport bug, so decode strictly.
        let recs = decode_frames(start, bytes)?;
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
        let body = format!(
            "{} {}\n",
            self.epoch,
            self.applied_lsn.load(Ordering::Acquire)
        );
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, &self.pos_path)?;
        Ok(())
    }
}

/// Reads a persisted `(epoch, lsn)` position; `(0, 0)` when absent or
/// unparseable (epoch 0 matches no live leader log, forcing a restart
/// from the head of the current one).
fn read_pos(path: &PathBuf) -> (u64, u64) {
    let Ok(body) = std::fs::read_to_string(path) else {
        return (0, 0);
    };
    let mut it = body.split_whitespace();
    match (
        it.next().and_then(|s| s.parse().ok()),
        it.next().and_then(|s| s.parse().ok()),
    ) {
        (Some(e), Some(l)) => (e, l),
        _ => (0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbConfig;
    use tcom_catalog::AttrDef;
    use tcom_kernel::{AtomId, AtomNo, DataType, TxnId};
    use tcom_wal::Wal;

    /// A replicated close that finds no version to close means the replica
    /// has diverged from its leader: the batch fails and publishes nothing.
    #[test]
    fn close_of_a_missing_version_fails_the_batch() {
        let dir = std::env::temp_dir().join(format!("tcom-repl-diverged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Arc::new(Database::open(dir.join("replica"), DbConfig::default()).unwrap());
        let ty = db
            .define_atom_type("t", vec![AttrDef::new("v", DataType::Int)])
            .unwrap();
        // A leader log whose one commit closes a version of an atom this
        // replica never received.
        let leader = Wal::open(dir.join("leader.wal"), SyncPolicy::OnCommit).unwrap();
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
            .apply_chunk(
                chunk.epoch,
                chunk.start,
                &chunk.bytes,
                leader.durable_len(),
                1,
            )
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
