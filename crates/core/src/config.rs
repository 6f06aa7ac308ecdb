//! Engine configuration: a field exists only where callers need different
//! values. The commit-stripe count ([`crate::stripes::COMMIT_STRIPES`])
//! and the buffer pool's lock-stripe count (derived from
//! `buffer_frames`) are fixed.

use tcom_version::StoreKind;
use tcom_wal::SyncPolicy;

/// Tunables of a [`crate::Database`].
#[derive(Clone, Copy, Debug)]
pub struct DbConfig {
    /// Buffer pool size in frames (8 KiB each).
    pub buffer_frames: usize,
    /// Temporal storage format for every atom type. Fixed at database
    /// creation; persisted and validated on reopen.
    pub store_kind: StoreKind,
    /// When the WAL is fsynced.
    pub sync_policy: SyncPolicy,
    /// Auto-checkpoint after this many committed transactions
    /// (`0` disables auto-checkpointing; `Database::checkpoint` is manual).
    pub checkpoint_interval: u64,
    /// Whether concurrently arriving commits may share one WAL fsync
    /// (leader/follower group commit). Durability is identical either
    /// way; disabling forces one fsync per commit — the scaling baseline.
    pub group_commit: bool,
    /// Whether the background compactor ([`crate::Compactor::spawn`])
    /// tiers closed history out of the hot heaps into compressed immutable
    /// segment files. Manual compaction
    /// ([`crate::Database::compact_all`]) works regardless.
    pub compaction: bool,
    /// Background compaction triggers for an atom type once its heap
    /// holds at least this many closed (tt-ended) versions.
    pub compact_min_closed: u64,
    /// Milliseconds between background compactor threshold checks.
    pub compact_interval_ms: u64,
}

impl Default for DbConfig {
    fn default() -> DbConfig {
        DbConfig {
            buffer_frames: 1024,
            store_kind: StoreKind::Split,
            sync_policy: SyncPolicy::OnCommit,
            checkpoint_interval: 10_000,
            group_commit: true,
            compaction: false,
            compact_min_closed: 512,
            compact_interval_ms: 500,
        }
    }
}

impl DbConfig {
    /// Builder-style: sets the buffer size.
    pub fn buffer_frames(mut self, frames: usize) -> DbConfig {
        self.buffer_frames = frames;
        self
    }

    /// Builder-style: sets the storage format.
    pub fn store_kind(mut self, kind: StoreKind) -> DbConfig {
        self.store_kind = kind;
        self
    }

    /// Builder-style: sets the WAL sync policy.
    pub fn sync_policy(mut self, policy: SyncPolicy) -> DbConfig {
        self.sync_policy = policy;
        self
    }

    /// Builder-style: sets the auto-checkpoint interval.
    pub fn checkpoint_interval(mut self, txns: u64) -> DbConfig {
        self.checkpoint_interval = txns;
        self
    }

    /// Builder-style: enables or disables group commit.
    pub fn group_commit(mut self, enabled: bool) -> DbConfig {
        self.group_commit = enabled;
        self
    }

    /// Builder-style: enables or disables background compaction.
    pub fn compaction(mut self, enabled: bool) -> DbConfig {
        self.compaction = enabled;
        self
    }

    /// Builder-style: sets the closed-version threshold that triggers
    /// background compaction of an atom type.
    pub fn compact_min_closed(mut self, versions: u64) -> DbConfig {
        self.compact_min_closed = versions;
        self
    }

    /// Builder-style: sets the background compactor check interval.
    pub fn compact_interval_ms(mut self, ms: u64) -> DbConfig {
        self.compact_interval_ms = ms;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = DbConfig::default()
            .buffer_frames(64)
            .store_kind(StoreKind::Chain)
            .sync_policy(SyncPolicy::OnCheckpoint)
            .checkpoint_interval(0)
            .group_commit(false)
            .compaction(true)
            .compact_min_closed(32)
            .compact_interval_ms(50);
        assert_eq!(c.buffer_frames, 64);
        assert_eq!(c.store_kind, StoreKind::Chain);
        assert_eq!(c.sync_policy, SyncPolicy::OnCheckpoint);
        assert_eq!(c.checkpoint_interval, 0);
        assert!(!c.group_commit);
        assert!(DbConfig::default().group_commit);
        assert!(c.compaction);
        assert!(!DbConfig::default().compaction);
        assert_eq!(c.compact_min_closed, 32);
        assert_eq!(c.compact_interval_ms, 50);
        assert_eq!(DbConfig::default().compact_min_closed, 512);
        assert_eq!(DbConfig::default().compact_interval_ms, 500);
    }
}
