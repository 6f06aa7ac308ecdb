//! The per-store **transaction-time interval index**.
//!
//! A secondary B⁺-tree mapping `(partition | tt_start, lo) → payload`,
//! following the time-index tradition (Elmasri et al.): version records are
//! keyed by the start of their transaction-time interval, with a small
//! *open* partition holding the tt-open (current) entries and a *closed*
//! partition holding everything whose transaction time has ended (see
//! [`tcom_storage::keys::encode_tt_key`]).
//!
//! A snapshot scan at transaction time `t` then needs two range scans
//! instead of walking every version chain:
//!
//! * the open partition restricted to `tt_start <= t` — every hit is
//!   visible (an open interval contains every instant past its start);
//! * the closed partition restricted to `tt_start <= t`, filtered by
//!   `t < tt_end` — the store's layout chooses what the payload word
//!   carries to make that filter cheap (chain and split put `tt_end`
//!   there so invisible candidates are skipped *without* touching the
//!   heap; delta stores the atom number, since reconstruction must walk
//!   the chain anyway).
//!
//! The discriminator word `lo` is likewise layout-chosen (record id where
//! records are stable, atom number where they relocate). The index is
//! maintained transactionally by `insert_version` / `close_version` /
//! `extract_closed`; because the engine's buffer pool is no-steal and flushes
//! through the double-write journal, heap and index pages always reach
//! disk as one consistent snapshot; recovery redoes later commits through
//! the same primitives, so nothing ever rebuilds the index.

use tcom_kernel::{Result, TimePoint};
use tcom_storage::btree::BTree;
use tcom_storage::keys::{decode_tt_start, encode_tt_key, tt_scan_bounds};

/// One entry surfaced by a [`TimeIndex`] scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TimeIndexEntry {
    /// Transaction-time start of the indexed version.
    pub tt_start: TimePoint,
    /// Store-chosen discriminator (record id or atom number).
    pub lo: u64,
    /// Store-chosen payload (`tt_end` or atom number).
    pub payload: u64,
}

/// Secondary transaction-time index of one version store.
pub(crate) struct TimeIndex {
    tree: BTree,
}

impl TimeIndex {
    /// The index kept in `tree` (freshly created or opened by the store).
    pub(crate) fn over(tree: BTree) -> TimeIndex {
        TimeIndex { tree }
    }

    /// Inserts (or overwrites) an entry in the chosen partition.
    pub(crate) fn insert(
        &self,
        open: bool,
        tt_start: TimePoint,
        lo: u64,
        payload: u64,
    ) -> Result<()> {
        self.tree
            .insert(encode_tt_key(open, tt_start, lo), payload)?;
        Ok(())
    }

    /// Removes an entry; missing keys are ignored.
    pub(crate) fn remove(&self, open: bool, tt_start: TimePoint, lo: u64) -> Result<()> {
        self.tree.remove(encode_tt_key(open, tt_start, lo))?;
        Ok(())
    }

    /// Moves an entry from the open to the closed partition, updating its
    /// discriminator and payload (what `close_version` does). The closed
    /// entry goes in before the open one goes out, so a reader that scans
    /// the open partition first meets the entry in one partition at least
    /// (and drops a duplicate).
    pub(crate) fn close(
        &self,
        tt_start: TimePoint,
        open_lo: u64,
        closed_lo: u64,
        payload: u64,
    ) -> Result<()> {
        self.insert(false, tt_start, closed_lo, payload)?;
        self.remove(true, tt_start, open_lo)
    }

    /// Scans one partition for entries with `tt_start <= through`
    /// (`TimePoint::FOREVER` covers the whole partition); `f` returning
    /// `false` stops the scan.
    pub(crate) fn scan(
        &self,
        open: bool,
        through: TimePoint,
        f: &mut dyn FnMut(TimeIndexEntry) -> Result<bool>,
    ) -> Result<()> {
        let (lo, hi) = tt_scan_bounds(open, through);
        self.tree.scan_range(lo, hi, |k, v| {
            f(TimeIndexEntry {
                tt_start: decode_tt_start(k.hi),
                lo: k.lo,
                payload: v,
            })
        })
    }

    /// Repacks the index into dense B⁺-tree nodes. Deletion is lazy, so
    /// after a segment swap extracts most closed entries the scan chain
    /// still threads every historical leaf page — a slice would read the
    /// index at its pre-extraction size forever. Call under the store's
    /// maintenance lock: the repack excludes readers as well as writers.
    pub(crate) fn compact(&self) -> Result<()> {
        self.tree.compact()
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> Result<u64> {
        self.tree.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tcom_storage::buffer::BufferPool;
    use tcom_storage::disk::DiskManager;

    fn index(name: &str) -> (TimeIndex, std::path::PathBuf) {
        let pool = BufferPool::new(64);
        let p = std::env::temp_dir().join(format!("tcom-tix-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        let file = pool.register_file(Arc::new(DiskManager::open(&p).unwrap()));
        (TimeIndex::over(BTree::create(pool, file).unwrap()), p)
    }

    fn collect(ix: &TimeIndex, open: bool, through: u64) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        ix.scan(open, TimePoint(through), &mut |e| {
            out.push((e.tt_start.0, e.lo, e.payload));
            Ok(true)
        })
        .unwrap();
        out
    }

    #[test]
    fn partitions_are_disjoint() {
        let (ix, p) = index("part");
        ix.insert(true, TimePoint(5), 1, 100).unwrap();
        ix.insert(false, TimePoint(5), 1, 9).unwrap();
        ix.insert(false, TimePoint(2), 7, 4).unwrap();
        assert_eq!(collect(&ix, true, u64::MAX), vec![(5, 1, 100)]);
        assert_eq!(collect(&ix, false, u64::MAX), vec![(2, 7, 4), (5, 1, 9)]);
        // Bounded scans honor `tt_start <= through`.
        assert_eq!(collect(&ix, false, 4), vec![(2, 7, 4)]);
        assert_eq!(collect(&ix, true, 4), vec![]);
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn close_moves_between_partitions() {
        let (ix, p) = index("close");
        ix.insert(true, TimePoint(3), 11, 0).unwrap();
        ix.close(TimePoint(3), 11, 42, 8).unwrap();
        assert_eq!(collect(&ix, true, u64::MAX), vec![]);
        assert_eq!(collect(&ix, false, u64::MAX), vec![(3, 42, 8)]);
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn compact_preserves_partitions_and_bounds() {
        let (ix, p) = index("compact");
        for t in 0..500u64 {
            ix.insert(t % 7 == 0, TimePoint(t), t, t + 1).unwrap();
        }
        // Extract most of the closed partition, like a segment swap does.
        for t in 0..500u64 {
            if t % 7 != 0 && t >= 20 {
                ix.remove(false, TimePoint(t), t).unwrap();
            }
        }
        let open_before = collect(&ix, true, u64::MAX);
        let closed_before = collect(&ix, false, u64::MAX);
        ix.compact().unwrap();
        assert_eq!(collect(&ix, true, u64::MAX), open_before);
        assert_eq!(collect(&ix, false, u64::MAX), closed_before);
        // Bounded scans and fresh inserts still behave after the repack:
        // closed survivors with tt_start <= 10 are 1..=10 minus the
        // multiple of 7 (0 and 7 live in the open partition).
        assert_eq!(collect(&ix, false, 10).len(), 9);
        ix.insert(false, TimePoint(3), 999, 4).unwrap();
        assert!(collect(&ix, false, 3).contains(&(3, 999, 4)));
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn remove_is_idempotent() {
        let (ix, p) = index("idem");
        ix.insert(true, TimePoint(1), 1, 1).unwrap();
        ix.remove(true, TimePoint(1), 1).unwrap();
        ix.remove(true, TimePoint(1), 1).unwrap(); // no-op, no error
        assert_eq!(ix.len().unwrap(), 0);
        let _ = std::fs::remove_file(p);
    }
}
