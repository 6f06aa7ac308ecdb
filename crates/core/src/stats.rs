//! Per-atom-type statistics for the cost-based planner.
//!
//! The planner prices its temporal access paths (per-atom chain walk vs.
//! transaction-time interval-index slice) from a handful of shape numbers
//! per atom type: version count, history depth, open/closed ratio, heap
//! size, time-index size, and buffer-pool residency. Computing those
//! numbers exactly means scanning the store ([`StoreStats`] is exhaustive),
//! which is far too expensive per statement — so the registry caches one
//! snapshot per type and maintains it incrementally: every commit bumps a
//! per-type change counter (from [`crate::db::Database`]'s apply routine,
//! once per changed atom under the commit lock), and
//! a cached snapshot is only recomputed once enough changes accumulate to
//! make it materially stale. In between, the cached base is extrapolated
//! by the change count, which over-counts slightly (a changed atom may
//! contribute one or two version records) but errs on the side of deeper
//! histories — exactly the direction that keeps the cost model's
//! walk-vs-slice decision stable.
//!
//! Residency is *not* cached: it moves with the workload and is cheap to
//! read (one pass over the buffer pool's shard tags), so
//! [`crate::db::Database::type_stats`] samples it live on every call.

use parking_lot::RwLock;
use std::collections::HashMap;
use tcom_kernel::AtomTypeId;
use tcom_version::{StoreKind, StoreStats};

/// One live segment's transaction-time fence, as the planner sees it: an
/// `ASOF TT` slice pays for a segment's pages only when `tt` falls inside
/// the fence (and never for `FOREVER`, which sees no closed history at
/// all). Sampled live from the cached segment footers — no page I/O.
#[derive(Clone, Copy, Debug)]
pub struct SegmentFence {
    /// Smallest `tt.start` archived in the segment.
    pub tt_min: tcom_kernel::TimePoint,
    /// Largest `tt.end` archived in the segment (exclusive admit bound).
    pub tt_max: tcom_kernel::TimePoint,
    /// Data pages the segment holds (what an admitted slice may read).
    pub pages: u64,
}

impl SegmentFence {
    /// True iff a slice at `tt` can see versions of this segment.
    pub fn admits(&self, tt: tcom_kernel::TimePoint) -> bool {
        !tt.is_forever() && self.tt_min <= tt && tt < self.tt_max
    }
}

/// One atom type's statistics snapshot, as served to the planner.
#[derive(Clone, Debug)]
pub struct TypeStats {
    /// The atom type.
    pub ty: AtomTypeId,
    /// Type name (catalog).
    pub name: String,
    /// Version-store format backing the type.
    pub kind: StoreKind,
    /// The (possibly cached) store shape snapshot.
    pub store: StoreStats,
    /// Commit-noted atom changes since the snapshot was taken — the
    /// staleness of `store`. Zero right after a refresh.
    pub changes_since: u64,
    /// Live buffer-pool residency of the store's heap pages (sampled at
    /// call time, not cached).
    pub resident_pages: u64,
    /// Per-segment transaction-time fences of archived closed history
    /// (sampled live like residency; empty until the compactor runs).
    pub segment_fences: Vec<SegmentFence>,
}

impl TypeStats {
    /// Mean stored versions per atom (history depth), extrapolated by the
    /// changes accumulated since the snapshot.
    pub fn mean_depth(&self) -> f64 {
        (self.store.versions + self.changes_since) as f64 / self.store.atoms.max(1) as f64
    }

    /// Fraction of stored versions still tt-open.
    pub fn open_ratio(&self) -> f64 {
        self.store.open_ratio()
    }

    /// Fraction of the store's heap pages resident in the buffer pool.
    pub fn residency(&self) -> f64 {
        (self.resident_pages as f64 / self.store.heap_pages.max(1) as f64).min(1.0)
    }

    /// Segment pages a slice at `tt` may have to read: the page sum of the
    /// fences admitting `tt`. The remaining segments are fence-skipped and
    /// cost nothing.
    pub fn segment_pages_at(&self, tt: tcom_kernel::TimePoint) -> u64 {
        self.segment_fences
            .iter()
            .filter(|f| f.admits(tt))
            .map(|f| f.pages)
            .sum()
    }
}

/// Cached per-type snapshots plus incremental staleness counters.
#[derive(Default)]
pub(crate) struct StatsRegistry {
    cells: RwLock<HashMap<u32, Cell>>,
}

struct Cell {
    base: StoreStats,
    changes: u64,
}

/// A snapshot is refreshed once the noted changes exceed an eighth of the
/// recorded version count (floor 64) — enough churn to move the cost
/// model's inputs, rare enough that the exhaustive store scan amortizes.
fn stale(base: &StoreStats, changes: u64) -> bool {
    changes > (base.versions / 8).max(64)
}

impl StatsRegistry {
    /// Notes one changed atom of type `ty` (called once per changed atom
    /// per commit, under the commit lock — contention-free).
    pub(crate) fn note(&self, ty: u32) {
        if let Some(cell) = self.cells.write().get_mut(&ty) {
            cell.changes += 1;
        }
        // No cell yet: nothing cached to grow stale; the first snapshot
        // will be exact.
    }

    /// The cached snapshot and its staleness, when present and fresh.
    pub(crate) fn get_fresh(&self, ty: u32) -> Option<(StoreStats, u64)> {
        let cells = self.cells.read();
        let cell = cells.get(&ty)?;
        if stale(&cell.base, cell.changes) {
            None
        } else {
            Some((cell.base, cell.changes))
        }
    }

    /// Installs a freshly computed snapshot (resets the change counter).
    pub(crate) fn put(&self, ty: u32, base: StoreStats) {
        self.cells.write().insert(ty, Cell { base, changes: 0 });
    }

    /// Drops every cached snapshot (pruning, recovery, checkpoint replay —
    /// anything that changes store shape without flowing through commits).
    pub(crate) fn invalidate_all(&self) {
        self.cells.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(versions: u64) -> StoreStats {
        StoreStats {
            versions,
            ..Default::default()
        }
    }

    #[test]
    fn registry_caches_until_stale() {
        let reg = StatsRegistry::default();
        assert!(reg.get_fresh(1).is_none(), "no snapshot yet");
        reg.put(1, base(1000));
        assert!(reg.get_fresh(1).is_some());
        for _ in 0..64 {
            reg.note(1);
        }
        // 64 changes on 1000 versions: still within the floor.
        let (_, changes) = reg.get_fresh(1).expect("fresh");
        assert_eq!(changes, 64);
        for _ in 0..100 {
            reg.note(1);
        }
        assert!(reg.get_fresh(1).is_none(), "stale after heavy churn");
        reg.put(1, base(2000));
        assert!(reg.get_fresh(1).is_some());
        reg.invalidate_all();
        assert!(reg.get_fresh(1).is_none());
    }

    #[test]
    fn notes_before_first_snapshot_are_ignored() {
        let reg = StatsRegistry::default();
        for _ in 0..10_000 {
            reg.note(7);
        }
        reg.put(7, base(10));
        let (_, changes) = reg.get_fresh(7).expect("fresh right after put");
        assert_eq!(changes, 0);
    }
}
