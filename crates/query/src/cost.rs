//! The statistics-fed cost model behind `ASOF TT` access-path selection.
//!
//! An `ASOF TT t` row query can run two ways:
//!
//! * **walk** — enumerate the atom directory and walk every atom's version
//!   chain down to `t`. Touches the directory (its B⁺-tree height) plus,
//!   in the worst (cold) case, every heap page of the store.
//! * **slice** — scan the transaction-time interval index up to `t` and
//!   fetch only the version records visible at `t`. Touches the index's
//!   leaf pages plus the fetched records' heap pages.
//!
//! Which is cheaper depends on the store format: the E15 access-path
//! experiment showed the slice winning on chain stores (whose heap grows a
//! full tuple copy per update, so deep histories make the walk expensive)
//! while *losing* on delta stores at every depth — reconstructing a
//! delta-store version replays the atom's backward delta chain, so the
//! slice pays the walk *and* the index scan. This module prices both paths
//! from a [`TypeStats`] snapshot so the planner can pick per store and per
//! query instead of always taking the index.
//!
//! Costs are in 8 KiB pages, priced **cold** (nothing resident): cold
//! costs order the paths the same way warm ones do, but don't depend on
//! the moving buffer-pool state, so the decision is stable across runs.
//! The *displayed* estimate is discounted by the store's current pool
//! residency, which is what `EXPLAIN ANALYZE` compares against actual
//! misses.

use tcom_core::TypeStats;
use tcom_kernel::TimePoint;
use tcom_version::StoreKind;

/// Time-index leaf entries per 8 KiB page (~24–40 bytes per entry at the
/// B⁺-tree's ~⅔ steady-state fill; calibrated against E15's page counts).
pub const ENTRIES_PER_PAGE: u64 = 150;

/// Heap page payload in bytes.
const PAGE_BYTES: u64 = 8192;

/// Both paths priced, the decision, and the discounted estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathCosts {
    /// Cold pages for the per-atom chain walk.
    pub walk_pages: u64,
    /// Cold pages for the time-index slice.
    pub slice_pages: u64,
    /// True when the slice is strictly cheaper than the walk.
    pub use_slice: bool,
    /// Residency-discounted page estimate of the *chosen* path — the
    /// number `EXPLAIN ANALYZE` prints as `est=`.
    pub est_pages: u64,
}

/// Prices the walk and slice paths for `ASOF TT tt` over a store described
/// by `stats`, with `now` the current transaction-time clock (bounds the
/// index-scan fraction).
pub fn asof_costs(stats: &TypeStats, tt: TimePoint, now: TimePoint) -> PathCosts {
    let s = &stats.store;
    // Walk: one directory descent amortizes across atoms (interior pages
    // stay hot), then cold-case every heap page holding a record the walk
    // crosses — for full scans that approaches the whole heap.
    let walk_pages = u64::from(s.dir_height) + s.heap_pages;

    // Slice: the index scan reads the leaf entries with tt_start <= tt.
    // Entries are keyed by tt_start, so the scanned fraction is tt / now;
    // FOREVER (current state) reads the open partition only.
    let scanned = if tt.is_forever() {
        s.open_versions
    } else if now.0 == 0 {
        s.time_entries
    } else {
        let frac = (tt.0 as f64 / now.0 as f64).clamp(0.0, 1.0);
        (frac * s.time_entries as f64).ceil() as u64
    };
    let index_pages = scanned.div_ceil(ENTRIES_PER_PAGE) + 2;
    let slice_pages = match stats.kind {
        // Delta stores reconstruct each fetched version by replaying the
        // atom's backward delta chain — the slice pays the walk on top of
        // the index scan, so it can never win (exactly what E15 measured).
        StoreKind::Delta => index_pages + walk_pages,
        // Chain and split stores fetch self-contained records: one visible
        // version per atom (plus window overlap), packed contiguously.
        StoreKind::Chain | StoreKind::Split => {
            let mean_record = s.record_bytes / s.versions.max(1);
            index_pages + (s.atoms * mean_record).div_ceil(PAGE_BYTES)
        }
    };

    // Archived closed history lives in immutable segment files and is
    // merged into *both* paths identically — a slice and a walk each read
    // exactly the segments whose transaction-time fence admits `tt` (the
    // rest are fence-skipped for free, and FOREVER admits none: closed
    // versions are never current). Adding the same term to both sides
    // leaves the walk-vs-slice decision untouched, as it should.
    let seg_pages = stats.segment_pages_at(tt);
    let walk_pages = walk_pages + seg_pages;
    let slice_pages = slice_pages + seg_pages;

    let use_slice = slice_pages < walk_pages;
    // Displayed estimate: discount the *heap-backed* component by the
    // fraction of the heap already resident (a warm pool faults in
    // proportionally fewer pages). The index pages live in their own file
    // and stay full price — heap residency says nothing about them.
    let warm = if s.heap_pages == 0 {
        0.0
    } else {
        (stats.resident_pages.min(s.heap_pages) as f64 / s.heap_pages as f64).clamp(0.0, 1.0)
    };
    // Segment pages stay full price alongside the index pages: they live
    // in their own files, so heap residency says nothing about them.
    let (index_part, heap_part) = if use_slice {
        (
            index_pages + seg_pages,
            slice_pages - index_pages - seg_pages,
        )
    } else {
        (seg_pages, walk_pages - seg_pages)
    };
    let est_pages = index_part + (heap_part as f64 * (1.0 - warm)).round() as u64;
    PathCosts {
        walk_pages,
        slice_pages,
        use_slice,
        est_pages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcom_core::StoreStats;
    use tcom_kernel::AtomTypeId;

    /// A 200-atom store at the given history depth, shaped like E15's
    /// workload (one ~40-byte record per version, ~170 records/page).
    fn e15_stats(kind: StoreKind, depth: u64, resident: u64) -> TypeStats {
        let atoms = 200u64;
        let versions = atoms * depth;
        TypeStats {
            ty: AtomTypeId(1),
            name: "emp".into(),
            kind,
            store: StoreStats {
                atoms,
                versions,
                heap_pages: versions * 48 / 8192 + 1,
                record_bytes: versions * 48,
                dir_height: 1,
                open_versions: atoms,
                max_depth: depth,
                time_entries: versions,
                resident_pages: resident,
                ..Default::default()
            },
            changes_since: 0,
            resident_pages: resident,
            segment_fences: Vec::new(),
        }
    }

    #[test]
    fn chain_deep_history_prefers_slice() {
        // E15 measured chain d=65 as walk 78 / slice 47 cold pages.
        let c = asof_costs(
            &e15_stats(StoreKind::Chain, 65, 0),
            TimePoint(6500),
            TimePoint(13000),
        );
        assert!(c.use_slice, "chain deep history must slice: {c:?}");
        assert!(c.slice_pages < c.walk_pages);
        assert_eq!(c.est_pages, c.slice_pages, "cold estimate = cold cost");
    }

    #[test]
    fn delta_always_walks() {
        // Reconstruction makes the slice strictly dearer at every depth.
        for depth in [5, 17, 65, 200] {
            let c = asof_costs(
                &e15_stats(StoreKind::Delta, depth, 0),
                TimePoint(100 * depth / 2),
                TimePoint(100 * depth),
            );
            assert!(!c.use_slice, "delta d={depth} must walk: {c:?}");
        }
    }

    #[test]
    fn residency_discounts_estimate_not_decision() {
        let cold = asof_costs(
            &e15_stats(StoreKind::Chain, 65, 0),
            TimePoint(6500),
            TimePoint(13000),
        );
        let mut warm_stats = e15_stats(StoreKind::Chain, 65, 0);
        warm_stats.resident_pages = warm_stats.store.heap_pages;
        warm_stats.store.resident_pages = warm_stats.store.heap_pages;
        let warm = asof_costs(&warm_stats, TimePoint(6500), TimePoint(13000));
        assert_eq!(cold.use_slice, warm.use_slice, "decision is residency-free");
        assert_eq!(cold.slice_pages, warm.slice_pages);
        assert!(warm.est_pages < cold.est_pages);
    }

    #[test]
    fn segment_fences_price_admitted_pages_only() {
        use tcom_core::SegmentFence;
        let mut stats = e15_stats(StoreKind::Chain, 65, 0);
        stats.segment_fences = vec![
            SegmentFence {
                tt_min: TimePoint(1),
                tt_max: TimePoint(5000),
                pages: 10,
            },
            SegmentFence {
                tt_min: TimePoint(5000),
                tt_max: TimePoint(9000),
                pages: 7,
            },
        ];
        let base = asof_costs(
            &e15_stats(StoreKind::Chain, 65, 0),
            TimePoint(6500),
            TimePoint(13000),
        );
        // tt=6500 admits only the second fence: +7 pages on both paths,
        // decision unchanged.
        let tiered = asof_costs(&stats, TimePoint(6500), TimePoint(13000));
        assert_eq!(tiered.walk_pages, base.walk_pages + 7);
        assert_eq!(tiered.slice_pages, base.slice_pages + 7);
        assert_eq!(tiered.use_slice, base.use_slice);
        // FOREVER (current state) admits no segment at all.
        let cur = asof_costs(&stats, TimePoint::FOREVER, TimePoint(13000));
        let cur_base = asof_costs(
            &e15_stats(StoreKind::Chain, 65, 0),
            TimePoint::FOREVER,
            TimePoint(13000),
        );
        assert_eq!(cur.walk_pages, cur_base.walk_pages);
        assert_eq!(cur.slice_pages, cur_base.slice_pages);
        // A pre-fence slice (tt below every tt_min) skips both segments.
        let early = asof_costs(&stats, TimePoint(0), TimePoint(13000));
        assert_eq!(early.walk_pages, base.walk_pages);
    }

    #[test]
    fn forever_reads_open_partition_only() {
        let c = asof_costs(
            &e15_stats(StoreKind::Chain, 65, 0),
            TimePoint::FOREVER,
            TimePoint(13000),
        );
        // 200 open entries → 2 leaf pages + 2 interior.
        assert_eq!(c.slice_pages - (200u64 * 48).div_ceil(8192), 4);
    }
}
