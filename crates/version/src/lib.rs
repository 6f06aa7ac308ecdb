//! # tcom-version
//!
//! Temporal version management: one version store, [`Store`], that
//! lays atom version histories on pages in one of the three competing
//! record layouts the paper's realization evaluates ([`StoreKind`]):
//!
//! * **chain** (V1) — full-copy backward version chains;
//! * **delta** (V2) — full current versions, closed versions compressed to
//!   attribute-level backward deltas;
//! * **split** (V3) — clustered current store plus append-only,
//!   closing-time-ordered history store.
//!
//! Everything the layouts share is written once; the layouts answer
//! identical bitemporal visibility queries, which the `equivalence`
//! integration test verifies against a naive executable model under random
//! histories, and whose page and walk costs `cost_golden` pins per layout.

#![warn(missing_docs)]

pub mod record;
mod segment;
mod store;
mod timeindex;

pub use record::AtomVersion;
pub use segment::{write_segment_file, Segment, SegmentFooter, SegmentSet, SegmentSetStats};
pub use store::{HeapShape, Maintenance, Store, StoreKind, StoreObs, StoreStats};
