//! # tcom-core
//!
//! The engine of the tcom temporal complex-object database — the paper's
//! primary contribution realized end-to-end. Its surface is the root
//! re-exports below:
//!
//! * [`Database`] — lifecycle, DDL, bitemporal reads, molecule
//!   materialization and histories, checkpointing, crash recovery
//!   (logical idempotent redo); snapshot reads pin the published TT clock
//!   ([`ReadView`]) and never block on commits;
//! * [`Txn`] — write transactions with deferred application,
//!   read-your-writes overlays, and netting;
//! * [`TypeStats`] — per-type statistics snapshots feeding the cost-based
//!   planner, maintained incrementally at commit;
//! * [`WalApplier`] and [`Compactor`] — replica apply and background
//!   segment compaction.
//!
//! Four modules stay public because sibling crates and tests use them by
//! path:
//!
//! * [`dml`] — the pure bitemporal planning algorithms (valid-time
//!   splitting, remainders, coalescing);
//! * [`batch`] — columnar version batches and the batched temporal
//!   operators (join on vt/tt overlap, history aggregation, coalescing)
//!   the executor pipelines instead of tuple-at-a-time;
//! * [`algebra`] — the scalar temporal algebra the batched operators are
//!   checked against;
//! * [`stripes`] — per-atom-type commit stripes (wait-die) behind the
//!   concurrent-writer path.

#![warn(missing_docs)]

pub mod algebra;
pub mod batch;
mod compactor;
mod config;
mod db;
pub mod dml;
mod integrity;
mod journal;
mod molecule;
mod repl;
mod stats;
pub mod stripes;
mod txn;

pub use batch::VersionBatch;
pub use compactor::Compactor;
pub use config::DbConfig;
pub use db::{Database, ReadView};
pub use dml::{CurrentVersion, Plan, Primitive};
pub use integrity::IntegrityReport;
pub use molecule::{MatAtom, Molecule};
pub use repl::WalApplier;
pub use stats::{SegmentFence, TypeStats};
pub use stripes::is_wait_die_abort;
pub use txn::Txn;

// Re-export the commonly used lower-layer types so that applications can
// depend on `tcom-core` alone.
pub use tcom_catalog::{AttrDef, Catalog, MoleculeEdge};
pub use tcom_kernel::{
    AtomId, AtomNo, AtomTypeId, AttrId, DataType, Error, Interval, MoleculeTypeId, Result,
    TemporalElement, TimePoint, Tuple, Value,
};
pub use tcom_obs::{
    Counter, Histogram, MetricsSnapshot, Registry, RingRecorder, SpanRecord, SpanSink,
};
pub use tcom_storage::vfs::{Fault, FaultSchedule, FaultVfs, StdVfs, Vfs, VfsFile};
pub use tcom_version::{StoreKind, StoreStats};
pub use tcom_wal::SyncPolicy;
