//! # tcom-wal
//!
//! Write-ahead logging and recovery support for the tcom engine.
//!
//! The engine uses **logical, redo-only** logging: every committed
//! transaction's mutation primitives (`InsertVersion`, `CloseVersion`) are
//! appended to the log before its commit record. No undo is ever needed
//! because the engine's buffer pool is no-steal: dirty pages reach disk
//! only through flushes behind a double-write journal, so the data files
//! always hold a transaction-consistent snapshot — and every flush
//! journals, beside the pages, a *watermark*: the transaction time of the
//! last commit that snapshot holds. Recovery makes one pass over the log,
//! groups records `Begin … Commit`, skips every batch at or below the
//! watermark and redoes each later one, in log order, exactly once; a
//! batch whose commit record never became durable is dropped. Replay is
//! not idempotent and need not be: the watermark says where to start.
//!
//! An LSN is a byte position in the log's whole history: it grows across
//! checkpoints and reopens, and no durable byte's LSN is ever reused (a
//! crash that loses an unsynced tail hands its LSNs out again). The log
//! is a run of segment files, each named by its first LSN. A checkpoint
//! rolls the log onto a new segment whose first record carries the
//! engine clock and per-type atom counters, as the watermark does; once
//! the control file names that segment as where recovery starts, the
//! segments below it are removed. Nothing is truncated in place but a
//! torn tail at open.
//!
//! Format: a sequence of `[len: u32][crc32c: u32][payload]` frames, none
//! spanning two segments. A torn final frame (crash mid-append) fails its
//! CRC or length check and cleanly ends recovery — this is exercised by
//! tests.

#![warn(missing_docs)]

pub mod record;
mod wal;

pub use record::LogRecord;
pub use wal::{decode_frames, segment_path, SyncPolicy, Wal, WalChunk, WalCursor, WalObs};
