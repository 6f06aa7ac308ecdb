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
//! Checkpointing truncates the log after flushing and fsyncing all data
//! files; the checkpoint record carries the engine clock and per-type atom
//! counters, as the watermark does.
//!
//! Format: a sequence of `[len: u32][crc32c: u32][payload]` frames. A
//! torn final frame (crash mid-append) fails its CRC or length check and
//! cleanly ends recovery — this is exercised by tests.

#![warn(missing_docs)]

pub mod record;
mod wal;

pub use record::LogRecord;
pub use wal::{decode_frames, SyncPolicy, Wal, WalChunk, WalCursor, WalObs};
