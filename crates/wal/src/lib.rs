//! # tcom-wal
//!
//! Write-ahead logging and recovery support for the tcom engine.
//!
//! The engine uses **logical, redo-only** logging: every committed
//! transaction's mutation primitives (`InsertVersion`, `CloseVersion`) are
//! appended to the log before its commit record. No undo is ever needed
//! because the engine's buffer pool is no-steal: dirty pages reach disk
//! only through checkpoint flushes behind a double-write journal, so the
//! data files always hold a transaction-consistent snapshot. Recovery
//! replays the primitives of committed transactions in log order on top of
//! it, and replay is **idempotent** at the engine level: an insert is
//! skipped when its `(atom, vt, tt_start, tuple)` version is already
//! stored, and a close is applied only when the current version it names
//! predates the closing transaction (a same-`vt` version that transaction
//! itself created is left open).
//!
//! Checkpointing truncates the log after flushing and fsyncing all data
//! files; the checkpoint record carries the engine clock and per-type atom
//! counters so they survive without a separate metadata file.
//!
//! Format: a sequence of `[len: u32][crc32c: u32][payload]` frames. A
//! torn final frame (crash mid-append) fails its CRC or length check and
//! cleanly ends recovery — this is exercised by tests.

#![warn(missing_docs)]

pub mod record;
mod wal;

pub use record::LogRecord;
pub use wal::{decode_frames, SyncPolicy, Wal, WalChunk, WalCursor, WalObs};
