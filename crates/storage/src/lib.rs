//! # tcom-storage
//!
//! The paged storage substrate of the tcom engine: a disk manager with
//! checksummed 8 KiB pages ([`disk`]), a shared clock-replacement buffer
//! pool ([`buffer`]), heap files of slotted data pages ([`HeapFile`]) and a
//! disk-resident B⁺-tree ([`btree`]) used for atom directories, value
//! indexes and the time index.
//!
//! This crate substitutes for the 1992 PRIMA storage system the paper ran
//! on: it preserves the behaviours the evaluation depends on — page-granular
//! I/O, buffer locality, and access-path cost structure.

#![warn(missing_docs)]

pub mod btree;
pub mod buffer;
pub mod disk;
mod heap;
pub mod keys;
pub mod page;
mod slotted;
pub mod vfs;

pub use buffer::{BufferPool, BufferStats, FileId, PageMut, PageRef};
pub use disk::{DiskIoStats, DiskManager};
pub use heap::HeapFile;
pub use page::{Page, PageKind, PAGE_SIZE};
pub use vfs::{Fault, FaultSchedule, FaultVfs, StdVfs, Vfs, VfsFile};
