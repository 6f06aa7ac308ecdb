//! The buffer manager: a fixed pool of page frames shared by every file of
//! the database, organised as a **sharded, lock-striped** pool with
//! per-shard clock (second-chance) replacement.
//!
//! * Pages are addressed by `(FileId, PageId)`; files register their
//!   [`DiskManager`] with the pool.
//! * The frame array is partitioned into a power-of-two number of shards.
//!   Each shard owns a contiguous slice of frames and a private mutex over
//!   its mapping (`(file, page) → frame`) and clock hand, so fetches of
//!   pages that hash to different shards never contend. Frame *content* is
//!   protected by a per-frame `RwLock<Page>` latch.
//! * Latching order is **shard lock → frame latch**, never the reverse.
//!   A miss holds its shard lock across the victim write-back and the page
//!   load, and publishes the mapping only *after* the load succeeded —
//!   a key is never visible in the table while its frame holds stale
//!   bytes, so a concurrent fetch can never pin a half-loaded frame, and a
//!   failed load leaves the frame unmapped with nothing to uninstall.
//! * [`BufferPool::fetch_read`] / [`BufferPool::fetch_write`] return RAII
//!   guards that pin the frame; unpinning happens on drop. Pinned frames
//!   are never evicted (pins are only granted under the shard lock).
//! * Write guards mark the frame dirty. The engine runs a **no-steal** pool
//!   ([`BufferPool::new_no_steal`]): eviction never writes a dirty frame
//!   back, dirty pages reach disk only through the owner's flushes (the
//!   engine routes them through its double-write checkpoint journal), so
//!   the files on disk are always one transaction-consistent snapshot for
//!   logical redo to start from. A steal pool ([`BufferPool::new`]) writes
//!   dirty frames back on eviction and by [`BufferPool::flush_all`]; it
//!   gives no crash consistency and serves only the storage and
//!   version-store tests, which drive pages without an engine.
//! * The pool counts hits, misses, evictions and write-backs in lock-free
//!   atomics — the currency of experiments E9 (buffer-size sensitivity)
//!   and E13 (parallel scaling); [`BufferPool::stats`] takes no lock.

use crate::disk::DiskManager;
use crate::page::{Page, PageKind};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use tcom_kernel::{Error, PageId, Result};

/// Identifies a registered file within the pool.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FileId(pub u32);

type Key = (FileId, PageId);

/// Shards get at least this many frames each; pools smaller than twice
/// this run single-sharded (exactly the pre-striping semantics).
const MIN_FRAMES_PER_SHARD: usize = 64;

/// Upper bound on the shard count (diminishing returns past the core
/// count; keeps per-shard frame slices large enough for the clock to work).
const MAX_SHARDS: usize = 64;

struct Frame {
    page: RwLock<Page>,
    pin: AtomicU32,
    dirty: AtomicBool,
    refbit: AtomicBool,
}

/// One stripe of the pool: a contiguous frame range plus its mapping and
/// clock state, all behind a private mutex.
struct Shard {
    /// Index of this shard's first frame in the global frame array.
    base: usize,
    /// Number of frames owned by this shard.
    len: usize,
    inner: Mutex<ShardInner>,
}

struct ShardInner {
    /// `(file, page) → global frame index` for resident pages.
    table: HashMap<Key, usize>,
    /// Reverse mapping: which key occupies each local frame (`None` = free).
    tags: Vec<Option<Key>>,
    /// Clock hand (local frame index).
    hand: usize,
}

/// Cumulative buffer pool statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Total page fetches (`hits + misses == fetches` at rest).
    pub fetches: u64,
    /// Fetches satisfied from the pool.
    pub hits: u64,
    /// Fetches requiring a disk read.
    pub misses: u64,
    /// Frames reclaimed by the clock.
    pub evictions: u64,
    /// Dirty frames written back (on eviction or flush).
    pub writebacks: u64,
}

// ------------------------------------------------------------- FileTable

const FILE_SEG_BITS: usize = 6;
const FILE_SEG_LEN: usize = 1 << FILE_SEG_BITS; // 64 files per segment
const FILE_SEGS: usize = 64; // 4096 files max

/// Append-only registry of disk managers with lock-free lookup.
///
/// The fetch hot path resolves `FileId → &DiskManager` on every miss and
/// every write-back; going through an `RwLock<Vec<Arc<_>>>` there costs a
/// lock round-trip plus an `Arc` clone per call. Files are never removed,
/// so a segmented array of `OnceLock` slots gives wait-free reads (one
/// atomic load per level) and returns a *borrowed* manager.
type FileSeg = Box<[OnceLock<Arc<DiskManager>>]>;

struct FileTable {
    segs: Box<[OnceLock<FileSeg>]>,
    /// Registration count; taken only by `register_file` and the cold
    /// iteration paths (`flush_and_sync`).
    len: Mutex<u32>,
}

impl FileTable {
    fn new() -> FileTable {
        FileTable {
            segs: (0..FILE_SEGS).map(|_| OnceLock::new()).collect(),
            len: Mutex::new(0),
        }
    }

    fn push(&self, dm: Arc<DiskManager>) -> FileId {
        let mut len = self.len.lock();
        let id = *len as usize;
        assert!(
            id < FILE_SEGS * FILE_SEG_LEN,
            "buffer pool file table full ({} files)",
            FILE_SEGS * FILE_SEG_LEN
        );
        let seg = self.segs[id >> FILE_SEG_BITS].get_or_init(|| {
            (0..FILE_SEG_LEN)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        seg[id & (FILE_SEG_LEN - 1)]
            .set(dm)
            .ok()
            .expect("file slot set twice");
        *len += 1;
        FileId(id as u32)
    }

    /// Wait-free lookup; panics on an unregistered id (caller bug, same
    /// contract as the former `Vec` index).
    fn get(&self, file: FileId) -> &DiskManager {
        let id = file.0 as usize;
        self.segs[id >> FILE_SEG_BITS]
            .get()
            .and_then(|seg| seg[id & (FILE_SEG_LEN - 1)].get())
            .expect("unregistered FileId")
    }

    fn for_each(&self, mut f: impl FnMut(&DiskManager) -> Result<()>) -> Result<()> {
        let n = *self.len.lock();
        for id in 0..n {
            f(self.get(FileId(id)))?;
        }
        Ok(())
    }
}

// ------------------------------------------------------------ BufferPool

/// The shared buffer pool.
pub struct BufferPool {
    frames: Box<[Frame]>,
    shards: Box<[Shard]>,
    files: FileTable,
    /// Whether eviction may write back ("steal") dirty frames. The engine
    /// disables stealing: dirty pages then reach disk only through
    /// journal-protected flushes, which is what makes logical redo-only
    /// recovery sound (the on-disk state is always a transaction-boundary
    /// snapshot).
    steal: bool,
    fetches: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
}

/// Largest power of two `<= x` (1 for `x == 0`).
fn prev_power_of_two(x: usize) -> usize {
    if x <= 1 {
        1
    } else {
        1 << (usize::BITS - 1 - x.leading_zeros())
    }
}

fn auto_shards(capacity: usize) -> usize {
    prev_power_of_two(capacity / MIN_FRAMES_PER_SHARD).min(MAX_SHARDS)
}

impl BufferPool {
    /// Creates a pool with `capacity` frames (min 2) that may steal
    /// (write back dirty frames on eviction). The shard count is derived
    /// from the capacity (one stripe per 64 frames, capped at 64 shards).
    pub fn new(capacity: usize) -> Arc<BufferPool> {
        Self::with_shards(capacity, 0, true)
    }

    /// Creates a pool that never evicts dirty frames (no-steal). Fetches
    /// fail with [`Error::BufferExhausted`] when every frame of the target
    /// shard is dirty or pinned; the owner must flush at safe points.
    pub fn new_no_steal(capacity: usize) -> Arc<BufferPool> {
        Self::with_shards(capacity, 0, false)
    }

    /// Creates a pool with an explicit shard count (`0` = derive from the
    /// capacity). The count is rounded down to a power of two and clamped
    /// so every shard owns at least 2 frames. The explicit count lets the
    /// storage tests pin the shard layout.
    pub fn with_shards(capacity: usize, shards: usize, steal: bool) -> Arc<BufferPool> {
        let capacity = capacity.max(2);
        let want = if shards == 0 {
            auto_shards(capacity)
        } else {
            shards
        };
        let n_shards = prev_power_of_two(want.clamp(1, capacity / 2));
        let frames: Vec<Frame> = (0..capacity)
            .map(|_| Frame {
                page: RwLock::new(Page::default()),
                pin: AtomicU32::new(0),
                dirty: AtomicBool::new(false),
                refbit: AtomicBool::new(false),
            })
            .collect();
        let base_len = capacity / n_shards;
        let remainder = capacity % n_shards;
        let mut shards_v = Vec::with_capacity(n_shards);
        let mut base = 0usize;
        for s in 0..n_shards {
            let len = base_len + usize::from(s < remainder);
            shards_v.push(Shard {
                base,
                len,
                inner: Mutex::new(ShardInner {
                    table: HashMap::new(),
                    tags: vec![None; len],
                    hand: 0,
                }),
            });
            base += len;
        }
        Arc::new(BufferPool {
            frames: frames.into_boxed_slice(),
            shards: shards_v.into_boxed_slice(),
            files: FileTable::new(),
            steal,
            fetches: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
        })
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Registers a file; subsequent fetches address it by the returned id.
    pub fn register_file(&self, dm: Arc<DiskManager>) -> FileId {
        self.files.push(dm)
    }

    fn disk(&self, file: FileId) -> &DiskManager {
        self.files.get(file)
    }

    /// Page count of a registered file (delegates to its disk manager).
    pub fn file_page_count(&self, file: FileId) -> u32 {
        self.disk(file).page_count()
    }

    /// Number of `file`'s pages currently resident in the pool. Walks the
    /// shard tag arrays under their stripe locks — O(capacity), intended
    /// for statistics snapshots (planner residency estimates, `.stats`),
    /// not per-page hot paths.
    pub fn resident_pages(&self, file: FileId) -> u64 {
        let mut n = 0u64;
        for shard in self.shards.iter() {
            let inner = shard.inner.lock();
            n += inner
                .tags
                .iter()
                .filter(|t| matches!(t, Some((f, _)) if *f == file))
                .count() as u64;
        }
        n
    }

    /// Snapshot of the statistics counters (lock-free).
    pub fn stats(&self) -> BufferStats {
        BufferStats {
            fetches: self.fetches.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
        }
    }

    /// Resets the statistics counters and returns the pre-reset values
    /// (benchmark warm-up hygiene). Each counter is harvested with an
    /// atomic `swap`, so increments racing with the reset land either in
    /// the returned snapshot or in the fresh epoch — never in both and
    /// never lost. (The previous `store(0)` implementation could drop an
    /// increment that landed between a concurrent reader's load and the
    /// store.)
    pub fn reset_stats(&self) -> BufferStats {
        BufferStats {
            fetches: self.fetches.swap(0, Ordering::Relaxed),
            hits: self.hits.swap(0, Ordering::Relaxed),
            misses: self.misses.swap(0, Ordering::Relaxed),
            evictions: self.evictions.swap(0, Ordering::Relaxed),
            writebacks: self.writebacks.swap(0, Ordering::Relaxed),
        }
    }

    /// The stripe a key belongs to (Fibonacci-hashed so sequentially
    /// allocated pages of one file spread across shards).
    fn shard_of(&self, file: FileId, page: PageId) -> &Shard {
        let k = ((file.0 as u64) << 32) | page.0 as u64;
        let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 32) as usize & (self.shards.len() - 1)]
    }

    /// Locates or loads the page, returning its pinned frame index.
    fn pin_frame(&self, file: FileId, page: PageId, fill: Fill) -> Result<usize> {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        let key = (file, page);
        let shard = self.shard_of(file, page);
        let mut inner = shard.inner.lock();
        if let Some(&idx) = inner.table.get(&key) {
            self.frames[idx].pin.fetch_add(1, Ordering::AcqRel);
            self.frames[idx].refbit.store(true, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(idx);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let local = self.find_victim(shard, &mut inner)?;
        let idx = shard.base + local;
        let frame = &self.frames[idx];
        // Evict the previous occupant. The victim is unpinned and we hold
        // the shard lock, so no new pin can arrive; the frame latch is at
        // most transiently held by a guard mid-drop.
        if let Some(old) = inner.tags[local].take() {
            inner.table.remove(&old);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if frame.dirty.swap(false, Ordering::AcqRel) {
                let mut guard = frame.page.write();
                self.disk(old.0).write_page(old.1, &mut guard)?;
                self.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Fill the frame *before* publishing the mapping: a key only ever
        // appears in the table with its content resident, so a concurrent
        // fetch can never pin a stale or half-loaded frame, and a failed
        // load simply leaves the frame free — nothing to uninstall.
        {
            let mut guard = frame.page.write();
            match fill {
                Fill::Load => self.disk(file).read_page_into(page, &mut guard)?,
                Fill::Fresh(kind) => guard.reset(kind),
            }
        }
        frame.pin.store(1, Ordering::Release);
        frame.refbit.store(true, Ordering::Relaxed);
        inner.tags[local] = Some(key);
        inner.table.insert(key, idx);
        Ok(idx)
    }

    /// Clock sweep for an unpinned frame of `shard`; returns a local index.
    fn find_victim(&self, shard: &Shard, inner: &mut ShardInner) -> Result<usize> {
        let n = shard.len;
        let evictable = |frame: &Frame| {
            frame.pin.load(Ordering::Acquire) == 0
                && (self.steal || !frame.dirty.load(Ordering::Acquire))
        };
        // Two full sweeps: the first clears reference bits, the second takes
        // any unpinned frame.
        for _ in 0..2 * n {
            let local = inner.hand;
            inner.hand = (inner.hand + 1) % n;
            let frame = &self.frames[shard.base + local];
            if !evictable(frame) {
                continue;
            }
            if frame.refbit.swap(false, Ordering::Relaxed) {
                continue;
            }
            return Ok(local);
        }
        // Final pass: ignore reference bits entirely.
        for local in 0..n {
            if evictable(&self.frames[shard.base + local]) {
                return Ok(local);
            }
        }
        Err(Error::BufferExhausted)
    }

    /// Fetches a page for reading.
    pub fn fetch_read(&self, file: FileId, page: PageId) -> Result<PageRef<'_>> {
        let idx = self.pin_frame(file, page, Fill::Load)?;
        Ok(PageRef {
            pool: self,
            idx,
            guard: self.frames[idx].page.read(),
        })
    }

    /// Fetches a page for writing; the frame is marked dirty.
    pub fn fetch_write(&self, file: FileId, page: PageId) -> Result<PageMut<'_>> {
        let idx = self.pin_frame(file, page, Fill::Load)?;
        self.frames[idx].dirty.store(true, Ordering::Release);
        Ok(PageMut {
            pool: self,
            idx,
            guard: self.frames[idx].page.write(),
        })
    }

    /// Allocates a new page in `file`, formatted with `kind`, and returns it
    /// pinned for writing.
    pub fn create(&self, file: FileId, kind: PageKind) -> Result<(PageId, PageMut<'_>)> {
        let page_id = self.disk(file).allocate_page()?;
        let idx = self.pin_frame(file, page_id, Fill::Fresh(kind))?;
        self.frames[idx].dirty.store(true, Ordering::Release);
        Ok((
            page_id,
            PageMut {
                pool: self,
                idx,
                guard: self.frames[idx].page.write(),
            },
        ))
    }

    /// Collects the dirty resident frames of every shard, pinned so their
    /// mappings cannot change, without holding any shard lock afterwards.
    /// Callers must unpin every returned frame.
    fn pin_dirty(&self) -> Vec<(usize, Key)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let inner = shard.inner.lock();
            for (local, tag) in inner.tags.iter().enumerate() {
                if let Some(key) = tag {
                    let idx = shard.base + local;
                    if self.frames[idx].dirty.load(Ordering::Acquire) {
                        self.frames[idx].pin.fetch_add(1, Ordering::AcqRel);
                        out.push((idx, *key));
                    }
                }
            }
        }
        out
    }

    /// Writes every dirty frame back to its file (does **not** sync).
    ///
    /// Frames are pinned up front and written back with no shard lock
    /// held, so fetch traffic on other pages proceeds during the flush.
    /// A failed write-back re-marks the frame dirty (nothing is lost) and
    /// the first error is reported after every frame was unpinned.
    pub fn flush_all(&self) -> Result<()> {
        let pinned = self.pin_dirty();
        let mut result = Ok(());
        for (idx, (file, page)) in pinned {
            let frame = &self.frames[idx];
            if result.is_ok() && frame.dirty.swap(false, Ordering::AcqRel) {
                let mut guard = frame.page.write();
                match self.disk(file).write_page(page, &mut guard) {
                    Ok(()) => {
                        self.writebacks.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        frame.dirty.store(true, Ordering::Release);
                        result = Err(e);
                    }
                }
            }
            frame.pin.fetch_sub(1, Ordering::AcqRel);
        }
        result
    }

    /// Flushes all dirty frames and fsyncs every registered file — the
    /// checkpoint primitive.
    pub fn flush_and_sync(&self) -> Result<()> {
        self.flush_all()?;
        self.files.for_each(|dm| dm.sync())
    }

    /// Number of dirty frames (pressure signal for no-steal owners).
    pub fn dirty_count(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.dirty.load(Ordering::Acquire))
            .count()
    }

    /// Snapshots every dirty frame as a sealed page image
    /// (`(file, page, bytes)`), for the checkpoint double-write journal.
    ///
    /// Checkpoint consistency: the engine calls this with writers excluded
    /// (commit lock / transaction boundary), so each image copied under the
    /// frame's read latch is the transaction-boundary state of that page.
    /// The bytes are copied **once**, straight out of the latched frame
    /// into the journal image, and sealed (checksummed) *after* the latch
    /// is released — sealing is pure CPU over the private copy, so the
    /// latch is held only for the 8 KiB memcpy.
    pub fn dirty_pages(&self) -> Vec<(FileId, PageId, Box<[u8; crate::page::PAGE_SIZE]>)> {
        let pinned = self.pin_dirty();
        let mut out = Vec::with_capacity(pinned.len());
        for (idx, (file, page)) in pinned {
            let frame = &self.frames[idx];
            if frame.dirty.load(Ordering::Acquire) {
                let guard = frame.page.read();
                let mut img = Box::new(*guard.bytes());
                drop(guard);
                Page::seal_image(&mut img);
                out.push((file, page, img));
            }
            frame.pin.fetch_sub(1, Ordering::AcqRel);
        }
        out
    }
}

/// How `pin_frame` fills a frame on a miss.
#[derive(Clone, Copy)]
enum Fill {
    /// Read the page from disk (the frame buffer is reused in place).
    Load,
    /// Format a zeroed page of the given kind (freshly allocated pages
    /// have no disk image worth reading).
    Fresh(PageKind),
}

/// Shared (read) guard over a pinned page.
pub struct PageRef<'a> {
    pool: &'a BufferPool,
    idx: usize,
    guard: RwLockReadGuard<'a, Page>,
}

impl Deref for PageRef<'_> {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.guard
    }
}

impl Drop for PageRef<'_> {
    fn drop(&mut self) {
        self.pool.frames[self.idx]
            .pin
            .fetch_sub(1, Ordering::AcqRel);
    }
}

/// Exclusive (write) guard over a pinned page.
pub struct PageMut<'a> {
    pool: &'a BufferPool,
    idx: usize,
    guard: RwLockWriteGuard<'a, Page>,
}

impl Deref for PageMut<'_> {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.guard
    }
}

impl DerefMut for PageMut<'_> {
    fn deref_mut(&mut self) -> &mut Page {
        &mut self.guard
    }
}

impl Drop for PageMut<'_> {
    fn drop(&mut self) {
        self.pool.frames[self.idx]
            .pin
            .fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpfile(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("tcom-buf-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn pool_with_file(name: &str, frames: usize) -> (Arc<BufferPool>, FileId, PathBuf) {
        let path = tmpfile(name);
        let dm = Arc::new(DiskManager::open(&path).unwrap());
        let pool = BufferPool::new(frames);
        let file = pool.register_file(dm);
        (pool, file, path)
    }

    #[test]
    fn create_write_read_through_pool() {
        let (pool, file, path) = pool_with_file("cwr", 8);
        let pid = {
            let (pid, mut page) = pool.create(file, PageKind::Slotted).unwrap();
            page.write_u64(100, 4242);
            pid
        };
        {
            let page = pool.fetch_read(file, pid).unwrap();
            assert_eq!(page.read_u64(100), 4242);
        }
        let s = pool.stats();
        assert_eq!(s.hits, 1); // the fetch_read hit the created frame
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (pool, file, path) = pool_with_file("evict", 2);
        let mut ids = Vec::new();
        for i in 0..6u64 {
            let (pid, mut page) = pool.create(file, PageKind::Slotted).unwrap();
            page.write_u64(64, i * 11);
            ids.push(pid);
        }
        // Re-read everything; only 2 frames exist so most reads come from disk.
        for (i, pid) in ids.iter().enumerate() {
            let page = pool.fetch_read(file, *pid).unwrap();
            assert_eq!(page.read_u64(64), i as u64 * 11);
        }
        let s = pool.stats();
        assert!(s.evictions >= 4, "stats: {s:?}");
        assert!(s.writebacks >= 4, "stats: {s:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let (pool, file, path) = pool_with_file("pin", 2);
        let (pid_a, mut a) = pool.create(file, PageKind::Slotted).unwrap();
        a.write_u64(64, 1);
        // Hold the guard (pin) while forcing traffic through the other frame.
        for _ in 0..5 {
            let (_pid, mut p) = pool.create(file, PageKind::Slotted).unwrap();
            p.write_u64(64, 9);
        }
        a.write_u64(72, 2);
        drop(a);
        let back = pool.fetch_read(file, pid_a).unwrap();
        assert_eq!(back.read_u64(64), 1);
        assert_eq!(back.read_u64(72), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exhaustion_when_everything_pinned() {
        let (pool, file, path) = pool_with_file("exhaust", 2);
        let (_p1, g1) = pool.create(file, PageKind::Slotted).unwrap();
        let (_p2, g2) = pool.create(file, PageKind::Slotted).unwrap();
        let r = pool.create(file, PageKind::Slotted);
        assert!(matches!(r, Err(Error::BufferExhausted)));
        drop((g1, g2));
        assert!(pool.create(file, PageKind::Slotted).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_and_sync_persists() {
        let path = tmpfile("flush");
        let pid;
        {
            let dm = Arc::new(DiskManager::open(&path).unwrap());
            let pool = BufferPool::new(4);
            let file = pool.register_file(dm);
            let (p, mut page) = pool.create(file, PageKind::Slotted).unwrap();
            page.write_u64(64, 31337);
            pid = p;
            drop(page);
            pool.flush_and_sync().unwrap();
        }
        let dm = DiskManager::open(&path).unwrap();
        assert_eq!(dm.read_page(pid).unwrap().read_u64(64), 31337);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hit_ratio_reflects_locality() {
        let (pool, file, path) = pool_with_file("ratio", 4);
        let (pid, g) = pool.create(file, PageKind::Slotted).unwrap();
        drop(g);
        pool.reset_stats();
        for _ in 0..100 {
            let _ = pool.fetch_read(file, pid).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits, 100);
        assert_eq!(s.misses, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn no_steal_never_evicts_dirty_frames() {
        let path = tmpfile("nosteal");
        let dm = Arc::new(DiskManager::open(&path).unwrap());
        let pool = BufferPool::new_no_steal(4);
        let file = pool.register_file(dm.clone());
        // Dirty 3 of 4 frames (unpinned).
        let mut pids = Vec::new();
        for i in 0..3u64 {
            let (pid, mut p) = pool.create(file, PageKind::Slotted).unwrap();
            p.write_u64(64, i);
            pids.push(pid);
        }
        // A 4th create uses the last clean frame…
        let (_p4, g4) = pool.create(file, PageKind::Slotted).unwrap();
        drop(g4);
        // …after which every frame is dirty: nothing is evictable, and
        // crucially nothing was written to disk behind our back.
        assert!(matches!(
            pool.create(file, PageKind::Slotted),
            Err(Error::BufferExhausted)
        ));
        assert_eq!(pool.stats().writebacks, 0, "no-steal must not write back");
        assert_eq!(dm.io_counts().1, 0, "no physical writes before flush");
        assert_eq!(pool.dirty_count(), 4);
        // A flush cleans the frames; traffic flows again.
        pool.flush_all().unwrap();
        assert_eq!(pool.dirty_count(), 0);
        let (_p5, g5) = pool.create(file, PageKind::Slotted).unwrap();
        drop(g5);
        // Dirty data survived the eviction pressure.
        for (i, pid) in pids.iter().enumerate() {
            let page = pool.fetch_read(file, *pid).unwrap();
            assert_eq!(page.read_u64(64), i as u64);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dirty_pages_snapshot_is_sealed_and_complete() {
        let (pool, file, path) = pool_with_file("snapshot", 8);
        let (pid_a, mut a) = pool.create(file, PageKind::Slotted).unwrap();
        a.write_u64(64, 111);
        drop(a);
        let (pid_b, mut b) = pool.create(file, PageKind::Meta).unwrap();
        b.write_u64(64, 222);
        drop(b);
        let snap = pool.dirty_pages();
        assert_eq!(snap.len(), 2);
        for (f, pid, image) in &snap {
            assert_eq!(*f, file);
            // Images are sealed: checksums verify.
            let page = Page::from_bytes(image.clone());
            page.verify().expect("sealed image");
            let want = if *pid == pid_a { 111 } else { 222 };
            assert_eq!(page.read_u64(64), want);
            assert!(*pid == pid_a || *pid == pid_b);
        }
        // Snapshotting does not clean the frames.
        assert_eq!(pool.dirty_count(), 2);
        pool.flush_all().unwrap();
        assert!(pool.dirty_pages().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_readers_share_frames() {
        let (pool, file, path) = pool_with_file("conc", 8);
        let mut pids = Vec::new();
        for i in 0..8u64 {
            let (pid, mut p) = pool.create(file, PageKind::Slotted).unwrap();
            p.write_u64(64, i);
            pids.push(pid);
        }
        pool.flush_all().unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = &pool;
                let pids = &pids;
                s.spawn(move || {
                    for _ in 0..200 {
                        for (i, pid) in pids.iter().enumerate() {
                            let page = pool.fetch_read(file, *pid).unwrap();
                            assert_eq!(page.read_u64(64), i as u64);
                        }
                    }
                });
            }
        });
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shard_geometry() {
        // Small pools collapse to one shard (pre-striping semantics).
        assert_eq!(BufferPool::new(8).shard_count(), 1);
        assert_eq!(BufferPool::new(64).shard_count(), 1);
        // Larger pools stripe at MIN_FRAMES_PER_SHARD frames per shard.
        assert_eq!(BufferPool::new(128).shard_count(), 2);
        assert_eq!(BufferPool::new(1024).shard_count(), 16);
        assert_eq!(BufferPool::new(100_000).shard_count(), MAX_SHARDS);
        // Explicit counts round down to a power of two and respect the
        // 2-frames-per-shard floor; every frame stays reachable.
        let p = BufferPool::with_shards(10, 3, true);
        assert_eq!(p.shard_count(), 2);
        assert_eq!(p.capacity(), 10);
        assert_eq!(BufferPool::with_shards(4, 64, true).shard_count(), 2);
        assert_eq!(BufferPool::with_shards(2, 64, true).shard_count(), 1);
    }

    #[test]
    fn striped_pool_spreads_and_serves_working_set() {
        // A multi-shard pool must serve a working set larger than any one
        // shard as long as the clock can evict (steal pool), and reads
        // must always see the latest writes regardless of shard placement.
        let path = tmpfile("stripe");
        let dm = Arc::new(DiskManager::open(&path).unwrap());
        let pool = BufferPool::with_shards(16, 4, true);
        assert_eq!(pool.shard_count(), 4);
        let file = pool.register_file(dm);
        let mut pids = Vec::new();
        for i in 0..64u64 {
            let (pid, mut p) = pool.create(file, PageKind::Slotted).unwrap();
            p.write_u64(64, i * 3);
            pids.push(pid);
        }
        for _round in 0..3 {
            for (i, pid) in pids.iter().enumerate() {
                let mut p = pool.fetch_write(file, *pid).unwrap();
                assert_eq!(p.read_u64(64), i as u64 * 3);
                let v = p.read_u64(72);
                p.write_u64(72, v + 1);
            }
        }
        for pid in &pids {
            let p = pool.fetch_read(file, *pid).unwrap();
            assert_eq!(p.read_u64(72), 3);
        }
        let s = pool.stats();
        assert!(s.evictions > 0, "working set exceeds the pool: {s:?}");
        let _ = std::fs::remove_file(&path);
    }
}
