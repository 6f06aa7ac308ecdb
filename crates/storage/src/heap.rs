//! Heap files: unordered collections of variable-length records on slotted
//! pages, accessed through the buffer pool.
//!
//! Page 0 of a heap file is a meta page (magic + format); data pages start
//! at page 1. Free space is tracked by an in-memory advisory cache that is
//! populated as pages are touched. Records keep their [`RecordId`] for
//! their lifetime unless an update outgrows the page, in which case
//! [`HeapFile::update`] writes the record to a new address and returns it,
//! and the caller (atom directory, version store) re-points its references
//! and then deletes the old copy — exactly the "forwarding is the access
//! path's problem" policy classic storage systems use. A reader that
//! found the old address before the re-point still reads a whole record.

use crate::buffer::{BufferPool, FileId};
use crate::page::PageKind;
use crate::slotted::{SlottedPage, SlottedRef};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use tcom_kernel::{Error, PageId, RecordId, Result};

const HEAP_MAGIC: u64 = 0x5443_4845_4150_0001; // "TCHEAP" v1

/// A heap file bound to one registered buffer-pool file.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    file: FileId,
    /// Advisory free-space cache: page → contiguous free bytes (approx).
    fsm: Mutex<BTreeMap<PageId, usize>>,
}

impl HeapFile {
    /// Formats a fresh heap file (writes the meta page).
    pub fn create(pool: Arc<BufferPool>, file: FileId) -> Result<HeapFile> {
        {
            let (pid, mut meta) = pool.create(file, PageKind::Meta)?;
            if pid != PageId(0) {
                return Err(Error::internal("heap meta page must be page 0"));
            }
            meta.write_u64(8, HEAP_MAGIC);
        }
        Ok(HeapFile {
            pool,
            file,
            fsm: Mutex::new(BTreeMap::new()),
        })
    }

    /// Opens an existing heap file, validating the meta page.
    pub fn open(pool: Arc<BufferPool>, file: FileId) -> Result<HeapFile> {
        {
            let meta = pool.fetch_read(file, PageId(0))?;
            if meta.read_u64(8) != HEAP_MAGIC {
                return Err(Error::corruption("bad heap file magic"));
            }
        }
        Ok(HeapFile {
            pool,
            file,
            fsm: Mutex::new(BTreeMap::new()),
        })
    }

    /// Number of data pages currently allocated.
    pub fn data_pages(&self) -> u32 {
        self.page_count().saturating_sub(1)
    }

    /// Number of this file's pages currently resident in the buffer pool
    /// (statistics snapshot; see [`BufferPool::resident_pages`]).
    pub fn resident_pages(&self) -> u64 {
        self.pool.resident_pages(self.file)
    }

    fn page_count(&self) -> u32 {
        // The pool's disk manager is authoritative for the file length.
        self.pool.file_page_count(self.file)
    }

    /// Picks a page with at least `need` free bytes from the cache.
    fn cached_page_with_space(&self, need: usize) -> Option<PageId> {
        let fsm = self.fsm.lock();
        fsm.iter()
            .find(|(_, &free)| free >= need)
            .map(|(&pid, _)| pid)
    }

    fn note_free(&self, pid: PageId, free: usize) {
        self.fsm.lock().insert(pid, free);
    }

    /// Inserts a record, returning its address.
    pub fn insert(&self, rec: &[u8]) -> Result<RecordId> {
        // The slot entry itself needs 4 bytes; ask for a little headroom.
        let need = rec.len() + 8;
        // 1. A cached page with space.
        if let Some(pid) = self.cached_page_with_space(need) {
            let mut page = self.pool.fetch_write(self.file, pid)?;
            let mut sp = SlottedPage::attach(&mut page)?;
            if let Some(slot) = sp.insert(rec)? {
                let free = sp.total_free();
                drop(page);
                self.note_free(pid, free);
                return Ok(RecordId::new(pid, slot));
            }
            // Cache was optimistic; fix it and fall through.
            let free = sp.total_free();
            drop(page);
            self.note_free(pid, free);
        }
        // 2. The last data page (covers the fresh-file and append workload).
        let count = self.page_count();
        if count > 1 {
            let pid = PageId(count - 1);
            let mut page = self.pool.fetch_write(self.file, pid)?;
            if let Ok(mut sp) = SlottedPage::attach(&mut page) {
                if let Some(slot) = sp.insert(rec)? {
                    let free = sp.total_free();
                    drop(page);
                    self.note_free(pid, free);
                    return Ok(RecordId::new(pid, slot));
                }
            }
        }
        // 3. Allocate a new page.
        let (pid, mut page) = self.pool.create(self.file, PageKind::Slotted)?;
        let mut sp = SlottedPage::init(&mut page);
        let slot = sp.insert(rec)?.ok_or(Error::RecordTooLarge(rec.len()))?;
        let free = sp.total_free();
        drop(page);
        self.note_free(pid, free);
        Ok(RecordId::new(pid, slot))
    }

    /// Reads a record into an owned buffer.
    pub fn get(&self, rid: RecordId) -> Result<Vec<u8>> {
        self.with_record(rid, |r| r.to_vec())
    }

    /// Zero-copy record access under a shared page latch.
    pub fn with_record<T>(&self, rid: RecordId, f: impl FnOnce(&[u8]) -> T) -> Result<T> {
        let page = self.pool.fetch_read(self.file, rid.page)?;
        let sp = SlottedRef::attach(&page)?;
        Ok(f(sp.get(rid.slot)?))
    }

    /// True iff the record exists.
    pub fn exists(&self, rid: RecordId) -> Result<bool> {
        if rid.is_invalid() || rid.page.0 == 0 || rid.page.0 >= self.page_count() {
            return Ok(false);
        }
        let page = self.pool.fetch_read(self.file, rid.page)?;
        let sp = SlottedRef::attach(&page)?;
        Ok(sp.is_live(rid.slot))
    }

    /// Updates a record in place when possible. Otherwise writes it to a
    /// new address and leaves the old copy live, for the caller to delete
    /// once nothing points at it. Returns the (possibly new) address.
    pub fn update(&self, rid: RecordId, rec: &[u8]) -> Result<RecordId> {
        {
            let mut page = self.pool.fetch_write(self.file, rid.page)?;
            let mut sp = SlottedPage::attach(&mut page)?;
            if sp.update(rid.slot, rec)? {
                let free = sp.total_free();
                drop(page);
                self.note_free(rid.page, free);
                return Ok(rid);
            }
        }
        // Outgrew the page: relocate.
        self.insert(rec)
    }

    /// Deletes a record.
    pub fn delete(&self, rid: RecordId) -> Result<()> {
        let mut page = self.pool.fetch_write(self.file, rid.page)?;
        let mut sp = SlottedPage::attach(&mut page)?;
        sp.delete(rid.slot)?;
        let free = sp.total_free();
        drop(page);
        self.note_free(rid.page, free);
        Ok(())
    }

    /// Full scan: calls `f` for every live record. `f` returning `false`
    /// stops the scan early.
    pub fn scan(&self, mut f: impl FnMut(RecordId, &[u8]) -> Result<bool>) -> Result<()> {
        let count = self.page_count();
        for p in 1..count {
            let pid = PageId(p);
            let page = self.pool.fetch_read(self.file, pid)?;
            let sp = match SlottedRef::attach(&page) {
                Ok(sp) => sp,
                Err(_) => continue, // non-data page (none today, future-proof)
            };
            for (slot, rec) in sp.iter() {
                if !f(RecordId::new(pid, slot), rec)? {
                    return Ok(());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;
    use std::path::PathBuf;
    use tcom_kernel::SlotId;

    fn tmpfile(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("tcom-heap-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn heap(name: &str) -> (HeapFile, PathBuf) {
        let path = tmpfile(name);
        let dm = Arc::new(DiskManager::open(&path).unwrap());
        let pool = BufferPool::new(16);
        let file = pool.register_file(dm);
        (HeapFile::create(pool, file).unwrap(), path)
    }

    #[test]
    fn insert_get_many() {
        let (h, path) = heap("many");
        let mut rids = Vec::new();
        for i in 0..500u32 {
            let rec = format!(
                "record number {i} with some padding {}",
                "x".repeat(i as usize % 50)
            );
            rids.push((h.insert(rec.as_bytes()).unwrap(), rec));
        }
        for (rid, rec) in &rids {
            assert_eq!(h.get(*rid).unwrap(), rec.as_bytes());
        }
        assert!(h.data_pages() > 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn update_in_place_and_relocation() {
        let (h, path) = heap("upd");
        let rid = h.insert(b"small").unwrap();
        let same = h.update(rid, b"tiny").unwrap();
        assert_eq!(same, rid);
        assert_eq!(h.get(rid).unwrap(), b"tiny");
        // Fill the page so a grow must relocate.
        let filler = vec![9u8; 2000];
        for _ in 0..3 {
            h.insert(&filler).unwrap();
        }
        let big = vec![1u8; 4000];
        let moved = h.update(rid, &big).unwrap();
        assert_eq!(h.get(moved).unwrap(), big);
        assert_eq!(h.get(rid).unwrap(), b"tiny", "the old copy stays");
        h.delete(rid).unwrap();
        assert!(!h.exists(rid).unwrap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn delete_frees_space_for_reuse() {
        let (h, path) = heap("del");
        let rec = vec![5u8; 1000];
        let mut rids = Vec::new();
        for _ in 0..20 {
            rids.push(h.insert(&rec).unwrap());
        }
        let pages_before = h.data_pages();
        for rid in &rids {
            h.delete(*rid).unwrap();
        }
        for _ in 0..20 {
            h.insert(&rec).unwrap();
        }
        // Space was reused: no (or barely any) new pages.
        assert!(h.data_pages() <= pages_before + 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scan_visits_all_live() {
        let (h, path) = heap("scan");
        let mut expect = std::collections::HashSet::new();
        for i in 0..100u32 {
            let rec = i.to_le_bytes().to_vec();
            let rid = h.insert(&rec).unwrap();
            if i % 3 == 0 {
                h.delete(rid).unwrap();
            } else {
                expect.insert(i);
            }
        }
        let mut seen = std::collections::HashSet::new();
        h.scan(|_rid, rec| {
            seen.insert(u32::from_le_bytes(rec.try_into().unwrap()));
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen, expect);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scan_early_stop() {
        let (h, path) = heap("stop");
        for i in 0..50u32 {
            h.insert(&i.to_le_bytes()).unwrap();
        }
        let mut n = 0;
        h.scan(|_, _| {
            n += 1;
            Ok(n < 10)
        })
        .unwrap();
        assert_eq!(n, 10);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persists_across_reopen() {
        let path = tmpfile("persist");
        let rid;
        {
            let dm = Arc::new(DiskManager::open(&path).unwrap());
            let pool = BufferPool::new(8);
            let file = pool.register_file(dm);
            let h = HeapFile::create(pool.clone(), file).unwrap();
            rid = h.insert(b"durable record").unwrap();
            pool.flush_and_sync().unwrap();
        }
        {
            let dm = Arc::new(DiskManager::open(&path).unwrap());
            let pool = BufferPool::new(8);
            let file = pool.register_file(dm);
            let h = HeapFile::open(pool, file).unwrap();
            assert_eq!(h.get(rid).unwrap(), b"durable record");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exists_checks() {
        let (h, path) = heap("exists");
        let rid = h.insert(b"x").unwrap();
        assert!(h.exists(rid).unwrap());
        h.delete(rid).unwrap();
        assert!(!h.exists(rid).unwrap());
        assert!(!h.exists(RecordId::INVALID).unwrap());
        assert!(!h.exists(RecordId::new(PageId(999), SlotId(0))).unwrap());
        let _ = std::fs::remove_file(&path);
    }
}
