//! Slotted-page layout for variable-length records.
//!
//! Layout (offsets are absolute within the page):
//!
//! ```text
//! 0..8    common page header (see `page`)
//! 8       u16 slot_count         number of slot entries ever allocated
//! 10      u16 free_start         first byte of the free gap (grows up)
//! 12      u16 free_end           one past the free gap (cells grow down)
//! 14      u16 live_bytes         sum of live cell lengths (for vacuum decisions)
//! 16..    slot array             4 bytes per slot: u16 offset, u16 len
//! ...     free gap
//! ...     cells (records), allocated from PAGE_SIZE downwards
//! ```
//!
//! A slot with `offset == DEAD` is a tombstone; its id can be reused by a
//! later insert. Record ids therefore stay stable across intra-page
//! compaction (compaction moves cells, not slots).

use crate::page::{Page, PageKind, PAGE_HEADER_LEN, PAGE_SIZE};
use tcom_kernel::{Error, Result, SlotId};

const OFF_SLOT_COUNT: usize = PAGE_HEADER_LEN;
const OFF_FREE_START: usize = PAGE_HEADER_LEN + 2;
const OFF_FREE_END: usize = PAGE_HEADER_LEN + 4;
const OFF_LIVE_BYTES: usize = PAGE_HEADER_LEN + 6;
const SLOTS_BASE: usize = PAGE_HEADER_LEN + 8;
const SLOT_ENTRY: usize = 4;
const DEAD: u16 = u16::MAX;

/// Largest record that fits on an empty page.
pub const MAX_RECORD: usize = PAGE_SIZE - SLOTS_BASE - SLOT_ENTRY;

/// Typed view over a [`Page`] using the slotted layout.
///
/// The view borrows the page mutably; all layout invariants are kept local
/// to this module.
pub struct SlottedPage<'a> {
    page: &'a mut Page,
}

impl<'a> SlottedPage<'a> {
    /// Formats `page` as an empty slotted page.
    pub fn init(page: &'a mut Page) -> SlottedPage<'a> {
        page.set_kind(PageKind::Slotted);
        page.write_u16(OFF_SLOT_COUNT, 0);
        page.write_u16(OFF_FREE_START, SLOTS_BASE as u16);
        page.write_u16(OFF_FREE_END, PAGE_SIZE as u16);
        page.write_u16(OFF_LIVE_BYTES, 0);
        SlottedPage { page }
    }

    /// Wraps an existing slotted page.
    pub fn attach(page: &'a mut Page) -> Result<SlottedPage<'a>> {
        match page.kind()? {
            PageKind::Slotted => Ok(SlottedPage { page }),
            k => Err(Error::corruption(format!(
                "expected slotted page, found {k:?}"
            ))),
        }
    }

    fn slot_count(&self) -> u16 {
        self.page.read_u16(OFF_SLOT_COUNT)
    }

    fn free_start(&self) -> usize {
        self.page.read_u16(OFF_FREE_START) as usize
    }

    fn free_end(&self) -> usize {
        self.page.read_u16(OFF_FREE_END) as usize
    }

    fn live_bytes(&self) -> usize {
        self.page.read_u16(OFF_LIVE_BYTES) as usize
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let base = SLOTS_BASE + slot as usize * SLOT_ENTRY;
        (self.page.read_u16(base), self.page.read_u16(base + 2))
    }

    fn set_slot_entry(&mut self, slot: u16, off: u16, len: u16) {
        let base = SLOTS_BASE + slot as usize * SLOT_ENTRY;
        self.page.write_u16(base, off);
        self.page.write_u16(base + 2, len);
    }

    /// Contiguous free bytes between the slot array and the cell area.
    fn contiguous_free(&self) -> usize {
        self.free_end().saturating_sub(self.free_start())
    }

    /// Free bytes reclaimable by compaction (dead cells + gap).
    pub fn total_free(&self) -> usize {
        let slots = self.slot_count() as usize * SLOT_ENTRY;
        PAGE_SIZE - SLOTS_BASE - slots - self.live_bytes()
    }

    /// Whether a record of `len` bytes can be stored (possibly after
    /// compaction), accounting for a potentially new slot entry.
    fn can_fit(&self, len: usize) -> bool {
        let need_new_slot = !self.has_dead_slot();
        let overhead = if need_new_slot { SLOT_ENTRY } else { 0 };
        len + overhead <= self.total_free()
    }

    fn has_dead_slot(&self) -> bool {
        (0..self.slot_count()).any(|s| self.slot_entry(s).0 == DEAD)
    }

    /// Iterates live `(slot, record bytes)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| {
            let (off, len) = self.slot_entry(s);
            if off == DEAD {
                None
            } else {
                Some((
                    SlotId(s),
                    &self.page.bytes()[off as usize..off as usize + len as usize],
                ))
            }
        })
    }

    /// Inserts a record, compacting first if needed. Fails with
    /// [`Error::RecordTooLarge`] when the record can never fit on a page and
    /// with `Ok(None)` when this particular page is too full.
    pub fn insert(&mut self, rec: &[u8]) -> Result<Option<SlotId>> {
        if rec.len() > MAX_RECORD {
            return Err(Error::RecordTooLarge(rec.len()));
        }
        if !self.can_fit(rec.len()) {
            return Ok(None);
        }
        // Pick a slot: reuse the first dead one, else append. Appending
        // needs SLOT_ENTRY bytes of contiguous gap — compact first if the
        // gap is fragmented away, or the slot array would overrun cells.
        let slot = match (0..self.slot_count()).find(|&s| self.slot_entry(s).0 == DEAD) {
            Some(s) => s,
            None => {
                if self.contiguous_free() < SLOT_ENTRY {
                    self.compact();
                }
                debug_assert!(self.contiguous_free() >= SLOT_ENTRY);
                let s = self.slot_count();
                self.page.write_u16(OFF_SLOT_COUNT, s + 1);
                // Appending a slot entry consumes free_start space.
                self.page
                    .write_u16(OFF_FREE_START, (self.free_start() + SLOT_ENTRY) as u16);
                self.set_slot_entry(s, DEAD, 0);
                s
            }
        };
        if self.contiguous_free() < rec.len() {
            self.compact();
        }
        debug_assert!(self.contiguous_free() >= rec.len());
        let off = self.free_end() - rec.len();
        self.page.bytes_mut()[off..off + rec.len()].copy_from_slice(rec);
        self.page.write_u16(OFF_FREE_END, off as u16);
        self.set_slot_entry(slot, off as u16, rec.len() as u16);
        self.page
            .write_u16(OFF_LIVE_BYTES, (self.live_bytes() + rec.len()) as u16);
        Ok(Some(SlotId(slot)))
    }

    /// Returns the record stored in `slot`.
    pub fn get(&self, slot: SlotId) -> Result<&[u8]> {
        if slot.0 >= self.slot_count() {
            return Err(Error::corruption(format!("slot {} out of range", slot.0)));
        }
        let (off, len) = self.slot_entry(slot.0);
        if off == DEAD {
            return Err(Error::corruption(format!("slot {} is dead", slot.0)));
        }
        Ok(&self.page.bytes()[off as usize..off as usize + len as usize])
    }

    /// True iff `slot` holds a live record.
    pub fn is_live(&self, slot: SlotId) -> bool {
        slot.0 < self.slot_count() && self.slot_entry(slot.0).0 != DEAD
    }

    /// Deletes the record in `slot` (tombstones the slot; cell space is
    /// reclaimed lazily by compaction).
    pub fn delete(&mut self, slot: SlotId) -> Result<()> {
        let _ = self.get(slot)?;
        let (_, len) = self.slot_entry(slot.0);
        self.set_slot_entry(slot.0, DEAD, 0);
        self.page
            .write_u16(OFF_LIVE_BYTES, (self.live_bytes() - len as usize) as u16);
        Ok(())
    }

    /// Replaces the record in `slot`. Returns `Ok(false)` when the new
    /// record does not fit on this page even after compaction (the caller
    /// must then relocate the record — record ids are not stable across
    /// pages, so the relocation is the owner's policy decision).
    pub fn update(&mut self, slot: SlotId, rec: &[u8]) -> Result<bool> {
        let _ = self.get(slot)?;
        if rec.len() > MAX_RECORD {
            return Err(Error::RecordTooLarge(rec.len()));
        }
        let (off, old_len) = self.slot_entry(slot.0);
        if rec.len() <= old_len as usize {
            // In-place shrink/replace.
            let off = off as usize;
            self.page.bytes_mut()[off..off + rec.len()].copy_from_slice(rec);
            self.set_slot_entry(slot.0, off as u16, rec.len() as u16);
            self.page.write_u16(
                OFF_LIVE_BYTES,
                (self.live_bytes() - old_len as usize + rec.len()) as u16,
            );
            return Ok(true);
        }
        // Grow: free the old cell, then insert into the same slot id.
        let live_after_delete = self.live_bytes() - old_len as usize;
        if rec.len() + live_after_delete + self.slot_count() as usize * SLOT_ENTRY
            > PAGE_SIZE - SLOTS_BASE
        {
            return Ok(false);
        }
        self.set_slot_entry(slot.0, DEAD, 0);
        self.page
            .write_u16(OFF_LIVE_BYTES, live_after_delete as u16);
        if self.contiguous_free() < rec.len() {
            self.compact();
        }
        let off = self.free_end() - rec.len();
        self.page.bytes_mut()[off..off + rec.len()].copy_from_slice(rec);
        self.page.write_u16(OFF_FREE_END, off as u16);
        self.set_slot_entry(slot.0, off as u16, rec.len() as u16);
        self.page
            .write_u16(OFF_LIVE_BYTES, (self.live_bytes() + rec.len()) as u16);
        Ok(true)
    }

    /// Slides all live cells to the end of the page, squeezing out dead
    /// space. Slot ids are untouched.
    pub fn compact(&mut self) {
        let mut live: Vec<(u16, u16, u16)> = (0..self.slot_count())
            .filter_map(|s| {
                let (off, len) = self.slot_entry(s);
                (off != DEAD).then_some((s, off, len))
            })
            .collect();
        // Move highest-offset cells first so cells never overwrite each
        // other while sliding toward the page end.
        live.sort_by_key(|e| std::cmp::Reverse(e.1));
        let mut write_end = PAGE_SIZE;
        for (slot, off, len) in live {
            let new_off = write_end - len as usize;
            self.page
                .bytes_mut()
                .copy_within(off as usize..off as usize + len as usize, new_off);
            self.set_slot_entry(slot, new_off as u16, len);
            write_end = new_off;
        }
        self.page.write_u16(OFF_FREE_END, write_end as u16);
    }
}

/// Read-only view over a slotted page (usable under a shared page latch).
pub struct SlottedRef<'a> {
    page: &'a Page,
}

impl<'a> SlottedRef<'a> {
    /// Wraps an existing slotted page for reading.
    pub fn attach(page: &'a Page) -> Result<SlottedRef<'a>> {
        match page.kind()? {
            PageKind::Slotted => Ok(SlottedRef { page }),
            k => Err(Error::corruption(format!(
                "expected slotted page, found {k:?}"
            ))),
        }
    }

    fn slot_count(&self) -> u16 {
        self.page.read_u16(OFF_SLOT_COUNT)
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let base = SLOTS_BASE + slot as usize * SLOT_ENTRY;
        (self.page.read_u16(base), self.page.read_u16(base + 2))
    }

    /// Returns the record stored in `slot`.
    pub fn get(&self, slot: SlotId) -> Result<&'a [u8]> {
        if slot.0 >= self.slot_count() {
            return Err(Error::corruption(format!("slot {} out of range", slot.0)));
        }
        let (off, len) = self.slot_entry(slot.0);
        if off == DEAD {
            return Err(Error::corruption(format!("slot {} is dead", slot.0)));
        }
        Ok(&self.page.bytes()[off as usize..off as usize + len as usize])
    }

    /// True iff `slot` holds a live record.
    pub fn is_live(&self, slot: SlotId) -> bool {
        slot.0 < self.slot_count() && self.slot_entry(slot.0).0 != DEAD
    }

    /// Iterates live `(slot, record bytes)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &'a [u8])> + '_ {
        let page = self.page;
        (0..self.slot_count()).filter_map(move |s| {
            let base = SLOTS_BASE + s as usize * SLOT_ENTRY;
            let off = page.read_u16(base);
            let len = page.read_u16(base + 2);
            if off == DEAD {
                None
            } else {
                Some((
                    SlotId(s),
                    &page.bytes()[off as usize..off as usize + len as usize],
                ))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Page {
        let mut p = Page::new(PageKind::Free);
        SlottedPage::init(&mut p);
        p
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p).unwrap();
        let a = sp.insert(b"hello").unwrap().unwrap();
        let b = sp.insert(b"world!!").unwrap().unwrap();
        assert_eq!(sp.get(a).unwrap(), b"hello");
        assert_eq!(sp.get(b).unwrap(), b"world!!");
    }

    #[test]
    fn delete_reuses_slot() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p).unwrap();
        let a = sp.insert(b"aaa").unwrap().unwrap();
        let _b = sp.insert(b"bbb").unwrap().unwrap();
        sp.delete(a).unwrap();
        assert!(!sp.is_live(a));
        assert!(sp.get(a).is_err());
        let c = sp.insert(b"ccc").unwrap().unwrap();
        assert_eq!(c, a, "dead slot id should be reused");
        assert_eq!(sp.get(c).unwrap(), b"ccc");
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p).unwrap();
        let a = sp.insert(b"0123456789").unwrap().unwrap();
        // shrink
        assert!(sp.update(a, b"xyz").unwrap());
        assert_eq!(sp.get(a).unwrap(), b"xyz");
        // grow
        assert!(sp.update(a, b"a much longer record").unwrap());
        assert_eq!(sp.get(a).unwrap(), b"a much longer record");
    }

    #[test]
    fn fills_page_and_reports_full() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p).unwrap();
        let rec = vec![7u8; 100];
        let mut n = 0;
        while let Some(_s) = sp.insert(&rec).unwrap() {
            n += 1;
        }
        // 100-byte cells + 4-byte slots: ~78 records on an 8 KiB page.
        assert!(n > 70, "only {n} records fit");
        assert!(!sp.can_fit(100));
        assert!(sp.can_fit(1)); // tiny records still fit
    }

    #[test]
    fn compaction_recovers_dead_space() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p).unwrap();
        let rec = vec![1u8; 1000];
        let mut slots = Vec::new();
        while let Some(s) = sp.insert(&rec).unwrap() {
            slots.push(s);
        }
        // Delete every other record -> fragmented free space.
        for s in slots.iter().step_by(2) {
            sp.delete(*s).unwrap();
        }
        // A 1500-byte record only fits after compaction.
        let big = vec![2u8; 1500];
        let s = sp.insert(&big).unwrap().expect("fits after compaction");
        assert_eq!(sp.get(s).unwrap(), big.as_slice());
        // Remaining original records are intact.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(sp.get(*s).unwrap(), rec.as_slice());
        }
    }

    #[test]
    fn rejects_oversized_record() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p).unwrap();
        let huge = vec![0u8; MAX_RECORD + 1];
        assert!(matches!(sp.insert(&huge), Err(Error::RecordTooLarge(_))));
        let max = vec![0u8; MAX_RECORD];
        assert!(sp.insert(&max).unwrap().is_some());
    }

    #[test]
    fn iter_skips_dead() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p).unwrap();
        let a = sp.insert(b"a").unwrap().unwrap();
        let b = sp.insert(b"b").unwrap().unwrap();
        let c = sp.insert(b"c").unwrap().unwrap();
        sp.delete(b).unwrap();
        let live: Vec<(SlotId, Vec<u8>)> = sp.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(live, vec![(a, b"a".to_vec()), (c, b"c".to_vec())]);
    }

    #[test]
    fn slot_array_growth_into_fragmented_gap() {
        // Regression: fill the page, shrink records in place so total_free
        // grows while the contiguous gap between slot array and cells stays
        // 0, then insert — the new slot entry must not overrun cell data.
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p).unwrap();
        let rec = vec![3u8; 200];
        let mut slots = Vec::new();
        while let Some(s) = sp.insert(&rec).unwrap() {
            slots.push(s);
        }
        // Shrink every record in place: frees cell bytes while leaving the
        // contiguous gap tiny and fragmented.
        for s in &slots {
            assert!(sp.update(*s, &rec[..100]).unwrap());
        }
        // Insert small records until the page refuses.
        let small = vec![9u8; 50];
        let mut added = Vec::new();
        while let Some(s) = sp.insert(&small).unwrap() {
            added.push(s);
            if added.len() > 500 {
                break;
            }
        }
        assert!(!added.is_empty());
        // Every record still intact.
        for s in &slots {
            assert_eq!(sp.get(*s).unwrap(), &rec[..100]);
        }
        for s in &added {
            assert_eq!(sp.get(*s).unwrap(), small.as_slice());
        }
    }

    #[test]
    fn attach_rejects_wrong_kind() {
        let mut p = Page::new(PageKind::Meta);
        assert!(SlottedPage::attach(&mut p).is_err());
    }
}
