//! Tiered storage: immutable, compressed, checksummed segment files of
//! closed history.
//!
//! A segment holds closed (`tt.end != FOREVER`) atom versions migrated out
//! of the hot heaps by the background compactor. The file is page-based
//! (every page carries the standard crc32c header and is read through the
//! buffer pool, so segment I/O shows up in page accounting exactly like
//! heap I/O):
//!
//! ```text
//! page 0            meta: magic, format, type id, segment no,
//!                   block-region length, footer length, footer crc32c
//! pages 1..n        a byte stream laid across the page bodies:
//!                   [compressed blocks][footer]
//! ```
//!
//! The stream is a sequence of **blocks** — each an LZSS-compressed,
//! crc32c-checksummed batch of encoded versions covering a contiguous
//! atom-number range — followed by a **footer** listing one
//! [`BlockFence`] per block (atom-number range, min/max transaction time,
//! min/max valid time, offsets, checksum) plus segment-global fences.
//! Readers cache the footer; a time-slice or per-atom read consults the
//! fences and decompresses only admitted blocks, and whole segments whose
//! global fence excludes the query are *skipped* without touching their
//! data pages — the effect E21 measures.
//!
//! Segments are write-once: the compactor builds the complete file, syncs
//! it, and publishes it with an atomic rename. Nothing in this module
//! mutates an existing segment.

use crate::record::AtomVersion;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, RwLock};
use tcom_kernel::codec::{crc32c, Decoder, Encoder};
use tcom_kernel::{AtomNo, Error, Result, TimePoint};
use tcom_obs::Counter;
use tcom_storage::buffer::{BufferPool, FileId};
use tcom_storage::disk::DiskManager;
use tcom_storage::page::{Page, PageKind, PAGE_HEADER_LEN, PAGE_SIZE};
use tcom_storage::vfs::Vfs;

/// Magic number of segment files ("TCOMSEG1" little-endian).
const SEGMENT_MAGIC: u64 = 0x3147_4553_4D4F_4354;
/// Segment format version.
const SEGMENT_FORMAT: u32 = 1;
/// Usable bytes per page (body after the checksummed header).
const BODY_LEN: usize = PAGE_SIZE - PAGE_HEADER_LEN;
/// Target versions per block; blocks cut at atom boundaries.
const BLOCK_TARGET: usize = 256;

// ------------------------------------------------------------------ LZSS

/// Shortest match worth encoding.
const MIN_MATCH: usize = 4;
/// Longest encodable match (`0x7F + MIN_MATCH`).
const MAX_MATCH: usize = 131;
/// Longest encodable back-reference distance.
const MAX_DIST: usize = 65_535;
/// Longest literal run per control byte.
const MAX_LIT: usize = 127;
/// Positions remembered per 4-byte prefix.
const CHAIN_CAP: usize = 16;

fn push_literals(out: &mut Vec<u8>, mut lits: &[u8]) {
    while !lits.is_empty() {
        let n = lits.len().min(MAX_LIT);
        out.push(n as u8);
        out.extend_from_slice(&lits[..n]);
        lits = &lits[n..];
    }
}

/// Compresses `src` with a byte-oriented LZSS coder.
///
/// Token stream: a control byte `1..=127` introduces that many literal
/// bytes; a control byte `>= 0x80` encodes a match of length
/// `(c & 0x7F) + 4` at a little-endian `u16` distance that follows.
/// Control byte `0` never occurs. The output is self-delimiting only
/// together with the uncompressed length, which the caller stores.
fn lzss_compress(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2 + 16);
    let mut table: HashMap<[u8; 4], Vec<u32>> = HashMap::new();
    let remember = |table: &mut HashMap<[u8; 4], Vec<u32>>, src: &[u8], at: usize| {
        if at + MIN_MATCH <= src.len() {
            let key = [src[at], src[at + 1], src[at + 2], src[at + 3]];
            let chain = table.entry(key).or_default();
            if chain.len() == CHAIN_CAP {
                chain.remove(0);
            }
            chain.push(at as u32);
        }
    };
    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i < src.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= src.len() {
            let key = [src[i], src[i + 1], src[i + 2], src[i + 3]];
            if let Some(chain) = table.get(&key) {
                let cap = (src.len() - i).min(MAX_MATCH);
                for &pos in chain.iter().rev() {
                    let pos = pos as usize;
                    let dist = i - pos;
                    if dist > MAX_DIST {
                        continue;
                    }
                    let mut l = 0usize;
                    while l < cap && src[pos + l] == src[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l == cap {
                            break;
                        }
                    }
                }
            }
        }
        if best_len >= MIN_MATCH {
            push_literals(&mut out, &src[lit_start..i]);
            out.push(0x80 | (best_len - MIN_MATCH) as u8);
            out.extend_from_slice(&(best_dist as u16).to_le_bytes());
            let end = i + best_len;
            while i < end {
                remember(&mut table, src, i);
                i += 1;
            }
            lit_start = i;
        } else {
            remember(&mut table, src, i);
            i += 1;
        }
    }
    push_literals(&mut out, &src[lit_start..]);
    out
}

/// Decompresses an [`lzss_compress`] stream to exactly `raw_len` bytes.
///
/// Every malformation — zero control byte, zero or out-of-window
/// distance, output overrun or underrun, truncated token — is a clean
/// [`Error::Corruption`]; the function never panics on any input.
fn lzss_decompress(src: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(raw_len);
    let mut i = 0usize;
    while i < src.len() {
        let c = src[i];
        i += 1;
        if c == 0 {
            return Err(Error::corruption("zero LZSS control byte"));
        }
        if c < 0x80 {
            let n = c as usize;
            if i + n > src.len() {
                return Err(Error::corruption("truncated LZSS literal run"));
            }
            if out.len() + n > raw_len {
                return Err(Error::corruption("LZSS output exceeds declared length"));
            }
            out.extend_from_slice(&src[i..i + n]);
            i += n;
        } else {
            let len = (c & 0x7F) as usize + MIN_MATCH;
            if i + 2 > src.len() {
                return Err(Error::corruption("truncated LZSS match token"));
            }
            let dist = u16::from_le_bytes([src[i], src[i + 1]]) as usize;
            i += 2;
            if dist == 0 || dist > out.len() {
                return Err(Error::corruption("LZSS distance outside window"));
            }
            if out.len() + len > raw_len {
                return Err(Error::corruption("LZSS output exceeds declared length"));
            }
            // Byte-at-a-time keeps overlapping copies (dist < len) correct.
            let start = out.len() - dist;
            for j in start..start + len {
                let b = out[j];
                out.push(b);
            }
        }
    }
    if out.len() != raw_len {
        return Err(Error::corruption(format!(
            "LZSS output length {} != declared {raw_len}",
            out.len()
        )));
    }
    Ok(out)
}

// ------------------------------------------------------- block + footer

/// Per-block interval fences and location, stored in the footer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct BlockFence {
    /// Smallest atom number in the block.
    pub atom_min: u64,
    /// Largest atom number in the block.
    pub atom_max: u64,
    /// Minimum `tt.start` over the block's versions.
    pub tt_min: TimePoint,
    /// Maximum `tt.end` over the block's versions (all closed, so finite).
    pub tt_max: TimePoint,
    /// Minimum `vt.start`.
    pub vt_min: TimePoint,
    /// Maximum `vt.end` (may be `FOREVER` for open-ended valid time).
    pub vt_max: TimePoint,
    /// Byte offset of the compressed block in the segment stream.
    pub offset: u64,
    /// Uncompressed block length in bytes.
    pub raw_len: u32,
    /// Compressed block length in bytes.
    pub comp_len: u32,
    /// crc32c of the *uncompressed* block bytes.
    pub crc: u32,
    /// Versions in the block.
    pub count: u32,
}

impl BlockFence {
    /// True iff a version visible at transaction time `tt` may be in this
    /// block. `FOREVER` (current state) never admits: blocks hold closed
    /// versions only.
    fn admits_tt(&self, tt: TimePoint) -> bool {
        !tt.is_forever() && self.tt_min <= tt && tt < self.tt_max
    }

    /// True iff atom `no` may have versions in this block.
    fn admits_atom(&self, no: AtomNo) -> bool {
        self.atom_min <= no.0 && no.0 <= self.atom_max
    }
}

/// Segment-global summary: fences over all blocks plus size totals.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SegmentFooter {
    /// One fence per block, in stream order (ascending atom ranges).
    pub(crate) blocks: Vec<BlockFence>,
    /// Total versions across all blocks.
    pub(crate) versions: u64,
    /// Total uncompressed bytes across all blocks.
    pub(crate) raw_bytes: u64,
    /// Total compressed bytes across all blocks.
    pub(crate) comp_bytes: u64,
}

impl SegmentFooter {
    /// Global minimum `tt.start` (or `FOREVER` when empty).
    pub fn tt_min(&self) -> TimePoint {
        self.blocks
            .iter()
            .map(|b| b.tt_min)
            .min()
            .unwrap_or(TimePoint::FOREVER)
    }

    /// Global maximum `tt.end` (or `MIN` when empty).
    pub fn tt_max(&self) -> TimePoint {
        self.blocks
            .iter()
            .map(|b| b.tt_max)
            .max()
            .unwrap_or(TimePoint::MIN)
    }

    /// True iff a version visible at `tt` may be anywhere in the segment.
    fn admits_tt(&self, tt: TimePoint) -> bool {
        !tt.is_forever() && self.tt_min() <= tt && tt < self.tt_max()
    }

    /// True iff atom `no` may have versions anywhere in the segment.
    fn admits_atom(&self, no: AtomNo) -> bool {
        self.blocks.iter().any(|b| b.admits_atom(no))
    }

    /// Encodes the footer (without its trailing crc — the meta page holds
    /// that).
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(64 + self.blocks.len() * 64);
        e.put_u64(self.versions);
        e.put_u64(self.raw_bytes);
        e.put_u64(self.comp_bytes);
        e.put_u64(self.blocks.len() as u64);
        for b in &self.blocks {
            e.put_u64(b.atom_min);
            e.put_u64(b.atom_max);
            e.put_time(b.tt_min);
            e.put_time(b.tt_max);
            e.put_time(b.vt_min);
            e.put_time(b.vt_max);
            e.put_u64(b.offset);
            e.put_u64(b.raw_len as u64);
            e.put_u64(b.comp_len as u64);
            e.put_u64(b.crc as u64);
            e.put_u64(b.count as u64);
        }
        e.finish()
    }

    /// Decodes a footer, rejecting truncation and trailing bytes.
    fn decode(bytes: &[u8]) -> Result<SegmentFooter> {
        let mut d = Decoder::new(bytes);
        let versions = d.get_u64()?;
        let raw_bytes = d.get_u64()?;
        let comp_bytes = d.get_u64()?;
        let n = d.get_u64()? as usize;
        if n > d.remaining() {
            return Err(Error::corruption(
                "segment footer block count exceeds buffer",
            ));
        }
        let mut blocks = Vec::with_capacity(n);
        for _ in 0..n {
            blocks.push(BlockFence {
                atom_min: d.get_u64()?,
                atom_max: d.get_u64()?,
                tt_min: d.get_time()?,
                tt_max: d.get_time()?,
                vt_min: d.get_time()?,
                vt_max: d.get_time()?,
                offset: d.get_u64()?,
                raw_len: d.get_u64()? as u32,
                comp_len: d.get_u64()? as u32,
                crc: d.get_u64()? as u32,
                count: d.get_u64()? as u32,
            });
        }
        if !d.is_exhausted() {
            return Err(Error::corruption("trailing bytes in segment footer"));
        }
        Ok(SegmentFooter {
            blocks,
            versions,
            raw_bytes,
            comp_bytes,
        })
    }
}

/// Encodes one block's versions to the uncompressed byte form.
///
/// Entries are `(atom number, version)` and must already be in segment
/// order (ascending atom number, then `tt.start`, `vt.start`, `tt.end`).
fn encode_block(entries: &[(u64, AtomVersion)]) -> Vec<u8> {
    let mut e = Encoder::with_capacity(entries.len() * 64);
    e.put_u64(entries.len() as u64);
    for (no, v) in entries {
        e.put_u64(*no);
        e.put_interval(&v.vt);
        e.put_interval(&v.tt);
        e.put_tuple(&v.tuple);
    }
    e.finish()
}

/// Decodes a block produced by [`encode_block`].
fn decode_block(bytes: &[u8]) -> Result<Vec<(u64, AtomVersion)>> {
    let mut d = Decoder::new(bytes);
    let n = d.get_u64()? as usize;
    if n > d.remaining() {
        return Err(Error::corruption("segment block count exceeds buffer"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let no = d.get_u64()?;
        let vt = d.get_interval()?;
        let tt = d.get_interval()?;
        let tuple = d.get_tuple()?;
        out.push((no, AtomVersion { vt, tt, tuple }));
    }
    if !d.is_exhausted() {
        return Err(Error::corruption("trailing bytes in segment block"));
    }
    Ok(out)
}

/// Builds the complete segment byte stream (blocks then footer) from the
/// archived versions, plus the footer. Exposed separately from file I/O so
/// property tests can round-trip the codec in memory.
fn build_segment_stream(versions: &[(u64, AtomVersion)]) -> (Vec<u8>, SegmentFooter) {
    // Deterministic segment order: ascending atom, then recording order.
    let mut by_atom: BTreeMap<u64, Vec<AtomVersion>> = BTreeMap::new();
    for (no, v) in versions {
        by_atom.entry(*no).or_default().push(v.clone());
    }
    for vs in by_atom.values_mut() {
        vs.sort_by(|a, b| {
            a.tt.start()
                .cmp(&b.tt.start())
                .then(a.vt.start().cmp(&b.vt.start()))
                .then(a.tt.end().cmp(&b.tt.end()))
        });
    }
    let mut stream = Vec::new();
    let mut footer = SegmentFooter::default();
    let mut pending: Vec<(u64, AtomVersion)> = Vec::new();
    let flush = |pending: &mut Vec<(u64, AtomVersion)>,
                 stream: &mut Vec<u8>,
                 footer: &mut SegmentFooter| {
        if pending.is_empty() {
            return;
        }
        let raw = encode_block(pending);
        let comp = lzss_compress(&raw);
        let fence = BlockFence {
            atom_min: pending.first().map(|(n, _)| *n).unwrap_or(0),
            atom_max: pending.last().map(|(n, _)| *n).unwrap_or(0),
            tt_min: pending.iter().map(|(_, v)| v.tt.start()).min().unwrap(),
            tt_max: pending.iter().map(|(_, v)| v.tt.end()).max().unwrap(),
            vt_min: pending.iter().map(|(_, v)| v.vt.start()).min().unwrap(),
            vt_max: pending.iter().map(|(_, v)| v.vt.end()).max().unwrap(),
            offset: stream.len() as u64,
            raw_len: raw.len() as u32,
            comp_len: comp.len() as u32,
            crc: crc32c(&raw),
            count: pending.len() as u32,
        };
        footer.versions += fence.count as u64;
        footer.raw_bytes += raw.len() as u64;
        footer.comp_bytes += comp.len() as u64;
        footer.blocks.push(fence);
        stream.extend_from_slice(&comp);
        pending.clear();
    };
    for (no, vs) in by_atom {
        for v in vs {
            pending.push((no, v));
        }
        if pending.len() >= BLOCK_TARGET {
            flush(&mut pending, &mut stream, &mut footer);
        }
    }
    flush(&mut pending, &mut stream, &mut footer);
    (stream, footer)
}

// ------------------------------------------------------------ file I/O

/// Writes a complete segment file at `path` through `vfs` and syncs it.
///
/// The caller owns publication: write to a temp name, then
/// [`Vfs::rename`] to the live name *after* this returns — the rename is
/// the only operation that makes the segment reachable.
pub fn write_segment_file(
    vfs: &dyn Vfs,
    path: &Path,
    ty: u32,
    seg: u64,
    versions: &[(u64, AtomVersion)],
) -> Result<SegmentFooter> {
    let (mut stream, footer) = build_segment_stream(versions);
    let footer_bytes = footer.encode();
    let footer_crc = crc32c(&footer_bytes);
    let stream_len = stream.len() as u64;
    stream.extend_from_slice(&footer_bytes);

    if vfs.exists(path) {
        vfs.remove(path)?; // stale temp from an earlier crash
    }
    let dm = DiskManager::open_with(vfs, path)?;
    // Page 0: meta.
    let pid0 = dm.allocate_page()?;
    let mut meta = Page::new(PageKind::Meta);
    {
        let body_base = PAGE_HEADER_LEN;
        meta.write_u64(body_base, SEGMENT_MAGIC);
        meta.write_u32(body_base + 8, SEGMENT_FORMAT);
        meta.write_u32(body_base + 12, ty);
        meta.write_u64(body_base + 16, seg);
        meta.write_u64(body_base + 24, stream_len);
        meta.write_u64(body_base + 32, footer_bytes.len() as u64);
        meta.write_u32(body_base + 40, footer_crc);
    }
    dm.write_page(pid0, &mut meta)?;
    // Pages 1..: the stream across page bodies.
    for chunk in stream.chunks(BODY_LEN) {
        let pid = dm.allocate_page()?;
        let mut page = Page::new(PageKind::Segment);
        page.body_mut()[..chunk.len()].copy_from_slice(chunk);
        dm.write_page(pid, &mut page)?;
    }
    dm.sync()?;
    Ok(footer)
}

// -------------------------------------------------------------- reader

/// An open, immutable segment: cached footer plus pool-backed block reads.
pub struct Segment {
    pool: Arc<BufferPool>,
    file: FileId,
    /// Atom type this segment belongs to.
    pub ty: u32,
    /// Segment sequence number within the type.
    pub seg: u64,
    footer: SegmentFooter,
}

impl Segment {
    /// Opens a segment file already registered with the pool, verifying
    /// magic, format, identity and the footer checksum.
    pub fn open(pool: Arc<BufferPool>, file: FileId, ty: u32, seg: u64) -> Result<Segment> {
        let (stream_len, footer_len, footer_crc, got_ty, got_seg) = {
            let page = pool.fetch_read(file, tcom_kernel::PageId(0))?;
            let base = PAGE_HEADER_LEN;
            let magic = page.read_u64(base);
            if magic != SEGMENT_MAGIC {
                return Err(Error::corruption(format!(
                    "bad segment magic {magic:#018x}"
                )));
            }
            let format = page.read_u32(base + 8);
            if format != SEGMENT_FORMAT {
                return Err(Error::corruption(format!(
                    "unsupported segment format {format}"
                )));
            }
            (
                page.read_u64(base + 24),
                page.read_u64(base + 32),
                page.read_u32(base + 40),
                page.read_u32(base + 12),
                page.read_u64(base + 16),
            )
        };
        if got_ty != ty || got_seg != seg {
            return Err(Error::corruption(format!(
                "segment identity mismatch: file says type {got_ty} seg {got_seg}, \
                 expected type {ty} seg {seg}"
            )));
        }
        let s = Segment {
            pool,
            file,
            ty,
            seg,
            footer: SegmentFooter::default(),
        };
        let footer_bytes = s.read_stream(stream_len, footer_len as usize)?;
        if crc32c(&footer_bytes) != footer_crc {
            return Err(Error::corruption("segment footer checksum mismatch"));
        }
        let footer = SegmentFooter::decode(&footer_bytes)?;
        Ok(Segment { footer, ..s })
    }

    /// The cached footer (fences and totals).
    pub fn footer(&self) -> &SegmentFooter {
        &self.footer
    }

    /// Total pages of the segment file (meta + data) — the unit the cost
    /// model prices.
    pub fn pages(&self) -> u64 {
        self.pool.file_page_count(self.file) as u64
    }

    /// Reads `len` stream bytes starting at stream offset `off` through
    /// the buffer pool.
    fn read_stream(&self, off: u64, len: usize) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(len);
        let mut off = off as usize;
        let mut rest = len;
        while rest > 0 {
            let page_no = 1 + (off / BODY_LEN) as u32;
            let in_page = off % BODY_LEN;
            let take = rest.min(BODY_LEN - in_page);
            let page = self
                .pool
                .fetch_read(self.file, tcom_kernel::PageId(page_no))?;
            out.extend_from_slice(&page.body()[in_page..in_page + take]);
            off += take;
            rest -= take;
        }
        Ok(out)
    }

    /// Reads, checksums and decodes one block.
    fn read_block(&self, fence: &BlockFence) -> Result<Vec<(u64, AtomVersion)>> {
        let comp = self.read_stream(fence.offset, fence.comp_len as usize)?;
        let raw = lzss_decompress(&comp, fence.raw_len as usize)?;
        if crc32c(&raw) != fence.crc {
            return Err(Error::corruption(format!(
                "segment {} block at {} checksum mismatch",
                self.seg, fence.offset
            )));
        }
        decode_block(&raw)
    }

    /// Appends every archived version of atom `no` to `out`.
    fn versions_for(&self, no: AtomNo, out: &mut Vec<AtomVersion>) -> Result<()> {
        for fence in &self.footer.blocks {
            if !fence.admits_atom(no) {
                continue;
            }
            for (n, v) in self.read_block(fence)? {
                if n == no.0 {
                    out.push(v);
                }
            }
        }
        Ok(())
    }

    /// Adds the versions visible at transaction time `tt`, grouped by atom
    /// number, to `groups`.
    pub(crate) fn slice_into(
        &self,
        tt: TimePoint,
        groups: &mut BTreeMap<u64, Vec<AtomVersion>>,
    ) -> Result<()> {
        for fence in &self.footer.blocks {
            if !fence.admits_tt(tt) {
                continue;
            }
            for (n, v) in self.read_block(fence)? {
                if v.tt.contains(tt) {
                    groups.entry(n).or_default().push(v);
                }
            }
        }
        Ok(())
    }
}

// --------------------------------------------------------- segment set

/// Aggregate size/shape statistics over a store's segments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentSetStats {
    /// Live segments.
    pub segments: u64,
    /// Total segment file pages.
    pub pages: u64,
    /// Versions archived across all segments.
    pub versions: u64,
    /// Uncompressed payload bytes.
    pub raw_bytes: u64,
    /// Compressed payload bytes.
    pub comp_bytes: u64,
}

/// The live segments of one store, plus skip/read accounting.
///
/// Stores hold this behind an `Arc` from construction; the engine adds
/// segments after recovery and the compactor adds them as it publishes —
/// readers always see a consistent snapshot of the list.
#[derive(Default)]
pub struct SegmentSet {
    segs: RwLock<Vec<Arc<Segment>>>,
    /// Segments whose fences admitted a query (data pages touched).
    pub reads: Counter,
    /// Segments skipped entirely on their fences.
    pub skips: Counter,
}

impl SegmentSet {
    /// An empty set.
    pub fn new() -> Arc<SegmentSet> {
        Arc::new(SegmentSet::default())
    }

    /// Publishes a segment (called with the store quiesced).
    pub fn add(&self, seg: Arc<Segment>) {
        self.segs.write().unwrap().push(seg);
    }

    /// Snapshot of the live segments.
    pub fn list(&self) -> Vec<Arc<Segment>> {
        self.segs.read().unwrap().clone()
    }

    /// Number of live segments.
    pub fn len(&self) -> usize {
        self.segs.read().unwrap().len()
    }

    /// True when no segments are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest live segment sequence number, if any.
    pub fn max_seg_no(&self) -> Option<u64> {
        self.segs.read().unwrap().iter().map(|s| s.seg).max()
    }

    /// Aggregate statistics (footers are cached; this touches no pages).
    pub fn stats(&self) -> SegmentSetStats {
        let segs = self.segs.read().unwrap();
        let mut st = SegmentSetStats {
            segments: segs.len() as u64,
            ..SegmentSetStats::default()
        };
        for s in segs.iter() {
            st.pages += s.pages();
            st.versions += s.footer().versions;
            st.raw_bytes += s.footer().raw_bytes;
            st.comp_bytes += s.footer().comp_bytes;
        }
        st
    }

    /// `(reads, skips)` counter snapshot — EXPLAIN ANALYZE diffs these
    /// around a statement.
    pub fn counters(&self) -> (u64, u64) {
        (self.reads.get(), self.skips.get())
    }

    /// Appends every archived version of `no` across all segments
    /// (history reads ignore tt fences but still skip on atom fences).
    pub(crate) fn history_for(&self, no: AtomNo, out: &mut Vec<AtomVersion>) -> Result<()> {
        for seg in self.list() {
            if seg.footer().admits_atom(no) {
                self.reads.inc();
                seg.versions_for(no, out)?;
            } else {
                self.skips.inc();
            }
        }
        Ok(())
    }

    /// Appends the archived versions of `no` visible at `tt`. A `FOREVER`
    /// slice (current state) touches no segment at all.
    pub(crate) fn versions_at_for(
        &self,
        no: AtomNo,
        tt: TimePoint,
        out: &mut Vec<AtomVersion>,
    ) -> Result<()> {
        if tt.is_forever() {
            return Ok(());
        }
        let mut found = Vec::new();
        for seg in self.list() {
            if seg.footer().admits_tt(tt) && seg.footer().admits_atom(no) {
                self.reads.inc();
                seg.versions_for(no, &mut found)?;
            } else {
                self.skips.inc();
            }
        }
        out.extend(found.into_iter().filter(|v| v.tt.contains(tt)));
        Ok(())
    }

    /// Adds segment versions visible at `tt`, grouped by atom, to `groups`.
    pub(crate) fn slice_into(
        &self,
        tt: TimePoint,
        groups: &mut BTreeMap<u64, Vec<AtomVersion>>,
    ) -> Result<()> {
        if tt.is_forever() {
            return Ok(());
        }
        for seg in self.list() {
            if seg.footer().admits_tt(tt) {
                self.reads.inc();
                seg.slice_into(tt, groups)?;
            } else {
                self.skips.inc();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;
