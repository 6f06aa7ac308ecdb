//! The control file: the one record of what a database directory holds
//! beside its store files and its log. Every flush journals it beside the
//! dirty pages, so it always describes exactly the store files on disk;
//! `Database::open` reads it, then makes its one WAL pass from the WAL
//! watermark it names. The record spans as
//! many sealed [`PageKind::Meta`] pages as it needs: page 0's body starts
//! with the record's length and CRC, and pages past the record (an
//! earlier, longer image leaves them) are ignored.

use std::path::Path;
use std::sync::Arc;
use tcom_catalog::Catalog;
use tcom_kernel::codec::{crc32c, Decoder, Encoder};
use tcom_kernel::{AtomTypeId, Error, Lsn, Result, TimePoint};
use tcom_storage::page::{Page, PageKind, PAGE_HEADER_LEN, PAGE_SIZE};
use tcom_storage::vfs::{Vfs, VfsFile};
use tcom_version::StoreKind;

/// The control file's name in the database directory.
pub(crate) const CONTROL_FILE: &str = "control.tcm";

/// Bytes of page 0's body ahead of the record: its length and CRC.
const HEAD: usize = 8;
/// Store kinds by their tag in the record's low nibble.
const KINDS: [StoreKind; 3] = [StoreKind::Chain, StoreKind::Delta, StoreKind::Split];
/// The directory format, in the kind tag's high nibble: 1 counts current
/// versions in value-index payloads, where 0 stored atom numbers; 2 logs
/// to WAL segments in one LSN space and records the WAL watermark here.
const FORMAT: u8 = 2;

/// The control state of a directory, as of one flush.
pub(crate) struct Control {
    /// The layout every store of the directory uses.
    pub kind: StoreKind,
    /// The flush watermark: the store files hold exactly the commits with
    /// `tt <= published`.
    pub published: TimePoint,
    /// The WAL watermark: the first LSN of the segment recovery starts
    /// at. The log from there holds every commit the store files lack.
    pub wal_start: Lsn,
    /// The first LSNs of the WAL segments below `wal_start` a checkpoint
    /// retired, for an open to remove should a crash have kept them.
    pub wal_retired: Vec<Lsn>,
    /// Per atom type, the next atom number to allocate.
    pub next_atom_nos: Vec<(u32, u64)>,
    /// The live `(type, segment)`s, each once.
    pub segments: Vec<(u32, u64)>,
    pub catalog: Catalog,
}

impl Control {
    /// The record as sealed pages, concatenated.
    pub fn image(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        let kind = KINDS
            .iter()
            .position(|k| *k == self.kind)
            .expect("known kind");
        e.put_u8(FORMAT << 4 | kind as u8);
        e.put_time(self.published);
        e.put_u64(self.wal_start.0);
        e.put_u64(self.wal_retired.len() as u64);
        for lsn in &self.wal_retired {
            e.put_u64(lsn.0);
        }
        for pairs in [&self.next_atom_nos, &self.segments] {
            e.put_u64(pairs.len() as u64);
            for &(ty, n) in pairs {
                e.put_u64(ty as u64);
                e.put_u64(n);
            }
        }
        e.put_bytes(&self.catalog.encode());
        let rec = e.finish();
        let mut payload = (rec.len() as u32).to_le_bytes().to_vec();
        payload.extend_from_slice(&crc32c(&rec).to_le_bytes());
        payload.extend_from_slice(&rec);
        let mut image = Vec::new();
        for chunk in payload.chunks(PAGE_SIZE - PAGE_HEADER_LEN) {
            let mut page = Page::new(PageKind::Meta);
            page.body_mut()[..chunk.len()].copy_from_slice(chunk);
            page.seal();
            image.extend_from_slice(page.bytes());
        }
        image
    }

    /// Decodes an [`Control::image`]; any damage is a `Corruption` naming
    /// the control file.
    pub fn from_image(image: &[u8]) -> Result<Control> {
        decode_image(image).map_err(|e| {
            let what = match e {
                Error::Corruption(m) => m,
                other => other.to_string(),
            };
            Error::corruption(format!("{CONTROL_FILE}: {what}"))
        })
    }
}

fn decode_image(image: &[u8]) -> Result<Control> {
    let (mut payload, mut end) = (Vec::new(), HEAD);
    for bytes in image.chunks_exact(PAGE_SIZE) {
        let page = Page::from_bytes(Box::new(bytes.try_into().expect("one page")));
        page.verify()?;
        if page.kind()? != PageKind::Meta {
            return Err(Error::corruption("a page of another kind"));
        }
        if payload.is_empty() {
            end = HEAD + u32::from_le_bytes(page.body()[..4].try_into().expect("4 bytes")) as usize;
        }
        payload.extend_from_slice(page.body());
        if payload.len() >= end {
            break;
        }
    }
    if payload.len() < end {
        return Err(Error::corruption("the record runs past the last page"));
    }
    let rec = &payload[HEAD..end];
    if crc32c(rec).to_le_bytes() != payload[4..HEAD] {
        return Err(Error::corruption("record checksum mismatch"));
    }
    let mut d = Decoder::new(rec);
    let tag = d.get_u8()?;
    if tag >> 4 != FORMAT {
        let why = match tag >> 4 {
            0 => "value indexes before format 1 predate counts",
            1 => "format 1 logs to one wal.log truncated into epochs, before WAL segments",
            _ => "this version does not know it",
        };
        return Err(Error::corruption(format!(
            "format {} is not {FORMAT}: {why}",
            tag >> 4
        )));
    }
    let kind = *KINDS
        .get((tag & 0xf) as usize)
        .ok_or_else(|| Error::corruption("unknown store kind"))?;
    let published = d.get_time()?;
    let wal_start = Lsn(d.get_u64()?);
    let n = d.get_u64()? as usize;
    if n > d.remaining() {
        return Err(Error::corruption(
            "retired WAL segment list exceeds the record",
        ));
    }
    let wal_retired = (0..n)
        .map(|_| d.get_u64().map(Lsn))
        .collect::<Result<Vec<Lsn>>>()?;
    if wal_retired.iter().any(|l| *l >= wal_start) {
        return Err(Error::corruption(
            "a retired WAL segment lies at or past the WAL watermark",
        ));
    }
    let next_atom_nos = decode_pairs(&mut d, "allocator")?;
    let segments = decode_pairs(&mut d, "segment")?;
    let catalog = Catalog::decode(d.get_bytes()?)?;
    if !d.is_exhausted() {
        return Err(Error::corruption("trailing bytes after the record"));
    }
    for (i, &(ty, seg)) in segments.iter().enumerate() {
        if segments[..i].contains(&(ty, seg)) || catalog.atom_type(AtomTypeId(ty)).is_err() {
            return Err(Error::corruption(format!(
                "segment {seg} of atom type #{ty} is listed twice or for an unknown type"
            )));
        }
    }
    Ok(Control {
        kind,
        published,
        wal_start,
        wal_retired,
        next_atom_nos,
        segments,
        catalog,
    })
}

/// A count-prefixed list of `(atom type, n)` pairs. A type number past
/// `u32` is damage, never wrapped onto a real type.
fn decode_pairs(d: &mut Decoder, what: &str) -> Result<Vec<(u32, u64)>> {
    let n = d.get_u64()? as usize;
    if n > d.remaining() {
        return Err(Error::corruption(format!("{what} list exceeds the record")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let ty = d.get_u64()?;
        let ty = u32::try_from(ty).map_err(|_| {
            Error::corruption(format!("{what} list names atom type #{ty}, past u32"))
        })?;
        out.push((ty, d.get_u64()?));
    }
    Ok(out)
}

/// The open control file and the image it holds (empty while it has none).
pub(crate) struct ControlFile {
    file: Arc<dyn VfsFile>,
    image: Vec<u8>,
}

impl ControlFile {
    /// Opens `dir`'s control file and decodes it: `None` when it has none.
    pub fn open(vfs: &dyn Vfs, dir: &Path) -> Result<(ControlFile, Option<Control>)> {
        let file = vfs.open(&dir.join(CONTROL_FILE))?;
        let mut image = vec![0u8; file.len()? as usize];
        if image.is_empty() {
            return Ok((ControlFile { file, image }, None));
        }
        file.read_at(&mut image, 0)?;
        let control = Control::from_image(&image)?;
        Ok((ControlFile { file, image }, Some(control)))
    }

    /// True when the file holds exactly `image`.
    pub fn holds(&self, image: &[u8]) -> bool {
        self.image == image
    }

    /// Writes `image` in place and syncs it. Callers journal it first.
    pub fn write(&mut self, image: Vec<u8>) -> Result<()> {
        self.file.write_at(&image, 0)?;
        self.file.sync()?;
        self.image = image;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcom_catalog::AttrDef;
    use tcom_kernel::DataType;

    /// A control state whose image spans two pages.
    fn two_page_control() -> Control {
        let mut catalog = Catalog::new();
        for t in 0..12 {
            let attrs = (0..20)
                .map(|a| {
                    AttrDef::new(
                        format!("attribute_{a:02}_of_the_wide_type_{t:02}"),
                        DataType::Int,
                    )
                })
                .collect();
            catalog.define_atom_type(format!("type{t}"), attrs).unwrap();
        }
        Control {
            kind: StoreKind::Split,
            published: TimePoint(1 << 40),
            wal_start: Lsn(1 << 33),
            wal_retired: vec![Lsn(0), Lsn(4096)],
            next_atom_nos: vec![(0, 3), (7, u64::MAX)],
            segments: vec![(0, 0), (0, 1), (11, 4)],
            catalog,
        }
    }

    #[test]
    fn image_roundtrip_spans_pages() {
        let c = two_page_control();
        let image = c.image();
        assert_eq!(image.len(), 2 * PAGE_SIZE);
        let back = Control::from_image(&image).unwrap();
        assert_eq!(back.image(), image);
        assert_eq!(back.kind, StoreKind::Split);
        assert_eq!(back.published, TimePoint(1 << 40));
        assert_eq!(back.wal_start, c.wal_start);
        assert_eq!(back.wal_retired, c.wal_retired);
        assert_eq!(back.next_atom_nos, c.next_atom_nos);
        assert_eq!(back.segments, c.segments);
        assert_eq!(back.catalog.atom_types(), c.catalog.atom_types());
        // A stale page left behind by an earlier, longer image is ignored.
        let mut longer = image.clone();
        longer.extend_from_slice(Page::new(PageKind::Meta).bytes());
        assert_eq!(Control::from_image(&longer).unwrap().image(), image);
    }

    /// Every truncation and every single-bit flip of a valid two-page
    /// image decodes to an error naming the file or to the original
    /// state; none panics.
    #[test]
    fn damaged_images_fail_or_decode_unchanged() {
        let image = two_page_control().image();
        let check = |damaged: &[u8], what: &str| match Control::from_image(damaged) {
            Ok(c) => assert_eq!(c.image(), image, "{what} decoded to another state"),
            Err(Error::Corruption(m)) => assert!(m.starts_with(CONTROL_FILE), "{what}: {m}"),
            Err(e) => panic!("{what}: not a corruption: {e}"),
        };
        for len in 0..image.len() {
            check(&image[..len], &format!("truncation to {len}"));
        }
        let mut flipped = image.clone();
        for bit in 0..image.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped, &format!("flip of bit {bit}"));
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// One sealed control page holding the record `rec`.
    fn one_page(rec: &[u8]) -> Vec<u8> {
        let mut page = Page::new(PageKind::Meta);
        page.body_mut()[..4].copy_from_slice(&(rec.len() as u32).to_le_bytes());
        page.body_mut()[4..HEAD].copy_from_slice(&crc32c(rec).to_le_bytes());
        page.body_mut()[HEAD..HEAD + rec.len()].copy_from_slice(rec);
        page.seal();
        page.bytes().to_vec()
    }

    /// A record in format 0, whose value-index payloads are atom numbers
    /// rather than counts, fails the decode naming the file and the cause
    /// rather than let the payloads be read as counts; so does one in
    /// format 1, whose log is a `wal.log` with no watermark here, and one
    /// in a format this version does not know.
    #[test]
    fn earlier_format_is_corruption() {
        let image = Control {
            kind: StoreKind::Delta,
            published: TimePoint(9),
            wal_start: Lsn(0),
            wal_retired: Vec::new(),
            next_atom_nos: vec![(0, 4)],
            segments: Vec::new(),
            catalog: Catalog::new(),
        }
        .image();
        let len = u32::from_le_bytes(
            image[PAGE_HEADER_LEN..PAGE_HEADER_LEN + 4]
                .try_into()
                .unwrap(),
        );
        let rec = &image[PAGE_HEADER_LEN + HEAD..PAGE_HEADER_LEN + HEAD + len as usize];
        assert_eq!(rec[0], FORMAT << 4 | 1);
        for (tag, want) in [
            (1, "format 0 is not 2"),
            (0x11, "format 1 is not 2"),
            (0x31, "format 3 is not 2"),
        ] {
            let mut old = rec.to_vec();
            old[0] = tag;
            match Control::from_image(&one_page(&old)) {
                Err(Error::Corruption(m)) => {
                    assert!(m.starts_with(CONTROL_FILE), "{m}");
                    assert!(m.contains(want), "{m}");
                }
                Err(e) => panic!("tag {tag:#x}: not a corruption: {e}"),
                Ok(_) => panic!("tag {tag:#x}: decoded"),
            }
        }
    }

    /// A segment listed twice, or under a type number past `u32` that
    /// would wrap onto a listed type, fails the decode naming the file.
    #[test]
    fn segment_listed_twice_is_corruption() {
        let cases: [(&str, Vec<(u64, u64)>); 2] = [
            ("repeated", vec![(0, 0), (0, 0)]),
            ("wrapped", vec![(0, 0), (1 << 32, 0)]),
        ];
        for (case, segments) in cases {
            // Encoded by hand: `Control` cannot hold a type past `u32`.
            let mut e = Encoder::new();
            e.put_u8(FORMAT << 4);
            e.put_time(TimePoint(5));
            e.put_u64(0);
            e.put_u64(0);
            e.put_u64(0);
            e.put_u64(segments.len() as u64);
            for (ty, seg) in segments {
                e.put_u64(ty);
                e.put_u64(seg);
            }
            let mut catalog = Catalog::new();
            catalog
                .define_atom_type("emp", vec![AttrDef::new("salary", DataType::Int)])
                .unwrap();
            e.put_bytes(&catalog.encode());
            match Control::from_image(&one_page(&e.finish())) {
                Err(Error::Corruption(m)) => {
                    assert!(m.starts_with(CONTROL_FILE), "[{case}] {m}");
                    assert!(m.contains("segment"), "[{case}] {m}");
                }
                Err(e) => panic!("[{case}] not a corruption: {e}"),
                Ok(_) => panic!("[{case}] decoded a segment listed twice"),
            }
        }
    }
}
