//! The checkpoint double-write journal.
//!
//! With the no-steal buffer policy, on-disk store files change only during
//! a flush. A crash *during* the flush would otherwise tear the snapshot
//! (some pages new, some old — structurally inconsistent). The journal
//! makes flushes crash-atomic, InnoDB-doublewrite style:
//!
//! 1. every dirty page image is appended to the journal, then a commit
//!    marker, then fsync;
//! 2. the pages are written in place and the data files fsynced;
//! 3. the journal is truncated.
//!
//! Recovery first checks the journal: a *complete* journal (commit marker
//! present, every entry CRC-valid) is re-applied to the data files — which
//! is idempotent — and then truncated; an incomplete journal means the
//! in-place write never started, so it is simply discarded. Either way the
//! store files are a consistent transaction-boundary snapshot afterwards.

use std::path::Path;
use tcom_kernel::codec::crc32c;
use tcom_kernel::{PageId, Result};
use tcom_storage::page::PAGE_SIZE;
use tcom_storage::vfs::Vfs;

const ENTRY_MAGIC: u32 = 0x4A52_4E4C; // "JRNL"
const COMMIT_MAGIC: u32 = 0x4A43_4D54; // "JCMT"

/// One journaled page image: the target file's *name* (file ids are
/// session-scoped and useless across restarts) and the sealed page bytes.
pub(crate) struct JournalEntry {
    /// Store file name relative to the database directory.
    pub file_name: String,
    /// Target page.
    pub page: PageId,
    /// Sealed page image.
    pub image: Box<[u8; PAGE_SIZE]>,
}

/// Writes a complete journal (entries + commit marker) and fsyncs it.
pub(crate) fn write_journal(vfs: &dyn Vfs, path: &Path, entries: &[JournalEntry]) -> Result<()> {
    let mut buf: Vec<u8> = Vec::with_capacity(entries.len() * (PAGE_SIZE + 64));
    for e in entries {
        buf.extend_from_slice(&ENTRY_MAGIC.to_le_bytes());
        let name = e.file_name.as_bytes();
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name);
        buf.extend_from_slice(&e.page.0.to_le_bytes());
        buf.extend_from_slice(e.image.as_slice());
        let crc = crc32c(&e.image[..]) ^ crc32c(name) ^ e.page.0;
        buf.extend_from_slice(&crc.to_le_bytes());
    }
    buf.extend_from_slice(&COMMIT_MAGIC.to_le_bytes());
    let f = vfs.open(path)?;
    f.set_len(0)?;
    f.write_at(&buf, 0)?;
    f.sync()?;
    Ok(())
}

/// Parses the journal; returns the entries when (and only when) the
/// journal is complete, `None` otherwise (incomplete journals are the
/// normal no-crash-in-window case and are ignored).
pub(crate) fn read_journal(vfs: &dyn Vfs, path: &Path) -> Result<Option<Vec<JournalEntry>>> {
    if !vfs.exists(path) {
        return Ok(None);
    }
    let f = vfs.open(path)?;
    let mut data = vec![0u8; f.len()? as usize];
    f.read_at(&mut data, 0)?;
    let mut pos = 0usize;
    let mut entries = Vec::new();
    loop {
        if pos + 4 > data.len() {
            return Ok(None); // ran out before a commit marker: incomplete
        }
        let tag = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"));
        pos += 4;
        if tag == COMMIT_MAGIC {
            return Ok(Some(entries));
        }
        if tag != ENTRY_MAGIC {
            return Ok(None); // garbage: treat as incomplete
        }
        if pos + 4 > data.len() {
            return Ok(None);
        }
        let name_len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        pos += 4;
        if pos + name_len + 4 + PAGE_SIZE + 4 > data.len() {
            return Ok(None);
        }
        let Ok(file_name) = std::str::from_utf8(&data[pos..pos + name_len]) else {
            return Ok(None);
        };
        let file_name = file_name.to_owned();
        pos += name_len;
        let page = PageId(u32::from_le_bytes(
            data[pos..pos + 4].try_into().expect("4 bytes"),
        ));
        pos += 4;
        let image: Box<[u8; PAGE_SIZE]> = data[pos..pos + PAGE_SIZE]
            .to_vec()
            .into_boxed_slice()
            .try_into()
            .expect("exact size");
        pos += PAGE_SIZE;
        let stored = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"));
        pos += 4;
        let crc = crc32c(&image[..]) ^ crc32c(file_name.as_bytes()) ^ page.0;
        if stored != crc {
            return Ok(None);
        }
        entries.push(JournalEntry {
            file_name,
            page,
            image,
        });
    }
}

/// Applies a complete journal's page images directly to the store files in
/// `db_dir` (extending files as needed), fsyncs them, then truncates the
/// journal. Idempotent.
pub(crate) fn apply_journal(
    vfs: &dyn Vfs,
    db_dir: &Path,
    journal_path: &Path,
    entries: &[JournalEntry],
) -> Result<()> {
    // Group writes per file to sync once each.
    let mut by_file: std::collections::HashMap<&str, Vec<&JournalEntry>> =
        std::collections::HashMap::new();
    for e in entries {
        by_file.entry(e.file_name.as_str()).or_default().push(e);
    }
    for (name, es) in by_file {
        let path = db_dir.join(name);
        let f = vfs.open(&path)?;
        for e in es {
            f.write_at(e.image.as_slice(), e.page.0 as u64 * PAGE_SIZE as u64)?;
        }
        f.sync()?;
    }
    truncate_journal(vfs, journal_path)?;
    Ok(())
}

/// Empties the journal file (step 3 of a successful flush).
pub(crate) fn truncate_journal(vfs: &dyn Vfs, path: &Path) -> Result<()> {
    let f = vfs.open(path)?;
    f.set_len(0)?;
    f.sync()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use tcom_storage::vfs::StdVfs;

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tcom-jrnl-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn entry(name: &str, page: u32, fill: u8) -> JournalEntry {
        JournalEntry {
            file_name: name.into(),
            page: PageId(page),
            image: vec![fill; PAGE_SIZE].into_boxed_slice().try_into().unwrap(),
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tmp("rt");
        let j = dir.join("ckpt.jrnl");
        let entries = vec![
            entry("a.tcm", 0, 1),
            entry("a.tcm", 3, 2),
            entry("b.tcm", 1, 3),
        ];
        write_journal(&StdVfs, &j, &entries).unwrap();
        let back = read_journal(&StdVfs, &j).unwrap().expect("complete");
        assert_eq!(back.len(), 3);
        assert_eq!(back[1].page, PageId(3));
        assert_eq!(back[2].file_name, "b.tcm");
        assert_eq!(back[0].image[100], 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incomplete_journal_ignored() {
        let dir = tmp("inc");
        let j = dir.join("ckpt.jrnl");
        write_journal(&StdVfs, &j, &[entry("a.tcm", 0, 7)]).unwrap();
        // Chop off the commit marker.
        let len = std::fs::metadata(&j).unwrap().len();
        let f = OpenOptions::new().write(true).open(&j).unwrap();
        f.set_len(len - 2).unwrap();
        assert!(read_journal(&StdVfs, &j).unwrap().is_none());
        // Corrupted entry body likewise.
        write_journal(&StdVfs, &j, &[entry("a.tcm", 0, 7)]).unwrap();
        let mut data = std::fs::read(&j).unwrap();
        data[100] ^= 0xFF;
        std::fs::write(&j, &data).unwrap();
        assert!(read_journal(&StdVfs, &j).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn apply_writes_and_truncates() {
        let dir = tmp("apply");
        let j = dir.join("ckpt.jrnl");
        let entries = vec![entry("data.tcm", 2, 9)];
        write_journal(&StdVfs, &j, &entries).unwrap();
        apply_journal(&StdVfs, &dir, &j, &entries).unwrap();
        let data = std::fs::read(dir.join("data.tcm")).unwrap();
        assert_eq!(data.len(), 3 * PAGE_SIZE);
        assert!(data[2 * PAGE_SIZE..].iter().all(|&b| b == 9));
        assert_eq!(std::fs::metadata(&j).unwrap().len(), 0);
        assert!(read_journal(&StdVfs, &j).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_none() {
        let dir = tmp("missing");
        assert!(read_journal(&StdVfs, &dir.join("nope.jrnl"))
            .unwrap()
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
