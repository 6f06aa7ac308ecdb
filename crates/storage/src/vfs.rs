//! The virtual file system boundary.
//!
//! Every byte the engine persists — store pages, the WAL, the checkpoint
//! journal — flows through a [`Vfs`], chosen once when the database opens.
//! Two implementations exist:
//!
//! * [`StdVfs`] — a passthrough to the real file system using positioned
//!   reads/writes (`pread`/`pwrite`), used by default. It adds no locking
//!   and no buffering, so the default path costs exactly what direct file
//!   I/O costs.
//! * [`FaultVfs`] — a fully in-memory file system for crash testing. It
//!   numbers every I/O operation and, on a scripted [`FaultSchedule`], can
//!   fail a write, tear a write at a byte offset, flip bits on a read, or
//!   take a *power cut*: every byte written since the last `sync` of each
//!   file vanishes, and all subsequent I/O fails with
//!   [`Error::FaultInjected`] until [`FaultVfs::reset_after_crash`].
//!
//! The fault model is deliberately adversarial-but-fair: a file's durable
//! content is exactly its content at its last sync (plus, for a torn
//! write, the surviving prefix of the interrupted write). Real disks can
//! keep more than that — a recovery algorithm correct under this model is
//! correct under any weaker failure behaviour.

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fs::OpenOptions;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tcom_kernel::{Error, Result};

/// An open file: positioned I/O only, no seek state, shareable across
/// threads.
#[allow(clippy::len_without_is_empty)] // fallible len(); emptiness is not a useful file query here
pub trait VfsFile: Send + Sync {
    /// Reads exactly `buf.len()` bytes starting at `offset`.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()>;
    /// Writes all of `buf` starting at `offset`, extending the file as
    /// needed.
    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()>;
    /// Forces written data to stable storage.
    fn sync(&self) -> Result<()>;
    /// Truncates or zero-extends the file to `len` bytes.
    fn set_len(&self, len: u64) -> Result<()>;
    /// Current file length in bytes.
    fn len(&self) -> Result<u64>;
}

/// A file system namespace: opens, probes and removes files by path.
pub trait Vfs: Send + Sync {
    /// Opens `path` read-write, creating it (empty) if missing.
    fn open(&self, path: &Path) -> Result<Arc<dyn VfsFile>>;
    /// True iff `path` exists.
    fn exists(&self, path: &Path) -> bool;
    /// Removes `path`; removing a missing file is an error.
    fn remove(&self, path: &Path) -> Result<()>;
    /// Atomically renames `from` to `to`, replacing `to` if it exists.
    /// Renaming a missing file is an error.
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;
}

// ---------------------------------------------------------------- StdVfs

/// The production [`Vfs`]: a zero-overhead passthrough to `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdVfs;

impl StdVfs {
    /// A ready-to-share handle (`Db::open` wants an `Arc<dyn Vfs>`).
    pub fn arc() -> Arc<dyn Vfs> {
        Arc::new(StdVfs)
    }
}

struct StdFile(std::fs::File);

impl VfsFile for StdFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        self.0.read_exact_at(buf, offset)?;
        Ok(())
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        self.0.write_all_at(buf, offset)?;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.0.sync_data()?;
        Ok(())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.0.set_len(len)?;
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.0.metadata()?.len())
    }
}

impl Vfs for StdVfs {
    fn open(&self, path: &Path) -> Result<Arc<dyn VfsFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Arc::new(StdFile(file)))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn remove(&self, path: &Path) -> Result<()> {
        std::fs::remove_file(path)?;
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        std::fs::rename(from, to)?;
        Ok(())
    }
}

// -------------------------------------------------------------- FaultVfs

/// One scripted fault, addressed by operation index (see [`FaultVfs`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The write fails with [`Error::FaultInjected`]; nothing is applied;
    /// later operations proceed normally (a transient device error).
    FailWrite,
    /// The write's first `keep` bytes reach the medium, then the power
    /// fails: all other unsynced bytes of every file are lost and the VFS
    /// enters the crashed state.
    TornWrite {
        /// Bytes of the interrupted write that survive.
        keep: usize,
    },
    /// The power fails *before* the operation applies: every file reverts
    /// to its last-synced content and the VFS enters the crashed state.
    PowerCut,
    /// The read completes but `mask` is XOR-ed into the returned buffer at
    /// `byte` (modulo the buffer length) — silent media corruption.
    BitFlipRead {
        /// Byte offset within the read buffer.
        byte: usize,
        /// Bits to flip there.
        mask: u8,
    },
}

/// Faults keyed by the operation index they strike at. Mutating operations
/// (`write_at`, `sync`, `set_len`, `remove`) and reads are numbered on two
/// separate counters, since crash points enumerate mutations while
/// bit-flips target reads.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    /// Faults on the mutation counter ([`Fault::FailWrite`],
    /// [`Fault::TornWrite`], [`Fault::PowerCut`]).
    pub on_mutation: BTreeMap<u64, Fault>,
    /// Faults on the read counter ([`Fault::BitFlipRead`]).
    pub on_read: BTreeMap<u64, Fault>,
}

#[derive(Clone, Default)]
struct FileState {
    current: Vec<u8>,
    durable: Vec<u8>,
}

#[derive(Default)]
struct FaultState {
    files: HashMap<PathBuf, FileState>,
    schedule: FaultSchedule,
    mut_ops: u64,
    read_ops: u64,
    crashed: bool,
}

impl FaultState {
    fn power_cut(&mut self) {
        for f in self.files.values_mut() {
            f.current = f.durable.clone();
        }
        self.crashed = true;
    }

    fn check_live(&self) -> Result<()> {
        if self.crashed {
            Err(Error::fault("I/O after power cut"))
        } else {
            Ok(())
        }
    }
}

/// Deterministic fault-injecting in-memory [`Vfs`].
///
/// All files live in one shared state behind the handle, so clones observe
/// and control the same "disk"; a test typically keeps one clone to arm
/// the [`FaultSchedule`] and hands another to the database. Operation
/// numbering is global across files — with a deterministic workload, the
/// same schedule always strikes the same operation on the same file.
#[derive(Clone, Default)]
pub struct FaultVfs {
    state: Arc<Mutex<FaultState>>,
}

impl FaultVfs {
    /// An empty in-memory file system with no faults armed.
    pub fn new() -> FaultVfs {
        FaultVfs::default()
    }

    /// Replaces the armed schedule. Indices are absolute operation counts
    /// since construction (see [`FaultVfs::mut_ops`]).
    pub fn set_schedule(&self, schedule: FaultSchedule) {
        self.state.lock().schedule = schedule;
    }

    /// Arms a single power cut at absolute mutation index `op`.
    pub fn power_cut_at(&self, op: u64) {
        let mut st = self.state.lock();
        st.schedule.on_mutation.insert(op, Fault::PowerCut);
    }

    /// Mutating operations performed so far (the crash-point axis).
    pub fn mut_ops(&self) -> u64 {
        self.state.lock().mut_ops
    }

    /// Read operations performed so far.
    pub fn read_ops(&self) -> u64 {
        self.state.lock().read_ops
    }

    /// True once a [`Fault::PowerCut`] or [`Fault::TornWrite`] has struck.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// "Reboots the machine": clears the crashed flag and the schedule so
    /// the next open sees exactly the durable (last-synced) bytes. Keeps
    /// the operation counters running.
    pub fn reset_after_crash(&self) {
        let mut st = self.state.lock();
        for f in st.files.values_mut() {
            f.current = f.durable.clone();
        }
        st.crashed = false;
        st.schedule = FaultSchedule::default();
    }

    /// Order-independent hash of every file's durable content — two runs
    /// of the same workload under the same schedule must agree on this.
    pub fn durable_fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let st = self.state.lock();
        let mut names: Vec<&PathBuf> = st.files.keys().collect();
        names.sort();
        let mut h = DefaultHasher::new();
        for name in names {
            name.hash(&mut h);
            st.files[name].durable.hash(&mut h);
        }
        h.finish()
    }

    /// A new file system holding every file's durable bytes: what a power
    /// cut at this instant would leave, while this one runs on.
    pub fn durable_copy(&self) -> FaultVfs {
        let mut files = self.state.lock().files.clone();
        for f in files.values_mut() {
            f.current = f.durable.clone();
        }
        let state = FaultState {
            files,
            ..FaultState::default()
        };
        FaultVfs {
            state: Arc::new(Mutex::new(state)),
        }
    }

    /// The paths of the files present, sorted: a test's directory
    /// listing (the [`Vfs`] has none).
    pub fn paths(&self) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = self.state.lock().files.keys().cloned().collect();
        paths.sort();
        paths
    }

    /// The durable length of `path` (what a reopen would see), if present.
    pub fn durable_len(&self, path: &Path) -> Option<u64> {
        self.state
            .lock()
            .files
            .get(path)
            .map(|f| f.durable.len() as u64)
    }
}

struct FaultFile {
    state: Arc<Mutex<FaultState>>,
    path: PathBuf,
}

impl VfsFile for FaultFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        let mut st = self.state.lock();
        st.check_live()?;
        let idx = st.read_ops;
        st.read_ops += 1;
        let fault = st.schedule.on_read.remove(&idx);
        let file = st
            .files
            .get(&self.path)
            .ok_or_else(|| Error::fault(format!("read of removed file {}", self.path.display())))?;
        let start = offset as usize;
        let end = start + buf.len();
        if end > file.current.len() {
            return Err(Error::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "read past EOF of {} ({} + {} > {})",
                    self.path.display(),
                    start,
                    buf.len(),
                    file.current.len()
                ),
            )));
        }
        buf.copy_from_slice(&file.current[start..end]);
        if let Some(Fault::BitFlipRead { byte, mask }) = fault {
            if !buf.is_empty() {
                let at = byte % buf.len();
                buf[at] ^= mask;
            }
        }
        Ok(())
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        let mut st = self.state.lock();
        st.check_live()?;
        let idx = st.mut_ops;
        st.mut_ops += 1;
        match st.schedule.on_mutation.remove(&idx) {
            Some(Fault::FailWrite) => {
                return Err(Error::fault(format!("write op {idx} failed on schedule")))
            }
            Some(Fault::PowerCut) => {
                st.power_cut();
                return Err(Error::fault(format!("power cut before write op {idx}")));
            }
            Some(Fault::TornWrite { keep }) => {
                let keep = keep.min(buf.len());
                // The surviving prefix hits the platter; everything else
                // unsynced (in every file) is gone.
                let file = st.files.entry(self.path.clone()).or_default();
                let end = offset as usize + keep;
                if file.durable.len() < end {
                    file.durable.resize(end, 0);
                }
                file.durable[offset as usize..end].copy_from_slice(&buf[..keep]);
                st.power_cut();
                return Err(Error::fault(format!(
                    "power cut tore write op {idx} after {keep} bytes"
                )));
            }
            _ => {}
        }
        let file = st.files.entry(self.path.clone()).or_default();
        let end = offset as usize + buf.len();
        if file.current.len() < end {
            file.current.resize(end, 0);
        }
        file.current[offset as usize..end].copy_from_slice(buf);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        let mut st = self.state.lock();
        st.check_live()?;
        let idx = st.mut_ops;
        st.mut_ops += 1;
        match st.schedule.on_mutation.remove(&idx) {
            Some(Fault::PowerCut) | Some(Fault::TornWrite { .. }) => {
                st.power_cut();
                return Err(Error::fault(format!("power cut before sync op {idx}")));
            }
            Some(Fault::FailWrite) => {
                return Err(Error::fault(format!("sync op {idx} failed on schedule")))
            }
            _ => {}
        }
        if let Some(file) = st.files.get_mut(&self.path) {
            file.durable = file.current.clone();
        }
        Ok(())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        let mut st = self.state.lock();
        st.check_live()?;
        let idx = st.mut_ops;
        st.mut_ops += 1;
        match st.schedule.on_mutation.remove(&idx) {
            Some(Fault::PowerCut) | Some(Fault::TornWrite { .. }) => {
                st.power_cut();
                return Err(Error::fault(format!("power cut before set_len op {idx}")));
            }
            Some(Fault::FailWrite) => {
                return Err(Error::fault(format!("set_len op {idx} failed on schedule")))
            }
            _ => {}
        }
        let file = st.files.entry(self.path.clone()).or_default();
        file.current.resize(len as usize, 0);
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        let st = self.state.lock();
        st.check_live()?;
        Ok(st
            .files
            .get(&self.path)
            .map_or(0, |f| f.current.len() as u64))
    }
}

impl Vfs for FaultVfs {
    fn open(&self, path: &Path) -> Result<Arc<dyn VfsFile>> {
        let mut st = self.state.lock();
        st.check_live()?;
        st.files.entry(path.to_owned()).or_default();
        Ok(Arc::new(FaultFile {
            state: self.state.clone(),
            path: path.to_owned(),
        }))
    }

    fn exists(&self, path: &Path) -> bool {
        self.state.lock().files.contains_key(path)
    }

    fn remove(&self, path: &Path) -> Result<()> {
        let mut st = self.state.lock();
        st.check_live()?;
        let idx = st.mut_ops;
        st.mut_ops += 1;
        match st.schedule.on_mutation.remove(&idx) {
            Some(Fault::PowerCut) | Some(Fault::TornWrite { .. }) => {
                st.power_cut();
                return Err(Error::fault(format!("power cut before remove op {idx}")));
            }
            _ => {}
        }
        // Removal is treated as immediately durable: directory-entry
        // durability games are out of scope for this fault model.
        st.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| Error::Io(io::Error::new(io::ErrorKind::NotFound, "no such file")))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        let mut st = self.state.lock();
        st.check_live()?;
        let idx = st.mut_ops;
        st.mut_ops += 1;
        match st.schedule.on_mutation.remove(&idx) {
            Some(Fault::PowerCut) | Some(Fault::TornWrite { .. }) => {
                st.power_cut();
                return Err(Error::fault(format!("power cut before rename op {idx}")));
            }
            Some(Fault::FailWrite) => {
                return Err(Error::fault(format!("rename op {idx} failed on schedule")))
            }
            _ => {}
        }
        // Like removal, the directory-entry swap is immediately durable,
        // and the renamed file carries its *durable* content forward: a
        // rename is only crash-atomic for data that was synced first,
        // which is exactly the temp-write/sync/rename publication contract.
        let file = st
            .files
            .remove(from)
            .ok_or_else(|| Error::Io(io::Error::new(io::ErrorKind::NotFound, "no such file")))?;
        st.files.insert(to.to_owned(), file);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> PathBuf {
        PathBuf::from(format!("/mem/{name}"))
    }

    #[test]
    fn std_vfs_positioned_io() {
        let dir = std::env::temp_dir().join(format!("tcom-vfs-{}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        let vfs = StdVfs;
        assert!(!vfs.exists(&dir));
        let f = vfs.open(&dir).unwrap();
        f.write_at(b"hello world", 0).unwrap();
        f.write_at(b"HELLO", 6).unwrap();
        let mut buf = [0u8; 11];
        f.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"hello HELLO");
        assert_eq!(f.len().unwrap(), 11);
        f.set_len(5).unwrap();
        assert_eq!(f.len().unwrap(), 5);
        f.sync().unwrap();
        assert!(vfs.exists(&dir));
        vfs.remove(&dir).unwrap();
        assert!(!vfs.exists(&dir));
    }

    #[test]
    fn fault_vfs_basic_rw() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("a")).unwrap();
        f.write_at(b"abcdef", 0).unwrap();
        let mut buf = [0u8; 3];
        f.read_at(&mut buf, 2).unwrap();
        assert_eq!(&buf, b"cde");
        assert!(f.read_at(&mut buf, 5).is_err(), "read past EOF");
        assert_eq!(vfs.mut_ops(), 1);
        assert_eq!(vfs.read_ops(), 2);
    }

    #[test]
    fn power_cut_discards_unsynced() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("a")).unwrap();
        f.write_at(b"synced", 0).unwrap();
        f.sync().unwrap();
        f.write_at(b"UNSYNC", 6).unwrap();
        vfs.power_cut_at(vfs.mut_ops());
        assert!(matches!(f.write_at(b"x", 12), Err(Error::FaultInjected(_))));
        assert!(vfs.crashed());
        assert!(
            matches!(f.len(), Err(Error::FaultInjected(_))),
            "post-crash I/O fails"
        );
        vfs.reset_after_crash();
        let f = vfs.open(&p("a")).unwrap();
        assert_eq!(f.len().unwrap(), 6, "only synced bytes survive");
        let mut buf = [0u8; 6];
        f.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"synced");
    }

    #[test]
    fn torn_write_keeps_prefix() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("a")).unwrap();
        f.write_at(b"0123456789", 0).unwrap();
        f.sync().unwrap();
        let mut sched = FaultSchedule::default();
        sched
            .on_mutation
            .insert(vfs.mut_ops(), Fault::TornWrite { keep: 4 });
        vfs.set_schedule(sched);
        assert!(f.write_at(b"ABCDEFGHIJ", 0).is_err());
        vfs.reset_after_crash();
        let f = vfs.open(&p("a")).unwrap();
        let mut buf = [0u8; 10];
        f.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"ABCD456789", "prefix survives, rest reverts");
    }

    #[test]
    fn failed_write_is_transient() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("a")).unwrap();
        let mut sched = FaultSchedule::default();
        sched.on_mutation.insert(0, Fault::FailWrite);
        vfs.set_schedule(sched);
        assert!(matches!(f.write_at(b"x", 0), Err(Error::FaultInjected(_))));
        assert!(!vfs.crashed());
        f.write_at(b"y", 0).unwrap();
        assert_eq!(f.len().unwrap(), 1);
    }

    #[test]
    fn bit_flip_corrupts_one_read_only() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("a")).unwrap();
        f.write_at(&[0u8; 8], 0).unwrap();
        let mut sched = FaultSchedule::default();
        sched.on_read.insert(
            0,
            Fault::BitFlipRead {
                byte: 3,
                mask: 0x80,
            },
        );
        vfs.set_schedule(sched);
        let mut buf = [0u8; 8];
        f.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf[3], 0x80, "flipped in the returned buffer");
        f.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf[3], 0, "underlying bytes untouched");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let vfs = FaultVfs::new();
            let f = vfs.open(&p("a")).unwrap();
            for i in 0..20u8 {
                if f.write_at(&[i; 16], i as u64 * 16).is_err() {
                    break;
                }
                if i % 3 == 0 && f.sync().is_err() {
                    break;
                }
            }
            (vfs.mut_ops(), vfs.durable_fingerprint())
        };
        let arm = |vfs: &FaultVfs| vfs.power_cut_at(11);
        let run_armed = || {
            let vfs = FaultVfs::new();
            arm(&vfs);
            let f = vfs.open(&p("a")).unwrap();
            for i in 0..20u8 {
                if f.write_at(&[i; 16], i as u64 * 16).is_err() {
                    break;
                }
                if i % 3 == 0 && f.sync().is_err() {
                    break;
                }
            }
            (vfs.mut_ops(), vfs.durable_fingerprint())
        };
        assert_eq!(run(), run());
        assert_eq!(run_armed(), run_armed());
        assert_ne!(run().1, run_armed().1);
    }

    #[test]
    fn rename_is_durable_swap() {
        let vfs = FaultVfs::new();
        let f = vfs.open(&p("tmp")).unwrap();
        f.write_at(b"synced", 0).unwrap();
        f.sync().unwrap();
        f.write_at(b"-tail", 6).unwrap(); // unsynced
        vfs.rename(&p("tmp"), &p("final")).unwrap();
        assert!(!vfs.exists(&p("tmp")));
        assert!(vfs.exists(&p("final")));
        // A crash immediately after the rename keeps the entry under the
        // new name with only the synced bytes.
        let st = vfs.clone();
        st.power_cut_at(st.mut_ops());
        let g = vfs.open(&p("final")).unwrap();
        assert!(g.write_at(b"x", 0).is_err());
        vfs.reset_after_crash();
        assert_eq!(vfs.durable_len(&p("final")), Some(6));
        assert!(vfs.rename(&p("missing"), &p("x")).is_err());
        // A power cut scheduled *on* the rename op leaves the old name.
        let f = vfs.open(&p("a")).unwrap();
        f.write_at(b"z", 0).unwrap();
        f.sync().unwrap();
        vfs.power_cut_at(vfs.mut_ops());
        assert!(vfs.rename(&p("a"), &p("b")).is_err());
        vfs.reset_after_crash();
        assert!(vfs.exists(&p("a")));
        assert!(!vfs.exists(&p("b")));
    }

    #[test]
    fn remove_and_exists() {
        let vfs = FaultVfs::new();
        vfs.open(&p("a")).unwrap();
        assert!(vfs.exists(&p("a")));
        assert!(!vfs.exists(&p("b")));
        vfs.remove(&p("a")).unwrap();
        assert!(!vfs.exists(&p("a")));
        assert!(vfs.remove(&p("a")).is_err());
    }
}
