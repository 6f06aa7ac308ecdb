//! The database engine: lifecycle, DDL, read API, checkpointing and
//! crash recovery.
//!
//! A database is a directory:
//!
//! ```text
//! <dir>/control.tcm        store kind, catalog, live segments, flush and WAL watermarks
//! <dir>/wal.<lsn>          redo-only write-ahead log segments, each named by its first LSN
//! <dir>/ckpt.jrnl          double-write journal of the page flush in flight
//! <dir>/t<ty>_*.tcm        per-type store files (layout depends on kind)
//! <dir>/t<ty>_idx<a>.tcm   value indexes: (value, atom) → count of its current versions
//! <dir>/t<ty>_seg<n>.tcm   immutable segments of archived history
//! <dir>/repl.pos           a replica's resume position (replicas only)
//! ```
//!
//! The control file is written only through the checkpoint journal, beside
//! the dirty pages of every flush, DDL included ([`crate::control`]): it
//! always describes exactly the store files on disk, and names the WAL
//! segment recovery starts at. LSNs run on across segments and are never
//! reused; a checkpoint rolls the log onto a new segment and removes the
//! ones below it.
//!
//! Concurrency model (DESIGN.md §10). Three mechanisms compose:
//!
//! * **Snapshot reads on the TT clock.** The transaction-time axis *is*
//!   the version timeline, so MVCC comes almost for free: a commit first
//!   applies its primitives to the stores, and only then *publishes* its
//!   transaction time by advancing the `published` clock. Readers pin
//!   `published` at statement start ([`Database::pin_view`]) and resolve
//!   visibility with `tt_visible(pinned)`; in-flight versions carry a
//!   higher tt and are invisible at the pinned point, so readers never
//!   take `commit_lock` and never validate against a commit. The stores
//!   are safe for a reader beside the one applier (latch-coupled B⁺-tree
//!   descents, moves that publish the new place before they retire the
//!   old one); a read of *current* state checks the store's change stamp
//!   once and answers from history as of its view when it moved, and
//!   maintenance that rewrites history holds the store's lock.
//! * **Striped writers.** Write transactions lock the commit stripe of
//!   every atom type they touch at first touch (wait-die on the begin
//!   order, see [`crate::stripes`]); disjoint writers build overlays and
//!   commit in parallel, serializing only in the short apply section.
//! * **Ordered apply, group commit.** A committing transaction draws its
//!   tt and stages all WAL records atomically under `wal_order` (so WAL
//!   order equals tt order and a torn WAL tail always cuts a tt-suffix),
//!   shares a leader/follower fsync with concurrently arriving commits,
//!   then waits for its *publish turn* (`published == tt - 1`), applies
//!   under `commit_lock.read()`, and publishes ([`Database::apply_commit`]).
//!   Only the maintenance guard (`db/maint.rs`) takes `commit_lock.write()`:
//!   maintenance must exclude appliers, never readers.

mod maint;

use self::maint::Quiesced;
use crate::config::DbConfig;
use crate::control::{Control, ControlFile, CONTROL_FILE};
use crate::journal;
use crate::stripes::{StripeLocks, COMMIT_STRIPES};
use crate::txn::Txn;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tcom_catalog::{AttrDef, Catalog, MoleculeEdge};
use tcom_kernel::{
    AtomId, AtomNo, AtomTypeId, AttrId, Error, Interval, Lsn, MoleculeTypeId, Result, TimePoint,
    Tuple,
};
use tcom_obs::{Counter, MetricsSnapshot, Registry};
use tcom_storage::btree::BTree;
use tcom_storage::buffer::{BufferPool, BufferStats, FileId};
use tcom_storage::disk::DiskManager;
use tcom_storage::keys::{encode_value, BKey};
use tcom_storage::vfs::{StdVfs, Vfs};
use tcom_version::record::AtomVersion;
use tcom_version::Store;
use tcom_wal::{LogRecord, Wal, WalChunk};

/// A pinned snapshot for reads: the published transaction-time clock at
/// pin time. Cheap to create per statement via [`Database::pin_view`];
/// committed state at or before `tt` is immutable, so a view never goes
/// stale — it just stops seeing newer commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadView {
    /// The pinned transaction time: the view sees exactly the commits
    /// with `tt_start <= tt`.
    pub tt: TimePoint,
}

/// A bitemporal complex-object database.
pub struct Database {
    dir: PathBuf,
    config: DbConfig,
    /// The file system all persistent bytes flow through — [`StdVfs`] in
    /// production, a fault-injecting stand-in in crash tests. Chosen once
    /// here; every store file, the WAL and the checkpoint journal inherit
    /// it.
    vfs: Arc<dyn Vfs>,
    pool: Arc<BufferPool>,
    catalog: RwLock<Catalog>,
    stores: RwLock<HashMap<u32, Arc<Store>>>,
    indexes: RwLock<HashMap<(u32, u16), Arc<BTree>>>,
    wal: Wal,
    /// The control file ([`CONTROL_FILE`]). Written beside the pool, never
    /// cached in it, so it takes no frame from the pages statements read:
    /// a flush journals a fresh image and writes it in place, and only
    /// `open` reads it.
    control: Mutex<ControlFile>,
    /// Transaction-time *allocation* clock: the last tt handed to a
    /// committing transaction (drawn under `wal_order`).
    clock: AtomicU64,
    /// The last *published* transaction time: every commit `<= published`
    /// is fully applied to the stores. Readers pin this; `now()` reads it.
    published: AtomicU64,
    /// Publish-turn gate: appliers wait here until `published == tt - 1`,
    /// checkpointing waits here until `published == clock` (drained).
    publish_mx: Mutex<()>,
    publish_cv: Condvar,
    /// Serializes the tt draw + WAL staging of commits, making WAL order
    /// equal tt order (the crash matrix relies on durable commits always
    /// forming a tt-prefix).
    pub(crate) wal_order: Mutex<()>,
    /// Serializes DDL, pruning and segment swaps.
    maint: Mutex<()>,
    /// Per-atom-type commit stripes (wait-die).
    stripes: StripeLocks,
    /// Begin-order ids for wait-die priorities (1-based).
    txn_seq: AtomicU64,
    next_no: Mutex<HashMap<u32, u64>>,
    /// Appliers shared, the maintenance guard exclusive. Readers never
    /// touch this lock.
    commit_lock: RwLock<()>,
    txns_since_ckpt: AtomicU64,
    skip_checkpoint_on_drop: AtomicBool,
    /// Read-only replica mode: set by [`crate::repl::WalApplier`]. Local
    /// write transactions are refused at commit; the only writer is the
    /// replication apply loop, which replays the leader's WAL.
    replica: AtomicBool,
    /// File names by [`FileId`] index (for the checkpoint journal, which
    /// must address files by name — ids are session-scoped).
    file_names: Mutex<Vec<String>>,
    /// The metrics registry every subsystem reports into. Behind an `Arc`
    /// so gauge closures (which poll subsystem counters at snapshot time)
    /// and external samplers can hold it independently of the database.
    obs: Arc<Registry>,
    /// Disk managers registered with the pool, retained so aggregate
    /// physical-I/O gauges can poll them. Shared with the gauge closures.
    disks: Arc<Mutex<Vec<Arc<DiskManager>>>>,
    /// Cached per-type statistics snapshots for the cost-based planner,
    /// kept approximately fresh by commit-time change notes.
    stats: crate::stats::StatsRegistry,
    /// Completed segment compactions (swaps) since open.
    compactions: Counter,
}

impl Database {
    /// Opens a database directory, creating it if missing. Runs crash
    /// recovery (WAL redo) when the log holds work past the flush
    /// watermark.
    pub fn open(dir: impl AsRef<Path>, config: DbConfig) -> Result<Database> {
        Database::open_with_vfs(dir, config, StdVfs::arc())
    }

    /// Like [`Database::open`] but with an explicit [`Vfs`] for every file
    /// of the directory (only the directory itself is made on the real
    /// file system). The open applies a complete checkpoint journal, reads
    /// the control file, opens the stores, indexes and segments it names,
    /// and redoes the WAL above its clock in one pass from the WAL segment
    /// it names. A directory with an earlier version's `db.meta`,
    /// `catalog.tcat` or `wal.log` and no control file fails with a
    /// `Corruption`.
    pub fn open_with_vfs(
        dir: impl AsRef<Path>,
        config: DbConfig,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Database> {
        let dir = dir.as_ref().to_owned();
        std::fs::create_dir_all(&dir)?;

        // A complete checkpoint journal means a crash hit the in-place
        // flush window; re-apply it before anything reads the files it
        // covers, the control file among them.
        let journal_path = dir.join("ckpt.jrnl");
        if let Some(entries) = journal::read_journal(vfs.as_ref(), &journal_path)? {
            journal::apply_journal(vfs.as_ref(), &dir, &journal_path, &entries)?;
        } else {
            journal::truncate_journal(vfs.as_ref(), &journal_path)?;
        }

        let (control_file, control) = ControlFile::open(vfs.as_ref(), &dir)?;
        let controlled = control.is_some();
        for legacy in ["db.meta", "catalog.tcat", "wal.log"] {
            if !controlled && vfs.exists(&dir.join(legacy)) {
                return Err(Error::corruption(format!(
                    "{} holds {legacy} but no {CONTROL_FILE}: an earlier version wrote it",
                    dir.display()
                )));
            }
        }
        let control = control.unwrap_or_else(|| Control {
            kind: config.store_kind,
            published: TimePoint(0),
            wal_start: Lsn(0),
            wal_retired: Vec::new(),
            next_atom_nos: Vec::new(),
            segments: Vec::new(),
            catalog: Catalog::new(),
        });
        // The on-disk layout wins; the caller's runtime knobs stay.
        let config = DbConfig {
            store_kind: control.kind,
            ..config
        };

        // No-steal: dirty pages reach disk only via journal-protected
        // flushes, keeping the on-disk state a consistent snapshot.
        let pool = BufferPool::new_no_steal(config.buffer_frames);
        let wal = Wal::open_at(
            vfs.clone(),
            dir.join("wal"),
            config.sync_policy,
            control.wal_start,
        )?;

        let db = Database {
            dir,
            config,
            vfs,
            pool,
            catalog: RwLock::new(control.catalog),
            stores: RwLock::new(HashMap::new()),
            indexes: RwLock::new(HashMap::new()),
            wal,
            control: Mutex::new(control_file),
            clock: AtomicU64::new(0),
            published: AtomicU64::new(0),
            publish_mx: Mutex::new(()),
            publish_cv: Condvar::new(),
            wal_order: Mutex::new(()),
            maint: Mutex::new(()),
            stripes: StripeLocks::new(COMMIT_STRIPES),
            txn_seq: AtomicU64::new(0),
            next_no: Mutex::new(HashMap::new()),
            commit_lock: RwLock::new(()),
            txns_since_ckpt: AtomicU64::new(0),
            skip_checkpoint_on_drop: AtomicBool::new(false),
            replica: AtomicBool::new(false),
            file_names: Mutex::new(Vec::new()),
            obs: Arc::new(Registry::new()),
            disks: Arc::new(Mutex::new(Vec::new())),
            stats: crate::stats::StatsRegistry::default(),
            compactions: Counter::new(),
        };
        db.register_engine_metrics();
        db.restore_counters(control.published, &control.next_atom_nos);

        // Open stores and indexes for every cataloged type, then the
        // segments the control file lists.
        {
            let catalog = db.catalog.read();
            for t in catalog.atom_types() {
                let store = db.open_or_create_store(t.id, false)?;
                db.stores.write().insert(t.id.0, store);
                for (attr_id, attr) in t.attrs.iter().enumerate() {
                    if attr.indexed {
                        let idx = db.open_or_create_index(t.id, AttrId(attr_id as u16), false)?;
                        db.indexes.write().insert((t.id.0, attr_id as u16), idx);
                    }
                }
            }
        }
        for &(ty, seg) in &control.segments {
            db.add_segment(&*db.store(AtomTypeId(ty))?, ty, seg)?;
        }
        db.recover(controlled, &control.wal_retired)?;
        Ok(db)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shared buffer pool (exposed for benchmarks and statistics).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The current transaction-time clock: the commit time of the last
    /// transaction whose apply completed and was *published*. A commit in
    /// flight (WAL staged, stores mid-apply) is not visible here yet —
    /// apply-then-publish is what makes snapshot reads torn-free.
    pub fn now(&self) -> TimePoint {
        TimePoint(self.published.load(Ordering::Acquire))
    }

    // ---- commit pipeline plumbing (used by `Txn::commit`) ----

    /// Draws the next transaction time. Callers must hold `wal_order`.
    pub(crate) fn draw_tt(&self) -> TimePoint {
        TimePoint(self.clock.fetch_add(1, Ordering::AcqRel) + 1)
    }

    /// Blocks until every earlier transaction time has been published —
    /// the caller holds the apply turn for `tt` when this returns.
    pub(crate) fn wait_for_turn(&self, tt: TimePoint) {
        let mut g = self.publish_mx.lock();
        while self.published.load(Ordering::Acquire) != tt.0 - 1 {
            self.publish_cv.wait(&mut g);
        }
    }

    /// Publishes `tt`: versions applied at `tt` become visible to new
    /// read views. Must be called in turn (after [`Database::wait_for_turn`]).
    pub(crate) fn publish(&self, tt: TimePoint) {
        let _g = self.publish_mx.lock();
        debug_assert_eq!(self.published.load(Ordering::Acquire), tt.0 - 1);
        self.published.store(tt.0, Ordering::Release);
        self.publish_cv.notify_all();
    }

    /// Publishes a replayed `tt` (a replica's, or recovery's): advances
    /// `published` monotonically, *without* the leader's contiguity
    /// invariant. A WAL can legitimately skip transaction times (a commit
    /// that failed after its tt draw published empty, leaving no records),
    /// so a replay loop — single-threaded and in WAL order — publishes
    /// whatever tt it just applied. Also advances the allocation clock so
    /// a later commit (after a promotion or a reopen) never reuses a
    /// replayed tt.
    pub(crate) fn publish_replicated(&self, tt: TimePoint) {
        let _g = self.publish_mx.lock();
        self.clock.fetch_max(tt.0, Ordering::AcqRel);
        self.published.fetch_max(tt.0, Ordering::AcqRel);
        self.publish_cv.notify_all();
    }

    /// Applies one logged commit (`recs`, its WAL records) to the stores
    /// and value indexes and publishes it: the one apply routine of a
    /// leader's [`Txn::commit`] and of [`Database::replay_commit`]. The
    /// records alone drive the value indexes, whose entries count the
    /// atom's current versions holding a value: an insert counts its
    /// tuple, a close uncounts the one the store hands back, and only net
    /// changes touch an index. A close of a missing version, or a count
    /// below zero, fails the batch. The stores' own changes precede the
    /// index changes they cause, so a close reaches a store's time index
    /// before the value index drops the closed value.
    pub(crate) fn apply_commit(
        &self,
        tt: TimePoint,
        recs: &[LogRecord],
        publish: fn(&Database, TimePoint),
    ) -> Result<()> {
        let mut changed: Vec<AtomId> =
            recs.iter()
                .filter_map(|r| match r {
                    LogRecord::InsertVersion { atom, .. }
                    | LogRecord::CloseVersion { atom, .. } => Some(*atom),
                    _ => None,
                })
                .collect();
        changed.sort_unstable();
        changed.dedup();
        // Shared: appliers exclude maintenance, not each other (the
        // publish turn serializes them) and never readers.
        let _shared = self.commit_lock.read();
        // ((type, attribute, index key), change of the key's count)
        let mut deltas: Vec<((AtomTypeId, AttrId, BKey), i64)> = Vec::new();
        let catalog = self.catalog.read();
        let mut count = |atom: AtomId, tuple: &Tuple, by: i64| -> Result<()> {
            for (i, a) in catalog.atom_type(atom.ty)?.attrs.iter().enumerate() {
                if let (true, Some(enc)) = (a.indexed, encode_value(tuple.get(i))) {
                    let key = BKey::new(enc, atom.no.0);
                    deltas.push(((atom.ty, AttrId(i as u16), key), by));
                }
            }
            Ok(())
        };
        for rec in recs {
            match rec {
                LogRecord::InsertVersion {
                    atom,
                    vt,
                    tt_start,
                    tuple,
                    ..
                } => {
                    self.store(atom.ty)?
                        .insert_version(atom.no, *vt, *tt_start, tuple)?;
                    count(*atom, tuple, 1)?;
                }
                LogRecord::CloseVersion {
                    atom,
                    vt_start,
                    tt_end,
                    ..
                } => {
                    let store = self.store(atom.ty)?;
                    let Some(closed) = store.close_version(atom.no, *vt_start, *tt_end)? else {
                        return Err(Error::internal(format!(
                            "apply of tt {tt}: close of missing version {atom} @vt {vt_start:?}"
                        )));
                    };
                    count(*atom, &closed, -1)?;
                }
                _ => {}
            }
        }
        drop(catalog);
        deltas.sort_unstable_by_key(|d| d.0);
        for run in deltas.chunk_by(|a, b| a.0 == b.0) {
            let ((ty, attr, key), by) = (run[0].0, run.iter().map(|d| d.1).sum());
            let Some(idx) = self.index(ty, attr).filter(|_| by != 0) else {
                continue;
            };
            if !add_to_count(&idx, key, by)? {
                return Err(Error::internal(format!(
                    "apply of tt {tt}: the count of {} under value {} of attribute #{} \
                     would drop below zero",
                    AtomId::new(ty, AtomNo(key.lo)),
                    key.hi,
                    attr.0
                )));
            }
        }
        // Planner statistics age per changed atom.
        for atom in changed {
            self.stats.note(atom.ty.0);
        }
        publish(self, tt);
        Ok(())
    }

    /// Redoes one logged commit at `tt` over the stores: the one replay
    /// routine of a replica's [`crate::repl::WalApplier`] and of crash
    /// recovery. Raises the atom-number allocators past the commit's
    /// inserts (a promoted replica or a reopened leader never reuses one),
    /// then applies the batch as it stands through
    /// [`Database::apply_commit`], reading no store first, and publishes
    /// via [`Database::publish_replicated`]. A close that finds no version
    /// to close fails the replay.
    pub(crate) fn replay_commit(&self, tt: TimePoint, recs: &[LogRecord]) -> Result<()> {
        self.flush_if_pressured()?;
        for rec in recs {
            if let LogRecord::InsertVersion { atom, .. } = rec {
                self.bump_atom_no_at_least(atom.ty, atom.no.0 + 1);
            }
        }
        self.apply_commit(tt, recs, Database::publish_replicated)
    }

    /// The commit stripe table.
    pub(crate) fn stripes(&self) -> &StripeLocks {
        &self.stripes
    }

    /// The next begin-order id (wait-die priority; smaller = older).
    pub(crate) fn next_txn_id(&self) -> u64 {
        self.txn_seq.fetch_add(1, Ordering::AcqRel) + 1
    }

    // ---- snapshot reads ----

    /// Pins a read view: the published clock. All committed state
    /// `<= view.tt` is stable under the view regardless of later commits.
    pub fn pin_view(&self) -> ReadView {
        ReadView { tt: self.now() }
    }

    /// The versions of `atom` visible under `view` — the snapshot
    /// counterpart of [`Database::current_versions`]. Fast path: the
    /// store's current-state accessor (for the split store that skips the
    /// history heap entirely), kept when no change past the view had begun
    /// to reach the store by the time it returned; otherwise
    /// `versions_at(view.tt)`, which later commits cannot perturb (their
    /// versions start after `view.tt`).
    pub fn versions_at_view(&self, atom: AtomId, view: &ReadView) -> Result<Vec<AtomVersion>> {
        let store = self.store(atom.ty)?;
        let current = store.current_versions(atom.no);
        if !store.changed_after(view.tt) {
            return current;
        }
        store.versions_at(atom.no, view.tt)
    }

    // ---- observability plumbing ----

    /// Registers the engine-wide gauges: buffer-pool counters (polled via
    /// [`BufferPool::stats`]), aggregate physical disk I/O over every
    /// registered file, and the WAL's own counter handles. Store counters
    /// are registered per store in [`Database::open_or_create_store`].
    fn register_engine_metrics(&self) {
        let pool = self.pool.clone();
        macro_rules! pool_gauge {
            ($name:literal, $field:ident) => {{
                let p = pool.clone();
                self.obs.register_gauge($name, "", move || p.stats().$field);
            }};
        }
        pool_gauge!("pool.fetches", fetches);
        pool_gauge!("pool.hits", hits);
        pool_gauge!("pool.misses", misses);
        pool_gauge!("pool.evictions", evictions);
        pool_gauge!("pool.writebacks", writebacks);

        macro_rules! disk_gauge {
            ($name:literal, $field:ident) => {{
                let disks = Arc::clone(&self.disks);
                self.obs.register_gauge($name, "", move || {
                    disks.lock().iter().map(|d| d.io_stats().$field).sum()
                });
            }};
        }
        disk_gauge!("disk.reads", reads);
        disk_gauge!("disk.writes", writes);
        disk_gauge!("disk.bytes_read", bytes_read);
        disk_gauge!("disk.bytes_written", bytes_written);
        disk_gauge!("disk.syncs", syncs);

        let wo = self.wal.obs();
        self.obs.register_counter("wal.appends", "", &wo.appends);
        self.obs.register_counter("wal.bytes", "", &wo.bytes);
        self.obs.register_counter("wal.fsyncs", "", &wo.fsyncs);
        self.obs
            .register_histogram("wal.group_size", "", &wo.group_size);

        self.obs
            .register_counter("txn.stripe_waits", "", &self.stripes.waits);
        self.obs
            .register_counter("txn.wait_die_aborts", "", &self.stripes.aborts);
        self.obs
            .register_counter("segment.compactions", "", &self.compactions);
    }

    /// Registers one store's counter handles under its kind label. Every
    /// per-type store of a database shares the kind, so the registry sums
    /// them into one labeled series per metric.
    fn register_store_obs(&self, store: &Store) {
        let label = store.kind().to_string();
        let o = store.obs();
        self.obs
            .register_counter("store.chain_walks", &label, &o.chain_walks);
        self.obs
            .register_counter("store.chain_steps", &label, &o.chain_steps);
        self.obs.register_counter(
            "store.delta_reconstructions",
            &label,
            &o.delta_reconstructions,
        );
        self.obs
            .register_counter("store.split_migrations", &label, &o.split_migrations);

        // Tiered-storage series: gauges poll the cached segment footers
        // (no page I/O), counters come from the set's own cells.
        let segs = store.segments().clone();
        macro_rules! seg_gauge {
            ($name:literal, $field:ident) => {{
                let s = segs.clone();
                self.obs
                    .register_gauge($name, &label, move || s.stats().$field);
            }};
        }
        seg_gauge!("segment.live", segments);
        seg_gauge!("segment.pages", pages);
        seg_gauge!("segment.versions", versions);
        seg_gauge!("segment.raw_bytes", raw_bytes);
        seg_gauge!("segment.comp_bytes", comp_bytes);
        self.obs
            .register_counter("segment.reads", &label, &segs.reads);
        self.obs
            .register_counter("segment.skips", &label, &segs.skips);
    }

    // ---- file plumbing ----

    /// Registers the file `name` with the pool. Unless it is `fresh` (about
    /// to be formatted), it must hold pages already: every file that a
    /// flushed control state names was flushed with it, so a missing or
    /// empty one is damage, reported naming `owner` and the file.
    fn register(&self, name: String, fresh: bool, owner: &str) -> Result<FileId> {
        let path = self.dir.join(&name);
        let holds_pages = self.vfs.exists(&path) && self.vfs.open(&path)?.len()? > 0;
        if !fresh && !holds_pages {
            return Err(Error::corruption(format!(
                "{owner}: file {name} is missing or empty"
            )));
        }
        let dm = Arc::new(DiskManager::open_with(self.vfs.as_ref(), &path)?);
        self.disks.lock().push(dm.clone());
        let id = self.pool.register_file(dm);
        let mut names = self.file_names.lock();
        debug_assert_eq!(names.len(), id.0 as usize);
        names.push(name);
        Ok(id)
    }

    /// Opens (or, when `fresh`, formats) the store of one atom type over
    /// the files its layout names.
    fn open_or_create_store(&self, ty: AtomTypeId, fresh: bool) -> Result<Arc<Store>> {
        let kind = self.config.store_kind;
        let owner = format!("atom type #{}", ty.0);
        let files = kind
            .file_suffixes()
            .iter()
            .map(|suffix| self.register(format!("t{}_{suffix}.tcm", ty.0), fresh, &owner))
            .collect::<Result<Vec<FileId>>>()?;
        let store = Store::open(kind, self.pool.clone(), &files, fresh)?;
        self.register_store_obs(&store);
        Ok(Arc::new(store))
    }

    fn open_or_create_index(
        &self,
        ty: AtomTypeId,
        attr: AttrId,
        fresh: bool,
    ) -> Result<Arc<BTree>> {
        let name = format!("t{}_idx{}.tcm", ty.0, attr.0);
        if fresh {
            let _ = self.vfs.remove(&self.dir.join(&name));
        }
        let file = self.register(name, fresh, &format!("atom type #{}", ty.0))?;
        Ok(Arc::new(if fresh {
            BTree::create(self.pool.clone(), file)?
        } else {
            BTree::open(self.pool.clone(), file)?
        }))
    }

    // ---- DDL ----

    /// Defines a new atom type with its store and index files. DDL is a
    /// journaled flush: the catalog change and the new type's formatted
    /// pages are made in the schema scope, where no other flush can land,
    /// and reach disk together in the flush that ends it.
    pub fn define_atom_type(
        &self,
        name: impl Into<String>,
        attrs: Vec<AttrDef>,
    ) -> Result<AtomTypeId> {
        let quiesced = Quiesced::schema(self);
        let id = self.catalog.write().define_atom_type(name, attrs)?;
        let store = self.open_or_create_store(id, true)?;
        self.stores.write().insert(id.0, store);
        {
            let catalog = self.catalog.read();
            let t = catalog.atom_type(id)?;
            for (i, a) in t.attrs.iter().enumerate() {
                if a.indexed {
                    let idx = self.open_or_create_index(id, AttrId(i as u16), true)?;
                    self.indexes.write().insert((id.0, i as u16), idx);
                }
            }
        }
        self.flush_dirty(&quiesced)?;
        Ok(id)
    }

    /// Defines a molecule type; like every DDL, a journaled flush.
    pub fn define_molecule_type(
        &self,
        name: impl Into<String>,
        root: AtomTypeId,
        edges: Vec<MoleculeEdge>,
        max_depth: Option<u32>,
    ) -> Result<MoleculeTypeId> {
        let quiesced = Quiesced::schema(self);
        let id = self
            .catalog
            .write()
            .define_molecule_type(name, root, edges, max_depth)?;
        self.flush_dirty(&quiesced)?;
        Ok(id)
    }

    /// Read access to the catalog.
    pub fn with_catalog<T>(&self, f: impl FnOnce(&Catalog) -> T) -> T {
        f(&self.catalog.read())
    }

    /// Resolves an atom type id by name.
    pub fn atom_type_id(&self, name: &str) -> Result<AtomTypeId> {
        Ok(self.catalog.read().atom_type_by_name(name)?.id)
    }

    /// Resolves a molecule type id by name.
    pub fn molecule_type_id(&self, name: &str) -> Result<MoleculeTypeId> {
        Ok(self.catalog.read().molecule_type_by_name(name)?.id)
    }

    pub(crate) fn store(&self, ty: AtomTypeId) -> Result<Arc<Store>> {
        self.stores
            .read()
            .get(&ty.0)
            .cloned()
            .ok_or_else(|| Error::UnknownSchemaObject(format!("store for atom type #{}", ty.0)))
    }

    pub(crate) fn index(&self, ty: AtomTypeId, attr: AttrId) -> Option<Arc<BTree>> {
        self.indexes.read().get(&(ty.0, attr.0)).cloned()
    }

    pub(crate) fn alloc_atom_no(&self, ty: AtomTypeId) -> AtomNo {
        let mut m = self.next_no.lock();
        let slot = m.entry(ty.0).or_insert(0);
        let no = *slot;
        *slot += 1;
        AtomNo(no)
    }

    /// Raises a type's atom-number allocator to at least `at_least`.
    /// Replay allocates nothing itself — it re-applies logged numbered
    /// inserts — but must keep the allocator ahead of every replayed
    /// number so a later insert never reuses one.
    pub(crate) fn bump_atom_no_at_least(&self, ty: AtomTypeId, at_least: u64) {
        let mut m = self.next_no.lock();
        let slot = m.entry(ty.0).or_insert(0);
        if *slot < at_least {
            *slot = at_least;
        }
    }

    // ---- transactions ----

    /// Begins a write transaction. Transactions lock the commit stripe of
    /// every atom type they touch at first touch; a conflicting younger
    /// transaction aborts with a retryable wait-die error
    /// ([`crate::stripes::is_wait_die_abort`]) while an older one waits,
    /// so disjoint writers run fully in parallel and deadlock is
    /// impossible.
    pub fn begin(&self) -> Txn<'_> {
        Txn::new(self, false)
    }

    /// Like [`Database::begin`], but any stripe conflict aborts immediately
    /// instead of ever blocking. A test seam: it lets the model-based
    /// concurrency oracle force a deterministic schedule; no product path
    /// uses it.
    pub fn begin_no_wait(&self) -> Txn<'_> {
        Txn::new(self, true)
    }

    pub(crate) fn wal(&self) -> &Wal {
        &self.wal
    }

    // ---- replication (leader side) ----

    /// The durable (replicable) WAL horizon, an LSN — how far a
    /// subscriber can be streamed.
    pub fn wal_durable_len(&self) -> u64 {
        self.wal.durable_len()
    }

    /// Reads up to `max_bytes` of raw durable WAL frames starting at
    /// `from` for a replication subscriber (see [`tcom_wal::Wal::read_chunk`]).
    /// A position below the oldest retained segment streams from that
    /// segment's head checkpoint; one past the durable end or off a frame
    /// boundary is an error.
    pub fn wal_chunk(&self, from: Lsn, max_bytes: usize) -> Result<WalChunk> {
        self.wal.read_chunk(from, max_bytes)
    }

    /// True when this database is a read-only replication follower.
    pub fn is_replica(&self) -> bool {
        self.replica.load(Ordering::Acquire)
    }

    pub(crate) fn set_replica_mode(&self, on: bool) {
        self.replica.store(on, Ordering::Release);
    }

    pub(crate) fn note_commit(&self) -> Result<()> {
        let n = self.txns_since_ckpt.fetch_add(1, Ordering::AcqRel) + 1;
        if self.config.checkpoint_interval > 0 && n >= self.config.checkpoint_interval {
            self.checkpoint()?;
        }
        Ok(())
    }

    // ---- reads (committed state) ----
    //
    // No read below takes `commit_lock` or validates against a commit:
    // the stores are safe beside the applier, and a read answers as of
    // one published tt — its own pinned view where it reads current
    // state, a pinned [`ReadView`] across calls where the caller needs one.

    /// The current versions of an atom (sorted by valid time), as of a
    /// view pinned for the call.
    pub fn current_versions(&self, atom: AtomId) -> Result<Vec<AtomVersion>> {
        self.versions_at_view(atom, &self.pin_view())
    }

    /// The current tuple valid at `vt`, if any.
    pub fn current_tuple(&self, atom: AtomId, vt: TimePoint) -> Result<Option<Tuple>> {
        Ok(self
            .current_versions(atom)?
            .into_iter()
            .find(|v| v.vt.contains(vt))
            .map(|v| v.tuple))
    }

    /// The versions recorded at transaction time `tt` (sorted by valid
    /// time); `TimePoint::FOREVER` means the current state, as of a view
    /// pinned for the call.
    pub fn versions_at(&self, atom: AtomId, tt: TimePoint) -> Result<Vec<AtomVersion>> {
        self.store(atom.ty)?.versions_at(atom.no, self.pinned(tt))
    }

    /// `tt`, with `FOREVER` pinned to the published clock.
    fn pinned(&self, tt: TimePoint) -> TimePoint {
        if tt.is_forever() {
            self.now()
        } else {
            tt
        }
    }

    /// Index-backed transaction-time slice of a whole atom type: calls `f`
    /// per atom with at least one version visible at `tt`, in ascending
    /// atom-number order, versions sorted by valid time — the same groups a
    /// per-atom [`Database::versions_at`] sweep produces, but driven by the
    /// store's transaction-time interval index. `TimePoint::FOREVER` means
    /// the current state, as of a view pinned for the call. `f` returning
    /// `false` stops the scan.
    ///
    /// The slice is collected first and then streamed to `f`, so `f` may
    /// read the database itself.
    pub fn slice_at(
        &self,
        ty: AtomTypeId,
        tt: TimePoint,
        f: &mut dyn FnMut(AtomNo, Vec<AtomVersion>) -> Result<bool>,
    ) -> Result<()> {
        for (no, vs) in self.store(ty)?.slice_at(self.pinned(tt))? {
            if !f(no, vs)? {
                break;
            }
        }
        Ok(())
    }

    /// The single version visible at bitemporal point `(tt, vt)`, if any.
    pub fn version_at(
        &self,
        atom: AtomId,
        tt: TimePoint,
        vt: TimePoint,
    ) -> Result<Option<AtomVersion>> {
        Ok(self
            .versions_at(atom, tt)?
            .into_iter()
            .find(|v| v.vt.contains(vt)))
    }

    /// The full recorded history of an atom (newest first), as of a view
    /// pinned for the call: no version of a later commit, and a version a
    /// later commit closes still open.
    pub fn history(&self, atom: AtomId) -> Result<Vec<AtomVersion>> {
        let view = self.pin_view();
        let mut vs = self.store(atom.ty)?.history(atom.no)?;
        vs.retain(|v| v.tt.start() <= view.tt);
        for v in &mut vs {
            if v.tt.end() > view.tt {
                v.tt = Interval::from_start(v.tt.start());
            }
        }
        Ok(vs)
    }

    /// True iff the atom was ever inserted.
    pub fn atom_exists(&self, atom: AtomId) -> Result<bool> {
        self.store(atom.ty)?.exists(atom.no)
    }

    /// All atom ids of a type (whether currently visible or not).
    pub fn all_atoms(&self, ty: AtomTypeId) -> Result<Vec<AtomId>> {
        let atoms = self.store(ty)?.atoms()?;
        Ok(atoms.into_iter().map(|no| AtomId::new(ty, no)).collect())
    }

    /// Index range scan over an indexed attribute's **current** values:
    /// returns atoms having a current version whose encoded attribute value
    /// lies in `[lo_enc, hi_enc)`, each once, in ascending atom order.
    pub fn index_range(
        &self,
        ty: AtomTypeId,
        attr: AttrId,
        lo_enc: u64,
        hi_enc: u64,
    ) -> Result<Vec<AtomId>> {
        self.index_scan(ty, attr, BKey::new(lo_enc, 0), BKey::new(hi_enc, 0))
    }

    /// Like [`Database::index_range`] but with an **inclusive** encoded
    /// upper bound (what comparison predicates want).
    pub fn index_range_inclusive(
        &self,
        ty: AtomTypeId,
        attr: AttrId,
        lo_enc: u64,
        hi_enc: u64,
    ) -> Result<Vec<AtomId>> {
        self.index_scan(ty, attr, BKey::min_for(lo_enc), BKey::max_for(hi_enc))
    }

    /// The atoms holding a value in `[lo_enc, hi_enc]` under `view`, in
    /// ascending order: a probe of the live value index, exact at the view
    /// when no change past the view had begun to reach the type's store by
    /// the probe's end (after one, an atom whose value it changed may sit
    /// under its new key only). So the store's stamp is checked once,
    /// after the probe, and when it moved the atoms of
    /// [`Database::index_range_asof`] at the view's tt answer instead.
    pub fn index_range_at_view(
        &self,
        ty: AtomTypeId,
        attr: AttrId,
        lo_enc: u64,
        hi_enc: u64,
        view: &ReadView,
    ) -> Result<Vec<AtomId>> {
        let atoms = self.index_range_inclusive(ty, attr, lo_enc, hi_enc)?;
        if !self.store(ty)?.changed_after(view.tt) {
            return Ok(atoms);
        }
        let groups = self.index_range_asof(ty, attr, lo_enc, hi_enc, view.tt)?;
        Ok(groups.into_iter().map(|(atom, _)| atom).collect())
    }

    /// The atoms under the value-index keys `[lo, hi)`.
    fn index_scan(&self, ty: AtomTypeId, attr: AttrId, lo: BKey, hi: BKey) -> Result<Vec<AtomId>> {
        let mut out = Vec::new();
        let idx = self.value_index(ty, attr)?;
        probe_into(&idx, ty, lo, hi, &mut out)?;
        Ok(sorted_unique(out))
    }

    /// The past-time counterpart of [`Database::index_range_inclusive`]:
    /// every atom that may have a version visible at transaction time `tt`
    /// whose encoded attribute value lies in `[lo_enc, hi_enc]`, in
    /// ascending atom order, each with its versions visible at `tt` sorted
    /// by valid time. A version visible at `tt` is either still current,
    /// and then the value index holds its atom, or it was closed after
    /// `tt`, and then the closed half of the type's slice at `tt` holds it.
    /// An atom the index holds comes with all its versions visible at
    /// `tt`; one only the closed half names comes with the versions that
    /// half decoded, which include every one holding a value in range (its
    /// open ones do not, or the index would hold it). Callers re-apply
    /// their predicate, which rules out every version left out.
    ///
    /// The index is probed before the closed half is read: a commit closes
    /// a version in the store's time index before it takes the value out
    /// of the value index, so a version the probe misses is already in
    /// the closed half.
    pub fn index_range_asof(
        &self,
        ty: AtomTypeId,
        attr: AttrId,
        lo_enc: u64,
        hi_enc: u64,
        tt: TimePoint,
    ) -> Result<Vec<(AtomId, Vec<AtomVersion>)>> {
        let held = self.index_range_inclusive(ty, attr, lo_enc, hi_enc)?;
        let pos = attr.0 as usize;
        let in_range = |v: &AtomVersion| {
            encode_value(v.tuple.get(pos)).is_some_and(|e| lo_enc <= e && e <= hi_enc)
        };
        let mut groups: BTreeMap<AtomId, Vec<AtomVersion>> = self
            .store(ty)?
            .closed_at(tt)?
            .into_iter()
            .filter(|(_, vs)| vs.iter().any(in_range))
            .map(|(no, vs)| (AtomId::new(ty, no), vs))
            .collect();
        // A held atom is fetched whole; its closed group may lack its open
        // versions.
        for atom in held {
            groups.remove(&atom);
            let vs = self.versions_at(atom, tt)?;
            if !vs.is_empty() {
                groups.insert(atom, vs);
            }
        }
        Ok(groups.into_iter().collect())
    }

    fn value_index(&self, ty: AtomTypeId, attr: AttrId) -> Result<Arc<BTree>> {
        self.index(ty, attr).ok_or_else(|| {
            Error::query(format!(
                "no index on attribute #{} of type #{}",
                attr.0, ty.0
            ))
        })
    }

    // ---- recovery ----

    /// Crash recovery: redoes the logged work the store files do not hold
    /// yet, in one WAL pass from the control file's WAL watermark, then
    /// checkpoints. The pass also finds the log's valid end, where the
    /// torn tail is cut. The control file's clock says how far the files
    /// reach; each committed batch above it goes
    /// through [`Database::replay_commit`], the replica's routine, and
    /// batches at or below it are skipped unread. A batch whose `Commit`
    /// never became durable is dropped. A segment swap adopts its segment
    /// when the control file does not list it yet, and its heap extraction
    /// is redone (it finds nothing when the files already hold it).
    /// `controlled` says whether the directory had a control file;
    /// `retired` lists the WAL segments it says a checkpoint retired.
    fn recover(&self, controlled: bool, retired: &[Lsn]) -> Result<()> {
        let _span = self.obs.span("db.recover");
        // Below the watermark, so the pass never reads them; removed first,
        // before a pressure flush could write a control file without them.
        self.wal.remove_leftovers(retired)?;
        let mut batch: Vec<LogRecord> = Vec::new();
        let start = self.wal.start();
        let mut cursor = self.wal.read_from(start)?;
        while let Some((lsn, rec)) = cursor.next_record()? {
            let head = lsn == start && matches!(rec, LogRecord::Checkpoint { .. });
            if !controlled && !head {
                return Err(Error::corruption(format!(
                    "{} is missing, but the WAL holds records past its head checkpoint: \
                     without it the store files cannot say which of them they contain",
                    self.dir.join(CONTROL_FILE).display()
                )));
            }
            match rec {
                LogRecord::Checkpoint {
                    clock,
                    next_atom_nos,
                } => self.restore_counters(clock, &next_atom_nos),
                LogRecord::Begin { .. } => {
                    batch.clear();
                    batch.push(rec);
                }
                LogRecord::InsertVersion { .. } | LogRecord::CloseVersion { .. } => batch.push(rec),
                LogRecord::Commit { txn } => {
                    batch.push(rec);
                    let tt = TimePoint(txn.0);
                    if tt > self.now() {
                        self.replay_commit(tt, &batch)?;
                    }
                    batch.clear();
                }
                LogRecord::SegmentSwap { ty, seg, cutoff } => {
                    // No index work: the swap moves versions without
                    // changing the type's logical content, and the
                    // extraction keeps (and repacks) the store's own time
                    // index.
                    let store = self.store(AtomTypeId(ty))?;
                    if !store.segments().list().iter().any(|s| s.seg == seg) {
                        self.add_segment(&store, ty, seg)?;
                    }
                    store.extract_all_closed(&store.maintenance(), cutoff)?;
                }
            }
        }
        self.wal.cut_tail(cursor.position())?;
        self.remove_compaction_leftovers()?;
        // Leave a clean state: everything applied, the log rolled.
        self.checkpoint()
    }

    /// Raises the clocks to `published` and the atom-number allocators to
    /// `next_atom_nos`, as the control file or a checkpoint record recorded
    /// them.
    fn restore_counters(&self, published: TimePoint, next_atom_nos: &[(u32, u64)]) {
        self.publish_replicated(published);
        for &(ty, no) in next_atom_nos {
            self.bump_atom_no_at_least(AtomTypeId(ty), no);
        }
    }

    /// A type's live `(segment reads, fence skips)` counters — how many
    /// segments were actually scanned vs. skipped on their interval
    /// fences. EXPLAIN ANALYZE samples these around each access operator.
    pub fn segment_counters(&self, ty: AtomTypeId) -> Result<(u64, u64)> {
        Ok(self.store(ty)?.segments().counters())
    }

    /// Test hook: direct access to a value index (for corruption-injection
    /// tests). Hidden from docs; not part of the public contract.
    #[doc(hidden)]
    pub fn with_index_for_test(&self, ty: AtomTypeId, attr: AttrId, f: impl FnOnce(&BTree)) {
        if let Some(idx) = self.index(ty, attr) {
            f(&idx);
        }
    }

    /// Simulates a crash: the database is dropped **without** the shutdown
    /// checkpoint, leaving whatever subset of pages the buffer manager
    /// happened to write back. Recovery on the next open must restore a
    /// consistent committed state. Test/benchmark hook.
    pub fn crash(self) {
        self.skip_checkpoint_on_drop.store(true, Ordering::Release);
        drop(self);
    }

    // ---- statistics ----

    /// Buffer pool statistics.
    pub fn buffer_stats(&self) -> BufferStats {
        self.pool.stats()
    }

    /// The metrics registry. Use it to open spans
    /// (`db.obs().span("phase")`), install a span sink, or register extra
    /// counters next to the engine's own.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Typed snapshot of every engine metric (buffer pool, disk I/O, WAL,
    /// version stores, query executor). Render it with
    /// [`MetricsSnapshot::render_text`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Planner statistics for one atom type: a cached store-shape snapshot
    /// (refreshed only when commit-time change notes say it's stale) plus
    /// live buffer-pool residency. Cheap enough to call per statement.
    pub fn type_stats(&self, ty: AtomTypeId) -> Result<crate::stats::TypeStats> {
        let name = self.with_catalog(|c| c.atom_type(ty).map(|t| t.name.clone()))?;
        let store = self.store(ty)?;
        let (base, changes) = match self.stats.get_fresh(ty.0) {
            Some(cached) => cached,
            None => {
                let fresh = store.stats()?;
                self.stats.put(ty.0, fresh);
                (fresh, 0)
            }
        };
        let segment_fences = store
            .segments()
            .list()
            .iter()
            .map(|s| crate::stats::SegmentFence {
                tt_min: s.footer().tt_min(),
                tt_max: s.footer().tt_max(),
                pages: s.pages(),
            })
            .collect();
        Ok(crate::stats::TypeStats {
            ty,
            name,
            kind: store.kind(),
            store: base,
            changes_since: changes,
            resident_pages: store.resident_pages(),
            segment_fences,
        })
    }

    /// [`Database::type_stats`] for every cataloged atom type.
    pub fn all_type_stats(&self) -> Result<Vec<crate::stats::TypeStats>> {
        let ids: Vec<AtomTypeId> =
            self.with_catalog(|c| c.atom_types().iter().map(|t| t.id).collect());
        ids.into_iter().map(|id| self.type_stats(id)).collect()
    }

    /// Bytes the retained WAL segments hold.
    pub fn wal_len(&self) -> u64 {
        self.wal.retained_len()
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        if !self.skip_checkpoint_on_drop.load(Ordering::Acquire) {
            // Best-effort clean shutdown; failures only cost recovery time.
            let _ = self.checkpoint();
        }
    }
}

/// Adds `by` to the value-index count under `key` in one descent, removing
/// the entry at zero; `false` when the count would drop below zero.
fn add_to_count(idx: &BTree, key: BKey, by: i64) -> Result<bool> {
    let mut sum = 0;
    idx.update(key, |old| {
        sum = old.unwrap_or(0) as i64 + by;
        (sum > 0).then_some(sum as u64)
    })?;
    Ok(sum >= 0)
}

/// Converts store versions to the DML planner's view of current state.
pub(crate) fn to_current(vs: Vec<AtomVersion>) -> Vec<crate::dml::CurrentVersion> {
    vs.into_iter()
        .map(|v| crate::dml::CurrentVersion {
            vt: v.vt,
            tuple: v.tuple,
        })
        .collect()
}

/// Appends the atoms under the value-index keys `[lo, hi)` to `out`.
fn probe_into(
    idx: &BTree,
    ty: AtomTypeId,
    lo: BKey,
    hi: BKey,
    out: &mut Vec<AtomId>,
) -> Result<()> {
    idx.scan_range(lo, hi, |k, _| {
        out.push(AtomId::new(ty, AtomNo(k.lo)));
        Ok(true)
    })
}

/// `atoms` in ascending order, each once: the value index yields an atom
/// once per value it holds in range, in value order.
fn sorted_unique(mut atoms: Vec<AtomId>) -> Vec<AtomId> {
    atoms.sort_unstable();
    atoms.dedup();
    atoms
}
