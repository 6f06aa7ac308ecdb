//! The database engine: lifecycle, DDL, read API, checkpointing and
//! crash recovery.
//!
//! A database is a directory:
//!
//! ```text
//! <dir>/db.meta            persisted creation options (store kind)
//! <dir>/catalog.tcat       the schema (atomic rewrite on DDL)
//! <dir>/wal.log            redo-only write-ahead log
//! <dir>/t<ty>_*.tcm        per-type store files (layout depends on kind)
//! <dir>/t<ty>_idx<a>.tcm   value indexes over indexed attributes
//! ```
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
//!   take `commit_lock`. Structural hazards (B⁺-tree splits, value-index
//!   remove/insert pairs, split-store migrations) are covered by a
//!   per-atom-type apply seqlock: reads of a type whose apply is in
//!   flight validate against the type's sequence counter and retry.
//! * **Striped writers.** Write transactions lock the commit stripe of
//!   every atom type they touch at first touch (wait-die on the begin
//!   order, see [`crate::stripes`]); disjoint writers build overlays and
//!   commit in parallel, serializing only in the short apply section.
//! * **Ordered apply, group commit.** A committing transaction draws its
//!   tt and stages all WAL records atomically under `wal_order` (so WAL
//!   order equals tt order and a torn WAL tail always cuts a tt-suffix),
//!   shares a leader/follower fsync with concurrently arriving commits,
//!   then waits for its *publish turn* (`published == tt - 1`), applies
//!   under `commit_lock.read()`, and publishes. `commit_lock.write()` is
//!   reserved for page flushes, checkpoints and pruning, which must
//!   exclude appliers — never readers.

use crate::config::DbConfig;
use crate::journal::{self, JournalEntry};
use crate::stripes::{StripeLocks, MAINTENANCE_ID};
use crate::txn::Txn;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, HashSet};
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
use tcom_version::{write_segment_file, Segment, Store, StoreKind, StoreStats};
use tcom_wal::{LogRecord, Wal, WalChunk};

/// A pinned snapshot for reads: the published transaction-time clock at
/// pin time, plus the pinned atom type's apply sequence (for detecting
/// concurrent applies to that type). Cheap to create per statement via
/// [`Database::pin_view`]; committed state at or before `tt` is immutable,
/// so a view never goes stale — it just stops seeing newer commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadView {
    /// The pinned transaction time: the view sees exactly the commits
    /// with `tt_start <= tt`.
    pub tt: TimePoint,
    ty: u32,
    seq: u64,
}

/// Guard marking atom types as under apply (see [`Database`] internals);
/// dropping it re-opens the types' validated read sections.
pub(crate) struct ApplyGuard {
    cells: Vec<Arc<AtomicU64>>,
}

impl Drop for ApplyGuard {
    fn drop(&mut self) {
        for c in &self.cells {
            c.fetch_add(1, Ordering::AcqRel);
        }
    }
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
    /// Per-atom-type apply sequence counters (odd while an apply mutates
    /// the type). Readers of a type validate against its counter.
    apply_seqs: RwLock<HashMap<u32, Arc<AtomicU64>>>,
    /// Serializes the tt draw + WAL staging of commits, making WAL order
    /// equal tt order (the crash matrix relies on durable commits always
    /// forming a tt-prefix).
    pub(crate) wal_order: Mutex<()>,
    /// Serializes DDL and maintenance (pruning).
    maint: Mutex<()>,
    /// Per-atom-type commit stripes (wait-die).
    stripes: StripeLocks,
    /// Begin-order ids for wait-die priorities (1-based; 0 is reserved
    /// for maintenance).
    txn_seq: AtomicU64,
    next_no: Mutex<HashMap<u32, u64>>,
    /// Appliers shared, page flush / checkpoint / prune exclusive.
    /// Readers never touch this lock.
    pub(crate) commit_lock: RwLock<()>,
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
    /// recovery (WAL replay) when the log holds work past the last
    /// checkpoint.
    pub fn open(dir: impl AsRef<Path>, config: DbConfig) -> Result<Database> {
        Database::open_with_vfs(dir, config, StdVfs::arc())
    }

    /// Like [`Database::open`] but with an explicit [`Vfs`] for all store,
    /// WAL and journal I/O. The database directory itself plus the two
    /// DDL-time artifacts (`db.meta`, `catalog.tcat`) stay on the real file
    /// system: they change only on create/DDL, outside the fault domain the
    /// crash harness probes.
    pub fn open_with_vfs(
        dir: impl AsRef<Path>,
        config: DbConfig,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Database> {
        let dir = dir.as_ref().to_owned();
        std::fs::create_dir_all(&dir)?;

        // Persisted creation options.
        let meta_path = dir.join("db.meta");
        let config = if meta_path.exists() {
            let text = std::fs::read_to_string(&meta_path)?;
            let stored_kind = parse_meta(&text)?;
            if stored_kind != config.store_kind {
                // The on-disk layout wins; the caller's runtime knobs stay.
                DbConfig {
                    store_kind: stored_kind,
                    ..config
                }
            } else {
                config
            }
        } else {
            std::fs::write(
                &meta_path,
                format!("tcom v1\nstore_kind={}\n", config.store_kind),
            )?;
            config
        };

        // A complete checkpoint journal means a crash hit the in-place
        // flush window; re-apply it before anything reads the store files.
        let journal_path = dir.join("ckpt.jrnl");
        if let Some(entries) = journal::read_journal(vfs.as_ref(), &journal_path)? {
            journal::apply_journal(vfs.as_ref(), &dir, &journal_path, &entries)?;
        } else {
            journal::truncate_journal(vfs.as_ref(), &journal_path)?;
        }

        // No-steal: dirty pages reach disk only via journal-protected
        // flushes, keeping the on-disk state a consistent snapshot.
        let pool = BufferPool::with_shards(config.buffer_frames, config.buffer_shards, false);
        let wal = Wal::open_with(vfs.as_ref(), dir.join("wal.log"), config.sync_policy)?;

        let catalog_path = dir.join("catalog.tcat");
        let catalog = if catalog_path.exists() {
            Catalog::load(&catalog_path)?
        } else {
            Catalog::new()
        };

        let db = Database {
            dir,
            config,
            vfs,
            pool,
            catalog: RwLock::new(catalog),
            stores: RwLock::new(HashMap::new()),
            indexes: RwLock::new(HashMap::new()),
            wal,
            clock: AtomicU64::new(0),
            published: AtomicU64::new(0),
            publish_mx: Mutex::new(()),
            publish_cv: Condvar::new(),
            apply_seqs: RwLock::new(HashMap::new()),
            wal_order: Mutex::new(()),
            maint: Mutex::new(()),
            stripes: StripeLocks::new(config.effective_commit_stripes()),
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

        // Open stores and indexes for every cataloged type.
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

        // Segments must be live before WAL replay: the replay's duplicate
        // checks read merged (heap + segment) histories.
        db.load_segments()?;
        db.recover()?;
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

    /// Publishes `tt` on a replica: advances `published` monotonically,
    /// *without* the leader's contiguity invariant. A leader's WAL can
    /// legitimately skip transaction times (a commit that failed after its
    /// tt draw published empty, leaving no records), so the replay loop —
    /// single-threaded and in WAL order — publishes whatever tt it just
    /// applied. Also advances the allocation clock so a later promotion
    /// (or the replica's own checkpoints) never reuses a leader tt.
    pub(crate) fn publish_replicated(&self, tt: TimePoint) {
        let _g = self.publish_mx.lock();
        self.clock.fetch_max(tt.0, Ordering::AcqRel);
        self.published.fetch_max(tt.0, Ordering::AcqRel);
        self.publish_cv.notify_all();
    }

    /// Waits until every drawn transaction time has been published (no
    /// commit between WAL staging and publish). Only meaningful while the
    /// caller prevents new tt draws (holding `wal_order` or every stripe).
    fn drain_commits(&self) {
        let mut g = self.publish_mx.lock();
        while self.published.load(Ordering::Acquire) != self.clock.load(Ordering::Acquire) {
            self.publish_cv.wait(&mut g);
        }
    }

    /// The commit stripe table.
    pub(crate) fn stripes(&self) -> &StripeLocks {
        &self.stripes
    }

    /// The next begin-order id (wait-die priority; smaller = older).
    pub(crate) fn next_txn_id(&self) -> u64 {
        self.txn_seq.fetch_add(1, Ordering::AcqRel) + 1
    }

    // ---- snapshot read machinery ----

    /// The apply sequence cell of an atom type (created on first use).
    fn apply_seq_cell(&self, ty: u32) -> Arc<AtomicU64> {
        if let Some(c) = self.apply_seqs.read().get(&ty) {
            return c.clone();
        }
        self.apply_seqs.write().entry(ty).or_default().clone()
    }

    /// Marks the given atom types as under apply (their sequence counters
    /// go odd); the guard's drop makes them even again. Readers of those
    /// types retry their validated sections in between.
    pub(crate) fn begin_apply(&self, tys: &[u32]) -> ApplyGuard {
        let cells: Vec<Arc<AtomicU64>> = tys.iter().map(|&t| self.apply_seq_cell(t)).collect();
        for c in &cells {
            let prev = c.fetch_add(1, Ordering::AcqRel);
            debug_assert_eq!(prev & 1, 0, "nested apply on one type");
        }
        ApplyGuard { cells }
    }

    /// Pins a read view of an atom type: the published clock plus the
    /// type's apply sequence, captured coherently (retries while an apply
    /// to the type is in flight). All committed state `<= view.tt` is
    /// stable under the view regardless of later commits.
    pub fn pin_view(&self, ty: AtomTypeId) -> ReadView {
        let cell = self.apply_seq_cell(ty.0);
        loop {
            let seq = cell.load(Ordering::Acquire);
            if seq & 1 == 0 {
                let tt = TimePoint(self.published.load(Ordering::Acquire));
                if cell.load(Ordering::Acquire) == seq {
                    return ReadView { tt, ty: ty.0, seq };
                }
            }
            std::thread::yield_now();
        }
    }

    /// True while no apply to the view's type has started since the view
    /// was pinned — reads made so far are coherent with the view.
    pub fn view_valid(&self, view: &ReadView) -> bool {
        self.apply_seq_cell(view.ty).load(Ordering::Acquire) == view.seq
    }

    /// Runs `f` in a validated section: the result is returned only if no
    /// apply to `ty` ran concurrently; otherwise `f` retries. `f` must be
    /// side-effect free (it may run multiple times).
    pub(crate) fn read_stable<T>(&self, ty: AtomTypeId, f: impl Fn() -> Result<T>) -> Result<T> {
        let cell = self.apply_seq_cell(ty.0);
        loop {
            let seq = cell.load(Ordering::Acquire);
            if seq & 1 == 0 {
                let r = f();
                if cell.load(Ordering::Acquire) == seq {
                    return r;
                }
            }
            std::thread::yield_now();
        }
    }

    /// The versions of `atom` visible under `view` — the snapshot
    /// counterpart of [`Database::current_versions`]. Fast path: when no
    /// apply to the type has run since the view was pinned, the store's
    /// current-state accessor answers directly (for the split store that
    /// skips the history heap entirely); otherwise falls back to a
    /// validated `versions_at(view.tt)`, which later commits cannot
    /// perturb (their versions start after `view.tt`).
    pub fn versions_at_view(&self, atom: AtomId, view: &ReadView) -> Result<Vec<AtomVersion>> {
        let store = self.store(atom.ty)?;
        if atom.ty.0 == view.ty {
            let cell = self.apply_seq_cell(view.ty);
            if cell.load(Ordering::Acquire) == view.seq {
                let r = store.current_versions(atom.no);
                if cell.load(Ordering::Acquire) == view.seq {
                    return r;
                }
            }
        }
        self.read_stable(atom.ty, || store.versions_at(atom.no, view.tt))
    }

    /// Test hook: holds `commit_lock` exclusively, stalling every commit
    /// apply, page flush and checkpoint — while snapshot readers must
    /// still make progress (the reader-liveness regression test drives a
    /// full scan to completion under this guard).
    #[doc(hidden)]
    pub fn block_applies_for_test(&self) -> parking_lot::RwLockWriteGuard<'_, ()> {
        self.commit_lock.write()
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

    fn register(&self, name: String, must_exist: bool) -> Result<(FileId, bool)> {
        let path = self.dir.join(&name);
        let existed = self.vfs.exists(&path) && self.vfs.open(&path)?.len()? > 0;
        if must_exist && !existed {
            return Err(Error::corruption(format!(
                "missing store file {}",
                path.display()
            )));
        }
        let dm = Arc::new(DiskManager::open_with(self.vfs.as_ref(), &path)?);
        self.disks.lock().push(dm.clone());
        let id = self.pool.register_file(dm);
        let mut names = self.file_names.lock();
        debug_assert_eq!(names.len(), id.0 as usize);
        names.push(name);
        Ok((id, existed))
    }

    /// Opens (or, when `fresh` or nothing is there yet, formats) the store
    /// of one atom type over the files its layout names. A cataloged type
    /// whose files are all empty is the crash window between the catalog
    /// save and the first page flush of `define_atom_type`; a *mix* of
    /// empty and non-empty files is damage no flush order produces.
    fn open_or_create_store(&self, ty: AtomTypeId, fresh: bool) -> Result<Arc<Store>> {
        let kind = self.config.store_kind;
        let (mut files, mut empty) = (Vec::new(), Vec::new());
        for suffix in kind.file_suffixes() {
            let name = format!("t{}_{suffix}.tcm", ty.0);
            let (file, existed) = self.register(name.clone(), false)?;
            files.push(file);
            if !existed {
                empty.push(name);
            }
        }
        let create = fresh || empty.len() == files.len();
        if let (false, Some(name)) = (create, empty.first()) {
            return Err(Error::corruption(format!(
                "atom type #{}: store file {name} is missing or empty beside its companions",
                ty.0
            )));
        }
        let store = Store::open(kind, self.pool.clone(), &files, create)?;
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
        let (file, existed) = self.register(name, false)?;
        Ok(Arc::new(if existed && !fresh {
            BTree::open(self.pool.clone(), file)?
        } else {
            BTree::create(self.pool.clone(), file)?
        }))
    }

    // ---- DDL ----

    /// Defines a new atom type (with its storage and index files) and
    /// persists the catalog. DDL is auto-committed and flushed.
    pub fn define_atom_type(
        &self,
        name: impl Into<String>,
        attrs: Vec<AttrDef>,
    ) -> Result<AtomTypeId> {
        let _m = self.maint.lock();
        let id = {
            let mut catalog = self.catalog.write();
            catalog.define_atom_type(name, attrs)?
        };
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
        self.catalog.read().save(self.dir.join("catalog.tcat"))?;
        // New (empty) files must survive a crash without WAL coverage.
        self.sync_pages()?;
        Ok(id)
    }

    /// Defines a molecule type and persists the catalog.
    pub fn define_molecule_type(
        &self,
        name: impl Into<String>,
        root: AtomTypeId,
        edges: Vec<MoleculeEdge>,
        max_depth: Option<u32>,
    ) -> Result<MoleculeTypeId> {
        let _m = self.maint.lock();
        let id = {
            let mut catalog = self.catalog.write();
            catalog.define_molecule_type(name, root, edges, max_depth)?
        };
        self.catalog.read().save(self.dir.join("catalog.tcat"))?;
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
    /// Replication replay allocates nothing itself — it re-applies the
    /// leader's numbered inserts — but must keep the allocator ahead of
    /// every replicated number so a promoted replica never reuses one.
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
    /// instead of ever blocking — the deterministic-schedule mode used by
    /// the model-based concurrency oracle.
    pub fn begin_no_wait(&self) -> Txn<'_> {
        Txn::new(self, true)
    }

    pub(crate) fn wal(&self) -> &Wal {
        &self.wal
    }

    // ---- replication (leader side) ----

    /// The WAL's current epoch. LSNs are byte offsets into one log
    /// incarnation; every checkpoint truncation draws a fresh epoch, so a
    /// replication subscriber must pair its resume LSN with the epoch it
    /// was streamed under.
    pub fn wal_epoch(&self) -> u64 {
        self.wal.epoch()
    }

    /// The durable (replicable) WAL horizon in bytes — how far a
    /// subscriber at the current epoch can be streamed.
    pub fn wal_durable_len(&self) -> u64 {
        self.wal.durable_len()
    }

    /// Reads up to `max_bytes` of raw durable WAL frames starting at
    /// `from` for a replication subscriber (see [`tcom_wal::Wal::read_chunk`]).
    /// An empty chunk whose `epoch` differs from the subscriber's means
    /// the log was truncated since — the subscriber restarts from LSN 0 of
    /// the returned epoch.
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
    // No read below takes `commit_lock`: per-call atomicity comes from the
    // type's apply seqlock (validated retry), cross-call snapshot
    // consistency from a pinned [`ReadView`] where the caller needs one.

    /// The current versions of an atom (sorted by valid time).
    pub fn current_versions(&self, atom: AtomId) -> Result<Vec<AtomVersion>> {
        let store = self.store(atom.ty)?;
        self.read_stable(atom.ty, || store.current_versions(atom.no))
    }

    /// The current tuple valid at `vt`, if any.
    pub fn current_tuple(&self, atom: AtomId, vt: TimePoint) -> Result<Option<Tuple>> {
        Ok(self
            .current_versions(atom)?
            .into_iter()
            .find(|v| v.vt.contains(vt))
            .map(|v| v.tuple))
    }

    /// The versions recorded at transaction time `tt` (sorted by valid time).
    pub fn versions_at(&self, atom: AtomId, tt: TimePoint) -> Result<Vec<AtomVersion>> {
        let store = self.store(atom.ty)?;
        self.read_stable(atom.ty, || store.versions_at(atom.no, tt))
    }

    /// Index-backed transaction-time slice of a whole atom type: calls `f`
    /// per atom with at least one version visible at `tt`, in ascending
    /// atom-number order, versions sorted by valid time — the same groups a
    /// per-atom [`Database::versions_at`] sweep produces, but driven by the
    /// store's transaction-time interval index. `TimePoint::FOREVER` means
    /// the current state. `f` returning `false` stops the scan.
    pub fn slice_at(
        &self,
        ty: AtomTypeId,
        tt: TimePoint,
        f: &mut dyn FnMut(AtomNo, Vec<AtomVersion>) -> Result<bool>,
    ) -> Result<()> {
        let store = self.store(ty)?;
        // Collected inside the validated section (so a concurrent apply
        // retries the enumeration, not the caller's side effects), then
        // streamed to `f` outside it.
        let groups = self.read_stable(ty, || store.slice_at(tt))?;
        for (no, vs) in groups {
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

    /// The full recorded history of an atom (newest first).
    pub fn history(&self, atom: AtomId) -> Result<Vec<AtomVersion>> {
        let store = self.store(atom.ty)?;
        self.read_stable(atom.ty, || store.history(atom.no))
    }

    /// True iff the atom was ever inserted.
    pub fn atom_exists(&self, atom: AtomId) -> Result<bool> {
        let store = self.store(atom.ty)?;
        self.read_stable(atom.ty, || store.exists(atom.no))
    }

    /// Scans all atoms of a type at bitemporal point `(tt, vt)`; `f`
    /// receives each visible `(atom, version)`; returning `false` stops.
    /// For `tt` at or before the published clock the scan is an atomic
    /// snapshot — versions recorded at `tt' <= tt` can never appear or
    /// disappear mid-scan, whatever commits concurrently.
    pub fn scan_at(
        &self,
        ty: AtomTypeId,
        tt: TimePoint,
        vt: TimePoint,
        mut f: impl FnMut(AtomId, &AtomVersion) -> Result<bool>,
    ) -> Result<()> {
        let store = self.store(ty)?;
        for atom in self.all_atoms(ty)? {
            let vs = self.read_stable(ty, || store.versions_at(atom.no, tt))?;
            for v in vs {
                if v.vt.contains(vt) {
                    if !f(atom, &v)? {
                        return Ok(());
                    }
                    break;
                }
            }
        }
        Ok(())
    }

    /// Scans the *current* state of a type at valid time `vt` — an atomic
    /// snapshot: the scan sees all of a concurrent commit or none of it.
    pub fn scan_current(
        &self,
        ty: AtomTypeId,
        vt: TimePoint,
        mut f: impl FnMut(AtomId, &AtomVersion) -> Result<bool>,
    ) -> Result<()> {
        let (atoms, view) = self.pinned_atoms(ty)?;
        for atom in atoms {
            let vs = self.versions_at_view(atom, &view)?;
            for v in vs {
                if v.vt.contains(vt) {
                    if !f(atom, &v)? {
                        return Ok(());
                    }
                    break;
                }
            }
        }
        Ok(())
    }

    /// All atom ids of a type (whether currently visible or not).
    pub fn all_atoms(&self, ty: AtomTypeId) -> Result<Vec<AtomId>> {
        let store = self.store(ty)?;
        self.read_stable(ty, || {
            let atoms = store.atoms()?;
            Ok(atoms.into_iter().map(|no| AtomId::new(ty, no)).collect())
        })
    }

    /// A type's atom ids together with a read view the enumeration is
    /// coherent with: no apply to the type ran between the directory scan
    /// and the view pin, so per-atom fetches through the view reconstruct
    /// exactly the published state the enumeration saw. The statement
    /// executor drives index probes the same way (probe, then re-check
    /// the view) for torn-free index-backed reads.
    pub fn pinned_atoms(&self, ty: AtomTypeId) -> Result<(Vec<AtomId>, ReadView)> {
        loop {
            let view = self.pin_view(ty);
            let atoms = self.all_atoms(ty)?;
            if self.view_valid(&view) {
                return Ok((atoms, view));
            }
        }
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

    /// The atoms under the value-index keys `[lo, hi)`.
    fn index_scan(&self, ty: AtomTypeId, attr: AttrId, lo: BKey, hi: BKey) -> Result<Vec<AtomId>> {
        let idx = self.index(ty, attr).ok_or_else(|| {
            Error::query(format!(
                "no index on attribute #{} of type #{}",
                attr.0, ty.0
            ))
        })?;
        self.read_stable(ty, || {
            let mut out = Vec::new();
            idx.scan_range(lo, hi, |k, _| {
                out.push(AtomId::new(ty, AtomNo(k.lo)));
                Ok(true)
            })?;
            // Index order is value order: an atom whose current versions
            // hold several values in range shows up once per value, apart.
            out.sort_unstable();
            out.dedup();
            Ok(out)
        })
    }

    // ---- index maintenance (called under the commit lock) ----

    /// Re-derives the index entries of `atom` for every indexed attribute,
    /// given its before- and after-commit current value sets.
    pub(crate) fn update_indexes_for(
        &self,
        atom: AtomId,
        before: &[Tuple],
        after: &[Tuple],
    ) -> Result<()> {
        let catalog = self.catalog.read();
        let t = catalog.atom_type(atom.ty)?;
        for (i, a) in t.attrs.iter().enumerate() {
            if !a.indexed {
                continue;
            }
            let attr = AttrId(i as u16);
            let Some(idx) = self.index(atom.ty, attr) else {
                continue;
            };
            let old: HashSet<u64> = before
                .iter()
                .filter_map(|tp| encode_value(tp.get(i)))
                .collect();
            let new: HashSet<u64> = after
                .iter()
                .filter_map(|tp| encode_value(tp.get(i)))
                .collect();
            for gone in old.difference(&new) {
                idx.remove(BKey::new(*gone, atom.no.0))?;
            }
            for added in new.difference(&old) {
                idx.insert(BKey::new(*added, atom.no.0), atom.no.0)?;
            }
        }
        Ok(())
    }

    /// Records that an atom of type `ty` changed in a commit, ageing the
    /// planner's cached statistics of the type.
    pub(crate) fn note_change(&self, ty: AtomTypeId) {
        self.stats.note(ty.0);
    }

    // ---- checkpoint & recovery ----

    /// Crash-atomically flushes every dirty page: the images go to the
    /// double-write journal first, then in place, then the journal is
    /// truncated. Does **not** touch the WAL — safe at any transaction
    /// boundary. Excludes in-flight commit applies (`commit_lock.write()`)
    /// so no torn multi-page store mutation reaches disk.
    pub fn sync_pages(&self) -> Result<()> {
        let _x = self.commit_lock.write();
        self.sync_pages_locked()
    }

    /// [`Database::sync_pages`] body, for callers already holding
    /// `commit_lock` exclusively (checkpoint, pruning, recovery).
    fn sync_pages_locked(&self) -> Result<()> {
        let dirty = self.pool.dirty_pages();
        if dirty.is_empty() {
            return Ok(());
        }
        let names = self.file_names.lock();
        let entries: Vec<JournalEntry> = dirty
            .into_iter()
            .map(|(file, page, image)| JournalEntry {
                file_name: names[file.0 as usize].clone(),
                page,
                image,
            })
            .collect();
        drop(names);
        let journal_path = self.dir.join("ckpt.jrnl");
        journal::write_journal(self.vfs.as_ref(), &journal_path, &entries)?;
        self.pool.flush_and_sync()?;
        journal::truncate_journal(self.vfs.as_ref(), &journal_path)?;
        Ok(())
    }

    /// The engine's buffer-pressure guard: with the no-steal policy, dirty
    /// pages accumulate until a flush; this flushes once more than half the
    /// pool is dirty. Called at transaction boundaries.
    pub(crate) fn flush_if_pressured(&self) -> Result<()> {
        if self.pool.dirty_count() * 2 >= self.pool.capacity() {
            self.sync_pages()?;
        }
        Ok(())
    }

    /// Flushes all data pages, fsyncs every file, and truncates the WAL to
    /// a fresh checkpoint record.
    ///
    /// Quiesce protocol: take `wal_order` so no new commit can stage WAL
    /// records, drain the publish pipeline so every staged commit has
    /// fully applied, then exclude appliers via `commit_lock.write()` and
    /// flush. The truncated WAL therefore never loses a commit that the
    /// flushed pages don't already contain.
    pub fn checkpoint(&self) -> Result<()> {
        let _span = self.obs.span("db.checkpoint");
        let _order = self.wal_order.lock();
        self.drain_commits();
        let _x = self.commit_lock.write();
        self.sync_pages_locked()?;
        let next_nos: Vec<(u32, u64)> = self
            .next_no
            .lock()
            .iter()
            .map(|(ty, no)| (*ty, *no))
            .collect();
        self.wal.reset_with(&LogRecord::Checkpoint {
            clock: self.now(),
            next_atom_nos: next_nos,
        })?;
        self.txns_since_ckpt.store(0, Ordering::Release);
        Ok(())
    }

    /// Recovery: replays committed transactions from the WAL with
    /// idempotent application, rebuilds value indexes when anything was
    /// replayed, and checkpoints.
    fn recover(&self) -> Result<()> {
        let _span = self.obs.span("db.recover");
        // Pass 1 — a streaming cursor (O(#transactions) memory, never the
        // whole log): restore counters from the last checkpoint (normally
        // record 0) and collect the committed transaction set.
        let mut committed: HashSet<u64> = HashSet::new();
        let mut cursor = self.wal.read_from(Lsn(0))?;
        while let Some((_, rec)) = cursor.next_record()? {
            match rec {
                LogRecord::Checkpoint {
                    clock,
                    next_atom_nos,
                } => {
                    self.clock.store(clock.0, Ordering::Release);
                    let mut m = self.next_no.lock();
                    for (ty, no) in &next_atom_nos {
                        let e = m.entry(*ty).or_insert(0);
                        *e = (*e).max(*no);
                    }
                }
                LogRecord::Commit { txn } => {
                    committed.insert(txn.0);
                }
                _ => {}
            }
        }

        // Pass 2 — replay committed transactions in log order, again
        // through a bounded cursor rather than a materialized record list.
        let mut replayed_any = false;
        let mut cursor = self.wal.read_from(Lsn(0))?;
        while let Some((_, rec)) = cursor.next_record()? {
            match rec {
                LogRecord::InsertVersion {
                    txn,
                    atom,
                    vt,
                    tt_start,
                    tuple,
                } if committed.contains(&txn.0) => {
                    let store = self.store(atom.ty)?;
                    let already = store
                        .history(atom.no)?
                        .iter()
                        .any(|v| v.vt == vt && v.tt.start() == tt_start && v.tuple == tuple);
                    if !already {
                        store.insert_version(atom.no, vt, tt_start, &tuple)?;
                        replayed_any = true;
                    }
                    // Counters advance regardless.
                    let mut m = self.next_no.lock();
                    let e = m.entry(atom.ty.0).or_insert(0);
                    *e = (*e).max(atom.no.0 + 1);
                    self.clock.fetch_max(tt_start.0, Ordering::AcqRel);
                }
                LogRecord::CloseVersion {
                    txn,
                    atom,
                    vt_start,
                    tt_end,
                } if committed.contains(&txn.0) => {
                    let store = self.store(atom.ty)?;
                    // Only close a version that predates this transaction;
                    // a same-vt version created *by* this transaction (and
                    // already applied pre-crash) must not be re-closed.
                    let target_is_older = store
                        .current_versions(atom.no)?
                        .iter()
                        .any(|v| v.vt.start() == vt_start && v.tt.start() < tt_end);
                    if target_is_older {
                        store.close_version(atom.no, vt_start, tt_end)?;
                        replayed_any = true;
                    }
                    self.clock.fetch_max(tt_end.0, Ordering::AcqRel);
                }
                LogRecord::Commit { txn } => {
                    self.clock.fetch_max(txn.0, Ordering::AcqRel);
                    // Transaction boundary: safe flush point under pressure.
                    self.flush_if_pressured()?;
                }
                LogRecord::SegmentSwap { ty, cutoff, .. } => {
                    // Redo the heap extraction of a segment that is
                    // already live (`load_segments` opened it before
                    // replay). Idempotent: when the pre-crash flush
                    // already covered the extraction, nothing in the heap
                    // matches the cutoff anymore. No index rebuilds — the
                    // swap moves versions without changing the type's
                    // logical content, and `extract_closed` maintains the
                    // store's own interval index as it goes.
                    let store = self.store(AtomTypeId(ty))?;
                    for no in store.atoms()? {
                        store.extract_closed(no, cutoff)?;
                    }
                    // As in `compact_type`: repack the lazily-pruned
                    // time index so slices don't scan emptied leaves.
                    store.compact_time_index()?;
                }
                _ => {}
            }
        }

        if replayed_any {
            self.rebuild_indexes()?;
            // Replay maintained the per-store transaction-time interval
            // indexes incrementally through the store primitives; rebuild
            // them from the heaps anyway — replay starts from whatever
            // partial flush survived the crash, and the rebuild makes the
            // index authoritative regardless of what that flush contained.
            let catalog = self.catalog.read();
            for t in catalog.atom_types() {
                self.store(t.id)?.rebuild_time_index()?;
            }
            drop(catalog);
        }
        // Every replayed commit is now in the stores: publish the whole
        // clock before checkpointing (whose drain waits for exactly that).
        self.published
            .store(self.clock.load(Ordering::Acquire), Ordering::Release);
        // Leave a clean state: everything applied, log truncated.
        self.checkpoint()?;
        Ok(())
    }

    /// Drops and rebuilds every value index from the stores' current state.
    fn rebuild_indexes(&self) -> Result<()> {
        let catalog = self.catalog.read();
        for t in catalog.atom_types() {
            let store = self.store(t.id)?;
            for (i, a) in t.attrs.iter().enumerate() {
                if !a.indexed {
                    continue;
                }
                let attr = AttrId(i as u16);
                let idx = self.open_or_create_index(t.id, attr, true)?;
                for no in store.atoms()? {
                    for v in store.current_versions(no)? {
                        if let Some(enc) = encode_value(v.tuple.get(i)) {
                            idx.insert(BKey::new(enc, no.0), no.0)?;
                        }
                    }
                }
                self.indexes.write().insert((t.id.0, attr.0), idx);
            }
        }
        Ok(())
    }

    /// Physically discards every version whose transaction time ended at
    /// or before `cutoff` (history pruning / vacuum). Time-slices at
    /// `tt >= cutoff` are unaffected; earlier slices stop being faithful.
    /// Finishes with a checkpoint so that WAL replay can never resurrect
    /// pruned versions. Returns the number of versions removed.
    pub fn prune_history(&self, cutoff: TimePoint) -> Result<u64> {
        let _m = self.maint.lock();
        // Quiesce writers: take every commit stripe as the reserved oldest
        // id (waits out holders, never dies), then drain staged commits
        // and exclude appliers. Readers retry around the apply marks.
        self.stripes.lock_all(MAINTENANCE_ID)?;
        let mut removed = 0u64;
        let result: Result<()> = (|| {
            self.drain_commits();
            let _x = self.commit_lock.write();
            let type_ids: Vec<AtomTypeId> = self
                .catalog
                .read()
                .atom_types()
                .iter()
                .map(|t| t.id)
                .collect();
            let tys: Vec<u32> = type_ids.iter().map(|t| t.0).collect();
            let _apply = self.begin_apply(&tys);
            for ty in type_ids {
                let store = self.store(ty)?;
                for no in store.atoms()? {
                    removed += store.extract_closed(no, cutoff)?.len() as u64;
                }
            }
            Ok(())
        })();
        self.stripes.unlock_all(MAINTENANCE_ID);
        result?;
        // Pruning changes store shape outside the commit path; drop the
        // planner's cached snapshots rather than let them lie.
        self.stats.invalidate_all();
        self.checkpoint()?;
        Ok(removed)
    }

    // ---- tiered segment storage ----

    /// Archives every closed (transaction-time-ended) version of one atom
    /// type into a new compressed, checksummed, immutable segment file,
    /// atomically swapping the heap records for the segment under full
    /// quiescence. Crash-safe: the segment reaches its final name via
    /// temp + rename *before* the swap's WAL record — the record is the
    /// commit point, and recovery either redoes the heap extraction from
    /// it or discards the unreferenced file. Returns the number of
    /// versions archived (0 when the type holds no closed history).
    pub fn compact_type(&self, ty: AtomTypeId) -> Result<u64> {
        let _span = self.obs.span("db.compact");
        let _m = self.maint.lock();
        // Quiesce exactly like `prune_history`, with one addition: take
        // `wal_order` before `commit_lock` — `checkpoint` acquires them in
        // that order, and the reverse would deadlock against it.
        self.stripes.lock_all(MAINTENANCE_ID)?;
        let result: Result<u64> = (|| {
            self.drain_commits();
            let _order = self.wal_order.lock();
            let _x = self.commit_lock.write();
            let store = self.store(ty)?;
            // With commits drained the published clock is exact, and any
            // post-swap commit draws a higher tt: the archived set
            // (closed versions with `tt.end <= cutoff`) is frozen, so
            // recovery's redo selects exactly the same versions.
            let cutoff = self.now();
            let atoms = store.atoms()?;
            let mut entries: Vec<(u64, AtomVersion)> = Vec::new();
            for no in &atoms {
                for v in store.collect_closed(*no, cutoff)? {
                    entries.push((no.0, v));
                }
            }
            if entries.is_empty() {
                return Ok(0);
            }
            let seg = store.segments().max_seg_no().map_or(0, |n| n + 1);
            let tmp = self.dir.join(segment_tmp_name(ty.0));
            let name = segment_file_name(ty.0, seg);
            write_segment_file(self.vfs.as_ref(), &tmp, ty.0, seg, &entries)?;
            self.vfs.rename(&tmp, &self.dir.join(&name))?;
            // Commit point. Unconditional fsync: unlike transaction
            // commits, a swap must never be half-durable under the lazy
            // sync policy — the extraction below mutates pages that may
            // flush before the next WAL sync otherwise.
            self.wal.append(&LogRecord::SegmentSwap {
                ty: ty.0,
                seg,
                cutoff,
            })?;
            self.wal.sync()?;
            {
                let _apply = self.begin_apply(&[ty.0]);
                let (file, _) = self.register(name, true)?;
                let segment = Segment::open(self.pool.clone(), file, ty.0, seg)?;
                store.segments().add(Arc::new(segment));
                for no in &atoms {
                    store.extract_closed(*no, cutoff)?;
                }
                // Extraction prunes the time index lazily — the emptied
                // leaf pages would stay on its scan chain and every
                // future slice would read the index at pre-swap size.
                // Repack it while still quiescent.
                store.compact_time_index()?;
            }
            // The manifest must cover the swap before the checkpoint
            // below truncates its WAL record.
            self.write_segment_manifest()?;
            self.compactions.inc();
            Ok(entries.len() as u64)
        })();
        self.stripes.unlock_all(MAINTENANCE_ID);
        let archived = result?;
        if archived == 0 {
            return Ok(0);
        }
        // Compaction reshapes the store outside the commit path: refresh
        // the planner's snapshots, persist the extracted heaps.
        self.stats.invalidate_all();
        self.checkpoint()?;
        Ok(archived)
    }

    /// [`Database::compact_type`] over every cataloged atom type; returns
    /// the total number of versions archived.
    pub fn compact_all(&self) -> Result<u64> {
        let ids: Vec<AtomTypeId> =
            self.with_catalog(|c| c.atom_types().iter().map(|t| t.id).collect());
        let mut total = 0;
        for id in ids {
            total += self.compact_type(id)?;
        }
        Ok(total)
    }

    /// A type's live `(segment reads, fence skips)` counters — how many
    /// segments were actually scanned vs. skipped on their interval
    /// fences. EXPLAIN ANALYZE samples these around each access operator.
    pub fn segment_counters(&self, ty: AtomTypeId) -> Result<(u64, u64)> {
        Ok(self.store(ty)?.segments().counters())
    }

    /// Loads the live segment set at open: the manifest plus any
    /// [`LogRecord::SegmentSwap`] records the WAL holds beyond it (a crash
    /// between a swap's WAL commit point and its manifest rewrite leaves
    /// the WAL as the only witness). Opens every live segment into its
    /// store's set, rewrites the manifest when the WAL knew more, and
    /// removes the leftovers of an interrupted compaction.
    fn load_segments(&self) -> Result<()> {
        let mut live = self.read_segment_manifest()?;
        let mut wal_extras = 0usize;
        let mut cursor = self.wal.read_from(Lsn(0))?;
        while let Some((_, rec)) = cursor.next_record()? {
            if let LogRecord::SegmentSwap { ty, seg, .. } = rec {
                if !live.contains(&(ty, seg)) {
                    live.push((ty, seg));
                    wal_extras += 1;
                }
            }
        }
        live.sort_unstable();
        for &(ty, seg) in &live {
            let store = self.stores.read().get(&ty).cloned().ok_or_else(|| {
                Error::corruption(format!("segment manifest names unknown atom type #{ty}"))
            })?;
            let (file, _) = self.register(segment_file_name(ty, seg), true)?;
            let segment = Segment::open(self.pool.clone(), file, ty, seg)?;
            store.segments().add(Arc::new(segment));
        }
        if wal_extras > 0 {
            self.write_segment_manifest()?;
        }
        // Leftover cleanup. The VFS has no readdir, so probe the
        // deterministic names an interrupted compaction can leave: the
        // manifest temp, the per-type segment temp, and the one segment
        // number past the live maximum (a file renamed into place whose
        // swap record never became durable is dead weight — recovery
        // treats the swap as never having happened).
        let tmp = self.dir.join(SEGMENT_MANIFEST_TMP);
        if self.vfs.exists(&tmp) {
            self.vfs.remove(&tmp)?;
        }
        let type_ids: Vec<u32> =
            self.with_catalog(|c| c.atom_types().iter().map(|t| t.id.0).collect());
        for ty in type_ids {
            // Earlier versions also kept a per-type change index here;
            // nothing reads it, so a directory written by them sheds it.
            for leftover in [segment_tmp_name(ty), format!("t{ty}_tix.tcm")] {
                let path = self.dir.join(leftover);
                if self.vfs.exists(&path) {
                    self.vfs.remove(&path)?;
                }
            }
            let next = live
                .iter()
                .filter(|(t, _)| *t == ty)
                .map(|(_, s)| s + 1)
                .max()
                .unwrap_or(0);
            let orphan = self.dir.join(segment_file_name(ty, next));
            if self.vfs.exists(&orphan) {
                self.vfs.remove(&orphan)?;
            }
        }
        Ok(())
    }

    /// Parses the segment manifest: `<type> <segment>` per line.
    fn read_segment_manifest(&self) -> Result<Vec<(u32, u64)>> {
        let path = self.dir.join(SEGMENT_MANIFEST);
        if !self.vfs.exists(&path) {
            return Ok(Vec::new());
        }
        let f = self.vfs.open(&path)?;
        let mut buf = vec![0u8; f.len()? as usize];
        f.read_at(&mut buf, 0)?;
        let text = String::from_utf8(buf)
            .map_err(|_| Error::corruption("segment manifest is not UTF-8"))?;
        let mut out = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parse = |s: &str| {
                s.parse::<u64>().map_err(|_| {
                    Error::corruption(format!("malformed segment manifest line '{line}'"))
                })
            };
            let (ty, seg) = line
                .split_once(' ')
                .ok_or_else(|| Error::corruption("malformed segment manifest line"))?;
            out.push((parse(ty)? as u32, parse(seg)?));
        }
        Ok(out)
    }

    /// Rewrites the segment manifest to the current live set, atomically
    /// (temp + rename). The manifest is authoritative once the WAL's swap
    /// records have been checkpoint-truncated.
    fn write_segment_manifest(&self) -> Result<()> {
        let mut entries: Vec<(u32, u64)> = Vec::new();
        for (ty, store) in self.stores.read().iter() {
            for seg in store.segments().list() {
                entries.push((*ty, seg.seg));
            }
        }
        entries.sort_unstable();
        let mut text = String::from("# tcom live segments: <type> <segment>\n");
        for (ty, seg) in entries {
            text.push_str(&format!("{ty} {seg}\n"));
        }
        let tmp = self.dir.join(SEGMENT_MANIFEST_TMP);
        let f = self.vfs.open(&tmp)?;
        f.set_len(0)?;
        f.write_at(text.as_bytes(), 0)?;
        f.sync()?;
        self.vfs.rename(&tmp, &self.dir.join(SEGMENT_MANIFEST))?;
        Ok(())
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

    /// Resets buffer pool statistics (benchmark hygiene), returning the
    /// pre-reset values.
    pub fn reset_buffer_stats(&self) -> BufferStats {
        self.pool.reset_stats()
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

    /// Storage statistics per atom type.
    pub fn store_stats(&self) -> Result<Vec<(String, StoreStats)>> {
        let catalog = self.catalog.read();
        let mut out = Vec::new();
        for t in catalog.atom_types() {
            out.push((t.name.clone(), self.store(t.id)?.stats()?));
        }
        Ok(out)
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

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
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

/// The segment manifest: the durable list of live segment files. Rewritten
/// atomically (via [`SEGMENT_MANIFEST_TMP`] + rename) after every swap.
const SEGMENT_MANIFEST: &str = "segments.meta";
/// Temp name the manifest is staged under before its rename.
const SEGMENT_MANIFEST_TMP: &str = "segments.meta.tmp";

/// Final name of segment `seg` of atom type `ty`.
fn segment_file_name(ty: u32, seg: u64) -> String {
    format!("t{ty}_seg{seg}.tcm")
}

/// Temp name a type's in-flight segment is written under before its
/// rename (one per type: compaction is serialized by the maintenance
/// lock, so there is never more than one in flight).
fn segment_tmp_name(ty: u32) -> String {
    format!("t{ty}_seg.tmp")
}

fn parse_meta(text: &str) -> Result<StoreKind> {
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("store_kind=") {
            return Ok(match v.trim() {
                "chain" => StoreKind::Chain,
                "delta" => StoreKind::Delta,
                "split" => StoreKind::Split,
                other => {
                    return Err(Error::corruption(format!(
                        "unknown store kind '{other}' in db.meta"
                    )))
                }
            });
        }
    }
    Err(Error::corruption("db.meta missing store_kind"))
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

/// Re-export used by transactions: a valid-time interval paired with the
/// full axis, for "valid from now on" style helpers.
pub fn vt_always() -> Interval {
    Interval::all()
}
