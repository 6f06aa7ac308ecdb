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
//!   under `commit_lock.read()`, and publishes ([`Database::apply_commit`]).
//!   Only the maintenance guard (`db/maint.rs`) takes `commit_lock.write()`:
//!   maintenance must exclude appliers, never readers.

mod maint;

use crate::config::DbConfig;
use crate::journal;
use crate::stripes::{StripeLocks, COMMIT_STRIPES};
use crate::txn::Txn;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tcom_catalog::{AttrDef, Catalog, MoleculeEdge};
use tcom_kernel::{
    AtomId, AtomNo, AtomTypeId, AttrId, Error, Lsn, MoleculeTypeId, Result, TimePoint, Tuple,
};
use tcom_obs::{Counter, MetricsSnapshot, Registry};
use tcom_storage::btree::BTree;
use tcom_storage::buffer::{BufferPool, BufferStats, FileId};
use tcom_storage::disk::DiskManager;
use tcom_storage::keys::{encode_value, BKey};
use tcom_storage::vfs::{StdVfs, Vfs};
use tcom_version::record::AtomVersion;
use tcom_version::{Store, StoreKind};
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
struct ApplyGuard {
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
    /// Serializes DDL and the writers-scope maintenance (pruning, swaps).
    maint: Mutex<()>,
    /// Per-atom-type commit stripes (wait-die).
    stripes: StripeLocks,
    /// Begin-order ids for wait-die priorities (1-based; 0 is reserved
    /// for maintenance).
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
        let pool = BufferPool::new_no_steal(config.buffer_frames);
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

    /// Applies one logged commit (`recs`, its WAL records) to the stores
    /// and value indexes and publishes it: the one apply routine of a
    /// leader's [`Txn::commit`] and a replica's [`crate::repl::WalApplier`].
    /// `before`/`after` give a changed atom's current tuples before the
    /// first mutation and after the last. `publish` runs while the apply
    /// marks are still raised, so a reader that validates against an even
    /// mark afterwards pins a clock that includes the whole commit.
    pub(crate) fn apply_commit(
        &self,
        tt: TimePoint,
        recs: &[LogRecord],
        before: &dyn Fn(AtomId) -> Result<Vec<Tuple>>,
        after: &dyn Fn(AtomId) -> Result<Vec<Tuple>>,
        publish: fn(&Database, TimePoint),
    ) -> Result<()> {
        // Sorted by (type, number): apply marks go up once per type, and
        // index maintenance runs in a deterministic order.
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
        let mut tys: Vec<u32> = changed.iter().map(|a| a.ty.0).collect();
        tys.dedup();
        let befores: Vec<Vec<Tuple>> = changed.iter().map(|&a| before(a)).collect::<Result<_>>()?;
        // Shared: appliers exclude maintenance, not each other (stripes,
        // or the replica's single apply loop, serialize same-type
        // appliers) and never readers, who retry around the apply marks.
        let _shared = self.commit_lock.read();
        let _apply = self.begin_apply(&tys);
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
                }
                LogRecord::CloseVersion {
                    atom,
                    vt_start,
                    tt_end,
                    ..
                } => {
                    let store = self.store(atom.ty)?;
                    if !store.close_version(atom.no, *vt_start, *tt_end)? {
                        return Err(Error::internal(format!(
                            "apply of tt {tt}: close of missing version {atom} @vt {vt_start:?}"
                        )));
                    }
                }
                _ => {}
            }
        }
        for (atom, before) in changed.into_iter().zip(&befores) {
            // Planner statistics age per changed atom.
            self.stats.note(atom.ty.0);
            self.update_indexes_for(atom, before, &after(atom)?)?;
        }
        publish(self, tt);
        Ok(())
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
    fn begin_apply(&self, tys: &[u32]) -> ApplyGuard {
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

    /// All atom ids of a type (whether currently visible or not).
    pub fn all_atoms(&self, ty: AtomTypeId) -> Result<Vec<AtomId>> {
        let store = self.store(ty)?;
        self.read_stable(ty, || {
            let atoms = store.atoms()?;
            Ok(atoms.into_iter().map(|no| AtomId::new(ty, no)).collect())
        })
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
    fn update_indexes_for(&self, atom: AtomId, before: &[Tuple], after: &[Tuple]) -> Result<()> {
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

    // ---- recovery ----

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
                    // logical content, and the extraction maintains (and
                    // repacks) the store's own interval index.
                    self.store(AtomTypeId(ty))?.extract_all_closed(cutoff)?;
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
