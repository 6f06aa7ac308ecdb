//! Maintenance: page flushes, checkpoints, history pruning and segment
//! swaps, and [`Quiesced`], the one guard they (and DDL) quiesce through.
//! Only the guard drains commits or excludes appliers, always in the
//! order `maint` → `wal_order` → drain → `commit_lock`. Each of its
//! scopes takes a subsequence of that order (DESIGN §10.2), so no two
//! maintenance operations wait on each other in a cycle. No scope takes
//! a commit stripe: writers wait for maintenance, never die for it.
//! Readers are excluded only by the extraction of history, which holds
//! each store's maintenance lock. A prune takes the locks *before* its
//! scope, so it waits for the reads in flight while appliers still run; a
//! swap takes its store's lock inside the flush scope, so a writer's base
//! read never waits for a swap that waits for appliers.

use super::Database;
use crate::control::{Control, CONTROL_FILE};
use crate::journal::{self, JournalEntry};
use parking_lot::{MutexGuard, RwLockWriteGuard};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tcom_kernel::{AtomTypeId, PageId, Result, TimePoint};
use tcom_storage::page::PAGE_SIZE;
use tcom_version::record::AtomVersion;
use tcom_version::{write_segment_file, Segment, Store};
use tcom_wal::LogRecord;

/// Maintenance quiescence, held until dropped. Each scope takes its own
/// step and then the next narrower scope, so the order is written once;
/// fields drop in declaration order, the reverse of acquisition.
pub(crate) struct Quiesced<'db> {
    _appliers: RwLockWriteGuard<'db, ()>,
    _order: Option<MutexGuard<'db, ()>>,
    _maint: Option<MutexGuard<'db, ()>>,
}

impl<'db> Quiesced<'db> {
    /// The commits scope: `wal_order`, so no transaction time can be
    /// drawn; a drain until every drawn one is published (appliers still
    /// run meanwhile); then the flush scope.
    pub(crate) fn commits(db: &'db Database) -> Quiesced<'db> {
        let order = db.wal_order.lock();
        let mut g = db.publish_mx.lock();
        while db.published.load(Ordering::Acquire) != db.clock.load(Ordering::Acquire) {
            db.publish_cv.wait(&mut g);
        }
        // Released before `commit_lock`: appliers publish under it.
        drop(g);
        Quiesced {
            _order: Some(order),
            ..Quiesced::flush(db)
        }
    }

    /// The schema scope: `maint`, then the flush scope. DDL changes the
    /// catalog and formats a new type's pages in it, so no flush can
    /// capture the one without the other.
    pub(crate) fn schema(db: &'db Database) -> Quiesced<'db> {
        let maint = db.maint.lock();
        Quiesced {
            _maint: Some(maint),
            ..Quiesced::flush(db)
        }
    }

    /// The flush scope: `commit_lock` exclusive, so appliers are excluded.
    pub(crate) fn flush(db: &'db Database) -> Quiesced<'db> {
        Quiesced {
            _appliers: db.commit_lock.write(),
            _order: None,
            _maint: None,
        }
    }
}

impl Database {
    /// Test hook: holds the flush scope, stalling every commit apply, page
    /// flush and checkpoint — while snapshot readers must still make
    /// progress (the reader-liveness regression test drives a full scan
    /// to completion under this guard).
    #[doc(hidden)]
    pub fn block_applies_for_test(&self) -> impl Sized + '_ {
        Quiesced::flush(self)
    }

    /// Crash-atomically flushes every dirty page: the images go to the
    /// double-write journal first, then in place, then the journal is
    /// truncated. The same journal carries the control file — store kind,
    /// catalog, live segments, published clock, atom-number allocators and
    /// WAL watermark — so the files on disk always say what they hold. Does **not**
    /// touch the WAL — safe at any transaction boundary. Runs in the flush
    /// scope, so no torn multi-page store mutation reaches disk.
    pub fn sync_pages(&self) -> Result<()> {
        self.flush_dirty(&Quiesced::flush(self))
    }

    /// [`Database::sync_pages`] body, under a guard that excludes appliers:
    /// no apply runs, and applies run in tt order, so the pool holds
    /// exactly the commits up to `published`.
    pub(super) fn flush_dirty(&self, _quiesced: &Quiesced<'_>) -> Result<()> {
        let dirty = self.pool.dirty_pages();
        let image = self.control_state().image();
        let mut control = self.control.lock();
        // A changed control state is written even from a clean pool.
        if dirty.is_empty() && control.holds(&image) {
            return Ok(());
        }
        let names = self.file_names.lock();
        let mut entries: Vec<JournalEntry> = dirty
            .into_iter()
            .map(|(file, page, image)| JournalEntry {
                file_name: names[file.0 as usize].clone(),
                page,
                image,
            })
            .collect();
        drop(names);
        for (i, page) in image.chunks(PAGE_SIZE).enumerate() {
            entries.push(JournalEntry {
                file_name: CONTROL_FILE.into(),
                page: PageId(i as u32),
                image: Box::new(page.try_into().expect("whole pages")),
            });
        }
        let journal_path = self.dir.join("ckpt.jrnl");
        journal::write_journal(self.vfs.as_ref(), &journal_path, &entries)?;
        self.pool.flush_and_sync()?;
        control.write(image)?;
        journal::truncate_journal(self.vfs.as_ref(), &journal_path)?;
        Ok(())
    }

    /// The control state the pool holds: with appliers excluded, the
    /// commits up to `published`, under the current catalog and segments.
    fn control_state(&self) -> Control {
        let mut segments: Vec<(u32, u64)> = Vec::new();
        for (ty, store) in self.stores.read().iter() {
            segments.extend(store.segments().list().iter().map(|s| (*ty, s.seg)));
        }
        segments.sort_unstable();
        Control {
            kind: self.config.store_kind,
            published: self.now(),
            wal_start: self.wal.start(),
            wal_retired: self.wal.retired(),
            next_atom_nos: self.next_atom_nos(),
            segments,
            catalog: self.catalog.read().clone(),
        }
    }

    /// Per atom type, the next atom number to allocate, by type.
    fn next_atom_nos(&self) -> Vec<(u32, u64)> {
        let mut nos: Vec<(u32, u64)> = self.next_no.lock().iter().map(|(t, n)| (*t, *n)).collect();
        nos.sort_unstable();
        nos
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

    /// Rolls the WAL onto a new segment headed by a checkpoint record,
    /// flushes all data pages with a control file naming that segment as
    /// the WAL watermark, and removes the segments below it. All of it
    /// runs in the commits scope, so the segments removed hold no commit
    /// that the flushed pages don't already contain, and no second
    /// checkpoint rolls past the watermark before this one's removal.
    /// Until the flush lands, a recovery starts below the roll and reads
    /// across it.
    pub fn checkpoint(&self) -> Result<()> {
        let _span = self.obs.span("db.checkpoint");
        let quiesced = Quiesced::commits(self);
        let start = self.wal.roll(&LogRecord::Checkpoint {
            clock: self.now(),
            next_atom_nos: self.next_atom_nos(),
        })?;
        self.flush_dirty(&quiesced)?;
        self.txns_since_ckpt.store(0, Ordering::Release);
        self.wal.remove_below(start)
    }

    /// Physically discards every heap version whose transaction time ended
    /// at or before `cutoff` (history pruning / vacuum); versions already
    /// archived into segments stay. Time-slices at `tt >= cutoff` are
    /// unaffected; earlier slices stop being faithful. Runs under `maint`
    /// in the commits scope, under every store's maintenance lock (taken
    /// first): writers wait at `wal_order` meanwhile, and none dies;
    /// readers wait at the store locks. Pruning is not logged: it finishes
    /// with a checkpoint, whose flush lands the pruned pages under a
    /// watermark past every logged commit they contain, so recovery skips
    /// those commits instead of replaying them over the pruned pages.
    /// Returns the number of versions removed.
    pub fn prune_history(&self, cutoff: TimePoint) -> Result<u64> {
        let removed = {
            let _maint = self.maint.lock();
            let type_ids: Vec<AtomTypeId> =
                self.with_catalog(|c| c.atom_types().iter().map(|t| t.id).collect());
            let stores = type_ids
                .into_iter()
                .map(|ty| self.store(ty))
                .collect::<Result<Vec<Arc<Store>>>>()?;
            let held: Vec<_> = stores.iter().map(|s| s.maintenance()).collect();
            let _quiesced = Quiesced::commits(self);
            let mut removed = 0;
            for (store, held) in stores.iter().zip(&held) {
                removed += store.extract_all_closed(held, cutoff)?;
            }
            removed
        };
        // Pruning changes store shape outside the commit path; drop the
        // planner's cached snapshots rather than let them lie.
        self.stats.invalidate_all();
        self.checkpoint()?;
        Ok(removed)
    }

    /// Archives every closed (transaction-time-ended) version of one atom
    /// type into a new compressed, checksummed, immutable segment file,
    /// then swaps the heap records for it. Only `maint` is held until the
    /// extraction, which alone runs in the flush scope, under the store's
    /// maintenance lock. Crash-safe: the segment reaches its final name
    /// via temp + rename *before* the swap's WAL record — the record is
    /// the commit point, and recovery either adopts the segment and redoes
    /// the heap extraction from it or discards the unreferenced file. The
    /// control file lists the segment from the next flush on. Returns the
    /// number of versions archived (0 when the type holds no closed
    /// history).
    pub fn compact_type(&self, ty: AtomTypeId) -> Result<u64> {
        let _span = self.obs.span("db.compact");
        let archived = {
            let _maint = self.maint.lock();
            let store = self.store(ty)?;
            // Versions closed by the published clock are immutable, and a
            // commit in flight draws a later tt, so it closes only versions
            // ending after the cutoff: the archived set is frozen without a
            // drain, and recovery's redo selects the same versions wherever
            // commits land around the swap record.
            let cutoff = self.now();
            let mut entries: Vec<(u64, AtomVersion)> = Vec::new();
            for no in store.atoms()? {
                for v in store.collect_closed(no, cutoff)? {
                    entries.push((no.0, v));
                }
            }
            if entries.is_empty() {
                return Ok(0);
            }
            let seg = store.segments().max_seg_no().map_or(0, |n| n + 1);
            let tmp = self.dir.join(segment_tmp_name(ty.0));
            write_segment_file(self.vfs.as_ref(), &tmp, ty.0, seg, &entries)?;
            self.vfs
                .rename(&tmp, &self.dir.join(segment_file_name(ty.0, seg)))?;
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
                // A flush lists the segment exactly when its heap copies
                // are gone; a checkpoint that removed the record before
                // this point leaves the file a leftover for the next open
                // to delete.
                // The store lock inside the scope: a commit staged meanwhile
                // (its base reads take the store lock) may be what the
                // scope's holder waits for.
                let _quiesced = Quiesced::flush(self);
                let held = store.maintenance();
                self.add_segment(&store, ty.0, seg)?;
                store.extract_all_closed(&held, cutoff)?;
            }
            self.compactions.inc();
            entries.len() as u64
        };
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

    /// Opens segment `seg` of atom type `ty` into `store`'s set.
    pub(super) fn add_segment(&self, store: &Store, ty: u32, seg: u64) -> Result<()> {
        let file = self.register(segment_file_name(ty, seg), false, "segment list")?;
        let segment = Segment::open(self.pool.clone(), file, ty, seg)?;
        store.segments().add(Arc::new(segment));
        Ok(())
    }

    /// Removes what an interrupted compaction can leave, once recovery
    /// has adopted every segment whose swap became durable. The VFS has no
    /// readdir, so this probes the deterministic names: a type's segment
    /// temp, and the one segment number past its live maximum (a file
    /// renamed into place whose swap record never became durable is dead
    /// weight: recovery treats the swap as never having happened).
    pub(super) fn remove_compaction_leftovers(&self) -> Result<()> {
        for (&ty, store) in self.stores.read().iter() {
            let next = store.segments().max_seg_no().map_or(0, |n| n + 1);
            for leftover in [segment_tmp_name(ty), segment_file_name(ty, next)] {
                let path = self.dir.join(leftover);
                if self.vfs.exists(&path) {
                    self.vfs.remove(&path)?;
                }
            }
        }
        Ok(())
    }
}

/// Final name of segment `seg` of atom type `ty`.
fn segment_file_name(ty: u32, seg: u64) -> String {
    format!("t{ty}_seg{seg}.tcm")
}

/// Temp name a type's in-flight segment is written under before its
/// rename (one per type: compaction holds `maint` from collect to
/// extraction, so there is never more than one in flight).
fn segment_tmp_name(ty: u32) -> String {
    format!("t{ty}_seg.tmp")
}
