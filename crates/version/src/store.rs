//! The version store: **one core, three record layouts**.
//!
//! [`Store`] keeps the version histories of one atom type. The engine
//! performs bitemporal DML through two primitives —
//! [`Store::insert_version`] and [`Store::close_version`] — and reads
//! through the visibility queries (`current_versions`, `versions_at`,
//! `history`, `slice_at`). Comparing how three page layouts answer those
//! is the heart of the reproduced evaluation, so everything the layouts
//! share is written once here and [`StoreKind`] is consulted only where
//! the formats really differ (DESIGN §4.3 lists every site):
//!
//! 1. **where current versions live** — at the head of the atom's backward
//!    chain (chain, delta), or in a per-atom current-set record in a heap
//!    of its own (split), which leaves the chain to closed history in
//!    closing order and keeps current pages dense however long histories
//!    grow;
//! 2. **how a closed record's payload is written** — in full (chain,
//!    split), or rewritten in place as an attribute-level backward delta
//!    against its newer neighbour (delta); the chain layout is the delta
//!    layout with compression off, served by the same reconstructing walk;
//! 3. **what a time-index entry carries** — `rid → tt_end` (chain, and
//!    split's closed partition), `rid → atom` (delta: reconstruction walks
//!    the chain anyway, so the index narrows a slice to an atom set) or
//!    `atom → atom` (split's open partition: current-set records relocate
//!    on every update) — and therefore how `slice_at` turns entries into
//!    heap candidates;
//! 4. **split's early stop** — its history chain descends in `tt.end`, so
//!    a past read stops at the first record closed at or before the asked
//!    time.
//!
//! Readers run beside the one writer without validating against it: each
//! move publishes a version's new place before it retires the old one, and
//! readers read the retiring place first and drop duplicates (DESIGN
//! §10.1). [`Store::changed_after`] and [`Store::maintenance`] guard what
//! ordering cannot cover.

use crate::record::{AtomVersion, CurrentSet, Payload, TupleDelta, VersionRecord};
use crate::segment::SegmentSet;
use crate::timeindex::TimeIndex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use tcom_kernel::codec::Decoder;
use tcom_kernel::{AtomNo, Error, Interval, RecordId, Result, TimePoint, Tuple};
use tcom_obs::Counter;
use tcom_storage::btree::BTree;
use tcom_storage::buffer::{BufferPool, FileId};
use tcom_storage::keys::BKey;
use tcom_storage::HeapFile;

/// Which record layout a store uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreKind {
    /// Full-copy backward version chains (V1).
    Chain,
    /// Full current version + backward attribute deltas (V2).
    Delta,
    /// Split current store / append-only history store (V3).
    Split,
}

impl StoreKind {
    /// The files of a store of this kind, as file-name suffixes in the
    /// order [`Store::open`] expects them (decision 1: the split layout
    /// adds a current heap and its directory in front of the chain files).
    pub fn file_suffixes(self) -> &'static [&'static str] {
        match self {
            StoreKind::Chain | StoreKind::Delta => &["heap", "dir", "vix"],
            StoreKind::Split => &["cur", "curdir", "hist", "histdir", "vix"],
        }
    }
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StoreKind::Chain => "chain",
            StoreKind::Delta => "delta",
            StoreKind::Split => "split",
        })
    }
}

/// Storage-consumption and shape statistics of a store.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Number of atoms (directory entries).
    pub atoms: u64,
    /// Total stored version records (full + delta + history).
    pub versions: u64,
    /// Data pages across the store's heap file(s).
    pub heap_pages: u64,
    /// Sum of encoded record lengths in bytes.
    pub record_bytes: u64,
    /// Height of the atom directory B⁺-tree.
    pub dir_height: u32,
    /// Versions whose transaction time is still open (current versions).
    pub open_versions: u64,
    /// Deepest per-atom version history (stored versions of one atom).
    pub max_depth: u64,
    /// Entries in the transaction-time interval index.
    pub time_entries: u64,
    /// Heap pages currently resident in the buffer pool (snapshot; moves
    /// with the workload).
    pub resident_pages: u64,
    /// Live compressed segments of archived closed history.
    pub segments: u64,
    /// Total pages across the segment files.
    pub segment_pages: u64,
    /// Versions archived into segments (not counted in `versions`, which
    /// covers only the hot heaps).
    pub segment_versions: u64,
}

impl StoreStats {
    /// Mean stored versions per atom.
    pub fn mean_depth(&self) -> f64 {
        self.versions as f64 / self.atoms.max(1) as f64
    }

    /// Fraction of stored versions still tt-open.
    pub fn open_ratio(&self) -> f64 {
        self.open_versions as f64 / self.versions.max(1) as f64
    }
}

/// Diagnostic view of the hot heaps: how many chain records are stored in
/// full and how many as deltas, and how the data pages divide between the
/// current area (split only) and the chains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapShape {
    /// Chain records with a full payload.
    pub full: u64,
    /// Chain records with a delta payload.
    pub delta: u64,
    /// Data pages of the current-set heap (0 unless split).
    pub current_pages: u32,
    /// Data pages of the chain heap.
    pub chain_pages: u32,
}

/// Shared observability handles of one store instance. Cloning shares the
/// underlying cells, so a metrics registry can hold the same handles the
/// store increments; fields irrelevant to a given layout simply stay zero.
#[derive(Clone, Default)]
pub struct StoreObs {
    /// Version-chain walks started (one per read primitive that touches a
    /// chain).
    pub chain_walks: Counter,
    /// Chain records visited across all walks.
    pub chain_steps: Counter,
    /// Tuples reconstructed by applying a backward attribute delta
    /// (delta layout only).
    pub delta_reconstructions: Counter,
    /// Closed versions migrated from the current set into the history
    /// chain (split layout only).
    pub split_migrations: Counter,
}

/// The split layout's current area: one [`CurrentSet`] record per atom in a
/// heap of its own, found through its own directory. Every atom ever
/// inserted keeps a (possibly empty) set, so this directory is also the
/// layout's atom list.
struct CurrentArea {
    heap: HeapFile,
    dir: BTree,
}

impl CurrentArea {
    fn load(&self, no: AtomNo) -> Result<Option<(RecordId, CurrentSet)>> {
        through_dir(&self.dir, no, |rid| {
            let set = self
                .heap
                .with_record(rid, |b| CurrentSet::decode(b, no))??;
            Ok((rid, set))
        })
    }

    /// The atom's current versions, in valid-time order.
    fn versions(&self, no: AtomNo) -> Result<Vec<AtomVersion>> {
        Ok(self
            .load(no)?
            .map_or_else(Vec::new, |(_, set)| set.into_versions().collect()))
    }

    /// Writes the atom's set over `rid`; a set that outgrows its page is
    /// written elsewhere and its directory entry repointed before the old
    /// slot is freed.
    fn save(&self, no: AtomNo, rid: Option<RecordId>, set: &CurrentSet) -> Result<()> {
        let bytes = set.encode(no);
        let new_rid = match rid {
            Some(rid) => self.heap.update(rid, &bytes)?,
            None => self.heap.insert(&bytes)?,
        };
        if rid != Some(new_rid) {
            dir_set(&self.dir, no, new_rid)?;
            if let Some(old) = rid {
                self.heap.delete(old)?;
            }
        }
        Ok(())
    }
}

/// One record of a backward chain as the walk hands it out: the header
/// plus the record's tuple, reconstructed when it was stored as a delta.
#[derive(Clone)]
struct Link {
    rid: RecordId,
    vt: Interval,
    tt: Interval,
    prev: RecordId,
    tuple: Tuple,
}

impl Link {
    fn version(&self) -> AtomVersion {
        AtomVersion {
            vt: self.vt,
            tt: self.tt,
            tuple: self.tuple.clone(),
        }
    }
}

/// The version store of one atom type.
///
/// Invariants the engine maintains through the two mutation primitives:
///
/// * the valid-time intervals of an atom's *current* (tt-open) versions are
///   pairwise disjoint;
/// * `close_version` targets a current version identified by its unique
///   `vt.start`;
/// * stamps of closed versions are immutable forever after.
///
/// Layout invariants: a current record is always stored in full; a delta
/// record's chain predecessor (the next-newer record) always exists and
/// reconstructs the tuple the delta is relative to; compression happens
/// only when the delta fits in the record's existing slot, so chain
/// records never relocate outside [`Store::extract_all_closed`].
pub struct Store {
    kind: StoreKind,
    /// Backward version chains, newest first: every version of an atom
    /// (chain, delta) or its closed history in closing order (split).
    heap: HeapFile,
    /// Atom number → head of the atom's chain.
    dir: BTree,
    /// Decision 1: `Some` exactly for the split layout.
    cur: Option<CurrentArea>,
    /// Transaction-time interval index (decision 3 says what it carries).
    tix: TimeIndex,
    /// Archived closed history, stored as full tuples; merged into reads,
    /// fed by the compactor.
    segs: Arc<SegmentSet>,
    obs: StoreObs,
    /// The latest transaction time whose change has begun to reach this
    /// store (monotone).
    stamp: AtomicU64,
    /// Shared by every read, exclusive while history is extracted.
    maint: RwLock<()>,
}

/// Exclusive hold of a store's maintenance lock ([`Store::maintenance`]):
/// no read of the store runs while it is held.
pub struct Maintenance<'a> {
    _held: RwLockWriteGuard<'a, ()>,
}

impl Store {
    /// Opens a store of `kind` over pre-registered files given in
    /// [`StoreKind::file_suffixes`] order; `create` formats them first.
    pub fn open(
        kind: StoreKind,
        pool: Arc<BufferPool>,
        files: &[FileId],
        create: bool,
    ) -> Result<Store> {
        if files.len() != kind.file_suffixes().len() {
            return Err(Error::internal(format!(
                "a {kind} store takes {} files, got {}",
                kind.file_suffixes().len(),
                files.len()
            )));
        }
        let heap = |f: FileId| {
            if create {
                HeapFile::create(pool.clone(), f)
            } else {
                HeapFile::open(pool.clone(), f)
            }
        };
        let tree = |f: FileId| {
            if create {
                BTree::create(pool.clone(), f)
            } else {
                BTree::open(pool.clone(), f)
            }
        };
        let (cur, chain) = match kind {
            StoreKind::Split => {
                let area = CurrentArea {
                    heap: heap(files[0])?,
                    dir: tree(files[1])?,
                };
                (Some(area), &files[2..])
            }
            StoreKind::Chain | StoreKind::Delta => (None, files),
        };
        Ok(Store {
            kind,
            heap: heap(chain[0])?,
            dir: tree(chain[1])?,
            cur,
            tix: TimeIndex::over(tree(chain[2])?),
            segs: SegmentSet::new(),
            obs: StoreObs::default(),
            stamp: AtomicU64::new(0),
            maint: RwLock::new(()),
        })
    }

    /// True when a change at a transaction time past `tt` has begun to
    /// reach the store. A read of current state that finds this false
    /// *after* it finished saw exactly the commits up to `tt`, once `tt`
    /// is published.
    pub fn changed_after(&self, tt: TimePoint) -> bool {
        self.stamp.load(Ordering::SeqCst) > tt.0
    }

    /// Takes the maintenance lock exclusively, waiting for the reads in
    /// flight; [`Store::extract_all_closed`] runs under it.
    pub fn maintenance(&self) -> Maintenance<'_> {
        Maintenance {
            _held: self.maint.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// The maintenance lock shared, for one read.
    fn read(&self) -> RwLockReadGuard<'_, ()> {
        self.maint.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Notes that a change at `tt` begins.
    fn stamp(&self, tt: TimePoint) {
        self.stamp.fetch_max(tt.0, Ordering::SeqCst);
    }

    /// Which layout this store uses.
    pub fn kind(&self) -> StoreKind {
        self.kind
    }

    /// The store's observability counter handles (clone them to register
    /// in a metrics registry).
    pub fn obs(&self) -> &StoreObs {
        &self.obs
    }

    /// The store's immutable compressed segments of archived history.
    /// Read paths merge these transparently; the engine publishes into
    /// the set while it holds the store's [`Store::maintenance`] lock.
    pub fn segments(&self) -> &Arc<SegmentSet> {
        &self.segs
    }

    /// The directory that lists every atom ever inserted.
    fn atom_dir(&self) -> &BTree {
        self.cur.as_ref().map_or(&self.dir, |c| &c.dir)
    }

    /// True iff the atom has ever been inserted.
    pub fn exists(&self, no: AtomNo) -> Result<bool> {
        let _read = self.read();
        Ok(dir_get(self.atom_dir(), no)?.is_some())
    }

    /// Every atom in the store, in ascending atom-number order.
    pub fn atoms(&self) -> Result<Vec<AtomNo>> {
        let _read = self.read();
        self.atom_nos()
    }

    fn atom_nos(&self) -> Result<Vec<AtomNo>> {
        let mut out = Vec::new();
        self.atom_dir().scan_range(BKey::MIN, BKey::MAX, |k, _| {
            out.push(AtomNo(k.hi));
            Ok(true)
        })?;
        Ok(out)
    }

    // ---- the chain ----

    /// Walks an atom's chain newest→oldest, reconstructing each record's
    /// tuple; `f` returning `false` stops. The walk owns the tuples it
    /// decodes and clones none of them.
    fn walk(&self, no: AtomNo, mut f: impl FnMut(&Link) -> Result<bool>) -> Result<()> {
        self.obs.chain_walks.inc();
        let mut next = through_dir(&self.dir, no, |rid| {
            self.obs.chain_steps.inc();
            self.link(no, rid, None)
        })?;
        while let Some(link) = next {
            if !f(&link)? {
                return Ok(());
            }
            next = match link.prev.is_invalid() {
                true => None,
                false => {
                    self.obs.chain_steps.inc();
                    Some(self.link(no, link.prev, Some(&link))?)
                }
            };
        }
        Ok(())
    }

    /// Chain record `rid` of atom `no`, its tuple reconstructed against
    /// `newer`, the record before it on the walk.
    fn link(&self, no: AtomNo, rid: RecordId, newer: Option<&Link>) -> Result<Link> {
        let rec = self.heap.with_record(rid, VersionRecord::decode)??;
        if rec.atom_no != no {
            return Err(Error::corruption(format!(
                "chain of atom {} reached record of atom {} at {rid:?}",
                no.0, rec.atom_no.0
            )));
        }
        let tuple = match (rec.payload, newer) {
            // Decision 2: only the delta layout reconstructs.
            (Payload::Delta(d), Some(base)) if self.kind == StoreKind::Delta => {
                self.obs.delta_reconstructions.inc();
                d.apply(&base.tuple)
            }
            (Payload::Delta(_), None) if self.kind == StoreKind::Delta => {
                return Err(Error::corruption(
                    "delta record at chain head has no base tuple",
                ));
            }
            (payload, _) => full_copy(payload)?,
        };
        Ok(Link {
            rid,
            vt: rec.vt,
            tt: rec.tt,
            prev: rec.prev,
            tuple,
        })
    }

    /// Decision 3 — the payload word of a chain record's time-index entry
    /// (the discriminator is always its record id).
    fn tix_payload(&self, no: AtomNo, tt: &Interval) -> u64 {
        match self.kind {
            StoreKind::Delta => no.0,
            StoreKind::Chain | StoreKind::Split => tt.end().0,
        }
    }

    /// Indexes chain record `rid` in the partition its `tt` belongs to.
    fn index_record(&self, rid: RecordId, no: AtomNo, tt: &Interval) -> Result<()> {
        self.tix.insert(
            tt.is_open_ended(),
            tt.start(),
            rid.pack(),
            self.tix_payload(no, tt),
        )
    }

    /// Decision 2, write side: rewrites closed, full record `rid` as a
    /// delta against `base` (its newer neighbour's tuple). Skipped when
    /// the delta would not fit in place — relocating the record would
    /// break the chain pointer aimed at it.
    fn try_compress(
        &self,
        rid: RecordId,
        rec: &VersionRecord,
        stored_len: usize,
        base: &Tuple,
    ) -> Result<()> {
        let Payload::Full(tuple) = &rec.payload else {
            return Ok(());
        };
        if rec.is_current() {
            return Ok(());
        }
        let bytes = VersionRecord {
            atom_no: rec.atom_no,
            vt: rec.vt,
            tt: rec.tt,
            prev: rec.prev,
            payload: Payload::Delta(TupleDelta::diff(base, tuple)),
        }
        .encode();
        if bytes.len() <= stored_len {
            let new_rid = self.heap.update(rid, &bytes)?;
            debug_assert_eq!(new_rid, rid, "in-place compression must not relocate");
        }
        Ok(())
    }

    // ---- mutation primitives ----

    /// Stores a new version with `tt = [tt_start, ∞)`.
    pub fn insert_version(
        &self,
        no: AtomNo,
        vt: Interval,
        tt_start: TimePoint,
        tuple: &Tuple,
    ) -> Result<()> {
        self.stamp(tt_start);
        if let Some(cur) = &self.cur {
            let (rid, mut set) = match cur.load(no)? {
                Some((rid, set)) => (Some(rid), set),
                None => (None, CurrentSet::default()),
            };
            set.entries.push((vt, tt_start, tuple.clone()));
            set.entries.sort_by_key(|(vt, _, _)| vt.start());
            cur.save(no, rid, &set)?;
            // Open key is (tt_start, atom_no): duplicates within one atom
            // and tick collapse into one entry, which is all a slice needs.
            return self.tix.insert(true, tt_start, no.0, no.0);
        }
        let old_head = dir_get(&self.dir, no)?.filter(|r| !r.is_invalid());
        let rec = VersionRecord {
            atom_no: no,
            vt,
            tt: Interval::from_start(tt_start),
            prev: old_head.unwrap_or(RecordId::INVALID),
            payload: Payload::Full(tuple.clone()),
        };
        let rid = self.heap.insert(&rec.encode())?;
        dir_set(&self.dir, no, rid)?;
        self.index_record(rid, no, &rec.tt)?;
        // The old head now has a newer neighbour; if it is closed and
        // still full, delta it.
        if let (StoreKind::Delta, Some(old_rid)) = (self.kind, old_head) {
            let (old_rec, old_len) = self
                .heap
                .with_record(old_rid, |b| (VersionRecord::decode(b), b.len()))?;
            self.try_compress(old_rid, &old_rec?, old_len, tuple)?;
        }
        Ok(())
    }

    /// Closes the transaction time of the current version whose valid time
    /// starts at `vt_start` and returns the tuple it held: `None` when no
    /// such current version exists.
    pub fn close_version(
        &self,
        no: AtomNo,
        vt_start: TimePoint,
        tt_end: TimePoint,
    ) -> Result<Option<Tuple>> {
        self.stamp(tt_end);
        let closed = |tt_start: TimePoint| {
            Interval::new(tt_start, tt_end)
                .ok_or_else(|| Error::internal("tt close before tt start"))
        };
        if let Some(cur) = &self.cur {
            let Some((set_rid, mut set)) = cur.load(no)? else {
                return Ok(None);
            };
            let Some(pos) = set
                .entries
                .iter()
                .position(|(vt, _, _)| vt.start() == vt_start)
            else {
                return Ok(None);
            };
            let (vt, tt_start, tuple) = set.entries.remove(pos);
            // Append the closed version to the history chain and index it
            // before it leaves the current set.
            let rec = VersionRecord {
                atom_no: no,
                vt,
                tt: closed(tt_start)?,
                prev: dir_get(&self.dir, no)?.unwrap_or(RecordId::INVALID),
                payload: Payload::Full(tuple),
            };
            let rid = self.heap.insert(&rec.encode())?;
            dir_set(&self.dir, no, rid)?;
            self.obs.split_migrations.inc();
            self.index_record(rid, no, &rec.tt)?;
            // The shrunk set is kept even when empty: its directory entry
            // marks the atom as existing.
            cur.save(no, Some(set_rid), &set)?;
            // The open entry is shared by every current version of this
            // atom with the same tt_start; drop it only when none remain.
            if !set.entries.iter().any(|(_, s, _)| *s == tt_start) {
                self.tix.remove(true, tt_start, no.0)?;
            }
            return full_copy(rec.payload).map(Some);
        }
        // Find the target; the delta layout also remembers its newer
        // neighbour's tuple for the compression pass.
        let mut target: Option<Link> = None;
        let mut newer: Option<Tuple> = None;
        self.walk(no, |l| {
            if l.tt.is_open_ended() && l.vt.start() == vt_start {
                target = Some(l.clone());
                return Ok(false);
            }
            if self.kind == StoreKind::Delta {
                newer = Some(l.tuple.clone());
            }
            Ok(true)
        })?;
        let Some(t) = target else {
            return Ok(None);
        };
        let rec = VersionRecord {
            atom_no: no,
            vt: t.vt,
            tt: closed(t.tt.start())?,
            prev: t.prev,
            payload: Payload::Full(t.tuple),
        };
        let bytes = rec.encode();
        let new_rid = self.heap.update(t.rid, &bytes)?;
        debug_assert_eq!(new_rid, t.rid, "closing a version shrinks its record");
        self.tix.close(
            rec.tt.start(),
            t.rid.pack(),
            new_rid.pack(),
            self.tix_payload(no, &rec.tt),
        )?;
        if let Some(base) = newer {
            self.try_compress(new_rid, &rec, bytes.len(), &base)?;
        }
        full_copy(rec.payload).map(Some)
    }

    // ---- reads ----

    /// The heap-resident versions of `no`, unsorted: every one (`at` =
    /// `None`) or those visible at transaction time `at`.
    ///
    /// On split the current set is read before the history chain, so a
    /// version closing meanwhile shows up once at least; twice, it keeps
    /// its closed copy.
    fn heap_versions(&self, no: AtomNo, at: Option<TimePoint>) -> Result<Vec<AtomVersion>> {
        let wanted = |tt: &Interval| at.is_none_or(|t| tt_visible(tt, t));
        let mut current = match &self.cur {
            Some(cur) => cur.versions(no)?,
            None => Vec::new(),
        };
        current.retain(|v| wanted(&v.tt));
        let mut out = Vec::new();
        self.walk(no, |l| {
            // Decision 4: everything older closed even earlier.
            if self.kind == StoreKind::Split && at.is_some_and(|t| l.tt.end() <= t) {
                return Ok(false);
            }
            if wanted(&l.tt) {
                out.push(l.version());
            }
            Ok(true)
        })?;
        current.retain(|c| !out.iter().any(|v| same_version(v, c)));
        current.append(&mut out);
        Ok(current)
    }

    /// The current (tt-open) versions, sorted by valid-time start.
    pub fn current_versions(&self, no: AtomNo) -> Result<Vec<AtomVersion>> {
        let _read = self.read();
        match &self.cur {
            // Current access never touches history pages.
            Some(cur) => cur.versions(no),
            None => Ok(sort_by_vt(
                self.heap_versions(no, Some(TimePoint::FOREVER))?,
            )),
        }
    }

    /// The versions visible at transaction time `tt`, sorted by valid-time
    /// start.
    pub fn versions_at(&self, no: AtomNo, tt: TimePoint) -> Result<Vec<AtomVersion>> {
        let _read = self.read();
        let mut out = self.heap_versions(no, Some(tt))?;
        self.segs.versions_at_for(no, tt, &mut out)?;
        Ok(sort_by_vt(out))
    }

    /// Every stored version, newest-recorded first.
    pub fn history(&self, no: AtomNo) -> Result<Vec<AtomVersion>> {
        let _read = self.read();
        let mut out = self.heap_versions(no, None)?;
        self.segs.history_for(no, &mut out)?;
        Ok(sort_history(out))
    }

    /// Index-backed snapshot scan: every atom that has at least one
    /// version visible at transaction time `tt`, in ascending atom-number
    /// order, with that atom's visible versions sorted by valid-time start
    /// — exactly what a per-atom [`Store::versions_at`] sweep over
    /// [`Store::atoms`] would produce, but driven by the transaction-time
    /// interval index instead of walking every chain. `TimePoint::FOREVER`
    /// means the current state.
    ///
    /// The open partition is read before the closed one, where a version
    /// that closes meanwhile is indexed before it leaves the open one.
    pub fn slice_at(&self, tt: TimePoint) -> Result<Vec<(AtomNo, Vec<AtomVersion>)>> {
        let _read = self.read();
        // Decision 3: an entry names a heap candidate either by record id
        // (stable chain records whose payload is their `tt.end`, so
        // invisible ones are dropped without touching the heap) or by atom.
        let mut rids: Vec<RecordId> = Vec::new();
        let mut atoms: Vec<u64> = Vec::new();
        let mut groups: BTreeMap<u64, Vec<AtomVersion>> = BTreeMap::new();
        // Open entries that started by `tt` are all visible.
        self.tix.scan(true, tt, &mut |e| {
            match self.kind {
                StoreKind::Chain => rids.push(RecordId::unpack(e.lo)),
                StoreKind::Delta | StoreKind::Split => atoms.push(e.payload),
            }
            Ok(true)
        })?;
        if let Some(cur) = &self.cur {
            // Each named atom's current set once; keep what had started.
            atoms.sort_unstable();
            atoms.dedup();
            for no in atoms.drain(..) {
                let mut started = cur.versions(AtomNo(no))?;
                started.retain(|v| tt_visible(&v.tt, tt));
                if !started.is_empty() {
                    groups.insert(no, started);
                }
            }
        }
        self.closed_into(tt, rids, atoms, &mut groups)?;
        Ok(settle(groups))
    }

    /// The closed half of [`Store::slice_at`]: every version visible at
    /// `tt` whose transaction time has since ended — in the hot heaps or
    /// archived in segments — grouped as `slice_at` groups them. Delta's
    /// closed index entries name atoms, not records, so there a group holds
    /// every version of its atom visible at `tt`, open ones included; on
    /// chain and split stores it holds the closed ones only.
    /// `TimePoint::FOREVER` yields nothing (closed versions are never
    /// current).
    pub fn closed_at(&self, tt: TimePoint) -> Result<Vec<(AtomNo, Vec<AtomVersion>)>> {
        let _read = self.read();
        let mut groups = BTreeMap::new();
        self.closed_into(tt, Vec::new(), Vec::new(), &mut groups)?;
        Ok(settle(groups))
    }

    /// Adds the closed partition's candidates visible at `tt` to the open
    /// half's `rids` and `atoms`, resolves them all into `groups`, then
    /// merges the archived versions in.
    fn closed_into(
        &self,
        tt: TimePoint,
        mut rids: Vec<RecordId>,
        mut atoms: Vec<u64>,
        groups: &mut BTreeMap<u64, Vec<AtomVersion>>,
    ) -> Result<()> {
        // Nothing closed is visible at FOREVER (current-state semantics).
        if !tt.is_forever() {
            self.tix.scan(false, tt, &mut |e| {
                match self.kind {
                    StoreKind::Delta => atoms.push(e.payload),
                    StoreKind::Chain | StoreKind::Split => {
                        if tt.0 < e.payload {
                            rids.push(RecordId::unpack(e.lo));
                        }
                    }
                }
                Ok(true)
            })?;
        }
        // Delta candidates are an over-approximate atom set; each answers
        // through the reconstructing walk.
        atoms.sort_unstable();
        atoms.dedup();
        for no in atoms {
            let vs = self.heap_versions(AtomNo(no), Some(tt))?;
            if !vs.is_empty() {
                groups.insert(no, vs);
            }
        }
        for rid in rids {
            let rec = self.heap.with_record(rid, VersionRecord::decode)??;
            debug_assert!(
                tt_visible(&rec.tt, tt),
                "time index surfaced invisible record"
            );
            groups.entry(rec.atom_no.0).or_default().push(AtomVersion {
                vt: rec.vt,
                tt: rec.tt,
                tuple: full_copy(rec.payload)?,
            });
        }
        // Archived versions merge in once.
        self.segs.slice_into(tt, groups)
    }

    // ---- maintenance ----

    /// Removes this atom's closed versions with `tt.end <= cutoff` from
    /// the hot heaps and returns them (order unspecified) with delta
    /// payloads materialized to full tuples; they are invisible to every
    /// slice at `tt >= cutoff`. This is pruning when the result is
    /// dropped, and the heap-side half of a segment swap when the
    /// compactor has first copied exactly this set into a segment file.
    /// Current versions and versions already archived into segments are
    /// never touched. Idempotent — a second call with the same cutoff
    /// finds nothing — which is what makes crash-recovery redo of a
    /// logged swap safe.
    pub fn extract_closed(
        &self,
        _held: &Maintenance<'_>,
        no: AtomNo,
        cutoff: TimePoint,
    ) -> Result<Vec<AtomVersion>> {
        let mut all: Vec<Link> = Vec::new();
        self.walk(no, |l| {
            all.push(l.clone());
            Ok(true)
        })?;
        let (pruned, kept): (Vec<Link>, Vec<Link>) =
            all.into_iter().partition(|l| l.tt.end() <= cutoff);
        if pruned.is_empty() {
            return Ok(Vec::new());
        }
        // Drop index entries under the *old* record ids first: rewriting
        // the kept chain relocates records, and the stale ids would
        // otherwise be unreachable.
        for l in pruned.iter().chain(&kept) {
            self.tix
                .remove(l.tt.is_open_ended(), l.tt.start(), l.rid.pack())?;
        }
        for l in &pruned {
            self.heap.delete(l.rid)?;
        }
        // Rewrite the kept chain oldest→newest (`kept[0]` is the newest),
        // so a relocation can never invalidate an already-written pointer.
        let mut prev = RecordId::INVALID;
        for i in (0..kept.len()).rev() {
            let l = &kept[i];
            // Decision 2: deltas depended on neighbours that may be gone,
            // so payloads are recomputed — the head and every current
            // record full, the rest against their new newer neighbour.
            let payload = if self.kind == StoreKind::Delta && i > 0 && !l.tt.is_open_ended() {
                Payload::Delta(TupleDelta::diff(&kept[i - 1].tuple, &l.tuple))
            } else {
                Payload::Full(l.tuple.clone())
            };
            let rec = VersionRecord {
                atom_no: no,
                vt: l.vt,
                tt: l.tt,
                prev,
                payload,
            };
            prev = self.heap.update(l.rid, &rec.encode())?;
            if prev != l.rid {
                self.heap.delete(l.rid)?;
            }
            self.index_record(prev, no, &l.tt)?;
        }
        // Directory entries are never removed; INVALID ends walks.
        dir_set(&self.dir, no, prev)?;
        Ok(pruned
            .into_iter()
            .map(|l| AtomVersion {
                vt: l.vt,
                tt: l.tt,
                tuple: l.tuple,
            })
            .collect())
    }

    /// Removes every atom's closed versions with `tt.end <= cutoff` from
    /// the hot heaps, then repacks the time index: the one pass behind
    /// history pruning, the heap side of a segment swap, and the swap's
    /// recovery redo. It relocates records and rebuilds index nodes, so it
    /// runs under the store's [`Maintenance`] hold. Returns the number of
    /// versions removed.
    pub fn extract_all_closed(&self, held: &Maintenance<'_>, cutoff: TimePoint) -> Result<u64> {
        let mut removed = 0;
        for no in self.atom_nos()? {
            removed += self.extract_closed(held, no, cutoff)?.len() as u64;
        }
        // Index deletion is lazy, so an extraction that removes most
        // closed versions leaves the emptied leaf pages on the scan chain;
        // until they are repacked, every slice reads the index at its
        // pre-extraction size.
        self.tix.compact()?;
        Ok(removed)
    }

    /// Read-only preview of [`Store::extract_closed`]: this atom's
    /// *heap-resident* closed versions with `tt.end <= cutoff`, delta
    /// payloads materialized, already-archived segment versions excluded.
    /// The compactor copies exactly this set into a segment file before
    /// extracting it, so a crash between the two leaves either state
    /// readable.
    pub fn collect_closed(&self, no: AtomNo, cutoff: TimePoint) -> Result<Vec<AtomVersion>> {
        let _read = self.read();
        let mut out = Vec::new();
        self.walk(no, |l| {
            if l.tt.end() <= cutoff {
                out.push(l.version());
            }
            Ok(true)
        })?;
        Ok(out)
    }

    // ---- statistics ----

    /// Heap pages of this store currently resident in the buffer pool —
    /// a cheap live sample (one pass over the pool's shard tags), unlike
    /// the exhaustive [`Store::stats`]. Feeds the planner's residency
    /// discount.
    pub fn resident_pages(&self) -> u64 {
        self.heap.resident_pages() + self.cur.as_ref().map_or(0, |c| c.heap.resident_pages())
    }

    /// Exhaustive storage statistics (scans the store).
    pub fn stats(&self) -> Result<StoreStats> {
        let _read = self.read();
        let (mut versions, mut bytes, mut open) = (0u64, 0u64, 0u64);
        let mut depth: HashMap<u64, u64> = HashMap::new();
        let mut heap_pages = self.heap.data_pages() as u64;
        if let Some(cur) = &self.cur {
            heap_pages += cur.heap.data_pages() as u64;
            cur.heap.scan(|_, rec| {
                // A current-set record leads with its atom number and its
                // entry count; that is all the statistics need of it.
                let mut d = Decoder::new(rec);
                let (no, n) = (d.get_u64()?, d.get_u64()?);
                versions += n;
                open += n;
                *depth.entry(no).or_insert(0) += n;
                bytes += rec.len() as u64;
                Ok(true)
            })?;
        }
        self.heap.scan(|_, rec| {
            let r = VersionRecord::decode(rec)?;
            versions += 1;
            open += u64::from(r.is_current());
            *depth.entry(r.atom_no.0).or_insert(0) += 1;
            bytes += rec.len() as u64;
            Ok(true)
        })?;
        let seg = self.segs.stats();
        Ok(StoreStats {
            atoms: self.atom_dir().len()?,
            versions,
            heap_pages,
            record_bytes: bytes,
            dir_height: self.atom_dir().height()?,
            open_versions: open,
            max_depth: depth.values().copied().max().unwrap_or(0),
            time_entries: self.tix.len()?,
            resident_pages: self.resident_pages(),
            segments: seg.segments,
            segment_pages: seg.pages,
            segment_versions: seg.versions,
        })
    }

    /// Diagnostic: payload forms in the chain heap and the page split
    /// between current area and chains (scans the chain heap).
    pub fn shape(&self) -> Result<HeapShape> {
        let _read = self.read();
        let mut shape = HeapShape {
            current_pages: self.cur.as_ref().map_or(0, |c| c.heap.data_pages()),
            chain_pages: self.heap.data_pages(),
            ..HeapShape::default()
        };
        self.heap.scan(|_, rec| {
            match VersionRecord::decode(rec)?.payload {
                Payload::Full(_) => shape.full += 1,
                Payload::Delta(_) => shape.delta += 1,
            }
            Ok(true)
        })?;
        Ok(shape)
    }
}

/// Decision 2, read side: outside a delta-layout walk every payload must
/// be a full tuple.
fn full_copy(payload: Payload) -> Result<Tuple> {
    match payload {
        Payload::Full(t) => Ok(t),
        Payload::Delta(_) => Err(Error::corruption("delta record in a full-copy store")),
    }
}

/// Looks up an atom's entry in a directory tree.
fn dir_get(dir: &BTree, no: AtomNo) -> Result<Option<RecordId>> {
    Ok(dir.get(BKey::new(no.0, 0))?.map(RecordId::unpack))
}

/// `read` of the record directory `dir` names for atom `no` (`None` when
/// it names none). A record that cannot be read is one a commit has just
/// moved on from — a relocation freed or reused its slot, or the delta
/// layout re-encoded the old head once the new one was in the directory
/// — so the directory is read again; only a record it still names is
/// corrupt.
fn through_dir<T>(
    dir: &BTree,
    no: AtomNo,
    read: impl Fn(RecordId) -> Result<T>,
) -> Result<Option<T>> {
    let named = || Ok::<_, Error>(dir_get(dir, no)?.filter(|r| !r.is_invalid()));
    let mut at = named()?;
    while let Some(rid) = at {
        match read(rid) {
            Ok(t) => return Ok(Some(t)),
            Err(e) => {
                let now = named()?;
                if now == at {
                    return Err(e);
                }
                at = now;
            }
        }
    }
    Ok(None)
}

/// Points an atom's directory entry at `rid`.
fn dir_set(dir: &BTree, no: AtomNo, rid: RecordId) -> Result<()> {
    dir.insert(BKey::new(no.0, 0), rid.pack())?;
    Ok(())
}

/// Sorts versions by valid-time start (the canonical result order).
fn sort_by_vt(mut vs: Vec<AtomVersion>) -> Vec<AtomVersion> {
    vs.sort_by_key(|v| v.vt.start());
    vs
}

/// One version seen twice: open in its old place and closed in its new
/// one, while a commit closes it.
fn same_version(a: &AtomVersion, b: &AtomVersion) -> bool {
    a.vt.start() == b.vt.start() && a.tt.start() == b.tt.start()
}

/// A slice's groups in the canonical order, each version once (its closed
/// copy, when a close in flight showed it twice).
fn settle(groups: BTreeMap<u64, Vec<AtomVersion>>) -> Vec<(AtomNo, Vec<AtomVersion>)> {
    groups
        .into_iter()
        .map(|(no, mut vs)| {
            vs.sort_by_key(|v| (v.vt.start(), v.tt.start(), v.tt.end()));
            vs.dedup_by(|b, a| same_version(a, b));
            (AtomNo(no), vs)
        })
        .collect()
}

/// Transaction-time visibility at `tt`, with `FOREVER` clamped to
/// current-version semantics: the sentinel lies past every half-open
/// interval (`tt.contains(FOREVER)` is false even for open intervals), so a
/// slice at `∞` means "the versions recorded until changed" — exactly the
/// tt-open ones.
fn tt_visible(tt_iv: &Interval, tt: TimePoint) -> bool {
    if tt.is_forever() {
        tt_iv.is_open_ended()
    } else {
        tt_iv.contains(tt)
    }
}

/// Canonical history order: newest-recorded first
/// (`tt.start` descending, then `vt.start`, then `tt.end`), so results are
/// comparable across layouts.
fn sort_history(mut vs: Vec<AtomVersion>) -> Vec<AtomVersion> {
    vs.sort_by(|a, b| {
        b.tt.start()
            .cmp(&a.tt.start())
            .then(a.vt.start().cmp(&b.vt.start()))
            .then(a.tt.end().cmp(&b.tt.end()))
    });
    vs
}

#[cfg(test)]
mod tests;
