//! Write transactions: deferred application with read-your-writes.
//!
//! A [`Txn`] buffers mutation primitives and maintains an *overlay* — the
//! would-be current state of every touched atom. Isolation between
//! concurrent transactions is by per-atom-type commit stripes
//! ([`crate::stripes`]): the first touch of an atom type acquires its
//! stripe (wait-die on begin order), held until the commit is fully
//! applied and published. Disjoint writers therefore run in parallel end
//! to end. Nothing reaches the stores until [`Txn::commit`]:
//!
//! 1. the buffered primitives are **netted** (a version inserted and
//!    closed within the same transaction is elided entirely, so no
//!    empty-transaction-time version is ever stored);
//! 2. under the engine's `wal_order` mutex a fresh transaction time `t`
//!    is drawn and `Begin`, the stamped primitives, and `Commit` are
//!    staged to the WAL in one batch — WAL order equals `t` order, so a
//!    torn log tail always cuts a transaction-time *suffix*;
//! 3. the batch is made durable: with group commit, via the
//!    leader/follower fsync gate (`Wal::sync_to`), which lets commits
//!    that arrive during another commit's fsync share the next one;
//! 4. the logged records are applied to the version stores and the value
//!    indexes in publish-turn order by `Database::apply_commit` — the
//!    routine a replica applies through too — under `commit_lock.read()`
//!    (appliers exclude maintenance, not each other or readers); then `t`
//!    is **published**, making the commit visible to snapshot reads.
//!
//! Commit work is bounded by the *write set* — the atoms with buffered
//! primitives. Atoms the transaction only read (a `current_versions` or
//! `current_tuple` peek) stay in the overlay as a read cache and cost the
//! commit nothing.
//!
//! Dropping an uncommitted transaction aborts it: since nothing was
//! applied, abort only releases the stripes (allocated atom numbers are
//! burned, which is harmless and standard).

use crate::db::{to_current, Database};
use crate::dml::{self, CurrentVersion, Plan, Primitive};
use std::collections::{HashMap, HashSet};
use tcom_kernel::{AtomId, AtomTypeId, Error, Interval, Result, TimePoint, Tuple, TxnId};
use tcom_wal::{LogRecord, SyncPolicy};

/// One buffered primitive, tagged with its atom.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct TaggedOp {
    pub atom: AtomId,
    pub op: Primitive,
}

/// A write transaction.
pub struct Txn<'db> {
    db: &'db Database,
    /// Wait-die id (begin order; smaller = older = wins waits).
    id: u64,
    /// Abort instead of blocking on any stripe conflict.
    no_wait: bool,
    /// Stripes held, by stripe index.
    held: Vec<bool>,
    ops: Vec<TaggedOp>,
    /// Overlay current state of touched atoms: everything written, plus
    /// atoms read for write.
    overlay: HashMap<AtomId, Vec<CurrentVersion>>,
    /// The write set: every atom with buffered primitives.
    written: HashSet<AtomId>,
}

impl<'db> Txn<'db> {
    pub(crate) fn new(db: &'db Database, no_wait: bool) -> Txn<'db> {
        Txn {
            db,
            id: db.next_txn_id(),
            no_wait,
            held: vec![false; db.stripes().len()],
            ops: Vec::new(),
            overlay: HashMap::new(),
            written: HashSet::new(),
        }
    }

    /// This transaction's wait-die id (begin order, 1-based).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Acquires the commit stripe of `ty` if not already held. Every read
    /// of committed state that feeds this transaction's overlay (and every
    /// atom-number allocation) runs under the type's stripe; the first
    /// touch of a type takes it implicitly. Maintenance takes no stripe;
    /// those reads wait at the store's maintenance lock instead. A
    /// statement that enumerates a type's atoms takes it explicitly
    /// *before* the enumeration: otherwise an older transaction could
    /// enumerate, wait here behind a younger inserter, and miss the row
    /// that commit adds although stripe order serializes it after the
    /// insert.
    pub fn lock_type(&mut self, ty: AtomTypeId) -> Result<()> {
        let idx = self.db.stripes().stripe_of(ty);
        if !self.held[idx] {
            self.db.stripes().acquire(idx, self.id, self.no_wait)?;
            self.held[idx] = true;
        }
        Ok(())
    }

    fn release_stripes(&mut self) {
        for (idx, h) in self.held.iter_mut().enumerate() {
            if *h {
                self.db.stripes().release(idx, self.id);
                *h = false;
            }
        }
    }

    /// The transaction's view of an atom's current versions
    /// (read-your-writes). The base read waits out a segment swap's
    /// extraction, which may rewrite the atom's records under the stripe.
    pub fn current_versions(&mut self, atom: AtomId) -> Result<Vec<CurrentVersion>> {
        if let Some(v) = self.overlay.get(&atom) {
            return Ok(v.clone());
        }
        self.lock_type(atom.ty)?;
        let base = to_current(self.db.current_versions(atom)?);
        self.overlay.insert(atom, base.clone());
        Ok(base)
    }

    /// The transaction's view of the tuple valid at `vt`, if any.
    pub fn current_tuple(&mut self, atom: AtomId, vt: TimePoint) -> Result<Option<Tuple>> {
        Ok(self
            .current_versions(atom)?
            .into_iter()
            .find(|v| v.vt.contains(vt))
            .map(|v| v.tuple))
    }

    fn check_tuple(&self, ty: AtomTypeId, tuple: &Tuple) -> Result<()> {
        self.db
            .with_catalog(|c| c.atom_type(ty)?.check_tuple(tuple))
    }

    /// Checks that every atom referenced by `tuple` exists (in this
    /// transaction's view or committed state).
    fn check_references(&mut self, tuple: &Tuple) -> Result<()> {
        let refs: Vec<AtomId> = tuple.referenced_atoms().collect();
        for r in refs {
            let known_here = self.overlay.contains_key(&r);
            if !known_here && !self.db.atom_exists(r)? {
                return Err(Error::Txn(format!("reference to unknown atom {r}")));
            }
        }
        Ok(())
    }

    fn record_plan(&mut self, atom: AtomId, plan: Plan) -> Result<()> {
        let next = dml::apply_plan(&self.current_versions(atom)?, &plan)?;
        if !plan.is_empty() {
            self.written.insert(atom);
        }
        self.overlay.insert(atom, next);
        self.ops
            .extend(plan.primitives.into_iter().map(|op| TaggedOp { atom, op }));
        Ok(())
    }

    /// Creates a new atom valid over `vt`, returning its id.
    pub fn insert_atom(&mut self, ty: AtomTypeId, vt: Interval, tuple: Tuple) -> Result<AtomId> {
        self.check_tuple(ty, &tuple)?;
        self.check_references(&tuple)?;
        // Stripe before allocation: concurrent inserters of one type
        // serialize here, so atom numbers cannot race.
        self.lock_type(ty)?;
        let atom = AtomId::new(ty, self.db.alloc_atom_no(ty));
        self.overlay.insert(atom, Vec::new());
        let plan = dml::plan_insert(&[], vt, &tuple)?;
        self.record_plan(atom, plan).map(|_| atom)
    }

    /// Adds a version of an *existing* atom over a valid-time extent not
    /// covered by any current version.
    pub fn insert_version(&mut self, atom: AtomId, vt: Interval, tuple: Tuple) -> Result<()> {
        self.check_tuple(atom.ty, &tuple)?;
        self.check_references(&tuple)?;
        self.require_exists(atom)?;
        let cur = self.current_versions(atom)?;
        let plan = dml::plan_insert(&cur, vt, &tuple)?;
        self.record_plan(atom, plan)
    }

    /// Sets the atom's content over `vt` (bitemporal update with splitting
    /// and coalescing).
    pub fn update(&mut self, atom: AtomId, vt: Interval, tuple: Tuple) -> Result<()> {
        self.check_tuple(atom.ty, &tuple)?;
        self.check_references(&tuple)?;
        self.require_exists(atom)?;
        let cur = self.current_versions(atom)?;
        let plan = dml::plan_update(&cur, vt, &tuple)?;
        self.record_plan(atom, plan)
    }

    /// Logically deletes the atom's content over `vt`.
    pub fn delete(&mut self, atom: AtomId, vt: Interval) -> Result<()> {
        self.require_exists(atom)?;
        let cur = self.current_versions(atom)?;
        let plan = dml::plan_delete(&cur, vt)?;
        self.record_plan(atom, plan)
    }

    fn require_exists(&mut self, atom: AtomId) -> Result<()> {
        self.lock_type(atom.ty)?;
        if self.overlay.contains_key(&atom) || self.db.atom_exists(atom)? {
            Ok(())
        } else {
            Err(Error::AtomNotFound(atom.to_string()))
        }
    }

    /// Number of buffered primitives.
    pub fn pending_ops(&self) -> usize {
        self.ops.len()
    }

    /// This transaction's would-be current versions of `atom`, `Some` only
    /// for atoms it has buffered *writes* for (including atoms it created).
    /// Never acquires a commit stripe, so in-transaction queries consult it
    /// without widening the lock footprint. Atoms that merely passed
    /// through the overlay's read cache keep their committed state — and,
    /// crucially, their committed transaction-time stamps — so
    /// in-transaction queries do not restamp unmodified rows with the
    /// provisional transaction time.
    pub fn written_versions(&self, atom: AtomId) -> Option<&[CurrentVersion]> {
        if !self.written.contains(&atom) {
            return None;
        }
        self.overlay.get(&atom).map(|v| v.as_slice())
    }

    /// Every atom with buffered writes, each once, in no particular order.
    pub fn written_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.written.iter().copied()
    }

    /// Commits: logs and applies every buffered primitive at a single new
    /// transaction time, which is returned.
    pub fn commit(mut self) -> Result<TimePoint> {
        let _span = self.db.obs().span("txn.commit");
        if self.db.is_replica() {
            return Err(Error::Txn(
                "database is a read-only replica; commits are rejected (writes go to the leader)"
                    .into(),
            ));
        }
        let ops = net_ops(std::mem::take(&mut self.ops));
        if ops.is_empty() {
            return Ok(self.db.now());
        }
        // No-steal pressure guard: flush *before* this transaction's
        // writes enter the pool, so the pool always has room for one
        // transaction's write set.
        self.db.flush_if_pressured()?;

        // 1. Draw the transaction time and stage the WAL batch under the
        //    order mutex: WAL order == transaction-time order, so a torn
        //    tail after a crash is always a tt-suffix. Once `tt` is drawn
        //    it MUST eventually be published (even on failure) or every
        //    younger commit would wait forever: `plug` guarantees it.
        let wal = self.db.wal();
        let order = self.db.wal_order.lock();
        let tt = self.db.draw_tt();
        let mut plug = PublishOnDrop {
            db: self.db,
            tt,
            armed: true,
        };
        let txn = TxnId(tt.0);
        let mut recs = Vec::with_capacity(ops.len() + 2);
        recs.push(LogRecord::Begin { txn });
        for TaggedOp { atom, op } in &ops {
            recs.push(match op {
                Primitive::Close { vt_start } => LogRecord::CloseVersion {
                    txn,
                    atom: *atom,
                    vt_start: *vt_start,
                    tt_end: tt,
                },
                Primitive::Insert { vt, tuple } => LogRecord::InsertVersion {
                    txn,
                    atom: *atom,
                    vt: *vt,
                    tt_start: tt,
                    tuple: tuple.clone(),
                },
            });
        }
        recs.push(LogRecord::Commit { txn });
        let end = wal.append_all(&recs)?;
        drop(order);

        // 2. Durability. With group commit, commits arriving while the
        //    fsync leader is in flight enqueue behind the gate and share
        //    the next fsync; otherwise each commit pays its own.
        if wal.policy() == SyncPolicy::OnCommit {
            if self.db.config().group_commit {
                wal.sync_to(end)?;
            } else {
                wal.sync()?;
            }
        }

        // 3. Apply in publish-turn order, then publish — the routine a
        //    replica applies through too: the logged records alone drive
        //    the stores and the value indexes.
        self.db.wait_for_turn(tt);
        self.db.apply_commit(tt, &recs, Database::publish)?;
        plug.armed = false;

        // 4. Strict 2PL tail: stripes release only now, after publish.
        self.release_stripes();
        self.db.note_commit()?;
        Ok(tt)
    }

    /// Explicitly abandons the transaction (equivalent to dropping it).
    pub fn abort(mut self) {
        self.ops.clear();
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        self.release_stripes();
    }
}

/// Publishes a drawn transaction time on drop unless disarmed. A commit
/// that fails after [`Database::draw_tt`] (WAL full, fsync error, apply
/// error) still owes the pipeline its publish turn; this guard pays it,
/// publishing an empty transaction so younger commits are not wedged.
struct PublishOnDrop<'a> {
    db: &'a Database,
    tt: TimePoint,
    armed: bool,
}

impl Drop for PublishOnDrop<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.db.wait_for_turn(self.tt);
            self.db.publish(self.tt);
        }
    }
}

/// Nets a primitive sequence: an `Insert` whose version is later `Close`d
/// within the same transaction is removed together with that `Close`
/// (such a version would have an empty transaction-time extent and must
/// never be stored or logged).
pub(crate) fn net_ops(ops: Vec<TaggedOp>) -> Vec<TaggedOp> {
    // Track, per (atom, vt.start), the index of the pending in-txn insert.
    let mut result: Vec<Option<TaggedOp>> = Vec::with_capacity(ops.len());
    let mut pending_insert: HashMap<(AtomId, TimePoint), usize> = HashMap::new();
    for t in ops {
        match &t.op {
            Primitive::Insert { vt, .. } => {
                pending_insert.insert((t.atom, vt.start()), result.len());
                result.push(Some(t));
            }
            Primitive::Close { vt_start } => {
                if let Some(idx) = pending_insert.remove(&(t.atom, *vt_start)) {
                    result[idx] = None; // elide the pair
                } else {
                    result.push(Some(t));
                }
            }
        }
    }
    // Apply closes before inserts at equal safety: order among survivors is
    // already consistent (every surviving close targets a pre-txn version,
    // every surviving insert is final state), but keep closes first so a
    // re-inserted vt range never transiently overlaps.
    let survivors: Vec<TaggedOp> = result.into_iter().flatten().collect();
    let (closes, inserts): (Vec<_>, Vec<_>) = survivors
        .into_iter()
        .partition(|t| matches!(t.op, Primitive::Close { .. }));
    closes.into_iter().chain(inserts).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcom_kernel::time::{iv, iv_from};
    use tcom_kernel::{AtomNo, Value};

    fn aid(no: u64) -> AtomId {
        AtomId::new(AtomTypeId(0), AtomNo(no))
    }

    fn tup(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    fn ins(atom: AtomId, vt: Interval, v: i64) -> TaggedOp {
        TaggedOp {
            atom,
            op: Primitive::Insert { vt, tuple: tup(v) },
        }
    }

    fn close(atom: AtomId, vt_start: u64) -> TaggedOp {
        TaggedOp {
            atom,
            op: Primitive::Close {
                vt_start: TimePoint(vt_start),
            },
        }
    }

    #[test]
    fn net_elides_insert_close_pairs() {
        // insert v1 @0, close @0 (pre-txn), insert v2 @0, close @0 (hits v2), insert v3 @0
        let ops = vec![
            close(aid(1), 0), // closes a pre-txn version: survives
            ins(aid(1), iv_from(0), 1),
            close(aid(1), 0), // closes the in-txn insert: both elided
            ins(aid(1), iv_from(0), 2),
        ];
        let net = net_ops(ops);
        assert_eq!(net.len(), 2);
        assert!(matches!(
            net[0].op,
            Primitive::Close {
                vt_start: TimePoint(0)
            }
        ));
        assert!(matches!(&net[1].op, Primitive::Insert { tuple, .. } if *tuple == tup(2)));
    }

    #[test]
    fn net_keeps_unrelated_ops() {
        let ops = vec![
            ins(aid(1), iv(0, 10), 1),
            ins(aid(2), iv(0, 10), 2),
            close(aid(3), 5),
        ];
        let net = net_ops(ops.clone());
        assert_eq!(net.len(), 3);
        // closes first
        assert!(matches!(net[0].op, Primitive::Close { .. }));
    }

    #[test]
    fn net_distinguishes_atoms() {
        // close(atom2, 0) must not elide insert(atom1, 0)
        let ops = vec![ins(aid(1), iv_from(0), 1), close(aid(2), 0)];
        let net = net_ops(ops);
        assert_eq!(net.len(), 2);
    }

    #[test]
    fn net_fully_cancelling_txn() {
        let ops = vec![ins(aid(1), iv_from(0), 1), close(aid(1), 0)];
        assert!(net_ops(ops).is_empty());
    }
}
