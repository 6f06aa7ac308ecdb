//! Columnar version batches and batched temporal operators.
//!
//! The executor moves a [`VersionBatch`] — a vector of versions with the
//! tt/vt interval stamps held in *columns* — through clip → filter →
//! project, so visibility filtering, valid-time clipping and the
//! temporal operators (join, aggregation, coalescing) run as tight loops
//! over plain `TimePoint` arrays instead of per-tuple virtual dispatch,
//! and tuple grouping hashes compact byte keys instead of the display
//! strings the scalar algebra uses.
//!
//! Operator semantics mirror [`crate::algebra`]:
//!
//! * [`join_batches`] — temporal equi-join: tuples concatenate, valid and
//!   transaction intervals intersect, pairs with an empty intersection on
//!   either axis drop out;
//! * [`aggregate_batch`] — boundary-sweep count/sum over valid time,
//!   byte-identical to [`crate::algebra::temporal_aggregate`] on the same
//!   rows;
//! * [`coalesce_batch`] — per-atom period normalization: rows of one atom
//!   that agree on the projected values (and transaction time) merge their
//!   valid-time periods into maximal intervals.

use crate::algebra::AggStep;
use std::collections::HashMap;
use tcom_kernel::{AtomId, Interval, TemporalElement, TimePoint, Tuple, Value};
use tcom_version::record::AtomVersion;

/// A batch of versions with columnar interval stamps.
///
/// Row `i` is `(atoms[i], tuples[i], [vt_start[i], vt_end[i]),
/// [tt_start[i], tt_end[i]))`. All six columns always have equal length.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VersionBatch {
    /// Owning atom per row.
    pub atoms: Vec<AtomId>,
    /// Tuple per row.
    pub tuples: Vec<Tuple>,
    /// Valid-time interval starts.
    pub vt_start: Vec<TimePoint>,
    /// Valid-time interval ends (`FOREVER` = open).
    pub vt_end: Vec<TimePoint>,
    /// Transaction-time interval starts.
    pub tt_start: Vec<TimePoint>,
    /// Transaction-time interval ends (`FOREVER` = still current).
    pub tt_end: Vec<TimePoint>,
}

fn interval(start: TimePoint, end: TimePoint) -> Interval {
    if end.is_forever() {
        Interval::from_start(start)
    } else {
        Interval::new(start, end).expect("batch rows hold valid intervals")
    }
}

impl VersionBatch {
    /// An empty batch with room for `n` rows.
    pub fn with_capacity(n: usize) -> VersionBatch {
        VersionBatch {
            atoms: Vec::with_capacity(n),
            tuples: Vec::with_capacity(n),
            vt_start: Vec::with_capacity(n),
            vt_end: Vec::with_capacity(n),
            tt_start: Vec::with_capacity(n),
            tt_end: Vec::with_capacity(n),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Removes all rows, keeping the columns' capacity.
    pub fn clear(&mut self) {
        self.atoms.clear();
        self.tuples.clear();
        self.vt_start.clear();
        self.vt_end.clear();
        self.tt_start.clear();
        self.tt_end.clear();
    }

    /// Appends one version.
    pub fn push(&mut self, atom: AtomId, v: &AtomVersion) {
        self.push_row(atom, v.tuple.clone(), v.vt, v.tt);
    }

    /// Appends one row from its parts.
    pub fn push_row(&mut self, atom: AtomId, tuple: Tuple, vt: Interval, tt: Interval) {
        self.atoms.push(atom);
        self.tuples.push(tuple);
        self.vt_start.push(vt.start());
        self.vt_end.push(vt.end());
        self.tt_start.push(tt.start());
        self.tt_end.push(tt.end());
    }

    /// Row `i`'s valid-time interval.
    pub fn vt(&self, i: usize) -> Interval {
        interval(self.vt_start[i], self.vt_end[i])
    }

    /// Row `i`'s transaction-time interval.
    pub fn tt(&self, i: usize) -> Interval {
        interval(self.tt_start[i], self.tt_end[i])
    }

    /// Keeps only the rows whose index passes `keep` (batch compaction).
    pub fn retain_indices(&mut self, keep: impl Fn(usize) -> bool) {
        let mut w = 0usize;
        for r in 0..self.len() {
            if keep(r) {
                if w != r {
                    self.atoms.swap(w, r);
                    self.tuples.swap(w, r);
                    self.vt_start.swap(w, r);
                    self.vt_end.swap(w, r);
                    self.tt_start.swap(w, r);
                    self.tt_end.swap(w, r);
                }
                w += 1;
            }
        }
        self.atoms.truncate(w);
        self.tuples.truncate(w);
        self.vt_start.truncate(w);
        self.vt_end.truncate(w);
        self.tt_start.truncate(w);
        self.tt_end.truncate(w);
    }

    /// Batch-wise transaction-time visibility: keeps rows visible at `tt`
    /// (`FOREVER` = rows still current). One pass over the tt columns.
    pub fn retain_visible_at(&mut self, tt: TimePoint) {
        let (starts, ends) = (
            std::mem::take(&mut self.tt_start),
            std::mem::take(&mut self.tt_end),
        );
        self.tt_start = starts;
        self.tt_end = ends;
        let vis: Vec<bool> = (0..self.len())
            .map(|i| {
                if tt.is_forever() {
                    self.tt_end[i].is_forever()
                } else {
                    self.tt_start[i] <= tt && (self.tt_end[i].is_forever() || tt < self.tt_end[i])
                }
            })
            .collect();
        self.retain_indices(|i| vis[i]);
    }

    /// Batch-wise valid-time clip to `[a, b)`: intervals intersect with the
    /// window in place, rows that lose all valid time drop out.
    pub fn clip_valid_window(&mut self, window: Interval) {
        let keep: Vec<bool> = (0..self.len())
            .map(|i| match self.vt(i).intersect(&window) {
                Some(clipped) => {
                    self.vt_start[i] = clipped.start();
                    self.vt_end[i] = clipped.end();
                    true
                }
                None => false,
            })
            .collect();
        self.retain_indices(|i| keep[i]);
    }

    /// Batch-wise valid-time point filter: keeps rows whose valid time
    /// contains `t`.
    pub fn retain_valid_at(&mut self, t: TimePoint) {
        let keep: Vec<bool> = (0..self.len()).map(|i| self.vt(i).contains(t)).collect();
        self.retain_indices(|i| keep[i]);
    }

    /// The rows as `(atom, tuple, vt, tt)` (row-major view of the columns).
    pub fn rows(&self) -> impl Iterator<Item = (AtomId, &Tuple, Interval, Interval)> + '_ {
        (0..self.len()).map(|i| (self.atoms[i], &self.tuples[i], self.vt(i), self.tt(i)))
    }
}

/// Appends an order-preserving, discriminant-tagged byte encoding of `v`
/// to `out` — the grouping/join key the batched operators hash instead of
/// the scalar algebra's display strings. Returns `false` for NULL (which
/// never compares equal, so NULL keys never join or group).
pub fn value_key_bytes(v: &Value, out: &mut Vec<u8>) -> bool {
    match v {
        Value::Null => return false,
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(4);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(5);
            out.extend_from_slice(b);
        }
        Value::Ref(a) => {
            out.push(6);
            out.extend_from_slice(&a.ty.0.to_le_bytes());
            out.extend_from_slice(&a.no.0.to_le_bytes());
        }
        Value::RefSet(ids) => {
            out.push(7);
            for a in ids {
                out.extend_from_slice(&a.ty.0.to_le_bytes());
                out.extend_from_slice(&a.no.0.to_le_bytes());
            }
        }
    }
    out.push(0xfe); // terminator so concatenated keys can't alias
    true
}

/// Temporal equi-join of two batches on one key position per side: for
/// every pair with SQL-equal keys, the tuples concatenate and both time
/// axes intersect — a joined fact holds only while (vt) and only as
/// recorded while (tt) both inputs hold. Pairs with an empty intersection
/// on either axis drop out; NULL keys never match. Output order is
/// left-major, right insertion order; the output atom is the left row's.
pub fn join_batches(
    left: &VersionBatch,
    right: &VersionBatch,
    left_key: usize,
    right_key: usize,
) -> VersionBatch {
    let mut table: HashMap<Vec<u8>, Vec<usize>> = HashMap::new();
    let mut key = Vec::new();
    for r in 0..right.len() {
        key.clear();
        if value_key_bytes(right.tuples[r].get(right_key), &mut key) {
            table.entry(key.clone()).or_default().push(r);
        }
    }
    let mut out = VersionBatch::default();
    for l in 0..left.len() {
        key.clear();
        if !value_key_bytes(left.tuples[l].get(left_key), &mut key) {
            continue;
        }
        let Some(matches) = table.get(&key) else {
            continue;
        };
        for &r in matches {
            let Some(vt) = left.vt(l).intersect(&right.vt(r)) else {
                continue;
            };
            let Some(tt) = left.tt(l).intersect(&right.tt(r)) else {
                continue;
            };
            let tuple: Tuple = left.tuples[l]
                .values()
                .iter()
                .chain(right.tuples[r].values())
                .cloned()
                .collect();
            out.push_row(left.atoms[l], tuple, vt, tt);
        }
    }
    out
}

/// Temporal aggregation over a batch's valid-time column: for every
/// maximal constant interval, how many rows hold and (optionally) the sum
/// of the integer attribute at `attr` — the boundary sweep of
/// [`crate::algebra::temporal_aggregate`] run straight over the columns,
/// with a sorted event vector in place of the scalar path's hash map.
pub fn aggregate_batch(batch: &VersionBatch, attr: Option<usize>) -> Vec<AggStep> {
    // (time, dcount, dsum) events.
    let mut events: Vec<(TimePoint, i64, i64)> = Vec::with_capacity(batch.len() * 2);
    for i in 0..batch.len() {
        let contribution = match attr {
            None => 0i64,
            Some(p) => match batch.tuples[i].try_get(p) {
                Some(Value::Int(v)) => *v,
                _ => 0,
            },
        };
        events.push((batch.vt_start[i], 1, contribution));
        if !batch.vt_end[i].is_forever() {
            events.push((batch.vt_end[i], -1, -contribution));
        }
    }
    if events.is_empty() {
        return Vec::new();
    }

    // Collapse the events into per-boundary net deltas, sorted by time.
    // Valid-time clocks are small integers in practice, so when the
    // touched span is comparable to the event count a dense bucket sweep
    // (no sort, no hashing) does it in O(n + span); wide or adversarial
    // axes fall back to an unstable sort (same-instant events sum
    // commutatively, so stability is not needed).
    let lo = events.iter().map(|e| e.0 .0).min().expect("non-empty");
    let hi = events.iter().map(|e| e.0 .0).max().expect("non-empty");
    let span = hi - lo;
    let mut boundaries: Vec<(TimePoint, i64, i64)> = Vec::new();
    if span < (events.len() as u64 * 4).max(1024) {
        let mut buckets = vec![(0i64, 0i64); span as usize + 1];
        for &(t, dc, ds) in &events {
            let b = &mut buckets[(t.0 - lo) as usize];
            b.0 += dc;
            b.1 += ds;
        }
        for (off, &(dc, ds)) in buckets.iter().enumerate() {
            if dc != 0 || ds != 0 {
                boundaries.push((TimePoint(lo + off as u64), dc, ds));
            }
        }
    } else {
        events.sort_unstable_by_key(|e| e.0);
        for &(t, dc, ds) in &events {
            match boundaries.last_mut() {
                Some(last) if last.0 == t => {
                    last.1 += dc;
                    last.2 += ds;
                }
                _ => boundaries.push((t, dc, ds)),
            }
        }
        // Net-zero boundaries change nothing; dropping them matches the
        // bucket path (the adjacent-step merge below would erase them
        // anyway).
        boundaries.retain(|&(_, dc, ds)| dc != 0 || ds != 0);
    }

    let mut out: Vec<AggStep> = Vec::new();
    let (mut count, mut sum) = (0i64, 0i64);
    for (i, &(t, dc, ds)) in boundaries.iter().enumerate() {
        count += dc;
        sum += ds;
        if count == 0 {
            continue;
        }
        let end = boundaries.get(i + 1).map_or(TimePoint::FOREVER, |e| e.0);
        if let Some(during) = Interval::new(t, end) {
            match out.last_mut() {
                // Merge adjacent steps with identical aggregates.
                Some(last)
                    if last.during.end() == during.start()
                        && last.count == count as u64
                        && last.sum == sum =>
                {
                    last.during =
                        Interval::new(last.during.start(), during.end()).expect("adjacent merge");
                }
                _ => out.push(AggStep {
                    during,
                    count: count as u64,
                    sum,
                }),
            }
        }
    }
    out
}

/// The value integral of an aggregate: `Σ sum × |during|` over the steps —
/// `∫ SUM(attr) d(vt)`. `None` when any step is valid-time-unbounded
/// (the integral diverges; clip to a finite `VALID IN` window first) or
/// the arithmetic overflows `i64`.
pub fn value_integral(steps: &[AggStep]) -> Option<i64> {
    let mut total = 0i64;
    for s in steps {
        if s.during.end().is_forever() {
            return None;
        }
        let dur = s.during.end().0 - s.during.start().0;
        total = total.checked_add(s.sum.checked_mul(i64::try_from(dur).ok()?)?)?;
    }
    Some(total)
}

/// Per-atom period normalization (TSQL2 `COALESCE`): rows of one atom that
/// agree on the values at `positions` *and* on transaction time merge
/// their valid-time periods, emitting one row per maximal merged interval.
/// Group order is first-contribution order; intervals ascend within a
/// group. The output tuples hold only the projected positions.
pub fn coalesce_batch(batch: &VersionBatch, positions: &[usize]) -> VersionBatch {
    struct Group {
        atom: AtomId,
        tuple: Tuple,
        tt: Interval,
        time: TemporalElement,
    }
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for i in 0..batch.len() {
        let projected: Tuple = positions
            .iter()
            .map(|&p| batch.tuples[i].get(p).clone())
            .collect();
        let mut key = Vec::new();
        key.extend_from_slice(&batch.atoms[i].ty.0.to_le_bytes());
        key.extend_from_slice(&batch.atoms[i].no.0.to_le_bytes());
        key.extend_from_slice(&batch.tt_start[i].0.to_le_bytes());
        key.extend_from_slice(&batch.tt_end[i].0.to_le_bytes());
        for v in projected.values() {
            if !value_key_bytes(v, &mut key) {
                key.push(0xff); // NULLs group with NULLs here (projection,
                key.push(0xfe); // not equality comparison)
            }
        }
        let vt = TemporalElement::from_interval(batch.vt(i));
        match index.get(&key) {
            Some(&g) => {
                let merged = groups[g].time.union(&vt);
                groups[g].time = merged;
            }
            None => {
                index.insert(key, groups.len());
                groups.push(Group {
                    atom: batch.atoms[i],
                    tuple: projected,
                    tt: batch.tt(i),
                    time: vt,
                });
            }
        }
    }
    let mut out = VersionBatch::default();
    for g in groups {
        for iv in g.time.intervals() {
            out.push_row(g.atom, g.tuple.clone(), *iv, g.tt);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{temporal_aggregate, TemporalRow};
    use tcom_kernel::time::iv;
    use tcom_kernel::{AtomNo, AtomTypeId};

    fn aid(no: u64) -> AtomId {
        AtomId::new(AtomTypeId(1), AtomNo(no))
    }

    fn push(b: &mut VersionBatch, no: u64, vals: &[i64], vt: (u64, u64), tt_start: u64) {
        b.push_row(
            aid(no),
            vals.iter().map(|v| Value::Int(*v)).collect(),
            iv(vt.0, vt.1),
            Interval::from_start(TimePoint(tt_start)),
        );
    }

    #[test]
    fn visibility_and_clipping_are_columnar() {
        let mut b = VersionBatch::default();
        push(&mut b, 1, &[10], (0, 10), 1);
        push(&mut b, 2, &[20], (5, 15), 1);
        b.tt_end[0] = TimePoint(4); // row 0 closed at tt=4
        let mut cur = b.clone();
        cur.retain_visible_at(TimePoint::FOREVER);
        assert_eq!(cur.len(), 1);
        assert_eq!(cur.atoms[0], aid(2));
        let mut past = b.clone();
        past.retain_visible_at(TimePoint(2));
        assert_eq!(past.len(), 2);
        past.clip_valid_window(iv(8, 40));
        assert_eq!(past.len(), 2);
        assert_eq!(past.vt(0), iv(8, 10));
        assert_eq!(past.vt(1), iv(8, 15));
        past.retain_valid_at(TimePoint(12));
        assert_eq!(past.len(), 1);
        assert_eq!(past.atoms[0], aid(2));
    }

    #[test]
    fn join_intersects_both_axes() {
        let mut l = VersionBatch::default();
        let mut r = VersionBatch::default();
        push(&mut l, 1, &[1, 100], (0, 10), 0);
        push(&mut l, 2, &[2, 200], (5, 20), 0);
        push(&mut r, 7, &[100, 7], (5, 30), 0);
        push(&mut r, 8, &[200, 8], (0, 6), 0);
        let j = join_batches(&l, &r, 1, 0);
        assert_eq!(j.len(), 2);
        assert_eq!(j.vt(0), iv(5, 10));
        assert_eq!(j.vt(1), iv(5, 6));
        assert_eq!(j.tuples[0].arity(), 4);
        assert_eq!(j.atoms[0], aid(1));
        // Disjoint tt kills the pair even when vt overlaps.
        let mut r2 = VersionBatch::default();
        push(&mut r2, 9, &[100, 9], (0, 10), 0);
        r2.tt_start[0] = TimePoint(50);
        let mut l2 = VersionBatch::default();
        push(&mut l2, 1, &[1, 100], (0, 10), 0);
        l2.tt_end[0] = TimePoint(50);
        assert!(join_batches(&l2, &r2, 1, 0).is_empty());
        // NULL keys never join.
        let mut ln = VersionBatch::default();
        ln.push_row(
            aid(1),
            Tuple::new(vec![Value::Int(1), Value::Null]),
            iv(0, 10),
            Interval::all(),
        );
        assert!(join_batches(&ln, &r, 1, 0).is_empty());
    }

    #[test]
    fn aggregate_matches_scalar_algebra() {
        let mut b = VersionBatch::default();
        push(&mut b, 1, &[100], (0, 10), 0);
        push(&mut b, 2, &[50], (5, 15), 0);
        push(&mut b, 3, &[7], (20, 25), 0);
        b.vt_end[2] = TimePoint::FOREVER; // open-ended row
        let rel: Vec<TemporalRow> = b
            .rows()
            .map(|(_, t, vt, _)| TemporalRow {
                tuple: t.clone(),
                time: TemporalElement::from_interval(vt),
            })
            .collect();
        for attr in [None, Some(0)] {
            assert_eq!(aggregate_batch(&b, attr), temporal_aggregate(&rel, attr));
        }
    }

    #[test]
    fn integral_needs_finite_steps() {
        let steps = vec![AggStep {
            during: iv(0, 10),
            count: 1,
            sum: 5,
        }];
        assert_eq!(value_integral(&steps), Some(50));
        let open = vec![AggStep {
            during: Interval::from_start(TimePoint(3)),
            count: 1,
            sum: 5,
        }];
        assert_eq!(value_integral(&open), None);
        assert_eq!(value_integral(&[]), Some(0));
    }

    #[test]
    fn coalesce_merges_adjacent_periods_per_atom() {
        let mut b = VersionBatch::default();
        push(&mut b, 1, &[7, 1], (0, 5), 2);
        push(&mut b, 1, &[7, 2], (5, 10), 2); // differs only at pos 1
        push(&mut b, 1, &[7, 3], (20, 30), 2);
        push(&mut b, 2, &[7, 4], (10, 20), 2); // other atom: no merge
        let c = coalesce_batch(&b, &[0]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.atoms[0], aid(1));
        assert_eq!(c.vt(0), iv(0, 10));
        assert_eq!(c.vt(1), iv(20, 30));
        assert_eq!(c.atoms[2], aid(2));
        assert_eq!(c.vt(2), iv(10, 20));
        assert_eq!(c.tuples[0].arity(), 1);
        // Different transaction times never merge.
        let mut d = VersionBatch::default();
        push(&mut d, 1, &[7], (0, 5), 2);
        push(&mut d, 1, &[7], (5, 10), 9);
        assert_eq!(coalesce_batch(&d, &[0]).len(), 2);
    }
}
