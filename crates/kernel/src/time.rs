//! The temporal domain: time points, half-open intervals and temporal
//! elements. A stored version's bitemporal stamp is its `vt` / `tt` pair
//! (`tcom_version::AtomVersion`).
//!
//! The model follows the conventions of the temporal-database literature the
//! paper builds on:
//!
//! * Time is discrete and linear. A [`TimePoint`] is a logical tick (`u64`).
//!   Transaction time is drawn from the engine's commit counter; valid time
//!   is supplied by the application (e.g. days since an epoch).
//! * Intervals are **half-open** `[start, end)`. The open end avoids the
//!   classic off-by-one ambiguities when intervals abut.
//! * `TimePoint::FOREVER` (`u64::MAX`) plays the role of *until changed* /
//!   *now* for the end of open intervals: a currently-valid version has
//!   `vt = [s, FOREVER)` and a currently-recorded version `tt = [s, FOREVER)`.
//! * A [`TemporalElement`] is a finite union of intervals kept in canonical
//!   form (sorted, pairwise disjoint, non-adjacent). It is closed under
//!   union, intersection and difference, which makes it the natural carrier
//!   for valid-time bookkeeping during bitemporal updates.

use std::fmt;

/// A discrete point on a (valid- or transaction-) time axis.
///
/// `TimePoint` is a transparent newtype over `u64` ordered in the obvious
/// way. The maximal value is reserved as [`TimePoint::FOREVER`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimePoint(pub u64);

impl TimePoint {
    /// The smallest representable instant.
    pub const MIN: TimePoint = TimePoint(0);
    /// Sentinel for *until changed* / the open end of current intervals.
    pub const FOREVER: TimePoint = TimePoint(u64::MAX);

    /// Returns the successor instant. Saturates at [`TimePoint::FOREVER`].
    #[inline]
    pub fn next(self) -> TimePoint {
        TimePoint(self.0.saturating_add(1))
    }

    /// Returns the predecessor instant. Saturates at [`TimePoint::MIN`].
    #[inline]
    pub fn prev(self) -> TimePoint {
        TimePoint(self.0.saturating_sub(1))
    }

    /// True iff this is the `FOREVER` sentinel.
    #[inline]
    pub fn is_forever(self) -> bool {
        self == TimePoint::FOREVER
    }
}

impl fmt::Debug for TimePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_forever() {
            write!(f, "∞")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl fmt::Display for TimePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u64> for TimePoint {
    fn from(v: u64) -> Self {
        TimePoint(v)
    }
}

/// A non-empty half-open interval `[start, end)` on a time axis.
///
/// Emptiness is unrepresentable: [`Interval::new`] rejects `start >= end`.
/// This invariant keeps every downstream algorithm total — no operator ever
/// has to ask "but what if the interval is empty?".
///
/// Ordering is lexicographic on `(start, end)` — useful for canonical
/// sorting; it is *not* a containment or precedence order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Interval {
    start: TimePoint,
    end: TimePoint,
}

impl Interval {
    /// Creates `[start, end)`. Returns `None` when the interval would be
    /// empty (`start >= end`).
    #[inline]
    pub fn new(start: TimePoint, end: TimePoint) -> Option<Interval> {
        if start < end {
            Some(Interval { start, end })
        } else {
            None
        }
    }

    /// `[start, FOREVER)` — the canonical *currently true* interval.
    #[inline]
    pub fn from_start(start: TimePoint) -> Interval {
        Interval {
            start,
            end: TimePoint::FOREVER,
        }
    }

    /// `[MIN, FOREVER)` — the whole axis.
    #[inline]
    pub fn all() -> Interval {
        Interval {
            start: TimePoint::MIN,
            end: TimePoint::FOREVER,
        }
    }

    /// The single-instant interval `[t, t+1)`. Returns `None` for
    /// `t == FOREVER` (which has no successor).
    #[inline]
    pub fn at(t: TimePoint) -> Option<Interval> {
        Interval::new(t, t.next())
    }

    /// Inclusive lower bound.
    #[inline]
    pub fn start(&self) -> TimePoint {
        self.start
    }

    /// Exclusive upper bound.
    #[inline]
    pub fn end(&self) -> TimePoint {
        self.end
    }

    /// Number of instants covered; `None` when the interval is open-ended.
    #[inline]
    pub fn duration(&self) -> Option<u64> {
        if self.end.is_forever() {
            None
        } else {
            Some(self.end.0 - self.start.0)
        }
    }

    /// True iff the interval extends to `FOREVER` (is *current*).
    #[inline]
    pub fn is_open_ended(&self) -> bool {
        self.end.is_forever()
    }

    /// Membership test: `start <= t < end`.
    #[inline]
    pub fn contains(&self, t: TimePoint) -> bool {
        self.start <= t && t < self.end
    }

    /// True iff `other` is entirely inside `self`.
    #[inline]
    pub fn covers(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// True iff the two intervals share at least one instant.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// True iff the intervals abut without overlapping (`[a,b) [b,c)`).
    #[inline]
    pub fn is_adjacent(&self, other: &Interval) -> bool {
        self.end == other.start || other.end == self.start
    }

    /// Intersection; `None` when disjoint.
    #[inline]
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        Interval::new(self.start.max(other.start), self.end.min(other.end))
    }

    /// Union of two overlapping-or-adjacent intervals; `None` when the
    /// result would not be a single interval.
    #[inline]
    pub fn merge(&self, other: &Interval) -> Option<Interval> {
        if self.overlaps(other) || self.is_adjacent(other) {
            Interval::new(self.start.min(other.start), self.end.max(other.end))
        } else {
            None
        }
    }

    /// `self − other` as (left remainder, right remainder). Either side may
    /// be `None`; both are `None` exactly when `other` covers `self`.
    pub fn subtract(&self, other: &Interval) -> (Option<Interval>, Option<Interval>) {
        if !self.overlaps(other) {
            return (Some(*self), None);
        }
        let left = Interval::new(self.start, other.start.min(self.end));
        let right = Interval::new(other.end.max(self.start), self.end);
        (left, right)
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?},{:?})", self.start, self.end)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A finite union of intervals in canonical form: sorted by start, pairwise
/// disjoint, and never adjacent (adjacent intervals are merged eagerly).
///
/// Temporal elements are the natural representation for "the set of valid
/// instants of this fact" and are what the bitemporal DML algorithms
/// manipulate. Canonical form makes equality structural.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct TemporalElement {
    ivs: Vec<Interval>,
}

impl TemporalElement {
    /// The empty element.
    pub fn empty() -> TemporalElement {
        TemporalElement::default()
    }

    /// The element covering the whole axis.
    pub fn all() -> TemporalElement {
        TemporalElement {
            ivs: vec![Interval::all()],
        }
    }

    /// Element consisting of a single interval.
    pub fn from_interval(iv: Interval) -> TemporalElement {
        TemporalElement { ivs: vec![iv] }
    }

    /// Builds a canonical element from arbitrary (possibly overlapping,
    /// unsorted, adjacent) intervals.
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(ivs: I) -> TemporalElement {
        let mut v: Vec<Interval> = ivs.into_iter().collect();
        v.sort_by_key(|iv| (iv.start(), iv.end()));
        let mut out: Vec<Interval> = Vec::with_capacity(v.len());
        for iv in v {
            match out.last_mut() {
                Some(last) if last.overlaps(&iv) || last.is_adjacent(&iv) => {
                    // merge() cannot fail: we just checked the precondition.
                    *last = last.merge(&iv).expect("overlapping or adjacent");
                }
                _ => out.push(iv),
            }
        }
        TemporalElement { ivs: out }
    }

    /// The canonical intervals, sorted and disjoint.
    pub fn intervals(&self) -> &[Interval] {
        &self.ivs
    }

    /// True iff no instant is covered.
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// Number of maximal intervals.
    pub fn len(&self) -> usize {
        self.ivs.len()
    }

    /// Membership test for a single instant (binary search).
    pub fn contains(&self, t: TimePoint) -> bool {
        match self.ivs.binary_search_by(|iv| iv.start().cmp(&t)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => self.ivs[i - 1].contains(t),
        }
    }

    /// Set union.
    pub fn union(&self, other: &TemporalElement) -> TemporalElement {
        TemporalElement::from_intervals(self.ivs.iter().chain(other.ivs.iter()).copied())
    }

    /// Set intersection (linear merge of the two sorted interval lists).
    pub fn intersect(&self, other: &TemporalElement) -> TemporalElement {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < self.ivs.len() && j < other.ivs.len() {
            if let Some(iv) = self.ivs[i].intersect(&other.ivs[j]) {
                out.push(iv);
            }
            if self.ivs[i].end() <= other.ivs[j].end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        // Already canonical: inputs were canonical and intersection preserves
        // order and disjointness, but adjacency can appear when inputs had
        // adjacent-but-merged shapes — normalize to be safe.
        TemporalElement::from_intervals(out)
    }

    /// Set difference `self − other`.
    pub fn difference(&self, other: &TemporalElement) -> TemporalElement {
        let mut out = Vec::new();
        let mut j = 0;
        for iv in &self.ivs {
            let mut rest = *iv;
            // Skip other-intervals entirely before `rest`.
            while j < other.ivs.len() && other.ivs[j].end() <= rest.start() {
                j += 1;
            }
            let mut k = j;
            let mut alive = true;
            while k < other.ivs.len() && alive {
                let cut = other.ivs[k];
                if cut.start() >= rest.end() {
                    break;
                }
                let (left, right) = rest.subtract(&cut);
                if let Some(l) = left {
                    out.push(l);
                }
                match right {
                    Some(r) => rest = r,
                    None => alive = false,
                }
                k += 1;
            }
            if alive {
                out.push(rest);
            }
        }
        TemporalElement::from_intervals(out)
    }

    /// True iff the two elements share at least one instant.
    pub fn overlaps(&self, other: &TemporalElement) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.ivs.len() && j < other.ivs.len() {
            if self.ivs[i].overlaps(&other.ivs[j]) {
                return true;
            }
            if self.ivs[i].end() <= other.ivs[j].end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// Total number of instants covered; `None` if any interval is open-ended.
    pub fn duration(&self) -> Option<u64> {
        self.ivs.iter().map(|iv| iv.duration()).sum()
    }

    /// Earliest covered instant.
    pub fn min(&self) -> Option<TimePoint> {
        self.ivs.first().map(|iv| iv.start())
    }
}

impl fmt::Debug for TemporalElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, iv) in self.ivs.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{:?}", iv)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Interval> for TemporalElement {
    fn from_iter<T: IntoIterator<Item = Interval>>(iter: T) -> Self {
        TemporalElement::from_intervals(iter)
    }
}

/// Convenience constructor: `[s, e)` for tests and examples; panics on empty.
pub fn iv(s: u64, e: u64) -> Interval {
    Interval::new(TimePoint(s), TimePoint(e)).expect("non-empty interval literal")
}

/// Convenience constructor: `[s, ∞)`.
pub fn iv_from(s: u64) -> Interval {
    Interval::from_start(TimePoint(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timepoint_order_and_sentinels() {
        assert!(TimePoint::MIN < TimePoint(1));
        assert!(TimePoint(5) < TimePoint::FOREVER);
        assert!(TimePoint::FOREVER.is_forever());
        assert_eq!(TimePoint::FOREVER.next(), TimePoint::FOREVER);
        assert_eq!(TimePoint::MIN.prev(), TimePoint::MIN);
        assert_eq!(TimePoint(3).next(), TimePoint(4));
        assert_eq!(format!("{}", TimePoint::FOREVER), "∞");
    }

    #[test]
    fn from_start_is_open_ended() {
        assert!(Interval::from_start(TimePoint(3)).is_open_ended());
    }

    #[test]
    fn interval_rejects_empty() {
        assert!(Interval::new(TimePoint(5), TimePoint(5)).is_none());
        assert!(Interval::new(TimePoint(6), TimePoint(5)).is_none());
        assert!(Interval::new(TimePoint(5), TimePoint(6)).is_some());
        assert!(Interval::at(TimePoint::FOREVER).is_none());
    }

    #[test]
    fn interval_contains_is_half_open() {
        let i = iv(2, 5);
        assert!(!i.contains(TimePoint(1)));
        assert!(i.contains(TimePoint(2)));
        assert!(i.contains(TimePoint(4)));
        assert!(!i.contains(TimePoint(5)));
    }

    #[test]
    fn interval_overlap_and_adjacency() {
        assert!(iv(0, 5).overlaps(&iv(4, 9)));
        assert!(!iv(0, 5).overlaps(&iv(5, 9)));
        assert!(iv(0, 5).is_adjacent(&iv(5, 9)));
        assert!(iv(5, 9).is_adjacent(&iv(0, 5)));
        assert!(!iv(0, 5).is_adjacent(&iv(6, 9)));
    }

    #[test]
    fn interval_intersect_merge() {
        assert_eq!(iv(0, 5).intersect(&iv(3, 9)), Some(iv(3, 5)));
        assert_eq!(iv(0, 5).intersect(&iv(5, 9)), None);
        assert_eq!(iv(0, 5).merge(&iv(5, 9)), Some(iv(0, 9)));
        assert_eq!(iv(0, 5).merge(&iv(3, 9)), Some(iv(0, 9)));
        assert_eq!(iv(0, 5).merge(&iv(6, 9)), None);
    }

    #[test]
    fn interval_subtract_cases() {
        // disjoint
        assert_eq!(iv(0, 5).subtract(&iv(7, 9)), (Some(iv(0, 5)), None));
        // cut in the middle
        assert_eq!(
            iv(0, 10).subtract(&iv(3, 6)),
            (Some(iv(0, 3)), Some(iv(6, 10)))
        );
        // cut left edge
        assert_eq!(iv(0, 10).subtract(&iv(0, 4)), (None, Some(iv(4, 10))));
        // cut right edge
        assert_eq!(iv(0, 10).subtract(&iv(6, 10)), (Some(iv(0, 6)), None));
        // fully covered
        assert_eq!(iv(3, 6).subtract(&iv(0, 10)), (None, None));
    }

    #[test]
    fn element_canonicalization_merges_overlaps_and_adjacency() {
        let e = TemporalElement::from_intervals([iv(5, 8), iv(0, 3), iv(3, 5), iv(20, 25)]);
        assert_eq!(e.intervals(), &[iv(0, 8), iv(20, 25)]);
    }

    #[test]
    fn element_contains() {
        let e = TemporalElement::from_intervals([iv(0, 3), iv(10, 20)]);
        assert!(e.contains(TimePoint(0)));
        assert!(e.contains(TimePoint(2)));
        assert!(!e.contains(TimePoint(3)));
        assert!(e.contains(TimePoint(15)));
        assert!(!e.contains(TimePoint(25)));
        assert!(!TemporalElement::empty().contains(TimePoint(0)));
    }

    #[test]
    fn element_union_intersect_difference() {
        let a = TemporalElement::from_intervals([iv(0, 10), iv(20, 30)]);
        let b = TemporalElement::from_intervals([iv(5, 25)]);
        assert_eq!(a.union(&b).intervals(), &[iv(0, 30)]);
        assert_eq!(a.intersect(&b).intervals(), &[iv(5, 10), iv(20, 25)]);
        assert_eq!(a.difference(&b).intervals(), &[iv(0, 5), iv(25, 30)]);
        assert_eq!(b.difference(&a).intervals(), &[iv(10, 20)]);
    }

    #[test]
    fn element_difference_multi_cut() {
        let a = TemporalElement::from_interval(iv(0, 100));
        let b = TemporalElement::from_intervals([iv(10, 20), iv(30, 40), iv(90, 200)]);
        assert_eq!(
            a.difference(&b).intervals(),
            &[iv(0, 10), iv(20, 30), iv(40, 90)]
        );
    }

    #[test]
    fn element_overlaps_and_duration() {
        let a = TemporalElement::from_intervals([iv(0, 5), iv(10, 15)]);
        let b = TemporalElement::from_intervals([iv(5, 10)]);
        assert!(!a.overlaps(&b));
        let c = TemporalElement::from_intervals([iv(4, 6)]);
        assert!(a.overlaps(&c));
        assert_eq!(a.duration(), Some(10));
        assert_eq!(TemporalElement::from_interval(iv_from(3)).duration(), None);
    }

    #[test]
    fn element_min() {
        let a = TemporalElement::from_intervals([iv(3, 5), iv(10, 15)]);
        assert_eq!(a.min(), Some(TimePoint(3)));
        assert_eq!(TemporalElement::empty().min(), None);
    }
}
