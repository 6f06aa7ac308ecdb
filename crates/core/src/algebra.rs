//! Scalar temporal relational algebra over versioned tuple sets — the
//! reference the batched operators are checked against.
//!
//! No production path calls this module: the executor runs the columnar
//! operators of [`crate::batch`]. The property tests (`batch_prop.rs`,
//! `full_stack.rs`) and `batch.rs`'s unit test compare those operators
//! with the row-at-a-time definitions here.
//!
//! A [`TemporalRelation`] is a bag of `(tuple, temporal element)` rows:
//! the temporal element records *when* (on one time axis) the tuple
//! holds. Operators:
//!
//! * [`coalesce`] — merge rows with equal tuples, unioning their temporal
//!   elements (the canonicalization every temporal algebra needs);
//! * [`timeslice`] — restrict to one instant, yielding a snapshot;
//! * [`temporal_project`] — π with re-coalescing (projection can make
//!   previously distinct tuples equal);
//! * [`temporal_join`] — ⋈ on a key function with element intersection;
//! * [`temporal_aggregate`] — count/sum per maximal constant interval.
//!
//! The relation-valued operators return rows with distinct tuples and
//! non-empty canonical temporal elements.

use crate::batch::AggStep;
use std::collections::HashMap;
use tcom_kernel::{Interval, TemporalElement, TimePoint, Tuple, Value};

/// One row of a temporal relation.
#[derive(Clone, Debug, PartialEq)]
pub struct TemporalRow {
    /// The data.
    pub tuple: Tuple,
    /// When the tuple holds.
    pub time: TemporalElement,
}

/// A bag of temporally-annotated tuples.
pub type TemporalRelation = Vec<TemporalRow>;

/// Hashable key for tuple grouping (Value is not `Hash` because of floats;
/// the display form is a stable stand-in for grouping purposes).
fn tuple_key(t: &Tuple) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for v in t.values() {
        // `Display` of Value is injective per variant except exotic float
        // formatting collisions; prefix the discriminant to be safe.
        let _ = write!(s, "{}|{v};", discriminant_tag(v));
    }
    s
}

fn discriminant_tag(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Text(_) => 4,
        Value::Bytes(_) => 5,
        Value::Ref(_) => 6,
        Value::RefSet(_) => 7,
    }
}

/// Merges rows with equal tuples, unioning their temporal elements, and
/// drops rows whose element is empty. The fundamental canonicalization.
pub fn coalesce(rel: TemporalRelation) -> TemporalRelation {
    let mut groups: HashMap<String, TemporalRow> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    for row in rel {
        let key = tuple_key(&row.tuple);
        match groups.get_mut(&key) {
            Some(existing) => existing.time = existing.time.union(&row.time),
            None => {
                order.push(key.clone());
                groups.insert(key, row);
            }
        }
    }
    order
        .into_iter()
        .filter_map(|k| groups.remove(&k))
        .filter(|r| !r.time.is_empty())
        .collect()
}

/// The snapshot at instant `t`: tuples whose element covers `t`.
pub fn timeslice(rel: &TemporalRelation, t: TimePoint) -> Vec<Tuple> {
    rel.iter()
        .filter(|r| r.time.contains(t))
        .map(|r| r.tuple.clone())
        .collect()
}

/// π: projects each tuple to the given attribute positions, re-coalescing
/// rows that become equal.
pub fn temporal_project(rel: TemporalRelation, positions: &[usize]) -> TemporalRelation {
    coalesce(
        rel.into_iter()
            .map(|r| TemporalRow {
                tuple: positions.iter().map(|&i| r.tuple.get(i).clone()).collect(),
                time: r.time,
            })
            .collect(),
    )
}

/// ⋈: joins rows whose key values match, concatenating tuples and
/// intersecting temporal elements (a joined fact holds only while both
/// inputs hold). Rows with empty intersections are dropped.
pub fn temporal_join(
    left: &TemporalRelation,
    right: &TemporalRelation,
    left_key: impl Fn(&Tuple) -> Value,
    right_key: impl Fn(&Tuple) -> Value,
) -> TemporalRelation {
    // Hash the (smaller in spirit) right side.
    let mut table: HashMap<String, Vec<&TemporalRow>> = HashMap::new();
    for r in right {
        let k = right_key(&r.tuple);
        table
            .entry(format!("{}|{k}", discriminant_tag(&k)))
            .or_default()
            .push(r);
    }
    let mut out = Vec::new();
    for l in left {
        let k = left_key(&l.tuple);
        let Some(matches) = table.get(&format!("{}|{k}", discriminant_tag(&k))) else {
            continue;
        };
        for r in matches {
            let time = l.time.intersect(&r.time);
            if time.is_empty() {
                continue;
            }
            let tuple: Tuple = l
                .tuple
                .values()
                .iter()
                .chain(r.tuple.values())
                .cloned()
                .collect();
            out.push(TemporalRow { tuple, time });
        }
    }
    coalesce(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcom_kernel::time::iv;

    fn row(vals: &[i64], ivs: &[(u64, u64)]) -> TemporalRow {
        TemporalRow {
            tuple: vals.iter().map(|v| Value::Int(*v)).collect(),
            time: ivs.iter().map(|&(s, e)| iv(s, e)).collect(),
        }
    }

    #[test]
    fn coalesce_merges_equal_tuples() {
        let rel = vec![
            row(&[1], &[(0, 5)]),
            row(&[2], &[(0, 5)]),
            row(&[1], &[(5, 10)]),
            row(&[1], &[(20, 30)]),
        ];
        let c = coalesce(rel);
        assert_eq!(c.len(), 2);
        let r1 = c.iter().find(|r| r.tuple.get(0) == &Value::Int(1)).unwrap();
        assert_eq!(r1.time.intervals(), &[iv(0, 10), iv(20, 30)]);
    }

    #[test]
    fn coalesce_is_idempotent() {
        let rel = vec![
            row(&[1], &[(0, 5)]),
            row(&[1], &[(3, 12)]),
            row(&[2], &[(1, 2)]),
        ];
        let once = coalesce(rel);
        let twice = coalesce(once.clone());
        assert_eq!(once, twice);
    }

    #[test]
    fn timeslice_keeps_rows_covering_the_instant() {
        let rel = vec![row(&[1], &[(0, 10)]), row(&[2], &[(5, 15)])];
        let s = timeslice(&rel, TimePoint(7));
        assert_eq!(s.len(), 2);
        let s = timeslice(&rel, TimePoint(12));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn project_recoalesces() {
        let rel = vec![
            row(&[1, 10], &[(0, 5)]),
            row(&[2, 10], &[(5, 9)]),
            row(&[3, 20], &[(0, 9)]),
        ];
        // Projecting to attr 1 merges the two rows with value 10.
        let p = temporal_project(rel, &[1]);
        assert_eq!(p.len(), 2);
        let ten = p
            .iter()
            .find(|r| r.tuple.get(0) == &Value::Int(10))
            .unwrap();
        assert_eq!(ten.time.intervals(), &[iv(0, 9)]);
    }

    #[test]
    fn join_intersects_time() {
        let emp = vec![row(&[1, 100], &[(0, 10)]), row(&[2, 200], &[(5, 20)])];
        let dept = vec![row(&[100, 7], &[(5, 30)]), row(&[200, 8], &[(0, 6)])];
        let j = temporal_join(&emp, &dept, |t| t.get(1).clone(), |t| t.get(0).clone());
        assert_eq!(j.len(), 2);
        let a = j
            .iter()
            .find(|r| r.tuple.get(0) == &Value::Int(1))
            .expect("emp 1 joined");
        assert_eq!(a.time.intervals(), &[iv(5, 10)]);
        assert_eq!(a.tuple.arity(), 4);
        let b = j.iter().find(|r| r.tuple.get(0) == &Value::Int(2)).unwrap();
        assert_eq!(b.time.intervals(), &[iv(5, 6)]);
    }

    #[test]
    fn join_drops_disjoint_matches() {
        let a = vec![row(&[1], &[(0, 5)])];
        let b = vec![row(&[1], &[(5, 10)])];
        let j = temporal_join(&a, &b, |t| t.get(0).clone(), |t| t.get(0).clone());
        assert!(j.is_empty());
    }
}

// ---- temporal aggregation ----

/// Temporal aggregation: computes, for every maximal constant interval,
/// how many tuples hold and (optionally) the sum of an integer attribute —
/// the temporal analogue of `COUNT(*)`/`SUM(x) GROUP BY time`.
///
/// Intervals where nothing holds are omitted. The boundary-sweep runs in
/// O(n log n) over interval endpoints.
pub fn temporal_aggregate(rel: &TemporalRelation, attr: Option<usize>) -> Vec<AggStep> {
    // Collect deltas at every boundary.
    let mut deltas: HashMap<TimePoint, (i64, i64)> = HashMap::new(); // t -> (dcount, dsum)
    for row in rel {
        let contribution = match attr {
            None => 0i64,
            Some(i) => match row.tuple.try_get(i) {
                Some(Value::Int(v)) => *v,
                _ => 0,
            },
        };
        for iv in row.time.intervals() {
            let e = deltas.entry(iv.start()).or_insert((0, 0));
            e.0 += 1;
            e.1 += contribution;
            if !iv.end().is_forever() {
                let e = deltas.entry(iv.end()).or_insert((0, 0));
                e.0 -= 1;
                e.1 -= contribution;
            }
        }
    }
    let mut boundaries: Vec<TimePoint> = deltas.keys().copied().collect();
    boundaries.sort();
    let mut out = Vec::new();
    let (mut count, mut sum) = (0i64, 0i64);
    for (i, t) in boundaries.iter().enumerate() {
        let (dc, ds) = deltas[t];
        count += dc;
        sum += ds;
        if count == 0 {
            continue;
        }
        let end = boundaries.get(i + 1).copied().unwrap_or(TimePoint::FOREVER);
        if let Some(during) = Interval::new(*t, end) {
            out.push(AggStep {
                during,
                count: count as u64,
                sum,
            });
        }
    }
    // Merge adjacent steps with identical aggregates (boundaries where only
    // non-contributing rows changed).
    let mut merged: Vec<AggStep> = Vec::with_capacity(out.len());
    for step in out {
        match merged.last_mut() {
            Some(last)
                if last.during.end() == step.during.start()
                    && last.count == step.count
                    && last.sum == step.sum =>
            {
                last.during =
                    Interval::new(last.during.start(), step.during.end()).expect("adjacent merge");
            }
            _ => merged.push(step),
        }
    }
    merged
}

#[cfg(test)]
mod agg_tests {
    use super::*;
    use tcom_kernel::time::iv;

    fn row(vals: &[i64], ivs: &[(u64, u64)]) -> TemporalRow {
        TemporalRow {
            tuple: vals.iter().map(|v| Value::Int(*v)).collect(),
            time: ivs.iter().map(|&(s, e)| iv(s, e)).collect(),
        }
    }

    #[test]
    fn count_over_time() {
        // a: [0,10), b: [5,15), c: [20,25)
        let rel = vec![
            row(&[1], &[(0, 10)]),
            row(&[2], &[(5, 15)]),
            row(&[3], &[(20, 25)]),
        ];
        let steps = temporal_aggregate(&rel, None);
        assert_eq!(
            steps
                .iter()
                .map(|s| (s.during, s.count))
                .collect::<Vec<_>>(),
            vec![
                (iv(0, 5), 1),
                (iv(5, 10), 2),
                (iv(10, 15), 1),
                (iv(20, 25), 1),
            ]
        );
    }

    #[test]
    fn sum_over_time() {
        let rel = vec![row(&[100], &[(0, 10)]), row(&[50], &[(5, 15)])];
        let steps = temporal_aggregate(&rel, Some(0));
        assert_eq!(
            steps.iter().map(|s| (s.during, s.sum)).collect::<Vec<_>>(),
            vec![(iv(0, 5), 100), (iv(5, 10), 150), (iv(10, 15), 50)]
        );
    }

    #[test]
    fn open_ended_and_gaps() {
        let rel = vec![TemporalRow {
            tuple: Tuple::new(vec![Value::Int(1)]),
            time: TemporalElement::from_interval(tcom_kernel::time::iv_from(5)),
        }];
        let steps = temporal_aggregate(&rel, None);
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].during, tcom_kernel::time::iv_from(5));
        assert_eq!(steps[0].count, 1);
        // Empty relation.
        assert!(temporal_aggregate(&Vec::new(), None).is_empty());
    }

    #[test]
    fn equal_adjacent_steps_merge() {
        // Two rows swap at t=10: count stays 1, sum stays 7.
        let rel = vec![row(&[7], &[(0, 10)]), row(&[7], &[(10, 20)])];
        let steps = temporal_aggregate(&rel, Some(0));
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].during, iv(0, 20));
        assert_eq!(steps[0].sum, 7);
    }

    #[test]
    fn null_and_nonint_contribute_zero() {
        let rel = vec![TemporalRow {
            tuple: Tuple::new(vec![Value::Null]),
            time: TemporalElement::from_interval(iv(0, 5)),
        }];
        let steps = temporal_aggregate(&rel, Some(0));
        assert_eq!(steps[0].sum, 0);
        assert_eq!(steps[0].count, 1);
    }
}
