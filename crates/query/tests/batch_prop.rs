//! Batched-executor and access-path equivalence properties.
//!
//! 1. For random databases whose answers exceed one executor batch, the
//!    rows pipeline returns exactly what a fold over
//!    [`Database::versions_at_view`] returns, under every access-path hint.
//! 2. A comparison on an indexed attribute answers the same through the
//!    value index as through a forced scan.
//! 3. `UPDATE` / `DELETE` sequences inside one transaction, routed
//!    through the value index, modify exactly the atoms a fold over
//!    `versions_at` plus the transaction's own writes selects; committed,
//!    they leave the histories of a scan-only twin.
//! 4. `aggregate_batch` over a columnar [`VersionBatch`] equals the
//!    scalar `temporal_aggregate` over the equivalent temporal relation;
//!    `join_batches` and `coalesce_batch` answer what `temporal_join` and
//!    `temporal_project` answer, on the shape where both define the same
//!    result (the atom is a function of the key, and every row holds for
//!    all transaction time).
//!
//! Case count defaults low for local runs; CI raises it with
//! `PROPTEST_CASES` (the `planner` job runs ≥256 cases).

mod common;

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use tcom_core::algebra::{
    coalesce, temporal_aggregate, temporal_join, temporal_project, TemporalRelation, TemporalRow,
};
use tcom_core::batch::{aggregate_batch, coalesce_batch, join_batches, VersionBatch};
use tcom_core::{Database, DbConfig, StoreKind, SyncPolicy, Txn};
use tcom_kernel::{AtomId, AtomNo, AtomTypeId, Interval, TemporalElement, TimePoint, Tuple, Value};
use tcom_query::ast::{CmpOp, Expr, Operand};
use tcom_query::{
    apply_statement, execute, execute_with, parse_statement, prepare_with, run_prepared,
    run_statement, ExecOptions, QueryOutput, Row, StatementApply,
};

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

// ---- a database whose answers span several batches --------------------------

/// Valid-time slices every employee starts with: with `MIN_ATOMS` atoms the
/// current state alone exceeds one 1024-row executor batch.
const SLICES: u64 = 4;
const SLICE_LEN: u64 = 10;
const MIN_ATOMS: usize = 280;

/// One later correction: `who`'s salary over `[start, start + len)`, or the
/// deletion of that window.
#[derive(Debug, Clone)]
struct Edit {
    who: usize,
    sal: Option<i64>,
    start: u64,
    len: u64,
}

fn edit() -> BoxedStrategy<Edit> {
    (
        0usize..MIN_ATOMS,
        prop_oneof![5 => (0i64..500).prop_map(Some), 1 => Just(None)],
        0u64..SLICES * SLICE_LEN,
        1u64..25,
    )
        .prop_map(|(who, sal, start, len)| Edit {
            who,
            sal,
            start,
            len,
        })
        .boxed()
}

fn kind() -> BoxedStrategy<StoreKind> {
    prop_oneof![
        Just(StoreKind::Chain),
        Just(StoreKind::Delta),
        Just(StoreKind::Split),
    ]
    .boxed()
}

fn emp(who: usize, sal: i64) -> Tuple {
    Tuple::new(vec![Value::Text(format!("e{who}")), Value::Int(sal)])
}

/// `n` employees of `SLICES` abutting slices each (distinct salaries, so
/// nothing coalesces), then the edits in rounds of one transaction each —
/// a transaction-time history for `ASOF TT` to slice.
fn build(db: &Database, n: usize, edits: &[Edit]) -> AtomTypeId {
    run_statement(db, "CREATE TYPE emp (name TEXT NOT NULL, salary INT)").unwrap();
    let ty = db.atom_type_id("emp").unwrap();
    let slice = |k: u64| Interval::new(TimePoint(k * SLICE_LEN), TimePoint((k + 1) * SLICE_LEN));
    let mut txn = db.begin();
    let mut atoms = Vec::new();
    for who in 0..n {
        let atom = txn
            .insert_atom(ty, slice(0).unwrap(), emp(who, who as i64))
            .unwrap();
        for k in 1..SLICES {
            txn.insert_version(
                atom,
                slice(k).unwrap(),
                emp(who, who as i64 + 1000 * k as i64),
            )
            .unwrap();
        }
        atoms.push(atom);
    }
    txn.commit().unwrap();
    for round in edits.chunks(16) {
        let mut txn = db.begin();
        for e in round {
            let vt = Interval::new(TimePoint(e.start), TimePoint(e.start + e.len)).unwrap();
            match e.sal {
                Some(sal) => txn.update(atoms[e.who], vt, emp(e.who, sal)).unwrap(),
                None => txn.delete(atoms[e.who], vt).unwrap(),
            }
        }
        txn.commit().unwrap();
    }
    ty
}

/// A row query in parts, so the test can both render it as TQL and fold
/// its answer by hand.
#[derive(Debug, Clone)]
struct RowQuery {
    /// Projected tuple positions (`None` = `*`).
    cols: Option<Vec<usize>>,
    /// `salary > x`.
    min_sal: Option<i64>,
    asof: Option<u64>,
    valid: Valid,
    limit: Option<usize>,
}

#[derive(Debug, Clone, Copy)]
enum Valid {
    Any,
    At(u64),
    In(u64, u64),
}

fn row_query() -> BoxedStrategy<RowQuery> {
    let cols = prop_oneof![
        2 => Just(None),
        1 => Just(Some(vec![0])),
        1 => Just(Some(vec![1, 0])),
    ];
    let min_sal = prop_oneof![2 => Just(None), 1 => (0i64..3000).prop_map(Some)];
    // Transaction times 1..: the load commits at 1, each edit round after.
    let asof = prop_oneof![2 => Just(None), 1 => (1u64..8).prop_map(Some)];
    let valid = prop_oneof![
        2 => Just(Valid::Any),
        1 => (0u64..50).prop_map(Valid::At),
        // Windows that clip slices in every batch of the answer.
        2 => (0u64..40, 1u64..30).prop_map(|(a, d)| Valid::In(a, a + d)),
    ];
    // Limits on either side of the 1024-row batch edge, and of the second.
    let limit = prop_oneof![
        2 => Just(None),
        1 => (0usize..3).prop_map(Some),
        2 => (1022usize..1027).prop_map(Some),
        1 => (2046usize..2051).prop_map(Some),
    ];
    (cols, min_sal, asof, valid, limit)
        .prop_map(|(cols, min_sal, asof, valid, limit)| RowQuery {
            cols,
            min_sal,
            asof,
            valid,
            limit,
        })
        .boxed()
}

impl RowQuery {
    fn sql(&self) -> String {
        let names = ["name", "salary"];
        let mut s = match &self.cols {
            None => "SELECT * FROM emp".to_string(),
            Some(cs) => {
                let list: Vec<&str> = cs.iter().map(|&c| names[c]).collect();
                format!("SELECT {} FROM emp", list.join(", "))
            }
        };
        if let Some(x) = self.min_sal {
            s += &format!(" WHERE salary > {x}");
        }
        if let Some(t) = self.asof {
            s += &format!(" ASOF TT {t}");
        }
        match self.valid {
            Valid::Any => {}
            Valid::At(t) => s += &format!(" VALID AT {t}"),
            Valid::In(a, b) => s += &format!(" VALID IN [{a}, {b})"),
        }
        if let Some(n) = self.limit {
            s += &format!(" LIMIT {n}");
        }
        s
    }

    /// The answer by definition: every atom in directory order, its
    /// visible versions in store order, clipped, filtered, projected,
    /// cut at the limit. No batches anywhere.
    fn fold(&self, db: &Database, ty: AtomTypeId) -> Vec<Row> {
        let view = db.pin_view(ty);
        let positions = self.cols.clone().unwrap_or_else(|| vec![0, 1]);
        let mut rows = Vec::new();
        for atom in db.all_atoms(ty).unwrap() {
            let versions = match self.asof {
                Some(t) => db.versions_at(atom, TimePoint(t.min(view.tt.0))).unwrap(),
                None => db.versions_at_view(atom, &view).unwrap(),
            };
            for v in versions {
                let vt = match self.valid {
                    Valid::Any => Some(v.vt),
                    Valid::At(t) => Some(v.vt).filter(|vt| vt.contains(TimePoint(t))),
                    Valid::In(a, b) => {
                        v.vt.intersect(&Interval::new(TimePoint(a), TimePoint(b)).unwrap())
                    }
                };
                let Some(vt) = vt else { continue };
                if let Some(x) = self.min_sal {
                    if !matches!(v.tuple.get(1), Value::Int(s) if *s > x) {
                        continue;
                    }
                }
                rows.push(Row {
                    atom,
                    values: positions.iter().map(|&p| v.tuple.get(p).clone()).collect(),
                    vt,
                    tt: v.tt,
                });
            }
        }
        rows.truncate(self.limit.unwrap_or(usize::MAX));
        rows
    }
}

// ---- indexed comparisons ----------------------------------------------------------

/// Values of the three indexed attributes. The texts include strings that
/// share their first eight bytes — one index key — and the floats both
/// zeroes.
const INTS: [i64; 5] = [-2, 0, 1, 3, 4];
const FLOATS: [f64; 7] = [-1.5, -0.0, 0.0, 0.5, 1.0, 3.0, 3.5];
const TEXTS: [&str; 8] = [
    "",
    "ab",
    "abcdefgh",
    "abcdefgha",
    "abcdefghz",
    "abcdefghzz",
    "abcdefgi",
    "b",
];

/// A literal of any of the three types, as TQL.
fn literal() -> BoxedStrategy<String> {
    prop_oneof![
        (0..INTS.len()).prop_map(|i| INTS[i].to_string()),
        (0..FLOATS.len()).prop_map(|i| format!("{:?}", FLOATS[i])),
        (0..TEXTS.len()).prop_map(|i| format!("'{}'", TEXTS[i])),
    ]
    .boxed()
}

/// `attr <op> literal` or `literal <op> attr`, every attribute type against
/// every literal type.
fn comparison() -> BoxedStrategy<String> {
    (
        prop_oneof![Just("i"), Just("f"), Just("s")],
        prop_oneof![Just("="), Just("<"), Just("<="), Just(">"), Just(">=")],
        literal(),
        any::<bool>(),
    )
        .prop_map(|(attr, op, lit, attr_first)| match attr_first {
            true => format!("{attr} {op} {lit}"),
            false => format!("{lit} {op} {attr}"),
        })
        .boxed()
}

/// A database holding type `t (i INT, f FLOAT, s TEXT)` — every attribute
/// `INDEXED` when `indexed`, none otherwise — with one atom per row, then
/// corrections over valid-time windows: the atoms they hit hold several
/// current values, so one atom sits under several index keys.
fn typed_db(
    tag: &str,
    kind: StoreKind,
    seed: u64,
    indexed: bool,
    rows: &[(usize, usize, usize)],
    splits: &[(usize, usize, usize, u64)],
) -> (Database, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("tcom-{tag}prop-{}-{seed:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(
        &dir,
        DbConfig::default()
            .store_kind(kind)
            .buffer_frames(128)
            .sync_policy(SyncPolicy::OnCheckpoint)
            .checkpoint_interval(0),
    )
    .unwrap();
    let ix = if indexed { " INDEXED" } else { "" };
    run_statement(
        &db,
        &format!("CREATE TYPE t (i INT{ix}, f FLOAT{ix}, s TEXT{ix})"),
    )
    .unwrap();
    for &(i, f, s) in rows {
        run_statement(
            &db,
            &format!(
                "INSERT INTO t (i, f, s) VALUES ({}, {:?}, '{}')",
                INTS[i], FLOATS[f], TEXTS[s]
            ),
        )
        .unwrap();
    }
    for &(i, f, s, at) in splits {
        run_statement(
            &db,
            &format!(
                "UPDATE t SET i = {}, f = {:?} WHERE s >= '{}' VALID IN [{at}, {})",
                INTS[i],
                FLOATS[f],
                TEXTS[s],
                at + 5
            ),
        )
        .unwrap();
    }
    (db, dir)
}

/// Every filter answers the same through the value index as through a
/// forced scan.
fn probe_equals_scan(db: &Database, filters: &[String]) -> Result<(), String> {
    for filter in filters {
        let sql = format!("SELECT * FROM t WHERE {filter}");
        let by_plan = execute(db, &sql).unwrap();
        let by_scan = execute_with(
            db,
            &sql,
            ExecOptions {
                force_scan: true,
                ..Default::default()
            },
        )
        .unwrap();
        prop_assert_eq!(
            format!("{by_plan:?}"),
            format!("{by_scan:?}"),
            "index probe diverged from the scan on {}",
            sql
        );
    }
    Ok(())
}

// ---- DML routed through the read planner --------------------------------------

/// The attributes of `t`, in tuple order.
const ATTRS: [&str; 3] = ["i", "f", "s"];

/// The `k`-th value of attribute `attr`'s domain.
fn value_of(attr: usize, k: usize) -> Value {
    match attr {
        0 => Value::Int(INTS[k % INTS.len()]),
        1 => Value::Float(FLOATS[k % FLOATS.len()]),
        _ => Value::Text(TEXTS[k % TEXTS.len()].to_string()),
    }
}

fn attr(a: usize) -> Operand {
    Operand::Attr {
        qualifier: None,
        attr: ATTRS[a].to_string(),
    }
}

/// Operands for the shared `WHERE` generator: `t`'s attributes, bare or
/// qualified, and literals of all three types and NULL.
fn typed_operand() -> BoxedStrategy<Operand> {
    prop_oneof![
        2 => (0..3usize, any::<bool>()).prop_map(|(a, qualified)| Operand::Attr {
            qualifier: qualified.then(|| "t".to_string()),
            attr: ATTRS[a].to_string(),
        }),
        6 => (0..3usize, 0..8usize).prop_map(|(a, k)| Operand::Lit(value_of(a, k))),
        1 => Just(Operand::Lit(Value::Null)),
    ]
    .boxed()
}

/// `attr <op> literal` or `literal <op> attr` — a conjunct the value index
/// can answer; the literal mostly of the attribute's own type.
fn probe_cmp() -> BoxedStrategy<Expr> {
    (
        0..3usize,
        prop_oneof![3 => Just(0usize), 1 => Just(1), 1 => Just(2)],
        0..8usize,
        common::cmp_op(),
        any::<bool>(),
    )
        .prop_map(|(a, shift, k, op, attr_first)| {
            let lit = Operand::Lit(value_of((a + shift) % 3, k));
            match attr_first {
                true => Expr::Cmp(attr(a), op, lit),
                false => Expr::Cmp(lit, op, attr(a)),
            }
        })
        .boxed()
}

fn dml_filter() -> BoxedStrategy<Option<Expr>> {
    prop_oneof![
        1 => Just(None),
        3 => probe_cmp().prop_map(Some),
        2 => common::expr(typed_operand, 2).prop_map(Some),
        2 => (probe_cmp(), common::expr(typed_operand, 1))
            .prop_map(|(p, e)| Some(Expr::And(Box::new(p), Box::new(e)))),
    ]
    .boxed()
}

/// A DML valid extent: `VALID IN [a, b)` or `VALID FROM a`.
type Window = Option<(u64, Option<u64>)>;

fn window() -> BoxedStrategy<Window> {
    prop_oneof![
        2 => Just(None),
        2 => (0u64..30, 1u64..20).prop_map(|(a, d)| Some((a, Some(a + d)))),
        1 => (0u64..30).prop_map(|a| Some((a, None))),
    ]
    .boxed()
}

/// One statement of the transaction under test.
#[derive(Debug, Clone)]
enum Dml {
    /// `INSERT` of the `k`-th value of each attribute.
    Insert([usize; 3]),
    /// `UPDATE t SET attr = value(attr, k), …`.
    Update {
        sets: Vec<(usize, usize)>,
        filter: Option<Expr>,
        window: Window,
    },
    Delete {
        filter: Option<Expr>,
        window: Window,
    },
}

fn dml() -> BoxedStrategy<Dml> {
    prop_oneof![
        1 => (0..8usize, 0..8usize, 0..8usize).prop_map(|(i, f, s)| Dml::Insert([i, f, s])),
        4 => (vec((0..3usize, 0..8usize), 1..3), dml_filter(), window())
            .prop_map(|(sets, filter, window)| Dml::Update { sets, filter, window }),
        2 => (dml_filter(), window()).prop_map(|(filter, window)| Dml::Delete { filter, window }),
    ]
    .boxed()
}

/// Rewrite an indexed value, then probe for the new value (must hit the
/// rewritten atoms, which the committed index files under the old one) and
/// for the old one (must miss them).
fn chase() -> BoxedStrategy<Vec<Dml>> {
    (0..3usize, 0..8usize, 0..8usize, 0..3usize, 0..8usize)
        .prop_map(|(a, old, new, b, k)| {
            let eq = |k| Some(Expr::Cmp(attr(a), CmpOp::Eq, Operand::Lit(value_of(a, k))));
            vec![
                Dml::Update {
                    sets: vec![(a, new)],
                    filter: eq(old),
                    window: None,
                },
                Dml::Update {
                    sets: vec![(b, k)],
                    filter: eq(new),
                    window: None,
                },
                Dml::Delete {
                    filter: eq(old),
                    window: None,
                },
            ]
        })
        .boxed()
}

impl Dml {
    fn sql(&self) -> String {
        let lit = |a: usize, k: usize| Operand::Lit(value_of(a, k)).to_string();
        let tail = |filter: &Option<Expr>, window: &Window| {
            let mut s = filter
                .as_ref()
                .map_or(String::new(), |e| format!(" WHERE {e}"));
            match window {
                None => {}
                Some((a, Some(b))) => s += &format!(" VALID IN [{a}, {b})"),
                Some((a, None)) => s += &format!(" VALID FROM {a}"),
            }
            s
        };
        match self {
            Dml::Insert([i, f, s]) => format!(
                "INSERT INTO t (i, f, s) VALUES ({}, {}, {})",
                lit(0, *i),
                lit(1, *f),
                lit(2, *s)
            ),
            Dml::Update {
                sets,
                filter,
                window,
            } => {
                let sets: Vec<String> = sets
                    .iter()
                    .map(|&(a, k)| format!("{} = {}", ATTRS[a], lit(a, k)))
                    .collect();
                format!("UPDATE t SET {}{}", sets.join(", "), tail(filter, window))
            }
            Dml::Delete { filter, window } => format!("DELETE FROM t{}", tail(filter, window)),
        }
    }

    fn window(&self) -> Interval {
        match self {
            Dml::Update { window, .. } | Dml::Delete { window, .. } => match window {
                None => Interval::all(),
                Some((a, None)) => Interval::from_start(TimePoint(*a)),
                Some((a, Some(b))) => Interval::new(TimePoint(*a), TimePoint(*b)).unwrap(),
            },
            Dml::Insert(_) => Interval::all(),
        }
    }

    fn filter(&self) -> Option<&Expr> {
        match self {
            Dml::Update { filter, .. } | Dml::Delete { filter, .. } => filter.as_ref(),
            Dml::Insert(_) => None,
        }
    }
}

/// The definition of a `WHERE` clause over a tuple of `t`: SQL
/// three-valued logic, a row qualifies iff `Some(true)`.
fn holds(e: &Expr, t: &Tuple) -> Option<bool> {
    let value = |o: &Operand| match o {
        Operand::Lit(v) => v.clone(),
        Operand::Attr { attr, .. } => t.get(ATTRS.iter().position(|a| a == attr).unwrap()).clone(),
    };
    match e {
        Expr::Or(a, b) => match (holds(a, t), holds(b, t)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Expr::And(a, b) => match (holds(a, t), holds(b, t)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Expr::Not(a) => holds(a, t).map(|b| !b),
        Expr::IsNull(o, negated) => Some(value(o).is_null() != *negated),
        Expr::Cmp(l, op, r) => {
            let (l, r) = (value(l), value(r));
            match op {
                CmpOp::Eq => l.eq_sql(&r),
                CmpOp::Ne => l.eq_sql(&r).map(|b| !b),
                CmpOp::Lt => l.partial_cmp_sql(&r).map(|o| o.is_lt()),
                CmpOp::Le => l.partial_cmp_sql(&r).map(|o| o.is_le()),
                CmpOp::Gt => l.partial_cmp_sql(&r).map(|o| o.is_gt()),
                CmpOp::Ge => l.partial_cmp_sql(&r).map(|o| o.is_ge()),
            }
        }
    }
}

/// One atom's current state: `(valid time, tuple)` slices.
type Slices = Vec<(Interval, Tuple)>;

/// Sorted, with abutting equal slices merged — the form the engine keeps.
fn coalesced(mut s: Slices) -> Slices {
    s.sort_by_key(|(vt, _)| vt.start());
    let mut out: Slices = Vec::new();
    for (vt, t) in s {
        match out.last_mut() {
            Some((last, lt)) if last.end() == vt.start() && *lt == t => {
                *last = Interval::new(last.start(), vt.end()).unwrap();
            }
            _ => out.push((vt, t)),
        }
    }
    out
}

/// The transaction's view of `atom`: its overlay when written, committed
/// state otherwise.
fn in_txn_slices(db: &Database, txn: &Txn<'_>, atom: AtomId) -> Slices {
    match txn.written_versions(atom) {
        Some(vs) => vs.iter().map(|v| (v.vt, v.tuple.clone())).collect(),
        None => db
            .current_versions(atom)
            .unwrap()
            .into_iter()
            .map(|v| (v.vt, v.tuple))
            .collect(),
    }
}

/// The fold: every atom's current slices, by atom.
struct Model(BTreeMap<AtomId, Slices>);

impl Model {
    /// `versions_at` of every atom at the published clock.
    fn fold(db: &Database, ty: AtomTypeId) -> Model {
        let now = db.now();
        Model(
            db.all_atoms(ty)
                .unwrap()
                .into_iter()
                .map(|atom| {
                    let vs = db.versions_at(atom, now).unwrap();
                    (atom, vs.into_iter().map(|v| (v.vt, v.tuple)).collect())
                })
                .collect(),
        )
    }

    /// The atoms an `UPDATE` / `DELETE` selects: those with a slice that
    /// overlaps the window and satisfies the filter.
    fn targets(&self, d: &Dml) -> BTreeSet<AtomId> {
        let w = d.window();
        self.0
            .iter()
            .filter(|(_, slices)| {
                slices.iter().any(|(vt, t)| {
                    vt.overlaps(&w) && d.filter().is_none_or(|f| holds(f, t) == Some(true))
                })
            })
            .map(|(&atom, _)| atom)
            .collect()
    }

    /// Applies `d`, whose selected (or, for `INSERT`, created) atoms are
    /// `hit`: each qualifying slice is cut to the window and rewritten or
    /// dropped there.
    fn apply(&mut self, d: &Dml, hit: &BTreeSet<AtomId>) {
        let w = d.window();
        match d {
            Dml::Insert(ks) => {
                let atom = *hit.first().unwrap();
                let t = Tuple::new((0..3).map(|a| value_of(a, ks[a])).collect());
                self.0.insert(atom, vec![(Interval::all(), t)]);
            }
            Dml::Update { .. } | Dml::Delete { .. } => {
                for atom in hit {
                    let slices = self.0.get_mut(atom).unwrap();
                    let mut next = Vec::new();
                    for (vt, t) in slices.drain(..) {
                        let cut = vt.intersect(&w);
                        let qualifies = d.filter().is_none_or(|f| holds(f, &t) == Some(true));
                        let Some(cut) = cut.filter(|_| qualifies) else {
                            next.push((vt, t));
                            continue;
                        };
                        let (left, right) = vt.subtract(&cut);
                        for rest in [left, right].into_iter().flatten() {
                            next.push((rest, t.clone()));
                        }
                        if let Dml::Update { sets, .. } = d {
                            let mut t = t;
                            for &(a, k) in sets {
                                t.set(a, value_of(a, k));
                            }
                            next.push((cut, t));
                        }
                    }
                    *slices = next;
                }
            }
        }
    }
}

// ---- batch operators vs the scalar algebra ---------------------------------

/// `(key, val, vt start, vt length, open-ended)`.
type KeyedRow = (u64, i64, u64, u64, bool);

fn keyed_rows() -> BoxedStrategy<Vec<KeyedRow>> {
    vec((0u64..5, 0i64..3, 0u64..40, 1u64..20, any::<bool>()), 0..24).boxed()
}

/// The rows as a batch of `(key, val)` tuples whose atom is numbered by
/// the key, recorded for all transaction time.
fn keyed_batch(rows: &[KeyedRow]) -> VersionBatch {
    let mut b = VersionBatch::default();
    for &(key, val, start, len, open) in rows {
        let vt = if open {
            Interval::from_start(TimePoint(start))
        } else {
            Interval::new(TimePoint(start), TimePoint(start + len)).unwrap()
        };
        b.push_row(
            AtomId::new(AtomTypeId(1), AtomNo(key)),
            Tuple::new(vec![Value::Int(key as i64), Value::Int(val)]),
            vt,
            Interval::all(),
        );
    }
    b
}

/// One temporal row per batch row, in batch order.
fn batch_relation(b: &VersionBatch) -> TemporalRelation {
    b.rows()
        .map(|(_, t, vt, _)| TemporalRow {
            tuple: t.clone(),
            time: TemporalElement::from_interval(vt),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    /// The rows pipeline against its definition, on answers that span
    /// several executor batches: `LIMIT` falling on either side of a batch
    /// edge, `VALID IN` clipping rows in every batch, and every access-path
    /// hint for the `ASOF TT` statements.
    #[test]
    fn batched_rows_equal_the_fold(
        kind in kind(),
        extra_atoms in 0usize..120,
        edits in vec(edit(), 0..96),
        queries in vec(row_query(), 1..6),
        seed in any::<u64>(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "tcom-batchprop-{}-{seed:x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::open(
            &dir,
            DbConfig::default()
                .store_kind(kind)
                .buffer_frames(512)
                .sync_policy(SyncPolicy::OnCheckpoint)
                .checkpoint_interval(0),
        )
        .unwrap();
        let ty = build(&db, MIN_ATOMS + extra_atoms, &edits);
        let hints = [
            ExecOptions::default(),
            ExecOptions { no_time_index: true, ..Default::default() },
            ExecOptions { force_time_index: true, ..Default::default() },
        ];
        for q in &queries {
            let expected = q.fold(&db, ty);
            for opts in hints {
                let QueryOutput::Rows { rows, .. } = execute_with(&db, &q.sql(), opts).unwrap()
                else {
                    panic!("row query expected")
                };
                prop_assert_eq!(
                    rows.len(),
                    expected.len(),
                    "row count diverged from the fold on {} ({:?})",
                    q.sql(), opts
                );
                prop_assert!(
                    rows == expected,
                    "rows diverged from the fold on {} ({:?})",
                    q.sql(), opts
                );
            }
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A comparison on an indexed attribute answers the same through the
    /// value index as through a scan — whatever the literal's type, on
    /// either side of the operator, and for texts that share an index key.
    #[test]
    fn index_probe_equals_scan(
        kind in kind(),
        rows in vec((0..INTS.len(), 0..FLOATS.len(), 0..TEXTS.len()), 1..24),
        // Corrections over a valid-time window: the atoms they hit hold
        // several current values, so one atom sits under several index keys.
        splits in vec((0..INTS.len(), 0..FLOATS.len(), 0..TEXTS.len(), 0u64..30), 0..4),
        filters in vec(comparison(), 1..12),
        seed in any::<u64>(),
    ) {
        let (db, dir) = typed_db("probe", kind, seed, true, &rows, &splits);
        probe_equals_scan(&db, &filters)?;
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `UPDATE` / `DELETE` / `INSERT` sequences inside one transaction,
    /// their predicates drawn from the parser tests' `WHERE` generator
    /// over the three indexed attributes: every statement modifies
    /// exactly the atoms the fold selects — `versions_at` at the start,
    /// then the transaction's own writes, so `WHERE x = new` finds an atom
    /// rewritten to `new` and `WHERE x = old` no longer does — and leaves
    /// the state the fold computes. In-transaction `SELECT`s answer the
    /// same through the index as through a scan. Committed, every atom's
    /// history equals that of a twin whose attributes are unindexed (so
    /// every statement scanned), and the value indexes still answer as
    /// the scan does.
    #[test]
    fn index_routed_dml_equals_the_fold(
        kind in kind(),
        rows in vec((0..INTS.len(), 0..FLOATS.len(), 0..TEXTS.len()), 1..24),
        splits in vec((0..INTS.len(), 0..FLOATS.len(), 0..TEXTS.len(), 0u64..30), 0..4),
        script in vec(prop_oneof![3 => dml().prop_map(|d| vec![d]), 1 => chase()], 1..6),
        filters in vec(comparison(), 1..6),
        seed in any::<u64>(),
    ) {
        let script: Vec<Dml> = script.into_iter().flatten().collect();
        let (db, dir) = typed_db("dml", kind, seed, true, &rows, &splits);
        let (twin, twin_dir) = typed_db("dml-twin", kind, seed, false, &rows, &splits);
        let ty = db.atom_type_id("t").unwrap();
        let mut model = Model::fold(&db, ty);
        let mut txn = db.begin();
        let mut twin_txn = twin.begin();
        let mut written = BTreeSet::new();
        for d in &script {
            let sql = d.sql();
            let got = apply_statement(&db, &mut txn, parse_statement(&sql).unwrap()).unwrap();
            let twin_got =
                apply_statement(&twin, &mut twin_txn, parse_statement(&sql).unwrap()).unwrap();
            prop_assert_eq!(got, twin_got, "index-routed vs scanned twin on {}", sql);
            let hit = match (d, got) {
                (Dml::Insert(_), StatementApply::Inserted(atom)) => BTreeSet::from([atom]),
                (_, StatementApply::Modified(n)) => {
                    let hit = model.targets(d);
                    prop_assert_eq!(n, hit.len(), "atoms modified by {}", sql);
                    hit
                }
                _ => panic!("{sql}: unexpected {got:?}"),
            };
            model.apply(d, &hit);
            written.extend(hit);
            prop_assert_eq!(
                &txn.written_atoms().collect::<BTreeSet<_>>(),
                &written,
                "write set after {}",
                sql
            );
            for (&atom, slices) in &model.0 {
                prop_assert_eq!(
                    coalesced(in_txn_slices(&db, &txn, atom)),
                    coalesced(slices.clone()),
                    "atom {} after {}",
                    atom,
                    sql
                );
            }
            if let Dml::Update { filter: Some(f), .. } | Dml::Delete { filter: Some(f), .. } = d {
                let sql = format!("SELECT * FROM t WHERE {f}");
                let run = |opts| run_prepared(&db, Some(&txn), &prepare_with(&db, &sql, opts).unwrap(), false);
                prop_assert_eq!(
                    format!("{:?}", run(ExecOptions::default()).unwrap()),
                    format!("{:?}", run(ExecOptions { force_scan: true, ..Default::default() }).unwrap()),
                    "in-transaction probe diverged from the scan on {}",
                    sql
                );
            }
        }
        txn.commit().unwrap();
        twin_txn.commit().unwrap();
        for (&atom, slices) in &model.0 {
            let current = db.current_versions(atom).unwrap();
            prop_assert_eq!(
                coalesced(current.into_iter().map(|v| (v.vt, v.tuple)).collect()),
                coalesced(slices.clone()),
                "committed atom {}",
                atom
            );
            let history = |db: &Database| {
                let mut h: Vec<_> = db
                    .history(atom)
                    .unwrap()
                    .into_iter()
                    .map(|v| (v.tt.start(), v.tt.end(), v.vt.start(), v.vt.end(), v.tuple))
                    .collect();
                h.sort_by_key(|v| (v.0, v.2));
                h
            };
            prop_assert_eq!(history(&db), history(&twin), "history of {}", atom);
        }
        probe_equals_scan(&db, &filters)?;
        drop((db, twin));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&twin_dir);
    }

    #[test]
    fn aggregate_batch_matches_scalar_algebra(
        rows in vec((1u64..20, -100i64..100, 0u64..50, 1u64..50, any::<bool>()), 0..24),
        pick in any::<bool>(),
        // Sparse axes push aggregate_batch onto its sort path instead of
        // the dense bucket sweep.
        stretch in prop_oneof![2 => Just(1u64), 1 => Just(1_000_000u64)],
    ) {
        let mut b = VersionBatch::default();
        for &(no, val, start, len, open) in &rows {
            let (start, len) = (start * stretch, (len * stretch).max(1));
            let vt = if open {
                Interval::from_start(TimePoint(start))
            } else {
                Interval::new(TimePoint(start), TimePoint(start + len)).unwrap()
            };
            b.push_row(
                AtomId::new(AtomTypeId(1), AtomNo(no)),
                Tuple::new(vec![Value::Int(val)]),
                vt,
                Interval::from_start(TimePoint(0)),
            );
        }
        let attr = if pick { Some(0) } else { None };
        prop_assert_eq!(aggregate_batch(&b, attr), temporal_aggregate(&batch_relation(&b), attr));
    }

    /// `join_batches` emits one row per matching pair; merged per tuple,
    /// its rows equal `temporal_join`'s, and each pair keeps the left
    /// row's atom and all of transaction time.
    #[test]
    fn join_batches_matches_scalar_algebra(left in keyed_rows(), right in keyed_rows()) {
        let (lb, rb) = (keyed_batch(&left), keyed_batch(&right));
        let joined = join_batches(&lb, &rb, 0, 0);
        for (atom, t, _, tt) in joined.rows() {
            prop_assert_eq!(Value::Int(atom.no.0 as i64), t.get(0).clone());
            prop_assert_eq!(tt, Interval::all());
        }
        let key = |t: &Tuple| t.get(0).clone();
        prop_assert_eq!(
            coalesce(batch_relation(&joined)),
            temporal_join(&batch_relation(&lb), &batch_relation(&rb), key, key)
        );
    }

    /// `coalesce_batch` emits one row per maximal valid-time interval of
    /// each group, in the order of `temporal_project`'s rows and of the
    /// intervals within each row's element.
    #[test]
    fn coalesce_batch_matches_scalar_algebra(rows in keyed_rows(), whole in any::<bool>()) {
        let b = keyed_batch(&rows);
        let positions: &[usize] = if whole { &[0, 1] } else { &[0] };
        let batch: Vec<(Tuple, Interval)> = coalesce_batch(&b, positions)
            .rows()
            .map(|(_, t, vt, _)| (t.clone(), vt))
            .collect();
        let mut scalar = Vec::new();
        for r in temporal_project(batch_relation(&b), positions) {
            scalar.extend(r.time.intervals().iter().map(|&iv| (r.tuple.clone(), iv)));
        }
        prop_assert_eq!(batch, scalar);
    }
}
