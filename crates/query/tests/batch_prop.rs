//! Batched-executor and access-path equivalence properties.
//!
//! 1. For random databases whose answers exceed one executor batch, the
//!    rows pipeline returns exactly what a fold over
//!    [`Database::versions_at_view`] returns, under every access-path hint.
//! 2. A comparison on an indexed attribute answers the same through the
//!    value index as through a forced scan.
//! 3. `aggregate_batch` over a columnar [`VersionBatch`] equals the
//!    scalar `temporal_aggregate` over the equivalent temporal relation.
//!
//! Case count defaults low for local runs; CI raises it with
//! `PROPTEST_CASES` (the `planner` job runs ≥256 cases).

use proptest::collection::vec;
use proptest::prelude::*;
use tcom_core::algebra::{temporal_aggregate, TemporalRow};
use tcom_core::batch::{aggregate_batch, VersionBatch};
use tcom_core::{Database, DbConfig, StoreKind, SyncPolicy};
use tcom_kernel::{AtomId, AtomNo, AtomTypeId, Interval, TemporalElement, TimePoint, Tuple, Value};
use tcom_query::{execute, execute_with, run_statement, ExecOptions, QueryOutput, Row};

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
        let dir = std::env::temp_dir().join(format!(
            "tcom-probeprop-{}-{seed:x}",
            std::process::id()
        ));
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
        run_statement(&db, "CREATE TYPE t (i INT INDEXED, f FLOAT INDEXED, s TEXT INDEXED)")
            .unwrap();
        for &(i, f, s) in &rows {
            run_statement(
                &db,
                &format!(
                    "INSERT INTO t (i, f, s) VALUES ({}, {:?}, '{}')",
                    INTS[i], FLOATS[f], TEXTS[s]
                ),
            )
            .unwrap();
        }
        for &(i, f, s, at) in &splits {
            run_statement(
                &db,
                &format!(
                    "UPDATE t SET i = {}, f = {:?} WHERE s >= '{}' VALID IN [{at}, {})",
                    INTS[i], FLOATS[f], TEXTS[s], at + 5
                ),
            )
            .unwrap();
        }
        for filter in &filters {
            let sql = format!("SELECT * FROM t WHERE {filter}");
            let by_plan = execute(&db, &sql).unwrap();
            let by_scan = execute_with(
                &db,
                &sql,
                ExecOptions { force_scan: true, ..Default::default() },
            )
            .unwrap();
            prop_assert_eq!(
                format!("{by_plan:?}"),
                format!("{by_scan:?}"),
                "index probe diverged from the scan on {}",
                sql
            );
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
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
        let rel: Vec<TemporalRow> = b
            .rows()
            .map(|(_, t, vt, _)| TemporalRow {
                tuple: t.clone(),
                time: TemporalElement::from_interval(vt),
            })
            .collect();
        let attr = if pick { Some(0) } else { None };
        prop_assert_eq!(aggregate_batch(&b, attr), temporal_aggregate(&rel, attr));
    }
}
