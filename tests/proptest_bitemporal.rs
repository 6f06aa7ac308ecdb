//! Property test: the full engine (transactions, WAL, version stores,
//! indexes) implements exactly the bitemporal semantics of a naive
//! in-memory specification, under random operation sequences — for every
//! storage format, including across a simulated crash.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use tcom::prelude::*;

/// The executable specification: a growing list of immutable version
/// records, mutated exactly like the engine is supposed to.
#[derive(Default, Clone)]
struct Spec {
    /// (vt, tt, value) triples; tt end FOREVER while current.
    versions: Vec<(Interval, Interval, i64)>,
    clock: u64,
}

impl Spec {
    fn current(&self) -> Vec<(Interval, i64)> {
        let mut v: Vec<(Interval, i64)> = self
            .versions
            .iter()
            .filter(|(_, tt, _)| tt.is_open_ended())
            .map(|(vt, _, val)| (*vt, *val))
            .collect();
        v.sort_by_key(|(vt, _)| vt.start());
        v
    }

    fn at(&self, tt: TimePoint) -> Vec<(Interval, i64)> {
        let mut v: Vec<(Interval, i64)> = self
            .versions
            .iter()
            .filter(|(_, t, _)| t.contains(tt))
            .map(|(vt, _, val)| (*vt, *val))
            .collect();
        v.sort_by_key(|(vt, _)| vt.start());
        v
    }

    /// Mirrors the engine's update: close overlapping, re-insert
    /// remainders, insert new content, coalesce equal neighbours.
    fn update(&mut self, vt: Interval, val: i64) {
        self.clock += 1;
        let now = TimePoint(self.clock);
        self.mutate(vt, Some(val), now);
    }

    fn delete(&mut self, vt: Interval) {
        // A delete overlapping nothing is a no-op: the engine's plan is
        // empty and the transaction does not even consume a clock tick.
        let touches = self
            .versions
            .iter()
            .any(|(v_vt, v_tt, _)| v_tt.is_open_ended() && v_vt.overlaps(&vt));
        if !touches {
            return;
        }
        self.clock += 1;
        let now = TimePoint(self.clock);
        self.mutate(vt, None, now);
    }

    fn mutate(&mut self, vt: Interval, val: Option<i64>, now: TimePoint) {
        let mut to_add: Vec<(Interval, i64)> = Vec::new();
        for (v_vt, v_tt, v_val) in self.versions.iter_mut() {
            if v_tt.is_open_ended() && v_vt.overlaps(&vt) {
                *v_tt = Interval::new(v_tt.start(), now).expect("close after open");
                let (l, r) = v_vt.subtract(&vt);
                for rem in [l, r].into_iter().flatten() {
                    to_add.push((rem, *v_val));
                }
            }
        }
        if let Some(val) = val {
            to_add.push((vt, val));
        }
        // Coalesce adjacent equal-value additions against the whole
        // resulting current state.
        let mut current: Vec<(Interval, i64)> = self
            .versions
            .iter()
            .filter(|(_, tt, _)| tt.is_open_ended())
            .map(|(v, _, x)| (*v, *x))
            .collect();
        current.extend(to_add.iter().copied());
        current.sort_by_key(|(v, _)| v.start());
        // Find coalescable runs; rebuild the additions so that merged
        // versions replace their parts.
        let mut i = 0;
        while i + 1 < current.len() {
            if current[i].0.end() == current[i + 1].0.start() && current[i].1 == current[i + 1].1 {
                // Close both parts (if stored), add merged.
                let merged =
                    Interval::new(current[i].0.start(), current[i + 1].0.end()).expect("run");
                let (a, b) = (current[i], current[i + 1]);
                for part in [a, b] {
                    // Close a stored version if the part is stored; drop a
                    // pending addition otherwise.
                    if let Some(pos) = to_add.iter().position(|x| *x == part) {
                        to_add.remove(pos);
                    } else if let Some((_, tt, _)) = self
                        .versions
                        .iter_mut()
                        .find(|(v, tt, x)| tt.is_open_ended() && (*v, *x) == part)
                    {
                        *tt = Interval::new(tt.start(), now).expect("close");
                    }
                }
                to_add.push((merged, a.1));
                current.remove(i + 1);
                current[i] = (merged, a.1);
            } else {
                i += 1;
            }
        }
        for (vt, val) in to_add {
            self.versions.push((vt, Interval::from_start(now), val));
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    Update { start: u8, len: u8, val: i8 },
    Delete { start: u8, len: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..30, 1u8..15, any::<i8>()).prop_map(|(start, len, val)| Op::Update { start, len, val }),
        1 => (0u8..30, 1u8..15).prop_map(|(start, len)| Op::Delete { start, len }),
    ]
}

fn iv8(start: u8, len: u8) -> Interval {
    Interval::new(
        TimePoint(start as u64),
        TimePoint(start as u64 + len as u64),
    )
    .expect("len >= 1")
}

fn tuple(val: i64) -> Tuple {
    Tuple::new(vec![Value::Int(val), Value::from("pad")])
}

fn check(db: &Database, atom: AtomId, spec: &Spec, label: &str) {
    // Current state.
    let got: Vec<(Interval, i64)> = db
        .current_versions(atom)
        .unwrap()
        .into_iter()
        .map(|v| {
            let Value::Int(i) = v.tuple.get(0) else {
                panic!("int")
            };
            (v.vt, *i)
        })
        .collect();
    assert_eq!(got, spec.current(), "{label}: current state diverged");
    // Every past transaction time.
    for t in 0..=spec.clock + 1 {
        let tt = TimePoint(t);
        let got: Vec<(Interval, i64)> = db
            .versions_at(atom, tt)
            .unwrap()
            .into_iter()
            .map(|v| {
                let Value::Int(i) = v.tuple.get(0) else {
                    panic!("int")
                };
                (v.vt, *i)
            })
            .collect();
        assert_eq!(got, spec.at(tt), "{label}: slice at tt={t} diverged");
    }
}

/// Runs `ops` against one fresh atom of a `kind` database and the spec,
/// checking every transaction-time slice and the integrity of the stores
/// and value indexes after every op and again after a crash and recovery.
fn run_case(ops: &[Op], kind: StoreKind) {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tcom-prop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DbConfig::default()
        .store_kind(kind)
        .buffer_frames(128)
        .checkpoint_interval(0);
    let db = Database::open(&dir, cfg).unwrap();
    let ty = db
        .define_atom_type(
            "t",
            vec![
                AttrDef::new("v", DataType::Int).indexed(),
                AttrDef::new("pad", DataType::Text),
            ],
        )
        .unwrap();

    // Seed version covering everything so updates always apply.
    let mut spec = Spec::default();
    let mut txn = db.begin();
    let atom = txn.insert_atom(ty, Interval::all(), tuple(1000)).unwrap();
    txn.commit().unwrap();
    spec.clock += 1;
    spec.versions.push((
        Interval::all(),
        Interval::from_start(TimePoint(spec.clock)),
        1000,
    ));
    let verify = |db: &Database, spec: &Spec, label: &str| {
        check(db, atom, spec, label);
        let report = db.verify_integrity().unwrap();
        assert!(report.is_ok(), "{label}: {:?}", report.violations);
    };

    for op in ops {
        match op {
            Op::Update { start, len, val } => {
                let vt = iv8(*start, *len);
                let mut txn = db.begin();
                txn.update(atom, vt, tuple(*val as i64)).unwrap();
                txn.commit().unwrap();
                spec.update(vt, *val as i64);
            }
            Op::Delete { start, len } => {
                let vt = iv8(*start, *len);
                let mut txn = db.begin();
                txn.delete(atom, vt).unwrap();
                txn.commit().unwrap();
                spec.delete(vt);
            }
        }
        verify(&db, &spec, &format!("{kind} after {op:?}"));
    }

    // Crash and recover: the spec must still hold.
    db.crash();
    let db = Database::open(&dir, cfg).unwrap();
    verify(&db, &spec, &format!("{kind} after crash recovery"));

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    #[test]
    fn engine_matches_bitemporal_spec(
        ops in proptest::collection::vec(op_strategy(), 1..25),
        kind_sel in 0usize..3,
    ) {
        run_case(&ops, [StoreKind::Chain, StoreKind::Delta, StoreKind::Split][kind_sel]);
    }
}

/// The one failure the property test has shrunk to: two deletes that
/// leave a gap, then an update across it, on the split layout.
#[test]
fn delete_delete_update_across_the_gap_on_split() {
    run_case(
        &[
            Op::Delete { start: 6, len: 10 },
            Op::Delete { start: 6, len: 1 },
            Op::Update {
                start: 1,
                len: 10,
                val: -16,
            },
        ],
        StoreKind::Split,
    );
}
