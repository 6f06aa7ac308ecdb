//! Snapshot-read regression battery: readers must never block behind a
//! committing writer (liveness) and must never observe a torn — partially
//! applied — transaction (atomicity).
//!
//! The liveness test parks a commit *inside* its apply section using the
//! engine's `block_applies_for_test` hook (which holds `commit_lock`
//! exclusively, exactly where an applying commit holds it shared). A
//! reader that touched `commit_lock` on its path would block behind that
//! guard; the bounded-wall-clock assertion turns any such regression into
//! a test failure.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tcom_core::{
    AtomId, AtomTypeId, AttrDef, AttrId, DataType, Database, DbConfig, Interval, StoreKind,
    SyncPolicy, TimePoint, Tuple, Txn, Value,
};
use tcom_query::exec::{execute, execute_with, ExecOptions, QueryOutput};
use tcom_storage::keys::encode_int;
use tcom_version::record::AtomVersion;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-snap-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn open(tag: &str) -> (Database, AtomTypeId, PathBuf) {
    let dir = tmpdir(tag);
    let db = Database::open(
        &dir,
        DbConfig::default()
            .store_kind(StoreKind::Split)
            .sync_policy(SyncPolicy::OnCheckpoint)
            .checkpoint_interval(0),
    )
    .unwrap();
    let ty = db
        .define_atom_type("emp", vec![AttrDef::new("salary", DataType::Int)])
        .unwrap();
    (db, ty, dir)
}

fn tup(v: i64) -> Tuple {
    Tuple::new(vec![Value::Int(v)])
}

fn salaries(db: &Database) -> Vec<i64> {
    match execute(db, "SELECT * FROM emp").unwrap() {
        QueryOutput::Rows { rows, .. } => rows
            .iter()
            .map(|r| match r.values[0] {
                Value::Int(v) => v,
                ref other => panic!("unexpected value {other:?}"),
            })
            .collect(),
        other => panic!("unexpected output {other:?}"),
    }
}

/// A reader completes, with the pre-commit state, while a large commit is
/// parked mid-apply — and within a hard wall-clock bound, proving it
/// never touched `commit_lock`.
#[test]
fn reader_completes_while_commit_applies() {
    let (db, ty, dir) = open("liveness");
    const ATOMS: usize = 64;
    let mut txn = db.begin();
    let atoms: Vec<AtomId> = (0..ATOMS)
        .map(|_| txn.insert_atom(ty, Interval::all(), tup(1)).unwrap())
        .collect();
    txn.commit().unwrap();

    // Park every apply: the next commit stalls after WAL durability,
    // right where it would take `commit_lock` shared.
    let guard = db.block_applies_for_test();

    let (staged_tx, staged_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let db2 = &db;
        let atoms2 = &atoms;
        s.spawn(move || {
            let mut big = db2.begin();
            for a in atoms2 {
                big.update(*a, Interval::all(), tup(2)).unwrap();
            }
            staged_tx.send(()).unwrap();
            big.commit().unwrap(); // blocks on the parked apply
        });
        staged_rx.recv().unwrap();
        // Let the committer reach the blocked apply section.
        std::thread::sleep(Duration::from_millis(100));

        let t0 = Instant::now();
        let got = salaries(&db);
        let elapsed = t0.elapsed();
        assert_eq!(got, vec![1i64; ATOMS], "reader must see pre-commit state");
        assert!(
            elapsed < Duration::from_secs(2),
            "reader took {elapsed:?} with a commit parked mid-apply — \
             it blocked behind commit_lock"
        );
        // Readers stay live indefinitely while the apply is parked.
        assert_eq!(salaries(&db), vec![1i64; ATOMS]);
        drop(guard); // un-park; the commit finishes
    });

    assert_eq!(salaries(&db), vec![2i64; ATOMS], "commit visible after");
    assert!(db.verify_integrity().unwrap().is_ok());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Uniform-value commits: every transaction rewrites *all* atoms to one
/// value, so any scan that observes two different values saw a torn
/// commit. Readers hammer the scan while the writer churns.
#[test]
fn scans_never_observe_torn_commits() {
    let (db, ty, dir) = open("atomicity");
    const ATOMS: usize = 16;
    const COMMITS: i64 = 60;
    let mut txn = db.begin();
    let atoms: Vec<AtomId> = (0..ATOMS)
        .map(|_| txn.insert_atom(ty, Interval::all(), tup(0)).unwrap())
        .collect();
    txn.commit().unwrap();

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db2 = &db;
        let atoms2 = &atoms;
        let done2 = &done;
        s.spawn(move || {
            for k in 1..=COMMITS {
                let mut txn = db2.begin();
                for a in atoms2 {
                    txn.update(*a, Interval::all(), tup(k)).unwrap();
                }
                txn.commit().unwrap();
            }
            done2.store(true, Ordering::Release);
        });
        for _ in 0..2 {
            let db2 = &db;
            let done2 = &done;
            s.spawn(move || {
                let mut last = -1i64;
                loop {
                    let writer_done = done2.load(Ordering::Acquire);
                    let got = salaries(db2);
                    assert_eq!(got.len(), ATOMS);
                    let v = got[0];
                    assert!(
                        got.iter().all(|&x| x == v),
                        "torn scan: mixed values {got:?}"
                    );
                    assert!(v >= last, "snapshot went backwards: {v} after {last}");
                    last = v;
                    if writer_done && last == COMMITS {
                        break;
                    }
                }
            });
        }
    });
    assert!(db.verify_integrity().unwrap().is_ok());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pinned `ASOF TT` slice is immutable: the visible row *content*
/// (atom, values, valid time, version birth) cannot change no matter how
/// many commits land after it. Only a version's tt *end* may move — from
/// `∞` to the closing timestamp — which is recorded history, not content.
fn slice_content(db: &Database, q: &str) -> Vec<(AtomId, Vec<Value>, Interval, u64)> {
    slice_content_with(db, q, ExecOptions::default())
}

fn slice_content_with(
    db: &Database,
    q: &str,
    opts: ExecOptions,
) -> Vec<(AtomId, Vec<Value>, Interval, u64)> {
    match execute_with(db, q, opts).unwrap() {
        QueryOutput::Rows { rows, .. } => rows
            .into_iter()
            .map(|r| (r.atom, r.values, r.vt, r.tt.start().0))
            .collect(),
        other => panic!("unexpected output {other:?}"),
    }
}

#[test]
fn asof_slices_stay_frozen_under_churn() {
    let (db, ty, dir) = open("frozen");
    let mut txn = db.begin();
    let atom = txn.insert_atom(ty, Interval::all(), tup(7)).unwrap();
    let tt0 = txn.commit().unwrap();

    let q = format!("SELECT * FROM emp ASOF TT {}", tt0.0);
    let frozen = slice_content(&db, &q);

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db2 = &db;
        let done2 = &done;
        s.spawn(move || {
            for k in 0..40i64 {
                let mut txn = db2.begin();
                txn.update(atom, Interval::all(), tup(100 + k)).unwrap();
                txn.commit().unwrap();
            }
            done2.store(true, Ordering::Release);
        });
        let db3 = &db;
        let q2 = &q;
        let frozen2 = &frozen;
        let done3 = &done;
        s.spawn(move || {
            while !done3.load(Ordering::Acquire) {
                assert_eq!(
                    &slice_content(db3, q2),
                    frozen2,
                    "pinned ASOF slice changed under concurrent commits"
                );
            }
        });
    });
    assert_eq!(&slice_content(&db, &q), &frozen);
    assert!(db.verify_integrity().unwrap().is_ok());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A database of `kind` with `ATOMS` `tag` atoms, atom `i` holding `k =
/// value(i)`, inserted in one commit at the returned tt.
fn tag_fixture(
    kind: StoreKind,
    tag: &str,
    atoms: usize,
    value: impl Fn(usize) -> i64,
) -> (Database, Vec<AtomId>, TimePoint, PathBuf) {
    let dir = tmpdir(tag);
    let db = Database::open(
        &dir,
        DbConfig::default()
            .store_kind(kind)
            .sync_policy(SyncPolicy::OnCheckpoint)
            .checkpoint_interval(0),
    )
    .unwrap();
    let ty = db
        .define_atom_type("tag", vec![AttrDef::new("k", DataType::Int).indexed()])
        .unwrap();
    let mut txn = db.begin();
    let ids: Vec<AtomId> = (0..atoms)
        .map(|i| txn.insert_atom(ty, Interval::all(), tup(value(i))).unwrap())
        .collect();
    let tt0 = txn.commit().unwrap();
    (db, ids, tt0, dir)
}

/// A current-state lookup through the value index answers at its
/// statement's view. Half of 200 atoms hold `k = 1` and half `k = 2`, and
/// a writer swaps every value in one commit per round, so every snapshot
/// holds exactly 100 atoms with `k = 1`; beside it a reader repeats
/// `WHERE k = 1`. Were the live index probed after a swap that landed
/// past the statement's pin, the atoms holding 1 at its view would sit
/// under key 2 by then, and the answer would lack them.
#[test]
fn current_index_probe_answers_at_its_view() {
    const ATOMS: usize = 200;
    let (db, atoms, _, dir) = tag_fixture(StoreKind::Split, "current-probe", ATOMS, |i| {
        1 + i as i64 % 2
    });
    let q = "SELECT * FROM tag WHERE k = 1";
    let p = tcom_query::prepare(&db, q).unwrap();
    assert!(
        matches!(
            p.access,
            tcom_query::AccessPath::IndexRange { tt: None, .. }
        ),
        "the lookup must probe the current value index: {:?}",
        p.access
    );

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let start = Instant::now();
            for round in 1i64.. {
                if start.elapsed() > Duration::from_secs(2) {
                    break;
                }
                let mut txn = db.begin();
                for (i, &atom) in atoms.iter().enumerate() {
                    let k = 1 + (i as i64 + round) % 2;
                    txn.update(atom, Interval::all(), tup(k)).unwrap();
                }
                txn.commit().unwrap();
            }
            done.store(true, Ordering::Release);
        });
        let mut n = 0u64;
        while !done.load(Ordering::Acquire) {
            let rows = slice_content(&db, q);
            assert!(
                rows.len() == ATOMS / 2 && rows.iter().all(|r| r.1 == [Value::Int(1)]),
                "answer {n} holds {} rows, not the {} of every snapshot",
                rows.len(),
                ATOMS / 2
            );
            n += 1;
        }
    });
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`tag_fixture`] with every atom holding `k = 1`, and `WHERE k = 1 ASOF
/// TT` the insert's tt, which must plan the value-index probe at it.
fn flip_fixture(
    kind: StoreKind,
    tag: &str,
    atoms: usize,
) -> (Database, Vec<AtomId>, String, PathBuf) {
    let (db, ids, tt0, dir) = tag_fixture(kind, tag, atoms, |_| 1);
    let q = format!("SELECT * FROM tag WHERE k = 1 ASOF TT {}", tt0.0);
    let p = tcom_query::prepare(&db, &q).unwrap();
    assert!(
        matches!(p.access, tcom_query::AccessPath::IndexRange { tt: Some(t), .. } if t == tt0),
        "the lookup must probe the value index at t0: {:?}",
        p.access
    );
    (db, ids, q, dir)
}

/// One commit's change to an atom in a round of [`flip_until`].
type Step = dyn Fn(&mut Txn<'_>, AtomId, i64) -> tcom_core::Result<()> + Sync;

/// Flips the atom's `k` between 2 and 1 over all valid time.
fn flip(txn: &mut Txn<'_>, atom: AtomId, round: i64) -> tcom_core::Result<()> {
    txn.update(atom, Interval::all(), tup(2 - round % 2))
}

/// Makes `step` to `atoms` in rounds, one atom per commit, pausing `pause`
/// after each, until `stop` is set or `cap` has passed.
fn flip_until(
    db: &Database,
    atoms: &[AtomId],
    pause: Duration,
    stop: &AtomicBool,
    cap: Duration,
    step: &Step,
) {
    let start = Instant::now();
    for round in 0i64.. {
        for &atom in atoms {
            if stop.load(Ordering::Acquire) || start.elapsed() > cap {
                return;
            }
            let mut txn = db.begin();
            step(&mut txn, atom, round).unwrap();
            txn.commit().unwrap();
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
    }
}

/// An `ASOF TT` lookup through the value index reads its two candidate
/// sources — the index's current holders and the versions closed since
/// the statement's tt — as one snapshot. A writer flips an indexed value
/// `1 ↔ 2` on the same atoms, one atom per commit; beside it a reader
/// repeats `WHERE k = 1 ASOF TT t0`, where every atom held 1, and each
/// answer must equal the first. Were the closed half read before the
/// probe, a flip landing between them would close an atom's visible
/// version after the closed half looked and move it out of the index
/// before the probe looked, and the answer would lose that atom. The
/// writer pauses after each commit, so flips land at every point of a
/// lookup.
#[test]
fn asof_index_probe_is_one_snapshot() {
    let (db, atoms, q, dir) = flip_fixture(StoreKind::Split, "probe", 200);
    let first = slice_content(&db, &q);
    assert_eq!(first.len(), atoms.len());

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            flip_until(
                &db,
                &atoms,
                Duration::from_micros(100),
                &AtomicBool::new(false),
                Duration::from_secs(2),
                &flip,
            );
            done.store(true, Ordering::Release);
        });
        let mut n = 0u64;
        while !done.load(Ordering::Acquire) {
            assert_eq!(
                slice_content(&db, &q),
                first,
                "an ASOF index lookup changed under concurrent flips (answer {n})"
            );
            n += 1;
        }
    });
    assert_eq!(slice_content(&db, &q), first);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Liveness of the same lookup, and of the same statement without its
/// filter through the forced time-index slice, under back-to-back
/// commits: each one spans many commit gaps, and each answer must still
/// arrive within a deadline and equal the first.
#[test]
fn asof_index_probe_answers_under_back_to_back_commits() {
    const ANSWERS: usize = 20;
    const DEADLINE: Duration = Duration::from_secs(1);
    let (db, atoms, q, dir) = flip_fixture(StoreKind::Split, "probe-live", 2000);
    let forced = ExecOptions {
        force_time_index: true,
        ..Default::default()
    };
    let slice = q.replace(" WHERE k = 1", "");
    let p = tcom_query::prepare_with(&db, &slice, forced).unwrap();
    assert!(
        matches!(p.access, tcom_query::AccessPath::TimeSlice { .. }),
        "the forced statement must slice: {:?}",
        p.access
    );
    let inputs = [(&q, ExecOptions::default()), (&slice, forced)];
    let first = slice_content(&db, &q);
    assert_eq!(first.len(), atoms.len());
    assert_eq!(slice_content_with(&db, &slice, forced), first);

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            flip_until(
                &db,
                &atoms,
                Duration::ZERO,
                &stop,
                Duration::from_secs(10),
                &flip,
            )
        });
        // Let the writer close enough t0 versions that the probe's closed
        // half outlasts a commit gap.
        std::thread::sleep(Duration::from_millis(100));
        for n in 0..ANSWERS {
            for (stmt, opts) in inputs {
                let start = Instant::now();
                let answer = slice_content_with(&db, stmt, opts);
                let took = start.elapsed();
                if took > DEADLINE || answer != first {
                    stop.store(true, Ordering::Release);
                }
                assert!(
                    took <= DEADLINE,
                    "answer {n} to {stmt} took {took:?} beside the writer"
                );
                assert_eq!(
                    answer, first,
                    "answer {n} to {stmt} changed under back-to-back flips"
                );
            }
        }
        stop.store(true, Ordering::Release);
    });
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What one battery reader asked.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ask {
    /// `versions_at_view` of one atom.
    AtView(AtomId),
    /// `history` of one atom, pinned somewhere up to the second tt.
    History(AtomId, TimePoint),
    /// The current-state value-index probe `k = 1`, fetched at its view.
    CurrentProbe,
    /// The value-index probe `k = 1` at a past tt.
    AsofProbe(TimePoint),
    /// The whole-type time-index slice at a tt.
    Slice(TimePoint),
}

impl Ask {
    fn kind(&self) -> &'static str {
        match self {
            Ask::AtView(_) => "versions_at_view",
            Ask::History(..) => "history",
            Ask::CurrentProbe => "current probe",
            Ask::AsofProbe(_) => "ASOF TT probe",
            Ask::Slice(_) => "forced slice",
        }
    }
}

type Groups = Vec<(AtomId, Vec<AtomVersion>)>;

/// `groups` as they stood at `view`: a version closed by a later commit
/// was still open then.
fn as_of(groups: Groups, view: TimePoint) -> Groups {
    groups
        .into_iter()
        .map(|(atom, vs)| {
            let vs = vs
                .into_iter()
                .map(|v| AtomVersion {
                    tt: if v.tt.end() > view {
                        Interval::from_start(v.tt.start())
                    } else {
                        v.tt
                    },
                    ..v
                })
                .collect();
            (atom, vs)
        })
        .collect()
}

/// The versions holding `k = 1`, and the atoms left with any.
fn holding_one(groups: Groups) -> Groups {
    groups
        .into_iter()
        .map(|(atom, vs)| {
            let vs: Vec<AtomVersion> = vs
                .into_iter()
                .filter(|v| v.tuple.get(0) == &Value::Int(1))
                .collect();
            (atom, vs)
        })
        .filter(|(_, vs)| !vs.is_empty())
        .collect()
}

/// A fingerprint of `groups`, to compare answers with their references.
fn digest(groups: &Groups) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for (atom, vs) in groups {
        (atom.ty.0, atom.no.0, vs.len()).hash(&mut h);
        for v in vs {
            (v.vt.start().0, v.vt.end().0, v.tt.start().0, v.tt.end().0).hash(&mut h);
            for value in v.tuple.values() {
                match value {
                    Value::Int(i) => i.hash(&mut h),
                    other => format!("{other:?}").hash(&mut h),
                }
            }
        }
    }
    h.finish()
}

/// One read of the battery, picked by `pick`: its question, its view's tt
/// and the fingerprint of its answer as of that tt. A quarter of them are
/// slices at `t0`, the fixture's insert: while the writer's first round
/// closes the versions born there, each closing version's open entry is
/// the last such a slice scans in the open partition.
fn battery_read(
    db: &Database,
    ty: AtomTypeId,
    atoms: &[AtomId],
    t0: TimePoint,
    pick: u64,
) -> (Ask, TimePoint, Result<u64, String>) {
    let one = encode_int(1);
    let view = db.pin_view();
    let past = TimePoint(t0.0 + pick / 8 % (view.tt.0 - t0.0 + 1));
    let atom = atoms[(pick / 8) as usize % atoms.len()];
    let (ask, got) = match pick % 8 {
        0 => (
            Ask::AtView(atom),
            db.versions_at_view(atom, &view).map(|vs| vec![(atom, vs)]),
        ),
        1 => {
            let got = db.history(atom).map(|vs| vec![(atom, vs)]);
            let got = got.map(|g| digest(&g)).map_err(|e| e.to_string());
            return (Ask::History(atom, db.now()), view.tt, got);
        }
        2 => {
            let got = db
                .index_range_at_view(ty, AttrId(0), one, one, &view)
                .and_then(|held| {
                    held.into_iter()
                        .map(|a| Ok((a, db.versions_at_view(a, &view)?)))
                        .collect::<tcom_core::Result<Groups>>()
                });
            (Ask::CurrentProbe, got.map(holding_one))
        }
        3 => (
            Ask::AsofProbe(past),
            db.index_range_asof(ty, AttrId(0), one, one, past)
                .map(holding_one),
        ),
        k => {
            let t = [view.tt, past, t0, t0][k as usize - 4];
            let mut groups = Vec::new();
            let got = db.slice_at(ty, t, &mut |no, vs| {
                groups.push((AtomId::new(ty, no), vs));
                Ok(true)
            });
            (Ask::Slice(t), got.map(|()| groups))
        }
    };
    let got = got.map(|g| digest(&as_of(g, view.tt)));
    (ask, view.tt, got.map_err(|e| e.to_string()))
}

/// The reference answer of `ask` at `view`, from the whole histories the
/// database holds once the writer has stopped.
fn battery_reference(
    hist: &BTreeMap<AtomId, Vec<AtomVersion>>,
    ask: Ask,
    view: TimePoint,
) -> Vec<u64> {
    let at = |atom: AtomId, t: TimePoint| -> Vec<AtomVersion> {
        let mut vs: Vec<AtomVersion> = hist
            .get(&atom)
            .into_iter()
            .flatten()
            .filter(|v| v.tt.contains(t))
            .cloned()
            .collect();
        vs.sort_by_key(|v| v.vt.start());
        vs
    };
    let fold = |t: TimePoint| -> Groups {
        hist.keys()
            .map(|&a| (a, at(a, t)))
            .filter(|(_, vs)| !vs.is_empty())
            .collect()
    };
    let groups = match ask {
        Ask::AtView(atom) => vec![(atom, at(atom, view))],
        Ask::History(atom, to) => {
            // Any view the read may have pinned.
            return (view.0..=to.0)
                .map(|w| {
                    let clipped: Vec<AtomVersion> = hist[&atom]
                        .iter()
                        .filter(|v| v.tt.start().0 <= w)
                        .cloned()
                        .collect();
                    digest(&as_of(vec![(atom, clipped)], TimePoint(w)))
                })
                .collect();
        }
        Ask::CurrentProbe => holding_one(fold(view)),
        Ask::AsofProbe(t) => holding_one(fold(t)),
        Ask::Slice(t) => fold(t),
    };
    vec![digest(&as_of(groups, view))]
}

/// Readers never validate against commits. On each layout, a writer that
/// never pauses makes `VALID`-piece updates (split relocates its current
/// sets, delta re-encodes old heads), indexed-value flips and inserts
/// (leaves split, and so does a root), and a maintenance thread swaps
/// closed history into segments; beside them two readers loop
/// `versions_at_view`, `history`, the current-state and `ASOF TT`
/// value-index probes and forced slices. Once the writer stops, every
/// answer must equal the same read at its view's tt, folded from the
/// atoms' whole histories: 0 mismatches and 0 errors.
#[test]
fn readers_answer_at_their_view_beside_a_writer_that_never_pauses() {
    const WRITE_FOR: Duration = Duration::from_millis(1500);
    for kind in [StoreKind::Chain, StoreKind::Delta, StoreKind::Split] {
        let (db, atoms, q, dir) = flip_fixture(kind, &format!("battery-{kind}"), 300);
        let ty = atoms[0].ty;
        let first = slice_content(&db, &q);
        let t0 = db.now();
        // Descending, so that each version closed in the first round is
        // the last open entry at `t0` (and, on chain and delta, its closed
        // entry the first).
        let descending: Vec<AtomId> = atoms.iter().rev().copied().collect();
        let stop = AtomicBool::new(false);
        let answers = std::thread::scope(|s| {
            s.spawn(|| {
                flip_until(
                    &db,
                    &descending,
                    Duration::ZERO,
                    &stop,
                    WRITE_FOR,
                    &|txn, atom, round| {
                        let k = tup(1 + round % 2);
                        match (atom.no.0 as i64 + round) % 4 {
                            0 => txn.insert_atom(atom.ty, Interval::all(), k).map(|_| ()),
                            1 => txn.update(atom, Interval::all(), k),
                            p => {
                                let from = TimePoint((p * 7 + round % 11) as u64);
                                txn.update(
                                    atom,
                                    Interval::new(from, TimePoint(from.0 + 3)).unwrap(),
                                    k,
                                )
                            }
                        }
                    },
                );
                stop.store(true, Ordering::Release);
            });
            s.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    db.compact_type(ty).unwrap();
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
            let readers: Vec<_> = (0..2u64)
                .map(|r| {
                    let (db, atoms, stop) = (&db, &atoms, &stop);
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut pick = r;
                        while !stop.load(Ordering::Acquire) {
                            pick = pick
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            out.push(battery_read(db, ty, atoms, t0, pick >> 20));
                        }
                        out
                    })
                })
                .collect();
            readers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        let hist: BTreeMap<AtomId, Vec<AtomVersion>> = db
            .all_atoms(ty)
            .unwrap()
            .into_iter()
            .map(|a| (a, db.history(a).unwrap()))
            .collect();
        let mut tally: BTreeMap<&str, [u64; 3]> = BTreeMap::new();
        for (ask, view, got) in &answers {
            let cell = tally.entry(ask.kind()).or_default();
            cell[0] += 1;
            match got {
                Err(_) => cell[2] += 1,
                Ok(got) if !battery_reference(&hist, *ask, *view).contains(got) => cell[1] += 1,
                Ok(_) => {}
            }
        }
        let bad = tally.values().any(|c| c[1] + c[2] > 0);
        assert!(
            !bad,
            "{kind}: [answers, mismatches, errors] by read: {tally:?}"
        );
        assert_eq!(slice_content(&db, &q), first, "{kind}");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
