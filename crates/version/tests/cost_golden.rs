//! Cost golden: the page and walk cost of every read primitive, pinned
//! per storage format.
//!
//! One fixed, seeded script per kind is loaded through a roomy pool,
//! flushed, and then every measurement reopens the store files behind a
//! fresh **16-frame** pool (so the read is cold and the data is many times
//! the pool). For each of `current_versions`, mid-history `versions_at`,
//! `history` and `slice_at` the test asserts the exact triple
//! `(pool misses, store.chain_steps, store.delta_reconstructions)` — first
//! on the plain heaps, then again after `extract_closed` moved the older
//! half of the history into a published segment.
//!
//! The constants were recorded against the three separate store
//! implementations (`ChainStore`, `DeltaStore`, `SplitStore`) that preceded
//! the shared core, and the core reproduces them exactly. The one cell
//! restated since — downward — is the delta layout's post-swap `slice_at`
//! (see `GOLDEN`).
//!
//! The storage axis is pinned the same way: `StoreStats::record_bytes` per
//! kind after every atom of a synthetic integer type was updated 16 times,
//! across tuple widths and the number of attributes each update changes
//! (see `BYTES_GOLDEN`).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use tcom_kernel::time::Interval;
use tcom_kernel::{AtomNo, TimePoint, Tuple, Value};
use tcom_storage::buffer::{BufferPool, FileId};
use tcom_storage::disk::DiskManager;
use tcom_storage::vfs::StdVfs;
use tcom_version::record::AtomVersion;
use tcom_version::{write_segment_file, Segment, Store, StoreKind};

const ATOMS: u64 = 320;
const LAST_TICK: u64 = 26;
/// Transaction time of the mid-history reads.
const MID: TimePoint = TimePoint(13);
/// Everything closed at or before this tick moves into the segment.
const CUTOFF: TimePoint = TimePoint(15);
const SEG_NAME: &str = "seg0";

fn dir_for(test: &str, kind: StoreKind) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-golden-{}-{test}-{kind}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Registers the kind's files (and the segment, when present) with a new
/// pool of `frames` frames and opens the store over them.
fn open(kind: StoreKind, dir: &Path, frames: usize, create: bool) -> (Arc<BufferPool>, Store) {
    let pool = BufferPool::new(frames);
    let files: Vec<FileId> = kind
        .file_suffixes()
        .iter()
        .map(|s| pool.register_file(Arc::new(DiskManager::open(dir.join(s)).unwrap())))
        .collect();
    let store = Store::open(kind, pool.clone(), &files, create).unwrap();
    let seg_path = dir.join(SEG_NAME);
    if seg_path.exists() {
        let file = pool.register_file(Arc::new(DiskManager::open(&seg_path).unwrap()));
        let seg = Segment::open(pool.clone(), file, 0, 0).unwrap();
        store.segments().add(Arc::new(seg));
    }
    (pool, store)
}

/// Constant ballast that makes a full tuple a few hundred bytes (so the
/// stores span many times the 16-frame pool) and a delta far smaller.
const FILLER: &str = "a constant text attribute that never changes between revisions, \
    long enough that full copies of it dominate the heap pages of a store";

fn tuple(no: u64, rev: u64, wide: bool) -> Tuple {
    Tuple::new(vec![
        Value::Int(no as i64),
        Value::from(FILLER),
        Value::Int(rev as i64),
        Value::from(format!("atom-{no}-label")),
        if wide {
            Value::from(format!("note written at revision {rev}"))
        } else {
            Value::Null
        },
        Value::Bool(rev.is_multiple_of(2)),
    ])
}

/// The fixed script: 320 atoms (every eighth with two valid-time slices),
/// 24 update ticks that each touch a seeded third of the atoms, and a last
/// tick that logically deletes every sixteenth atom.
fn load(s: &Store) {
    let mut state = 0x5EED_0018_u64;
    let mut rand = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let open_from = |start: u64| Interval::from_start(TimePoint(start));
    for no in 0..ATOMS {
        if no % 8 == 0 {
            let early = Interval::new(TimePoint(0), TimePoint(10)).unwrap();
            s.insert_version(AtomNo(no), early, TimePoint(1), &tuple(no, 0, false))
                .unwrap();
            s.insert_version(
                AtomNo(no),
                open_from(10),
                TimePoint(1),
                &tuple(no, 1, false),
            )
            .unwrap();
        } else {
            s.insert_version(AtomNo(no), open_from(0), TimePoint(1), &tuple(no, 0, false))
                .unwrap();
        }
    }
    for tick in 2..LAST_TICK {
        for no in 0..ATOMS {
            if rand() % 3 != 0 {
                continue;
            }
            let vt_start = if no % 8 == 0 { 10 } else { 0 };
            assert!(s
                .close_version(AtomNo(no), TimePoint(vt_start), TimePoint(tick))
                .unwrap()
                .is_some());
            let wide = rand() % 4 == 0;
            s.insert_version(
                AtomNo(no),
                open_from(vt_start),
                TimePoint(tick),
                &tuple(no, tick, wide),
            )
            .unwrap();
        }
    }
    for no in (5..ATOMS).step_by(16) {
        assert!(s
            .close_version(AtomNo(no), TimePoint(0), TimePoint(LAST_TICK))
            .unwrap()
            .is_some());
    }
}

/// Moves every closed version at or below [`CUTOFF`] into one published
/// segment, the way `Database::compact_type` does.
fn compact(kind: StoreKind, dir: &Path) {
    let (pool, s) = open(kind, dir, 512, false);
    let mut entries: Vec<(u64, AtomVersion)> = Vec::new();
    for no in 0..ATOMS {
        for v in s.collect_closed(AtomNo(no), CUTOFF).unwrap() {
            entries.push((no, v));
        }
    }
    assert!(!entries.is_empty());
    write_segment_file(&StdVfs, &dir.join(SEG_NAME), 0, 0, &entries).unwrap();
    let extracted = s.extract_all_closed(&s.maintenance(), CUTOFF).unwrap();
    assert_eq!(extracted, entries.len() as u64);
    pool.flush_and_sync().unwrap();
}

/// `(pool misses, chain steps, delta reconstructions)` of one read.
type Cost = (u64, u64, u64);
/// The answers of one read, flattened (compared across kinds).
type Answer = Vec<(u64, AtomVersion)>;

const READS: [&str; 4] = ["current_versions", "versions_at", "history", "slice_at"];

/// Runs read `which` cold behind a fresh 16-frame pool.
fn measure(kind: StoreKind, dir: &Path, which: usize) -> (Cost, Answer) {
    let (pool, s) = open(kind, dir, 16, false);
    let before = (
        pool.stats().misses,
        s.obs().chain_steps.get(),
        s.obs().delta_reconstructions.get(),
    );
    let mut answer: Answer = Vec::new();
    match which {
        0 => {
            for no in 0..ATOMS {
                let vs = s.current_versions(AtomNo(no)).unwrap();
                answer.extend(vs.into_iter().map(|v| (no, v)));
            }
        }
        1 => {
            for no in 0..ATOMS {
                let vs = s.versions_at(AtomNo(no), MID).unwrap();
                answer.extend(vs.into_iter().map(|v| (no, v)));
            }
        }
        2 => {
            for no in (0..ATOMS).step_by(3) {
                let vs = s.history(AtomNo(no)).unwrap();
                answer.extend(vs.into_iter().map(|v| (no, v)));
            }
        }
        _ => {
            for (no, vs) in s.slice_at(MID).unwrap() {
                answer.extend(vs.into_iter().map(|v| (no.0, v)));
            }
        }
    }
    let cost = (
        pool.stats().misses - before.0,
        s.obs().chain_steps.get() - before.1,
        s.obs().delta_reconstructions.get() - before.2,
    );
    (cost, answer)
}

/// Expected costs: `GOLDEN[kind][phase][read]`, phase 0 = heaps only,
/// phase 1 = after `extract_closed` + segment publish.
#[rustfmt::skip]
const GOLDEN: [[[Cost; 4]; 2]; 3] = [
    // chain: current_versions, versions_at, history, slice_at
    [
        [(1453, 2898, 0), (1453, 2898, 0), (495, 950, 0), (54, 0, 0)],
        [(335, 1403, 0), (444, 1403, 0), (183, 469, 0), (43, 0, 0)],
    ],
    // delta. The post-swap `slice_at` cell was (108, 1403, 1043) under the
    // separate DeltaStore, whose slice re-read the segment blocks once for
    // a candidate-atom set and again per atom, and walked the chain of
    // every atom visible only in the segment. The shared epilogue merges
    // the segment once and walks only atoms the time index names.
    [
        [(40, 2898, 2538), (40, 2898, 2538), (36, 950, 829), (54, 2898, 2538)],
        [(42, 1403, 1043), (93, 1403, 1043), (60, 469, 348), (43, 793, 578)],
    ],
    // split. The pre-swap `history` cell was (711, 836, 0) while a B⁺-tree
    // descent let go of each node before it fetched the child; latch
    // coupling keeps the parent's frame pinned over that fetch, so the
    // clock evicts another frame and 3 pages stay resident.
    [
        [(10, 0, 0), (833, 1572, 0), (708, 836, 0), (66, 0, 0)],
        [(10, 0, 0), (334, 1063, 0), (142, 355, 0), (45, 0, 0)],
    ],
];

#[test]
fn read_costs_are_pinned_per_kind() {
    let kinds = [StoreKind::Chain, StoreKind::Delta, StoreKind::Split];
    let mut got = [[[(0u64, 0u64, 0u64); 4]; 2]; 3];
    let mut answers: Vec<Vec<Answer>> = Vec::new();
    for (kind, got) in kinds.into_iter().zip(&mut got) {
        let dir = dir_for("reads", kind);
        {
            let (pool, s) = open(kind, &dir, 512, true);
            load(&s);
            pool.flush_and_sync().unwrap();
        }
        let mut mine = Vec::new();
        for (phase, got) in got.iter_mut().enumerate() {
            if phase == 1 {
                compact(kind, &dir);
            }
            for (which, got) in got.iter_mut().enumerate() {
                let (cost, answer) = measure(kind, &dir, which);
                *got = cost;
                mine.push(answer);
            }
        }
        answers.push(mine);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The three layouts answer identically, before and after the swap.
    for (i, name) in READS.iter().cycle().take(2 * READS.len()).enumerate() {
        assert_eq!(answers[0][i], answers[1][i], "chain vs delta: {name} #{i}");
        assert_eq!(answers[0][i], answers[2][i], "chain vs split: {name} #{i}");
        assert!(!answers[0][i].is_empty(), "{name} #{i} answered nothing");
    }
    // Archiving does not change what a read returns.
    for which in 0..READS.len() {
        assert_eq!(answers[0][which], answers[0][READS.len() + which]);
    }
    assert_eq!(got, GOLDEN, "got {got:#?}");
}

/// Atoms of the storage script; each holds 17 versions at the end.
const SYN_ATOMS: u64 = 64;
const SYN_UPDATES: u64 = 16;

/// `(width, changed)`: one changed attribute at widths 4, 16 and 64, then
/// 1, 8, 16 and 31 changed attributes at width 32.
const SHAPES: [(usize, usize); 7] = [
    (4, 1),
    (16, 1),
    (64, 1),
    (32, 1),
    (32, 8),
    (32, 16),
    (32, 31),
];

/// Attribute 0 is the key, attributes `1..=changed` carry the round, the
/// rest are constant.
fn syn_tuple(width: usize, key: u64, round: u64, changed: usize) -> Tuple {
    (0..width)
        .map(|i| match i {
            0 => Value::Int(key as i64),
            _ if i <= changed => Value::Int(round as i64 * 31 + i as i64),
            _ => Value::Int(i as i64 * 1000),
        })
        .collect()
}

/// Expected `record_bytes`: `BYTES_GOLDEN[kind][shape]`, shapes in
/// [`SHAPES`] order. Per version (÷ 1 088) that is chain 30 / 73 / 265
/// bytes and delta 24 / 26 / 37 across the widths, and a delta-to-chain
/// ratio of 0.22 / 0.41 / 0.66 / 1.00 across the changed-attribute counts.
#[rustfmt::skip]
const BYTES_GOLDEN: [[u64; 7]; 3] = [
    // chain: w4, w16, w64; w32 with 1, 8, 16, 31 changed
    [33280, 80064, 289054, 149696, 148800, 139072, 120832],
    // delta
    [26112, 28864, 41152, 32960, 60736, 91968, 120832],
    // split
    [32448, 79232, 288158, 148864, 147968, 138240, 120000],
];

/// Inserts [`SYN_ATOMS`] atoms at tt 1, then updates every atom once per
/// tick for [`SYN_UPDATES`] ticks (close the current version, insert its
/// successor — the engine's order for an update over all valid time), and
/// reads the stored bytes.
#[test]
fn record_bytes_are_pinned_per_kind() {
    let kinds = [StoreKind::Chain, StoreKind::Delta, StoreKind::Split];
    let mut got = [[0u64; 7]; 3];
    for (kind, got) in kinds.into_iter().zip(&mut got) {
        for (&(width, changed), got) in SHAPES.iter().zip(got.iter_mut()) {
            let dir = dir_for(&format!("bytes-{width}-{changed}"), kind);
            let (_pool, s) = open(kind, &dir, 512, true);
            for no in 0..SYN_ATOMS {
                let t = syn_tuple(width, no, 0, changed);
                s.insert_version(AtomNo(no), Interval::all(), TimePoint(1), &t)
                    .unwrap();
            }
            for round in 1..=SYN_UPDATES {
                let tt = TimePoint(round + 1);
                for no in 0..SYN_ATOMS {
                    assert!(s
                        .close_version(AtomNo(no), TimePoint::MIN, tt)
                        .unwrap()
                        .is_some());
                    let t = syn_tuple(width, no, round, changed);
                    s.insert_version(AtomNo(no), Interval::all(), tt, &t)
                        .unwrap();
                }
            }
            let st = s.stats().unwrap();
            assert_eq!(
                st.versions,
                SYN_ATOMS * (SYN_UPDATES + 1),
                "{kind} {width}/{changed}"
            );
            *got = st.record_bytes;
            drop(s);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert_eq!(got, BYTES_GOLDEN, "got {got:#?}");
}
