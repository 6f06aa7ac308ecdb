//! One B⁺-tree writer beside two readers. The writer inserts ascending
//! keys and then random ones into a fanout-4 tree, so leaves, internal
//! nodes and the root split all the time; the readers loop `get` and
//! `scan_range`, and each asserts that every key inserted before its call
//! started is found. A reader that let go of a node before it held the
//! child could follow a pointer into a node whose upper half a split has
//! just moved away, and miss keys that were there all along.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use tcom_storage::btree::BTree;
use tcom_storage::keys::BKey;
use tcom_storage::{BufferPool, DiskManager};

/// Keys of the ascending phase; the random phase inserts as many more.
const KEYS: u64 = 2000;
/// Trees built one after another, each from empty, beside the readers.
const ROUNDS: u64 = 40;

/// A tiny xorshift generator (the test needs no statistics, only spread).
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn readers_find_every_key_inserted_before_their_call() {
    let checks: u64 = (0..ROUNDS).map(one_round).sum();
    assert!(checks > 0, "the readers ran no check");
}

/// Builds one tree beside two readers; returns the readers' checks.
fn one_round(round: u64) -> u64 {
    let path = std::env::temp_dir().join(format!("tcom-btc-{}-{round}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let pool = BufferPool::new(4096);
    let file = pool.register_file(Arc::new(DiskManager::open(&path).unwrap()));
    let tree = BTree::create(pool, file).unwrap().with_fanout(4, 4);

    // Insertion order: the even keys ascending, then the odd ones in a
    // random order, each landing inside a leaf the first phase filled.
    let mut order: Vec<u64> = (0..KEYS).map(|i| 2 * i).collect();
    let mut odd: Vec<u64> = (0..KEYS).map(|i| 2 * i + 1).collect();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ round;
    for i in (1..odd.len()).rev() {
        odd.swap(i, next(&mut rng) as usize % (i + 1));
    }
    order.extend(odd);

    let inserted = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let checks = std::thread::scope(|s| {
        s.spawn(|| {
            for (i, &k) in order.iter().enumerate() {
                tree.insert(BKey::new(k, 0), k + 1).unwrap();
                inserted.store(i + 1, Ordering::Release);
            }
            done.store(true, Ordering::Release);
        });
        let readers: Vec<_> = (1..=2u64)
            .map(|r| {
                let (tree, order, inserted, done) = (&tree, &order, &inserted, &done);
                s.spawn(move || {
                    let mut rng = r + 2 * round;
                    let mut checks = 0u64;
                    while !done.load(Ordering::Acquire) {
                        let n = inserted.load(Ordering::Acquire);
                        if n == 0 {
                            continue;
                        }
                        let k = order[next(&mut rng) as usize % n];
                        if checks.is_multiple_of(2) {
                            let got = tree.get(BKey::new(k, 0)).unwrap();
                            assert_eq!(got, Some(k + 1), "get of key {k}, among the first {n}");
                        } else {
                            let (lo, hi) = (k.saturating_sub(16), k + 16);
                            let found: Vec<u64> = tree
                                .range_vec(BKey::new(lo, 0), BKey::new(hi, 0))
                                .unwrap()
                                .into_iter()
                                .map(|(key, _)| key.hi)
                                .collect();
                            for &want in order[..n].iter().filter(|&&x| lo <= x && x < hi) {
                                assert!(
                                    found.binary_search(&want).is_ok(),
                                    "scan of [{lo}, {hi}) lacks key {want}, among the first {n}"
                                );
                            }
                        }
                        checks += 1;
                    }
                    checks
                })
            })
            .collect();
        readers.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
    });
    assert!(tree.height().unwrap() > 4, "the root split repeatedly");
    assert_eq!(tree.len().unwrap(), 2 * KEYS);
    let _ = std::fs::remove_file(&path);
    checks
}
