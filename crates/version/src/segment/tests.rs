//! Segment tests: fixed cases for LZSS, blocks, the footer, the file
//! through the pool and the segment set, then property tests for LZSS
//! compression, block encoding, footer encoding, the full stream
//! builder, and the fence-pruning predicates.
//!
//! Two families of properties:
//!
//! * **Round-trip + rejection** — every encode/decode pair is exact, and
//!   every truncation boundary (and trailing garbage) of every encoded
//!   artifact is rejected with a clean error, never a panic. Crash
//!   recovery and torn segment files depend on this.
//! * **Fence soundness** — when a segment- or block-level fence says a
//!   transaction time or atom is *not* admitted, no version behind the
//!   fence can match it. Pruning may over-admit (that only costs pages),
//!   but under-admitting would silently drop history.
//!
//! `PROPTEST_CASES` scales the case count (CI runs 256).

use super::*;
use proptest::prelude::*;
use tcom_kernel::time::iv;
use tcom_kernel::{Interval, Tuple, Value};

fn v(no: u64, tts: u64, tte: u64, val: i64) -> (u64, AtomVersion) {
    (
        no,
        AtomVersion {
            vt: iv(0, 100),
            tt: iv(tts, tte),
            tuple: Tuple::new(vec![
                Value::Int(val),
                Value::Text(
                    "constant payload text that should compress well \
                             constant payload text"
                        .into(),
                ),
            ]),
        },
    )
}

#[test]
fn lzss_roundtrip_shapes() {
    let cases: Vec<Vec<u8>> = vec![
        vec![],
        vec![7],
        vec![0; 4096],
        (0..=255u8).cycle().take(10_000).collect(),
        b"abcabcabcabcabcabcabcabc".to_vec(),
        (0..2048).map(|i| (i % 7) as u8).collect(),
    ];
    for raw in cases {
        let comp = lzss_compress(&raw);
        assert_eq!(lzss_decompress(&comp, raw.len()).unwrap(), raw);
    }
}

#[test]
fn lzss_compresses_redundancy() {
    let raw: Vec<u8> = b"0123456789".iter().cycle().take(8000).copied().collect();
    let comp = lzss_compress(&raw);
    assert!(
        comp.len() < raw.len() / 4,
        "repetitive input should shrink: {} -> {}",
        raw.len(),
        comp.len()
    );
}

#[test]
fn lzss_decompress_rejects_garbage() {
    assert!(lzss_decompress(&[0], 1).is_err(), "zero control byte");
    assert!(lzss_decompress(&[5, 1, 2], 3).is_err(), "truncated run");
    assert!(lzss_decompress(&[0x80, 1], 4).is_err(), "truncated match");
    assert!(lzss_decompress(&[0x80, 0, 0], 4).is_err(), "zero distance");
    assert!(
        lzss_decompress(&[1, 9, 0x80, 5, 0], 5).is_err(),
        "distance outside window"
    );
    assert!(lzss_decompress(&[1, 9], 2).is_err(), "underrun");
    assert!(lzss_decompress(&[2, 9, 9], 1).is_err(), "overrun");
}

#[test]
fn block_and_footer_roundtrip() {
    let entries = vec![v(1, 1, 5, 10), v(1, 5, 9, 11), v(3, 2, 4, 30)];
    let raw = encode_block(&entries);
    assert_eq!(decode_block(&raw).unwrap(), entries);
    // Truncations reject cleanly.
    for cut in 0..raw.len() {
        assert!(decode_block(&raw[..cut]).is_err(), "cut at {cut}");
    }
    let (stream, footer) = build_segment_stream(&entries);
    assert_eq!(footer.versions, 3);
    assert_eq!(footer.blocks.len(), 1);
    assert_eq!(footer.comp_bytes as usize, stream.len());
    let enc = footer.encode();
    assert_eq!(SegmentFooter::decode(&enc).unwrap(), footer);
    for cut in 0..enc.len() {
        assert!(SegmentFooter::decode(&enc[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn fences_bound_visibility() {
    let entries = vec![v(1, 1, 5, 10), v(2, 3, 8, 20)];
    let (_, footer) = build_segment_stream(&entries);
    assert_eq!(footer.tt_min(), TimePoint(1));
    assert_eq!(footer.tt_max(), TimePoint(8));
    assert!(footer.admits_tt(TimePoint(1)));
    assert!(footer.admits_tt(TimePoint(7)));
    assert!(!footer.admits_tt(TimePoint(0)));
    assert!(!footer.admits_tt(TimePoint(8)));
    assert!(!footer.admits_tt(TimePoint::FOREVER));
    assert!(footer.admits_atom(AtomNo(1)));
    assert!(!footer.admits_atom(AtomNo(9)));
}

#[test]
fn file_roundtrip_through_pool() {
    use tcom_storage::vfs::FaultVfs;
    let vfs = FaultVfs::new();
    let path = std::path::Path::new("/mem/seg1");
    let entries: Vec<(u64, AtomVersion)> = (0..200u64)
        .flat_map(|no| (0..5u64).map(move |i| v(no, i + 1, i + 2, (no * 10 + i) as i64)))
        .collect();
    let footer = write_segment_file(&vfs, path, 2, 7, &entries).unwrap();
    assert_eq!(footer.versions, 1000);
    assert!(footer.comp_bytes < footer.raw_bytes, "payload must shrink");

    let pool = BufferPool::new(64);
    let dm = Arc::new(DiskManager::open_with(&vfs, path).unwrap());
    let file = pool.register_file(dm);
    let seg = Segment::open(pool.clone(), file, 2, 7).unwrap();
    assert_eq!(seg.footer(), &footer);
    // Identity checks.
    assert!(Segment::open(pool.clone(), file, 2, 8).is_err());
    assert!(Segment::open(pool, file, 3, 7).is_err());

    let mut out = Vec::new();
    seg.versions_for(AtomNo(17), &mut out).unwrap();
    assert_eq!(out.len(), 5);
    assert_eq!(out[0].tuple.values()[0], Value::Int(170));

    let mut groups = BTreeMap::new();
    seg.slice_into(TimePoint(3), &mut groups).unwrap();
    assert_eq!(groups.len(), 200, "every atom has a version at tt=3");
    for vs in groups.values() {
        assert_eq!(vs.len(), 1);
        assert!(vs[0].tt.contains(TimePoint(3)));
    }
}

#[test]
fn segment_set_counts_reads_and_skips() {
    use tcom_storage::vfs::FaultVfs;
    let vfs = FaultVfs::new();
    let pool = BufferPool::new(64);
    let set = SegmentSet::new();
    // Two segments with disjoint tt ranges.
    for (i, (lo, hi)) in [(1u64, 10u64), (20, 30)].iter().enumerate() {
        let path = format!("/mem/seg{i}");
        let entries = vec![v(1, *lo, *hi, 1)];
        write_segment_file(&vfs, Path::new(&path), 0, i as u64, &entries).unwrap();
        let dm = Arc::new(DiskManager::open_with(&vfs, Path::new(&path)).unwrap());
        let file = pool.register_file(dm);
        set.add(Arc::new(
            Segment::open(pool.clone(), file, 0, i as u64).unwrap(),
        ));
    }
    let mut groups = BTreeMap::new();
    set.slice_into(TimePoint(5), &mut groups).unwrap();
    assert_eq!(groups[&1].len(), 1);
    assert_eq!(set.counters(), (1, 1), "one admitted, one fence-skipped");
    let mut out = Vec::new();
    set.versions_at_for(AtomNo(1), TimePoint(25), &mut out)
        .unwrap();
    assert_eq!(out.len(), 1);
    let mut all = Vec::new();
    set.history_for(AtomNo(1), &mut all).unwrap();
    assert_eq!(all.len(), 2, "history ignores tt fences");
    // FOREVER touches nothing.
    let (r, s) = set.counters();
    let mut g2 = BTreeMap::new();
    set.slice_into(TimePoint::FOREVER, &mut g2).unwrap();
    assert!(g2.is_empty());
    assert_eq!(set.counters(), (r, s));
}

// ---- property tests ----

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        "[a-z0-9 ]{0,16}".prop_map(|s| Value::from(s.as_str())),
    ]
}

/// A closed version: finite `tt` (that is what segments hold), `vt`
/// bounded or open-ended.
fn arb_closed_version() -> impl Strategy<Value = (u64, AtomVersion)> {
    (
        0u64..40,
        0u64..900,
        1u64..60,
        0u64..900,
        1u64..60,
        any::<bool>(),
        proptest::collection::vec(arb_value(), 0..4),
    )
        .prop_map(|(no, ts, tl, vs, vl, vt_open, vals)| {
            let tt = Interval::new(TimePoint(ts), TimePoint(ts + tl)).unwrap();
            let vt = if vt_open {
                Interval::from_start(TimePoint(vs))
            } else {
                Interval::new(TimePoint(vs), TimePoint(vs + vl)).unwrap()
            };
            (
                no,
                AtomVersion {
                    vt,
                    tt,
                    tuple: Tuple::new(vals),
                },
            )
        })
}

fn arb_versions(max: usize) -> impl Strategy<Value = Vec<(u64, AtomVersion)>> {
    proptest::collection::vec(arb_closed_version(), 0..max)
}

/// Total order used to compare version multisets (ties broken on the
/// tuple's debug form, which is injective for our value set).
fn sort_key(e: &(u64, AtomVersion)) -> (u64, TimePoint, TimePoint, TimePoint, String) {
    (
        e.0,
        e.1.tt.start(),
        e.1.vt.start(),
        e.1.tt.end(),
        format!("{:?}", e.1.tuple),
    )
}

fn sorted(mut v: Vec<(u64, AtomVersion)>) -> Vec<(u64, AtomVersion)> {
    v.sort_by_key(sort_key);
    v
}

proptest! {
    /// Compression is lossless, and *every* strict prefix of a compressed
    /// stream is rejected (the declared raw length can never be met).
    #[test]
    fn lzss_roundtrip_and_truncation(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let comp = lzss_compress(&data);
        prop_assert_eq!(lzss_decompress(&comp, data.len()).unwrap(), data.clone());
        for cut in 0..comp.len() {
            prop_assert!(
                lzss_decompress(&comp[..cut], data.len()).is_err(),
                "prefix of {cut}/{} bytes must not decompress",
                comp.len()
            );
        }
        // A wrong declared length is also rejected.
        prop_assert!(lzss_decompress(&comp, data.len() + 1).is_err());
        if !data.is_empty() {
            prop_assert!(lzss_decompress(&comp, data.len() - 1).is_err());
        }
    }

    /// Arbitrary garbage never panics the decompressor — it returns an
    /// error or, by coincidence, valid output of the declared length.
    #[test]
    fn lzss_decompress_never_panics(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        raw_len in 0usize..2048,
    ) {
        if let Ok(out) = lzss_decompress(&data, raw_len) {
            prop_assert_eq!(out.len(), raw_len);
        }
    }

    /// Block encode/decode is exact; every truncation boundary and any
    /// trailing byte is rejected.
    #[test]
    fn block_roundtrip_and_truncation(entries in arb_versions(24)) {
        let entries = sorted(entries);
        let raw = encode_block(&entries);
        prop_assert_eq!(decode_block(&raw).unwrap(), entries);
        for cut in 0..raw.len() {
            prop_assert!(decode_block(&raw[..cut]).is_err(), "cut at {cut}/{}", raw.len());
        }
        let mut extended = raw.clone();
        extended.push(0);
        prop_assert!(decode_block(&extended).is_err(), "trailing byte must be rejected");
    }

    /// Footer encode/decode is exact; truncations and trailing bytes are
    /// rejected.
    #[test]
    fn footer_roundtrip_and_truncation(entries in arb_versions(40)) {
        let (_, footer) = build_segment_stream(&entries);
        let enc = footer.encode();
        prop_assert_eq!(SegmentFooter::decode(&enc).unwrap(), footer);
        for cut in 0..enc.len() {
            prop_assert!(SegmentFooter::decode(&enc[..cut]).is_err(), "cut at {cut}/{}", enc.len());
        }
        let mut extended = enc.clone();
        extended.push(0);
        prop_assert!(SegmentFooter::decode(&extended).is_err());
    }

    /// The full stream round-trips: every fence locates a decompressible,
    /// checksummed block; the union of all blocks is exactly the input
    /// multiset; totals and offsets are consistent.
    #[test]
    fn stream_roundtrip(entries in arb_versions(64)) {
        let (stream, footer) = build_segment_stream(&entries);
        prop_assert_eq!(footer.versions, entries.len() as u64);
        prop_assert_eq!(footer.comp_bytes, stream.len() as u64);
        prop_assert_eq!(
            footer.raw_bytes,
            footer.blocks.iter().map(|b| b.raw_len as u64).sum::<u64>()
        );

        let mut offset = 0u64;
        let mut decoded = Vec::new();
        for fence in &footer.blocks {
            prop_assert_eq!(fence.offset, offset, "blocks must be contiguous");
            offset += fence.comp_len as u64;
            let comp = &stream[fence.offset as usize..(fence.offset + fence.comp_len as u64) as usize];
            let raw = lzss_decompress(comp, fence.raw_len as usize).unwrap();
            prop_assert_eq!(crc32c(&raw), fence.crc);
            let block = decode_block(&raw).unwrap();
            prop_assert_eq!(block.len() as u32, fence.count);

            // Fences are tight over their block.
            prop_assert_eq!(fence.atom_min, block.iter().map(|(n, _)| *n).min().unwrap());
            prop_assert_eq!(fence.atom_max, block.iter().map(|(n, _)| *n).max().unwrap());
            prop_assert_eq!(fence.tt_min, block.iter().map(|(_, v)| v.tt.start()).min().unwrap());
            prop_assert_eq!(fence.tt_max, block.iter().map(|(_, v)| v.tt.end()).max().unwrap());
            prop_assert_eq!(fence.vt_min, block.iter().map(|(_, v)| v.vt.start()).min().unwrap());
            prop_assert_eq!(fence.vt_max, block.iter().map(|(_, v)| v.vt.end()).max().unwrap());
            decoded.extend(block);
        }
        prop_assert_eq!(offset, stream.len() as u64);
        prop_assert_eq!(sorted(decoded), sorted(entries));
    }

    /// Fence pruning is sound: a rejected transaction time or atom number
    /// has no matching version behind the fence, at segment scope and at
    /// block scope. `FOREVER` (current state) is never admitted.
    #[test]
    fn fence_pruning_sound(
        entries in arb_versions(64),
        probes in proptest::collection::vec(0u64..1100, 1..12),
        atom_probes in proptest::collection::vec(0u64..60, 1..8),
    ) {
        let (stream, footer) = build_segment_stream(&entries);
        prop_assert!(!footer.admits_tt(TimePoint::FOREVER));
        for fence in &footer.blocks {
            prop_assert!(!fence.admits_tt(TimePoint::FOREVER));
        }

        // Probe at arbitrary points plus every fence edge (off-by-one
        // territory: starts, ends, and their neighbours).
        let mut tts: Vec<TimePoint> = probes.into_iter().map(TimePoint).collect();
        for (_, v) in &entries {
            tts.push(v.tt.start());
            tts.push(v.tt.end());
            tts.push(TimePoint(v.tt.end().0.saturating_sub(1)));
        }

        for &tt in &tts {
            if !footer.admits_tt(tt) {
                prop_assert!(
                    !entries.iter().any(|(_, v)| v.tt.contains(tt)),
                    "segment fence rejected tt={tt} but a version contains it"
                );
            }
            for fence in &footer.blocks {
                if fence.admits_tt(tt) {
                    continue;
                }
                let comp = &stream
                    [fence.offset as usize..(fence.offset + fence.comp_len as u64) as usize];
                let raw = lzss_decompress(comp, fence.raw_len as usize).unwrap();
                let block = decode_block(&raw).unwrap();
                prop_assert!(
                    !block.iter().any(|(_, v)| v.tt.contains(tt)),
                    "block fence rejected tt={tt} but a version in the block contains it"
                );
            }
        }

        for no in atom_probes {
            if !footer.admits_atom(AtomNo(no)) {
                prop_assert!(
                    !entries.iter().any(|(n, _)| *n == no),
                    "segment fence rejected atom {no} but it has archived versions"
                );
            }
        }
    }
}
