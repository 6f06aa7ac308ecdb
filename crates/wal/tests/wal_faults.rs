//! WAL fault coverage: log-record codec round-trips under arbitrary
//! inputs, and exhaustive torn-tail recovery — the log is cut at *every*
//! byte boundary and must always reopen to exactly the whole frames that
//! survived the cut.

use proptest::prelude::*;
use tcom_kernel::{
    AtomId, AtomNo, AtomTypeId, Interval, Lsn, Result, TimePoint, Tuple, TxnId, Value,
};
use tcom_wal::{segment_path, LogRecord, SyncPolicy, Wal};

fn interval(a: u64, b: u64) -> Interval {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    Interval::new(TimePoint(lo), TimePoint(hi))
        .unwrap_or_else(|| Interval::from_start(TimePoint(lo)))
}

/// Every valid record from the start of the log, through the cursor.
fn read_all(wal: &Wal) -> Result<Vec<(Lsn, LogRecord)>> {
    let mut out = Vec::new();
    let mut cursor = wal.read_from(Lsn(0))?;
    while let Some(item) = cursor.next_record()? {
        out.push(item);
    }
    Ok(out)
}

fn record_strategy() -> impl Strategy<Value = LogRecord> {
    let atom =
        (0u32..16, 0u64..10_000).prop_map(|(ty, no)| AtomId::new(AtomTypeId(ty), AtomNo(no)));
    prop_oneof![
        1 => any::<u64>().prop_map(|t| LogRecord::Begin { txn: TxnId(t) }),
        1 => any::<u64>().prop_map(|t| LogRecord::Commit { txn: TxnId(t) }),
        3 => (any::<u64>(), atom.clone(), 0u64..500, 0u64..500, 0u64..1000, any::<i64>(), "[a-z]{0,12}")
            .prop_map(|(t, atom, a, b, tt, v, s)| LogRecord::InsertVersion {
                txn: TxnId(t),
                atom,
                vt: interval(a, b.wrapping_add(1)),
                tt_start: TimePoint(tt),
                tuple: Tuple::new(vec![Value::Int(v), Value::from(s.as_str())]),
            }),
        2 => (any::<u64>(), atom, 0u64..500, 0u64..1000)
            .prop_map(|(t, atom, vs, tte)| LogRecord::CloseVersion {
                txn: TxnId(t),
                atom,
                vt_start: TimePoint(vs),
                tt_end: TimePoint(tte),
            }),
        1 => (0u64..10_000, (0u32..8, 0u64..1_000).prop_map(|p| vec![p, (p.0 + 1, p.1 * 2)]))
            .prop_map(|(c, nos)| LogRecord::Checkpoint {
                clock: TimePoint(c),
                next_atom_nos: nos,
            }),
    ]
}

proptest! {
    /// decode(encode(r)) == r for arbitrary records of every variant.
    #[test]
    fn record_codec_roundtrip(rec in record_strategy()) {
        let payload = rec.encode();
        let back = LogRecord::decode(&payload).expect("decode");
        prop_assert_eq!(back, rec);
    }
}

/// Cut the log at every byte boundary; every cut must reopen cleanly to
/// exactly the frames wholly contained in (and CRC-valid within) the
/// surviving prefix, and the file must be truncated to that frame
/// boundary so later appends never interleave with torn bytes.
#[test]
fn torn_tail_recovers_at_every_byte_boundary() {
    let base = std::env::temp_dir().join(format!("tcom-walcut-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    // Records of assorted sizes, so frame boundaries are irregular.
    let recs = vec![
        LogRecord::Begin { txn: TxnId(1) },
        LogRecord::InsertVersion {
            txn: TxnId(1),
            atom: AtomId::new(AtomTypeId(0), AtomNo(7)),
            vt: interval(3, 42),
            tt_start: TimePoint(10),
            tuple: Tuple::new(vec![Value::Int(-5), Value::from("payload bytes")]),
        },
        LogRecord::CloseVersion {
            txn: TxnId(1),
            atom: AtomId::new(AtomTypeId(0), AtomNo(7)),
            vt_start: TimePoint(3),
            tt_end: TimePoint(10),
        },
        LogRecord::Commit { txn: TxnId(1) },
        LogRecord::Checkpoint {
            clock: TimePoint(11),
            next_atom_nos: vec![(0, 8), (1, 0)],
        },
    ];

    let full = base.join("full.wal");
    {
        let wal = Wal::open(&full, SyncPolicy::OnCommit).unwrap();
        for r in &recs {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
    }
    let bytes = std::fs::read(segment_path(&full, Lsn(0))).unwrap();

    // Frame boundaries: byte offsets where a whole number of frames end.
    let mut boundaries = vec![0u64];
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        boundaries.push(pos as u64);
    }
    assert_eq!(pos, bytes.len(), "frame scan must consume the file exactly");
    assert_eq!(boundaries.len(), recs.len() + 1);

    let cut_path = base.join("cut.wal");
    let cut_segment = segment_path(&cut_path, Lsn(0));
    for cut in 0..=bytes.len() {
        std::fs::write(&cut_segment, &bytes[..cut]).unwrap();
        let wal = Wal::open(&cut_path, SyncPolicy::OnCommit).unwrap();
        let back = read_all(&wal).unwrap();
        let want = boundaries
            .iter()
            .filter(|&&b| b > 0 && b <= cut as u64)
            .count();
        assert_eq!(back.len(), want, "cut at byte {cut}");
        for ((_, got), exp) in back.iter().zip(&recs) {
            assert_eq!(got, exp, "cut at byte {cut}");
        }
        let valid_end = *boundaries
            .iter()
            .filter(|&&b| b <= cut as u64)
            .max()
            .unwrap();
        assert_eq!(
            wal.len(),
            valid_end,
            "cut at byte {cut}: torn bytes must be dropped"
        );
        assert_eq!(
            std::fs::metadata(&cut_segment).unwrap().len(),
            valid_end,
            "cut at byte {cut}: file truncated to the last whole frame"
        );
        // The reopened log accepts appends cleanly after any cut.
        wal.append(&LogRecord::Begin { txn: TxnId(99) }).unwrap();
        assert_eq!(read_all(&wal).unwrap().len(), want + 1, "cut at byte {cut}");
    }

    let _ = std::fs::remove_dir_all(&base);
}
