//! Payload-codec property tests: every [`StatementOutput`] shape must
//! round-trip through [`proto::enc_output`] / [`proto::dec_output`]
//! exactly, and truncating an encoded payload must produce an error —
//! never a panic and never a silently different result.

use proptest::prelude::*;
use tcom_client::proto::{self, Ack};
use tcom_core::batch::AggStep;
use tcom_core::{MatAtom, Molecule};
use tcom_kernel::{
    AtomId, AtomNo, AtomTypeId, AttrId, Interval, MoleculeTypeId, TimePoint, Tuple, Value,
};
use tcom_query::exec::{ExplainReport, OpReport, QueryOutput, Row};
use tcom_query::StatementOutput;
use tcom_version::record::AtomVersion;

// ---- generators ----

fn atom_id_strategy() -> impl Strategy<Value = AtomId> {
    (0u32..100, 0u64..100_000).prop_map(|(t, n)| AtomId::new(AtomTypeId(t), AtomNo(n)))
}

fn interval_strategy() -> impl Strategy<Value = Interval> {
    prop_oneof![
        (0u64..1000, 1u64..100).prop_map(|(s, len)| Interval::new(
            TimePoint(s),
            TimePoint(s + len)
        )
        .expect("len>=1")),
        (0u64..1000).prop_map(|s| Interval::from_start(TimePoint(s))),
    ]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e300f64..1e300).prop_map(Value::Float),
        "[a-zA-Z0-9 _]{0,16}".prop_map(Value::Text),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::Bytes),
        atom_id_strategy().prop_map(Value::Ref),
    ]
}

fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(value_strategy(), 0..6).prop_map(Tuple::new)
}

fn version_strategy() -> impl Strategy<Value = AtomVersion> {
    (interval_strategy(), interval_strategy(), tuple_strategy())
        .prop_map(|(vt, tt, tuple)| AtomVersion { vt, tt, tuple })
}

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        atom_id_strategy(),
        proptest::collection::vec(value_strategy(), 0..5),
        interval_strategy(),
        interval_strategy(),
    )
        .prop_map(|(atom, values, vt, tt)| Row {
            atom,
            values,
            vt,
            tt,
        })
}

fn mat_atom_strategy() -> impl Strategy<Value = MatAtom> {
    // Two-level molecule trees: a root with 0..3 child groups of leaves.
    let leaf = (atom_id_strategy(), version_strategy()).prop_map(|(id, version)| MatAtom {
        id,
        version,
        children: Vec::new(),
    });
    (
        atom_id_strategy(),
        version_strategy(),
        proptest::collection::vec(
            (
                (0u64..16).prop_map(|a| AttrId(a as u16)),
                proptest::collection::vec(leaf, 0..3),
            ),
            0..3,
        ),
    )
        .prop_map(|(id, version, children)| MatAtom {
            id,
            version,
            children,
        })
}

fn query_output_strategy() -> impl Strategy<Value = QueryOutput> {
    prop_oneof![
        (
            proptest::collection::vec("[a-z_]{1,10}".prop_map(String::from), 0..5),
            proptest::collection::vec(row_strategy(), 0..8),
        )
            .prop_map(|(columns, rows)| QueryOutput::Rows { columns, rows }),
        proptest::collection::vec(
            (
                (0u64..32).prop_map(|m| MoleculeTypeId(m as u32)),
                (0u64..1000).prop_map(TimePoint),
                (0u64..1000).prop_map(TimePoint),
                mat_atom_strategy(),
            )
                .prop_map(|(mol_type, tt, vt, root)| Molecule {
                    mol_type,
                    tt,
                    vt,
                    root,
                }),
            0..4,
        )
        .prop_map(QueryOutput::Molecules),
        proptest::collection::vec(
            (
                atom_id_strategy(),
                proptest::collection::vec(version_strategy(), 0..4),
            ),
            0..4,
        )
        .prop_map(QueryOutput::Histories),
        (
            proptest::collection::vec(
                (interval_strategy(), 0u64..50, any::<i64>())
                    .prop_map(|(during, count, sum)| AggStep { during, count, sum }),
                0..6,
            ),
            prop_oneof![Just(None), any::<i64>().prop_map(Some)],
        )
            .prop_map(|(steps, integral)| QueryOutput::Aggregate { steps, integral }),
    ]
}

fn explain_strategy() -> impl Strategy<Value = ExplainReport> {
    (
        "[a-zA-Z0-9 *=.]{0,40}".prop_map(String::from),
        proptest::collection::vec(
            (
                "[A-Za-z]{1,12}".prop_map(String::from),
                "[a-z0-9 =<>.]{0,24}".prop_map(String::from),
                0u64..10_000,
                0u64..10_000,
                0u64..10_000,
                0u64..6,
                prop_oneof![Just(None), (0u64..10_000).prop_map(Some)],
            )
                .prop_map(
                    |(name, detail, rows, elapsed_us, pages_read, depth, est_pages)| OpReport {
                        name,
                        detail,
                        rows,
                        elapsed_us,
                        pages_read,
                        depth: depth as usize,
                        est_pages,
                    },
                ),
            0..5,
        ),
        0u64..1_000_000,
        0u64..100_000,
    )
        .prop_map(
            |(query, ops, total_elapsed_us, total_pages_read)| ExplainReport {
                query,
                ops,
                total_elapsed_us,
                total_pages_read,
            },
        )
}

fn output_strategy() -> impl Strategy<Value = StatementOutput> {
    prop_oneof![
        4 => query_output_strategy().prop_map(StatementOutput::Query),
        1 => explain_strategy().prop_map(StatementOutput::Explain),
        1 => (0u64..100).prop_map(|t| StatementOutput::TypeCreated(AtomTypeId(t as u32))),
        1 => (0u64..100).prop_map(|m| StatementOutput::MoleculeCreated(MoleculeTypeId(m as u32))),
        1 => (atom_id_strategy(), (0u64..1000).prop_map(TimePoint))
            .prop_map(|(a, tt)| StatementOutput::Inserted(a, tt)),
        1 => ((0u64..10_000).prop_map(|n| n as usize), (0u64..1000).prop_map(TimePoint))
            .prop_map(|(n, tt)| StatementOutput::Modified(n, tt)),
    ]
}

// ---- properties ----

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn output_roundtrip(out in output_strategy()) {
        let bytes = proto::enc_output(&out);
        let back = proto::dec_output(&bytes).expect("round-trip decode");
        prop_assert_eq!(back, out);
    }

    #[test]
    fn truncated_output_is_an_error_not_a_panic(out in output_strategy()) {
        let bytes = proto::enc_output(&out);
        for cut in 0..bytes.len() {
            prop_assert!(
                proto::dec_output(&bytes[..cut]).is_err(),
                "strict prefix of length {} must fail to decode", cut
            );
        }
    }

    #[test]
    fn ack_and_error_roundtrip(
        n in 0u64..100_000,
        tt in 0u64..100_000,
        atom in atom_id_strategy(),
        code in 1u8..4,
        msg in "[ -~]{0,60}",
    ) {
        for ack in [
            Ack::Done,
            Ack::Committed(TimePoint(tt)),
            Ack::PendingInsert(atom),
            Ack::PendingModified(n),
        ] {
            prop_assert_eq!(proto::dec_ack(&proto::enc_ack(&ack)).expect("ack"), ack);
        }
        let e = proto::dec_error(&proto::enc_error(code, &msg)).expect("error payload");
        prop_assert_eq!(e.code, code);
        prop_assert_eq!(e.message, msg);
    }

    #[test]
    fn handshake_payloads_roundtrip(
        session in 0u64..1_000_000,
        server in "[ -~]{0,40}",
        tt in 0u64..100_000,
        sql in "[ -~]{0,80}",
    ) {
        let (s2, srv2, t2) =
            proto::dec_hello_ok(&proto::enc_hello_ok(session, &server, TimePoint(tt)))
                .expect("hello_ok");
        prop_assert_eq!(s2, session);
        prop_assert_eq!(srv2, server);
        prop_assert_eq!(t2, TimePoint(tt));
        prop_assert_eq!(proto::dec_str(&proto::enc_str(&sql)).expect("str"), sql);
        prop_assert_eq!(proto::dec_hello(&proto::enc_hello(&sql)).expect("hello"), sql);
        prop_assert_eq!(proto::dec_u64(&proto::enc_u64(session)).expect("u64"), session);
        prop_assert_eq!(
            proto::dec_time(&proto::enc_time(TimePoint(tt))).expect("time"),
            TimePoint(tt)
        );
    }

    #[test]
    fn trailing_garbage_rejected(out in output_strategy(), junk in 1usize..8) {
        let mut bytes = proto::enc_output(&out);
        bytes.extend(std::iter::repeat_n(0xAB, junk));
        prop_assert!(proto::dec_output(&bytes).is_err());
    }
}
