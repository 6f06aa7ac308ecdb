//! Parser round-trip property tests: generate random query ASTs, pretty-
//! print them, re-parse, and assert the parse equals the original AST —
//! for `SELECT`, `UPDATE` and `DELETE` alike, all three drawing their
//! `WHERE` clause from one generator (one grammar parses it). Also covers
//! the `EXPLAIN ANALYZE` prefix and tokenizer edge cases (adjacent
//! temporal keywords, quoted identifiers).

use proptest::collection::vec;
use proptest::prelude::*;
use tcom_kernel::{AtomId, AtomNo, AtomTypeId, TimePoint, Value};
use tcom_query::ast::{AggFunc, CmpOp, Expr, JoinClause, Operand, Proj, Query, Targets, Valid};
use tcom_query::{parse, parse_statement, Statement};

// ---- strategies -----------------------------------------------------------

/// Identifiers: mostly plain lowercase names, sometimes keyword collisions
/// or names with spaces/quotes/digits — the latter two force the pretty-
/// printer down the double-quoting path.
fn ident() -> BoxedStrategy<String> {
    prop_oneof![
        6 => "[a-z]{1,8}",
        1 => Just("where".to_string()),
        1 => Just("SELECT".to_string()),
        1 => Just("Valid".to_string()),
        1 => Just("tt".to_string()),
        1 => Just("join".to_string()),
        1 => Just("on".to_string()),
        1 => Just("coalesce".to_string()),
        1 => Just("count".to_string()),
        1 => Just("sum".to_string()),
        1 => "[a-z \"0-9]{1,6}",
    ]
    .boxed()
}

fn atom_ref() -> BoxedStrategy<AtomId> {
    (0u32..8, 0u64..1000)
        .prop_map(|(ty, no)| AtomId::new(AtomTypeId(ty), AtomNo(no)))
        .boxed()
}

/// Literals the grammar can express (everything but Bytes), reference and
/// reference-set literals included.
fn lit() -> BoxedStrategy<Value> {
    prop_oneof![
        1 => Just(Value::Null),
        1 => any::<bool>().prop_map(Value::Bool),
        3 => (-10_000i64..10_000).prop_map(Value::Int),
        2 => (-80_000i64..80_000).prop_map(|i| Value::Float(i as f64 / 8.0)),
        2 => "[a-z ']{0,6}".prop_map(Value::Text),
        1 => atom_ref().prop_map(Value::Ref),
        1 => vec(atom_ref(), 0..4).prop_map(Value::ref_set),
    ]
    .boxed()
}

fn operand() -> BoxedStrategy<Operand> {
    prop_oneof![
        2 => lit().prop_map(Operand::Lit),
        2 => ident().prop_map(|attr| Operand::Attr { qualifier: None, attr }),
        1 => (ident(), ident()).prop_map(|(q, attr)| Operand::Attr {
            qualifier: Some(q),
            attr,
        }),
    ]
    .boxed()
}

fn cmp_op() -> BoxedStrategy<CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
    .boxed()
}

fn expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        3 => (operand(), cmp_op(), operand()).prop_map(|(l, op, r)| Expr::Cmp(l, op, r)),
        1 => (operand(), any::<bool>()).prop_map(|(o, neg)| Expr::IsNull(o, neg)),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    prop_oneof![
        3 => leaf,
        1 => (expr(depth - 1), expr(depth - 1))
            .prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
        1 => (expr(depth - 1), expr(depth - 1))
            .prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
        1 => expr(depth - 1).prop_map(|e| Expr::Not(Box::new(e))),
    ]
    .boxed()
}

fn proj() -> BoxedStrategy<Proj> {
    prop_oneof![
        2 => ident().prop_map(|attr| Proj { qualifier: None, attr }),
        1 => (ident(), ident()).prop_map(|(q, attr)| Proj {
            qualifier: Some(q),
            attr,
        }),
    ]
    .boxed()
}

fn targets() -> BoxedStrategy<Targets> {
    prop_oneof![
        3 => Just(Targets::All),
        1 => Just(Targets::Molecule),
        1 => Just(Targets::History),
        3 => vec(proj(), 1..4).prop_map(Targets::Projs),
        1 => Just(Targets::Coalesce(Vec::new())),
        1 => vec(proj(), 1..4).prop_map(Targets::Coalesce),
        1 => Just(Targets::Aggregate { func: AggFunc::Count, attr: None }),
        1 => proj().prop_map(|p| Targets::Aggregate {
            func: AggFunc::Sum,
            attr: Some(p),
        }),
        1 => proj().prop_map(|p| Targets::Aggregate {
            func: AggFunc::Integral,
            attr: Some(p),
        }),
    ]
    .boxed()
}

fn join() -> BoxedStrategy<Option<JoinClause>> {
    let alias = prop_oneof![1 => Just(None), 1 => ident().prop_map(Some)];
    prop_oneof![
        3 => Just(None),
        1 => (ident(), alias, proj(), proj()).prop_map(|(source, alias, on_left, on_right)| {
            Some(JoinClause { source, alias, on_left, on_right })
        }),
    ]
    .boxed()
}

fn valid() -> BoxedStrategy<Valid> {
    prop_oneof![
        2 => Just(Valid::Any),
        1 => (0u64..1000).prop_map(|t| Valid::At(TimePoint(t))),
        1 => (0u64..1000, 1u64..1000)
            .prop_map(|(a, d)| Valid::In(TimePoint(a), TimePoint(a + d))),
    ]
    .boxed()
}

fn query() -> BoxedStrategy<Query> {
    let alias = prop_oneof![1 => Just(None), 1 => ident().prop_map(Some)];
    let asof = prop_oneof![2 => Just(None), 1 => (0u64..1000).prop_map(|t| Some(TimePoint(t)))];
    let limit = prop_oneof![2 => Just(None), 1 => (0usize..500).prop_map(Some)];
    (
        targets(),
        ident(),
        alias,
        join(),
        filter(),
        asof,
        valid(),
        limit,
    )
        .prop_map(
            |(targets, source, alias, join, filter, asof_tt, valid, limit)| Query {
                targets,
                source,
                alias,
                join,
                filter,
                asof_tt,
                valid,
                limit,
            },
        )
        .boxed()
}

/// The `WHERE` clause of every statement kind.
fn filter() -> BoxedStrategy<Option<Expr>> {
    prop_oneof![1 => Just(None), 2 => expr(3).prop_map(Some)].boxed()
}

/// A DML valid extent with its TQL rendering.
type Extent = Option<(TimePoint, Option<TimePoint>)>;

fn extent() -> BoxedStrategy<(Extent, String)> {
    prop_oneof![
        2 => Just((None, String::new())),
        1 => (0u64..1000).prop_map(|a| (Some((TimePoint(a), None)), format!(" VALID FROM {a}"))),
        1 => (0u64..1000, 1u64..1000).prop_map(|(a, d)| (
            Some((TimePoint(a), Some(TimePoint(a + d)))),
            format!(" VALID IN [{a}, {})", a + d),
        )),
    ]
    .boxed()
}

fn where_text(filter: &Option<Expr>) -> String {
    filter
        .as_ref()
        .map_or(String::new(), |e| format!(" WHERE {e}"))
}

// ---- properties -----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// print → parse is the identity on ASTs.
    #[test]
    fn pretty_print_reparses(q in query()) {
        let text = q.to_string();
        let reparsed = parse(&text);
        prop_assert!(reparsed.is_ok(), "failed to re-parse {text:?}: {reparsed:?}");
        prop_assert_eq!(&reparsed.unwrap(), &q, "round trip diverged for {}", text);
    }

    /// `UPDATE` parses its `WHERE` with the grammar `SELECT` uses: the
    /// same generated predicate, printed, re-parses to the same AST.
    #[test]
    fn update_where_reparses(
        sets in vec(("[a-z]{1,8}", lit()), 1..3),
        filter in filter(),
        extent in extent(),
        claim in any::<bool>(),
    ) {
        let (valid, valid_text) = extent;
        let assignments: Vec<String> = sets
            .iter()
            .map(|(a, v)| format!("x{a} = {}", Operand::Lit(v.clone())))
            .collect();
        let text = format!(
            "UPDATE emp{} SET {}{}{valid_text}",
            if claim { " CLAIM" } else { "" },
            assignments.join(", "),
            where_text(&filter),
        );
        let expected = Statement::Update {
            ty: "emp".into(),
            sets: sets.into_iter().map(|(a, v)| (format!("x{a}"), v)).collect(),
            filter,
            valid,
            claim,
        };
        let parsed = parse_statement(&text);
        prop_assert!(parsed.is_ok(), "failed to parse {text:?}: {parsed:?}");
        prop_assert_eq!(parsed.unwrap(), expected, "round trip diverged for {}", text);
    }

    /// And so does `DELETE`.
    #[test]
    fn delete_where_reparses(filter in filter(), extent in extent()) {
        let (valid, valid_text) = extent;
        let text = format!("DELETE FROM emp{}{valid_text}", where_text(&filter));
        let expected = Statement::Delete { ty: "emp".into(), filter, valid };
        let parsed = parse_statement(&text);
        prop_assert!(parsed.is_ok(), "failed to parse {text:?}: {parsed:?}");
        prop_assert_eq!(parsed.unwrap(), expected, "round trip diverged for {}", text);
    }

    /// The `EXPLAIN ANALYZE` prefix is recognized (any case) and strips to
    /// the same query; without the prefix the statement is a plain SELECT.
    #[test]
    fn explain_prefix_roundtrip(q in query(), upper in any::<bool>()) {
        let text = q.to_string();
        let prefix = if upper { "EXPLAIN ANALYZE" } else { "explain analyze" };
        let explained = parse_statement(&format!("{prefix} {text}")).unwrap();
        prop_assert_eq!(explained, Statement::ExplainAnalyze(q.clone()));
        prop_assert_eq!(parse_statement(&text).unwrap(), Statement::Select(q));
    }
}

// ---- deterministic edge cases --------------------------------------------

#[test]
fn explain_requires_analyze() {
    assert!(parse_statement("EXPLAIN SELECT * FROM emp").is_err());
    assert!(parse_statement("EXPLAIN ANALYZE").is_err());
    // EXPLAIN is not reserved: usable as a plain identifier.
    let Statement::Select(q) = parse_statement("SELECT * FROM explain").unwrap() else {
        panic!("a plain SELECT")
    };
    assert_eq!(q.source, "explain");
    // Double prefix is not valid (ANALYZE must be followed by SELECT).
    assert!(parse_statement("EXPLAIN ANALYZE EXPLAIN ANALYZE SELECT * FROM t").is_err());
    // Only SELECT can be explained.
    assert!(parse_statement("EXPLAIN ANALYZE DELETE FROM emp").is_err());
}

/// `SELECT` accepts the reference literals `UPDATE`/`DELETE` always did.
#[test]
fn select_accepts_reference_literals() {
    let q = parse("SELECT * FROM emp WHERE boss = @2.17 OR team = {@3.1, @3.5}").unwrap();
    assert_eq!(parse(&q.to_string()).unwrap(), q);
}

#[test]
fn adjacent_temporal_keywords() {
    // Every temporal clause back-to-back, minimal whitespace variations.
    let q = parse("SELECT * FROM emp ASOF TT 5 VALID AT 3 LIMIT 2").unwrap();
    assert_eq!(q.asof_tt, Some(TimePoint(5)));
    assert_eq!(q.valid, Valid::At(TimePoint(3)));
    assert_eq!(q.limit, Some(2));
    // Clause order is free.
    let q2 = parse("SELECT * FROM emp LIMIT 2 VALID AT 3 ASOF TT 5").unwrap();
    assert_eq!(q2, q);
    // VALID IN with both bracket styles.
    let a = parse("SELECT * FROM emp VALID IN [1, 4) ASOF TT 9").unwrap();
    let b = parse("SELECT * FROM emp VALID IN [1, 4] ASOF TT 9").unwrap();
    assert_eq!(a, b);
    // Keyword-shaped identifiers must be quoted to survive.
    assert!(parse("SELECT * FROM valid").is_err());
    assert_eq!(parse("SELECT * FROM \"valid\"").unwrap().source, "valid");
}

#[test]
fn quoted_identifier_edge_cases() {
    // Embedded escaped quotes and spaces round-trip through the printer.
    for name in [r#"a"b"#, "two words", "9starts_with_digit", "SELECT"] {
        let q = Query {
            targets: Targets::All,
            source: name.to_string(),
            alias: None,
            join: None,
            filter: None,
            asof_tt: None,
            valid: Valid::Any,
            limit: None,
        };
        let text = q.to_string();
        assert_eq!(parse(&text).unwrap(), q, "failed for {text:?}");
    }
    // Unterminated / empty quoted identifiers are lex errors.
    assert!(parse("SELECT * FROM \"unterminated").is_err());
    assert!(parse("SELECT * FROM \"\"").is_err());
}
