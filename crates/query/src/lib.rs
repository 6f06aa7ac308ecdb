//! # tcom-query
//!
//! TQL — the declarative temporal query language of the tcom engine:
//! lexer, recursive-descent parser ([`parser`] / [`ast`]),
//! semantic analysis, access-path planning and execution ([`exec`]).
//!
//! ```text
//! SELECT e.name, e.salary FROM emp e
//! WHERE e.salary >= 100 AND NOT e.name = 'bob'
//! ASOF TT 5            -- transaction-time travel
//! VALID IN [10, 20)    -- valid-time window (results clipped)
//! LIMIT 50
//! ```
//!
//! `SELECT MOLECULE FROM <molecule-type> WHERE root.<attr> ...` returns
//! materialized complex objects; `SELECT HISTORY FROM <type> ...` returns
//! version histories of qualifying atoms. The temporal operators:
//! `SELECT * FROM a JOIN b ON a.x = b.y` (temporal equi-join on
//! overlapping valid/transaction time), `SELECT COALESCE …` (valid-time
//! period normalization), and `SELECT COUNT(*) | SUM(a) | INTEGRAL(a)`
//! (valid-time aggregation). `ASOF TT` access paths are priced by the
//! statistics-fed cost model.

#![warn(missing_docs)]

pub mod ast;
mod cost;
pub mod exec;
pub mod parser;
pub mod stmt;
mod token;

pub use exec::{
    execute, execute_with, explain_analyze, explain_analyze_with, prepare, prepare_query,
    prepare_with, AccessPath, ExecOptions, ExplainReport, OpReport, Prepared, QueryOutput, Row,
};
pub use parser::{parse, parse_statement};
pub use stmt::{
    apply_statement, run_parsed, run_prepared, run_query, run_statement, statement_kind, Statement,
    StatementApply, StatementOutput,
};
