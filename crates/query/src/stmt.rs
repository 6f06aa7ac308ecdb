//! TQL statements: the [`Statement`] a source text parses to
//! ([`crate::parser::parse_statement`] holds the grammar) and its execution —
//! queries through the one read pipeline of [`crate::exec`], DDL against
//! the catalog, DML as transactions.
//!
//! DML semantics: `UPDATE … SET` takes every current valid-time slice
//! that satisfies the filter and overlaps the statement's valid extent,
//! replaces the listed attributes, and applies a bitemporal update over
//! the slice cut to that extent (default: the slice's own extent);
//! `DELETE` deletes over the same cuts. The slices are the rows of
//! `SELECT * FROM ty WHERE … VALID IN …` run inside the transaction
//! (`dml_targets`): a write finds its rows through the read planner and
//! its one candidate source, so an indexed predicate costs a probe, not a
//! scan of the type. One statement = one transaction.

use crate::ast::{Expr, Query, Targets, Valid};
use crate::exec::{prepare_query, ExecOptions, Prepared, QueryOutput, Row};
use crate::parser::parse_statement;
use tcom_catalog::AttrDef;
use tcom_core::{Database, Txn};
use tcom_kernel::{
    AtomId, AtomTypeId, AttrId, DataType, Error, Interval, MoleculeTypeId, Result, TimePoint,
    Tuple, Value,
};

/// A parsed TQL statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// `SELECT …` (delegated to [`crate::ast::Query`]).
    Select(crate::ast::Query),
    /// `EXPLAIN ANALYZE SELECT …` — execute and report per-operator
    /// rows / time / page-I/O.
    ExplainAnalyze(crate::ast::Query),
    /// `CREATE TYPE …`.
    CreateType {
        /// Type name.
        name: String,
        /// Attribute definitions (target types by *name*, resolved at
        /// execution).
        attrs: Vec<(String, TypeSpec, bool, bool)>, // (name, type, not_null, indexed)
    },
    /// `CREATE MOLECULE …`.
    CreateMolecule {
        /// Molecule name.
        name: String,
        /// Root type name.
        root: String,
        /// Edges as `(from type, attr name, to type)`.
        edges: Vec<(String, String, String)>,
        /// Optional depth bound.
        depth: Option<u32>,
    },
    /// `INSERT INTO …`.
    Insert {
        /// Target type name.
        ty: String,
        /// Named attributes (unlisted ones become NULL).
        attrs: Vec<String>,
        /// Values, positionally matching `attrs`.
        values: Vec<Value>,
        /// Valid extent (default: all time).
        valid: Option<(TimePoint, Option<TimePoint>)>,
    },
    /// `UPDATE … SET …`, optionally `UPDATE … CLAIM SET …`.
    Update {
        /// Target type name.
        ty: String,
        /// `(attr, new value)` assignments.
        sets: Vec<(String, Value)>,
        /// Predicate over current tuples.
        filter: Option<Expr>,
        /// Valid extent; `None` = each qualifying slice's own extent.
        valid: Option<(TimePoint, Option<TimePoint>)>,
        /// Row-claim semantics: update only the *oldest* qualifying row
        /// (by atom number), under the type's commit stripe — the queue
        /// consumer's claim-and-close idiom.
        claim: bool,
    },
    /// `DELETE FROM …`.
    Delete {
        /// Target type name.
        ty: String,
        /// Predicate over current tuples.
        filter: Option<Expr>,
        /// Valid extent; `None` = each qualifying slice's own extent.
        valid: Option<(TimePoint, Option<TimePoint>)>,
    },
}

impl Statement {
    /// Splits a `SELECT` / `EXPLAIN ANALYZE SELECT` into its query and
    /// whether the `EXPLAIN ANALYZE` report is the answer; every other
    /// kind comes back unchanged (by value: boxing it would allocate on
    /// every DML statement).
    #[allow(clippy::result_large_err)]
    pub fn into_query(self) -> std::result::Result<(crate::ast::Query, bool), Statement> {
        match self {
            Statement::Select(q) => Ok((q, false)),
            Statement::ExplainAnalyze(q) => Ok((q, true)),
            other => Err(other),
        }
    }
}

/// Attribute type syntax (type names resolved at execution time so that a
/// statement can reference the type it creates).
#[derive(Clone, Debug, PartialEq)]
pub enum TypeSpec {
    /// Scalar type.
    Scalar(DataType),
    /// `REF(name)`.
    Ref(String),
    /// `REFSET(name)`.
    RefSet(String),
}

/// Result of executing a statement.
#[derive(Clone, Debug, PartialEq)]
pub enum StatementOutput {
    /// Query results.
    Query(QueryOutput),
    /// `EXPLAIN ANALYZE` results: the executed, annotated operator tree.
    Explain(crate::exec::ExplainReport),
    /// A new atom type.
    TypeCreated(AtomTypeId),
    /// A new molecule type.
    MoleculeCreated(MoleculeTypeId),
    /// DML: the new atom (for INSERT) and the commit transaction time.
    Inserted(AtomId, TimePoint),
    /// DML: number of atoms modified and the commit transaction time.
    Modified(usize, TimePoint),
}

/// Parses and executes one statement against `db`.
pub fn run_statement(db: &Database, src: &str) -> Result<StatementOutput> {
    run_parsed(db, parse_statement(src)?)
}

/// Runs a planned query as a statement — inside `txn` when one is open,
/// with read-your-writes (DESIGN §13.2 states the overlay's scope) — and
/// answers with its rows, or for `EXPLAIN ANALYZE` with the run's rendered
/// stage record.
pub fn run_prepared(
    db: &Database,
    txn: Option<&Txn<'_>>,
    plan: &Prepared,
    explain: bool,
) -> Result<StatementOutput> {
    let (out, record) = plan.execute(db, txn)?;
    Ok(if explain {
        StatementOutput::Explain(plan.report(&record))
    } else {
        StatementOutput::Query(out)
    })
}

/// Plans and runs a `SELECT` / `EXPLAIN ANALYZE SELECT` statement, inside
/// `txn` when one is open. Any other statement kind is rejected — DML goes
/// through [`apply_statement`], DDL is not allowed in a transaction.
pub fn run_query(db: &Database, txn: Option<&Txn<'_>>, stmt: Statement) -> Result<StatementOutput> {
    let (q, explain) = stmt.into_query().map_err(|other| {
        Error::unsupported(format!(
            "run_query takes SELECT or EXPLAIN ANALYZE, not {}",
            statement_kind(&other)
        ))
    })?;
    let plan = prepare_query(db, q, ExecOptions::default())?;
    run_prepared(db, txn, &plan, explain)
}

/// Executes an already-parsed statement against `db` (auto-commit: DML
/// statements each run in their own transaction). This is the execution
/// path behind [`run_statement`] and the server's statement cache, which
/// parses once and executes many times.
pub fn run_parsed(db: &Database, stmt: Statement) -> Result<StatementOutput> {
    match stmt {
        Statement::Select(_) | Statement::ExplainAnalyze(_) => run_query(db, None, stmt),
        Statement::CreateType { name, attrs } => {
            let mut defs = Vec::with_capacity(attrs.len());
            for (aname, spec, not_null, indexed) in attrs {
                let ty = match spec {
                    TypeSpec::Scalar(t) => t,
                    TypeSpec::Ref(target) => DataType::Ref(resolve_type(db, &target, &name)?),
                    TypeSpec::RefSet(target) => DataType::RefSet(resolve_type(db, &target, &name)?),
                };
                let mut d = AttrDef::new(aname, ty);
                if not_null {
                    d = d.not_null();
                }
                if indexed {
                    d = d.indexed();
                }
                defs.push(d);
            }
            Ok(StatementOutput::TypeCreated(
                db.define_atom_type(name, defs)?,
            ))
        }
        Statement::CreateMolecule {
            name,
            root,
            edges,
            depth,
        } => {
            let root_id = db.atom_type_id(&root)?;
            let mut medges = Vec::with_capacity(edges.len());
            for (from, attr, to) in edges {
                let from_id = db.atom_type_id(&from)?;
                let to_id = db.atom_type_id(&to)?;
                let attr_id = db.with_catalog(|c| -> Result<AttrId> {
                    c.atom_type(from_id)?
                        .attr_by_name(&attr)
                        .map(|(id, _)| id)
                        .ok_or_else(|| Error::query(format!("unknown attribute '{from}.{attr}'")))
                })?;
                medges.push(tcom_catalog::MoleculeEdge {
                    from: from_id,
                    attr: attr_id,
                    to: to_id,
                });
            }
            Ok(StatementOutput::MoleculeCreated(
                db.define_molecule_type(name, root_id, medges, depth)?,
            ))
        }
        dml => {
            // DML: one statement = one transaction.
            let mut txn = db.begin();
            let applied = apply_statement(db, &mut txn, dml)?;
            let tt = txn.commit()?;
            Ok(match applied {
                StatementApply::Inserted(atom) => StatementOutput::Inserted(atom, tt),
                StatementApply::Modified(n) => StatementOutput::Modified(n, tt),
            })
        }
    }
}

/// The effect of one DML statement applied inside a still-open
/// transaction. The commit transaction time does not exist yet; callers
/// that need it (auto-commit, the server's COMMIT frame) take it from
/// [`Txn::commit`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StatementApply {
    /// INSERT: the new atom.
    Inserted(AtomId),
    /// UPDATE / DELETE: number of atoms modified.
    Modified(usize),
}

/// Applies one DML statement to an open transaction without committing.
///
/// This is the building block for multi-statement transactions (the
/// server's BEGIN … COMMIT sessions): effects buffer in `txn` and later
/// statements see them (read-your-writes), including atoms the
/// transaction created. Only `INSERT`, `UPDATE` and `DELETE` are
/// transactional; queries and DDL are rejected here.
pub fn apply_statement(
    db: &Database,
    txn: &mut Txn<'_>,
    stmt: Statement,
) -> Result<StatementApply> {
    match stmt {
        Statement::Insert {
            ty,
            attrs,
            values,
            valid,
        } => {
            let ty_id = db.atom_type_id(&ty)?;
            let def = db.with_catalog(|c| c.atom_type(ty_id).cloned())?;
            let mut tuple = Tuple::new(vec![Value::Null; def.arity()]);
            for (name, value) in attrs.iter().zip(values) {
                let (id, _) = def
                    .attr_by_name(name)
                    .ok_or_else(|| Error::query(format!("unknown attribute '{ty}.{name}'")))?;
                tuple.set(id.0 as usize, value);
            }
            let vt = valid_to_interval(valid)?;
            let atom = txn.insert_atom(ty_id, vt, tuple)?;
            Ok(StatementApply::Inserted(atom))
        }
        Statement::Update {
            ty,
            sets,
            filter,
            valid,
            claim,
        } => {
            let ty_id = db.atom_type_id(&ty)?;
            let def = db.with_catalog(|c| c.atom_type(ty_id).cloned())?;
            let mut resolved = Vec::with_capacity(sets.len());
            for (name, value) in &sets {
                let (id, _) = def
                    .attr_by_name(name)
                    .ok_or_else(|| Error::query(format!("unknown attribute '{ty}.{name}'")))?;
                resolved.push((id, value.clone()));
            }
            // CLAIM rewrites only the oldest qualifying row (ascending atom
            // number) live at the VALID clause's start (default 0), over
            // that version's whole valid time: `VALID AT` filters slices
            // without clipping them.
            let (valid, limit) = if claim {
                let at = valid.map_or(TimePoint(0), |(a, _)| a);
                (Valid::At(at), Some(1))
            } else {
                (valid_window(valid)?, None)
            };
            let mut atoms_touched = std::collections::HashSet::new();
            for Row {
                atom, values, vt, ..
            } in dml_targets(db, txn, ty, filter, valid, limit)?
            {
                let mut tuple = Tuple::new(values);
                for (id, value) in &resolved {
                    tuple.set(id.0 as usize, value.clone());
                }
                txn.update(atom, vt, tuple)?;
                atoms_touched.insert(atom);
            }
            Ok(StatementApply::Modified(atoms_touched.len()))
        }
        Statement::Delete { ty, filter, valid } => {
            let mut atoms_touched = std::collections::HashSet::new();
            let valid = valid_window(valid)?;
            for Row { atom, vt, .. } in dml_targets(db, txn, ty, filter, valid, None)? {
                txn.delete(atom, vt)?;
                atoms_touched.insert(atom);
            }
            Ok(StatementApply::Modified(atoms_touched.len()))
        }
        other => Err(Error::unsupported(format!(
            "only INSERT, UPDATE and DELETE run inside an open transaction, not {}",
            statement_kind(&other)
        ))),
    }
}

/// Human-readable statement kind, for error messages.
pub fn statement_kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Select(_) => "SELECT",
        Statement::ExplainAnalyze(_) => "EXPLAIN ANALYZE",
        Statement::CreateType { .. } => "CREATE TYPE",
        Statement::CreateMolecule { .. } => "CREATE MOLECULE",
        Statement::Insert { .. } => "INSERT",
        Statement::Update { .. } => "UPDATE",
        Statement::Delete { .. } => "DELETE",
    }
}

/// Resolves a type name, allowing self-reference within `CREATE TYPE`:
/// referencing the type being created yields the id it *will* get.
fn resolve_type(db: &Database, target: &str, creating: &str) -> Result<AtomTypeId> {
    if target == creating {
        // The new type's id is the next catalog slot.
        return Ok(AtomTypeId(db.with_catalog(|c| c.atom_types().len()) as u32));
    }
    db.atom_type_id(target)
}

fn valid_to_interval(valid: Option<(TimePoint, Option<TimePoint>)>) -> Result<Interval> {
    Ok(match valid {
        None => Interval::all(),
        Some((a, None)) => Interval::from_start(a),
        Some((a, Some(b))) => {
            Interval::new(a, b).ok_or_else(|| Error::query("empty VALID window"))?
        }
    })
}

/// An `UPDATE` / `DELETE` extent as a read clause: `VALID IN` the
/// window, or every slice without one.
fn valid_window(valid: Option<(TimePoint, Option<TimePoint>)>) -> Result<Valid> {
    Ok(match valid {
        None => Valid::Any,
        Some(_) => {
            let w = valid_to_interval(valid)?;
            Valid::In(w.start(), w.end())
        }
    })
}

/// The rows an `UPDATE` / `DELETE` rewrites: `SELECT * FROM ty WHERE
/// filter <valid> LIMIT <limit>`, planned by the read planner and run
/// inside `txn` (read-your-writes), so each row is one qualifying current
/// slice of one atom, its valid time cut to a `VALID IN` window, in
/// ascending (atom, valid time) order. Only these rows' atoms enter the
/// overlay, when the caller writes them.
///
/// The type's commit stripe is taken before the candidates are
/// enumerated, so the enumeration sees every commit ordered before this
/// transaction — and, the stripe held, no later one can change what it
/// saw. Concurrent claimers of one type therefore serialize and never
/// claim the same row.
fn dml_targets(
    db: &Database,
    txn: &mut Txn<'_>,
    ty: String,
    filter: Option<Expr>,
    valid: Valid,
    limit: Option<usize>,
) -> Result<Vec<Row>> {
    let query = Query {
        targets: Targets::All,
        source: ty,
        alias: None,
        join: None,
        filter,
        asof_tt: None,
        valid,
        limit,
    };
    txn.lock_type(db.atom_type_id(&query.source)?)?;
    let plan = prepare_query(db, query, ExecOptions::default())?;
    match plan.execute(db, Some(txn))?.0 {
        QueryOutput::Rows { rows, .. } => Ok(rows),
        _ => Err(Error::internal("a row query answered with another shape")),
    }
}
