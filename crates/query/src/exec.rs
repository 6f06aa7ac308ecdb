//! Semantic analysis, access-path planning and execution of TQL queries.

use crate::ast::{AggFunc, CmpOp, Expr, Operand, Proj, Query, Targets, Valid};
use std::cmp::Ordering;
use tcom_catalog::{AtomTypeDef, AttrDef};
use tcom_core::batch::{aggregate_batch, coalesce_batch, join_batches, value_integral, AggStep};
use tcom_core::{Database, Molecule, ReadView, Txn, VersionBatch};
use tcom_kernel::{AtomId, AttrId, DataType, Error, Interval, Result, TimePoint, Tuple, Value};
use tcom_storage::keys::{encode_float, encode_int, encode_text_prefix};
use tcom_version::record::AtomVersion;

/// Clamps a statement's `ASOF TT` point to the pinned view: `FOREVER` and
/// future points read the snapshot itself, so a commit that publishes
/// mid-statement can never leak into the result.
fn clamp_tt(t: TimePoint, view: &ReadView) -> TimePoint {
    if t.is_forever() || t > view.tt {
        view.tt
    } else {
        t
    }
}

/// One result row of an atom query.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// The atom the row came from.
    pub atom: AtomId,
    /// Projected values.
    pub values: Vec<Value>,
    /// Valid time of the contributing version (clipped to a `VALID IN`
    /// window when one was given).
    pub vt: Interval,
    /// Transaction time of the contributing version.
    pub tt: Interval,
}

/// The result of a query.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutput {
    /// `SELECT *` / projection queries.
    Rows {
        /// Column names, aligned with every row's values.
        columns: Vec<String>,
        /// The rows.
        rows: Vec<Row>,
    },
    /// `SELECT MOLECULE` queries.
    Molecules(Vec<Molecule>),
    /// `SELECT HISTORY` queries: per qualifying atom, its qualifying
    /// versions (newest first).
    Histories(Vec<(AtomId, Vec<AtomVersion>)>),
    /// `SELECT COUNT/SUM/INTEGRAL` queries: the aggregate's step function
    /// over valid time.
    Aggregate {
        /// Maximal constant intervals of the aggregate, ascending.
        steps: Vec<AggStep>,
        /// `∫ SUM(attr) d(vt)` for `INTEGRAL` queries; `None` otherwise.
        integral: Option<i64>,
    },
}

impl QueryOutput {
    /// Number of rows / molecules / histories / aggregate steps.
    pub fn len(&self) -> usize {
        match self {
            QueryOutput::Rows { rows, .. } => rows.len(),
            QueryOutput::Molecules(m) => m.len(),
            QueryOutput::Histories(h) => h.len(),
            QueryOutput::Aggregate { steps, .. } => steps.len(),
        }
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The chosen access path (exposed for EXPLAIN-style inspection and the
/// access-path experiments).
#[derive(Clone, Debug, PartialEq)]
pub enum AccessPath {
    /// Full scan over the atom directory.
    Scan,
    /// Value-index range probe on an indexed attribute
    /// (`[lo_enc, hi_enc]`, inclusive, order-preserving encoding).
    IndexRange {
        /// The probed attribute.
        attr: AttrId,
        /// Inclusive encoded lower bound.
        lo: u64,
        /// Inclusive encoded upper bound.
        hi: u64,
    },
    /// Transaction-time interval-index scan: the store's time index yields
    /// every atom visible at `tt` together with its versions, instead of
    /// walking each atom's chain.
    TimeSlice {
        /// The statement's `ASOF TT` point.
        tt: TimePoint,
    },
}

/// Per-statement plan hints. They are the only gate on the plan besides
/// the cost model: the access-path equivalence suites and the E7/E15/E18
/// experiments use the forced paths as references.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptions {
    /// Forbid index use (forces directory scans) — the E7 baseline.
    pub force_scan: bool,
    /// Forbid the transaction-time interval index for `ASOF TT` statements
    /// (forces per-atom chain walks).
    pub no_time_index: bool,
    /// Force the time-index slice for `ASOF TT` row queries even when the
    /// cost model prices the walk cheaper.
    pub force_time_index: bool,
}

/// One operator's measurements in an [`ExplainReport`].
///
/// Measurements are *exclusive*: each operator accounts only for the work
/// (elapsed time, buffer-pool misses) of its own stage, so summing over all
/// operators reproduces the statement-wide totals.
#[derive(Clone, Debug, PartialEq)]
pub struct OpReport {
    /// Operator name (`Select`, `Scan`, `IndexProbe`, `Materialize`, …).
    pub name: String,
    /// Human-readable operator parameters.
    pub detail: String,
    /// Rows (or candidates / molecules / histories) the operator produced.
    pub rows: u64,
    /// Wall-clock time spent in this operator's stage, microseconds.
    pub elapsed_us: u64,
    /// Buffer-pool misses (pages faulted in from disk or freshly created)
    /// during this operator's stage.
    pub pages_read: u64,
    /// Nesting depth in the rendered operator tree (root = 0).
    pub depth: usize,
    /// Cost-model page estimate for this operator, when the planner priced
    /// it (access operators of cost-priced `ASOF TT` statements).
    pub est_pages: Option<u64>,
}

/// The result of `EXPLAIN ANALYZE`: the executed operator tree with
/// per-operator row counts, timings and page-I/O, pre-order.
#[derive(Clone, Debug, PartialEq)]
pub struct ExplainReport {
    /// The query, pretty-printed from its AST.
    pub query: String,
    /// Operators in pre-order (parent before children).
    pub ops: Vec<OpReport>,
    /// Statement-wide wall-clock time, microseconds.
    pub total_elapsed_us: u64,
    /// Statement-wide buffer-pool miss delta. Single-threaded this equals
    /// the sum of the operators' `pages_read` (the differential suite
    /// asserts exactly that).
    pub total_pages_read: u64,
}

impl ExplainReport {
    /// Sum of the operators' page reads.
    pub fn pages_read(&self) -> u64 {
        self.ops.iter().map(|o| o.pages_read).sum()
    }

    /// Rows produced by the root operator (the statement's result size).
    pub fn root_rows(&self) -> u64 {
        self.ops.first().map_or(0, |o| o.rows)
    }

    /// Renders the annotated operator tree as indented text.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "EXPLAIN ANALYZE {}", self.query);
        for op in &self.ops {
            let _ = write!(out, "{:indent$}{}", "", op.name, indent = op.depth * 2);
            if !op.detail.is_empty() {
                let _ = write!(out, "({})", op.detail);
            }
            let _ = write!(
                out,
                "  rows={} time={}us pages={}",
                op.rows, op.elapsed_us, op.pages_read
            );
            if let Some(est) = op.est_pages {
                let _ = write!(out, " est={est}");
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(
            out,
            "total: time={}us pages={}",
            self.total_elapsed_us, self.total_pages_read
        );
        out
    }
}

/// What one stage of a run did. Plain integers, filled on every run: the
/// sampling is a clock read and a handful of relaxed counter loads.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Stage {
    /// Rows (candidates / versions / result items) the stage produced.
    rows: u64,
    /// Wall-clock time, microseconds.
    us: u64,
    /// Buffer-pool misses.
    pages: u64,
    /// Segments scanned / skipped on their fences. Only access stages
    /// carry these, and for a single-source statement they span the
    /// consumer too: the time slice merges archived versions while
    /// enumerating, the scan path while the consumer fetches — either way
    /// the reads belong to the statement's access of the type.
    segs_read: u64,
    segs_skipped: u64,
}

/// The record of one run: the access stage(s) in source order, then the
/// consumer. [`Prepared::report`] renders it as an [`ExplainReport`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RunRecord {
    /// One access stage per source (two for joins).
    access: [Stage; 2],
    consumer: Stage,
    total_us: u64,
}

/// Closes stages back to back from the start of the run, so their page
/// counts sum exactly to the run's pool-miss delta. Page attribution
/// relies on the statement running single-threaded; concurrent writers
/// would bleed their misses in.
struct Meter<'a> {
    db: &'a Database,
    t0: std::time::Instant,
    lap: std::time::Instant,
    misses: u64,
}

impl<'a> Meter<'a> {
    fn start(db: &'a Database) -> Meter<'a> {
        let t0 = std::time::Instant::now();
        Meter {
            db,
            t0,
            lap: t0,
            misses: db.buffer_stats().misses,
        }
    }

    /// Closes the stage running since the previous call.
    fn stage(&mut self, rows: usize) -> Stage {
        let (now, misses) = (std::time::Instant::now(), self.db.buffer_stats().misses);
        let stage = Stage {
            rows: rows as u64,
            us: (now - self.lap).as_micros() as u64,
            pages: misses - self.misses,
            ..Stage::default()
        };
        (self.lap, self.misses) = (now, misses);
        stage
    }

    /// A type's segment `(read, skipped)` counters, for before/after deltas.
    fn segs(&self, ty: tcom_kernel::AtomTypeId) -> (u64, u64) {
        self.db.segment_counters(ty).unwrap_or((0, 0))
    }
}

impl Stage {
    /// Attributes the segment-counter movement since `before` to this stage.
    fn with_segs(mut self, before: (u64, u64), after: (u64, u64)) -> Stage {
        self.segs_read = after.0.saturating_sub(before.0);
        self.segs_skipped = after.1.saturating_sub(before.1);
        self
    }
}

/// Output of the access-path stage: atom ids to fetch from, or — on the
/// time-index path — atoms with their visible-at-`tt` versions already in
/// hand (the index scan fetches them as a side effect, so fetching again
/// would double-count pages).
enum Candidates {
    /// Atom ids; versions are fetched per atom by the consuming stage.
    Atoms(Vec<AtomId>),
    /// Atoms with their visible versions, ascending atom number.
    Slice(Vec<(AtomId, Vec<AtomVersion>)>),
}

impl Candidates {
    fn len(&self) -> usize {
        match self {
            Candidates::Atoms(a) => a.len(),
            Candidates::Slice(s) => s.len(),
        }
    }

    /// Collapses to plain atom ids (molecule / history stages re-fetch).
    fn into_atoms(self) -> Vec<AtomId> {
        match self {
            Candidates::Atoms(a) => a,
            Candidates::Slice(s) => s.into_iter().map(|(a, _)| a).collect(),
        }
    }
}

/// Read-your-writes context for a query running inside an open
/// transaction: the transaction's overlay *replaces* the committed fetch
/// for every atom the transaction has written (including atoms it
/// created, which have no committed state at all); atoms it merely read
/// keep their committed versions and stamps. Overlay versions carry
/// a provisional transaction time of `[view.tt + 1, ∞)` — strictly after
/// everything the pinned snapshot can see, where the commit would land at
/// the earliest. [`Prepared::overlay_in_scope`] says which statements get
/// one.
struct Overlay<'a, 'db> {
    txn: &'a Txn<'db>,
    /// Provisional transaction-time stamp for overlay versions.
    tt: Interval,
}

impl Overlay<'_, '_> {
    /// The transaction's would-be current versions of `atom`, if written.
    fn versions(&self, atom: AtomId) -> Option<Vec<AtomVersion>> {
        self.txn.written_versions(atom).map(|vs| {
            vs.iter()
                .map(|cv| AtomVersion {
                    vt: cv.vt,
                    tt: self.tt,
                    tuple: cv.tuple.clone(),
                })
                .collect()
        })
    }
}

/// Capacity of the rows consumer's [`VersionBatch`].
const BATCH_ROWS: usize = 1024;

/// A fully analyzed, executable query.
pub struct Prepared {
    query: Query,
    /// Resolved targets (join queries flatten names to `alias.attr`).
    targets: Targets,
    /// Resolved filter (join queries flatten names to `alias.attr`).
    filter: Option<Expr>,
    /// The def row-stage evaluation runs against: the source type, or the
    /// two sides' attributes concatenated for join queries.
    type_def: AtomTypeDef,
    /// For molecule queries: the molecule type id; atoms otherwise.
    mol_type: Option<tcom_kernel::MoleculeTypeId>,
    /// For join queries: the resolved second side.
    join: Option<JoinInfo>,
    /// The chosen access path (the left side's, for joins).
    pub access: AccessPath,
    /// Cost-model page estimate of the chosen access path, when priced.
    pub est_pages: Option<u64>,
}

/// The analyzed right side of a join query.
struct JoinInfo {
    /// The left source's own def (`Prepared::type_def` holds the
    /// concatenated two-sided def).
    left_def: AtomTypeDef,
    right_def: AtomTypeDef,
    /// Join-key tuple positions per side.
    left_key: usize,
    right_key: usize,
    /// Access path and cost estimate for the right side.
    right_access: AccessPath,
    right_est: Option<u64>,
}

/// Parses, analyzes and plans a query against `db`'s catalog.
pub fn prepare(db: &Database, text: &str) -> Result<Prepared> {
    prepare_with(db, text, ExecOptions::default())
}

/// [`prepare`] with options.
pub fn prepare_with(db: &Database, text: &str, opts: ExecOptions) -> Result<Prepared> {
    let query = crate::parser::parse(text)?;
    prepare_query(db, query, opts)
}

/// Parses, plans and executes in one step.
pub fn execute(db: &Database, text: &str) -> Result<QueryOutput> {
    execute_with(db, text, ExecOptions::default())
}

/// [`execute`] with options.
pub fn execute_with(db: &Database, text: &str, opts: ExecOptions) -> Result<QueryOutput> {
    let p = prepare_with(db, text, opts)?;
    p.run(db)
}

/// Parses (accepting an optional `EXPLAIN ANALYZE` prefix), plans, executes
/// and measures in one step.
pub fn explain_analyze(db: &Database, text: &str) -> Result<(QueryOutput, ExplainReport)> {
    explain_analyze_with(db, text, ExecOptions::default())
}

/// [`explain_analyze`] with options (lets a harness measure the same
/// statement through both temporal access paths).
pub fn explain_analyze_with(
    db: &Database,
    text: &str,
    opts: ExecOptions,
) -> Result<(QueryOutput, ExplainReport)> {
    let (query, _) = crate::parser::parse_statement(text)?
        .into_query()
        .map_err(|_| Error::unsupported("EXPLAIN ANALYZE supports only SELECT statements"))?;
    prepare_query(db, query, opts)?.run_explain(db)
}

/// Analyzes and plans an already-parsed query against `db`'s catalog.
pub fn prepare_query(db: &Database, query: Query, opts: ExecOptions) -> Result<Prepared> {
    if query.join.is_some() {
        return analyze_join(db, query, opts);
    }
    // Resolve the source: molecule queries name a molecule type; everything
    // else names an atom type.
    let (type_def, mol_type) = if query.targets == Targets::Molecule {
        let (mol_id, root_ty) = db.with_catalog(|c| -> Result<_> {
            let m = c.molecule_type_by_name(&query.source)?;
            Ok((m.id, m.root))
        })?;
        let def = db.with_catalog(|c| c.atom_type(root_ty).cloned())?;
        (def, Some(mol_id))
    } else {
        let def = db.with_catalog(|c| c.atom_type_by_name(&query.source).cloned())?;
        (def, None)
    };
    if mol_type.is_some() && matches!(query.valid, Valid::In(_, _)) {
        return Err(Error::query(
            "molecule queries need a point valid time (VALID AT), not a window",
        ));
    }
    // Validate every attribute reference.
    let alias = query.alias.clone().unwrap_or_else(|| query.source.clone());
    let check_qualifier = |q: &Option<String>| -> Result<()> {
        match q {
            None => Ok(()),
            Some(q) if *q == alias || q == "root" => Ok(()),
            Some(q) => Err(Error::query(format!("unknown qualifier '{q}'"))),
        }
    };
    let check_attr = |name: &str| -> Result<AttrId> {
        type_def
            .attr_by_name(name)
            .map(|(id, _)| id)
            .ok_or_else(|| Error::query(format!("unknown attribute '{}.{name}'", type_def.name)))
    };
    match &query.targets {
        Targets::Projs(projs) | Targets::Coalesce(projs) => {
            for p in projs {
                check_qualifier(&p.qualifier)?;
                check_attr(&p.attr)?;
            }
        }
        Targets::Aggregate {
            func,
            attr: Some(p),
        } => {
            check_qualifier(&p.qualifier)?;
            let id = check_attr(&p.attr)?;
            let decl = &type_def.attrs[id.0 as usize].ty;
            if *decl != DataType::Int {
                return Err(Error::query(format!(
                    "{func} needs an INT attribute; '{}' is {decl:?}",
                    p.attr
                )));
            }
        }
        _ => {}
    }
    if let Some(filter) = &query.filter {
        validate_expr(filter, &check_qualifier, &check_attr)?;
    }

    // Access-path selection: an index probe is possible when the query
    // targets the *current* state (value indexes cover current versions
    // only — so time-travel and HISTORY queries must scan) and a top-level
    // AND conjunct compares an indexed attribute to an encodable literal.
    // Time-travel row queries (`ASOF TT`) are instead priced between the
    // chain walk and the store's transaction-time interval index.
    let mut access = AccessPath::Scan;
    if !opts.force_scan && query.asof_tt.is_none() && query.targets != Targets::History {
        if let Some(filter) = &query.filter {
            if let Some(path) = find_index_conjunct(filter, &type_def) {
                access = path;
            }
        }
    }
    let mut est_pages = None;
    if let Some(tt) = query.asof_tt {
        let row_like = matches!(
            query.targets,
            Targets::All | Targets::Projs(_) | Targets::Coalesce(_) | Targets::Aggregate { .. }
        );
        if row_like {
            (access, est_pages) = plan_asof(db, &type_def, tt, opts)?;
        }
    }
    Ok(Prepared {
        targets: query.targets.clone(),
        filter: query.filter.clone(),
        query,
        type_def,
        mol_type,
        join: None,
        access,
        est_pages,
    })
}

/// The one gate on an `ASOF TT` plan: a per-statement hint pins the path,
/// otherwise the cost model prices the chain walk against the time-index
/// slice from the type's statistics and takes the cheaper. Only priced
/// plans carry a page estimate.
fn plan_asof(
    db: &Database,
    def: &AtomTypeDef,
    tt: TimePoint,
    opts: ExecOptions,
) -> Result<(AccessPath, Option<u64>)> {
    if opts.force_scan || opts.no_time_index {
        return Ok((AccessPath::Scan, None));
    }
    if opts.force_time_index {
        return Ok((AccessPath::TimeSlice { tt }, None));
    }
    let costs = crate::cost::asof_costs(&db.type_stats(def.id)?, tt, db.now());
    let access = if costs.use_slice {
        AccessPath::TimeSlice { tt }
    } else {
        AccessPath::Scan
    };
    Ok((access, Some(costs.est_pages)))
}

/// Analysis of join queries: resolves both sides, concatenates their defs
/// under flattened `alias.attr` names, rewrites every attribute reference
/// to those names, and plans an access path per side.
fn analyze_join(db: &Database, query: Query, opts: ExecOptions) -> Result<Prepared> {
    let join = query.join.clone().expect("caller checked");
    if !matches!(query.targets, Targets::All | Targets::Projs(_)) {
        return Err(Error::query(
            "JOIN queries return rows: use * or a projection list",
        ));
    }
    let left_def = db.with_catalog(|c| c.atom_type_by_name(&query.source).cloned())?;
    let right_def = db.with_catalog(|c| c.atom_type_by_name(&join.source).cloned())?;
    let lalias = query.alias.clone().unwrap_or_else(|| query.source.clone());
    let ralias = join.alias.clone().unwrap_or_else(|| join.source.clone());
    if lalias == ralias {
        return Err(Error::query(format!(
            "both join sides are named '{lalias}'; alias one of them"
        )));
    }
    let key_pos = |p: &Proj, def: &AtomTypeDef, alias: &str| -> Result<usize> {
        match p.qualifier.as_deref() {
            Some(q) if q == alias => {}
            Some(q) => {
                return Err(Error::query(format!(
                    "ON key qualifier '{q}' does not name the {alias} side"
                )))
            }
            None => return Err(Error::query("join ON keys must be alias-qualified")),
        }
        def.attr_by_name(&p.attr)
            .map(|(id, _)| id.0 as usize)
            .ok_or_else(|| Error::query(format!("unknown attribute '{}.{}'", def.name, p.attr)))
    };
    let left_key = key_pos(&join.on_left, &left_def, &lalias)?;
    let right_key = key_pos(&join.on_right, &right_def, &ralias)?;

    // The def the row stage evaluates against: both sides' attributes
    // concatenated (left first — the order `join_batches` emits), names
    // flattened to "alias.attr". Value indexes don't apply across a join,
    // so the combined attributes are unindexed.
    let mut attrs = Vec::new();
    for (alias, def) in [(&lalias, &left_def), (&ralias, &right_def)] {
        for a in &def.attrs {
            attrs.push(AttrDef {
                name: format!("{alias}.{}", a.name),
                ty: a.ty,
                not_null: a.not_null,
                indexed: false,
            });
        }
    }
    let combined = AtomTypeDef {
        id: left_def.id,
        name: format!("{lalias}+{ralias}"),
        attrs,
    };

    // Rewrite every attribute reference to the flattened names. Either
    // side could own a bare name, so qualifiers are mandatory.
    let flatten = |p: &Proj| -> Result<Proj> {
        let q = p.qualifier.as_deref().ok_or_else(|| {
            Error::query(format!(
                "attribute '{}' must be alias-qualified in a join query",
                p.attr
            ))
        })?;
        if q != lalias && q != ralias {
            return Err(Error::query(format!("unknown qualifier '{q}'")));
        }
        let flat = format!("{q}.{}", p.attr);
        if combined.attr_by_name(&flat).is_none() {
            return Err(Error::query(format!("unknown attribute '{flat}'")));
        }
        Ok(Proj {
            qualifier: None,
            attr: flat,
        })
    };
    let targets = match &query.targets {
        Targets::All => Targets::All,
        Targets::Projs(ps) => Targets::Projs(ps.iter().map(&flatten).collect::<Result<Vec<_>>>()?),
        _ => unreachable!("checked above"),
    };
    let filter = query
        .filter
        .as_ref()
        .map(|f| flatten_expr(f, &flatten))
        .transpose()?;

    let ((access, est_pages), (right_access, right_est)) = match query.asof_tt {
        Some(tt) => (
            plan_asof(db, &left_def, tt, opts)?,
            plan_asof(db, &right_def, tt, opts)?,
        ),
        None => ((AccessPath::Scan, None), (AccessPath::Scan, None)),
    };
    Ok(Prepared {
        targets,
        filter,
        query,
        type_def: combined,
        mol_type: None,
        join: Some(JoinInfo {
            left_def,
            right_def,
            left_key,
            right_key,
            right_access,
            right_est,
        }),
        access,
        est_pages,
    })
}

/// Rewrites every attribute operand of `e` through `f` (join-name
/// flattening); `f` also validates the reference.
fn flatten_expr(e: &Expr, f: &impl Fn(&Proj) -> Result<Proj>) -> Result<Expr> {
    let operand = |o: &Operand| -> Result<Operand> {
        match o {
            Operand::Lit(v) => Ok(Operand::Lit(v.clone())),
            Operand::Attr { qualifier, attr } => {
                let p = f(&Proj {
                    qualifier: qualifier.clone(),
                    attr: attr.clone(),
                })?;
                Ok(Operand::Attr {
                    qualifier: None,
                    attr: p.attr,
                })
            }
        }
    };
    Ok(match e {
        Expr::Or(a, b) => Expr::Or(Box::new(flatten_expr(a, f)?), Box::new(flatten_expr(b, f)?)),
        Expr::And(a, b) => Expr::And(Box::new(flatten_expr(a, f)?), Box::new(flatten_expr(b, f)?)),
        Expr::Not(a) => Expr::Not(Box::new(flatten_expr(a, f)?)),
        Expr::Cmp(l, op, r) => Expr::Cmp(operand(l)?, *op, operand(r)?),
        Expr::IsNull(o, n) => Expr::IsNull(operand(o)?, *n),
    })
}

/// The candidate set of one atom type per an access path (join queries
/// enumerate two sides, so this is def-parameterized, not `self`-bound).
fn candidates_for(
    db: &Database,
    view: &ReadView,
    def: &AtomTypeDef,
    access: &AccessPath,
) -> Result<Candidates> {
    match access {
        AccessPath::Scan => db.all_atoms(def.id).map(Candidates::Atoms),
        AccessPath::IndexRange { attr, lo, hi } => Ok(Candidates::Atoms(
            db.index_range_inclusive(def.id, *attr, *lo, *hi)?,
        )),
        AccessPath::TimeSlice { tt } => {
            let ty = def.id;
            let tt = clamp_tt(*tt, view);
            let mut groups = Vec::new();
            db.slice_at(ty, tt, &mut |no, vs| {
                groups.push((AtomId::new(ty, no), vs));
                Ok(true)
            })?;
            Ok(Candidates::Slice(groups))
        }
    }
}

/// Renders one access stage. The segment counts are zero until the
/// compactor has run, in which case the detail string is byte-identical to
/// the un-tiered output.
fn access_op_report(
    access: &AccessPath,
    def: &AtomTypeDef,
    est_pages: Option<u64>,
    stage: &Stage,
) -> OpReport {
    let (name, mut detail) = match access {
        AccessPath::Scan => ("Scan", format!("type={}", def.name)),
        AccessPath::IndexRange { attr, lo, hi } => {
            let aname = def
                .attrs
                .get(attr.0 as usize)
                .map_or("?", |a| a.name.as_str());
            (
                "IndexProbe",
                format!("attr={}.{aname} range=[{lo}, {hi}]", def.name),
            )
        }
        AccessPath::TimeSlice { tt } => {
            let at = if tt.is_forever() {
                "FOREVER".to_string()
            } else {
                tt.0.to_string()
            };
            ("TimeSliceScan", format!("type={} tt={at}", def.name))
        }
    };
    if stage.segs_read > 0 || stage.segs_skipped > 0 {
        detail.push_str(&format!(
            ", segs read={} skipped={}",
            stage.segs_read, stage.segs_skipped
        ));
    }
    OpReport {
        name: name.to_string(),
        detail,
        rows: stage.rows,
        elapsed_us: stage.us,
        pages_read: stage.pages,
        depth: 1,
        est_pages,
    }
}

fn validate_expr(
    e: &Expr,
    check_q: &impl Fn(&Option<String>) -> Result<()>,
    check_a: &impl Fn(&str) -> Result<AttrId>,
) -> Result<()> {
    let check_operand = |o: &Operand| -> Result<()> {
        if let Operand::Attr { qualifier, attr } = o {
            check_q(qualifier)?;
            check_a(attr)?;
        }
        Ok(())
    };
    match e {
        Expr::Or(a, b) | Expr::And(a, b) => {
            validate_expr(a, check_q, check_a)?;
            validate_expr(b, check_q, check_a)
        }
        Expr::Not(a) => validate_expr(a, check_q, check_a),
        Expr::Cmp(l, _, r) => {
            check_operand(l)?;
            check_operand(r)
        }
        Expr::IsNull(o, _) => check_operand(o),
    }
}

/// Walks the top-level AND chain for an indexable conjunct.
fn find_index_conjunct(e: &Expr, ty: &AtomTypeDef) -> Option<AccessPath> {
    match e {
        Expr::And(a, b) => find_index_conjunct(a, ty).or_else(|| find_index_conjunct(b, ty)),
        Expr::Cmp(l, op, r) => {
            // Normalize to attr <op> literal.
            let (attr_name, op, lit) = match (l, r) {
                (Operand::Attr { attr, .. }, Operand::Lit(v)) => (attr, *op, v),
                (Operand::Lit(v), Operand::Attr { attr, .. }) => (attr, flip(*op), v),
                _ => return None,
            };
            let (attr, def) = ty.attr_by_name(attr_name)?;
            if !def.indexed {
                return None;
            }
            let (lo, hi) = probe_range(def.ty, op, lit)?;
            Some(AccessPath::IndexRange { attr, lo, hi })
        }
        _ => None,
    }
}

/// The inclusive encoded key range holding every value `v` of the declared
/// type `ty` with `v <op> lit`, or `None` when the index cannot answer
/// (the caller scans). The index is keyed by the *attribute's* encoding,
/// so the literal must encode in that type: an INT literal coerces for a
/// FLOAT attribute exactly as the filter's numeric comparison does; any
/// other mismatch scans. The range may over-approximate — the consumer
/// re-applies the filter — but never under-approximates.
fn probe_range(ty: DataType, op: CmpOp, lit: &Value) -> Option<(u64, u64)> {
    // `[eq_lo, eq_hi]` are the encodings of the values equal to the
    // literal; `strict` says whether stepping past them excludes only
    // those.
    let point = |enc: u64, strict: bool| (enc, enc, strict);
    let float = |f: f64| {
        if f == 0.0 {
            // The two zeroes compare equal but encode apart.
            (encode_float(-0.0), encode_float(0.0), true)
        } else {
            point(encode_float(f), true)
        }
    };
    let (eq_lo, eq_hi, strict) = match (ty, lit) {
        (DataType::Bool, Value::Bool(b)) => point(*b as u64, true),
        (DataType::Int, Value::Int(i)) => point(encode_int(*i), true),
        (DataType::Float, Value::Int(i)) => float(*i as f64),
        (DataType::Float, Value::Float(f)) => float(*f),
        // The 8-byte prefix encoding is not injective: strings on either
        // side of the literal can share its key.
        (DataType::Text, Value::Text(s)) => point(encode_text_prefix(s), false),
        _ => return None,
    };
    Some(match op {
        CmpOp::Eq => (eq_lo, eq_hi),
        CmpOp::Lt if strict => (0, eq_lo.checked_sub(1)?),
        CmpOp::Lt | CmpOp::Le => (0, eq_hi),
        CmpOp::Gt if strict => (eq_hi.checked_add(1)?, u64::MAX),
        CmpOp::Gt | CmpOp::Ge => (eq_lo, u64::MAX),
        CmpOp::Ne => return None,
    })
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

/// Three-valued predicate evaluation; a row qualifies iff `Some(true)`.
pub(crate) fn eval(e: &Expr, tuple: &Tuple, ty: &AtomTypeDef) -> Option<bool> {
    match e {
        Expr::Or(a, b) => match (eval(a, tuple, ty), eval(b, tuple, ty)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Expr::And(a, b) => match (eval(a, tuple, ty), eval(b, tuple, ty)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Expr::Not(a) => eval(a, tuple, ty).map(|b| !b),
        Expr::Cmp(l, op, r) => {
            let lv = operand_value(l, tuple, ty)?;
            let rv = operand_value(r, tuple, ty)?;
            match op {
                CmpOp::Eq => lv.eq_sql(&rv),
                CmpOp::Ne => lv.eq_sql(&rv).map(|b| !b),
                _ => {
                    let ord = lv.partial_cmp_sql(&rv)?;
                    Some(match op {
                        CmpOp::Lt => ord == Ordering::Less,
                        CmpOp::Le => ord != Ordering::Greater,
                        CmpOp::Gt => ord == Ordering::Greater,
                        CmpOp::Ge => ord != Ordering::Less,
                        _ => unreachable!(),
                    })
                }
            }
        }
        Expr::IsNull(o, negated) => {
            let v = match o {
                Operand::Lit(v) => v.clone(),
                Operand::Attr { attr, .. } => {
                    let (id, _) = ty.attr_by_name(attr)?;
                    tuple.get(id.0 as usize).clone()
                }
            };
            Some(v.is_null() != *negated)
        }
    }
}

/// Resolves an operand to a value; `None` propagates NULL/unknown.
fn operand_value(o: &Operand, tuple: &Tuple, ty: &AtomTypeDef) -> Option<Value> {
    match o {
        Operand::Lit(Value::Null) => None,
        Operand::Lit(v) => Some(v.clone()),
        Operand::Attr { attr, .. } => {
            let (id, _) = ty.attr_by_name(attr)?;
            let v = tuple.get(id.0 as usize);
            if v.is_null() {
                None
            } else {
                Some(v.clone())
            }
        }
    }
}

impl Prepared {
    /// Executes the prepared query.
    ///
    /// Every statement pins a [`ReadView`] (the published transaction-time
    /// clock) first and resolves all visibility against it, so execution
    /// never blocks on a committing writer and never observes a commit
    /// that publishes mid-statement.
    pub fn run(&self, db: &Database) -> Result<QueryOutput> {
        Ok(self.execute(db, None)?.0)
    }

    /// [`Prepared::run`], also rendering the run's stage record as an
    /// `EXPLAIN ANALYZE` report.
    pub(crate) fn run_explain(&self, db: &Database) -> Result<(QueryOutput, ExplainReport)> {
        let (out, record) = self.execute(db, None)?;
        Ok((out, self.report(&record)))
    }

    /// The overlay's scope (DESIGN §13.2): *current-state* row-shaped
    /// consumers. Time-travel queries read committed state by definition
    /// (the transaction has no transaction time yet); `HISTORY`,
    /// `MOLECULE` and join queries stay committed-only.
    fn overlay_in_scope(&self) -> bool {
        self.query.asof_tt.is_none()
            && self.join.is_none()
            && matches!(
                self.targets,
                Targets::All | Targets::Projs(_) | Targets::Coalesce(_) | Targets::Aggregate { .. }
            )
    }

    /// The one execution path: access stage(s), then one consumer, each
    /// closed into the run's stage record. `txn` supplies the overlay for
    /// statements in its scope; every other statement, and every run
    /// without a transaction, reads committed state at the pinned view.
    pub(crate) fn execute(
        &self,
        db: &Database,
        txn: Option<&Txn<'_>>,
    ) -> Result<(QueryOutput, RunRecord)> {
        let mut meter = Meter::start(db);
        let mut record = RunRecord::default();
        let view = db.pin_view(self.type_def.id);
        let ov = txn.filter(|_| self.overlay_in_scope()).map(|txn| Overlay {
            txn,
            tt: Interval::from_start(TimePoint(view.tt.0 + 1)),
        });
        let ov = ov.as_ref();
        let out = if let Some(j) = &self.join {
            // Each side's access stage fetches and clips its versions, so
            // the stage's rows are versions and its pages the side's I/O.
            let mut side = |def: &AtomTypeDef, access: &AccessPath| -> Result<_> {
                let segs = meter.segs(def.id);
                let candidates = candidates_for(db, &view, def, access)?;
                let batch = self.batch_from_candidates(db, &view, candidates, None)?;
                let stage = meter.stage(batch.len());
                Ok((batch, stage.with_segs(segs, meter.segs(def.id))))
            };
            let (left, left_stage) = side(&j.left_def, &self.access)?;
            let (right, right_stage) = side(&j.right_def, &j.right_access)?;
            record.access = [left_stage, right_stage];
            self.rows_from_batch(&join_batches(&left, &right, j.left_key, j.right_key))
        } else {
            let ty = self.type_def.id;
            let segs = meter.segs(ty);
            let candidates = self.candidates(db, &view, ov)?;
            let access = meter.stage(candidates.len());
            let out = match &self.targets {
                Targets::Molecule => {
                    self.molecules_from_candidates(db, &view, candidates.into_atoms())?
                }
                Targets::History => {
                    self.histories_from_candidates(db, &view, candidates.into_atoms())?
                }
                Targets::Coalesce(_) => self.coalesce_from_candidates(db, &view, candidates, ov)?,
                Targets::Aggregate { func, attr } => {
                    self.aggregate_from_candidates(db, &view, candidates, ov, *func, attr.as_ref())?
                }
                Targets::All | Targets::Projs(_) => {
                    self.rows_from_candidates(db, &view, candidates, ov)?
                }
            };
            record.access[0] = access.with_segs(segs, meter.segs(ty));
            out
        };
        record.consumer = meter.stage(out.len());
        record.total_us = meter.t0.elapsed().as_micros() as u64;
        Ok((out, record))
    }

    /// Renders a run's stage record as the `EXPLAIN ANALYZE` operator
    /// tree: the consumer at the root, the access stage(s) beneath it.
    pub(crate) fn report(&self, record: &RunRecord) -> ExplainReport {
        let filter_limit = |mut detail: String| {
            if let Some(f) = &self.filter {
                if !detail.is_empty() {
                    detail.push_str(", ");
                }
                detail.push_str(&format!("filter={f}"));
            }
            if let Some(n) = self.query.limit {
                if !detail.is_empty() {
                    detail.push_str(", ");
                }
                detail.push_str(&format!("limit={n}"));
            }
            detail
        };
        let (name, detail) = match (&self.query.join, &self.targets) {
            (Some(jc), _) => (
                "TemporalJoin",
                filter_limit(format!("on {} = {}", jc.on_left, jc.on_right)),
            ),
            (None, Targets::Molecule) => ("Materialize", format!("molecule={}", self.query.source)),
            (None, Targets::History) => ("History", format!("type={}", self.query.source)),
            (None, Targets::Coalesce(_)) => ("Coalesce", filter_limit(String::new())),
            (None, Targets::Aggregate { .. }) => {
                ("Aggregate", filter_limit(format!("agg={}", self.targets)))
            }
            (None, Targets::All | Targets::Projs(_)) => ("Select", filter_limit(String::new())),
        };
        let mut ops = vec![OpReport {
            name: name.to_string(),
            detail,
            rows: record.consumer.rows,
            elapsed_us: record.consumer.us,
            pages_read: record.consumer.pages,
            depth: 0,
            est_pages: None,
        }];
        let left_def = self.join.as_ref().map_or(&self.type_def, |j| &j.left_def);
        ops.push(access_op_report(
            &self.access,
            left_def,
            self.est_pages,
            &record.access[0],
        ));
        if let Some(j) = &self.join {
            ops.push(access_op_report(
                &j.right_access,
                &j.right_def,
                j.right_est,
                &record.access[1],
            ));
        }
        ExplainReport {
            query: self.query.to_string(),
            total_pages_read: ops.iter().map(|o| o.pages_read).sum(),
            ops,
            total_elapsed_us: record.total_us,
        }
    }

    /// The candidate set per the access path — the one target selection
    /// behind every statement, `SELECT` and the `UPDATE` / `DELETE` that
    /// run as one ([`crate::stmt`]). Over-approximation is fine: atoms
    /// committed after `view` fetch no visible versions downstream.
    ///
    /// An overlay adds the transaction's written atoms: atoms the
    /// transaction created are not in the committed directory, and atoms
    /// whose values it rewrote may be missed by a value-index probe keyed
    /// on committed values (the filter re-applies on overlay tuples, so
    /// false positives are harmless, but false negatives must be patched
    /// in). The merged set stays in ascending atom order, as both access
    /// paths deliver it.
    fn candidates(
        &self,
        db: &Database,
        view: &ReadView,
        ov: Option<&Overlay<'_, '_>>,
    ) -> Result<Candidates> {
        let mut c = candidates_for(db, view, &self.type_def, &self.access)?;
        if let (Some(o), Candidates::Atoms(atoms)) = (ov, &mut c) {
            let extra: Vec<AtomId> = o
                .txn
                .written_atoms()
                .filter(|a| a.ty == self.type_def.id && atoms.binary_search(a).is_err())
                .collect();
            if !extra.is_empty() {
                atoms.extend(extra);
                atoms.sort_unstable();
            }
        }
        Ok(c)
    }

    /// The versions of `atom` this statement reads: the transaction
    /// overlay when one is active and the atom was written, committed
    /// state at the pinned view otherwise.
    fn fetch(
        &self,
        db: &Database,
        view: &ReadView,
        atom: AtomId,
        ov: Option<&Overlay<'_, '_>>,
    ) -> Result<Vec<AtomVersion>> {
        if let Some(o) = ov {
            if let Some(vs) = o.versions(atom) {
                return Ok(vs);
            }
        }
        match self.query.asof_tt {
            Some(tt) => db.versions_at(atom, clamp_tt(tt, view)),
            None => db.versions_at_view(atom, view),
        }
    }

    fn clip_valid(&self, vs: Vec<AtomVersion>) -> Vec<AtomVersion> {
        match self.query.valid {
            Valid::Any => vs,
            Valid::At(t) => vs.into_iter().filter(|v| v.vt.contains(t)).collect(),
            Valid::In(a, b) => {
                let w = Interval::new(a, b).expect("validated window");
                vs.into_iter()
                    .filter_map(|mut v| {
                        v.vt = v.vt.intersect(&w)?;
                        Some(v)
                    })
                    .collect()
            }
        }
    }

    fn matches(&self, tuple: &Tuple) -> bool {
        match &self.filter {
            None => true,
            Some(f) => eval(f, tuple, &self.type_def) == Some(true),
        }
    }

    /// Output columns and their tuple positions for a row-shaped query
    /// (`*`, projections, or `COALESCE` with either).
    fn row_layout(&self) -> (Vec<String>, Vec<usize>) {
        let projs = match &self.targets {
            Targets::All => None,
            Targets::Coalesce(ps) if ps.is_empty() => None,
            Targets::Projs(ps) | Targets::Coalesce(ps) => Some(ps),
            _ => unreachable!("row-shaped targets only"),
        };
        match projs {
            None => (
                self.type_def.attrs.iter().map(|a| a.name.clone()).collect(),
                (0..self.type_def.arity()).collect(),
            ),
            Some(projs) => {
                let mut cols = Vec::new();
                let mut pos = Vec::new();
                for Proj { attr, .. } in projs {
                    let (id, _) = self
                        .type_def
                        .attr_by_name(attr)
                        .expect("validated in analyze");
                    cols.push(attr.clone());
                    pos.push(id.0 as usize);
                }
                (cols, pos)
            }
        }
    }

    /// Applies the statement's valid-time clause batch-wise.
    fn clip_batch(&self, b: &mut VersionBatch) {
        match self.query.valid {
            Valid::Any => {}
            Valid::At(t) => b.retain_valid_at(t),
            Valid::In(a, z) => b.clip_valid_window(Interval::new(a, z).expect("validated window")),
        }
    }

    /// Drops the rows failing the filter, batch-wise.
    fn filter_batch(&self, b: &mut VersionBatch) {
        if self.filter.is_none() {
            return;
        }
        let keep: Vec<bool> = (0..b.len()).map(|i| self.matches(&b.tuples[i])).collect();
        b.retain_indices(|i| keep[i]);
    }

    /// Feeds each candidate's versions to `f` in candidate order — fetched
    /// here for atom candidates, already in hand for a time slice — until
    /// `f` returns `false`. Returns whether the candidates ran out.
    fn each_versions(
        &self,
        db: &Database,
        view: &ReadView,
        candidates: Candidates,
        ov: Option<&Overlay<'_, '_>>,
        mut f: impl FnMut(AtomId, &[AtomVersion]) -> bool,
    ) -> Result<bool> {
        match candidates {
            Candidates::Atoms(atoms) => {
                for atom in atoms {
                    if !f(atom, &self.fetch(db, view, atom, ov)?) {
                        return Ok(false);
                    }
                }
            }
            Candidates::Slice(groups) => {
                for (atom, versions) in &groups {
                    if !f(*atom, versions) {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Fetches every candidate version into one batch and applies the
    /// valid-time clause. Shared by the coalesce/aggregate consumers and
    /// the join sides (which pass a foreign `Candidates` set).
    fn batch_from_candidates(
        &self,
        db: &Database,
        view: &ReadView,
        candidates: Candidates,
        ov: Option<&Overlay<'_, '_>>,
    ) -> Result<VersionBatch> {
        let mut b = VersionBatch::with_capacity(candidates.len());
        self.each_versions(db, view, candidates, ov, |atom, versions| {
            versions.iter().for_each(|v| b.push(atom, v));
            true
        })?;
        self.clip_batch(&mut b);
        Ok(b)
    }

    /// Filters and projects `b`'s rows onto `rows`. Returns `false` once
    /// `limit` is reached.
    fn emit_rows(
        &self,
        b: &VersionBatch,
        positions: &[usize],
        rows: &mut Vec<Row>,
        limit: usize,
    ) -> bool {
        for i in 0..b.len() {
            if rows.len() >= limit {
                break;
            }
            if !self.matches(&b.tuples[i]) {
                continue;
            }
            rows.push(Row {
                atom: b.atoms[i],
                values: positions
                    .iter()
                    .map(|&p| b.tuples[i].get(p).clone())
                    .collect(),
                vt: b.vt(i),
                tt: b.tt(i),
            });
        }
        rows.len() < limit
    }

    /// Filter + project + limit over a fully built batch (the join's).
    fn rows_from_batch(&self, b: &VersionBatch) -> QueryOutput {
        let (columns, positions) = self.row_layout();
        let mut rows = Vec::new();
        self.emit_rows(
            b,
            &positions,
            &mut rows,
            self.query.limit.unwrap_or(usize::MAX),
        );
        QueryOutput::Rows { columns, rows }
    }

    /// `COALESCE` consumer: period-normalizes the filtered batch.
    fn coalesce_from_candidates(
        &self,
        db: &Database,
        view: &ReadView,
        candidates: Candidates,
        ov: Option<&Overlay<'_, '_>>,
    ) -> Result<QueryOutput> {
        let mut b = self.batch_from_candidates(db, view, candidates, ov)?;
        self.filter_batch(&mut b);
        let (columns, positions) = self.row_layout();
        let c = coalesce_batch(&b, &positions);
        let limit = self.query.limit.unwrap_or(usize::MAX);
        let mut rows = Vec::new();
        for i in 0..c.len().min(limit) {
            rows.push(Row {
                atom: c.atoms[i],
                values: c.tuples[i].values().to_vec(),
                vt: c.vt(i),
                tt: c.tt(i),
            });
        }
        Ok(QueryOutput::Rows { columns, rows })
    }

    /// `COUNT`/`SUM`/`INTEGRAL` consumer: the valid-time sweep over the
    /// filtered batch.
    fn aggregate_from_candidates(
        &self,
        db: &Database,
        view: &ReadView,
        candidates: Candidates,
        ov: Option<&Overlay<'_, '_>>,
        func: AggFunc,
        attr: Option<&Proj>,
    ) -> Result<QueryOutput> {
        let mut b = self.batch_from_candidates(db, view, candidates, ov)?;
        self.filter_batch(&mut b);
        let attr_pos = attr.map(|p| {
            let (id, _) = self
                .type_def
                .attr_by_name(&p.attr)
                .expect("validated in analyze");
            id.0 as usize
        });
        let mut steps = aggregate_batch(&b, attr_pos);
        let integral = match func {
            AggFunc::Integral => Some(value_integral(&steps).ok_or_else(|| {
                Error::query(
                    "INTEGRAL needs finite valid-time intervals: \
                     clip with VALID IN (or the integral overflowed)",
                )
            })?),
            _ => None,
        };
        if let Some(n) = self.query.limit {
            steps.truncate(n);
        }
        Ok(QueryOutput::Aggregate { steps, integral })
    }

    /// The rows consumer: versions accumulate into a [`VersionBatch`] of
    /// up to [`BATCH_ROWS`] rows; each full batch is clipped column-wise,
    /// then filtered and projected in one pass. Both candidate shapes
    /// produce byte-identical output: ascending atom number (directory
    /// order = index group order), versions sorted by valid time.
    fn rows_from_candidates(
        &self,
        db: &Database,
        view: &ReadView,
        candidates: Candidates,
        ov: Option<&Overlay<'_, '_>>,
    ) -> Result<QueryOutput> {
        let (columns, positions) = self.row_layout();
        let limit = self.query.limit.unwrap_or(usize::MAX);
        let mut rows = Vec::new();
        // A point lookup is a batch of one: don't reserve the full batch.
        let mut batch = VersionBatch::with_capacity(candidates.len().min(BATCH_ROWS));
        // Full batches drain as they fill; `more` is false once `limit` is
        // reached.
        let more = self.each_versions(db, view, candidates, ov, |atom, versions| {
            versions.iter().all(|v| {
                batch.push(atom, v);
                batch.len() < BATCH_ROWS
                    || self.drain_batch(&mut batch, &positions, &mut rows, limit)
            })
        })?;
        if more {
            self.drain_batch(&mut batch, &positions, &mut rows, limit);
        }
        Ok(QueryOutput::Rows { columns, rows })
    }

    /// Clips, filters and projects one batch into `rows`, then clears the
    /// batch. Returns `false` once `limit` is reached.
    fn drain_batch(
        &self,
        batch: &mut VersionBatch,
        positions: &[usize],
        rows: &mut Vec<Row>,
        limit: usize,
    ) -> bool {
        self.clip_batch(batch);
        let more = self.emit_rows(batch, positions, rows, limit);
        batch.clear();
        more
    }

    fn molecules_from_candidates(
        &self,
        db: &Database,
        view: &ReadView,
        candidates: Vec<AtomId>,
    ) -> Result<QueryOutput> {
        let mol = self.mol_type.expect("molecule query");
        // Commits publish in transaction-time order, so a materialization
        // pinned at `view.tt` is consistent across every type the
        // molecule's edges reach, not just the root's.
        let tt = match self.query.asof_tt {
            Some(t) => clamp_tt(t, view),
            None => view.tt,
        };
        let vt = match self.query.valid {
            Valid::At(t) => t,
            // Documented default: molecule queries without a VALID clause
            // materialize at valid time 0.
            Valid::Any => TimePoint(0),
            Valid::In(_, _) => unreachable!("rejected in analyze"),
        };
        let limit = self.query.limit.unwrap_or(usize::MAX);
        let mut out = Vec::new();
        for root in candidates {
            if out.len() >= limit {
                break;
            }
            let Some(version) = db.version_at(root, tt, vt)? else {
                continue;
            };
            if !self.matches(&version.tuple) {
                continue;
            }
            if let Some(m) = db.materialize(mol, root, tt, vt)? {
                out.push(m);
            }
        }
        Ok(QueryOutput::Molecules(out))
    }

    fn histories_from_candidates(
        &self,
        db: &Database,
        view: &ReadView,
        candidates: Vec<AtomId>,
    ) -> Result<QueryOutput> {
        let limit = self.query.limit.unwrap_or(usize::MAX);
        let mut out = Vec::new();
        for atom in candidates {
            if out.len() >= limit {
                break;
            }
            // Snapshot cut: versions born after the pinned view belong to
            // commits this statement must not see.
            let hist: Vec<AtomVersion> = db
                .history(atom)?
                .into_iter()
                .filter(|v| v.tt.start() <= view.tt)
                .collect();
            let hist = self.clip_valid(hist);
            let qualifying: Vec<AtomVersion> = hist
                .into_iter()
                .filter(|v| self.matches(&v.tuple))
                .collect();
            if !qualifying.is_empty() {
                out.push((atom, qualifying));
            }
        }
        Ok(QueryOutput::Histories(out))
    }
}
