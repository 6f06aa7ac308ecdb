//! Issuing TQL through the engine's public functions, with the spans a
//! traced run records around them.

use crate::trace::Tracer;
use crate::util::Res;
use tcom_core::{AtomTypeId, Database, TimePoint};
use tcom_query::{
    parse_statement, prepare_query, run_statement, AccessPath, ExecOptions, Statement,
    StatementOutput,
};

/// Runs one `SELECT`. Untraced this is `run_statement`; traced it is the
/// same three calls `run_statement` makes — parse, plan, execute — with a
/// span around each.
pub fn select(db: &Database, sql: &str, tr: &mut Tracer) -> Res<StatementOutput> {
    if !tr.on() {
        return Ok(run_statement(db, sql)?);
    }
    let s = tr.begin("query.parse");
    let stmt = parse_statement(sql);
    tr.end(s);
    let Statement::Select(q) = stmt? else {
        return Err(format!("not a SELECT: {sql}").into());
    };
    let s = tr.begin("query.plan");
    let plan = prepare_query(db, q, ExecOptions::default());
    tr.end(s);
    let plan = plan?;
    let s = tr.begin("query.exec");
    let out = plan.run(db);
    tr.end(s);
    Ok(StatementOutput::Query(out?))
}

/// The core reads behind `SELECT ... FROM <ty> ASOF TT <tt>`, issued straight
/// at `Database` along the access path the planner chose for the statement:
/// one time-index slice, or a walk over every atom of the type.
pub fn asof_core_read(
    db: &Database,
    ty: AtomTypeId,
    tt: TimePoint,
    access: &AccessPath,
) -> Res<()> {
    if matches!(access, AccessPath::TimeSlice { .. }) {
        db.slice_at(ty, tt, &mut |_, vs| {
            std::hint::black_box(vs);
            Ok(true)
        })?;
    } else {
        for atom in db.all_atoms(ty)? {
            std::hint::black_box(db.versions_at(atom, tt)?);
        }
    }
    Ok(())
}

/// Prints the first few failed operations, then stays quiet.
pub struct Complaints(u32);

impl Complaints {
    pub fn new() -> Complaints {
        Complaints(0)
    }

    pub fn note(&mut self, what: &str, why: &dyn std::fmt::Display) {
        if self.0 < 5 {
            self.0 += 1;
            eprintln!("operation failed: {what}: {why}");
        }
    }
}
