//! The university data set (dept → emp → proj molecule) shared by the
//! `hot-query.*` and `commit.embedded` workloads: schema, seeded load,
//! and the generator's own model of every employee's history, which the
//! workloads check the engine's answers against.

use crate::rng::Rng;
use crate::util::{dir_bytes, tuple_bytes, Res};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tcom_core::{
    AtomId, AtomTypeId, Database, DbConfig, Interval, MoleculeTypeId, SyncPolicy, TimePoint, Tuple,
    Value,
};
use tcom_query::{run_statement, QueryOutput, StatementOutput};

/// Departments at full size (`--smoke` loads fewer).
pub const DEPTS: usize = 100;
pub const EMPS_PER_DEPT: usize = 50;
pub const PROJS: usize = 500;
/// Employees sharing one `team` value (the small indexed range the
/// aggregate statement counts over).
pub const TEAM: usize = 16;
/// Hire valid-times cycle through `0..HIRE_SPAN`.
pub const HIRE_SPAN: u64 = 40;
/// Raises with valid-time splitting start at this valid time.
pub const RAISE_VT0: u64 = 100;
pub const CHURN_ROUNDS: usize = 4;
/// Updates per churn transaction (so churn spans many transaction times).
pub const CHURN_TXN: usize = 50;

/// Attribute positions of `emp`.
pub const EMP_SALARY: usize = 1;
pub const EMP_BADGE: u16 = 2;
pub const EMP_TEAM: u16 = 3;
/// Attribute position of `dept.budget`.
pub const DEPT_BUDGET: u16 = 1;

/// One salary the model knows: recorded at `tt`, valid from `from_vt`.
/// `steps[0]` is the hire.
#[derive(Clone, Copy)]
pub struct Step {
    pub tt: u64,
    pub from_vt: u64,
    pub salary: i64,
}

pub struct Emp {
    pub atom: AtomId,
    pub badge: i64,
    pub hire: u64,
    /// `None` for employees inserted through TQL without projects.
    pub projs: Option<[AtomId; 2]>,
    pub steps: Vec<Step>,
}

impl Emp {
    /// The salary recorded as of transaction time `tt` for valid time `vt`.
    /// Steps have increasing `tt` and non-decreasing `from_vt`, so the
    /// answer is the last step inside both bounds.
    pub fn salary_at(&self, tt: u64, vt: u64) -> Option<i64> {
        if vt < self.hire {
            return None;
        }
        self.steps
            .iter()
            .take_while(|s| s.tt <= tt)
            .filter(|s| s.from_vt <= vt)
            .last()
            .map(|s| s.salary)
    }

    pub fn current_salary(&self) -> i64 {
        self.steps.last().expect("hired").salary
    }

    pub fn tuple(&self, salary: i64) -> Tuple {
        emp_tuple(self.badge, salary, self.projs)
    }
}

pub fn emp_tuple(badge: i64, salary: i64, projs: Option<[AtomId; 2]>) -> Tuple {
    Tuple::new(vec![
        Value::from(format!("emp-{badge}")),
        Value::Int(salary),
        Value::Int(badge),
        Value::Int(badge / TEAM as i64),
        projs.map_or(Value::Null, Value::ref_set),
    ])
}

pub struct University {
    pub emp_ty: AtomTypeId,
    pub dept_ty: AtomTypeId,
    pub mol: MoleculeTypeId,
    pub depts: usize,
    pub emps: Vec<Emp>,
    /// Encoded bytes of every tuple handed to the engine so far.
    pub user_bytes: u64,
    /// Transaction time of the first churn commit: from here on every
    /// employee exists, so a transaction-time slice has a fixed size.
    pub churn_tt: u64,
    /// Transaction time of the last load commit.
    pub loaded_tt: u64,
}

pub fn dept_budget(d: usize) -> i64 {
    1000 + d as i64
}

impl University {
    /// Creates the schema and loads the data. `vt_split` makes churn
    /// raises valid from a later valid time than the hire (so employees
    /// end up with several current valid-time slices); without it every
    /// raise replaces the whole extent and each employee keeps one slice.
    pub fn load(db: &Database, rng: &mut Rng, vt_split: bool, depts: usize) -> Res<University> {
        for ddl in [
            "CREATE TYPE proj (title TEXT NOT NULL, budget INT)",
            "CREATE TYPE emp (name TEXT NOT NULL, salary INT INDEXED, badge INT INDEXED, \
             team INT INDEXED, works_on REFSET(proj))",
            "CREATE TYPE dept (name TEXT NOT NULL, budget INT INDEXED, employs REFSET(emp))",
            "CREATE MOLECULE dept_mol ROOT dept (dept.employs TO emp, emp.works_on TO proj)",
        ] {
            run_statement(db, ddl)?;
        }
        let proj_ty = db.atom_type_id("proj")?;
        let emp_ty = db.atom_type_id("emp")?;
        let dept_ty = db.atom_type_id("dept")?;
        let mol = db.molecule_type_id("dept_mol")?;
        let mut user_bytes = 0u64;

        let mut txn = db.begin();
        let mut projs = Vec::with_capacity(PROJS);
        for p in 0..PROJS {
            let t = Tuple::new(vec![
                Value::from(format!("proj-{p}")),
                Value::Int(rng.range(10, 1000) as i64),
            ]);
            user_bytes += tuple_bytes(&t);
            projs.push(txn.insert_atom(proj_ty, Interval::all(), t)?);
        }
        txn.commit()?;

        let mut emps: Vec<Emp> = Vec::with_capacity(depts * EMPS_PER_DEPT);
        for d in 0..depts {
            let mut txn = db.begin();
            let mut members = Vec::with_capacity(EMPS_PER_DEPT);
            let first = emps.len();
            for _ in 0..EMPS_PER_DEPT {
                let badge = emps.len() as i64;
                let p0 = rng.below(PROJS as u64) as usize;
                let p1 = (p0 + 1 + rng.below(PROJS as u64 - 1) as usize) % PROJS;
                let salary = rng.range(30, 300) as i64 * 10;
                let hire = badge as u64 % HIRE_SPAN;
                let pair = Some([projs[p0], projs[p1]]);
                let t = emp_tuple(badge, salary, pair);
                user_bytes += tuple_bytes(&t);
                let atom = txn.insert_atom(emp_ty, Interval::from_start(TimePoint(hire)), t)?;
                members.push(atom);
                emps.push(Emp {
                    atom,
                    badge,
                    hire,
                    projs: pair,
                    steps: vec![Step {
                        tt: 0,
                        from_vt: hire,
                        salary,
                    }],
                });
            }
            let t = Tuple::new(vec![
                Value::from(format!("dept-{d}")),
                Value::Int(dept_budget(d)),
                Value::ref_set(members),
            ]);
            user_bytes += tuple_bytes(&t);
            txn.insert_atom(dept_ty, Interval::all(), t)?;
            let tt = txn.commit()?.0;
            for e in &mut emps[first..] {
                e.steps[0].tt = tt;
            }
        }

        let mut uni = University {
            emp_ty,
            dept_ty,
            mol,
            depts,
            emps,
            user_bytes,
            churn_tt: db.now().0 + 1,
            loaded_tt: 0,
        };
        for _ in 0..CHURN_ROUNDS {
            let mut picks: Vec<usize> = (0..uni.emps.len()).collect();
            rng.shuffle(&mut picks);
            picks.truncate(uni.emps.len() / 10);
            for chunk in picks.chunks(CHURN_TXN) {
                let raises: Vec<(usize, i64)> = chunk
                    .iter()
                    .map(|&i| (i, uni.emps[i].current_salary() + 10 + rng.below(50) as i64))
                    .collect();
                uni.raise(db, &raises, vt_split)?;
            }
        }
        uni.loaded_tt = db.now().0;
        Ok(uni)
    }

    /// One transaction giving each `(employee index, new salary)` a raise
    /// through the `Txn` API, mirrored into the model.
    pub fn raise(&mut self, db: &Database, raises: &[(usize, i64)], vt_split: bool) -> Res<u64> {
        let mut txn = db.begin();
        let mut from = Vec::with_capacity(raises.len());
        for &(i, salary) in raises {
            let e = &self.emps[i];
            let from_vt = if vt_split {
                RAISE_VT0 + 10 * (e.steps.len() as u64 - 1)
            } else {
                e.hire
            };
            let t = e.tuple(salary);
            self.user_bytes += tuple_bytes(&t);
            txn.update(e.atom, Interval::from_start(TimePoint(from_vt)), t)?;
            from.push(from_vt);
        }
        let tt = txn.commit()?.0;
        for (&(i, salary), from_vt) in raises.iter().zip(from) {
            self.emps[i].steps.push(Step {
                tt,
                from_vt,
                salary,
            });
        }
        Ok(tt)
    }

    /// The loaded employees of department `d` (contiguous by construction).
    pub fn dept_emps(&self, d: usize) -> &[Emp] {
        &self.emps[d * EMPS_PER_DEPT..(d + 1) * EMPS_PER_DEPT]
    }
}

/// `(size, checksum)` of an answer, in the form the workloads compute from
/// the model: rows and the sum of their salaries, aggregate steps and their
/// area, or molecule atoms and the sum of the employees' salaries.
pub fn digest(out: &StatementOutput, u: &University) -> (u64, i64) {
    let StatementOutput::Query(q) = out else {
        return (u64::MAX, 0);
    };
    match q {
        QueryOutput::Rows { rows, .. } => (
            rows.len() as u64,
            rows.iter()
                .map(|r| match r.values.get(1) {
                    Some(Value::Int(s)) => *s,
                    _ => 0,
                })
                .sum(),
        ),
        QueryOutput::Aggregate { steps, .. } => (
            steps.len() as u64,
            steps
                .iter()
                .map(|s| s.count as i64 * s.during.duration().unwrap_or(0) as i64)
                .sum(),
        ),
        QueryOutput::Molecules(ms) => {
            let (mut size, mut sum) = (0u64, 0i64);
            for m in ms {
                m.root.visit(&mut |a| {
                    size += 1;
                    if a.id.ty == u.emp_ty {
                        if let Value::Int(s) = a.version.tuple.get(EMP_SALARY) {
                            sum += *s;
                        }
                    }
                });
            }
            (size, sum)
        }
        QueryOutput::Histories(_) => (u64::MAX, 0),
    }
}

/// A loaded, checkpointed and reopened university database.
pub struct Loaded {
    pub db: Arc<Database>,
    pub uni: University,
    pub dir: PathBuf,
    pub space_amp: f64,
    pub pages: u64,
}

/// Generates, loads, checkpoints and reopens the database under
/// `parent/name` with `config`.
pub fn setup(
    parent: &Path,
    name: &str,
    seed: u64,
    vt_split: bool,
    depts: usize,
    config: DbConfig,
) -> Res<Loaded> {
    let dir = parent.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    // Load without per-commit fsync: set-up time should measure the
    // engine's load path, not the sandbox's flush latency.
    let load_cfg = config
        .sync_policy(SyncPolicy::OnCheckpoint)
        .checkpoint_interval(0)
        .compaction(false);
    let db = Database::open(&dir, load_cfg)?;
    let uni = University::load(&db, &mut Rng::new(seed, 1), vt_split, depts)?;
    db.checkpoint()?;
    drop(db);
    let bytes = dir_bytes(&dir)?;
    let db = Arc::new(Database::open(&dir, config)?);
    Ok(Loaded {
        db,
        space_amp: bytes as f64 / uni.user_bytes as f64,
        pages: bytes / crate::host::PAGE,
        uni,
        dir,
    })
}
