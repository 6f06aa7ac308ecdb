//! Recursive-descent parser for TQL: one token cursor and one expression
//! grammar behind every statement kind (`SELECT`, `EXPLAIN ANALYZE`, DDL
//! and DML).
//!
//! ```text
//! CREATE TYPE emp (
//!     name TEXT NOT NULL,
//!     salary INT INDEXED,
//!     dept REF(dept),
//!     works_on REFSET(proj)
//! )
//!
//! CREATE MOLECULE dept_mol ROOT dept (
//!     dept.employs TO emp,
//!     emp.works_on TO proj
//! ) DEPTH 8
//!
//! INSERT INTO emp (name, salary) VALUES ('ann', 100) VALID IN [0, 50)
//! INSERT INTO emp (name, salary) VALUES ('bob', 90)           -- all time
//!
//! UPDATE emp SET salary = 120 WHERE name = 'ann' VALID IN [10, 20)
//! UPDATE job CLAIM SET state = 1 WHERE state = 0
//! DELETE FROM emp WHERE salary < 50
//! ```
//!
//! Atom references are written `@<type>.<no>` (e.g. `@2.17`), reference
//! sets `{@2.1, @2.5}`; both are literals wherever a literal may stand.
//! Statement words that are not reserved by the lexer (`EXPLAIN`,
//! `ANALYZE`, `CREATE`, `INSERT`, `FOREVER`, …) are *soft*: they arrive as
//! plain identifiers, so `SELECT * FROM explain` keeps working.

use crate::ast::*;
use crate::stmt::{Statement, TypeSpec};
use crate::token::{lex, Kw, Sym, Tok, Token};
use tcom_kernel::{AtomId, AtomNo, AtomTypeId, DataType, Error, Result, TimePoint, Value};

/// Parses one TQL query.
pub fn parse(src: &str) -> Result<Query> {
    let mut p = Parser::new(src)?;
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

/// Parses one statement of any kind, dispatching on its first token.
pub fn parse_statement(src: &str) -> Result<Statement> {
    let mut p = Parser::new(src)?;
    let s = p.statement()?;
    p.expect_eof()?;
    Ok(s)
}

/// A DML valid extent: `VALID IN [a, b)` or the open-ended `VALID FROM a`.
type Extent = (TimePoint, Option<TimePoint>);

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: lex(src)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    /// Steps past the current token (never past the trailing `Eof`).
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        let t = &self.tokens[self.pos];
        Error::Parse {
            line: t.line,
            col: t.col,
            msg: msg.into(),
        }
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        if self.peek() == &Tok::Kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw:?}, found {:?}", self.peek())))
        }
    }

    fn at_soft_kw(&self, word: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.eq_ignore_ascii_case(word))
    }

    /// Eats a soft keyword: an identifier spelled like `word`.
    fn soft_kw(&mut self, word: &str) -> bool {
        let hit = self.at_soft_kw(word);
        if hit {
            self.bump();
        }
        hit
    }

    fn expect_soft(&mut self, word: &str) -> Result<()> {
        if self.soft_kw(word) {
            Ok(())
        } else {
            Err(self.err(format!("expected {word}, found {:?}", self.peek())))
        }
    }

    fn eat_sym(&mut self, sym: Sym) -> bool {
        if self.peek() == &Tok::Sym(sym) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: Sym) -> Result<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.err(format!("expected {sym:?}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            Tok::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn int(&mut self) -> Result<i64> {
        match *self.peek() {
            Tok::Int(i) => {
                self.bump();
                Ok(i)
            }
            ref other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }

    fn time(&mut self) -> Result<TimePoint> {
        let i = self.int()?;
        if i < 0 {
            return Err(self.err("time points must be non-negative"));
        }
        Ok(TimePoint(i as u64))
    }

    fn expect_eof(&self) -> Result<()> {
        if self.peek() == &Tok::Eof {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input: {:?}", self.peek())))
        }
    }

    /// `'[' a ',' b (')' | ']')` after `VALID IN`. Both closers are
    /// accepted; the interval is half-open either way (documented).
    fn window(&mut self) -> Result<(TimePoint, TimePoint)> {
        self.expect_sym(Sym::LBracket)?;
        let a = self.time()?;
        self.expect_sym(Sym::Comma)?;
        let b = self.time()?;
        if !self.eat_sym(Sym::RParen) {
            self.expect_sym(Sym::RBracket)?;
        }
        if a >= b {
            return Err(self.err("empty VALID IN window"));
        }
        Ok((a, b))
    }

    // ---- statements ----

    fn statement(&mut self) -> Result<Statement> {
        if self.peek() == &Tok::Kw(Kw::Select) {
            return Ok(Statement::Select(self.query()?));
        }
        if self.soft_kw("EXPLAIN") {
            self.expect_soft("ANALYZE")?;
            // Only SELECT can be explained; give DML/DDL a crisp error
            // instead of the query grammar's generic one.
            for kw in ["INSERT", "UPDATE", "DELETE", "CREATE"] {
                if self.at_soft_kw(kw) {
                    return Err(Error::unsupported(format!(
                        "EXPLAIN ANALYZE supports only SELECT statements, not {kw}"
                    )));
                }
            }
            return Ok(Statement::ExplainAnalyze(self.query()?));
        }
        if self.soft_kw("CREATE") {
            if self.soft_kw("TYPE") {
                return self.create_type();
            }
            if self.eat_kw(Kw::Molecule) {
                return self.create_molecule();
            }
            return Err(self.err("expected TYPE or MOLECULE after CREATE"));
        }
        if self.soft_kw("INSERT") {
            return self.insert();
        }
        if self.soft_kw("UPDATE") {
            return self.update();
        }
        if self.soft_kw("DELETE") {
            return self.delete();
        }
        Err(self.err("expected SELECT, EXPLAIN ANALYZE, CREATE, INSERT, UPDATE or DELETE"))
    }

    fn create_type(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut attrs = Vec::new();
        loop {
            let aname = self.ident()?;
            let spec = self.type_spec()?;
            let mut not_null = false;
            let mut indexed = false;
            loop {
                if self.eat_kw(Kw::Not) {
                    self.expect_kw(Kw::Null)?;
                    not_null = true;
                } else if self.soft_kw("INDEXED") {
                    indexed = true;
                } else {
                    break;
                }
            }
            attrs.push((aname, spec, not_null, indexed));
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        Ok(Statement::CreateType { name, attrs })
    }

    fn type_spec(&mut self) -> Result<TypeSpec> {
        let word = self.ident()?;
        Ok(match word.to_ascii_uppercase().as_str() {
            "BOOL" => TypeSpec::Scalar(DataType::Bool),
            "INT" => TypeSpec::Scalar(DataType::Int),
            "FLOAT" => TypeSpec::Scalar(DataType::Float),
            "TEXT" => TypeSpec::Scalar(DataType::Text),
            "BYTES" => TypeSpec::Scalar(DataType::Bytes),
            "REF" => TypeSpec::Ref(self.paren_ident()?),
            "REFSET" => TypeSpec::RefSet(self.paren_ident()?),
            other => return Err(self.err(format!("unknown attribute type '{other}'"))),
        })
    }

    fn paren_ident(&mut self) -> Result<String> {
        self.expect_sym(Sym::LParen)?;
        let t = self.ident()?;
        self.expect_sym(Sym::RParen)?;
        Ok(t)
    }

    fn create_molecule(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_soft("ROOT")?;
        let root = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut edges = Vec::new();
        // Empty edge list allowed: `( )` is a single-atom molecule.
        if self.peek() != &Tok::Sym(Sym::RParen) {
            loop {
                let from = self.ident()?;
                self.expect_sym(Sym::Dot)?;
                let attr = self.ident()?;
                self.expect_soft("TO")?;
                let to = self.ident()?;
                edges.push((from, attr, to));
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        self.expect_sym(Sym::RParen)?;
        let depth = if self.soft_kw("DEPTH") {
            let d = self.int()?;
            if d < 1 {
                return Err(self.err("DEPTH must be at least 1"));
            }
            Some(d as u32)
        } else {
            None
        };
        Ok(Statement::CreateMolecule {
            name,
            root,
            edges,
            depth,
        })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_soft("INTO")?;
        let ty = self.ident()?;
        self.expect_sym(Sym::LParen)?;
        let mut attrs = Vec::new();
        loop {
            attrs.push(self.ident()?);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        self.expect_soft("VALUES")?;
        self.expect_sym(Sym::LParen)?;
        let mut values = Vec::new();
        loop {
            values.push(self.value()?);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        if values.len() != attrs.len() {
            return Err(self.err(format!(
                "{} attributes but {} values",
                attrs.len(),
                values.len()
            )));
        }
        let valid = self.extent()?;
        Ok(Statement::Insert {
            ty,
            attrs,
            values,
            valid,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        let ty = self.ident()?;
        let claim = self.soft_kw("CLAIM");
        self.expect_soft("SET")?;
        let mut sets = Vec::new();
        loop {
            let attr = self.ident()?;
            self.expect_sym(Sym::Eq)?;
            sets.push((attr, self.value()?));
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        let filter = self.where_clause()?;
        let valid = self.extent()?;
        Ok(Statement::Update {
            ty,
            sets,
            filter,
            valid,
            claim,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw(Kw::From)?;
        let ty = self.ident()?;
        let filter = self.where_clause()?;
        let valid = self.extent()?;
        Ok(Statement::Delete { ty, filter, valid })
    }

    /// The optional valid extent of a DML statement.
    fn extent(&mut self) -> Result<Option<Extent>> {
        if !self.eat_kw(Kw::Valid) {
            return Ok(None);
        }
        if self.eat_kw(Kw::In) {
            let (a, b) = self.window()?;
            return Ok(Some((a, Some(b))));
        }
        if self.eat_kw(Kw::From) {
            return Ok(Some((self.time()?, None)));
        }
        Err(self.err("expected IN or FROM after VALID"))
    }

    // ---- queries ----

    /// `ident [ident]`: a type name and its optional alias.
    fn source(&mut self) -> Result<(String, Option<String>)> {
        let name = self.ident()?;
        let alias = match self.peek() {
            Tok::Ident(_) => Some(self.ident()?),
            _ => None,
        };
        Ok((name, alias))
    }

    fn query(&mut self) -> Result<Query> {
        self.expect_kw(Kw::Select)?;
        let targets = self.targets()?;
        self.expect_kw(Kw::From)?;
        let (source, alias) = self.source()?;
        let join = if self.eat_kw(Kw::Join) {
            let (jsource, jalias) = self.source()?;
            self.expect_kw(Kw::On)?;
            let on_left = self.proj()?;
            self.expect_sym(Sym::Eq)?;
            let on_right = self.proj()?;
            Some(JoinClause {
                source: jsource,
                alias: jalias,
                on_left,
                on_right,
            })
        } else {
            None
        };
        let filter = self.where_clause()?;
        let mut asof_tt = None;
        let mut valid = Valid::Any;
        let mut limit = None;
        loop {
            if self.eat_kw(Kw::Asof) {
                self.expect_kw(Kw::Tt)?;
                // `FOREVER` (a soft keyword) names the current state: the
                // sentinel lies past every closing tick, so the slice shows
                // exactly the tt-open versions.
                asof_tt = Some(if self.soft_kw("FOREVER") {
                    TimePoint::FOREVER
                } else {
                    self.time()?
                });
            } else if self.eat_kw(Kw::Valid) {
                if self.eat_kw(Kw::At) {
                    valid = Valid::At(self.time()?);
                } else if self.eat_kw(Kw::In) {
                    let (a, b) = self.window()?;
                    valid = Valid::In(a, b);
                } else {
                    return Err(self.err("expected AT or IN after VALID"));
                }
            } else if self.eat_kw(Kw::Limit) {
                let n = self.int()?;
                if n < 0 {
                    return Err(self.err("LIMIT must be non-negative"));
                }
                limit = Some(n as usize);
            } else {
                break;
            }
        }
        Ok(Query {
            targets,
            source,
            alias,
            join,
            filter,
            asof_tt,
            valid,
            limit,
        })
    }

    /// True when the *next* token (after the current one) is `sym` — the
    /// one-token lookahead that keeps `COUNT`/`SUM`/`INTEGRAL` soft.
    fn peek2_is(&self, sym: Sym) -> bool {
        self.tokens
            .get(self.pos + 1)
            .is_some_and(|t| t.tok == Tok::Sym(sym))
    }

    fn targets(&mut self) -> Result<Targets> {
        if self.eat_sym(Sym::Star) {
            return Ok(Targets::All);
        }
        if self.eat_kw(Kw::Molecule) {
            return Ok(Targets::Molecule);
        }
        if self.eat_kw(Kw::History) {
            return Ok(Targets::History);
        }
        if self.eat_kw(Kw::Coalesce) {
            if self.eat_sym(Sym::Star) {
                return Ok(Targets::Coalesce(Vec::new()));
            }
            return Ok(Targets::Coalesce(self.projs()?));
        }
        // Aggregate functions are soft keywords: only an identifier of the
        // right name immediately followed by `(` parses as one.
        for (word, func) in [
            ("COUNT", AggFunc::Count),
            ("SUM", AggFunc::Sum),
            ("INTEGRAL", AggFunc::Integral),
        ] {
            if self.at_soft_kw(word) && self.peek2_is(Sym::LParen) {
                self.bump();
                self.bump();
                let attr = if func == AggFunc::Count {
                    self.expect_sym(Sym::Star)?;
                    None
                } else {
                    Some(self.proj()?)
                };
                self.expect_sym(Sym::RParen)?;
                return Ok(Targets::Aggregate { func, attr });
            }
        }
        Ok(Targets::Projs(self.projs()?))
    }

    fn projs(&mut self) -> Result<Vec<Proj>> {
        let mut projs = vec![self.proj()?];
        while self.eat_sym(Sym::Comma) {
            projs.push(self.proj()?);
        }
        Ok(projs)
    }

    fn proj(&mut self) -> Result<Proj> {
        let first = self.ident()?;
        if self.eat_sym(Sym::Dot) {
            let attr = self.ident()?;
            Ok(Proj {
                qualifier: Some(first),
                attr,
            })
        } else {
            Ok(Proj {
                qualifier: None,
                attr: first,
            })
        }
    }

    // ---- predicates and literals (shared by SELECT, UPDATE and DELETE) ----

    fn where_clause(&mut self) -> Result<Option<Expr>> {
        if self.eat_kw(Kw::Where) {
            Ok(Some(self.expr()?))
        } else {
            Ok(None)
        }
    }

    // expr := and (OR and)*
    fn expr(&mut self) -> Result<Expr> {
        let mut e = self.and_expr()?;
        while self.eat_kw(Kw::Or) {
            let rhs = self.and_expr()?;
            e = Expr::Or(Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut e = self.not_expr()?;
        while self.eat_kw(Kw::And) {
            let rhs = self.not_expr()?;
            e = Expr::And(Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw(Kw::Not) {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        if self.eat_sym(Sym::LParen) {
            let e = self.expr()?;
            self.expect_sym(Sym::RParen)?;
            return Ok(e);
        }
        let lhs = self.operand()?;
        if self.eat_kw(Kw::Is) {
            let negated = self.eat_kw(Kw::Not);
            self.expect_kw(Kw::Null)?;
            return Ok(Expr::IsNull(lhs, negated));
        }
        let op = match self.peek() {
            Tok::Sym(Sym::Eq) => CmpOp::Eq,
            Tok::Sym(Sym::Ne) => CmpOp::Ne,
            Tok::Sym(Sym::Lt) => CmpOp::Lt,
            Tok::Sym(Sym::Le) => CmpOp::Le,
            Tok::Sym(Sym::Gt) => CmpOp::Gt,
            Tok::Sym(Sym::Ge) => CmpOp::Ge,
            other => return Err(self.err(format!("expected comparison operator, found {other:?}"))),
        };
        self.bump();
        let rhs = self.operand()?;
        Ok(Expr::Cmp(lhs, op, rhs))
    }

    fn operand(&mut self) -> Result<Operand> {
        if let Some(v) = self.try_value()? {
            return Ok(Operand::Lit(v));
        }
        match self.peek() {
            Tok::Ident(_) => {
                let Proj { qualifier, attr } = self.proj()?;
                Ok(Operand::Attr { qualifier, attr })
            }
            other => Err(self.err(format!("expected operand, found {other:?}"))),
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.try_value()?
            .ok_or_else(|| self.err(format!("expected literal value, found {:?}", self.peek())))
    }

    /// A literal, if one starts here: scalars, `@ty.no` refs, `{…}` ref
    /// sets.
    fn try_value(&mut self) -> Result<Option<Value>> {
        let v = match self.peek() {
            Tok::Int(i) => Value::Int(*i),
            Tok::Float(f) => Value::Float(*f),
            Tok::Str(s) => Value::Text(s.clone()),
            Tok::Kw(Kw::True) => Value::Bool(true),
            Tok::Kw(Kw::False) => Value::Bool(false),
            Tok::Kw(Kw::Null) => Value::Null,
            Tok::Sym(Sym::AtRef) => {
                self.bump();
                return Ok(Some(Value::Ref(self.atom_ref()?)));
            }
            Tok::Sym(Sym::LBrace) => {
                self.bump();
                let mut ids = Vec::new();
                if self.peek() != &Tok::Sym(Sym::RBrace) {
                    loop {
                        self.expect_sym(Sym::AtRef)?;
                        ids.push(self.atom_ref()?);
                        if !self.eat_sym(Sym::Comma) {
                            break;
                        }
                    }
                }
                self.expect_sym(Sym::RBrace)?;
                return Ok(Some(Value::ref_set(ids)));
            }
            _ => return Ok(None),
        };
        self.bump();
        Ok(Some(v))
    }

    /// Parses `<ty>.<no>` after the `@` sigil (the lexer guarantees the
    /// two parts arrive as Int-Dot-Int, never as a float).
    fn atom_ref(&mut self) -> Result<AtomId> {
        let ty = self.int()?;
        self.expect_sym(Sym::Dot)?;
        let no = self.int()?;
        if ty < 0 || no < 0 {
            return Err(self.err("atom reference parts must be non-negative"));
        }
        Ok(AtomId::new(AtomTypeId(ty as u32), AtomNo(no as u64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_query() {
        let q = parse(
            "SELECT e.name, e.salary FROM emp e \
             WHERE e.salary >= 100 AND NOT e.name = 'bob' \
             ASOF TT 5 VALID AT 10 LIMIT 20",
        )
        .unwrap();
        assert_eq!(q.source, "emp");
        assert_eq!(q.alias.as_deref(), Some("e"));
        assert_eq!(q.asof_tt, Some(TimePoint(5)));
        assert_eq!(q.valid, Valid::At(TimePoint(10)));
        assert_eq!(q.limit, Some(20));
        let Targets::Projs(ps) = &q.targets else {
            panic!("projs")
        };
        assert_eq!(ps.len(), 2);
        assert!(matches!(q.filter, Some(Expr::And(_, _))));
    }

    #[test]
    fn star_molecule_history() {
        assert_eq!(parse("SELECT * FROM emp").unwrap().targets, Targets::All);
        assert_eq!(
            parse("SELECT MOLECULE FROM dept_mol WHERE root.name = 'r'")
                .unwrap()
                .targets,
            Targets::Molecule
        );
        assert_eq!(
            parse("SELECT HISTORY FROM emp").unwrap().targets,
            Targets::History
        );
    }

    #[test]
    fn valid_in_window() {
        let q = parse("SELECT * FROM emp VALID IN [3, 9)").unwrap();
        assert_eq!(q.valid, Valid::In(TimePoint(3), TimePoint(9)));
        let q = parse("SELECT * FROM emp VALID IN [3, 9]").unwrap();
        assert_eq!(q.valid, Valid::In(TimePoint(3), TimePoint(9)));
        assert!(parse("SELECT * FROM emp VALID IN [9, 3)").is_err());
    }

    #[test]
    fn operator_precedence() {
        // a = 1 OR b = 2 AND c = 3  ==  a = 1 OR (b = 2 AND c = 3)
        let q = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        let Some(Expr::Or(lhs, rhs)) = q.filter else {
            panic!("or at top")
        };
        assert!(matches!(*lhs, Expr::Cmp(_, _, _)));
        assert!(matches!(*rhs, Expr::And(_, _)));
    }

    #[test]
    fn parens_and_is_null() {
        let q = parse("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c IS NOT NULL").unwrap();
        let Some(Expr::And(lhs, rhs)) = q.filter else {
            panic!("and at top")
        };
        assert!(matches!(*lhs, Expr::Or(_, _)));
        assert!(matches!(*rhs, Expr::IsNull(_, true)));
        let q = parse("SELECT * FROM t WHERE a IS NULL").unwrap();
        assert!(matches!(q.filter, Some(Expr::IsNull(_, false))));
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM emp WHERE").is_err());
        assert!(parse("SELECT * FROM emp trailing junk =").is_err());
        assert!(parse("SELECT * FROM emp ASOF 5").is_err());
        assert!(parse("SELECT * FROM emp VALID 5").is_err());
        assert!(parse("SELECT * FROM emp LIMIT -1").is_err());
        assert!(parse("SELECT * FROM emp ASOF TT -4").is_err());
    }

    #[test]
    fn join_clause() {
        let q = parse(
            "SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept = d.id \
             WHERE d.name != 'x' ASOF TT 9 VALID IN [0, 50)",
        )
        .unwrap();
        let j = q.join.expect("join");
        assert_eq!(j.source, "dept");
        assert_eq!(j.alias.as_deref(), Some("d"));
        assert_eq!(j.on_left.qualifier.as_deref(), Some("e"));
        assert_eq!(j.on_left.attr, "dept");
        assert_eq!(j.on_right.attr, "id");
        // Alias-free right side; ON is mandatory.
        assert!(parse("SELECT * FROM a JOIN b ON a.x = b.y")
            .unwrap()
            .join
            .is_some());
        assert!(parse("SELECT * FROM a JOIN b").is_err());
        assert!(parse("SELECT * FROM a JOIN b ON a.x").is_err());
    }

    #[test]
    fn coalesce_targets() {
        assert_eq!(
            parse("SELECT COALESCE * FROM emp").unwrap().targets,
            Targets::Coalesce(vec![])
        );
        let q = parse("SELECT COALESCE e.name, e.dept FROM emp e").unwrap();
        let Targets::Coalesce(ps) = q.targets else {
            panic!("coalesce")
        };
        assert_eq!(ps.len(), 2);
        assert!(parse("SELECT COALESCE FROM emp").is_err());
    }

    #[test]
    fn aggregate_targets() {
        let q = parse("SELECT COUNT(*) FROM emp").unwrap();
        assert_eq!(
            q.targets,
            Targets::Aggregate {
                func: AggFunc::Count,
                attr: None
            }
        );
        let q = parse("SELECT SUM(e.salary) FROM emp e VALID IN [0, 100)").unwrap();
        let Targets::Aggregate {
            func: AggFunc::Sum,
            attr: Some(p),
        } = q.targets
        else {
            panic!("sum")
        };
        assert_eq!(p.attr, "salary");
        assert!(matches!(
            parse("SELECT INTEGRAL(x) FROM emp").unwrap().targets,
            Targets::Aggregate {
                func: AggFunc::Integral,
                attr: Some(_)
            }
        ));
        // Soft keywords: no parenthesis, no aggregate.
        let q = parse("SELECT count FROM emp").unwrap();
        assert_eq!(
            q.targets,
            Targets::Projs(vec![Proj {
                qualifier: None,
                attr: "count".into()
            }])
        );
        assert!(parse("SELECT COUNT(x) FROM emp").is_err(), "COUNT takes *");
        assert!(
            parse("SELECT SUM(*) FROM emp").is_err(),
            "SUM takes an attr"
        );
    }

    #[test]
    fn literal_operands() {
        let q = parse("SELECT * FROM t WHERE a = 3.5 OR b = TRUE OR c = NULL OR d = 'x'").unwrap();
        assert!(q.filter.is_some());
    }
}
