//! The value model: typed attribute values and tuples.
//!
//! Atoms are tuples over a fixed attribute list. Besides the usual scalar
//! types, the complex-object model contributes two **reference** types —
//! [`Value::Ref`] and [`Value::RefSet`] — whose values are atom identities.
//! Molecules (complex objects) arise by transitively dereferencing these.

use crate::ids::{AtomId, AtomTypeId};
use std::cmp::Ordering;
use std::fmt;

/// Declared type of an attribute.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Text,
    /// Raw bytes.
    Bytes,
    /// Single reference to an atom of the given type (nullable link).
    Ref(AtomTypeId),
    /// Set-valued reference to atoms of the given type (0..n links).
    RefSet(AtomTypeId),
}

impl DataType {
    /// True for the two link-attribute types.
    pub fn is_reference(&self) -> bool {
        matches!(self, DataType::Ref(_) | DataType::RefSet(_))
    }

    /// Target atom type for link attributes.
    pub fn ref_target(&self) -> Option<AtomTypeId> {
        match self {
            DataType::Ref(t) | DataType::RefSet(t) => Some(*t),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "BOOL"),
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Text => write!(f, "TEXT"),
            DataType::Bytes => write!(f, "BYTES"),
            DataType::Ref(t) => write!(f, "REF(type {})", t.0),
            DataType::RefSet(t) => write!(f, "REFSET(type {})", t.0),
        }
    }
}

/// A runtime attribute value.
///
/// `Null` is a member of every type (all attributes are nullable; the
/// catalog can mark attributes `NOT NULL`, enforced at DML time).
#[derive(Clone, PartialEq, Debug, Default)]
pub enum Value {
    /// Absent value.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Text(String),
    /// Bytes.
    Bytes(Vec<u8>),
    /// Single link. A dangling-free engine guarantees the target exists at
    /// insertion transaction time (referential checks are the catalog's job).
    Ref(AtomId),
    /// Set-valued link, kept sorted and deduplicated (canonical form so that
    /// value equality is structural).
    RefSet(Vec<AtomId>),
}

impl Value {
    /// Canonicalizing constructor for reference sets: sorts and dedups.
    pub fn ref_set<I: IntoIterator<Item = AtomId>>(ids: I) -> Value {
        let mut v: Vec<AtomId> = ids.into_iter().collect();
        v.sort();
        v.dedup();
        Value::RefSet(v)
    }

    /// True iff the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Checks this value against a declared type. `Null` matches anything.
    pub fn matches_type(&self, ty: &DataType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Bool(_), DataType::Bool) => true,
            (Value::Int(_), DataType::Int) => true,
            (Value::Float(_), DataType::Float) => true,
            (Value::Text(_), DataType::Text) => true,
            (Value::Bytes(_), DataType::Bytes) => true,
            (Value::Ref(a), DataType::Ref(t)) => a.ty == *t,
            (Value::RefSet(v), DataType::RefSet(t)) => v.iter().all(|a| a.ty == *t),
            _ => false,
        }
    }

    /// SQL-style three-valued comparison: `None` when either side is `Null`
    /// or the variants are incomparable. Ints and floats compare numerically.
    pub fn partial_cmp_sql(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Bytes(a), Bytes(b)) => Some(a.cmp(b)),
            (Ref(a), Ref(b)) => Some(a.cmp(b)),
            (RefSet(a), RefSet(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Equality under SQL three-valued logic: `None` when either side is
    /// `Null`.
    pub fn eq_sql(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            _ => Some(self.partial_cmp_sql(other) == Some(Ordering::Equal)),
        }
    }

    /// The members of a reference attribute: one for `Ref`, many for
    /// `RefSet`, empty otherwise.
    pub fn referenced_atoms(&self) -> &[AtomId] {
        match self {
            Value::Ref(a) => std::slice::from_ref(a),
            Value::RefSet(v) => v.as_slice(),
            _ => &[],
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bytes(b) => write!(f, "x'{}'", hex(b)),
            Value::Ref(a) => write!(f, "{a}"),
            Value::RefSet(v) => {
                write!(f, "{{")?;
                for (i, a) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Text(v)
    }
}
impl From<AtomId> for Value {
    fn from(v: AtomId) -> Value {
        Value::Ref(v)
    }
}

/// A tuple: the attribute values of one atom version, positionally aligned
/// with the atom type's attribute list.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple { values }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at attribute position `i` (panics out of range — callers go
    /// through schema validation first).
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Checked access.
    pub fn try_get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// Replaces the value at position `i`.
    pub fn set(&mut self, i: usize, v: Value) {
        self.values[i] = v;
    }

    /// All values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// All atoms referenced from any link attribute of this tuple.
    pub fn referenced_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.values
            .iter()
            .flat_map(|v| v.referenced_atoms().iter().copied())
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AtomNo, AtomTypeId};

    fn aid(ty: u32, no: u64) -> AtomId {
        AtomId::new(AtomTypeId(ty), AtomNo(no))
    }

    #[test]
    fn type_matching() {
        assert!(Value::Int(3).matches_type(&DataType::Int));
        assert!(!Value::Int(3).matches_type(&DataType::Text));
        assert!(Value::Null.matches_type(&DataType::Float));
        assert!(Value::Ref(aid(2, 1)).matches_type(&DataType::Ref(AtomTypeId(2))));
        assert!(!Value::Ref(aid(2, 1)).matches_type(&DataType::Ref(AtomTypeId(3))));
        let rs = Value::ref_set([aid(4, 1), aid(4, 2)]);
        assert!(rs.matches_type(&DataType::RefSet(AtomTypeId(4))));
        assert!(!rs.matches_type(&DataType::RefSet(AtomTypeId(5))));
    }

    #[test]
    fn ref_set_canonical() {
        let a = Value::ref_set([aid(1, 3), aid(1, 1), aid(1, 3), aid(1, 2)]);
        let b = Value::ref_set([aid(1, 1), aid(1, 2), aid(1, 3)]);
        assert_eq!(a, b);
    }

    #[test]
    fn three_valued_comparisons() {
        assert_eq!(
            Value::Int(3).partial_cmp_sql(&Value::Int(5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(3).partial_cmp_sql(&Value::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::Null.partial_cmp_sql(&Value::Int(5)), None);
        assert_eq!(
            Value::Int(1).partial_cmp_sql(&Value::Text("x".into())),
            None
        );
        assert_eq!(
            Value::Text("a".into()).eq_sql(&Value::Text("a".into())),
            Some(true)
        );
        assert_eq!(Value::Null.eq_sql(&Value::Null), None);
    }

    #[test]
    fn referenced_atoms_extraction() {
        let t = Tuple::new(vec![
            Value::Int(1),
            Value::Ref(aid(2, 9)),
            Value::ref_set([aid(3, 1), aid(3, 2)]),
            Value::Null,
        ]);
        let refs: Vec<AtomId> = t.referenced_atoms().collect();
        assert_eq!(refs, vec![aid(2, 9), aid(3, 1), aid(3, 2)]);
    }

    #[test]
    fn display_values() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Text("hi".into()).to_string(), "'hi'");
        assert_eq!(Value::Bytes(vec![0xde, 0xad]).to_string(), "x'dead'");
        assert_eq!(Value::Ref(aid(1, 2)).to_string(), "a1.2");
        assert_eq!(
            Value::ref_set([aid(1, 2), aid(1, 3)]).to_string(),
            "{a1.2,a1.3}"
        );
    }

    #[test]
    fn tuple_accessors() {
        let mut t: Tuple = [Value::Int(1), Value::from("x")].into_iter().collect();
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get(0), &Value::Int(1));
        assert_eq!(t.try_get(5), None);
        t.set(0, Value::Int(9));
        assert_eq!(t.get(0), &Value::Int(9));
    }
}
