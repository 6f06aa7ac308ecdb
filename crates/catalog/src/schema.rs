//! Schema objects: attribute and atom-type definitions.
//!
//! An *atom type* is the complex-object analogue of a relational table: a
//! named list of typed attributes. Link attributes (`REF` / `REFSET`) are
//! what lifts the model beyond flat relations — they are the edges along
//! which molecule types are defined.

use tcom_kernel::{AtomTypeId, AttrId, DataType, Error, Result, Tuple, Value};

/// Definition of one attribute.
#[derive(Clone, Debug, PartialEq)]
pub struct AttrDef {
    /// Attribute name, unique within the atom type.
    pub name: String,
    /// Declared type.
    pub ty: DataType,
    /// Whether `NULL` is rejected at DML time.
    pub not_null: bool,
    /// Whether a value index is maintained over this attribute
    /// (supported for `Bool`/`Int`/`Float`/`Text`).
    pub indexed: bool,
}

impl AttrDef {
    /// A nullable, unindexed attribute.
    pub fn new(name: impl Into<String>, ty: DataType) -> AttrDef {
        AttrDef {
            name: name.into(),
            ty,
            not_null: false,
            indexed: false,
        }
    }

    /// Marks the attribute `NOT NULL`.
    pub fn not_null(mut self) -> AttrDef {
        self.not_null = true;
        self
    }

    /// Requests a value index over the attribute.
    pub fn indexed(mut self) -> AttrDef {
        self.indexed = true;
        self
    }
}

/// Definition of an atom type.
#[derive(Clone, Debug, PartialEq)]
pub struct AtomTypeDef {
    /// Assigned id (stable across renames, never reused).
    pub id: AtomTypeId,
    /// Type name, unique within the catalog.
    pub name: String,
    /// Attribute list; ordinal positions are the [`AttrId`]s.
    pub attrs: Vec<AttrDef>,
}

impl AtomTypeDef {
    /// Validates internal consistency (names unique and non-empty, indexed
    /// attributes of indexable type).
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(Error::InvalidSchema(
                "atom type name must not be empty".into(),
            ));
        }
        if self.attrs.len() > u16::MAX as usize {
            return Err(Error::InvalidSchema("too many attributes".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for a in &self.attrs {
            if a.name.is_empty() {
                return Err(Error::InvalidSchema(format!(
                    "attribute of '{}' has empty name",
                    self.name
                )));
            }
            if !seen.insert(a.name.as_str()) {
                return Err(Error::InvalidSchema(format!(
                    "duplicate attribute '{}' in atom type '{}'",
                    a.name, self.name
                )));
            }
            if a.indexed
                && !matches!(
                    a.ty,
                    DataType::Bool | DataType::Int | DataType::Float | DataType::Text
                )
            {
                return Err(Error::InvalidSchema(format!(
                    "attribute '{}.{}' of type {} cannot be indexed",
                    self.name, a.name, a.ty
                )));
            }
            if a.indexed && a.ty.is_reference() {
                return Err(Error::InvalidSchema(format!(
                    "link attribute '{}.{}' cannot carry a value index",
                    self.name, a.name
                )));
            }
        }
        Ok(())
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Resolves an attribute by name.
    pub fn attr_by_name(&self, name: &str) -> Option<(AttrId, &AttrDef)> {
        self.attrs
            .iter()
            .position(|a| a.name == name)
            .map(|i| (AttrId(i as u16), &self.attrs[i]))
    }

    /// Attribute definition by id.
    pub fn attr(&self, id: AttrId) -> Result<&AttrDef> {
        self.attrs.get(id.0 as usize).ok_or_else(|| {
            Error::UnknownSchemaObject(format!("attribute #{} of '{}'", id.0, self.name))
        })
    }

    /// The link attributes (those of `REF`/`REFSET` type).
    pub(crate) fn link_attrs(&self) -> impl Iterator<Item = (AttrId, &AttrDef)> {
        self.attrs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.ty.is_reference())
            .map(|(i, a)| (AttrId(i as u16), a))
    }

    /// Checks a tuple against this type: arity, value types, `NOT NULL`.
    pub fn check_tuple(&self, tuple: &Tuple) -> Result<()> {
        if tuple.arity() != self.attrs.len() {
            return Err(Error::TypeMismatch(format!(
                "atom type '{}' has {} attributes, tuple has {}",
                self.name,
                self.attrs.len(),
                tuple.arity()
            )));
        }
        for (i, (v, a)) in tuple.values().iter().zip(&self.attrs).enumerate() {
            if !v.matches_type(&a.ty) {
                return Err(Error::TypeMismatch(format!(
                    "value {v} does not match type {} of attribute '{}.{}' (#{i})",
                    a.ty, self.name, a.name
                )));
            }
            if a.not_null && matches!(v, Value::Null) {
                return Err(Error::TypeMismatch(format!(
                    "attribute '{}.{}' is NOT NULL",
                    self.name, a.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcom_kernel::{AtomId, AtomNo};

    fn sample() -> AtomTypeDef {
        AtomTypeDef {
            id: AtomTypeId(1),
            name: "emp".into(),
            attrs: vec![
                AttrDef::new("name", DataType::Text).not_null(),
                AttrDef::new("salary", DataType::Int).indexed(),
                AttrDef::new("dept", DataType::Ref(AtomTypeId(0))),
            ],
        }
    }

    #[test]
    fn validation_accepts_sane_type() {
        sample().validate().unwrap();
    }

    #[test]
    fn validation_rejects_duplicates_and_bad_indexes() {
        let mut t = sample();
        t.attrs.push(AttrDef::new("name", DataType::Int));
        assert!(matches!(t.validate(), Err(Error::InvalidSchema(_))));

        let mut t = sample();
        t.attrs
            .push(AttrDef::new("blob", DataType::Bytes).indexed());
        assert!(t.validate().is_err());

        let mut t = sample();
        t.attrs[2].indexed = true; // link attribute index
        assert!(t.validate().is_err());

        let mut t = sample();
        t.name.clear();
        assert!(t.validate().is_err());
    }

    #[test]
    fn attr_lookup() {
        let t = sample();
        let (id, a) = t.attr_by_name("salary").unwrap();
        assert_eq!(id, AttrId(1));
        assert_eq!(a.ty, DataType::Int);
        assert!(t.attr_by_name("nope").is_none());
        assert!(t.attr(AttrId(9)).is_err());
        let links: Vec<_> = t.link_attrs().collect();
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].0, AttrId(2));
    }

    #[test]
    fn tuple_checking() {
        let t = sample();
        let ok = Tuple::new(vec![
            Value::from("ann"),
            Value::Int(100),
            Value::Ref(AtomId::new(AtomTypeId(0), AtomNo(1))),
        ]);
        t.check_tuple(&ok).unwrap();

        // wrong arity
        assert!(t.check_tuple(&Tuple::new(vec![Value::from("x")])).is_err());
        // wrong type
        let bad = Tuple::new(vec![Value::Int(1), Value::Int(2), Value::Null]);
        assert!(t.check_tuple(&bad).is_err());
        // NOT NULL violation
        let nn = Tuple::new(vec![Value::Null, Value::Int(2), Value::Null]);
        assert!(t.check_tuple(&nn).is_err());
        // wrong ref target type
        let wr = Tuple::new(vec![
            Value::from("bob"),
            Value::Null,
            Value::Ref(AtomId::new(AtomTypeId(5), AtomNo(1))),
        ]);
        assert!(t.check_tuple(&wr).is_err());
    }
}
