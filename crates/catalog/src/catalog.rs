//! The catalog: the registry of atom types and molecule types, and its
//! binary image ([`Catalog::encode`], [`Catalog::decode`]). The engine
//! stores the image in its control file; the catalog does no I/O.

use crate::molecule::{MoleculeEdge, MoleculeTypeDef};
use crate::schema::{AtomTypeDef, AttrDef};
use std::collections::HashMap;
use tcom_kernel::codec::{Decoder, Encoder};
use tcom_kernel::{AtomTypeId, AttrId, DataType, Error, MoleculeTypeId, Result};

/// The schema registry.
#[derive(Default, Clone)]
pub struct Catalog {
    atom_types: Vec<AtomTypeDef>,
    molecule_types: Vec<MoleculeTypeDef>,
    atom_by_name: HashMap<String, AtomTypeId>,
    mol_by_name: HashMap<String, MoleculeTypeId>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    // ---- atom types ----

    /// Defines a new atom type and returns its id.
    pub fn define_atom_type(
        &mut self,
        name: impl Into<String>,
        attrs: Vec<AttrDef>,
    ) -> Result<AtomTypeId> {
        let name = name.into();
        if self.atom_by_name.contains_key(&name) {
            return Err(Error::InvalidSchema(format!(
                "atom type '{name}' already exists"
            )));
        }
        let id = AtomTypeId(self.atom_types.len() as u32);
        let def = AtomTypeDef {
            id,
            name: name.clone(),
            attrs,
        };
        def.validate()?;
        // Link attributes must target *existing* types, or the type itself
        // (self-reference supports recursive structures like BOMs).
        for (_, a) in def.link_attrs() {
            let target = a.ty.ref_target().expect("link attr");
            if target != id && self.atom_type(target).is_err() {
                return Err(Error::InvalidSchema(format!(
                    "attribute '{}.{}' targets unknown atom type {}",
                    def.name, a.name, target.0
                )));
            }
        }
        self.atom_types.push(def);
        self.atom_by_name.insert(name, id);
        Ok(id)
    }

    /// Atom type by id.
    pub fn atom_type(&self, id: AtomTypeId) -> Result<&AtomTypeDef> {
        self.atom_types
            .get(id.0 as usize)
            .ok_or_else(|| Error::UnknownSchemaObject(format!("atom type #{}", id.0)))
    }

    /// Atom type by name.
    pub fn atom_type_by_name(&self, name: &str) -> Result<&AtomTypeDef> {
        let id = self
            .atom_by_name
            .get(name)
            .ok_or_else(|| Error::UnknownSchemaObject(format!("atom type '{name}'")))?;
        self.atom_type(*id)
    }

    /// All atom types in definition order.
    pub fn atom_types(&self) -> &[AtomTypeDef] {
        &self.atom_types
    }

    // ---- molecule types ----

    /// Defines a molecule type, fully validating every edge against the
    /// atom-type definitions.
    pub fn define_molecule_type(
        &mut self,
        name: impl Into<String>,
        root: AtomTypeId,
        edges: Vec<MoleculeEdge>,
        max_depth: Option<u32>,
    ) -> Result<MoleculeTypeId> {
        let name = name.into();
        if self.mol_by_name.contains_key(&name) {
            return Err(Error::InvalidSchema(format!(
                "molecule type '{name}' already exists"
            )));
        }
        self.atom_type(root)?;
        let id = MoleculeTypeId(self.molecule_types.len() as u32);
        let def = MoleculeTypeDef {
            id,
            name: name.clone(),
            root,
            edges,
            max_depth,
        };
        def.validate()?;
        for e in &def.edges {
            let from = self.atom_type(e.from)?;
            let attr = from.attr(e.attr)?;
            let target = attr.ty.ref_target().ok_or_else(|| {
                Error::InvalidSchema(format!(
                    "molecule '{}' edge uses non-link attribute '{}.{}'",
                    def.name, from.name, attr.name
                ))
            })?;
            if target != e.to {
                return Err(Error::InvalidSchema(format!(
                    "molecule '{}' edge '{}.{}' targets type {} but declares {}",
                    def.name, from.name, attr.name, target.0, e.to.0
                )));
            }
            self.atom_type(e.to)?;
        }
        if def.is_recursive() && def.max_depth.is_none() {
            // Permitted — the engine's revisit guard bounds traversal — but
            // most schemas want an explicit bound; nothing to enforce here.
        }
        self.molecule_types.push(def);
        self.mol_by_name.insert(name, id);
        Ok(id)
    }

    /// Molecule type by id.
    pub fn molecule_type(&self, id: MoleculeTypeId) -> Result<&MoleculeTypeDef> {
        self.molecule_types
            .get(id.0 as usize)
            .ok_or_else(|| Error::UnknownSchemaObject(format!("molecule type #{}", id.0)))
    }

    /// Molecule type by name.
    pub fn molecule_type_by_name(&self, name: &str) -> Result<&MoleculeTypeDef> {
        let id = self
            .mol_by_name
            .get(name)
            .ok_or_else(|| Error::UnknownSchemaObject(format!("molecule type '{name}'")))?;
        self.molecule_type(*id)
    }

    /// All molecule types in definition order.
    pub fn molecule_types(&self) -> &[MoleculeTypeDef] {
        &self.molecule_types
    }

    // ---- image ----

    /// The catalog's binary image.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(1024);
        e.put_u64(self.atom_types.len() as u64);
        for t in &self.atom_types {
            e.put_str(&t.name);
            e.put_u64(t.attrs.len() as u64);
            for a in &t.attrs {
                e.put_str(&a.name);
                encode_type(&mut e, &a.ty);
                e.put_u8(a.not_null as u8);
                e.put_u8(a.indexed as u8);
            }
        }
        e.put_u64(self.molecule_types.len() as u64);
        for m in &self.molecule_types {
            e.put_str(&m.name);
            e.put_u64(m.root.0 as u64);
            e.put_u64(m.edges.len() as u64);
            for edge in &m.edges {
                e.put_u64(edge.from.0 as u64);
                e.put_u64(edge.attr.0 as u64);
                e.put_u64(edge.to.0 as u64);
            }
            match m.max_depth {
                None => e.put_u8(0),
                Some(d) => {
                    e.put_u8(1);
                    e.put_u64(d as u64);
                }
            }
        }
        e.finish()
    }

    /// Rebuilds a catalog from its [`Catalog::encode`] image, revalidating
    /// every definition. A damaged or hostile image is an `Err`.
    pub fn decode(body: &[u8]) -> Result<Catalog> {
        let mut d = Decoder::new(body);
        let mut cat = Catalog::new();
        let n_types = d.get_u64()? as usize;
        for _ in 0..n_types {
            let name = d.get_str()?.to_owned();
            let n_attrs = d.get_u64()? as usize;
            if n_attrs > d.remaining() {
                return Err(Error::corruption(
                    "attribute count exceeds the catalog image",
                ));
            }
            let mut attrs = Vec::with_capacity(n_attrs);
            for _ in 0..n_attrs {
                let aname = d.get_str()?.to_owned();
                let ty = decode_type(&mut d)?;
                let not_null = d.get_u8()? != 0;
                let indexed = d.get_u8()? != 0;
                attrs.push(AttrDef {
                    name: aname,
                    ty,
                    not_null,
                    indexed,
                });
            }
            cat.define_atom_type(name, attrs)?;
        }
        let n_mols = d.get_u64()? as usize;
        for _ in 0..n_mols {
            let name = d.get_str()?.to_owned();
            let root = AtomTypeId(d.get_u64()? as u32);
            let n_edges = d.get_u64()? as usize;
            if n_edges > d.remaining() {
                return Err(Error::corruption("edge count exceeds the catalog image"));
            }
            let mut edges = Vec::with_capacity(n_edges);
            for _ in 0..n_edges {
                edges.push(MoleculeEdge {
                    from: AtomTypeId(d.get_u64()? as u32),
                    attr: AttrId(d.get_u64()? as u16),
                    to: AtomTypeId(d.get_u64()? as u32),
                });
            }
            let max_depth = if d.get_u8()? != 0 {
                Some(d.get_u64()? as u32)
            } else {
                None
            };
            cat.define_molecule_type(name, root, edges, max_depth)?;
        }
        if !d.is_exhausted() {
            return Err(Error::corruption("trailing bytes in the catalog image"));
        }
        Ok(cat)
    }
}

fn encode_type(e: &mut Encoder, ty: &DataType) {
    match ty {
        DataType::Bool => e.put_u8(0),
        DataType::Int => e.put_u8(1),
        DataType::Float => e.put_u8(2),
        DataType::Text => e.put_u8(3),
        DataType::Bytes => e.put_u8(4),
        DataType::Ref(t) => {
            e.put_u8(5);
            e.put_u64(t.0 as u64);
        }
        DataType::RefSet(t) => {
            e.put_u8(6);
            e.put_u64(t.0 as u64);
        }
    }
}

fn decode_type(d: &mut Decoder) -> Result<DataType> {
    Ok(match d.get_u8()? {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        4 => DataType::Bytes,
        5 => DataType::Ref(AtomTypeId(d.get_u64()? as u32)),
        6 => DataType::RefSet(AtomTypeId(d.get_u64()? as u32)),
        t => return Err(Error::corruption(format!("unknown data type tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn university() -> Catalog {
        let mut c = Catalog::new();
        let dept = c
            .define_atom_type(
                "dept",
                vec![
                    AttrDef::new("name", DataType::Text).not_null(),
                    AttrDef::new("budget", DataType::Int).indexed(),
                ],
            )
            .unwrap();
        let proj = c
            .define_atom_type("proj", vec![AttrDef::new("title", DataType::Text)])
            .unwrap();
        let emp = c
            .define_atom_type(
                "emp",
                vec![
                    AttrDef::new("name", DataType::Text).not_null(),
                    AttrDef::new("salary", DataType::Int).indexed(),
                    AttrDef::new("works_on", DataType::RefSet(proj)),
                ],
            )
            .unwrap();
        // dept gets an `employs` refset added through a fresh type to keep
        // ids simple: use a 4th type to host molecule root.
        let _ = c
            .define_atom_type(
                "org",
                vec![
                    AttrDef::new("depts", DataType::RefSet(dept)),
                    AttrDef::new("staff", DataType::RefSet(emp)),
                ],
            )
            .unwrap();
        c
    }

    #[test]
    fn define_and_lookup() {
        let c = university();
        assert_eq!(c.atom_types().len(), 4);
        assert_eq!(c.atom_type_by_name("emp").unwrap().id, AtomTypeId(2));
        assert!(c.atom_type_by_name("ghost").is_err());
        assert!(c.atom_type(AtomTypeId(99)).is_err());
    }

    #[test]
    fn duplicate_type_rejected() {
        let mut c = university();
        assert!(c.define_atom_type("dept", vec![]).is_err());
    }

    #[test]
    fn dangling_ref_target_rejected() {
        let mut c = Catalog::new();
        let r = c.define_atom_type(
            "orphan",
            vec![AttrDef::new("link", DataType::Ref(AtomTypeId(42)))],
        );
        assert!(r.is_err());
    }

    #[test]
    fn self_reference_allowed() {
        let mut c = Catalog::new();
        // A self-referential type: its id will be 0.
        let id = c
            .define_atom_type(
                "part",
                vec![AttrDef::new("components", DataType::RefSet(AtomTypeId(0)))],
            )
            .unwrap();
        assert_eq!(id, AtomTypeId(0));
    }

    #[test]
    fn molecule_definition_validated() {
        let mut c = university();
        let emp = c.atom_type_by_name("emp").unwrap().id;
        let proj = c.atom_type_by_name("proj").unwrap().id;
        let org = c.atom_type_by_name("org").unwrap().id;
        let dept = c.atom_type_by_name("dept").unwrap().id;

        // Valid: org -[staff]-> emp -[works_on]-> proj
        let m = c
            .define_molecule_type(
                "org_staff",
                org,
                vec![
                    MoleculeEdge {
                        from: org,
                        attr: AttrId(1),
                        to: emp,
                    },
                    MoleculeEdge {
                        from: emp,
                        attr: AttrId(2),
                        to: proj,
                    },
                ],
                None,
            )
            .unwrap();
        assert_eq!(c.molecule_type(m).unwrap().name, "org_staff");
        assert_eq!(c.molecule_type_by_name("org_staff").unwrap().id, m);

        // Edge over a non-link attribute.
        let r = c.define_molecule_type(
            "bad1",
            org,
            vec![MoleculeEdge {
                from: emp,
                attr: AttrId(0),
                to: proj,
            }],
            None,
        );
        assert!(r.is_err());

        // Edge declaring the wrong target type.
        let r = c.define_molecule_type(
            "bad2",
            org,
            vec![MoleculeEdge {
                from: org,
                attr: AttrId(1),
                to: dept,
            }],
            None,
        );
        assert!(r.is_err());

        // Unknown root.
        let r = c.define_molecule_type("bad3", AtomTypeId(77), vec![], None);
        assert!(r.is_err());

        // Duplicate name.
        let r = c.define_molecule_type("org_staff", org, vec![], None);
        assert!(r.is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut c = university();
        let org = c.atom_type_by_name("org").unwrap().id;
        let emp = c.atom_type_by_name("emp").unwrap().id;
        let proj = c.atom_type_by_name("proj").unwrap().id;
        c.define_molecule_type(
            "org_staff",
            org,
            vec![
                MoleculeEdge {
                    from: org,
                    attr: AttrId(1),
                    to: emp,
                },
                MoleculeEdge {
                    from: emp,
                    attr: AttrId(2),
                    to: proj,
                },
            ],
            Some(5),
        )
        .unwrap();
        let back = Catalog::decode(&c.encode()).unwrap();
        assert_eq!(back.atom_types(), c.atom_types());
        assert_eq!(back.molecule_types(), c.molecule_types());
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_bytes() {
        let image = university().encode();
        for len in 0..image.len() {
            assert!(
                Catalog::decode(&image[..len]).is_err(),
                "truncation to {len}"
            );
        }
        let mut longer = image.clone();
        longer.push(0);
        assert!(Catalog::decode(&longer).is_err());
    }

    /// Hostile attribute and edge counts are errors, not huge allocations.
    #[test]
    fn decode_rejects_hostile_counts() {
        let mut e = Encoder::new();
        e.put_u64(1);
        e.put_str("t");
        e.put_u64(u64::MAX);
        assert!(Catalog::decode(&e.finish()).is_err());

        let mut e = Encoder::new();
        e.put_u64(1);
        e.put_str("t");
        e.put_u64(0);
        e.put_u64(1);
        e.put_str("m");
        e.put_u64(0);
        e.put_u64(u64::MAX);
        assert!(Catalog::decode(&e.finish()).is_err());
    }
}
