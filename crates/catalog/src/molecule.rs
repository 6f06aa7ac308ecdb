//! Molecule types: dynamically-defined complex-object structures.
//!
//! A molecule type is a rooted, connected digraph whose vertices are atom
//! types and whose edges name link attributes: "a `department` molecule is
//! a `dept` atom, its `employs` set of `emp` atoms, and each employee's
//! `works_on` set of `project` atoms". Materializing a molecule follows
//! these edges from a root atom, slicing every member at the same
//! bitemporal point — complex objects are *derived*, not stored, which is
//! the defining trait of the molecule-atom data model.
//!
//! Cycles are allowed (`part -[components]-> part` defines recursive
//! bill-of-material molecules); materialization guards against revisits.

use tcom_kernel::{AtomTypeId, AttrId, Error, MoleculeTypeId, Result};

/// One edge of a molecule graph: follow link attribute `attr` of atoms of
/// `from` to reach child atoms of `to`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MoleculeEdge {
    /// Source atom type.
    pub from: AtomTypeId,
    /// Link attribute of `from` to dereference.
    pub attr: AttrId,
    /// Target atom type (must equal the attribute's declared target).
    pub to: AtomTypeId,
}

/// Definition of a molecule type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MoleculeTypeDef {
    /// Assigned id.
    pub id: MoleculeTypeId,
    /// Name, unique within the catalog.
    pub name: String,
    /// Root atom type: molecules of this type are rooted at these atoms.
    pub root: AtomTypeId,
    /// The edges of the molecule graph.
    pub edges: Vec<MoleculeEdge>,
    /// Depth bound for recursive molecule graphs (`None` = only the
    /// revisit guard limits traversal).
    pub max_depth: Option<u32>,
}

impl MoleculeTypeDef {
    /// Validates structural consistency: no duplicate edges, and every
    /// edge's source reachable from the root (connectedness).
    ///
    /// Attribute-level checks (the edge attribute exists, is a link, and
    /// targets `to`) need the atom-type definitions and live in
    /// [`crate::Catalog::define_molecule_type`].
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(Error::InvalidSchema(
                "molecule type name must not be empty".into(),
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for e in &self.edges {
            if !seen.insert((e.from, e.attr)) {
                return Err(Error::InvalidSchema(format!(
                    "duplicate molecule edge from type {} attr {} in '{}'",
                    e.from.0, e.attr.0, self.name
                )));
            }
        }
        // Reachability from the root over the edge graph.
        let mut reach = std::collections::HashSet::from([self.root]);
        let mut grew = true;
        while grew {
            grew = false;
            for e in &self.edges {
                if reach.contains(&e.from) && reach.insert(e.to) {
                    grew = true;
                }
            }
        }
        for e in &self.edges {
            if !reach.contains(&e.from) {
                return Err(Error::InvalidSchema(format!(
                    "molecule '{}' edge from type {} is not reachable from the root",
                    self.name, e.from.0
                )));
            }
        }
        if self.max_depth == Some(0) {
            return Err(Error::InvalidSchema(format!(
                "molecule '{}' max_depth must be at least 1",
                self.name
            )));
        }
        Ok(())
    }

    /// The outgoing edges of `ty` within this molecule graph.
    pub fn edges_from(&self, ty: AtomTypeId) -> impl Iterator<Item = &MoleculeEdge> {
        self.edges.iter().filter(move |e| e.from == ty)
    }

    /// All atom types participating in the molecule.
    fn member_types(&self) -> Vec<AtomTypeId> {
        let mut v = vec![self.root];
        for e in &self.edges {
            v.push(e.from);
            v.push(e.to);
        }
        v.sort();
        v.dedup();
        v
    }

    /// True iff the molecule graph has a cycle (recursive molecule type).
    pub(crate) fn is_recursive(&self) -> bool {
        // DFS cycle detection over the (small) type graph.
        let types = self.member_types();
        let idx = |t: AtomTypeId| types.binary_search(&t).expect("member type");
        let n = types.len();
        // 0 = white, 1 = gray, 2 = black
        let mut color = vec![0u8; n];
        let mut stack: Vec<(usize, usize)> = Vec::new(); // (node, edge cursor)
        let adj: Vec<Vec<usize>> = types
            .iter()
            .map(|t| self.edges_from(*t).map(|e| idx(e.to)).collect())
            .collect();
        for s in 0..n {
            if color[s] != 0 {
                continue;
            }
            color[s] = 1;
            stack.push((s, 0));
            while let Some(&mut (u, ref mut cur)) = stack.last_mut() {
                if *cur < adj[u].len() {
                    let v = adj[u][*cur];
                    *cur += 1;
                    match color[v] {
                        0 => {
                            color[v] = 1;
                            stack.push((v, 0));
                        }
                        1 => return true,
                        _ => {}
                    }
                } else {
                    color[u] = 2;
                    stack.pop();
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(from: u32, attr: u16, to: u32) -> MoleculeEdge {
        MoleculeEdge {
            from: AtomTypeId(from),
            attr: AttrId(attr),
            to: AtomTypeId(to),
        }
    }

    fn dept_emp_proj() -> MoleculeTypeDef {
        MoleculeTypeDef {
            id: MoleculeTypeId(0),
            name: "dept_emp_proj".into(),
            root: AtomTypeId(0),
            edges: vec![edge(0, 2, 1), edge(1, 3, 2)],
            max_depth: None,
        }
    }

    #[test]
    fn valid_linear_molecule() {
        let m = dept_emp_proj();
        m.validate().unwrap();
        assert_eq!(
            m.member_types(),
            vec![AtomTypeId(0), AtomTypeId(1), AtomTypeId(2)]
        );
        assert!(!m.is_recursive());
        assert_eq!(m.edges_from(AtomTypeId(1)).count(), 1);
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut m = dept_emp_proj();
        m.edges.push(edge(0, 2, 1));
        assert!(m.validate().is_err());
    }

    #[test]
    fn rejects_disconnected_edge() {
        let mut m = dept_emp_proj();
        m.edges.push(edge(7, 0, 8));
        assert!(m.validate().is_err());
    }

    #[test]
    fn recursive_molecule_detected() {
        let m = MoleculeTypeDef {
            id: MoleculeTypeId(1),
            name: "bom".into(),
            root: AtomTypeId(4),
            edges: vec![edge(4, 1, 4)],
            max_depth: Some(8),
        };
        m.validate().unwrap();
        assert!(m.is_recursive());
        assert_eq!(m.member_types(), vec![AtomTypeId(4)]);
    }

    #[test]
    fn diamond_is_not_a_cycle() {
        // root -> a, root -> b, a -> c, b -> c
        let m = MoleculeTypeDef {
            id: MoleculeTypeId(2),
            name: "diamond".into(),
            root: AtomTypeId(0),
            edges: vec![edge(0, 0, 1), edge(0, 1, 2), edge(1, 0, 3), edge(2, 0, 3)],
            max_depth: None,
        };
        m.validate().unwrap();
        assert!(!m.is_recursive());
    }

    #[test]
    fn rejects_zero_depth_and_empty_name() {
        let mut m = dept_emp_proj();
        m.max_depth = Some(0);
        assert!(m.validate().is_err());
        let mut m = dept_emp_proj();
        m.name.clear();
        assert!(m.validate().is_err());
    }
}
