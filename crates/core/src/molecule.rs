//! Molecule materialization: assembling complex objects from atoms at a
//! bitemporal point, and molecule histories.
//!
//! A molecule is *derived*: starting from a root atom version visible at
//! `(tt, vt)`, the engine dereferences the link attributes named by the
//! molecule type's edges, slicing every reached atom at the same
//! bitemporal point. References to atoms that are not visible at the point
//! (deleted, not yet inserted, or outside their valid time) are silently
//! skipped — temporal dangling references are a *feature* of the model:
//! the 1990 department molecule simply no longer contains the employee who
//! left in 1991.
//!
//! Recursive molecule types (cyclic type graphs, e.g. part-of hierarchies)
//! are materialized with an ancestor guard (an atom never appears inside
//! its own subtree) and the molecule type's optional depth bound.

use crate::db::Database;
use std::collections::HashSet;
use tcom_catalog::MoleculeTypeDef;
use tcom_kernel::{AtomId, AttrId, MoleculeTypeId, Result, TimePoint};
use tcom_version::record::AtomVersion;

/// One materialized atom inside a molecule.
#[derive(Clone, Debug, PartialEq)]
pub struct MatAtom {
    /// The atom's identity.
    pub id: AtomId,
    /// The version visible at the molecule's bitemporal point.
    pub version: AtomVersion,
    /// Children grouped by the link attribute they were reached through.
    pub children: Vec<(AttrId, Vec<MatAtom>)>,
}

impl MatAtom {
    /// Total number of atoms in this subtree (including `self`).
    pub fn size(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|(_, kids)| kids.iter().map(MatAtom::size).sum::<usize>())
            .sum::<usize>()
    }

    /// Depth of this subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .flat_map(|(_, kids)| kids.iter().map(MatAtom::depth))
            .max()
            .unwrap_or(0)
    }

    /// Depth-first pre-order visit of every atom in the subtree.
    pub fn visit(&self, f: &mut impl FnMut(&MatAtom)) {
        f(self);
        for (_, kids) in &self.children {
            for k in kids {
                k.visit(f);
            }
        }
    }
}

/// A materialized molecule.
#[derive(Clone, Debug, PartialEq)]
pub struct Molecule {
    /// The molecule type this instance belongs to.
    pub mol_type: MoleculeTypeId,
    /// The bitemporal point of materialization (transaction time).
    pub tt: TimePoint,
    /// The bitemporal point of materialization (valid time).
    pub vt: TimePoint,
    /// The root atom with its transitively assembled components.
    pub root: MatAtom,
}

impl Molecule {
    /// Number of atoms in the molecule.
    pub fn size(&self) -> usize {
        self.root.size()
    }
}

impl Database {
    /// Materializes the molecule rooted at `root` at bitemporal point
    /// `(tt, vt)`. Returns `None` when the root atom itself is not visible
    /// at that point.
    pub fn materialize(
        &self,
        mol_type: MoleculeTypeId,
        root: AtomId,
        tt: TimePoint,
        vt: TimePoint,
    ) -> Result<Option<Molecule>> {
        let _span = self.obs().span("molecule.materialize");
        let def = self.with_catalog(|c| c.molecule_type(mol_type).cloned())?;
        if root.ty != def.root {
            return Err(tcom_kernel::Error::query(format!(
                "atom {root} is not of molecule '{}' root type",
                def.name
            )));
        }
        let mut ancestors = HashSet::new();
        let mat = self.mat_atom(&def, root, tt, vt, 1, &mut ancestors)?;
        Ok(mat.map(|root| Molecule {
            mol_type,
            tt,
            vt,
            root,
        }))
    }

    /// Materializes the molecule as of *now* (current transaction time).
    pub fn materialize_current(
        &self,
        mol_type: MoleculeTypeId,
        root: AtomId,
        vt: TimePoint,
    ) -> Result<Option<Molecule>> {
        self.materialize(mol_type, root, self.now(), vt)
    }

    fn mat_atom(
        &self,
        def: &MoleculeTypeDef,
        atom: AtomId,
        tt: TimePoint,
        vt: TimePoint,
        depth: u32,
        ancestors: &mut HashSet<AtomId>,
    ) -> Result<Option<MatAtom>> {
        let Some(version) = self.version_at(atom, tt, vt)? else {
            return Ok(None);
        };
        let mut children = Vec::new();
        if def.max_depth.is_none_or(|d| depth < d) {
            ancestors.insert(atom);
            for edge in def.edges_from(atom.ty) {
                let value = version.tuple.get(edge.attr.0 as usize);
                let mut kids = Vec::new();
                for child in value.referenced_atoms() {
                    if ancestors.contains(child) {
                        continue; // cycle guard: no atom inside its own subtree
                    }
                    if let Some(kid) = self.mat_atom(def, *child, tt, vt, depth + 1, ancestors)? {
                        kids.push(kid);
                    }
                }
                if !kids.is_empty() {
                    children.push((edge.attr, kids));
                }
            }
            ancestors.remove(&atom);
        }
        Ok(Some(MatAtom {
            id: atom,
            version,
            children,
        }))
    }

    /// The transaction-time points at which `molecule_history` samples a
    /// molecule within `[from, to)`: `from` itself, plus every `tt` in the
    /// window at which the materialization (membership or any member's
    /// content) may differ from the preceding instant.
    ///
    /// Computed as a fixpoint: starting from `from` and the root's version
    /// boundaries, each materialization contributes its members'
    /// boundaries until no new change point appears.
    fn molecule_change_points(
        &self,
        mol_type: MoleculeTypeId,
        root: AtomId,
        vt: TimePoint,
        from: TimePoint,
        to: TimePoint,
    ) -> Result<Vec<TimePoint>> {
        let in_range = |t: TimePoint| t >= from && t < to;
        let mut points: HashSet<TimePoint> = HashSet::new();
        if from < to {
            points.insert(from);
        }
        let add_atom_boundaries = |points: &mut HashSet<TimePoint>, atom: AtomId| -> Result<()> {
            for v in self.history(atom)? {
                if in_range(v.tt.start()) {
                    points.insert(v.tt.start());
                }
                if !v.tt.end().is_forever() && in_range(v.tt.end()) {
                    points.insert(v.tt.end());
                }
            }
            Ok(())
        };
        add_atom_boundaries(&mut points, root)?;
        let mut known_members: HashSet<AtomId> = HashSet::from([root]);
        loop {
            let snapshot: Vec<TimePoint> = points.iter().copied().collect();
            let mut grew = false;
            for t in snapshot {
                if let Some(m) = self.materialize(mol_type, root, t, vt)? {
                    let mut members = Vec::new();
                    m.root.visit(&mut |a| members.push(a.id));
                    for a in members {
                        if known_members.insert(a) {
                            add_atom_boundaries(&mut points, a)?;
                            grew = true;
                        }
                    }
                }
            }
            if !grew {
                break;
            }
        }
        let mut out: Vec<TimePoint> = points.into_iter().collect();
        out.sort();
        Ok(out)
    }

    /// The molecule's history within `[from, to)`: its state at `from`,
    /// then one materialization per later change point (points where the
    /// root is invisible yield no entry).
    pub fn molecule_history(
        &self,
        mol_type: MoleculeTypeId,
        root: AtomId,
        vt: TimePoint,
        from: TimePoint,
        to: TimePoint,
    ) -> Result<Vec<(TimePoint, Molecule)>> {
        let points = self.molecule_change_points(mol_type, root, vt, from, to)?;
        let mut out = Vec::with_capacity(points.len());
        for t in points {
            if let Some(m) = self.materialize(mol_type, root, t, vt)? {
                out.push((t, m));
            }
        }
        Ok(out)
    }
}
