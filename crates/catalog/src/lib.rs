//! # tcom-catalog
//!
//! The schema layer of the tcom engine: atom types with typed (including
//! link) attributes, molecule types (rooted digraphs over atom types that
//! define complex objects), and durable catalog persistence.

#![warn(missing_docs)]

mod catalog;
mod molecule;
mod schema;

pub use catalog::Catalog;
pub use molecule::{MoleculeEdge, MoleculeTypeDef};
pub use schema::{AtomTypeDef, AttrDef};
