//! # tcom-kernel
//!
//! Foundation types shared by every crate of the `tcom` temporal
//! complex-object database engine: the temporal domain ([`time`]), the
//! value model ([`Value`], [`Tuple`]), identifier newtypes ([`AtomId`] and
//! its kin), the engine-wide [`Error`], the binary record codec ([`codec`])
//! and the wire frame ([`frame`]).
//!
//! Nothing in this crate performs I/O; it is pure data-model code with
//! exhaustive unit and property tests.

#![warn(missing_docs)]

pub mod codec;
mod error;
pub mod frame;
mod ids;
pub mod time;
mod value;

pub use error::{Error, Result};
pub use ids::{
    AtomId, AtomNo, AtomTypeId, AttrId, Lsn, MoleculeTypeId, PageId, RecordId, SlotId, TxnId,
};
pub use time::{Interval, TemporalElement, TimePoint};
pub use value::{DataType, Tuple, Value};
