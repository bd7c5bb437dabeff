//! # relstore — in-memory relational database substrate
//!
//! The relational foundation of the DISTINCT reproduction (Yin, Han, Yu,
//! *Object Distinction*, ICDE 2007). DISTINCT assumes "the data is stored
//! in a relational database"; this crate is that database:
//!
//! * typed [`Value`]s, [`Tuple`]s, and [`RelationSchema`]s with keys and
//!   foreign keys ([`schema`], [`value`], [`mod@tuple`]);
//! * [`Relation`] storage with a unique key index ([`relation`]);
//! * a [`Catalog`] linking relations through foreign-key edges, each
//!   value resolved once into a column of target tuple ids ([`FkLinks`])
//!   whose transpose serves backward (one-to-many) traversal as the column
//!   serves forward (many-to-one) traversal ([`catalog`]);
//! * the [`JoinPath`] model and exhaustive path enumeration ([`join`]);
//! * attribute-value expansion turning each data value into a pseudo-tuple
//!   ([`expand`], paper §2.1);
//! * CSV import/export ([`csv`]) and whole-catalog persistence
//!   ([`persist`]).
//!
//! ```
//! use relstore::{Catalog, SchemaBuilder, AttrType, Value};
//!
//! let mut db = Catalog::new();
//! db.add_relation(SchemaBuilder::new("Venues").key("venue", AttrType::Str).build()?)?;
//! db.add_relation(
//!     SchemaBuilder::new("Papers")
//!         .key("paper", AttrType::Int)
//!         .fk("venue", AttrType::Str, "Venues")
//!         .build()?,
//! )?;
//! db.insert("Venues", [Value::str("VLDB")].into())?;
//! db.insert("Papers", [Value::Int(1), Value::str("VLDB")].into())?;
//! db.finalize(true)?;
//! assert_eq!(db.fk_edges().len(), 1);
//! # Ok::<(), relstore::StoreError>(())
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod csv;
pub mod error;
pub mod expand;
pub mod faults;
pub mod fxhash;
pub mod join;
pub mod persist;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use catalog::{Catalog, FkEdge, FkId, FkLinks};
pub use error::{Result, StoreError};
pub use expand::{expand_values, Expanded, ExpandedAttr};
pub use faults::{Fault, FaultKind, FaultPlan, FaultyVfs, StdVfs, Vfs};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use join::{enumerate_paths, Direction, JoinPath, JoinStep, PathEnumOptions};
pub use persist::{
    fnv1a64, load_catalog, load_catalog_with, save_catalog, save_catalog_with, write_atomic,
    Manifest, ManifestEntry,
};
pub use relation::Relation;
pub use schema::{AttrRole, Attribute, RelationSchema, SchemaBuilder};
pub use tuple::{RelId, Tuple, TupleId, TupleRef};
pub use value::{AttrType, Value};
