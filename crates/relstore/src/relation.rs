//! Relation storage: typed tuple arrays plus a unique key index.

use crate::error::{Result, StoreError};
use crate::fxhash::FxHashMap;
use crate::schema::RelationSchema;
use crate::tuple::{Tuple, TupleId};
use crate::value::Value;

/// One stored relation: its schema, tuples, and key index.
///
/// The key attribute (if declared) is always indexed and uniqueness is
/// enforced on insert. Foreign-key traversal does not read attribute
/// values at all: the catalog resolves every foreign-key value once into
/// a tuple-id column when linkage is finalized (see
/// [`Catalog::finalize`](crate::Catalog::finalize)).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: RelationSchema,
    tuples: Vec<Tuple>,
    /// Unique index on the key attribute (if the schema declares one).
    key_index: FxHashMap<Value, TupleId>,
}

impl Relation {
    /// Create an empty relation with the given schema.
    pub fn new(schema: RelationSchema) -> Self {
        Relation {
            schema,
            tuples: Vec::new(),
            key_index: FxHashMap::default(),
        }
    }

    /// This relation's tuples and key index under `schema`, which must
    /// give every attribute the type and the key role it has here: the
    /// tuples are shared, not copied, and not validated again.
    pub(crate) fn retyped(&self, schema: RelationSchema) -> Relation {
        debug_assert_eq!(schema.arity(), self.schema.arity());
        debug_assert_eq!(schema.key_index(), self.schema.key_index());
        Relation {
            schema,
            tuples: self.tuples.clone(),
            key_index: self.key_index.clone(),
        }
    }

    /// A relation of `schema`, whose only attribute is its key, holding
    /// one tuple per value of `keys` in order. The keys must be distinct,
    /// non-null and of the key's type.
    pub(crate) fn from_keys(schema: RelationSchema, keys: Vec<Value>) -> Relation {
        debug_assert_eq!((schema.arity(), schema.key_index()), (1, Some(0)));
        let mut key_index = FxHashMap::default();
        key_index.reserve(keys.len());
        for (i, k) in keys.iter().enumerate() {
            key_index.insert(k.clone(), TupleId(i as u32));
        }
        debug_assert_eq!(key_index.len(), keys.len(), "keys are not distinct");
        let tuples = keys.into_iter().map(|k| Tuple::from([k])).collect();
        Relation {
            schema,
            tuples,
            key_index,
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert a tuple, validating arity, types, and key uniqueness.
    pub fn insert(&mut self, tuple: Tuple) -> Result<TupleId> {
        if tuple.arity() != self.schema.arity() {
            return Err(StoreError::ArityMismatch {
                relation: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: tuple.arity(),
            });
        }
        for (i, attr) in self.schema.attributes.iter().enumerate() {
            let v = tuple.get(i);
            if !v.matches(attr.ty) {
                return Err(StoreError::TypeMismatch {
                    relation: self.schema.name.clone(),
                    attribute: attr.name.clone(),
                    expected: attr.ty.to_string(),
                    got: v
                        .attr_type()
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "null".into()),
                });
            }
        }
        let tid = TupleId(self.tuples.len() as u32);
        if let Some(k) = self.schema.key_index() {
            let key = tuple.get(k).clone();
            if key.is_null() {
                return Err(StoreError::TypeMismatch {
                    relation: self.schema.name.clone(),
                    attribute: self.schema.attributes[k].name.clone(),
                    expected: "non-null key".into(),
                    got: "null".into(),
                });
            }
            if self.key_index.contains_key(&key) {
                return Err(StoreError::DuplicateKey {
                    relation: self.schema.name.clone(),
                    key: key.to_string(),
                });
            }
            self.key_index.insert(key, tid); // distinct-lint: allow(D113, reason="primary-key index holds one entry per stored tuple for the corpus lifetime; dropped with the relation")
        }
        // distinct-lint: allow(D113, reason="tuple storage is the reference corpus itself: insert-only by design, freed when the relation is dropped")
        self.tuples.push(tuple);
        Ok(tid)
    }

    /// The tuple with the given id.
    #[inline]
    pub fn tuple(&self, tid: TupleId) -> &Tuple {
        &self.tuples[tid.index()]
    }

    /// All tuples with their ids, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &Tuple)> {
        self.tuples
            .iter()
            .enumerate()
            .map(|(i, t)| (TupleId(i as u32), t))
    }

    /// Look up a tuple by key value (requires a key attribute).
    pub fn by_key(&self, key: &Value) -> Option<TupleId> {
        self.key_index.get(key).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::AttrType;

    fn sample() -> Relation {
        let schema = SchemaBuilder::new("Proceedings")
            .key("proc_key", AttrType::Int)
            .fk("conference", AttrType::Str, "Conferences")
            .data("year", AttrType::Int)
            .build()
            .unwrap();
        let mut r = Relation::new(schema);
        r.insert([Value::Int(1), Value::str("VLDB"), Value::Int(1997)].into())
            .unwrap();
        r.insert([Value::Int(2), Value::str("SIGMOD"), Value::Int(2002)].into())
            .unwrap();
        r.insert([Value::Int(3), Value::str("VLDB"), Value::Int(2003)].into())
            .unwrap();
        r
    }

    #[test]
    fn insert_and_read_back() {
        let r = sample();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.tuple(TupleId(0)).get(1).as_str(), Some("VLDB"));
        assert_eq!(r.name(), "Proceedings");
    }

    #[test]
    fn key_lookup_and_uniqueness() {
        let mut r = sample();
        assert_eq!(r.by_key(&Value::Int(2)), Some(TupleId(1)));
        assert_eq!(r.by_key(&Value::Int(99)), None);
        let dup = r.insert([Value::Int(1), Value::str("KDD"), Value::Int(2004)].into());
        assert!(matches!(dup, Err(StoreError::DuplicateKey { .. })));
    }

    #[test]
    fn arity_and_type_validation() {
        let mut r = sample();
        let bad_arity = r.insert(Tuple::new(vec![Value::Int(9)]));
        assert!(matches!(bad_arity, Err(StoreError::ArityMismatch { .. })));
        let bad_type = r.insert([Value::str("oops"), Value::str("VLDB"), Value::Int(1997)].into());
        assert!(matches!(bad_type, Err(StoreError::TypeMismatch { .. })));
    }

    #[test]
    fn null_key_rejected() {
        let mut r = sample();
        let res = r.insert([Value::Null, Value::str("VLDB"), Value::Int(2000)].into());
        assert!(res.is_err());
    }
}
