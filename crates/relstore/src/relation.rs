//! Relation storage: typed tuple arrays plus key and secondary hash indexes.

use crate::error::{Result, StoreError};
use crate::fxhash::FxHashMap;
use crate::schema::RelationSchema;
use crate::tuple::{Tuple, TupleId};
use crate::value::Value;

/// One stored relation: its schema, tuples, and indexes.
///
/// The key attribute (if declared) is always indexed and uniqueness is
/// enforced on insert. Additional attributes can be indexed on demand with
/// [`Relation::build_index`]; foreign-key attributes are indexed by the
/// catalog when linkage is finalized, since reverse foreign-key traversal
/// (`target -> referrers`) is the hot operation of join-path propagation.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: RelationSchema,
    tuples: Vec<Tuple>,
    /// Unique index on the key attribute (if the schema declares one).
    key_index: FxHashMap<Value, TupleId>,
    /// Secondary (non-unique) indexes: attribute position -> value -> tuple ids.
    secondary: FxHashMap<usize, FxHashMap<Value, Vec<TupleId>>>,
}

impl Relation {
    /// Create an empty relation with the given schema.
    pub fn new(schema: RelationSchema) -> Self {
        Relation {
            schema,
            tuples: Vec::new(),
            key_index: FxHashMap::default(),
            secondary: FxHashMap::default(),
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
        // Maintain any already-built secondary indexes. Iteration order over
        // the index map is irrelevant: each pass touches a different index,
        // and within one index the posting order follows tuple insertion.
        // distinct-lint: allow(D001, reason="independent per-index updates; posting order follows tuple insertion, not hash order")
        for (attr, index) in self.secondary.iter_mut() {
            let v = tuple.get(*attr);
            if !v.is_null() {
                index.entry(v.clone()).or_default().push(tid);
            }
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

    /// Build (or rebuild) a secondary index on the attribute at `attr`.
    ///
    /// Null values are not indexed.
    pub fn build_index(&mut self, attr: usize) {
        let mut index: FxHashMap<Value, Vec<TupleId>> = FxHashMap::default();
        for (i, t) in self.tuples.iter().enumerate() {
            let v = t.get(attr);
            if !v.is_null() {
                index.entry(v.clone()).or_default().push(TupleId(i as u32));
            }
        }
        // distinct-lint: allow(D113, reason="one index per attribute, bounded by the schema arity; entries mirror stored tuples and live as long as the relation")
        self.secondary.insert(attr, index);
    }

    /// True if a secondary index exists on attribute `attr`.
    pub fn has_index(&self, attr: usize) -> bool {
        self.secondary.contains_key(&attr)
    }

    /// Tuples whose attribute `attr` equals `value`.
    ///
    /// Uses the secondary index when one exists, otherwise scans. The key
    /// attribute is answered from the unique key index.
    pub fn lookup(&self, attr: usize, value: &Value) -> Vec<TupleId> {
        if Some(attr) == self.schema.key_index() {
            return self.by_key(value).into_iter().collect();
        }
        if let Some(index) = self.secondary.get(&attr) {
            return index.get(value).cloned().unwrap_or_default();
        }
        self.iter()
            .filter(|(_, t)| t.get(attr) == value)
            .map(|(tid, _)| tid)
            .collect()
    }

    /// Number of tuples whose attribute `attr` equals `value` (fanout).
    pub fn lookup_count(&self, attr: usize, value: &Value) -> usize {
        if Some(attr) == self.schema.key_index() {
            return usize::from(self.by_key(value).is_some());
        }
        if let Some(index) = self.secondary.get(&attr) {
            return index.get(value).map_or(0, Vec::len);
        }
        self.iter().filter(|(_, t)| t.get(attr) == value).count()
    }

    /// Distinct non-null values of attribute `attr`, with their multiplicity.
    pub fn value_counts(&self, attr: usize) -> FxHashMap<Value, usize> {
        let mut counts: FxHashMap<Value, usize> = FxHashMap::default();
        for (_, t) in self.iter() {
            let v = t.get(attr);
            if !v.is_null() {
                *counts.entry(v.clone()).or_insert(0) += 1;
            }
        }
        counts
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

    #[test]
    fn scan_lookup_without_index() {
        let r = sample();
        assert!(!r.has_index(1));
        let hits = r.lookup(1, &Value::str("VLDB"));
        assert_eq!(hits, vec![TupleId(0), TupleId(2)]);
        assert_eq!(r.lookup_count(1, &Value::str("VLDB")), 2);
        assert_eq!(r.lookup_count(1, &Value::str("ICDE")), 0);
    }

    #[test]
    fn indexed_lookup_matches_scan() {
        let mut r = sample();
        let scan = r.lookup(1, &Value::str("VLDB"));
        r.build_index(1);
        assert!(r.has_index(1));
        assert_eq!(r.lookup(1, &Value::str("VLDB")), scan);
        assert_eq!(r.lookup_count(1, &Value::str("VLDB")), 2);
    }

    #[test]
    fn index_maintained_on_insert() {
        let mut r = sample();
        r.build_index(1);
        r.insert([Value::Int(4), Value::str("VLDB"), Value::Int(2005)].into())
            .unwrap();
        assert_eq!(r.lookup(1, &Value::str("VLDB")).len(), 3);
    }

    #[test]
    fn key_attr_lookup_goes_through_key_index() {
        let r = sample();
        assert_eq!(r.lookup(0, &Value::Int(3)), vec![TupleId(2)]);
        assert_eq!(r.lookup_count(0, &Value::Int(3)), 1);
    }

    #[test]
    fn value_counts() {
        let r = sample();
        let counts = r.value_counts(1);
        assert_eq!(counts.get(&Value::str("VLDB")), Some(&2));
        assert_eq!(counts.get(&Value::str("SIGMOD")), Some(&1));
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn nulls_not_indexed() {
        let schema = SchemaBuilder::new("R")
            .data("x", AttrType::Str)
            .build()
            .unwrap();
        let mut r = Relation::new(schema);
        r.insert(Tuple::new(vec![Value::Null])).unwrap();
        r.insert(Tuple::new(vec![Value::str("a")])).unwrap();
        r.build_index(0);
        assert_eq!(r.lookup(0, &Value::str("a")).len(), 1);
        assert!(r.value_counts(0).len() == 1);
    }
}
