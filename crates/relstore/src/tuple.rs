//! Tuples and the identifiers used to address them.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of a relation within a catalog (dense, assigned at registration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RelId(pub u32);

impl RelId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a tuple within one relation (dense, insertion order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TupleId(pub u32);

impl TupleId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Globally addressable tuple: a (relation, tuple) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TupleRef {
    /// Relation the tuple lives in.
    pub rel: RelId,
    /// Tuple id within that relation.
    pub tid: TupleId,
}

impl TupleRef {
    /// Construct from raw parts.
    #[inline]
    pub fn new(rel: RelId, tid: TupleId) -> Self {
        TupleRef { rel, tid }
    }
}

impl fmt::Display for TupleRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}@r{}", self.tid.0, self.rel.0)
    }
}

/// A stored tuple: just its attribute values, addressed positionally.
///
/// The values never change once built and are shared, so a clone (what
/// copying a relation's storage does) allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(values: [Value; N]) -> Self {
        Tuple {
            values: Arc::from(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_accessors() {
        let t = Tuple::new(vec![Value::Int(1), Value::str("a")]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get(0), &Value::Int(1));
        assert_eq!(t.get(1).as_str(), Some("a"));
        assert_eq!(t.values().len(), 2);
    }

    #[test]
    fn tuple_display() {
        let t = Tuple::new(vec![Value::Int(1), Value::str("x"), Value::Null]);
        assert_eq!(t.to_string(), "(1, x, NULL)");
    }

    #[test]
    fn tuple_from_array() {
        let t: Tuple = [Value::Int(1), Value::Int(2)].into();
        assert_eq!(t.arity(), 2);
    }

    #[test]
    fn ids_are_ordered_and_display() {
        let a = TupleRef::new(RelId(0), TupleId(3));
        let b = TupleRef::new(RelId(1), TupleId(0));
        assert!(a < b);
        assert_eq!(a.to_string(), "t3@r0");
        assert_eq!(RelId(5).index(), 5);
        assert_eq!(TupleId(7).index(), 7);
    }
}
