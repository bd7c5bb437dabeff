//! Attribute-value expansion (paper §2.1).
//!
//! DISTINCT treats "each value of each attribute (except keys and
//! foreign-keys) as an individual tuple": two proceedings sharing the same
//! `publisher` value should be linked through that value just as two papers
//! sharing a venue are linked through the venue tuple.
//!
//! [`expand_values`] rewrites a catalog so that every data attribute of
//! every relation becomes a foreign key to a new *pseudo-relation* holding
//! the attribute's distinct values (the value itself is the key). After
//! expansion, one uniform join-path machinery covers both tuple linkage and
//! attribute-value sharing.

use crate::catalog::{Catalog, FkLinks};
use crate::error::Result;
use crate::relation::Relation;
use crate::schema::{AttrRole, Attribute, RelationSchema};
use crate::value::Value;

/// Report of one expanded attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpandedAttr {
    /// Original relation name.
    pub relation: String,
    /// Original attribute name.
    pub attribute: String,
    /// Name of the pseudo-relation created for its values.
    pub pseudo_relation: String,
    /// Number of distinct non-null values.
    pub distinct_values: usize,
}

/// Result of [`expand_values`]: the rewritten catalog plus a report.
#[derive(Debug, Clone)]
pub struct Expanded {
    /// The rewritten, finalized catalog. Original relations keep their ids
    /// (they are registered first, in the original order); pseudo-relations
    /// follow.
    pub catalog: Catalog,
    /// One entry per expanded attribute.
    pub expanded: Vec<ExpandedAttr>,
}

/// Name of the pseudo-relation holding values of `relation.attribute`.
pub fn pseudo_relation_name(relation: &str, attribute: &str) -> String {
    format!("{relation}#{attribute}")
}

/// The distinct non-null values of attribute `attr`, ascending, and the
/// forward column into them: one sort of `(value, tuple id)` pairs.
///
/// Equal values that differ in representation (`-0.0` and `+0.0`) form
/// one class, represented by its first tuple's value; the tuple-id tie
/// break puts that tuple first.
fn distinct_values(rel: &Relation, attr: usize) -> (Vec<Value>, Vec<u32>) {
    let mut pairs: Vec<(&Value, u32)> = rel
        .iter()
        .map(|(tid, t)| (t.get(attr), tid.0))
        .filter(|(v, _)| !v.is_null())
        .collect();
    pairs.sort_unstable();
    let mut values: Vec<Value> = Vec::new();
    let mut column = vec![FkLinks::NONE; rel.len()];
    for (v, tid) in pairs {
        if values.last() != Some(v) {
            values.push(v.clone());
        }
        column[tid as usize] = (values.len() - 1) as u32;
    }
    (values, column)
}

/// Rewrite `catalog` so every data attribute becomes a foreign key into a
/// pseudo-relation of its distinct values.
///
/// Original relations keep their tuples (shared with the input, not
/// validated again), and pseudo-relations number their values in
/// ascending order.
/// The input catalog does not need to be finalized; the output is
/// finalized with integrity checking on (expansion cannot dangle by
/// construction, and original foreign keys are revalidated). A finalized
/// input hands over its resolved foreign-key columns instead of having
/// them probed again.
pub fn expand_values(catalog: &Catalog) -> Result<Expanded> {
    let mut out = Catalog::new();
    let mut expanded = Vec::new();

    // Pass 1: original relations with data attrs rewritten to FKs.
    for (_, rel) in catalog.relations() {
        let mut attrs = rel.schema().attributes.clone();
        for idx in rel.schema().data_attrs().collect::<Vec<_>>() {
            let pseudo = pseudo_relation_name(rel.name(), &attrs[idx].name);
            attrs[idx].role = AttrRole::ForeignKey { target: pseudo };
        }
        out.add_populated(rel.retyped(RelationSchema::new(rel.name(), attrs)?))?;
    }
    if catalog.is_finalized() {
        for edge in catalog.fk_edges() {
            out.seed_links(edge.from, edge.attr, catalog.links(edge.id).clone());
        }
    }

    // Pass 2: pseudo-relations, each with the forward column into it.
    for (rid, rel) in catalog.relations() {
        for idx in rel.schema().data_attrs() {
            let attr = &rel.schema().attributes[idx];
            let pseudo = pseudo_relation_name(rel.name(), &attr.name);
            let schema =
                RelationSchema::new(pseudo.clone(), vec![Attribute::key("value", attr.ty)])?;
            let (values, column) = distinct_values(rel, idx);
            expanded.push(ExpandedAttr {
                relation: rel.name().to_string(),
                attribute: attr.name.clone(),
                pseudo_relation: pseudo,
                distinct_values: values.len(),
            });
            out.add_populated(Relation::from_keys(schema, values))?;
            out.seed_links(rid, idx, FkLinks::resolved(column));
        }
    }

    out.finalize(true)?;
    Ok(Expanded {
        catalog: out,
        expanded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::tuple::{TupleId, TupleRef};
    use crate::value::AttrType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_relation(
            SchemaBuilder::new("Conferences")
                .key("conference", AttrType::Str)
                .data("publisher", AttrType::Str)
                .build()
                .unwrap(),
        )
        .unwrap();
        c.insert(
            "Conferences",
            [Value::str("VLDB"), Value::str("ACM")].into(),
        )
        .unwrap();
        c.insert(
            "Conferences",
            [Value::str("SIGMOD"), Value::str("ACM")].into(),
        )
        .unwrap();
        c.insert(
            "Conferences",
            [Value::str("LNCS-Conf"), Value::str("Springer")].into(),
        )
        .unwrap();
        c.insert("Conferences", [Value::str("Mystery"), Value::Null].into())
            .unwrap();
        c
    }

    #[test]
    fn pseudo_relation_created_with_distinct_values() {
        let ex = expand_values(&catalog()).unwrap();
        assert_eq!(ex.expanded.len(), 1);
        let info = &ex.expanded[0];
        assert_eq!(info.pseudo_relation, "Conferences#publisher");
        assert_eq!(info.distinct_values, 2);
        let pid = ex.catalog.relation_id("Conferences#publisher").unwrap();
        assert_eq!(ex.catalog.relation(pid).len(), 2);
    }

    #[test]
    fn original_relation_ids_preserved() {
        let orig = catalog();
        let ex = expand_values(&orig).unwrap();
        assert_eq!(
            orig.relation_id("Conferences"),
            ex.catalog.relation_id("Conferences")
        );
        // Tuples are copied unchanged.
        let rid = ex.catalog.relation_id("Conferences").unwrap();
        assert_eq!(ex.catalog.relation(rid).len(), 4);
    }

    #[test]
    fn data_attr_becomes_traversable_fk() {
        let ex = expand_values(&catalog()).unwrap();
        let c = &ex.catalog;
        let conf = c.relation_id("Conferences").unwrap();
        let fk = c
            .fk_edges()
            .iter()
            .find(|e| e.label == "Conferences.publisher->Conferences#publisher")
            .unwrap();
        // VLDB -> ACM pseudo-tuple.
        let vldb = c.relation(conf).by_key(&Value::str("VLDB")).unwrap();
        let acm = c.follow_forward(fk.id, TupleRef::new(conf, vldb)).unwrap();
        assert_eq!(c.value(acm, 0).as_str(), Some("ACM"));
        // ACM pseudo-tuple links back to both ACM conferences.
        let back = c.follow_backward(fk.id, acm);
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn null_values_stay_null_and_unlinked() {
        let ex = expand_values(&catalog()).unwrap();
        let c = &ex.catalog;
        let conf = c.relation_id("Conferences").unwrap();
        let fk = c.fk_edges().iter().find(|e| e.from == conf).unwrap();
        let mystery = c.relation(conf).by_key(&Value::str("Mystery")).unwrap();
        assert_eq!(c.follow_forward(fk.id, TupleRef::new(conf, mystery)), None);
    }

    #[test]
    fn equal_values_keep_the_first_tuples_spelling() {
        // -0.0 and +0.0 are one value: one pseudo-tuple, spelled as the
        // first tuple holding it spells it, linked from both tuples.
        let mut c = Catalog::new();
        for (rel, first) in [("Neg", -0.0), ("Pos", 0.0)] {
            c.add_relation(
                SchemaBuilder::new(rel)
                    .key("k", AttrType::Int)
                    .data("x", AttrType::Float)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            for (k, x) in [(1, first), (2, -first), (3, 1.5)] {
                c.insert(rel, [Value::Int(k), Value::Float(x)].into())
                    .unwrap();
            }
        }
        let ex = expand_values(&c).unwrap();
        let c = &ex.catalog;
        for (rel, first) in [("Neg", -0.0f64), ("Pos", 0.0)] {
            let pseudo = c.relation_id(&pseudo_relation_name(rel, "x")).unwrap();
            assert_eq!(c.relation(pseudo).len(), 2);
            let zero = c.value(TupleRef::new(pseudo, TupleId(0)), 0);
            assert_eq!(zero.as_float().map(f64::to_bits), Some(first.to_bits()));
            let from = c.relation_id(rel).unwrap();
            let fk = c.out_edges(from)[0];
            let back = c.follow_backward(fk, TupleRef::new(pseudo, TupleId(0)));
            assert_eq!(back.len(), 2);
        }
    }

    #[test]
    fn expansion_without_data_attrs_is_identity_shaped() {
        let mut c = Catalog::new();
        c.add_relation(
            SchemaBuilder::new("A")
                .key("a", AttrType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        c.insert("A", [Value::Int(1)].into()).unwrap();
        let ex = expand_values(&c).unwrap();
        assert!(ex.expanded.is_empty());
        assert_eq!(ex.catalog.relation_count(), 1);
        assert_eq!(ex.catalog.tuple_count(), 1);
    }

    #[test]
    fn multi_relation_expansion() {
        let mut c = catalog();
        c.add_relation(
            SchemaBuilder::new("Proceedings")
                .key("proc", AttrType::Int)
                .fk("conference", AttrType::Str, "Conferences")
                .data("year", AttrType::Int)
                .data("location", AttrType::Str)
                .build()
                .unwrap(),
        )
        .unwrap();
        c.insert(
            "Proceedings",
            [
                Value::Int(1),
                Value::str("VLDB"),
                Value::Int(1997),
                Value::str("Athens"),
            ]
            .into(),
        )
        .unwrap();
        c.insert(
            "Proceedings",
            [
                Value::Int(2),
                Value::str("VLDB"),
                Value::Int(1998),
                Value::str("NYC"),
            ]
            .into(),
        )
        .unwrap();
        let ex = expand_values(&c).unwrap();
        let names: Vec<_> = ex
            .expanded
            .iter()
            .map(|e| e.pseudo_relation.clone())
            .collect();
        assert!(names.contains(&"Conferences#publisher".to_string()));
        assert!(names.contains(&"Proceedings#year".to_string()));
        assert!(names.contains(&"Proceedings#location".to_string()));
        // Original FK preserved alongside new pseudo FKs.
        assert!(ex
            .catalog
            .fk_edges()
            .iter()
            .any(|e| e.label == "Proceedings.conference->Conferences"));
    }
}
