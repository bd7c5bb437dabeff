//! Oracle reference profiles: one naive propagation per join path.
//!
//! Mirrors the production profile semantics: the tuple identified by the
//! reference's own name (followed via the reference foreign key) is
//! blocked in every per-path propagation — linkage routed through the
//! shared name tuple is vacuous for distinguishing resembling references.

use crate::propagate::{enumerate_propagation, Adjacency, OraclePropagation};
use relstore::{FkId, JoinPath, JoinStep, TupleRef};

/// Per-path propagation results for one reference, computed naively.
#[derive(Debug, Clone)]
pub struct OracleProfile {
    /// The reference this profile describes.
    pub reference: TupleRef,
    /// One propagation per path, in path order.
    pub props: Vec<OraclePropagation>,
}

/// Build the oracle profile of one reference: propagate along every path
/// with the reference's own name tuple blocked.
pub fn build_profile(
    adj: &Adjacency<'_>,
    paths: &[JoinPath],
    ref_fk: FkId,
    reference: TupleRef,
) -> OracleProfile {
    let blocked = adj.step_neighbors(JoinStep::forward(ref_fk), reference);
    let props = paths
        .iter()
        .map(|path| enumerate_propagation(adj, path, reference, &blocked))
        .collect();
    OracleProfile { reference, props }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::select_paths;
    use datagen::{AmbiguousSpec, World, WorldConfig};

    #[test]
    fn own_name_tuple_never_appears_in_any_map() {
        let mut config = WorldConfig::tiny(4);
        config.n_authors = 80;
        config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![4, 3])];
        let d = datagen::to_catalog(&World::generate(config)).unwrap();
        let ex = relstore::expand_values(&d.catalog).unwrap();
        let (paths, ref_fk) = select_paths(&ex.catalog, "Publish", "author", 3).unwrap();
        let r = d.truths[0].refs[0];
        let adj = Adjacency::new(&ex.catalog);
        let own = adj.step_neighbors(JoinStep::forward(ref_fk), r)[0];
        let p = build_profile(&adj, &paths, ref_fk, r);
        assert_eq!(p.props.len(), paths.len());
        let mut reached_any = false;
        for prop in &p.props {
            assert!(!prop.forward.contains_key(&own));
            assert!(!prop.backward.contains_key(&own));
            reached_any |= !prop.forward.is_empty();
        }
        assert!(reached_any, "a real reference reaches some neighbors");
    }
}
