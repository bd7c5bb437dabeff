//! Join-path selection, restated independently of the production
//! `distinct::paths` module.
//!
//! DISTINCT analyzes every join path from the reference relation up to a
//! length bound, except paths whose *first* step follows the reference
//! attribute's own foreign key (that step reaches the tuple the name
//! itself identifies — shared by all resembling references by definition,
//! so it carries no distinguishing signal). The enumeration order is the
//! catalog's deterministic `enumerate_paths` order, which the production
//! `PathSet` also uses; a differential test pins the two selections to
//! each other so per-path weights stay aligned.

use relstore::{enumerate_paths, Catalog, Direction, FkId, JoinPath, PathEnumOptions};

/// Select the join paths for references held in `ref_relation.ref_attr`.
///
/// Returns the paths together with the reference foreign key (needed to
/// locate each reference's own name tuple for blocking), or `None` if the
/// relation/attribute cannot be resolved to a foreign key.
pub fn select_paths(
    catalog: &Catalog,
    ref_relation: &str,
    ref_attr: &str,
    max_len: usize,
) -> Option<(Vec<JoinPath>, FkId)> {
    let start = catalog.relation_id(ref_relation)?;
    let attr_idx = catalog.relation(start).schema().attr_index(ref_attr)?;
    let ref_fk = catalog
        .fk_edges()
        .iter()
        .find(|e| e.from == start && e.attr == attr_idx)?
        .id;
    let opts = PathEnumOptions {
        max_len,
        ..Default::default()
    };
    let paths = enumerate_paths(catalog, start, &opts)
        .into_iter()
        .filter(|p| {
            let first = &p.steps[0];
            !(first.fk == ref_fk && first.dir == Direction::Forward)
        })
        .collect();
    Some((paths, ref_fk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{AmbiguousSpec, World, WorldConfig};

    #[test]
    fn selection_excludes_identity_first_step() {
        let mut config = WorldConfig::tiny(3);
        config.ambiguous = vec![AmbiguousSpec::new("Wei Wang", vec![4, 3])];
        let d = datagen::to_catalog(&World::generate(config)).unwrap();
        let ex = relstore::expand_values(&d.catalog).unwrap();
        let (paths, ref_fk) = select_paths(&ex.catalog, "Publish", "author", 3).unwrap();
        assert!(!paths.is_empty());
        for p in &paths {
            let first = &p.steps[0];
            assert!(!(first.fk == ref_fk && first.dir == Direction::Forward));
        }
        assert!(select_paths(&ex.catalog, "Nope", "author", 3).is_none());
        assert!(select_paths(&ex.catalog, "Publish", "nope", 3).is_none());
    }
}
