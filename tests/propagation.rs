//! The propagation kernel's output pinned bit for bit: every run of every
//! reference along every join path of a small generated world, over a
//! link graph that has grown by appended tuples, so overlay rows are
//! walked beside the built adjacency.

use datagen::{to_catalog, World, WorldConfig};
use distinct::features::build_profile;
use distinct::PathSet;
use relgraph::LinkGraph;
use relstore::{Catalog, TupleId, TupleRef, Value};

/// FNV-1a over 64-bit words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Insert `values` into `rel`, finalize, and append the tuple to `graph`.
fn append(c: &mut Catalog, graph: &mut LinkGraph, rel: &str, values: Vec<Value>) -> TupleRef {
    let t = c.insert(rel, relstore::Tuple::new(values)).unwrap();
    c.finalize(false).unwrap();
    graph.append_tuple(c, t);
    t
}

// Recorded from the hash-map kernel that the sorted-vector kernel
// replaced: `(runs, entries, fingerprint)`.
const PINNED: (usize, usize, u64) = (19_431, 191_195, 16_775_520_755_000_371_279);

#[test]
fn every_run_matches_the_pinned_bits() {
    let d = to_catalog(&World::generate(WorldConfig::tiny(5))).unwrap();
    let mut c = d.catalog;
    let mut graph = LinkGraph::build(&c);
    // A late paper with a new author and an existing one, and a new byline
    // of an existing paper: the paper's, the authors' and the old paper's
    // rows move into the overlay.
    let key = |rel: &str, tid: u32| {
        let rel = c.relation_id(rel).unwrap();
        c.relation(rel).tuple(TupleId(tid)).get(0).clone()
    };
    let (author, old_paper, proc_key) = (
        key("Authors", 3),
        key("Publications", 10),
        key("Proceedings", 0),
    );
    let late = Value::Int(9_999_999);
    append(
        &mut c,
        &mut graph,
        "Publications",
        vec![late.clone(), Value::str("A late paper"), proc_key],
    );
    let newcomer = Value::str("Zed Newcomer");
    append(&mut c, &mut graph, "Authors", vec![newcomer.clone()]);
    for byline in [
        vec![author.clone(), late.clone()],
        vec![newcomer, late],
        vec![author, old_paper],
    ] {
        append(&mut c, &mut graph, "Publish", byline);
    }
    assert_eq!(graph.appended_count(), 5);

    let paths = PathSet::build(&c, "Publish", "author", 4).unwrap();
    let mut fp = Fingerprint::new();
    let (mut runs, mut entries) = (0, 0);
    for (tid, _) in c.relation(d.publish).iter() {
        let profile = build_profile(&graph, &c, &paths, TupleRef::new(d.publish, tid));
        for k in 0..profile.path_count() {
            let run = profile.path(k);
            fp.word(run.len() as u64);
            for ((n, f), b) in run.nodes.iter().zip(run.forward).zip(run.backward) {
                fp.word(u64::from(n.0));
                fp.word(f.to_bits());
                fp.word(b.to_bits());
            }
            runs += 1;
            entries += run.len();
        }
    }
    assert_eq!((runs, entries, fp.0), PINNED);
}
