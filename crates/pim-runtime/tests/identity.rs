//! Graph identity over the model zoo: the kept structural hash names a
//! graph's structure, not one build of it, and the producer index that
//! replaced per-call producer scans answers exactly as a scan would.

use pim_models::{Model, ModelKind};
use std::collections::HashMap;

#[test]
fn independent_builds_and_clones_hash_identically() {
    for kind in ModelKind::ALL {
        let a = Model::build_with_batch(kind, 2).unwrap();
        let b = Model::build_with_batch(kind, 2).unwrap();
        let hash = a.graph().structural_hash();
        assert_eq!(hash, b.graph().structural_hash(), "{kind}");
        assert_eq!(hash, a.graph().clone().structural_hash(), "{kind}");
        let other_batch = Model::build_with_batch(kind, 4).unwrap();
        assert_ne!(hash, other_batch.graph().structural_hash(), "{kind}");
    }
}

#[test]
fn producer_index_matches_an_op_scan_on_every_model() {
    for kind in ModelKind::ALL {
        let model = Model::build_with_batch(kind, 2).unwrap();
        let graph = model.graph();
        let mut scanned = HashMap::new();
        for op in graph.ops() {
            for &out in &op.outputs {
                scanned.insert(out, op.id);
            }
        }
        assert_eq!(graph.producers(), scanned, "{kind}");
        for op in graph.ops() {
            let mut deps: Vec<_> = op
                .inputs
                .iter()
                .filter_map(|t| scanned.get(t).copied())
                .collect();
            deps.sort_unstable();
            deps.dedup();
            assert_eq!(graph.dependencies(op.id).unwrap(), deps, "{kind} {}", op.id);
        }
    }
}
