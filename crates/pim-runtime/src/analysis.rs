//! Per-graph structural analysis, computed once per process.
//!
//! Every run of a graph needs the same facts about it: each op's analytic
//! cost, its dependencies and consumers, a topological order, and each
//! op's rank in that order. They are pure functions of the graph's
//! structure, so [`GraphAnalysis::of`] computes them on the first request
//! for a graph and shares one `Arc<GraphAnalysis>` with every later run —
//! the same graph under six presets, a serve daemon answering thousands of
//! requests over seven models — keyed by the graph's O(1)
//! [`Graph::structural_hash`]. This mirrors §IV-C's runtime, which
//! profiles the first training step once and reuses the result for every
//! later step.

use pim_common::Result;
use pim_graph::cost::graph_costs;
use pim_graph::Graph;
use pim_tensor::cost::CostProfile;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// What the engine knows about a graph before it schedules anything.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphAnalysis {
    /// Per-op analytic cost, indexed by op id.
    pub costs: Vec<CostProfile>,
    /// Per-op dependencies (producers of its inputs), sorted, indexed by
    /// op id.
    pub deps: Vec<Vec<usize>>,
    /// Per-op consumers (ops reading its outputs), ascending, indexed by
    /// op id.
    pub consumers: Vec<Vec<usize>>,
    /// Op ids in Kahn topological order.
    pub topo: Vec<usize>,
    /// Each op's position in `topo`, indexed by op id.
    pub rank: Vec<usize>,
}

impl GraphAnalysis {
    /// Analyzes `graph` from scratch.
    ///
    /// # Errors
    ///
    /// Propagates cost-model failures for malformed ops, then
    /// `PimError::GraphCycle` for cyclic graphs.
    pub fn compute(graph: &Graph) -> Result<Self> {
        let costs = graph_costs(graph)?;
        let deps: Vec<Vec<usize>> = graph
            .all_dependencies()
            .into_iter()
            .map(|v| v.into_iter().map(pim_common::ids::OpId::index).collect())
            .collect();
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); graph.op_count()];
        for (op, ds) in deps.iter().enumerate() {
            for &d in ds {
                consumers[d].push(op);
            }
        }
        let topo: Vec<usize> = graph.topo_order()?.iter().map(|id| id.index()).collect();
        let mut rank = vec![0usize; graph.op_count()];
        for (r, &op) in topo.iter().enumerate() {
            rank[op] = r;
        }
        Ok(GraphAnalysis {
            costs,
            deps,
            consumers,
            topo,
            rank,
        })
    }

    /// [`GraphAnalysis::compute`] behind the process-wide memo: the first
    /// call for a graph structure analyzes it, later calls return the
    /// shared result. A hit costs one lock plus one refcount bump, and
    /// always equals a fresh computation (a property-tested invariant).
    ///
    /// # Errors
    ///
    /// As [`GraphAnalysis::compute`] (failures are never cached).
    pub fn of(graph: &Graph) -> Result<Arc<Self>> {
        /// Structural hash plus op and tensor counts (cheap discriminants
        /// against hash collisions).
        type Key = (u64, usize, usize);
        static MEMO: OnceLock<Mutex<HashMap<Key, Arc<GraphAnalysis>>>> = OnceLock::new();
        let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
        let key = (
            graph.structural_hash(),
            graph.op_count(),
            graph.tensors().len(),
        );
        if let Some(hit) = memo.lock().expect("analysis memo poisoned").get(&key) {
            return Ok(Arc::clone(hit));
        }
        // Analyze outside the lock: concurrent misses for one graph both
        // compute the (identical) result and the first insert wins, so
        // every later hit shares one allocation.
        let fresh = Arc::new(GraphAnalysis::compute(graph)?);
        let mut memo = memo.lock().expect("analysis memo poisoned");
        Ok(Arc::clone(memo.entry(key).or_insert(fresh)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_models::{Model, ModelKind};

    #[test]
    fn memo_hit_is_shared_and_equals_fresh_analysis() {
        let model = Model::build_with_batch(ModelKind::ResNet50, 2).unwrap();
        let first = GraphAnalysis::of(model.graph()).unwrap();
        let rebuilt = Model::build_with_batch(ModelKind::ResNet50, 2).unwrap();
        let second = GraphAnalysis::of(rebuilt.graph()).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*first, GraphAnalysis::compute(model.graph()).unwrap());
        for (op, deps) in first.deps.iter().enumerate() {
            for &d in deps {
                assert!(first.rank[d] < first.rank[op]);
                assert!(first.consumers[d].contains(&op));
            }
        }
    }
}
