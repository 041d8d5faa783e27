//! The dataflow graph of one training step.

use crate::node::{OpKind, OpNode, TensorInfo, TensorRole};
use pim_common::fingerprint::of_hash;
use pim_common::ids::{OpId, TensorId};
use pim_common::{PimError, Result};
use pim_tensor::Shape;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A directed acyclic graph of operations over tensors, representing one
/// training step of a model.
///
/// Operation dependencies are implied by tensor production/consumption, the
/// same convention TensorFlow uses and the paper relies on for its
/// scheduling principle 3 ("scheduling needs to respect data dependency
/// across operations ... each operation has explicit input and output data
/// objects").
///
/// # Examples
///
/// ```
/// use pim_graph::graph::Graph;
/// use pim_graph::node::{OpKind, TensorRole};
/// use pim_tensor::Shape;
///
/// # fn main() -> pim_common::Result<()> {
/// let mut g = Graph::new();
/// let x = g.add_tensor(Shape::new(vec![4, 8]), TensorRole::Input, "x");
/// let y = g.add_tensor(Shape::new(vec![4, 8]), TensorRole::Activation, "y");
/// g.add_op(OpKind::Activation(pim_tensor::ops::activation::Activation::Relu), vec![x], vec![y])?;
/// assert_eq!(g.topo_order()?.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    tensors: Vec<TensorInfo>,
    ops: Vec<OpNode>,
    /// The op producing each tensor, indexed by tensor id.
    producer: Vec<Option<OpId>>,
    /// Running hash of the tensor list, extended by `add_tensor`.
    tensor_hash: u64,
    /// Running hash of the op list, extended by `add_op`.
    op_hash: u64,
}

/// Extends a running list hash by one item.
fn fold(acc: u64, item: &impl Hash) -> u64 {
    of_hash(&(acc, item))
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Registers a tensor and returns its id.
    pub fn add_tensor(
        &mut self,
        shape: Shape,
        role: TensorRole,
        name: impl Into<String>,
    ) -> TensorId {
        let id = TensorId::new(self.tensors.len());
        let info = TensorInfo {
            id,
            shape,
            role,
            name: name.into(),
        };
        self.tensor_hash = fold(self.tensor_hash, &info);
        self.tensors.push(info);
        self.producer.push(None);
        id
    }

    /// Registers an operation consuming `inputs` and producing `outputs`.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::UnknownId`] when any referenced tensor does not
    /// exist, and [`PimError::InvalidArgument`] when an output tensor
    /// already has a producer (tensors are single-assignment).
    pub fn add_op(
        &mut self,
        kind: OpKind,
        inputs: Vec<TensorId>,
        outputs: Vec<TensorId>,
    ) -> Result<OpId> {
        for &tid in inputs.iter().chain(&outputs) {
            if tid.index() >= self.tensors.len() {
                return Err(PimError::UnknownId {
                    kind: "tensor",
                    index: tid.index(),
                });
            }
        }
        for &out in &outputs {
            if self.producer[out.index()].is_some() {
                return Err(PimError::invalid(
                    "Graph::add_op",
                    format!("tensor {out} already has a producer"),
                ));
            }
        }
        let id = OpId::new(self.ops.len());
        for &out in &outputs {
            self.producer[out.index()] = Some(id);
        }
        let node = OpNode {
            id,
            kind,
            inputs,
            outputs,
        };
        self.op_hash = fold(self.op_hash, &node);
        self.ops.push(node);
        Ok(id)
    }

    /// All tensors in id order.
    pub fn tensors(&self) -> &[TensorInfo] {
        &self.tensors
    }

    /// All operations in insertion order.
    pub fn ops(&self) -> &[OpNode] {
        &self.ops
    }

    /// Looks up a tensor.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::UnknownId`] for unknown ids.
    pub fn tensor(&self, id: TensorId) -> Result<&TensorInfo> {
        self.tensors.get(id.index()).ok_or(PimError::UnknownId {
            kind: "tensor",
            index: id.index(),
        })
    }

    /// Looks up an operation.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::UnknownId`] for unknown ids.
    pub fn op(&self, id: OpId) -> Result<&OpNode> {
        self.ops.get(id.index()).ok_or(PimError::UnknownId {
            kind: "op",
            index: id.index(),
        })
    }

    /// Number of operations.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Map from tensor to the op that produces it.
    pub fn producers(&self) -> HashMap<TensorId, OpId> {
        self.producer
            .iter()
            .enumerate()
            .filter_map(|(t, op)| op.map(|op| (TensorId::new(t), op)))
            .collect()
    }

    /// The sorted, deduplicated producers of an op's inputs.
    fn deps_of(&self, op: &OpNode) -> Vec<OpId> {
        let mut deps: Vec<OpId> = op
            .inputs
            .iter()
            .filter_map(|tid| self.producer[tid.index()])
            .collect();
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    /// The ops whose outputs this op consumes — its dependencies.
    pub fn dependencies(&self, id: OpId) -> Result<Vec<OpId>> {
        Ok(self.deps_of(self.op(id)?))
    }

    /// Per-op dependency lists for the whole graph, indexed by op id.
    ///
    /// Entry `i` equals `dependencies(OpId::new(i))`; producers come from
    /// the index `add_op` maintains, so an `n`-op graph costs O(n + e).
    pub fn all_dependencies(&self) -> Vec<Vec<OpId>> {
        self.ops.iter().map(|op| self.deps_of(op)).collect()
    }

    /// Sorted, deduplicated consumer lists, indexed by producing op.
    fn consumer_lists(&self) -> Vec<Vec<OpId>> {
        let mut lists: Vec<Vec<OpId>> = vec![Vec::new(); self.ops.len()];
        for op in &self.ops {
            for tid in &op.inputs {
                if let Some(producer) = self.producer[tid.index()] {
                    lists[producer.index()].push(op.id);
                }
            }
        }
        for list in &mut lists {
            list.sort_unstable();
            list.dedup();
        }
        lists
    }

    /// Adjacency: for each op, the ops that consume its outputs.
    pub fn consumers(&self) -> HashMap<OpId, Vec<OpId>> {
        self.consumer_lists()
            .into_iter()
            .enumerate()
            .filter(|(_, users)| !users.is_empty())
            .map(|(op, users)| (OpId::new(op), users))
            .collect()
    }

    /// Kahn topological sort of the operations.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::GraphCycle`] when the graph is cyclic.
    pub fn topo_order(&self) -> Result<Vec<OpId>> {
        let consumers = self.consumer_lists();
        let mut in_degree = vec![0usize; self.ops.len()];
        for user in consumers.iter().flatten() {
            in_degree[user.index()] += 1;
        }
        let mut queue: VecDeque<OpId> = self
            .ops
            .iter()
            .filter(|op| in_degree[op.id.index()] == 0)
            .map(|op| op.id)
            .collect();
        let mut order = Vec::with_capacity(self.ops.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &user in &consumers[id.index()] {
                in_degree[user.index()] -= 1;
                if in_degree[user.index()] == 0 {
                    queue.push_back(user);
                }
            }
        }
        if order.len() != self.ops.len() {
            let members = (0..self.ops.len()).filter(|&i| in_degree[i] > 0).collect();
            return Err(PimError::GraphCycle { members });
        }
        Ok(order)
    }

    /// Validates the whole graph: referenced ids exist, output tensors have
    /// unique producers (enforced at insertion), and the graph is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<()> {
        self.topo_order().map(|_| ())
    }

    /// A deterministic fingerprint of the graph's complete structure:
    /// every tensor (shape, role, name) and every op (kind, operands) in
    /// id order. Two graphs built by the same sequence of `add_tensor` /
    /// `add_op` calls fingerprint identically, within and across
    /// processes — the key the engine's analysis memo, the profiler's step
    /// cache and other sweep-level memoizations rely on.
    ///
    /// O(1): `add_tensor` and `add_op`, the graph's only mutators, fold
    /// each new item into a running hash of its list as it is added.
    pub fn structural_hash(&self) -> u64 {
        of_hash(&(self.tensor_hash, self.op_hash))
    }

    /// Total bytes of parameter tensors (a rough model size).
    pub fn parameter_bytes(&self) -> usize {
        self.tensors
            .iter()
            .filter(|t| t.role == TensorRole::Parameter)
            .map(|t| t.shape.size_bytes())
            .sum()
    }

    /// Counts op instances by TF name, for the invocation-count columns of
    /// Table I.
    pub fn invocation_counts(&self) -> HashMap<&'static str, usize> {
        let mut counts = HashMap::new();
        for op in &self.ops {
            *counts.entry(op.kind.tf_name()).or_insert(0) += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_tensor::ops::activation::Activation;

    fn relu() -> OpKind {
        OpKind::Activation(Activation::Relu)
    }

    fn chain(n: usize) -> Graph {
        let mut g = Graph::new();
        let mut prev = g.add_tensor(Shape::new(vec![4]), TensorRole::Input, "t0");
        for i in 0..n {
            let next = g.add_tensor(
                Shape::new(vec![4]),
                TensorRole::Activation,
                format!("t{}", i + 1),
            );
            g.add_op(relu(), vec![prev], vec![next]).unwrap();
            prev = next;
        }
        g
    }

    #[test]
    fn topo_order_respects_chain() {
        let g = chain(5);
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), 5);
        for (pos, id) in order.iter().enumerate() {
            assert_eq!(id.index(), pos);
        }
    }

    #[test]
    fn unknown_tensor_is_rejected() {
        let mut g = Graph::new();
        let err = g.add_op(relu(), vec![TensorId::new(9)], vec![]);
        assert!(matches!(err, Err(PimError::UnknownId { .. })));
    }

    #[test]
    fn double_producer_is_rejected() {
        let mut g = Graph::new();
        let a = g.add_tensor(Shape::new(vec![1]), TensorRole::Input, "a");
        let b = g.add_tensor(Shape::new(vec![1]), TensorRole::Activation, "b");
        g.add_op(relu(), vec![a], vec![b]).unwrap();
        let hash = g.structural_hash();
        let err = g.add_op(relu(), vec![a], vec![b]).unwrap_err();
        assert!(
            matches!(&err, PimError::InvalidArgument { context: "Graph::add_op", message }
                if message == "tensor t1 already has a producer"),
            "{err:?}"
        );
        // A rejected op leaves no trace: not in the op list, the producer
        // index, or the hash.
        assert_eq!(g.op_count(), 1);
        assert_eq!(g.producers()[&b], OpId::new(0));
        assert_eq!(g.structural_hash(), hash);
    }

    /// One Conv2D op over named tensors; the arguments are the fields the
    /// structural hash must see.
    fn conv_graph(width: usize, filter_name: &str, stride: usize) -> Graph {
        let mut g = Graph::new();
        let x = g.add_tensor(Shape::new(vec![1, 3, width, 8]), TensorRole::Input, "x");
        let f = g.add_tensor(
            Shape::new(vec![4, 3, 3, 3]),
            TensorRole::Parameter,
            filter_name,
        );
        let y = g.add_tensor(Shape::new(vec![1, 4, 8, 8]), TensorRole::Activation, "y");
        let geom = pim_tensor::ConvGeometry::square(3, stride, 1);
        g.add_op(OpKind::Conv2D(geom), vec![x, f], vec![y]).unwrap();
        g
    }

    #[test]
    fn structural_hash_sees_every_item() {
        let g = conv_graph(8, "w", 1);
        assert_eq!(g.structural_hash(), conv_graph(8, "w", 1).structural_hash());
        assert_eq!(g.structural_hash(), g.clone().structural_hash());
        for (what, other) in [
            ("shape dimension", conv_graph(9, "w", 1)),
            ("tensor name", conv_graph(8, "v", 1)),
            ("conv geometry", conv_graph(8, "w", 2)),
        ] {
            assert_ne!(g.structural_hash(), other.structural_hash(), "{what}");
        }
        // The hash depends on the two lists, not on how their additions
        // interleave.
        let mut late = Graph::new();
        let x = late.add_tensor(Shape::new(vec![4]), TensorRole::Input, "t0");
        let y = late.add_tensor(Shape::new(vec![4]), TensorRole::Activation, "t1");
        late.add_op(relu(), vec![x], vec![y]).unwrap();
        assert_eq!(late.structural_hash(), chain(1).structural_hash());
    }

    #[test]
    fn producer_index_matches_an_op_scan() {
        let g = chain(6);
        let mut scanned = HashMap::new();
        for op in g.ops() {
            for &out in &op.outputs {
                scanned.insert(out, op.id);
            }
        }
        assert_eq!(g.producers(), scanned);
        let consumers = g.consumers();
        assert_eq!(consumers.len(), 5);
        assert_eq!(consumers[&OpId::new(2)], vec![OpId::new(3)]);
    }

    #[test]
    fn dependencies_follow_tensor_flow() {
        let g = chain(3);
        assert!(g.dependencies(OpId::new(0)).unwrap().is_empty());
        assert_eq!(g.dependencies(OpId::new(2)).unwrap(), vec![OpId::new(1)]);
    }

    #[test]
    fn diamond_topology_sorts() {
        // a -> (b, c) -> d
        let mut g = Graph::new();
        let t_in = g.add_tensor(Shape::new(vec![4]), TensorRole::Input, "in");
        let t_a = g.add_tensor(Shape::new(vec![4]), TensorRole::Activation, "a");
        let t_b = g.add_tensor(Shape::new(vec![4]), TensorRole::Activation, "b");
        let t_c = g.add_tensor(Shape::new(vec![4]), TensorRole::Activation, "c");
        let t_d = g.add_tensor(Shape::new(vec![4]), TensorRole::Activation, "d");
        let a = g.add_op(relu(), vec![t_in], vec![t_a]).unwrap();
        let b = g.add_op(relu(), vec![t_a], vec![t_b]).unwrap();
        let c = g.add_op(relu(), vec![t_a], vec![t_c]).unwrap();
        let d = g
            .add_op(
                OpKind::Binary(pim_tensor::ops::elementwise::BinaryOp::Add),
                vec![t_b, t_c],
                vec![t_d],
            )
            .unwrap();
        let order = g.topo_order().unwrap();
        let pos = |id: OpId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert!(pos(c) < pos(d));
        assert_eq!(g.dependencies(d).unwrap(), vec![b, c]);
    }

    #[test]
    fn invocation_counts_group_by_name() {
        let g = chain(4);
        assert_eq!(g.invocation_counts()["Relu"], 4);
    }

    #[test]
    fn validate_passes_for_dag() {
        assert!(chain(10).validate().is_ok());
    }
}
