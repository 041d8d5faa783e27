//! Operation kinds and graph nodes.
//!
//! [`OpKind`] enumerates every TensorFlow operation the paper profiles
//! (Table I) plus the ones its seven workloads need. Display names match the
//! TensorFlow names used in the paper so the reproduced profiling tables read
//! the same.

use pim_common::ids::{OpId, TensorId};
use pim_tensor::ops::activation::Activation;
use pim_tensor::ops::elementwise::BinaryOp;
use pim_tensor::ops::matmul::Transpose;
use pim_tensor::ConvGeometry;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Every operation kind the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Forward 2-D convolution. Inputs: `[input, filter]`.
    Conv2D(ConvGeometry),
    /// Filter gradient. Inputs: `[input, grad_output]`.
    Conv2DBackpropFilter(ConvGeometry),
    /// Input gradient. Inputs: `[filter, grad_output]`.
    Conv2DBackpropInput(ConvGeometry),
    /// Transposed convolution (DCGAN generator). Inputs: `[input, filter]`.
    Conv2DTranspose(ConvGeometry),
    /// Matrix multiply. Inputs: `[a, b]`.
    MatMul(Transpose),
    /// Per-channel bias add. Inputs: `[input, bias]`.
    BiasAdd,
    /// Bias gradient (reduction). Inputs: `[grad_output]`.
    BiasAddGrad,
    /// Activation forward. Inputs: `[input]`.
    Activation(Activation),
    /// Activation gradient. Inputs: `[grad_output, input, output]`.
    ActivationGrad(Activation),
    /// Max pooling. Inputs: `[input]`; outputs: `[values, argmax]`.
    MaxPool(ConvGeometry),
    /// Max pooling gradient. Inputs: `[grad_output, argmax]`.
    MaxPoolGrad(ConvGeometry),
    /// Average pooling. Inputs: `[input]`.
    AvgPool(ConvGeometry),
    /// Average pooling gradient. Inputs: `[grad_output]`.
    AvgPoolGrad(ConvGeometry),
    /// Fused softmax + cross-entropy + gradient. Inputs: `[logits, labels]`;
    /// outputs: `[loss, grad_logits]`.
    SoftmaxXent,
    /// Adam parameter update. Inputs: `[param, grad]`; output: `[done]`.
    ApplyAdam,
    /// SGD parameter update. Inputs: `[param, grad]`; output: `[done]`.
    ApplySgd,
    /// Elementwise binary op. Inputs: `[a, b]`.
    Binary(BinaryOp),
    /// Flat slice. Inputs: `[input]`.
    Slice {
        /// First element of the slice.
        start: usize,
        /// Number of elements.
        len: usize,
    },
    /// Flat concatenation. Inputs: the parts.
    Concat,
    /// Inverted dropout with a supplied mask. Inputs: `[input, mask]`.
    Dropout,
    /// Batch normalization forward. Inputs: `[input]`.
    BatchNorm,
    /// Batch normalization gradient. Inputs: `[grad_output, input]`.
    BatchNormGrad,
    /// Local response normalization (AlexNet). Inputs: `[input]`.
    Lrn,
    /// LRN gradient. Inputs: `[grad_output, input]`.
    LrnGrad,
    /// Embedding gather. Inputs: `[table, indices]`.
    EmbeddingLookup,
    /// Embedding scatter gradient. Inputs: `[grad_output, indices]`.
    EmbeddingGrad,
    /// Metadata-only reshape. Inputs: `[input]`.
    Reshape,
}

impl OpKind {
    /// The TensorFlow-style display name used in the paper's tables.
    pub fn tf_name(&self) -> &'static str {
        match self {
            OpKind::Conv2D(_) => "Conv2D",
            OpKind::Conv2DBackpropFilter(_) => "Conv2DBackpropFilter",
            OpKind::Conv2DBackpropInput(_) => "Conv2DBackpropInput",
            OpKind::Conv2DTranspose(_) => "Conv2DTranspose",
            OpKind::MatMul(_) => "MatMul",
            OpKind::BiasAdd => "BiasAdd",
            OpKind::BiasAddGrad => "BiasAddGrad",
            OpKind::Activation(Activation::Relu) => "Relu",
            OpKind::Activation(Activation::LeakyRelu) => "LeakyRelu",
            OpKind::Activation(Activation::Sigmoid) => "Sigmoid",
            OpKind::Activation(Activation::Tanh) => "Tanh",
            OpKind::ActivationGrad(Activation::Relu) => "ReluGrad",
            OpKind::ActivationGrad(Activation::LeakyRelu) => "LeakyReluGrad",
            OpKind::ActivationGrad(Activation::Sigmoid) => "SigmoidGrad",
            OpKind::ActivationGrad(Activation::Tanh) => "TanhGrad",
            OpKind::MaxPool(_) => "MaxPool",
            OpKind::MaxPoolGrad(_) => "MaxPoolGrad",
            OpKind::AvgPool(_) => "AvgPool",
            OpKind::AvgPoolGrad(_) => "AvgPoolGrad",
            OpKind::SoftmaxXent => "SoftmaxCrossEntropyWithLogits",
            OpKind::ApplyAdam => "ApplyAdam",
            OpKind::ApplySgd => "ApplyGradientDescent",
            OpKind::Binary(BinaryOp::Add) => "Add",
            OpKind::Binary(BinaryOp::Sub) => "Sub",
            OpKind::Binary(BinaryOp::Mul) => "Mul",
            OpKind::Slice { .. } => "Slice",
            OpKind::Concat => "ConcatV2",
            OpKind::Dropout => "Dropout",
            OpKind::BatchNorm => "FusedBatchNorm",
            OpKind::BatchNormGrad => "FusedBatchNormGrad",
            OpKind::Lrn => "LRN",
            OpKind::LrnGrad => "LRNGrad",
            OpKind::EmbeddingLookup => "GatherV2",
            OpKind::EmbeddingGrad => "ScatterAdd",
            OpKind::Reshape => "Reshape",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tf_name())
    }
}

/// The role a tensor plays across training steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TensorRole {
    /// Minibatch input, refreshed every step.
    Input,
    /// Trainable parameter, persistent across steps.
    Parameter,
    /// Intermediate activation or gradient, local to one step.
    Activation,
    /// Class labels or other integer side data.
    Labels,
    /// Argmax indices or similar integer side outputs.
    Indices,
    /// Scalar outputs such as the loss.
    Scalar,
}

/// Static description of one tensor in the graph.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct TensorInfo {
    /// The tensor's identifier.
    pub id: TensorId,
    /// Shape of the value (element count for index tensors).
    pub shape: pim_tensor::Shape,
    /// Cross-step role.
    pub role: TensorRole,
    /// Human-readable name for reports ("conv1/filter").
    pub name: String,
}

/// One operation node.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct OpNode {
    /// The node's identifier.
    pub id: OpId,
    /// What the node computes.
    pub kind: OpKind,
    /// Tensors read (order is kind-specific; see [`OpKind`] docs).
    pub inputs: Vec<TensorId>,
    /// Tensors produced.
    pub outputs: Vec<TensorId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tf_names_match_paper_tables() {
        assert_eq!(
            OpKind::Conv2DBackpropFilter(ConvGeometry::square(3, 1, 1)).tf_name(),
            "Conv2DBackpropFilter"
        );
        assert_eq!(OpKind::Activation(Activation::Relu).tf_name(), "Relu");
        assert_eq!(OpKind::ApplyAdam.tf_name(), "ApplyAdam");
        assert_eq!(OpKind::Binary(BinaryOp::Mul).tf_name(), "Mul");
        assert_eq!(OpKind::Slice { start: 0, len: 1 }.tf_name(), "Slice");
    }

    #[test]
    fn display_matches_tf_name() {
        let kind = OpKind::BiasAddGrad;
        assert_eq!(kind.to_string(), kind.tf_name());
    }
}
