//! Operator kinds and their FLOP/footprint accounting.
//!
//! TEMP's cost model (§VII-A) covers "essential computational operators such
//! as GEMM, Softmax, GeLU" plus the attention-specific GEMMs. Each operator
//! reports FLOPs and byte footprints; GEMM-like operators expose their
//! (B, M, N, K) dims for the partitioning machinery.

use crate::tensor::{DType, LinearDims};

/// The operator vocabulary of the Fig. 12(a) Transformer block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpKind {
    /// Dense matrix multiply `O[B,M,K] = I[B,M,N] x W[N,K]` with trained
    /// weights (QKV projection, output projection, FC1, FC2).
    Gemm(LinearDims),
    /// Weightless batched matmul between two activations (attention
    /// `Q x K^T` and `Score x V`); `dims.b` folds batch x heads.
    BatchedMatmul(LinearDims),
    /// Row-wise softmax over `rows` rows of `cols` elements (attention
    /// scores). With online softmax/FlashAttention this is fused and never
    /// materialized.
    Softmax {
        /// Number of independent rows.
        rows: u64,
        /// Elements per row.
        cols: u64,
    },
    /// LayerNorm/RMSNorm over `tokens` tokens of width `hidden`.
    LayerNorm {
        /// Token count (batch x sequence).
        tokens: u64,
        /// Hidden width.
        hidden: u64,
    },
    /// Elementwise activation function (GeLU/SiLU) over `elems` elements.
    Activation {
        /// Element count.
        elems: u64,
    },
    /// Residual addition over `elems` elements.
    Residual {
        /// Element count.
        elems: u64,
    },
    /// Token embedding lookup (and, transposed, the LM head).
    Embedding {
        /// Token count.
        tokens: u64,
        /// Hidden width.
        hidden: u64,
        /// Vocabulary size.
        vocab: u64,
    },
}

impl OpKind {
    /// Floating-point operations of the operator.
    pub fn flops(&self) -> f64 {
        match self {
            OpKind::Gemm(d) | OpKind::BatchedMatmul(d) => d.flops(),
            // exp + sum + div per element, ~5 flops each.
            OpKind::Softmax { rows, cols } => 5.0 * (*rows as f64) * (*cols as f64),
            // mean/var/normalize ~8 flops per element.
            OpKind::LayerNorm { tokens, hidden } => 8.0 * (*tokens as f64) * (*hidden as f64),
            // tanh-approximated GeLU ~10 flops per element.
            OpKind::Activation { elems } => 10.0 * (*elems as f64),
            OpKind::Residual { elems } => *elems as f64,
            // Lookup is bandwidth-bound; count the copy.
            OpKind::Embedding { tokens, hidden, .. } => (*tokens as f64) * (*hidden as f64),
        }
    }

    /// Bytes of trained parameters owned by this operator.
    pub fn weight_bytes(&self, dtype: DType) -> f64 {
        match self {
            OpKind::Gemm(d) => d.weight_bytes(dtype),
            OpKind::LayerNorm { hidden, .. } => (2 * hidden * dtype.bytes()) as f64,
            OpKind::Embedding { hidden, vocab, .. } => (hidden * vocab * dtype.bytes()) as f64,
            _ => 0.0,
        }
    }

    /// Number of trained parameters owned by this operator.
    pub fn weight_params(&self) -> u64 {
        match self {
            OpKind::Gemm(d) => d.weight_params(),
            OpKind::LayerNorm { hidden, .. } => 2 * hidden,
            OpKind::Embedding { hidden, vocab, .. } => hidden * vocab,
            _ => 0,
        }
    }

    /// Bytes of the primary input activation.
    pub fn input_bytes(&self, dtype: DType) -> f64 {
        let e = dtype.bytes() as f64;
        match self {
            OpKind::Gemm(d) | OpKind::BatchedMatmul(d) => d.input_bytes(dtype),
            OpKind::Softmax { rows, cols } => (*rows as f64) * (*cols as f64) * e,
            OpKind::LayerNorm { tokens, hidden } => (*tokens as f64) * (*hidden as f64) * e,
            OpKind::Activation { elems } | OpKind::Residual { elems } => (*elems as f64) * e,
            OpKind::Embedding { tokens, .. } => (*tokens as f64) * 4.0, // int32 ids
        }
    }

    /// Bytes of the output activation.
    pub fn output_bytes(&self, dtype: DType) -> f64 {
        let e = dtype.bytes() as f64;
        match self {
            OpKind::Gemm(d) | OpKind::BatchedMatmul(d) => d.output_bytes(dtype),
            OpKind::Softmax { rows, cols } => (*rows as f64) * (*cols as f64) * e,
            OpKind::LayerNorm { tokens, hidden } => (*tokens as f64) * (*hidden as f64) * e,
            OpKind::Activation { elems } | OpKind::Residual { elems } => (*elems as f64) * e,
            OpKind::Embedding { tokens, hidden, .. } => (*tokens as f64) * (*hidden as f64) * e,
        }
    }

    /// The (B, M, N, K) dims if this operator is GEMM-like (partitionable by
    /// the unified representation), else `None`.
    pub fn linear_dims(&self) -> Option<LinearDims> {
        match self {
            OpKind::Gemm(d) | OpKind::BatchedMatmul(d) => Some(*d),
            _ => None,
        }
    }

    /// Whether the operator carries trained weights.
    pub fn has_weights(&self) -> bool {
        self.weight_params() > 0
    }

    /// Whether this operator is compute-bound (GEMM-like) rather than
    /// bandwidth-bound (elementwise/softmax/norm).
    pub fn is_compute_bound(&self) -> bool {
        matches!(self, OpKind::Gemm(_) | OpKind::BatchedMatmul(_))
    }
}

/// A named operator node.
#[derive(Debug, Clone, PartialEq)]
pub struct Operator {
    /// Human-readable name ("qkv", "softmax", "fc1", ...).
    pub name: String,
    /// Operator kind with dimensions.
    pub kind: OpKind,
    /// Whether FlashAttention-style fusion covers this operator (fused
    /// attention never materializes the S x S score matrix; §VII-A).
    pub fused: bool,
}

impl Operator {
    /// Creates an unfused operator.
    pub fn new(name: impl Into<String>, kind: OpKind) -> Self {
        Operator {
            name: name.into(),
            kind,
            fused: false,
        }
    }

    /// Marks the operator as covered by FlashAttention fusion.
    pub fn fused(mut self) -> Self {
        self.fused = true;
        self
    }

    /// Forward-pass FLOPs.
    pub fn flops(&self) -> f64 {
        self.kind.flops()
    }

    /// Training-step FLOPs: forward + backward (~2x forward for GEMMs:
    /// dI and dW each cost one forward-equivalent).
    pub fn training_flops(&self) -> f64 {
        if self.kind.is_compute_bound() {
            3.0 * self.kind.flops()
        } else {
            2.0 * self.kind.flops()
        }
    }
}

impl std::fmt::Display for Operator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({:?})", self.name, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_accounting_matches_dims() {
        let d = LinearDims::new(1, 2048, 4096, 4096);
        let op = Operator::new("proj", OpKind::Gemm(d));
        assert!((op.flops() - d.flops()).abs() < 1.0);
        assert_eq!(op.kind.weight_params(), 4096 * 4096);
        assert!(op.kind.has_weights());
        assert!(op.kind.is_compute_bound());
        assert_eq!(op.kind.linear_dims(), Some(d));
    }

    #[test]
    fn batched_matmul_has_no_weights() {
        let d = LinearDims::new(32 * 16, 2048, 64, 2048);
        let op = OpKind::BatchedMatmul(d);
        assert!(!op.has_weights());
        assert_eq!(op.weight_bytes(DType::F16), 0.0);
        assert!(op.is_compute_bound());
    }

    #[test]
    fn softmax_is_bandwidth_bound() {
        let op = OpKind::Softmax {
            rows: 1024,
            cols: 2048,
        };
        assert!(!op.is_compute_bound());
        assert!(op.flops() > 0.0);
        assert_eq!(op.linear_dims(), None);
    }

    #[test]
    fn layernorm_owns_two_h_params() {
        let op = OpKind::LayerNorm {
            tokens: 4096,
            hidden: 1024,
        };
        assert_eq!(op.weight_params(), 2048);
    }

    #[test]
    fn embedding_weight_is_vocab_by_hidden() {
        let op = OpKind::Embedding {
            tokens: 2048,
            hidden: 4096,
            vocab: 50000,
        };
        assert_eq!(op.weight_params(), 4096 * 50000);
        assert!(op.output_bytes(DType::F16) > op.input_bytes(DType::F16));
    }

    #[test]
    fn training_flops_triple_forward_for_gemm() {
        let d = LinearDims::new(1, 128, 128, 128);
        let op = Operator::new("g", OpKind::Gemm(d));
        assert!((op.training_flops() - 3.0 * op.flops()).abs() < 1.0);
        let sm = Operator::new("s", OpKind::Softmax { rows: 8, cols: 8 });
        assert!((sm.training_flops() - 2.0 * sm.flops()).abs() < 1.0);
    }

    #[test]
    fn fused_builder_sets_flag() {
        let d = LinearDims::new(1, 8, 8, 8);
        let op = Operator::new("qk", OpKind::BatchedMatmul(d)).fused();
        assert!(op.fused);
    }
}
