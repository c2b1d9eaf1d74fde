//! The selective transfer policy (§V): stream whichever tensor is smaller.
//!
//! TATP can stream either the sub-weights or the sub-inputs during parallel
//! execution. For long sequences, activations dwarf weights ("in Llama2-7B
//! with a sequence length over 14k, activations are approximately 3x larger
//! than weight tensors"), so TATP streams weights; for wide layers on short
//! sequences the reverse holds.

use temp_graph::tensor::{DType, LinearDims};

/// Which tensor the stream carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamChoice {
    /// Stream sub-weights; inputs stay resident.
    Weights,
    /// Stream sub-inputs (activations); weights stay resident.
    Activations,
}

impl std::fmt::Display for StreamChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamChoice::Weights => write!(f, "weights"),
            StreamChoice::Activations => write!(f, "activations"),
        }
    }
}

/// The outcome of the selective policy for one linear operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamPlan {
    /// What is streamed.
    pub choice: StreamChoice,
    /// Bytes of one streamed sub-tensor (per round, per die).
    pub sub_tensor_bytes: f64,
    /// Bytes of the full streamed tensor.
    pub streamed_total_bytes: f64,
    /// Bytes of the resident (non-streamed) tensor per die.
    pub resident_bytes_per_die: f64,
}

/// Chooses the smaller tensor to stream for a linear operator split
/// `tatp` ways.
///
/// # Panics
///
/// Panics if `tatp` is zero.
pub fn choose_stream(dims: &LinearDims, dtype: DType, tatp: usize) -> StreamPlan {
    assert!(tatp > 0, "TATP degree must be positive");
    let n = tatp as f64;
    let weight_bytes = dims.weight_bytes(dtype);
    let input_bytes = dims.input_bytes(dtype);
    if weight_bytes <= input_bytes {
        StreamPlan {
            choice: StreamChoice::Weights,
            sub_tensor_bytes: weight_bytes / n,
            streamed_total_bytes: weight_bytes,
            resident_bytes_per_die: input_bytes / n,
        }
    } else {
        StreamPlan {
            choice: StreamChoice::Activations,
            sub_tensor_bytes: input_bytes / n,
            streamed_total_bytes: input_bytes,
            resident_bytes_per_die: weight_bytes / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_sequences_stream_weights() {
        // Llama2-7B-like linear with a 16k sequence: activations >> weights.
        let dims = LinearDims::new(8, 16_384, 4096, 4096);
        let plan = choose_stream(&dims, DType::F16, 8);
        assert_eq!(plan.choice, StreamChoice::Weights);
        assert!(plan.streamed_total_bytes < dims.input_bytes(DType::F16));
    }

    #[test]
    fn tiny_batch_streams_activations() {
        // One short row against a huge weight matrix.
        let dims = LinearDims::new(1, 16, 8192, 8192);
        let plan = choose_stream(&dims, DType::F16, 4);
        assert_eq!(plan.choice, StreamChoice::Activations);
    }

    #[test]
    fn sub_tensor_is_total_over_degree() {
        let dims = LinearDims::new(4, 2048, 4096, 4096);
        let plan = choose_stream(&dims, DType::F16, 16);
        assert!((plan.sub_tensor_bytes * 16.0 - plan.streamed_total_bytes).abs() < 1.0);
    }

    #[test]
    fn choice_always_minimizes_streamed_volume() {
        for (b, m, n, k) in [
            (1u64, 128, 1024, 1024),
            (8, 8192, 1024, 64),
            (2, 64, 64, 8192),
        ] {
            let dims = LinearDims::new(b, m, n, k);
            let plan = choose_stream(&dims, DType::F16, 4);
            let streamed = plan.streamed_total_bytes;
            let other = match plan.choice {
                StreamChoice::Weights => dims.input_bytes(DType::F16),
                StreamChoice::Activations => dims.weight_bytes(DType::F16),
            };
            assert!(streamed <= other, "({b},{m},{n},{k})");
        }
    }

    #[test]
    fn paper_example_14k_sequence_ratio() {
        // §V: Llama2-7B with seq > 14k => activations ~3x weights.
        let dims = LinearDims::new(1, 14_336 * 3, 4096, 4096); // batched rows folded in M
        let act = dims.input_bytes(DType::F16);
        let w = dims.weight_bytes(DType::F16);
        assert!(act / w > 2.5, "ratio {}", act / w);
        assert_eq!(
            choose_stream(&dims, DType::F16, 8).choice,
            StreamChoice::Weights
        );
    }
}
