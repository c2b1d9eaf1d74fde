//! Tensor dtypes and the (B, M, N, K) linear-operator dimension tuple.
//!
//! TEMP's unified parallelism representation (Fig. 10) splits tensors along
//! four named axes: **B** (batch), **M** (sequence), **N** (input hidden)
//! and **K** (output hidden/intermediate). A linear operator computes
//! `O[B, M, K] = I[B, M, N] x W[N, K]` (Eq. 1 of the paper).

/// Numeric precision of a tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DType {
    /// IEEE half precision — the paper's training dtype for weights and
    /// activations.
    #[default]
    F16,
    /// bfloat16 (same byte width as F16).
    Bf16,
    /// IEEE single precision — the paper's Adam optimizer state dtype.
    F32,
}

impl DType {
    /// Bytes per element.
    pub fn bytes(&self) -> u64 {
        match self {
            DType::F16 | DType::Bf16 => 2,
            DType::F32 => 4,
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DType::F16 => write!(f, "fp16"),
            DType::Bf16 => write!(f, "bf16"),
            DType::F32 => write!(f, "fp32"),
        }
    }
}

/// The four named parallelizable axes of the unified representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Batch dimension (split by DP).
    B,
    /// Sequence dimension (split by SP/CP and by TATP streaming).
    M,
    /// Input-hidden dimension (split by TP variants and TATP).
    N,
    /// Output-hidden/intermediate dimension (split by TP and TATP).
    K,
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Axis::B => write!(f, "B"),
            Axis::M => write!(f, "M"),
            Axis::N => write!(f, "N"),
            Axis::K => write!(f, "K"),
        }
    }
}

/// Dimensions of a linear operator `O[B, M, K] = I[B, M, N] x W[N, K]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinearDims {
    /// Batch size (independent GEMMs).
    pub b: u64,
    /// Rows of the input (sequence/token dimension).
    pub m: u64,
    /// Contraction dimension (input hidden size).
    pub n: u64,
    /// Output columns (output hidden / intermediate size).
    pub k: u64,
}

impl LinearDims {
    /// Creates the dimension tuple.
    pub fn new(b: u64, m: u64, n: u64, k: u64) -> Self {
        LinearDims { b, m, n, k }
    }

    /// Multiply–accumulate FLOPs of the full operator (2 per MAC).
    pub fn flops(&self) -> f64 {
        2.0 * self.b as f64 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Bytes of the input activation `I[B, M, N]`.
    pub fn input_bytes(&self, dtype: DType) -> f64 {
        (self.b * self.m * self.n * dtype.bytes()) as f64
    }

    /// Bytes of the weight `W[N, K]` (shared across the batch).
    pub fn weight_bytes(&self, dtype: DType) -> f64 {
        (self.n * self.k * dtype.bytes()) as f64
    }

    /// Bytes of the output activation `O[B, M, K]`.
    pub fn output_bytes(&self, dtype: DType) -> f64 {
        (self.b * self.m * self.k * dtype.bytes()) as f64
    }

    /// Number of weight parameters.
    pub fn weight_params(&self) -> u64 {
        self.n * self.k
    }

    /// Splits the dims by per-axis factors, rounding up so that shards cover
    /// the tensor (the last shard may be padded).
    ///
    /// # Panics
    ///
    /// Panics if any factor is zero.
    pub fn split(&self, b: u64, m: u64, n: u64, k: u64) -> LinearDims {
        assert!(
            b > 0 && m > 0 && n > 0 && k > 0,
            "split factors must be positive"
        );
        LinearDims {
            b: self.b.div_ceil(b),
            m: self.m.div_ceil(m),
            n: self.n.div_ceil(n),
            k: self.k.div_ceil(k),
        }
    }

    /// Arithmetic intensity in FLOPs per byte touched (input + weight +
    /// output, at the given dtype), used by the roofline compute model.
    pub fn arithmetic_intensity(&self, dtype: DType) -> f64 {
        let bytes = self.input_bytes(dtype) + self.weight_bytes(dtype) + self.output_bytes(dtype);
        if bytes == 0.0 {
            0.0
        } else {
            self.flops() / bytes
        }
    }
}

impl std::fmt::Display for LinearDims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[B={}, M={}, N={}, K={}]",
            self.b, self.m, self.n, self.k
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_widths() {
        assert_eq!(DType::F16.bytes(), 2);
        assert_eq!(DType::Bf16.bytes(), 2);
        assert_eq!(DType::F32.bytes(), 4);
    }

    #[test]
    fn flops_are_two_bmnk() {
        let d = LinearDims::new(2, 128, 256, 512);
        assert!((d.flops() - 2.0 * 2.0 * 128.0 * 256.0 * 512.0).abs() < 1.0);
    }

    #[test]
    fn byte_accounting() {
        let d = LinearDims::new(1, 4, 8, 16);
        assert_eq!(d.input_bytes(DType::F16), (4 * 8 * 2) as f64);
        assert_eq!(d.weight_bytes(DType::F16), (8 * 16 * 2) as f64);
        assert_eq!(d.output_bytes(DType::F32), (4 * 16 * 4) as f64);
        assert_eq!(d.weight_params(), 128);
    }

    #[test]
    fn split_rounds_up() {
        let d = LinearDims::new(2, 100, 64, 64);
        let s = d.split(2, 3, 1, 4);
        assert_eq!(s.b, 1);
        assert_eq!(s.m, 34);
        assert_eq!(s.n, 64);
        assert_eq!(s.k, 16);
    }

    #[test]
    #[should_panic(expected = "split factors must be positive")]
    fn split_rejects_zero() {
        LinearDims::new(1, 1, 1, 1).split(0, 1, 1, 1);
    }

    #[test]
    fn intensity_grows_with_square_size() {
        let small = LinearDims::new(1, 64, 64, 64);
        let big = LinearDims::new(1, 4096, 4096, 4096);
        assert!(big.arithmetic_intensity(DType::F16) > small.arithmetic_intensity(DType::F16));
    }
}
