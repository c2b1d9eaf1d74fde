//! Roofline operator-latency model.
//!
//! GEMM-like operators run on the PE arrays at a size-dependent fraction of
//! peak (small tiles cannot fill the systolic pipeline); bandwidth-bound
//! operators (softmax, norms, elementwise) are limited by HBM/SRAM traffic.
//! The model is the compute half of the paper's wafer-centric cost model
//! (Eq. 2: `Comp(Op)`).

use temp_graph::op::Operator;
use temp_graph::tensor::DType;
use temp_wsc::config::WaferConfig;

/// Per-die compute latency model.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeModel {
    /// Peak FP16 FLOP/s of one die.
    pub peak_flops: f64,
    /// HBM bandwidth in bytes/s feeding the die.
    pub hbm_bandwidth: f64,
    /// HBM access latency in seconds (charged once per operator).
    pub hbm_latency: f64,
    /// Maximum achievable fraction of peak for large GEMMs.
    pub max_efficiency: f64,
    /// FLOP count at which GEMM efficiency reaches half of
    /// [`ComputeModel::max_efficiency`].
    pub half_saturation_flops: f64,
    /// Fixed per-operator launch overhead in seconds (instruction dispatch
    /// by the die's top controller).
    pub launch_overhead: f64,
}

impl ComputeModel {
    /// Builds the model from a wafer configuration.
    pub fn new(cfg: &WaferConfig) -> Self {
        ComputeModel {
            peak_flops: cfg.die.peak_flops,
            hbm_bandwidth: cfg.hbm.bandwidth,
            hbm_latency: cfg.hbm.latency,
            max_efficiency: 0.85,
            half_saturation_flops: 5.0e8,
            launch_overhead: 2.0e-6,
        }
    }

    /// Achieved fraction of peak for a GEMM of `flops` total work.
    ///
    /// Saturating curve: `eff = max_eff * flops / (flops + half_sat)` — tiny
    /// GEMMs (fine-grained TATP sub-tensors at very high parallel degrees)
    /// see degraded utilization, which produces the diminishing-returns tail
    /// of the Fig. 9 sweet-spot analysis.
    pub fn gemm_efficiency(&self, flops: f64) -> f64 {
        if flops <= 0.0 {
            return 0.0;
        }
        self.max_efficiency * flops / (flops + self.half_saturation_flops)
    }

    /// Forward latency of one operator on one die, derated by the die's
    /// surviving compute fraction (`1.0` = healthy; see
    /// [`temp_wsc::fault::FaultMap::surviving_compute`]).
    pub fn op_latency(&self, op: &Operator, surviving_compute: f64) -> f64 {
        self.latency_of(op.flops(), op, surviving_compute)
    }

    /// Training-step latency (forward + backward) of one operator.
    pub fn training_latency(&self, op: &Operator, surviving_compute: f64) -> f64 {
        self.latency_of(op.training_flops(), op, surviving_compute)
    }

    fn latency_of(&self, flops: f64, op: &Operator, surviving_compute: f64) -> f64 {
        let surviving = surviving_compute.clamp(1e-6, 1.0);
        let dtype = DType::F16;
        // Memory traffic scales with the work ratio: backward passes re-read
        // activations/weights and write gradients.
        let work_ratio = if op.flops() > 0.0 {
            flops / op.flops()
        } else {
            1.0
        };
        let bytes = work_ratio
            * (op.kind.input_bytes(dtype)
                + op.kind.output_bytes(dtype)
                + op.kind.weight_bytes(dtype));
        let mem_time = self.hbm_latency + bytes / self.hbm_bandwidth;
        let compute_time = if op.kind.is_compute_bound() {
            let eff = self.gemm_efficiency(flops).max(1e-3);
            flops / (self.peak_flops * surviving * eff)
        } else {
            // Vector units: bandwidth-bound; count a nominal 10% of peak.
            flops / (self.peak_flops * surviving * 0.1)
        };
        self.launch_overhead + compute_time.max(mem_time)
    }

    /// Latency of a raw GEMM expressed by FLOPs and bytes touched (used by
    /// the surrogate dataset generator, which sweeps dimensions directly).
    pub fn gemm_latency_raw(&self, flops: f64, bytes: f64) -> f64 {
        let eff = self.gemm_efficiency(flops).max(1e-3);
        let compute = flops / (self.peak_flops * eff);
        let mem = self.hbm_latency + bytes / self.hbm_bandwidth;
        self.launch_overhead + compute.max(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_graph::op::OpKind;
    use temp_graph::tensor::LinearDims;

    fn model() -> ComputeModel {
        ComputeModel::new(&WaferConfig::hpca())
    }

    fn gemm(b: u64, m: u64, n: u64, k: u64) -> Operator {
        Operator::new("g", OpKind::Gemm(LinearDims::new(b, m, n, k)))
    }

    #[test]
    fn efficiency_is_monotone_and_bounded() {
        let m = model();
        let mut prev = 0.0;
        for exp in 6..14 {
            let e = m.gemm_efficiency(10f64.powi(exp));
            assert!(e >= prev);
            assert!(e <= m.max_efficiency);
            prev = e;
        }
        assert_eq!(m.gemm_efficiency(0.0), 0.0);
    }

    #[test]
    fn large_gemm_approaches_peak() {
        let m = model();
        let op = gemm(1, 8192, 8192, 8192);
        let t = m.op_latency(&op, 1.0);
        let ideal = op.flops() / (m.peak_flops * m.max_efficiency);
        assert!(t < 1.5 * ideal, "t={t}, ideal={ideal}");
    }

    #[test]
    fn small_gemm_is_overhead_dominated() {
        let m = model();
        let op = gemm(1, 32, 32, 32);
        let t = m.op_latency(&op, 1.0);
        assert!(t >= m.launch_overhead);
        // Achieved FLOP/s far below peak.
        let achieved = op.flops() / t;
        assert!(achieved < 0.01 * m.peak_flops);
    }

    #[test]
    fn fault_derating_slows_compute() {
        let m = model();
        // Large enough to be compute-bound even after derating.
        let op = gemm(1, 8192, 8192, 8192);
        let healthy = m.op_latency(&op, 1.0);
        let degraded = m.op_latency(&op, 0.75);
        assert!(degraded > healthy);
        let ratio = degraded / healthy;
        assert!(ratio > 1.2 && ratio < 1.45, "ratio {ratio}");
    }

    #[test]
    fn softmax_is_bandwidth_bound() {
        let m = model();
        let op = Operator::new(
            "s",
            OpKind::Softmax {
                rows: 1 << 20,
                cols: 128,
            },
        );
        let t = m.op_latency(&op, 1.0);
        let bytes = op.kind.input_bytes(DType::F16) + op.kind.output_bytes(DType::F16);
        let mem_floor = bytes / m.hbm_bandwidth;
        assert!(t >= mem_floor, "t={t} floor={mem_floor}");
    }

    #[test]
    fn training_latency_exceeds_forward() {
        let m = model();
        let op = gemm(1, 2048, 4096, 4096);
        assert!(m.training_latency(&op, 1.0) > 2.0 * m.op_latency(&op, 1.0));
    }

    #[test]
    fn raw_gemm_latency_matches_operator_path() {
        let m = model();
        let d = LinearDims::new(1, 1024, 1024, 1024);
        let op = gemm(1, 1024, 1024, 1024);
        let bytes =
            d.input_bytes(DType::F16) + d.weight_bytes(DType::F16) + d.output_bytes(DType::F16);
        let raw = m.gemm_latency_raw(d.flops(), bytes);
        let viaop = m.op_latency(&op, 1.0);
        assert!((raw - viaop).abs() / viaop < 1e-9);
    }
}
