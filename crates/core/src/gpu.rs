//! The A100 GPU-cluster reference system of Fig. 15.
//!
//! §VIII-B: "a 32-die WSC system [is configured] to match the theoretical
//! FP16 peak performance of a 4-node A100 GPU cluster (32 GPUs total, at
//! 312 TFLOPS per GPU)", running Megatron-3 (MeSP). GPUs enjoy a switched
//! all-to-all fabric (no mesh contention, any ring is "physical") but far
//! lower per-accelerator interconnect bandwidth than the wafer's D2D links.

use temp_graph::models::ModelConfig;
use temp_graph::workload::{RecomputeMode, Workload};

/// A switched GPU cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuCluster {
    /// Number of GPUs.
    pub gpus: usize,
    /// Peak FP16 FLOP/s per GPU (A100: 312 TFLOPS).
    pub peak_flops: f64,
    /// HBM capacity per GPU in bytes (A100-80G).
    pub hbm_capacity: f64,
    /// Effective per-GPU collective bandwidth in bytes/s (NVLink/NVSwitch
    /// ring bandwidth; A100 NVLink3: 300 GB/s usable).
    pub collective_bandwidth: f64,
    /// Achievable fraction of peak on large GEMMs.
    pub efficiency: f64,
}

impl Default for GpuCluster {
    fn default() -> Self {
        GpuCluster {
            gpus: 32,
            peak_flops: 312.0e12,
            hbm_capacity: 80.0e9,
            collective_bandwidth: 300.0e9,
            efficiency: 0.5,
        }
    }
}

/// A GPU cluster evaluation result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuReport {
    /// Step time in seconds.
    pub step_time: f64,
    /// Compute portion.
    pub compute_time: f64,
    /// Exposed communication portion.
    pub comm_time: f64,
    /// Training throughput in tokens/s.
    pub throughput: f64,
    /// Chosen (dp, tp, sp) degrees.
    pub config: (usize, usize, usize),
}

impl GpuCluster {
    /// Evaluates MeSP (Megatron-3) on the cluster: searches (DP, TP, SP)
    /// power-of-two splits, prices ring collectives at NVLink bandwidth
    /// (switch topology: every ring is contention-free), and returns the
    /// best feasible configuration.
    pub fn evaluate_mesp(&self, model: &ModelConfig, workload: &Workload) -> GpuReport {
        let mut best: Option<GpuReport> = None;
        let n = self.gpus;
        for dp_exp in 0.. {
            let dp = 1usize << dp_exp;
            if dp > n {
                break;
            }
            if n % dp != 0 {
                continue;
            }
            for tp_exp in 0.. {
                let tp = 1usize << tp_exp;
                if dp * tp > n {
                    break;
                }
                let sp = n / dp / tp;
                if !sp.is_power_of_two() {
                    continue;
                }
                for recompute in [RecomputeMode::Selective, RecomputeMode::Full] {
                    let w = workload.clone().with_recompute(recompute);
                    if let Some(r) = self.eval_config(model, &w, dp, tp, sp) {
                        if best.map(|b| r.step_time < b.step_time).unwrap_or(true) {
                            best = Some(r);
                        }
                        break; // feasible at this recompute level
                    }
                }
            }
        }
        best.expect("at least full-recompute FSDP-free config exists for evaluated models")
    }

    fn eval_config(
        &self,
        model: &ModelConfig,
        workload: &Workload,
        dp: usize,
        tp: usize,
        sp: usize,
    ) -> Option<GpuReport> {
        let micro = workload.micro_batches as f64;
        // Memory: Megatron-style replication (DP replicates states).
        let params = model.total_params() as f64;
        let state_bytes = params * workload.bytes_per_param() / (tp * sp) as f64;
        let local_batch = (workload.micro_batch_size() as f64 / dp as f64).max(1.0);
        let local_seq = workload.seq_len as f64 / sp as f64;
        let act = workload.activation_bytes_per_layer_with(
            model,
            local_batch.ceil() as u64,
            local_seq.ceil() as u64,
        ) / tp as f64
            * model.layers as f64;
        if state_bytes + act > self.hbm_capacity {
            return None;
        }
        // Compute: per-GPU share of step FLOPs.
        let recompute_factor = match workload.recompute {
            RecomputeMode::Full => 4.0 / 3.0,
            _ => 1.0,
        };
        let flops = workload.step_flops(model) * recompute_factor / self.gpus as f64;
        let compute_time = flops / (self.peak_flops * self.efficiency);
        // Communication per layer per micro-batch: TP/SP all-reduce-volume
        // equivalents + DP gradient sync, at NVLink ring bandwidth.
        let e = workload.compute_dtype.bytes() as f64;
        let act_tensor = local_batch * workload.seq_len as f64 * model.hidden as f64 * e;
        let tp_factor = if tp > 1 {
            2.0 * (tp - 1) as f64 / tp as f64
        } else {
            0.0
        };
        let per_layer_comm = 4.0 * act_tensor * tp_factor / self.collective_bandwidth;
        let grad_bytes = params * e / (tp * sp) as f64;
        let dp_factor = if dp > 1 {
            2.0 * (dp - 1) as f64 / dp as f64
        } else {
            0.0
        };
        let dp_comm = grad_bytes * dp_factor / self.collective_bandwidth;
        let comm_time = per_layer_comm * model.layers as f64 * micro + dp_comm * micro;
        let step_time = compute_time + comm_time;
        Some(GpuReport {
            step_time,
            compute_time,
            comm_time,
            throughput: workload.tokens_per_step() as f64 / step_time,
            config: (dp, tp, sp),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_graph::models::ModelZoo;

    #[test]
    fn cluster_matches_wafer_peak() {
        // 32 x 312 TFLOPS ~ 10 PFLOPS vs 32-die wafer at 1800 TFLOPS...
        // the paper scales the WSC to match the GPU peak; our Fig. 15 bench
        // derates the wafer instead (see the bench binary).
        let c = GpuCluster::default();
        assert!((c.gpus as f64 * c.peak_flops - 9.984e15).abs() < 1e12);
    }

    #[test]
    fn evaluates_all_table2_models() {
        let c = GpuCluster::default();
        for model in ModelZoo::table2() {
            let w = Workload::for_model(&model);
            let r = c.evaluate_mesp(&model, &w);
            assert!(
                r.step_time.is_finite() && r.step_time > 0.0,
                "{}",
                model.name
            );
            let (dp, tp, sp) = r.config;
            assert_eq!(dp * tp * sp, 32);
        }
    }

    #[test]
    fn small_models_prefer_dp_large_models_need_tp_sp() {
        let c = GpuCluster::default();
        let small = c.evaluate_mesp(
            &ModelZoo::gpt3_6_7b(),
            &Workload::for_model(&ModelZoo::gpt3_6_7b()),
        );
        let large = c.evaluate_mesp(
            &ModelZoo::gpt3_175b(),
            &Workload::for_model(&ModelZoo::gpt3_175b()),
        );
        assert!(
            small.config.0 >= large.config.0,
            "DP degree shrinks with model size"
        );
        assert!(
            large.config.1 * large.config.2 > 1,
            "175B needs model parallelism"
        );
    }
}
