//! Simulator-generated datasets for the three Fig. 21 latency classes.
//!
//! "By varying parameters such as batch size, sequence length, and hidden
//! size, we generate 500 unique test cases" (§VIII-G). Features are the
//! log-transformed sweep parameters plus derived quantities (FLOPs, bytes —
//! latency is near power-law in these); targets are the simulator's
//! latencies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use temp_graph::tensor::{DType, LinearDims};
use temp_sim::collectives::{Collective, CollectiveKind};
use temp_sim::compute::ComputeModel;
use temp_wsc::config::WaferConfig;
use temp_wsc::rings::snake_order;
use temp_wsc::topology::DieId;

/// Which latency the samples measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetClass {
    /// Single-operator computation latency (GEMM/GEMV/softmax/SiLU mix).
    Compute,
    /// Collective communication latency (all-reduce/-gather/reduce-scatter/P2P).
    Collective,
    /// Latency with computation/communication overlap (GEMM + TATP stream).
    Overlap,
}

/// A feature-matrix/target-vector dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Row-major feature matrix.
    pub features: Vec<Vec<f64>>,
    /// Target latencies in seconds.
    pub targets: Vec<f64>,
    /// Class generated.
    pub class: TargetClass,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.features.first().map(Vec::len).unwrap_or(0)
    }

    /// Splits into (train, test) at `fraction` of the samples.
    pub fn split(&self, fraction: f64) -> (Dataset, Dataset) {
        let cut = ((self.len() as f64) * fraction).round() as usize;
        let (tf, sf) = self.features.split_at(cut.min(self.len()));
        let (tt, st) = self.targets.split_at(cut.min(self.len()));
        (
            Dataset {
                features: tf.to_vec(),
                targets: tt.to_vec(),
                class: self.class,
            },
            Dataset {
                features: sf.to_vec(),
                targets: st.to_vec(),
                class: self.class,
            },
        )
    }
}

/// Generates `n` samples of a class, deterministically in `seed`.
pub fn generate(class: TargetClass, n: usize, seed: u64) -> Dataset {
    let cfg = WaferConfig::hpca();
    let compute = ComputeModel::new(&cfg);
    let mesh = cfg.mesh();
    let sim = temp_sim::network::ContentionSim::new(&cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut features = Vec::with_capacity(n);
    let mut targets = Vec::with_capacity(n);
    for _ in 0..n {
        let b = 1u64 << rng.gen_range(0..6); // 1..32
        let m = 1u64 << rng.gen_range(6..13); // 64..4096
        let k = 1u64 << rng.gen_range(8..14); // 256..8192
        let h = 1u64 << rng.gen_range(10..14); // 1024..8192
        let dims = LinearDims::new(b, m, h, k);
        let flops = dims.flops();
        let bytes = dims.input_bytes(DType::F16)
            + dims.weight_bytes(DType::F16)
            + dims.output_bytes(DType::F16);
        match class {
            TargetClass::Compute => {
                let t = compute.gemm_latency_raw(flops, bytes);
                features.push(vec![
                    (b as f64).ln(),
                    (m as f64).ln(),
                    (h as f64).ln(),
                    (k as f64).ln(),
                    flops.ln(),
                    bytes.ln(),
                ]);
                targets.push(t);
            }
            TargetClass::Collective => {
                let group_size = 1usize << rng.gen_range(1..4); // 2..8
                let group: Vec<DieId> = snake_order(&mesh).into_iter().take(group_size).collect();
                let kind = match rng.gen_range(0..4) {
                    0 => CollectiveKind::AllReduce,
                    1 => CollectiveKind::AllGather,
                    2 => CollectiveKind::ReduceScatter,
                    _ => CollectiveKind::P2pShift,
                };
                let payload = dims.input_bytes(DType::F16);
                let c = Collective::new(kind, group, payload);
                let t = c.simulate(&sim, &mesh);
                features.push(vec![
                    group_size as f64,
                    kind_code(kind),
                    payload.ln(),
                    (payload / group_size as f64).ln(),
                ]);
                targets.push(t.max(1e-9));
            }
            TargetClass::Overlap => {
                let tatp = 1usize << rng.gen_range(1..4); // 2..8
                let comp = compute.gemm_latency_raw(flops / tatp as f64, bytes / tatp as f64);
                let chunk = dims.weight_bytes(DType::F16) / tatp as f64;
                let stream = cfg.d2d.transfer_time(chunk);
                // Eq. 2 shape: per-round max of compute and stream, summed.
                let t = tatp as f64 * comp.max(stream);
                features.push(vec![
                    (b as f64).ln(),
                    (m as f64).ln(),
                    (h as f64).ln(),
                    (k as f64).ln(),
                    tatp as f64,
                    flops.ln(),
                    chunk.ln(),
                ]);
                targets.push(t);
            }
        }
    }
    Dataset {
        features,
        targets,
        class,
    }
}

fn kind_code(kind: CollectiveKind) -> f64 {
    match kind {
        CollectiveKind::AllReduce => 0.0,
        CollectiveKind::AllGather => 1.0,
        CollectiveKind::ReduceScatter => 2.0,
        CollectiveKind::Broadcast => 3.0,
        CollectiveKind::P2pShift => 4.0,
        CollectiveKind::AllToAll => 5.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(TargetClass::Compute, 50, 1);
        let b = generate(TargetClass::Compute, 50, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn all_classes_produce_positive_targets() {
        for class in [
            TargetClass::Compute,
            TargetClass::Collective,
            TargetClass::Overlap,
        ] {
            let d = generate(class, 40, 3);
            assert_eq!(d.len(), 40);
            assert!(d.targets.iter().all(|t| *t > 0.0), "{class:?}");
            assert!(d.feature_dim() >= 4);
        }
    }

    #[test]
    fn split_preserves_counts() {
        let d = generate(TargetClass::Overlap, 100, 5);
        let (train, test) = d.split(0.8);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
    }
}
