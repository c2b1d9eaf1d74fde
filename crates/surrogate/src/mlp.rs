//! A small feed-forward network with manual backprop and Adam — the DNN
//! cost model of §VII-A.
//!
//! Architecture: standardized features → two tanh hidden layers → scalar
//! log-latency. Training is deterministic in the seed. Inference is a few
//! hundred nanoseconds — the paper's "lookup time of a few hundred
//! microseconds" covers feature assembly too, and either way beats
//! re-simulation by 100–1000x.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;

/// Feature standardization (z-score).
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Standardizer {
    /// Fits per-feature mean/std.
    ///
    /// # Panics
    ///
    /// Panics on an empty feature matrix.
    pub fn fit(features: &[Vec<f64>]) -> Self {
        assert!(!features.is_empty(), "empty feature matrix");
        let d = features[0].len();
        let n = features.len() as f64;
        let mut mean = vec![0.0; d];
        for f in features {
            for (m, v) in mean.iter_mut().zip(f) {
                *m += v / n;
            }
        }
        let mut std = vec![0.0; d];
        for f in features {
            for ((s, v), m) in std.iter_mut().zip(f).zip(&mean) {
                *s += (v - m).powi(2) / n;
            }
        }
        for s in std.iter_mut() {
            *s = s.sqrt().max(1e-9);
        }
        Standardizer { mean, std }
    }

    /// Standardizes one feature vector.
    pub fn apply(&self, f: &[f64]) -> Vec<f64> {
        f.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// Reassembles a standardizer from its parameters (deserialization).
    pub fn from_parts(mean: Vec<f64>, std: Vec<f64>) -> Self {
        Standardizer { mean, std }
    }

    /// Per-feature means.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Per-feature standard deviations.
    pub fn std(&self) -> &[f64] {
        &self.std
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainParams {
    /// Hidden width of both layers.
    pub hidden: usize,
    /// Full-batch epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl Default for TrainParams {
    fn default() -> Self {
        TrainParams {
            hidden: 24,
            epochs: 4000,
            learning_rate: 5e-3,
            seed: 17,
        }
    }
}

/// The trained network.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    w1: Vec<Vec<f64>>, // hidden x input
    b1: Vec<f64>,
    w2: Vec<Vec<f64>>, // hidden x hidden
    b2: Vec<f64>,
    w3: Vec<f64>, // hidden
    b3: f64,
    norm: Standardizer,
}

impl Mlp {
    /// Trains on log-latency targets with full-batch Adam.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn train(data: &Dataset, params: &TrainParams) -> Self {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let norm = Standardizer::fit(&data.features);
        let x: Vec<Vec<f64>> = data.features.iter().map(|f| norm.apply(f)).collect();
        let y: Vec<f64> = data.targets.iter().map(|t| t.max(1e-12).ln()).collect();
        let d = x[0].len();
        let h = params.hidden;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let init = |fan_in: usize| {
            let scale = (1.0 / fan_in as f64).sqrt();
            move |rng: &mut StdRng| rng.gen_range(-1.0..1.0) * scale
        };
        let g1 = init(d);
        let mut w1: Vec<Vec<f64>> = (0..h)
            .map(|_| (0..d).map(|_| g1(&mut rng)).collect())
            .collect();
        let mut b1 = vec![0.0; h];
        let g2 = init(h);
        let mut w2: Vec<Vec<f64>> = (0..h)
            .map(|_| (0..h).map(|_| g2(&mut rng)).collect())
            .collect();
        let mut b2 = vec![0.0; h];
        let g3 = init(h);
        let mut w3: Vec<f64> = (0..h).map(|_| g3(&mut rng)).collect();
        let mut b3 = 0.0;

        // Adam state, one flat vector per tensor.
        let mut adam = AdamState::new(h * d + h + h * h + h + h + 1);
        let n = x.len() as f64;

        for _epoch in 0..params.epochs {
            // Accumulate full-batch gradients.
            let mut d_w1 = vec![vec![0.0; d]; h];
            let mut d_b1 = vec![0.0; h];
            let mut d_w2 = vec![vec![0.0; h]; h];
            let mut d_b2 = vec![0.0; h];
            let mut d_w3 = vec![0.0; h];
            let mut d_b3 = 0.0;
            for (xi, &yi) in x.iter().zip(&y) {
                // Forward.
                let a1: Vec<f64> = (0..h)
                    .map(|i| (b1[i] + w1[i].iter().zip(xi).map(|(w, v)| w * v).sum::<f64>()).tanh())
                    .collect();
                let a2: Vec<f64> = (0..h)
                    .map(|i| {
                        (b2[i] + w2[i].iter().zip(&a1).map(|(w, v)| w * v).sum::<f64>()).tanh()
                    })
                    .collect();
                let out = b3 + w3.iter().zip(&a2).map(|(w, v)| w * v).sum::<f64>();
                // Backward (MSE in log space).
                let err = 2.0 * (out - yi) / n;
                d_b3 += err;
                for i in 0..h {
                    d_w3[i] += err * a2[i];
                }
                let mut delta2 = vec![0.0; h];
                for i in 0..h {
                    delta2[i] = err * w3[i] * (1.0 - a2[i] * a2[i]);
                    d_b2[i] += delta2[i];
                    for j in 0..h {
                        d_w2[i][j] += delta2[i] * a1[j];
                    }
                }
                for j in 0..h {
                    let mut upstream = 0.0;
                    for i in 0..h {
                        upstream += delta2[i] * w2[i][j];
                    }
                    let delta1 = upstream * (1.0 - a1[j] * a1[j]);
                    d_b1[j] += delta1;
                    for kk in 0..d {
                        d_w1[j][kk] += delta1 * xi[kk];
                    }
                }
            }
            // Adam step over the flattened parameter vector.
            let mut params_flat: Vec<&mut f64> = Vec::new();
            let mut grads_flat: Vec<f64> = Vec::new();
            for (row, grow) in w1.iter_mut().zip(&d_w1) {
                for (p, g) in row.iter_mut().zip(grow) {
                    params_flat.push(p);
                    grads_flat.push(*g);
                }
            }
            for (p, g) in b1.iter_mut().zip(&d_b1) {
                params_flat.push(p);
                grads_flat.push(*g);
            }
            for (row, grow) in w2.iter_mut().zip(&d_w2) {
                for (p, g) in row.iter_mut().zip(grow) {
                    params_flat.push(p);
                    grads_flat.push(*g);
                }
            }
            for (p, g) in b2.iter_mut().zip(&d_b2) {
                params_flat.push(p);
                grads_flat.push(*g);
            }
            for (p, g) in w3.iter_mut().zip(&d_w3) {
                params_flat.push(p);
                grads_flat.push(*g);
            }
            params_flat.push(&mut b3);
            grads_flat.push(d_b3);
            adam.step(&mut params_flat, &grads_flat, params.learning_rate);
        }
        Mlp {
            w1,
            b1,
            w2,
            b2,
            w3,
            b3,
            norm,
        }
    }

    /// Predicts one latency (seconds).
    pub fn predict(&self, features: &[f64]) -> f64 {
        let x = self.norm.apply(features);
        let h = self.b1.len();
        let a1: Vec<f64> = (0..h)
            .map(|i| {
                (self.b1[i] + self.w1[i].iter().zip(&x).map(|(w, v)| w * v).sum::<f64>()).tanh()
            })
            .collect();
        let a2: Vec<f64> = (0..h)
            .map(|i| {
                (self.b2[i] + self.w2[i].iter().zip(&a1).map(|(w, v)| w * v).sum::<f64>()).tanh()
            })
            .collect();
        let log = self.b3 + self.w3.iter().zip(&a2).map(|(w, v)| w * v).sum::<f64>();
        log.exp()
    }

    /// Predicts every sample of a dataset.
    pub fn predict_all(&self, data: &Dataset) -> Vec<f64> {
        data.features.iter().map(|f| self.predict(f)).collect()
    }

    /// The feature dimension the network was trained on.
    pub fn feature_dim(&self) -> usize {
        self.w1.first().map(Vec::len).unwrap_or(0)
    }

    /// Serializes the trained network to a line-oriented text format (the
    /// same portable representation [`crate::linreg`] uses).
    ///
    /// Format: an `mlp v1 <input> <hidden>` header, then one
    /// whitespace-separated row per `w1` hidden unit, the `b1` row, one
    /// row per `w2` hidden unit, the `b2` row, the `w3` row, the scalar
    /// `b3`, and the standardizer's mean/std rows. Floats round-trip
    /// exactly (shortest `{:?}` representation).
    pub fn to_text(&self) -> String {
        let row = |vs: &[f64]| {
            vs.iter()
                .map(|v| format!("{v:?}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let d = self.w1.first().map(Vec::len).unwrap_or(0);
        let h = self.b1.len();
        let mut out = format!("mlp v1 {d} {h}\n");
        for r in &self.w1 {
            out.push_str(&row(r));
            out.push('\n');
        }
        out.push_str(&row(&self.b1));
        out.push('\n');
        for r in &self.w2 {
            out.push_str(&row(r));
            out.push('\n');
        }
        out.push_str(&row(&self.b2));
        out.push('\n');
        out.push_str(&row(&self.w3));
        out.push('\n');
        out.push_str(&format!("{:?}\n", self.b3));
        out.push_str(&row(self.norm.mean()));
        out.push('\n');
        out.push_str(&row(self.norm.std()));
        out.push('\n');
        out
    }

    /// Parses a network serialized by [`Mlp::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> std::result::Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty predictor text")?;
        let mut parts = header.split_whitespace();
        if (parts.next(), parts.next()) != (Some("mlp"), Some("v1")) {
            return Err(format!("unsupported predictor header: {header}"));
        }
        let d: usize = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or("missing input dimension in header")?;
        let h: usize = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or("missing hidden width in header")?;
        let mut parse_row = |what: &str, dim: usize| -> std::result::Result<Vec<f64>, String> {
            let line = lines.next().ok_or(format!("missing {what} row"))?;
            let vals: Vec<f64> = line
                .split_whitespace()
                .map(|v| v.parse::<f64>().map_err(|e| format!("{what}: {e}")))
                .collect::<std::result::Result<_, _>>()?;
            if vals.len() != dim {
                return Err(format!("{what}: expected {dim} values, got {}", vals.len()));
            }
            if let Some(bad) = vals.iter().find(|v| !v.is_finite()) {
                return Err(format!("{what}: non-finite value {bad}"));
            }
            Ok(vals)
        };
        let w1: Vec<Vec<f64>> = (0..h)
            .map(|i| parse_row(&format!("w1[{i}]"), d))
            .collect::<std::result::Result<_, _>>()?;
        let b1 = parse_row("b1", h)?;
        let w2: Vec<Vec<f64>> = (0..h)
            .map(|i| parse_row(&format!("w2[{i}]"), h))
            .collect::<std::result::Result<_, _>>()?;
        let b2 = parse_row("b2", h)?;
        let w3 = parse_row("w3", h)?;
        let b3 = parse_row("b3", 1)?[0];
        let mean = parse_row("mean", d)?;
        let std = parse_row("std", d)?;
        if let Some(bad) = std.iter().find(|s| **s <= 0.0) {
            return Err(format!("std: non-positive value {bad}"));
        }
        Ok(Mlp {
            w1,
            b1,
            w2,
            b2,
            w3,
            b3,
            norm: Standardizer::from_parts(mean, std),
        })
    }
}

/// Flat-vector Adam optimizer state.
#[derive(Debug, Clone)]
struct AdamState {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl AdamState {
    fn new(len: usize) -> Self {
        AdamState {
            m: vec![0.0; len],
            v: vec![0.0; len],
            t: 0,
        }
    }

    fn step(&mut self, params: &mut [&mut f64], grads: &[f64], lr: f64) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        for ((p, &g), (m, v)) in params
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            *m = B1 * *m + (1.0 - B1) * g;
            *v = B2 * *v + (1.0 - B2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            **p -= lr * mhat / (vhat.sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate, TargetClass};
    use crate::linreg::LinearRegression;
    use crate::metrics::{mean_relative_error, pearson};

    #[test]
    fn standardizer_zero_means_unit_std() {
        let features = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]];
        let s = Standardizer::fit(&features);
        let z: Vec<Vec<f64>> = features.iter().map(|f| s.apply(f)).collect();
        let mean0: f64 = z.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        assert!(mean0.abs() < 1e-12);
    }

    #[test]
    fn mlp_beats_linear_regression_on_compute_latency() {
        // The Fig. 21 headline: DNN corr > baseline corr, error ~3x lower.
        let data = generate(TargetClass::Compute, 300, 21);
        let (train, test) = data.split(0.8);
        let mlp = Mlp::train(&train, &TrainParams::default());
        let lr = LinearRegression::fit(&train);
        let mlp_pred = mlp.predict_all(&test);
        let lr_pred = lr.predict_all(&test);
        let mlp_err = mean_relative_error(&mlp_pred, &test.targets);
        let lr_err = mean_relative_error(&lr_pred, &test.targets);
        assert!(
            mlp_err < lr_err,
            "MLP err {mlp_err:.3} must beat linreg err {lr_err:.3}"
        );
        assert!(pearson(&mlp_pred, &test.targets) > 0.97);
    }

    #[test]
    fn training_is_deterministic() {
        let data = generate(TargetClass::Collective, 60, 4);
        let params = TrainParams {
            epochs: 30,
            ..Default::default()
        };
        let a = Mlp::train(&data, &params);
        let b = Mlp::train(&data, &params);
        assert_eq!(a.predict(&data.features[0]), b.predict(&data.features[0]));
    }
}
