//! Multivariate linear regression — the Fig. 21 baseline predictor.
//!
//! Ordinary least squares via normal equations with ridge damping, on
//! standardized features and log-space targets (the favorable formulation;
//! the baseline still cannot capture the roofline max() nonlinearity).

use crate::dataset::Dataset;
use crate::mlp::Standardizer;

/// A fitted linear model.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    weights: Vec<f64>,
    bias: f64,
    norm: Standardizer,
}

impl LinearRegression {
    /// Fits by ridge-damped normal equations on log-targets.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset) -> Self {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let norm = Standardizer::fit(&data.features);
        let x: Vec<Vec<f64>> = data.features.iter().map(|f| norm.apply(f)).collect();
        let y: Vec<f64> = data.targets.iter().map(|t| t.max(1e-12).ln()).collect();
        let d = x[0].len();
        let n = x.len();
        // Build X^T X (+ ridge) and X^T y with a bias column folded in.
        let dim = d + 1;
        let mut xtx = vec![vec![0.0f64; dim]; dim];
        let mut xty = vec![0.0f64; dim];
        for (row, &target) in x.iter().zip(&y) {
            let mut ext = row.clone();
            ext.push(1.0);
            for i in 0..dim {
                xty[i] += ext[i] * target;
                for j in 0..dim {
                    xtx[i][j] += ext[i] * ext[j];
                }
            }
        }
        let ridge = 1e-6 * n as f64;
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += ridge;
        }
        let theta = solve_gaussian(xtx, xty);
        let (weights, bias) = theta.split_at(d);
        LinearRegression {
            weights: weights.to_vec(),
            bias: bias[0],
            norm,
        }
    }

    /// Predicts one latency (seconds).
    pub fn predict(&self, features: &[f64]) -> f64 {
        let x = self.norm.apply(features);
        let log = self.bias + x.iter().zip(&self.weights).map(|(a, b)| a * b).sum::<f64>();
        log.exp()
    }

    /// Predicts every sample of a dataset.
    pub fn predict_all(&self, data: &Dataset) -> Vec<f64> {
        data.features.iter().map(|f| self.predict(f)).collect()
    }

    /// The feature dimension the model was fitted on.
    pub fn feature_dim(&self) -> usize {
        self.weights.len()
    }

    /// Serializes the fitted model to a portable line-oriented text
    /// format.
    ///
    /// Format: a `linreg v1 <dim>` header followed by one
    /// whitespace-separated row each for weights, bias, feature means and
    /// feature standard deviations. Floats round-trip exactly (shortest
    /// `{:?}` representation).
    pub fn to_text(&self) -> String {
        let row = |vs: &[f64]| {
            vs.iter()
                .map(|v| format!("{v:?}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!(
            "linreg v1 {}\n{}\n{:?}\n{}\n{}\n",
            self.weights.len(),
            row(&self.weights),
            self.bias,
            row(self.norm.mean()),
            row(self.norm.std()),
        )
    }

    /// Parses a model serialized by [`LinearRegression::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> std::result::Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty predictor text")?;
        let mut parts = header.split_whitespace();
        if (parts.next(), parts.next()) != (Some("linreg"), Some("v1")) {
            return Err(format!("unsupported predictor header: {header}"));
        }
        let dim: usize = parts
            .next()
            .and_then(|d| d.parse().ok())
            .ok_or("missing feature dimension in header")?;
        fn parse_row(
            what: &str,
            line: Option<&str>,
            dim: usize,
        ) -> std::result::Result<Vec<f64>, String> {
            let line = line.ok_or(format!("missing {what} row"))?;
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
        }
        let weights = parse_row("weights", lines.next(), dim)?;
        let bias_line = lines.next().ok_or("missing bias row")?;
        let bias: f64 = bias_line.trim().parse().map_err(|e| format!("bias: {e}"))?;
        if !bias.is_finite() {
            return Err(format!("bias: non-finite value {bias}"));
        }
        let mean = parse_row("mean", lines.next(), dim)?;
        let std = parse_row("std", lines.next(), dim)?;
        // `Standardizer::fit` clamps stds to >= 1e-9; a persisted model
        // must satisfy the same invariant or `predict` would silently
        // divide by zero.
        if let Some(bad) = std.iter().find(|s| **s <= 0.0) {
            return Err(format!("std: non-positive value {bad}"));
        }
        Ok(LinearRegression {
            weights,
            bias,
            norm: Standardizer::from_parts(mean, std),
        })
    }
}

/// Gaussian elimination with partial pivoting.
fn solve_gaussian(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite")
            })
            .expect("non-empty");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        if diag.abs() < 1e-12 {
            continue;
        }
        let (head, tail) = a.split_at_mut(col + 1);
        let pivot_row = &head[col];
        let b_col = b[col];
        for (offset, row_vec) in tail.iter_mut().enumerate() {
            let factor = row_vec[col] / diag;
            for (cell, &pivot_cell) in row_vec[col..].iter_mut().zip(&pivot_row[col..]) {
                *cell -= factor * pivot_cell;
            }
            b[col + 1 + offset] -= factor * b_col;
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = if a[row][row].abs() < 1e-12 {
            0.0
        } else {
            acc / a[row][row]
        };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate, TargetClass};
    use crate::metrics::pearson;

    #[test]
    fn fits_compute_latencies_reasonably() {
        let data = generate(TargetClass::Compute, 300, 11);
        let (train, test) = data.split(0.8);
        let lr = LinearRegression::fit(&train);
        let pred = lr.predict_all(&test);
        let corr = pearson(&pred, &test.targets);
        assert!(corr > 0.8, "corr {corr}");
    }

    #[test]
    fn text_serialization_round_trips_exactly() {
        let data = generate(TargetClass::Compute, 120, 23);
        let lr = LinearRegression::fit(&data);
        let text = lr.to_text();
        let back = LinearRegression::from_text(&text).unwrap();
        assert_eq!(lr, back);
        // Predictions are bit-identical through the round trip.
        for f in data.features.iter().take(10) {
            assert_eq!(lr.predict(f).to_bits(), back.predict(f).to_bits());
        }
        // Malformed inputs are rejected, not panicked on.
        assert!(LinearRegression::from_text("").is_err());
        assert!(LinearRegression::from_text("mlp v1 3\n1 2 3").is_err());
        assert!(LinearRegression::from_text("linreg v1 2\n1.0\n0.0\n1 2\n1 2").is_err());
        // Value-invalid files are rejected too: a zero/negative std would
        // silently divide predictions to inf/NaN, and non-finite
        // parameters must not round-trip.
        assert!(LinearRegression::from_text("linreg v1 1\n1.0\n0.0\n1.0\n0.0").is_err());
        assert!(LinearRegression::from_text("linreg v1 1\n1.0\n0.0\n1.0\n-1.0").is_err());
        assert!(LinearRegression::from_text("linreg v1 1\nNaN\n0.0\n1.0\n1.0").is_err());
        assert!(LinearRegression::from_text("linreg v1 1\n1.0\ninf\n1.0\n1.0").is_err());
    }

    #[test]
    fn exact_linear_log_relation_is_recovered() {
        // y = exp(2*x0 + 1): exactly linear in log space.
        let features: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 10.0]).collect();
        let targets: Vec<f64> = features.iter().map(|f| (2.0 * f[0] + 1.0).exp()).collect();
        let data = Dataset {
            features,
            targets,
            class: TargetClass::Compute,
        };
        let lr = LinearRegression::fit(&data);
        let pred = lr.predict(&[2.5]);
        let expected = (2.0f64 * 2.5 + 1.0).exp();
        assert!(
            (pred - expected).abs() / expected < 1e-4,
            "{pred} vs {expected}"
        );
    }
}
