//! Signal-integrity model for on-interposer D2D traces (Fig. 7(b), §III-B).
//!
//! 2.5D interposer traces attenuate rapidly with length and frequency. The
//! paper's constraints, reproduced here:
//!
//! * short (< 50 mm) traces tolerate the loss budget (< ~16 dB) — reliable;
//! * beyond ~100–150 mm the loss exceeds the disallowed region (≥ 25 dB) and
//!   the bit error rate grows by up to 1e8x, forcing forward error
//!   correction (FEC) which raises link latency to 210 ns — 14x the normal
//!   ~15 ns PHY latency;
//! * therefore practical D2D links connect only *adjacent* dies.

use crate::config::WaferConfig;
use crate::units::NS;

/// Loss budget in dB beyond which a trace enters the "disallowed region"
/// of Fig. 7(b).
pub const DISALLOWED_LOSS_DB: f64 = 25.0;

/// Loss in dB that short traces must stay under to avoid FEC (§V: "<16 dB").
pub const TOLERABLE_LOSS_DB: f64 = 16.0;

/// Baseline (FEC-free) PHY latency of a D2D hop; the paper quotes FEC at
/// 210 ns being 14x this.
pub const PHY_LATENCY: f64 = 15.0 * NS;

/// Nominal signaling frequency of the D2D SerDes in GHz used for link
/// feasibility checks.
pub const NOMINAL_FREQ_GHZ: f64 = 8.0;

/// Interposer trace signal-integrity model.
///
/// The attenuation model is a first-order fit to the loss curves in
/// Fig. 7(b): loss grows linearly in trace length, with a frequency-dependent
/// per-mm coefficient (dielectric + skin effect).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalModel {
    /// Frequency-independent loss per mm (dB/mm).
    pub base_db_per_mm: f64,
    /// Additional loss per mm per GHz (dB/mm/GHz).
    pub freq_db_per_mm_ghz: f64,
    /// Reference bit error rate of an in-budget link.
    pub base_ber: f64,
}

impl Default for SignalModel {
    fn default() -> Self {
        // Calibrated so that at 8 GHz: 30 mm ≈ 9.6 dB (fine), 50 mm ≈ 16 dB
        // (the tolerable limit), 100 mm ≈ 32 dB and 150 mm ≈ 48 dB (deep in
        // the disallowed region) — matching the shape of Fig. 7(b).
        SignalModel {
            base_db_per_mm: 0.08,
            freq_db_per_mm_ghz: 0.03,
            base_ber: 1e-18,
        }
    }
}

impl SignalModel {
    /// Signal loss in dB for a trace of `length_mm` at `freq_ghz`.
    pub fn loss_db(&self, length_mm: f64, freq_ghz: f64) -> f64 {
        (self.base_db_per_mm + self.freq_db_per_mm_ghz * freq_ghz) * length_mm
    }

    /// Longest trace (mm) that stays within `budget_db` at `freq_ghz`.
    pub fn max_length_mm(&self, budget_db: f64, freq_ghz: f64) -> f64 {
        budget_db / (self.base_db_per_mm + self.freq_db_per_mm_ghz * freq_ghz)
    }

    /// Whether a trace is reliable without FEC at the nominal frequency.
    pub fn is_reliable(&self, length_mm: f64) -> bool {
        self.loss_db(length_mm, NOMINAL_FREQ_GHZ) <= TOLERABLE_LOSS_DB
    }

    /// Whether a trace is outright infeasible (disallowed region) even with
    /// FEC at the nominal frequency.
    pub fn is_disallowed(&self, length_mm: f64) -> bool {
        self.loss_db(length_mm, NOMINAL_FREQ_GHZ) > DISALLOWED_LOSS_DB
    }

    /// Bit error rate versus trace length: flat within the reliable region,
    /// then growing by ~10^8 over the next 20 mm (§I: "the bit error rate
    /// increases by up to 1e8x" past 50 mm).
    pub fn bit_error_rate(&self, length_mm: f64) -> f64 {
        let reliable = self.max_length_mm(TOLERABLE_LOSS_DB, NOMINAL_FREQ_GHZ);
        if length_mm <= reliable {
            self.base_ber
        } else {
            self.base_ber * 10f64.powf(((length_mm - reliable) * 0.4).min(12.0))
        }
    }

    /// Per-hop link latency for a trace of `length_mm`: PHY latency when the
    /// trace fits the loss budget, FEC latency (from `cfg`) otherwise.
    pub fn hop_latency(&self, length_mm: f64, cfg: &WaferConfig) -> f64 {
        if self.is_reliable(length_mm) {
            PHY_LATENCY
        } else {
            cfg.fec_latency
        }
    }
}

/// Summary of link feasibility classes for a wafer, used by the Fig. 7
/// experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFeasibility {
    /// Trace length between adjacent columns (mm).
    pub adjacent_x_mm: f64,
    /// Trace length between adjacent rows (mm).
    pub adjacent_y_mm: f64,
    /// Trace length of a row wrap-around (torus) link (mm).
    pub wrap_x_mm: f64,
    /// Whether adjacent links are FEC-free.
    pub adjacent_reliable: bool,
    /// Whether torus wrap links are even allowed (they never are at scale).
    pub wrap_disallowed: bool,
}

/// Evaluates link feasibility classes on a wafer configuration.
pub fn analyze_wafer(cfg: &WaferConfig, model: &SignalModel) -> LinkFeasibility {
    let adjacent_x = cfg.trace_length_mm(1, 0);
    let adjacent_y = cfg.trace_length_mm(0, 1);
    let wrap_x = cfg.trace_length_mm(cfg.mesh_width.saturating_sub(1), 0);
    LinkFeasibility {
        adjacent_x_mm: adjacent_x,
        adjacent_y_mm: adjacent_y,
        wrap_x_mm: wrap_x,
        adjacent_reliable: model.is_reliable(adjacent_x) && model.is_reliable(adjacent_y),
        wrap_disallowed: model.is_disallowed(wrap_x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_grows_with_length_and_frequency() {
        let m = SignalModel::default();
        assert!(m.loss_db(50.0, 8.0) > m.loss_db(30.0, 8.0));
        assert!(m.loss_db(50.0, 10.0) > m.loss_db(50.0, 2.0));
    }

    #[test]
    fn fifty_mm_is_the_reliability_knee() {
        let m = SignalModel::default();
        assert!(m.is_reliable(49.0));
        assert!(!m.is_reliable(55.0));
        // Paper's constraint: D2D links limited to ~50 mm.
        let max = m.max_length_mm(TOLERABLE_LOSS_DB, NOMINAL_FREQ_GHZ);
        assert!((45.0..55.0).contains(&max), "knee at {max} mm");
    }

    #[test]
    fn long_traces_are_disallowed() {
        let m = SignalModel::default();
        assert!(m.is_disallowed(100.0));
        assert!(m.is_disallowed(150.0));
        assert!(!m.is_disallowed(40.0));
    }

    #[test]
    fn ber_explodes_past_the_knee() {
        let m = SignalModel::default();
        let ratio = m.bit_error_rate(70.0) / m.bit_error_rate(40.0);
        assert!(ratio >= 1e7, "BER ratio {ratio}");
        // Capped growth keeps the number finite.
        assert!(m.bit_error_rate(500.0).is_finite());
    }

    #[test]
    fn fec_latency_is_14x_phy() {
        let cfg = WaferConfig::hpca();
        let m = SignalModel::default();
        let short = m.hop_latency(33.0, &cfg);
        let long = m.hop_latency(120.0, &cfg);
        assert!((short - PHY_LATENCY).abs() < 1e-15);
        assert!((long / short - 14.0).abs() < 0.01, "ratio {}", long / short);
    }

    #[test]
    fn hpca_wafer_adjacent_links_feasible_wraps_not() {
        let cfg = WaferConfig::hpca();
        let f = analyze_wafer(&cfg, &SignalModel::default());
        assert!(f.adjacent_reliable);
        assert!(f.wrap_disallowed);
        assert!(f.wrap_x_mm > 190.0); // 7 dies * 33.25 mm
    }
}
