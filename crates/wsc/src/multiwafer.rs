//! Multi-wafer systems (Fig. 19, §VIII-E).
//!
//! Models beyond ~200B parameters exceed one wafer's HBM; the paper scales
//! to 2–6 WSCs joined by inter-wafer links (9 TB/s, Dojo-class [109]) and
//! distributes pipeline stages across wafers. Intra-wafer parallelism stays
//! whatever TEMP chooses per wafer.

use crate::config::WaferConfig;
use crate::units::{TB, US};
use crate::{Result, WscError};

/// Inter-wafer interconnect parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterWaferLink {
    /// Aggregate bandwidth between adjacent wafers in bytes/s (paper: 9 TB/s).
    pub bandwidth: f64,
    /// One-way latency in seconds.
    pub latency: f64,
    /// Transfer energy in pJ/bit.
    pub energy_pj_per_bit: f64,
}

impl Default for InterWaferLink {
    fn default() -> Self {
        InterWaferLink {
            bandwidth: 9.0 * TB,
            latency: 1.0 * US,
            energy_pj_per_bit: 8.0,
        }
    }
}

/// A linear chain of identical wafers — the natural shape for pipeline
/// parallelism across WSCs.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiWaferSystem {
    /// Per-wafer configuration (all wafers identical).
    pub wafer: WaferConfig,
    /// Number of wafers in the chain.
    pub wafer_count: usize,
    /// Inter-wafer link parameters.
    pub link: InterWaferLink,
}

impl MultiWaferSystem {
    /// Creates a chain of `wafer_count` identical wafers.
    ///
    /// # Errors
    ///
    /// Returns [`WscError::InvalidConfig`] when `wafer_count` is zero or the
    /// wafer configuration is invalid.
    pub fn new(wafer: WaferConfig, wafer_count: usize) -> Result<Self> {
        if wafer_count == 0 {
            return Err(WscError::InvalidConfig(
                "wafer count must be positive".into(),
            ));
        }
        wafer.validate()?;
        Ok(MultiWaferSystem {
            wafer,
            wafer_count,
            link: InterWaferLink::default(),
        })
    }

    /// Total dies across all wafers.
    pub fn total_dies(&self) -> usize {
        self.wafer.die_count() * self.wafer_count
    }

    /// Aggregate HBM capacity in bytes.
    pub fn total_hbm_capacity(&self) -> f64 {
        self.wafer.total_hbm_capacity() * self.wafer_count as f64
    }

    /// Aggregate peak compute in FLOP/s.
    pub fn total_peak_flops(&self) -> f64 {
        self.wafer.total_peak_flops() * self.wafer_count as f64
    }

    /// Pipeline stages hosted by the chain at `pp_multiplier` stages per
    /// wafer.
    pub fn stage_count(&self, pp_multiplier: usize) -> usize {
        self.wafer_count * pp_multiplier.max(1)
    }

    /// Which wafer hosts pipeline stage `stage`: stages fill wafers in
    /// chain order, `pp_multiplier` consecutive stages per wafer.
    pub fn wafer_of_stage(&self, stage: usize, pp_multiplier: usize) -> usize {
        (stage / pp_multiplier.max(1)).min(self.wafer_count.saturating_sub(1))
    }

    /// Whether the boundary between stage `stage` and `stage + 1` crosses
    /// wafers (and therefore pays the inter-wafer link) or stays on one
    /// wafer (the activation stays resident on the same dies).
    pub fn boundary_crosses_wafers(&self, stage: usize, pp_multiplier: usize) -> bool {
        self.wafer_of_stage(stage, pp_multiplier) != self.wafer_of_stage(stage + 1, pp_multiplier)
    }

    /// The smallest wafer count whose aggregate HBM can hold `bytes` — a
    /// necessary (not sufficient) lower bound on deployment size.
    pub fn minimum_wafers_for(wafer: &WaferConfig, bytes: f64) -> usize {
        let per_wafer = wafer.total_hbm_capacity();
        if per_wafer <= 0.0 {
            return 1;
        }
        (bytes / per_wafer).ceil().max(1.0) as usize
    }

    /// Time to move `bytes` between adjacent wafers (activation handoff of a
    /// pipeline stage boundary).
    pub fn inter_wafer_transfer_time(&self, bytes: f64) -> f64 {
        self.link.latency + bytes / self.link.bandwidth
    }

    /// Energy in joules to move `bytes` between adjacent wafers.
    pub fn inter_wafer_transfer_energy(&self, bytes: f64) -> f64 {
        bytes * 8.0 * self.link.energy_pj_per_bit * 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_wafers() {
        assert!(MultiWaferSystem::new(WaferConfig::hpca(), 0).is_err());
    }

    #[test]
    fn totals_scale_linearly() {
        let one = MultiWaferSystem::new(WaferConfig::hpca(), 1).unwrap();
        let four = MultiWaferSystem::new(WaferConfig::hpca(), 4).unwrap();
        assert_eq!(four.total_dies(), 4 * one.total_dies());
        assert!((four.total_hbm_capacity() - 4.0 * one.total_hbm_capacity()).abs() < 1.0);
        assert!((four.total_peak_flops() - 4.0 * one.total_peak_flops()).abs() < 1.0);
    }

    #[test]
    fn stage_placement_fills_wafers_in_order() {
        let sys = MultiWaferSystem::new(WaferConfig::hpca(), 3).unwrap();
        assert_eq!(sys.stage_count(2), 6);
        assert_eq!(sys.stage_count(0), 3, "multiplier clamps to 1");
        let wafers: Vec<usize> = (0..6).map(|s| sys.wafer_of_stage(s, 2)).collect();
        assert_eq!(wafers, vec![0, 0, 1, 1, 2, 2]);
        // Only every second boundary crosses wafers at 2 stages/wafer.
        let crossings: Vec<bool> = (0..5).map(|s| sys.boundary_crosses_wafers(s, 2)).collect();
        assert_eq!(crossings, vec![false, true, false, true, false]);
        // At 1 stage/wafer every boundary is an inter-wafer handoff.
        assert!((0..2).all(|s| sys.boundary_crosses_wafers(s, 1)));
    }

    #[test]
    fn minimum_wafers_matches_aggregate_hbm() {
        let wafer = WaferConfig::hpca();
        let per_wafer = wafer.total_hbm_capacity();
        assert_eq!(MultiWaferSystem::minimum_wafers_for(&wafer, 0.0), 1);
        assert_eq!(
            MultiWaferSystem::minimum_wafers_for(&wafer, per_wafer * 0.7),
            1
        );
        assert_eq!(
            MultiWaferSystem::minimum_wafers_for(&wafer, per_wafer * 1.3),
            2
        );
        assert_eq!(
            MultiWaferSystem::minimum_wafers_for(&wafer, per_wafer * 4.0),
            4
        );
    }

    #[test]
    fn inter_wafer_transfer_time_is_latency_plus_serialization() {
        let sys = MultiWaferSystem::new(WaferConfig::hpca(), 2).unwrap();
        let bytes = 9.0e12; // exactly one second of serialization
        let t = sys.inter_wafer_transfer_time(bytes);
        assert!((t - (1.0 + sys.link.latency)).abs() < 1e-9);
    }

    #[test]
    fn transfer_energy_matches_pj_per_bit() {
        let sys = MultiWaferSystem::new(WaferConfig::hpca(), 2).unwrap();
        let e = sys.inter_wafer_transfer_energy(1.0e9); // 8e9 bits at 8 pJ
        assert!((e - 8.0e9 * 8.0e-12).abs() < 1e-9);
    }
}
