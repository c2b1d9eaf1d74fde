//! Energy and power accounting (§VII-A: "total power as the sum of
//! contributions from computing units, memory components, and communication
//! interfaces", each derived from operation counts times energy per
//! operation).

use temp_wsc::config::WaferConfig;
use temp_wsc::units::pj_per_bit_to_joules_per_byte;

/// Accumulated energy per subsystem, in joules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyLedger {
    /// Compute (PE array + vector unit) energy.
    pub compute: f64,
    /// D2D interconnect energy.
    pub d2d: f64,
    /// HBM/DRAM access energy.
    pub hbm: f64,
}

impl EnergyLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Adds compute energy for `flops` executed at the wafer's J/FLOP.
    pub fn add_compute(&mut self, flops: f64, cfg: &WaferConfig) {
        self.compute += flops * cfg.die.joules_per_flop();
    }

    /// Adds D2D energy for `bytes` traversing `hops` links.
    pub fn add_d2d(&mut self, bytes: f64, hops: f64, cfg: &WaferConfig) {
        self.d2d += bytes * hops * pj_per_bit_to_joules_per_byte(cfg.d2d.energy_pj_per_bit);
    }

    /// Adds HBM energy for `bytes` of DRAM traffic.
    pub fn add_hbm(&mut self, bytes: f64, cfg: &WaferConfig) {
        self.hbm += bytes * pj_per_bit_to_joules_per_byte(cfg.hbm.energy_pj_per_bit);
    }

    /// Total energy in joules.
    pub fn total(&self) -> f64 {
        self.compute + self.d2d + self.hbm
    }

    /// Fractional breakdown `(compute, d2d, hbm)`; all zeros when empty.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (self.compute / t, self.d2d / t, self.hbm / t)
    }

    /// Average power in watts over a wall-clock duration.
    pub fn average_power(&self, duration: f64) -> f64 {
        if duration <= 0.0 {
            return 0.0;
        }
        self.total() / duration
    }

    /// Power efficiency: work per joule, e.g. tokens per joule when `work`
    /// is a token count (Fig. 14's "throughput per watt" normalizes this).
    pub fn efficiency(&self, work: f64) -> f64 {
        if self.total() <= 0.0 {
            return 0.0;
        }
        work / self.total()
    }

    /// Elementwise sum of two ledgers.
    pub fn merged(&self, other: &EnergyLedger) -> EnergyLedger {
        EnergyLedger {
            compute: self.compute + other.compute,
            d2d: self.d2d + other.d2d,
            hbm: self.hbm + other.hbm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_energy_uses_flops_per_watt() {
        let cfg = WaferConfig::hpca();
        let mut e = EnergyLedger::new();
        e.add_compute(2.0e12, &cfg); // 2 TFLOP at 2 TFLOPS/W => 1 J
        assert!((e.compute - 1.0).abs() < 1e-9);
    }

    #[test]
    fn d2d_energy_scales_with_hops() {
        let cfg = WaferConfig::hpca();
        let mut e1 = EnergyLedger::new();
        let mut e3 = EnergyLedger::new();
        e1.add_d2d(1.0e9, 1.0, &cfg);
        e3.add_d2d(1.0e9, 3.0, &cfg);
        assert!((e3.d2d / e1.d2d - 3.0).abs() < 1e-9);
        // 1 GB over 1 hop at 5 pJ/bit = 8e9 bits * 5e-12 = 0.04 J.
        assert!((e1.d2d - 0.04).abs() < 1e-6);
    }

    #[test]
    fn hbm_energy_uses_6pj_per_bit() {
        let cfg = WaferConfig::hpca();
        let mut e = EnergyLedger::new();
        e.add_hbm(1.0e9, &cfg);
        assert!((e.hbm - 0.048).abs() < 1e-6);
    }

    #[test]
    fn breakdown_sums_to_one() {
        let cfg = WaferConfig::hpca();
        let mut e = EnergyLedger::new();
        e.add_compute(1.0e12, &cfg);
        e.add_d2d(1.0e9, 2.0, &cfg);
        e.add_hbm(1.0e9, &cfg);
        let (c, d, h) = e.breakdown();
        assert!((c + d + h - 1.0).abs() < 1e-12);
        assert!(c > d && c > h, "compute dominates (paper: >50%)");
    }

    #[test]
    fn power_and_efficiency() {
        let cfg = WaferConfig::hpca();
        let mut e = EnergyLedger::new();
        e.add_compute(4.0e12, &cfg); // 2 J
        assert!((e.average_power(2.0) - 1.0).abs() < 1e-9);
        assert!((e.efficiency(100.0) - 50.0).abs() < 1e-9);
        assert_eq!(EnergyLedger::new().average_power(1.0), 0.0);
    }

    #[test]
    fn merged_adds_componentwise() {
        let a = EnergyLedger {
            compute: 1.0,
            d2d: 2.0,
            hbm: 3.0,
        };
        let b = EnergyLedger {
            compute: 0.5,
            d2d: 0.5,
            hbm: 0.5,
        };
        let m = a.merged(&b);
        assert_eq!(m.total(), 7.5);
    }
}
