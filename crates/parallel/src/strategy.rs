//! Hybrid-parallelism configurations and their enumeration.
//!
//! A configuration assigns a degree to each strategy; degrees multiply to
//! the number of dies (per wafer; pipeline stages multiply across wafers in
//! multi-WSC deployments). The paper writes configurations as tuples like
//! `(DP=2, TP=1, SP=2, TATP=8)` (Figs. 17/18).

use crate::{ParallelError, Result};

/// The parallelization strategies TEMP composes (§II-A, §VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParallelKind {
    /// Data parallelism (replicated model, split batch).
    Dp,
    /// Fully-sharded data parallelism (ZeRO-3-style DP).
    Fsdp,
    /// Megatron tensor parallelism (stationary weight slices).
    Tp,
    /// Sequence parallelism (split along tokens for norms/residuals).
    Sp,
    /// Context parallelism (split attention context).
    Cp,
    /// Expert parallelism (MoE experts sharded across die groups; tokens
    /// reach their experts via all-to-all dispatch).
    Ep,
    /// Pipeline parallelism (split layers into stages).
    Pp,
    /// Topology-aware tensor-stream partitioning — the paper's contribution.
    Tatp,
}

impl ParallelKind {
    /// Number of strategy kinds (the bound for per-kind fixed arrays).
    pub const COUNT: usize = 8;

    /// Canonical small-integer code in `0..ParallelKind::COUNT`, stable
    /// across runs; lets hot paths index fixed-size per-kind accumulators
    /// instead of hashing the enum.
    pub fn index(self) -> usize {
        match self {
            ParallelKind::Dp => 0,
            ParallelKind::Fsdp => 1,
            ParallelKind::Tp => 2,
            ParallelKind::Sp => 3,
            ParallelKind::Cp => 4,
            ParallelKind::Pp => 5,
            ParallelKind::Tatp => 6,
            ParallelKind::Ep => 7,
        }
    }
}

impl std::fmt::Display for ParallelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ParallelKind::Dp => "DP",
            ParallelKind::Fsdp => "FSDP",
            ParallelKind::Tp => "TP",
            ParallelKind::Sp => "SP",
            ParallelKind::Cp => "CP",
            ParallelKind::Ep => "EP",
            ParallelKind::Pp => "PP",
            ParallelKind::Tatp => "TATP",
        };
        write!(f, "{s}")
    }
}

/// A hybrid parallel configuration. Intra-wafer degrees (`dp·tp·sp·cp·tatp`)
/// must cover the die array; `pp` spans wafers (or splits one wafer into
/// stages when `pp_intra_wafer` planning is used by baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HybridConfig {
    /// Data-parallel degree.
    pub dp: usize,
    /// Whether DP shards parameter/optimizer states (FSDP) instead of
    /// replicating them (Megatron-style DP).
    pub fsdp: bool,
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Sequence-parallel degree.
    pub sp: usize,
    /// Context-parallel degree.
    pub cp: usize,
    /// TATP (tensor-stream) degree.
    pub tatp: usize,
    /// Expert-parallel degree. A separate factor of the die array:
    /// `intra_wafer_degree() x ep` must cover the dies exactly, so `ep`
    /// never exceeds the die budget left by the dense-path degrees. MoE
    /// segments shard their experts across the `ep` groups (all-to-all
    /// dispatch/combine); dense segments see the groups as replicas —
    /// which is why `ep > 1` only ever wins on expert-bearing segments.
    pub ep: usize,
    /// Pipeline-parallel degree (stages).
    pub pp: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            dp: 1,
            fsdp: false,
            tp: 1,
            sp: 1,
            cp: 1,
            tatp: 1,
            ep: 1,
            pp: 1,
        }
    }
}

impl HybridConfig {
    /// A pure-DP configuration.
    pub fn dp(degree: usize) -> Self {
        HybridConfig {
            dp: degree,
            ..Default::default()
        }
    }

    /// A pure-TATP configuration.
    pub fn tatp(degree: usize) -> Self {
        HybridConfig {
            tatp: degree,
            ..Default::default()
        }
    }

    /// The Fig. 17/18 tuple constructor `(dp, tp, sp, tatp)`.
    pub fn tuple(dp: usize, tp: usize, sp: usize, tatp: usize) -> Self {
        HybridConfig {
            dp,
            tp,
            sp,
            tatp,
            ..Default::default()
        }
    }

    /// Product of the dense-path intra-wafer degrees (excludes `ep` and
    /// `pp`). Together with `ep` this must cover the die array:
    /// `intra_wafer_degree() x ep == dies`.
    pub fn intra_wafer_degree(&self) -> usize {
        self.dp * self.tp * self.sp * self.cp * self.tatp
    }

    /// Product of all degrees.
    pub fn total_degree(&self) -> usize {
        self.intra_wafer_degree() * self.ep * self.pp
    }

    /// Degree of one strategy.
    pub fn degree(&self, kind: ParallelKind) -> usize {
        match kind {
            ParallelKind::Dp | ParallelKind::Fsdp => self.dp,
            ParallelKind::Tp => self.tp,
            ParallelKind::Sp => self.sp,
            ParallelKind::Cp => self.cp,
            ParallelKind::Ep => self.ep,
            ParallelKind::Pp => self.pp,
            ParallelKind::Tatp => self.tatp,
        }
    }

    /// Validates that the intra-wafer degrees and the expert-parallel
    /// degree together cover exactly `dies` dies
    /// (`intra_wafer_degree() x ep == dies`) and all degrees are positive.
    ///
    /// # Errors
    ///
    /// Returns [`ParallelError::DegreeMismatch`] or
    /// [`ParallelError::InvalidParameter`].
    pub fn validate(&self, dies: usize) -> Result<()> {
        if self.dp == 0
            || self.tp == 0
            || self.sp == 0
            || self.cp == 0
            || self.tatp == 0
            || self.ep == 0
            || self.pp == 0
        {
            return Err(ParallelError::InvalidParameter(
                "zero parallel degree".into(),
            ));
        }
        let product = self.intra_wafer_degree() * self.ep;
        if product != dies {
            return Err(ParallelError::DegreeMismatch { product, dies });
        }
        Ok(())
    }

    /// Enumerates every `(dp, tp, sp, tatp)` tuple with power-of-two degrees
    /// whose product equals `dies` (the Fig. 17/18 sweep space). `cp`/`pp`
    /// stay 1; `fsdp` as given.
    pub fn enumerate_tuples(dies: usize, fsdp: bool) -> Vec<HybridConfig> {
        let mut out = Vec::new();
        let divisors: Vec<usize> = (0..)
            .map(|e| 1usize << e)
            .take_while(|d| *d <= dies)
            .collect();
        for &dp in &divisors {
            if dies % dp != 0 {
                continue;
            }
            for &tp in &divisors {
                if (dies / dp) % tp != 0 {
                    continue;
                }
                for &sp in &divisors {
                    if (dies / dp / tp) % sp != 0 {
                        continue;
                    }
                    let tatp = dies / dp / tp / sp;
                    if !tatp.is_power_of_two() && tatp != 1 {
                        continue;
                    }
                    out.push(HybridConfig {
                        dp,
                        fsdp,
                        tp,
                        sp,
                        tatp,
                        ..Default::default()
                    });
                }
            }
        }
        out
    }

    /// Enumerates every tuple of [`HybridConfig::enumerate_tuples`] shape
    /// extended with an expert-parallel degree: power-of-two `ep` up to
    /// `max_ep`, with `(dp, tp, sp, tatp)` covering the remaining
    /// `dies / ep` dies. `ep = 1` reproduces the dense enumeration
    /// exactly (same tuples, same order), so dense models lose nothing by
    /// never calling this.
    pub fn enumerate_tuples_ep(dies: usize, fsdp: bool, max_ep: usize) -> Vec<HybridConfig> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut ep = 1usize;
        while ep <= max_ep.min(dies) {
            if dies % ep == 0 {
                // Keep-first dedup on the full configuration (the eval
                // cache key): overlapping `(ep, remaining-dies)` splits
                // must never hand the same candidate to bounds/exact
                // costing twice.
                out.extend(
                    Self::enumerate_tuples(dies / ep, fsdp)
                        .into_iter()
                        .map(|c| HybridConfig { ep, ..c })
                        .filter(|c| seen.insert(*c)),
                );
            }
            ep *= 2;
        }
        out
    }

    /// Short tuple label, e.g. `(2,1,2,8)` = (DP, TP, SP, TATP); an
    /// expert-parallel degree is appended as `(2,1,2,4|ep4)` when > 1.
    pub fn label(&self) -> String {
        if self.ep > 1 {
            format!(
                "({},{},{},{}|ep{})",
                self.dp, self.tp, self.sp, self.tatp, self.ep
            )
        } else {
            format!("({},{},{},{})", self.dp, self.tp, self.sp, self.tatp)
        }
    }
}

impl std::fmt::Display for HybridConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DP={}{} TP={} SP={} CP={} TATP={} EP={} PP={}",
            self.dp,
            if self.fsdp { "(FSDP)" } else { "" },
            self.tp,
            self.sp,
            self.cp,
            self.tatp,
            self.ep,
            self.pp
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_requires_exact_cover() {
        let c = HybridConfig::tuple(2, 2, 2, 4);
        assert!(c.validate(32).is_ok());
        assert!(matches!(
            c.validate(64),
            Err(ParallelError::DegreeMismatch {
                product: 32,
                dies: 64
            })
        ));
    }

    #[test]
    fn zero_degree_rejected() {
        let c = HybridConfig {
            dp: 0,
            ..Default::default()
        };
        assert!(matches!(
            c.validate(1),
            Err(ParallelError::InvalidParameter(_))
        ));
    }

    #[test]
    fn enumerate_covers_all_power_of_two_tuples() {
        let configs = HybridConfig::enumerate_tuples(32, false);
        // Number of ordered 4-tuples of powers of two with product 32 = C(5+3,3).
        assert_eq!(configs.len(), 56);
        assert!(configs.iter().all(|c| c.intra_wafer_degree() == 32));
        // The paper's Fig. 17 winners are present.
        assert!(configs.iter().any(|c| c.label() == "(2,1,1,16)"));
        assert!(configs.iter().any(|c| c.label() == "(1,4,1,8)"));
    }

    #[test]
    fn degree_lookup_is_consistent() {
        let c = HybridConfig {
            dp: 2,
            tp: 4,
            sp: 1,
            cp: 1,
            tatp: 4,
            ep: 1,
            pp: 2,
            fsdp: true,
        };
        assert_eq!(c.degree(ParallelKind::Dp), 2);
        assert_eq!(c.degree(ParallelKind::Tp), 4);
        assert_eq!(c.degree(ParallelKind::Tatp), 4);
        assert_eq!(c.degree(ParallelKind::Pp), 2);
        assert_eq!(c.total_degree(), 64);
        assert_eq!(c.intra_wafer_degree(), 32);
    }

    #[test]
    fn tuple_label_matches_paper_notation() {
        assert_eq!(HybridConfig::tuple(1, 1, 2, 16).label(), "(1,1,2,16)");
        let moe = HybridConfig {
            ep: 4,
            ..HybridConfig::tuple(2, 1, 1, 4)
        };
        assert_eq!(moe.label(), "(2,1,1,4|ep4)");
    }

    #[test]
    fn expert_parallel_degree_shares_the_die_budget() {
        // ep is a proper factor of the array: intra x ep == dies.
        let cfg = HybridConfig {
            ep: 4,
            ..HybridConfig::tuple(2, 1, 1, 4)
        };
        assert_eq!(cfg.intra_wafer_degree(), 8);
        assert!(cfg.validate(32).is_ok());
        assert!(cfg.validate(8).is_err(), "ep must not be ignored");
        assert_eq!(cfg.total_degree(), 32);
        assert_eq!(cfg.degree(ParallelKind::Ep), 4);
        // A zero ep is rejected like any other zero degree.
        let zero = HybridConfig {
            ep: 0,
            ..Default::default()
        };
        assert!(matches!(
            zero.validate(1),
            Err(ParallelError::InvalidParameter(_))
        ));
    }

    #[test]
    fn ep_enumeration_extends_the_dense_tuples() {
        let dense = HybridConfig::enumerate_tuples(32, false);
        let moe = HybridConfig::enumerate_tuples_ep(32, false, 8);
        // The ep = 1 prefix is exactly the dense enumeration.
        assert_eq!(&moe[..dense.len()], &dense[..]);
        assert!(moe.len() > dense.len());
        for cfg in &moe {
            assert_eq!(cfg.intra_wafer_degree() * cfg.ep, 32, "{cfg}");
            assert!(cfg.validate(32).is_ok(), "{cfg}");
            assert!(cfg.ep <= 8);
        }
        // Every power-of-two ep up to the cap appears.
        for ep in [1usize, 2, 4, 8] {
            assert!(moe.iter().any(|c| c.ep == ep), "ep={ep} missing");
        }
        // Capping at 1 reproduces the dense enumeration exactly.
        assert_eq!(HybridConfig::enumerate_tuples_ep(32, false, 1), dense);
    }
}
