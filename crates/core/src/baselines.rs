//! The six baseline systems of §VIII-A, and TEMP itself.
//!
//! Baselines combine three partitioning schemes with two mapping engines:
//!
//! | label | partitioner | mapper |
//! |-------|-------------|--------|
//! | A | Megatron-1 (DP+TP+PP)        | SMap |
//! | B | Megatron-1                    | GMap |
//! | C | MeSP (Megatron-3: +SP/CP)     | SMap |
//! | D | MeSP                          | GMap |
//! | E | FSDP                          | SMap |
//! | F | FSDP                          | GMap |
//! | T | TEMP (TATP + everything)      | TCME |
//!
//! Each planner searches its own legal configuration space with the shared
//! DLWS machinery, so differences come from the *space* and the *mapper*,
//! not the search.

use temp_mapping::engines::MappingEngine;
use temp_parallel::strategy::HybridConfig;

/// Partitioning scheme families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Partitioner {
    /// Megatron-LM v1: DP + TP (+PP across wafers).
    Megatron1,
    /// Megatron-3 with sequence/context parallelism.
    MeSP,
    /// Fully-sharded data parallelism.
    Fsdp,
    /// TEMP: TATP composed with everything else.
    Temp,
}

impl Partitioner {
    /// Whether a configuration is legal for this partitioner.
    pub fn admits(&self, cfg: &HybridConfig) -> bool {
        match self {
            Partitioner::Megatron1 => cfg.tatp == 1 && !cfg.fsdp && cfg.sp == 1 && cfg.cp == 1,
            Partitioner::MeSP => cfg.tatp == 1 && !cfg.fsdp,
            Partitioner::Fsdp => {
                cfg.tatp == 1 && cfg.tp == 1 && cfg.cp == 1 && (cfg.fsdp || cfg.dp == 1)
            }
            Partitioner::Temp => true,
        }
    }

    /// Whether a configuration is legal for this partitioner *ignoring
    /// its pipeline degree*. Admission governs intra-wafer structure only
    /// (every partitioner can pipeline across wafers), so multi-wafer
    /// planning — where candidates carry `pp = stage count` — must
    /// normalize `pp` before checking. This helper is the single home of
    /// that convention; use it anywhere a filter sees candidates whose
    /// `pp` is not 1, so the single- and multi-wafer paths cannot drift.
    pub fn admits_intra(&self, cfg: &HybridConfig) -> bool {
        self.admits(&HybridConfig { pp: 1, ..*cfg })
    }
}

impl std::fmt::Display for Partitioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Partitioner::Megatron1 => write!(f, "Mega"),
            Partitioner::MeSP => write!(f, "MeSP"),
            Partitioner::Fsdp => write!(f, "FSDP"),
            Partitioner::Temp => write!(f, "TEMP"),
        }
    }
}

/// A complete compared system: partitioner + mapping engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BaselineSystem {
    /// Partitioning scheme.
    pub partitioner: Partitioner,
    /// Mapping engine.
    pub engine: MappingEngine,
}

impl BaselineSystem {
    /// The six baselines A–F in the paper's order.
    pub fn six_baselines() -> Vec<BaselineSystem> {
        vec![
            BaselineSystem {
                partitioner: Partitioner::Megatron1,
                engine: MappingEngine::SMap,
            },
            BaselineSystem {
                partitioner: Partitioner::Megatron1,
                engine: MappingEngine::GMap,
            },
            BaselineSystem {
                partitioner: Partitioner::MeSP,
                engine: MappingEngine::SMap,
            },
            BaselineSystem {
                partitioner: Partitioner::MeSP,
                engine: MappingEngine::GMap,
            },
            BaselineSystem {
                partitioner: Partitioner::Fsdp,
                engine: MappingEngine::SMap,
            },
            BaselineSystem {
                partitioner: Partitioner::Fsdp,
                engine: MappingEngine::GMap,
            },
        ]
    }

    /// TEMP itself.
    pub fn temp() -> BaselineSystem {
        BaselineSystem {
            partitioner: Partitioner::Temp,
            engine: MappingEngine::Tcme,
        }
    }

    /// All seven systems in figure order (A..F then TEMP).
    pub fn all_systems() -> Vec<BaselineSystem> {
        let mut v = Self::six_baselines();
        v.push(Self::temp());
        v
    }

    /// The paper's short label ("Mega+SMap", ..., "TEMP").
    pub fn label(&self) -> String {
        if self.partitioner == Partitioner::Temp {
            "TEMP".to_string()
        } else {
            format!("{}+{}", self.partitioner, self.engine)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_six_baselines_plus_temp() {
        assert_eq!(BaselineSystem::six_baselines().len(), 6);
        assert_eq!(BaselineSystem::all_systems().len(), 7);
        assert_eq!(BaselineSystem::temp().label(), "TEMP");
        assert_eq!(BaselineSystem::six_baselines()[0].label(), "Mega+SMap");
    }

    #[test]
    fn megatron_space_excludes_tatp_sp_fsdp() {
        let p = Partitioner::Megatron1;
        assert!(p.admits(&HybridConfig::tuple(4, 8, 1, 1)));
        assert!(!p.admits(&HybridConfig::tuple(4, 1, 1, 8)));
        assert!(!p.admits(&HybridConfig::tuple(4, 4, 2, 1)));
        assert!(!p.admits(&HybridConfig {
            dp: 32,
            fsdp: true,
            ..Default::default()
        }));
    }

    #[test]
    fn mesp_space_adds_sp() {
        let p = Partitioner::MeSP;
        assert!(p.admits(&HybridConfig::tuple(4, 4, 2, 1)));
        assert!(!p.admits(&HybridConfig::tuple(4, 4, 1, 2)));
    }

    #[test]
    fn fsdp_space_is_sharded_dp_with_sp() {
        let p = Partitioner::Fsdp;
        assert!(p.admits(&HybridConfig {
            dp: 32,
            fsdp: true,
            ..Default::default()
        }));
        assert!(p.admits(&HybridConfig {
            dp: 16,
            sp: 2,
            fsdp: true,
            ..Default::default()
        }));
        assert!(!p.admits(&HybridConfig::tuple(4, 8, 1, 1)));
    }

    #[test]
    fn intra_admission_ignores_the_pipeline_degree() {
        // A Megatron-legal tuple stays legal at any pipeline degree...
        let cfg = HybridConfig {
            pp: 4,
            ..HybridConfig::tuple(4, 8, 1, 1)
        };
        assert!(Partitioner::Megatron1.admits_intra(&cfg));
        // ...and an illegal intra-wafer structure stays illegal.
        let bad = HybridConfig {
            pp: 4,
            ..HybridConfig::tuple(4, 1, 1, 8)
        };
        assert!(!Partitioner::Megatron1.admits_intra(&bad));
        // At pp = 1 the two predicates coincide on the whole space.
        for cfg in HybridConfig::enumerate_tuples(32, false) {
            for p in [
                Partitioner::Megatron1,
                Partitioner::MeSP,
                Partitioner::Fsdp,
                Partitioner::Temp,
            ] {
                assert_eq!(p.admits(&cfg), p.admits_intra(&cfg));
            }
        }
    }

    #[test]
    fn temp_admits_everything() {
        let p = Partitioner::Temp;
        assert!(p.admits(&HybridConfig::tuple(2, 2, 1, 8)));
        assert!(p.admits(&HybridConfig {
            dp: 4,
            fsdp: true,
            tatp: 8,
            ..Default::default()
        }));
    }
}
