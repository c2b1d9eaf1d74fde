//! The three mapping engines compared in the paper (§VIII-A).
//!
//! * **SMap** — "a baseline sequential mapper with a fixed parallel strategy
//!   order": naive row-major strip layout, XY routing, no contention
//!   awareness.
//! * **GMap** — "a WSC-adapted implementation of the Gemini mapper": picks
//!   better (blocked) layouts per group but "lacks contention-aware
//!   optimization".
//! * **Tcme** — TEMP's engine: topology-aware layout *plus* the
//!   traffic-conscious optimizer.

use temp_graph::models::ModelConfig;
use temp_graph::workload::Workload;
use temp_parallel::groups::{LayoutPolicy, WaferLayout};
use temp_parallel::strategy::HybridConfig;
use temp_sim::network::{ContentionSim, Flow, SimCache, LOWER_BOUND_SLACK};
use temp_wsc::config::WaferConfig;

use crate::comm::{extract_comm_ops, layer_flows, CommOp, TaggedFlow};
use crate::optimizer::TrafficOptimizer;
use crate::{MappingError, Result};

/// Mapping engine choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingEngine {
    /// Sequential mapper: fixed order, strip layout, no optimization.
    SMap,
    /// Gemini-adapted mapper: blocked layout, no contention optimization.
    GMap,
    /// TEMP's traffic-conscious mapping engine.
    Tcme,
}

impl std::fmt::Display for MappingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingEngine::SMap => write!(f, "SMap"),
            MappingEngine::GMap => write!(f, "GMap"),
            MappingEngine::Tcme => write!(f, "TCME"),
        }
    }
}

/// Result of mapping one configuration onto the wafer.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingOutcome {
    /// Engine used.
    pub engine: MappingEngine,
    /// The physical layout.
    pub layout: WaferLayout,
    /// The communication ops of one layer.
    pub comm_ops: Vec<CommOp>,
    /// One layer's flows after (possible) optimization.
    pub flows: Vec<TaggedFlow>,
    /// Simulated time for one layer's communication under contention,
    /// scaled by per-layer op counts and ring rounds.
    pub comm_time_per_layer: f64,
    /// Max per-link byte load of one layer's traffic.
    pub max_link_load: f64,
    /// Contention-free (isolated) communication time for the same traffic —
    /// the gap to `comm_time_per_layer` is the congestion cost.
    pub isolated_comm_time: f64,
}

impl MappingOutcome {
    /// Contention inflation factor (>= 1): simulated under load vs isolated.
    pub fn contention_factor(&self) -> f64 {
        if self.isolated_comm_time <= 0.0 {
            1.0
        } else {
            (self.comm_time_per_layer / self.isolated_comm_time).max(1.0)
        }
    }
}

/// Maps a hybrid configuration with the chosen engine and evaluates its
/// per-layer communication cost under mesh contention.
///
/// # Errors
///
/// Returns [`MappingError::Layout`] when the configuration cannot be laid
/// out on the wafer.
pub fn map_hybrid(
    engine: MappingEngine,
    wafer: &WaferConfig,
    model: &ModelConfig,
    workload: &Workload,
    cfg: &HybridConfig,
) -> Result<MappingOutcome> {
    let candidates: &[LayoutPolicy] = match engine {
        // SMap's fixed strategy order pins it to the naive strip layout.
        MappingEngine::SMap => &[LayoutPolicy::RowMajorStrips],
        // GMap varies ordering/placement but judges candidates without
        // contention awareness; TCME judges them with it and then runs the
        // traffic optimizer on the winner.
        MappingEngine::GMap | MappingEngine::Tcme => {
            &[LayoutPolicy::TopologyAware, LayoutPolicy::RowMajorStrips]
        }
    };
    let sim = ContentionSim::new(wafer);
    let routed = candidates
        .iter()
        .map(|policy| route_policy(engine, wafer, model, workload, cfg, *policy))
        .collect::<Result<Vec<_>>>()?;
    let (winner, comm_time_per_layer) = match engine {
        MappingEngine::SMap => (0, routed[0].comm_time_per_layer(&sim)),
        // Contention-agnostic ranking on isolated time, which needs no
        // fluid simulation: only the winner (first on ties) is simulated.
        MappingEngine::GMap => {
            let isolated: Vec<f64> = routed.iter().map(|r| r.isolated_comm_time(&sim)).collect();
            let winner = (1..routed.len()).fold(0, |best, i| {
                if isolated[i] < isolated[best] {
                    i
                } else {
                    best
                }
            });
            (winner, routed[winner].comm_time_per_layer(&sim))
        }
        // Contention-aware ranking: simulate in lower-bound order and skip
        // a policy whose admissible bound already loses to the incumbent.
        // Ties still go to the first policy in list order.
        MappingEngine::Tcme => {
            let bounds: Vec<f64> = routed
                .iter()
                .map(|r| sim.makespan_lower_bound(&r.raw) * r.scale)
                .collect();
            let mut order: Vec<usize> = (0..routed.len()).collect();
            order.sort_by(|a, b| bounds[*a].total_cmp(&bounds[*b]));
            let mut best: Option<(usize, f64)> = None;
            for i in order {
                if best.is_some_and(|(_, bt)| bounds[i] * (1.0 - LOWER_BOUND_SLACK) > bt) {
                    continue;
                }
                let t = routed[i].comm_time_per_layer(&sim);
                if best.map_or(true, |(b, bt)| t < bt || (t == bt && i < b)) {
                    best = Some((i, t));
                }
            }
            best.expect("at least one layout policy")
        }
    };
    let winner = routed.into_iter().nth(winner).expect("a laid-out policy");
    let isolated_comm_time = winner.isolated_comm_time(&sim);
    Ok(MappingOutcome {
        engine,
        layout: winner.layout,
        comm_ops: winner.comm_ops,
        flows: winner.flows,
        comm_time_per_layer,
        max_link_load: winner.max_link_load,
        isolated_comm_time,
    })
}

thread_local! {
    /// Exact-match memo of contention solves shared by every mapping this
    /// thread performs. Serves are bit-identical to cold solves (the cache
    /// verifies the full flow set and link parameters on hit), so plans do
    /// not depend on cache history or thread count.
    static SIM_CACHE: std::cell::RefCell<SimCache> = std::cell::RefCell::new(SimCache::new());
}

/// Soft bound on memoized contention solves per thread; the cache resets
/// once it grows past this, keeping long campaigns memory-stable.
const SIM_CACHE_CAP: usize = 8192;

/// One layout policy's laid-out, routed (and, for TCME, optimized) layer
/// traffic, before any contention simulation.
struct RoutedPolicy {
    layout: WaferLayout,
    comm_ops: Vec<CommOp>,
    flows: Vec<TaggedFlow>,
    raw: Vec<Flow>,
    /// Round count times per-layer multiplicity of the longest schedule.
    scale: f64,
    max_link_load: f64,
}

fn route_policy(
    engine: MappingEngine,
    wafer: &WaferConfig,
    model: &ModelConfig,
    workload: &Workload,
    cfg: &HybridConfig,
    policy: LayoutPolicy,
) -> Result<RoutedPolicy> {
    let mesh = wafer.mesh();
    let layout =
        WaferLayout::build(&mesh, cfg, policy).map_err(|e| MappingError::Layout(e.to_string()))?;
    let comm_ops = extract_comm_ops(&layout, model, workload);
    let flows = layer_flows(&mesh, &comm_ops);
    let optimizer = TrafficOptimizer::new(mesh);
    let (flows, max_link_load) = if engine == MappingEngine::Tcme {
        let outcome = optimizer.optimize(flows);
        (outcome.flows, outcome.final_max_load)
    } else {
        let max = optimizer.max_link_load(&flows);
        (flows, max)
    };
    let raw = flows.iter().map(|tf| tf.flow.clone()).collect();
    let scale = comm_rounds_scale(&comm_ops);
    Ok(RoutedPolicy {
        layout,
        comm_ops,
        flows,
        raw,
        scale,
        max_link_load,
    })
}

impl RoutedPolicy {
    /// Contention-free time: every flow of the round timed alone. Lone
    /// flows bypass the fluid event loop entirely: the scalar fast path is
    /// bit-identical to simulating each flow on its own.
    fn isolated_comm_time(&self, sim: &ContentionSim) -> f64 {
        let round = self
            .raw
            .iter()
            .map(|f| sim.isolated_makespan(f))
            .fold(0.0, f64::max);
        round * self.scale
    }

    /// Times one representative round of all concurrent group traffic,
    /// then scales by each op's round count and per-layer multiplicity.
    fn comm_time_per_layer(&self, sim: &ContentionSim) -> f64 {
        if self.raw.is_empty() {
            return 0.0;
        }
        let round_makespan = SIM_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if cache.len() > SIM_CACHE_CAP {
                *cache = SimCache::new();
            }
            sim.simulate_cached(&self.raw, &mut cache).makespan
        });
        round_makespan * self.scale
    }
}

/// Weighted ring-round count across ops: each op runs
/// `rounds x per_layer_count` rounds per layer; concurrent ops share the
/// simulated round, so we scale by the maximum schedule length.
fn comm_rounds_scale(ops: &[CommOp]) -> f64 {
    ops.iter()
        .map(|op| op.collective().round_count() as f64 * op.per_layer_count)
        .fold(0.0, f64::max)
        .max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_graph::models::ModelZoo;

    fn setup() -> (WaferConfig, ModelConfig, Workload) {
        let wafer = WaferConfig::hpca();
        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        (wafer, model, workload)
    }

    #[test]
    fn all_engines_map_a_hybrid_config() {
        let (wafer, model, workload) = setup();
        let cfg = HybridConfig::tuple(2, 2, 1, 8);
        for engine in [
            MappingEngine::SMap,
            MappingEngine::GMap,
            MappingEngine::Tcme,
        ] {
            let out = map_hybrid(engine, &wafer, &model, &workload, &cfg)
                .unwrap_or_else(|e| panic!("{engine}: {e}"));
            assert!(out.comm_time_per_layer > 0.0, "{engine}");
            assert!(out.contention_factor() >= 1.0);
        }
    }

    #[test]
    fn tcme_never_loses_to_gmap_on_link_load() {
        let (wafer, model, workload) = setup();
        for cfg in [
            HybridConfig::tuple(2, 2, 1, 8),
            HybridConfig {
                dp: 4,
                fsdp: true,
                tatp: 8,
                ..Default::default()
            },
            HybridConfig::tuple(4, 2, 2, 2),
        ] {
            let gmap = map_hybrid(MappingEngine::GMap, &wafer, &model, &workload, &cfg).unwrap();
            let tcme = map_hybrid(MappingEngine::Tcme, &wafer, &model, &workload, &cfg).unwrap();
            assert!(
                tcme.max_link_load <= gmap.max_link_load * 1.001,
                "{}: tcme {} vs gmap {}",
                cfg.label(),
                tcme.max_link_load,
                gmap.max_link_load
            );
        }
    }

    #[test]
    fn smap_strips_cost_at_least_as_much_as_tcme() {
        let (wafer, model, workload) = setup();
        let cfg = HybridConfig {
            dp: 4,
            fsdp: true,
            tatp: 8,
            ..Default::default()
        };
        let smap = map_hybrid(MappingEngine::SMap, &wafer, &model, &workload, &cfg).unwrap();
        let tcme = map_hybrid(MappingEngine::Tcme, &wafer, &model, &workload, &cfg).unwrap();
        assert!(
            tcme.comm_time_per_layer <= smap.comm_time_per_layer * 1.01,
            "tcme {} vs smap {}",
            tcme.comm_time_per_layer,
            smap.comm_time_per_layer
        );
    }

    #[test]
    fn pure_dp_generates_gradient_traffic_only() {
        let (wafer, model, workload) = setup();
        let cfg = HybridConfig::tuple(32, 1, 1, 1);
        let out = map_hybrid(MappingEngine::Tcme, &wafer, &model, &workload, &cfg).unwrap();
        assert!(!out.comm_ops.is_empty());
        assert!(out
            .comm_ops
            .iter()
            .all(|o| o.source == temp_parallel::strategy::ParallelKind::Dp));
    }
}
