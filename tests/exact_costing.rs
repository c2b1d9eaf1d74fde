//! Exact costing at mesh scale: the level-batched water-filling must
//! reproduce the per-round argmin scan bit for bit, the admissible
//! makespan bound must hold, the bound-skipped layout policies must pick
//! the same winner as simulating both, and the traffic optimizer must be
//! deterministic under load ties.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use temp_repro::graph::models::{ModelConfig, ModelZoo};
use temp_repro::graph::workload::Workload;
use temp_repro::mapping::comm::{extract_comm_ops, layer_flows, CommOp, TaggedFlow};
use temp_repro::mapping::engines::{map_hybrid, MappingEngine};
use temp_repro::mapping::optimizer::TrafficOptimizer;
use temp_repro::parallel::groups::{LayoutPolicy, WaferLayout};
use temp_repro::parallel::strategy::HybridConfig;
use temp_repro::sim::network::{ContentionSim, Flow, LOWER_BOUND_SLACK};
use temp_repro::solver::search::SearchContext;
use temp_repro::wsc::config::WaferConfig;

/// `map_hybrid`'s layout policies for GMap and TCME, in list order.
const POLICIES: [LayoutPolicy; 2] = [LayoutPolicy::TopologyAware, LayoutPolicy::RowMajorStrips];

/// FNV-1a hash of the completion-time bits of the mesh-scale corpus at
/// commit b51e2d2, whose water-filling rescanned every link each round.
const CORPUS_COMPLETION_HASH: u64 = 0x82f5_c9bf_2b91_a383;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// XY-routed one-layer traffic of a candidate under one layout policy,
/// with its comm ops, or `None` when it cannot be laid out that way.
fn xy_layer_flows(
    wafer: &WaferConfig,
    model: &ModelConfig,
    cfg: &HybridConfig,
    policy: LayoutPolicy,
) -> Option<(Vec<CommOp>, Vec<TaggedFlow>)> {
    let mesh = wafer.mesh();
    let layout = WaferLayout::build(&mesh, cfg, policy).ok()?;
    let ops = extract_comm_ops(&layout, model, &Workload::for_model(model));
    let flows = layer_flows(&mesh, &ops);
    Some((ops, flows))
}

fn untagged(flows: &[TaggedFlow]) -> Vec<Flow> {
    flows.iter().map(|tf| tf.flow.clone()).collect()
}

/// The per-layer scale `map_hybrid` applies to one simulated round: the
/// longest `rounds x per_layer_count` schedule, at least 1.
fn rounds_scale(ops: &[CommOp]) -> f64 {
    ops.iter()
        .map(|op| op.collective().round_count() as f64 * op.per_layer_count)
        .fold(0.0, f64::max)
        .max(1.0)
}

/// A seeded corpus of XY-routed layer flow sets on 8x16 and 16x16.
fn mesh_scale_corpus() -> Vec<(WaferConfig, Vec<Flow>)> {
    let mut rng = StdRng::seed_from_u64(0x0013_1616);
    let models = [ModelZoo::gpt3_6_7b(), ModelZoo::llama2_7b()];
    let mut corpus = Vec::new();
    for (w, h, sets) in [(8u32, 16u32, 48usize), (16, 16, 48)] {
        let wafer = WaferConfig::with_array(w, h).expect("valid array");
        let candidates = SearchContext::enumerate_base_candidates(wafer.die_count());
        let mut added = 0;
        while added < sets {
            let cfg = &candidates[rng.gen_range(0..candidates.len())];
            let model = &models[rng.gen_range(0..models.len())];
            let policy = POLICIES[rng.gen_range(0..POLICIES.len())];
            if let Some((_, flows)) = xy_layer_flows(&wafer, model, cfg, policy) {
                if !flows.is_empty() {
                    corpus.push((wafer.clone(), untagged(&flows)));
                    added += 1;
                }
            }
        }
    }
    corpus
}

#[test]
fn water_filling_is_bit_identical_to_the_scan_at_mesh_scale() {
    let corpus = mesh_scale_corpus();
    assert_eq!(corpus.len(), 96);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (case, (wafer, flows)) in corpus.iter().enumerate() {
        let sim = ContentionSim::new(wafer);
        let report = sim.simulate(flows);
        for c in &report.completion {
            h = fnv1a(h, &c.to_bits().to_le_bytes());
        }
        h = fnv1a(h, &report.makespan.to_bits().to_le_bytes());
        // Tight sets (a flow alone on its bottleneck for its whole run)
        // put the bound within an ulp of the makespan, on either side.
        let bound = sim.makespan_lower_bound(flows);
        assert!(
            bound > 0.0 && bound * (1.0 - LOWER_BOUND_SLACK) <= report.makespan,
            "case {case}: bound {bound} vs makespan {}",
            report.makespan
        );
    }
    assert_eq!(
        h, CORPUS_COMPLETION_HASH,
        "completion times drifted from the per-round scan"
    );
}

#[test]
fn bound_skipped_policies_pick_the_simulated_winner_on_8x16() {
    let wafer = WaferConfig::with_array(8, 16).expect("valid array");
    let mesh = wafer.mesh();
    let sim = ContentionSim::new(&wafer);
    let model = ModelZoo::gpt3_6_7b();
    let workload = Workload::for_model(&model);
    let optimizer = TrafficOptimizer::new(mesh.clone());
    let mut compared = 0;
    let mut provably_skippable = 0;
    for cfg in SearchContext::enumerate_base_candidates(wafer.die_count()) {
        let routed: Option<Vec<_>> = POLICIES
            .iter()
            .map(|p| xy_layer_flows(&wafer, &model, &cfg, *p))
            .collect();
        let Some(routed) = routed else {
            assert!(map_hybrid(MappingEngine::Tcme, &wafer, &model, &workload, &cfg).is_err());
            continue;
        };
        compared += 1;

        // TCME: optimize and simulate both policies; first in list wins ties.
        let timed: Vec<(f64, f64)> = routed
            .iter()
            .map(|(ops, flows)| {
                let raw = untagged(&optimizer.optimize(flows.clone()).flows);
                let scale = rounds_scale(ops);
                let time = if raw.is_empty() {
                    0.0
                } else {
                    sim.simulate(&raw).makespan * scale
                };
                (time, sim.makespan_lower_bound(&raw) * scale)
            })
            .collect();
        let best = if timed[1].0 < timed[0].0 { 1 } else { 0 };
        let other = 1 - best;
        if timed[other].1 * (1.0 - LOWER_BOUND_SLACK) > timed[best].0 {
            provably_skippable += 1;
        }
        let tcme = map_hybrid(MappingEngine::Tcme, &wafer, &model, &workload, &cfg).unwrap();
        assert_eq!(
            tcme.comm_time_per_layer.to_bits(),
            timed[best].0.to_bits(),
            "{}: TCME {} vs simulated minimum {}",
            cfg.label(),
            tcme.comm_time_per_layer,
            timed[best].0
        );
        assert_eq!(tcme.layout.policy(), POLICIES[best], "{}", cfg.label());

        // GMap: the isolated-time winner, simulated.
        let isolated: Vec<f64> = routed
            .iter()
            .map(|(ops, flows)| {
                flows
                    .iter()
                    .map(|tf| sim.isolated_makespan(&tf.flow))
                    .fold(0.0, f64::max)
                    * rounds_scale(ops)
            })
            .collect();
        let best = if isolated[1] < isolated[0] { 1 } else { 0 };
        let (ops, flows) = &routed[best];
        let raw = untagged(flows);
        let expected = if raw.is_empty() {
            0.0
        } else {
            sim.simulate(&raw).makespan * rounds_scale(ops)
        };
        let gmap = map_hybrid(MappingEngine::GMap, &wafer, &model, &workload, &cfg).unwrap();
        assert_eq!(gmap.isolated_comm_time.to_bits(), isolated[best].to_bits());
        assert_eq!(
            gmap.comm_time_per_layer.to_bits(),
            expected.to_bits(),
            "{}: GMap {} vs simulated isolated winner {expected}",
            cfg.label(),
            gmap.comm_time_per_layer
        );
        assert_eq!(gmap.layout.policy(), POLICIES[best], "{}", cfg.label());
    }
    assert!(compared > 100, "only {compared} candidates laid out");
    assert!(
        provably_skippable > 0,
        "no candidate exercises the skip path"
    );
}

#[test]
fn traffic_optimizer_is_deterministic_under_load_ties_on_4x16() {
    let wafer = WaferConfig::with_array(4, 16).expect("valid array");
    let optimizer = TrafficOptimizer::new(wafer.mesh());
    for model in [
        ModelZoo::llama3_70b(),
        ModelZoo::gpt3_6_7b(),
        ModelZoo::llama2_7b(),
    ] {
        for cfg in SearchContext::enumerate_base_candidates(wafer.die_count()) {
            let Some((_, flows)) =
                xy_layer_flows(&wafer, &model, &cfg, LayoutPolicy::TopologyAware)
            else {
                continue;
            };
            let first = optimizer.optimize(flows.clone());
            for _ in 1..20 {
                let again = optimizer.optimize(flows.clone());
                assert_eq!(
                    again.final_max_load.to_bits(),
                    first.final_max_load.to_bits(),
                    "{} {}",
                    model.name,
                    cfg.label()
                );
                assert_eq!(again.flows, first.flows, "{} {}", model.name, cfg.label());
            }
        }
    }
}
