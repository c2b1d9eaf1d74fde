//! Micro-benchmarks of TEMP's planning kernels: TATP orchestration
//! construction/validation, the traffic optimizer, the contention
//! simulator (on the 8x4 wafer and on one 16x16 layer's ring traffic),
//! chain DP, and cost-model evaluation.
//!
//! Self-harnessed (`harness = false`): the offline build environment has
//! no criterion, so [`temp_bench::timeit`] provides warm-up + repeated
//! measurement and each kernel prints one summary line. Run with
//! `cargo bench -p temp-bench`.

use temp_bench::timeit;
use temp_graph::models::ModelZoo;
use temp_graph::workload::Workload;
use temp_mapping::comm::{extract_comm_ops, layer_flows, TaggedFlow};
use temp_mapping::engines::MappingEngine;
use temp_mapping::optimizer::TrafficOptimizer;
use temp_parallel::groups::{LayoutPolicy, WaferLayout};
use temp_parallel::strategy::HybridConfig;
use temp_parallel::tatp::TatpOrchestration;
use temp_sim::network::{ContentionSim, Flow};
use temp_solver::cost::WaferCostModel;
use temp_solver::dp::solve_chain;
use temp_wsc::config::WaferConfig;
use temp_wsc::topology::DieId;

fn main() {
    for n in [8usize, 16, 32] {
        timeit(
            &format!("tatp_orchestration/build+validate/{n}"),
            10,
            || {
                let orch = TatpOrchestration::build(n);
                orch.validate().expect("valid")
            },
        );
    }

    let cfg = WaferConfig::hpca();
    let mesh = cfg.mesh();
    let sim = ContentionSim::new(&cfg);
    let flows: Vec<Flow> = (0..16u32)
        .map(|i| Flow::xy(&mesh, DieId(i), DieId(31 - i), 64.0e6))
        .collect();
    timeit("contention_sim_16_flows", 10, || sim.simulate(&flows));

    let opt = TrafficOptimizer::new(mesh.clone());
    let tagged: Vec<TaggedFlow> = (0..12u32)
        .map(|i| TaggedFlow {
            flow: Flow::xy(&mesh, DieId(i % 8), DieId(16 + (i % 8)), 32.0e6),
            payload: i as u64,
        })
        .collect();
    timeit("traffic_optimizer_12_flows", 10, || {
        opt.optimize(tagged.clone())
    });

    // Mesh scale: one layer of a 16x16 hybrid's ring traffic (~1000
    // flows), the size TCME simulates per layout policy.
    let mesh_cfg = WaferConfig::with_array(16, 16).expect("valid array");
    let big_mesh = mesh_cfg.mesh();
    let layout = WaferLayout::build(
        &big_mesh,
        &HybridConfig::tuple(4, 4, 2, 8),
        LayoutPolicy::TopologyAware,
    )
    .expect("16x16 layout");
    let model = ModelZoo::gpt3_6_7b();
    let ops = extract_comm_ops(&layout, &model, &Workload::for_model(&model));
    let mesh_tagged = layer_flows(&big_mesh, &ops);
    let mesh_flows: Vec<Flow> = mesh_tagged.iter().map(|tf| tf.flow.clone()).collect();
    let mesh_sim = ContentionSim::new(&mesh_cfg);
    timeit(
        &format!("contention_sim_16x16_{}_flows", mesh_flows.len()),
        10,
        || mesh_sim.simulate(&mesh_flows),
    );
    let mesh_opt = TrafficOptimizer::new(big_mesh.clone());
    timeit(
        &format!("traffic_optimizer_16x16_{}_flows", mesh_tagged.len()),
        10,
        || mesh_opt.optimize(mesh_tagged.clone()),
    );

    let costs: Vec<Vec<f64>> = (0..96)
        .map(|s| (0..24).map(|k| ((s * k) % 17) as f64 + 1.0).collect())
        .collect();
    timeit("chain_dp_96x24", 10, || {
        solve_chain(&costs, |_, a, b| if a == b { 0.0 } else { 0.5 }).expect("well-formed")
    });

    let model = ModelZoo::gpt3_6_7b();
    let cost = WaferCostModel::new(
        WaferConfig::hpca(),
        model.clone(),
        Workload::for_model(&model),
    );
    let hybrid = HybridConfig::tuple(2, 2, 1, 8);
    timeit("cost_model_evaluate", 10, || {
        cost.evaluate(&hybrid, MappingEngine::Tcme)
            .expect("feasible")
    });
}
