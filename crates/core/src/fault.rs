//! Framework-level fault tolerance (§VIII-F, Fig. 20).
//!
//! TEMP's three-step mechanism: (1) fault localization and classification,
//! (2) adaptive tensor repartitioning to re-balance compute, and (3)
//! communication rerouting around dead links. The resulting behaviour:
//! graceful degradation under core faults (work re-balances; ~80% of peak
//! at 25% core faults) versus a throughput cliff once link faults break
//! mesh connectivity (at ~35% and beyond).

use temp_wsc::config::WaferConfig;
use temp_wsc::fault::FaultMap;
use temp_wsc::topology::Mesh;

/// Outcome of adapting a plan to a faulty wafer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultAdaptation {
    /// Throughput relative to the fault-free wafer, in `[0, 1]`.
    pub relative_throughput: f64,
    /// Whether the surviving topology is still connected.
    pub connected: bool,
    /// Mean detour factor of rerouted neighbor traffic (1.0 = no detours).
    pub mean_detour: f64,
    /// Surviving compute fraction after re-balancing.
    pub surviving_compute: f64,
}

/// Adapts to **core** faults: step (2) re-balances tensor partitions so
/// every die gets work proportional to its surviving cores; throughput
/// follows the wafer's mean surviving compute (not the slowest die), minus
/// a small re-balancing overhead.
pub fn adapt_core_faults(wafer: &WaferConfig, rate: f64, seed: u64) -> FaultAdaptation {
    let mesh = wafer.mesh();
    let faults = FaultMap::inject_core_faults(&mesh, rate, seed);
    let mean_surviving: f64 = mesh
        .dies()
        .map(|d| faults.surviving_compute(d))
        .sum::<f64>()
        / mesh.die_count() as f64;
    // Repartitioning overhead: uneven shards slightly reduce overlap quality.
    let rebalance_penalty = 1.0 - 0.1 * rate;
    FaultAdaptation {
        relative_throughput: (mean_surviving * rebalance_penalty).clamp(0.0, 1.0),
        connected: true,
        mean_detour: 1.0,
        surviving_compute: mean_surviving,
    }
}

/// Adapts to **link** faults: step (3) reroutes neighbor traffic around dead
/// links; throughput degrades with the mean detour length and collapses
/// when the mesh disconnects (no reroute exists).
pub fn adapt_link_faults(wafer: &WaferConfig, rate: f64, seed: u64) -> FaultAdaptation {
    let mesh = wafer.mesh();
    let faults = FaultMap::inject_link_faults(&mesh, rate, seed);
    let connected = faults.is_connected(&mesh);
    if !connected {
        return FaultAdaptation {
            relative_throughput: 0.0,
            connected: false,
            mean_detour: f64::INFINITY,
            surviving_compute: 1.0,
        };
    }
    let mean_detour = mean_neighbor_detour(&mesh, &faults);
    // Streaming rounds stretch with the detour factor; compute overlap hides
    // part of it (the stream occupies roughly half the round budget).
    let comm_share = 0.5;
    let slowdown = 1.0 + comm_share * (mean_detour - 1.0);
    FaultAdaptation {
        relative_throughput: (1.0 / slowdown).clamp(0.0, 1.0),
        connected: true,
        mean_detour,
        surviving_compute: 1.0,
    }
}

/// Mean hops of the shortest live route between all adjacent die pairs
/// (1.0 when no faults touch neighbor connectivity).
fn mean_neighbor_detour(mesh: &Mesh, faults: &FaultMap) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for die in mesh.dies() {
        for nb in mesh.neighbors(die) {
            if nb.0 > die.0 {
                if let Ok(path) = faults.route_around(mesh, die, nb) {
                    total += (path.len() - 1) as f64;
                    count += 1;
                }
            }
        }
    }
    if count == 0 {
        f64::INFINITY
    } else {
        total / count as f64
    }
}

/// Sweeps link-fault rates, averaging over seeds (Fig. 20(b)).
pub fn link_fault_sweep(wafer: &WaferConfig, rates: &[f64], seeds: u64) -> Vec<(f64, f64)> {
    rates
        .iter()
        .map(|&rate| {
            let mean: f64 = (0..seeds)
                .map(|s| adapt_link_faults(wafer, rate, 1000 + s).relative_throughput)
                .sum::<f64>()
                / seeds as f64;
            (rate, mean)
        })
        .collect()
}

/// Sweeps core-fault rates, averaging over seeds (Fig. 20(c)).
pub fn core_fault_sweep(wafer: &WaferConfig, rates: &[f64], seeds: u64) -> Vec<(f64, f64)> {
    rates
        .iter()
        .map(|&rate| {
            let mean: f64 = (0..seeds)
                .map(|s| adapt_core_faults(wafer, rate, 2000 + s).relative_throughput)
                .sum::<f64>()
                / seeds as f64;
            (rate, mean)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_full_throughput() {
        let w = WaferConfig::hpca();
        let core = adapt_core_faults(&w, 0.0, 1);
        assert!((core.relative_throughput - 1.0).abs() < 1e-9);
        let link = adapt_link_faults(&w, 0.0, 1);
        assert!((link.relative_throughput - 1.0).abs() < 1e-9);
        assert!((link.mean_detour - 1.0).abs() < 1e-12);
    }

    #[test]
    fn core_faults_degrade_gracefully() {
        // Fig. 20(c): ~80% of peak at 25% core faults.
        let w = WaferConfig::hpca();
        let sweep = core_fault_sweep(&w, &[0.25], 8);
        let (_, tput) = sweep[0];
        assert!((0.70..0.85).contains(&tput), "throughput {tput}");
    }

    #[test]
    fn link_faults_hit_a_cliff() {
        // Fig. 20(b): sensitivity to link faults, with a cliff by ~35-50%.
        let w = WaferConfig::hpca();
        let sweep = link_fault_sweep(&w, &[0.1, 0.35, 0.6], 8);
        let t10 = sweep[0].1;
        let t35 = sweep[1].1;
        let t60 = sweep[2].1;
        assert!(t10 > 0.7, "mild faults tolerated: {t10}");
        assert!(t35 < t10, "degradation by 35%: {t35}");
        assert!(t60 < 0.4, "deep in the cliff: {t60}");
    }

    #[test]
    fn disconnection_zeroes_throughput() {
        let w = WaferConfig::hpca();
        let a = adapt_link_faults(&w, 1.0, 3);
        assert!(!a.connected);
        assert_eq!(a.relative_throughput, 0.0);
    }
}
