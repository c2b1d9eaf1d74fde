//! Round-based schedule execution with communication/computation overlap.
//!
//! TATP, TSPP and the baseline parallelisms all reduce to *rounds*: in each
//! round every die runs some compute while flows stream sub-tensors (Eq. 2:
//! `T_intra = Collective + max(Comp, P2P)`). The engine executes a
//! [`RoundSchedule`], charging per round either `max(comp, comm)` when the
//! round overlaps communication with computation, or `comp + comm` when the
//! communication is exposed (blocking collectives).

use std::collections::HashMap;

use temp_wsc::config::WaferConfig;
use temp_wsc::topology::{DieId, LinkId};

use crate::network::{ContentionSim, Flow};
use crate::power::EnergyLedger;

/// One die's compute work within a round.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeTask {
    /// Executing die.
    pub die: DieId,
    /// Wall-clock seconds of compute.
    pub seconds: f64,
    /// FLOPs executed (for energy accounting).
    pub flops: f64,
    /// HBM bytes touched (for energy accounting).
    pub hbm_bytes: f64,
}

impl ComputeTask {
    /// A compute task with explicit energy counters.
    pub fn new(die: DieId, seconds: f64, flops: f64, hbm_bytes: f64) -> Self {
        ComputeTask {
            die,
            seconds,
            flops,
            hbm_bytes,
        }
    }

    /// A timing-only task (no energy accounting).
    pub fn timed(die: DieId, seconds: f64) -> Self {
        ComputeTask {
            die,
            seconds,
            flops: 0.0,
            hbm_bytes: 0.0,
        }
    }
}

/// One schedule round: concurrent compute plus flows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Round {
    /// Per-die compute in this round.
    pub compute: Vec<ComputeTask>,
    /// Flows streaming during this round.
    pub flows: Vec<Flow>,
    /// Whether communication overlaps compute (`max`) or is exposed (`+`).
    pub overlap: bool,
    /// Human-readable label for traces.
    pub label: String,
}

impl Round {
    /// An overlapped (streaming) round.
    pub fn overlapped(label: impl Into<String>) -> Self {
        Round {
            overlap: true,
            label: label.into(),
            ..Round::default()
        }
    }

    /// An exposed (blocking) round.
    pub fn exposed(label: impl Into<String>) -> Self {
        Round {
            overlap: false,
            label: label.into(),
            ..Round::default()
        }
    }

    /// Adds a compute task (builder style).
    pub fn with_compute(mut self, task: ComputeTask) -> Self {
        self.compute.push(task);
        self
    }

    /// Adds a flow (builder style).
    pub fn with_flow(mut self, flow: Flow) -> Self {
        self.flows.push(flow);
        self
    }
}

/// A sequence of rounds (rounds are barriers).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundSchedule {
    /// The rounds, executed in order.
    pub rounds: Vec<Round>,
}

impl RoundSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        RoundSchedule::default()
    }

    /// Appends a round.
    pub fn push(&mut self, round: Round) {
        self.rounds.push(round);
    }

    /// Concatenates another schedule after this one.
    pub fn extend(&mut self, other: RoundSchedule) {
        self.rounds.extend(other.rounds);
    }

    /// Number of rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether the schedule has no rounds.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }
}

/// Execution report of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// End-to-end wall-clock time.
    pub total_time: f64,
    /// Sum over rounds of the slowest die's compute time.
    pub compute_time: f64,
    /// Sum over rounds of communication makespans (overlapped or not).
    pub comm_time: f64,
    /// Communication time *not* hidden behind compute.
    pub exposed_comm_time: f64,
    /// Per-die total busy (compute) seconds.
    pub die_busy: HashMap<DieId, f64>,
    /// Total bytes carried per link.
    pub link_bytes: HashMap<LinkId, f64>,
    /// Energy ledger (compute + D2D + HBM).
    pub energy: EnergyLedger,
    /// Number of dies the engine was configured with.
    pub die_count: usize,
}

impl RoundReport {
    /// Mean compute utilization: average die busy time over total time.
    pub fn compute_utilization(&self) -> f64 {
        if self.total_time <= 0.0 || self.die_count == 0 {
            return 0.0;
        }
        let busy: f64 = self.die_busy.values().sum();
        (busy / (self.die_count as f64 * self.total_time)).clamp(0.0, 1.0)
    }

    /// D2D bandwidth utilization over the links that carried traffic.
    pub fn bandwidth_utilization(&self, link_bandwidth: f64) -> f64 {
        if self.total_time <= 0.0 || self.link_bytes.is_empty() {
            return 0.0;
        }
        let carried: f64 = self.link_bytes.values().sum();
        let capacity = self.link_bytes.len() as f64 * link_bandwidth * self.total_time;
        (carried / capacity).clamp(0.0, 1.0)
    }

    /// Fraction of total time spent on exposed communication.
    pub fn comm_fraction(&self) -> f64 {
        if self.total_time <= 0.0 {
            return 0.0;
        }
        (self.exposed_comm_time / self.total_time).clamp(0.0, 1.0)
    }
}

/// Executes [`RoundSchedule`]s against a wafer configuration.
#[derive(Debug, Clone)]
pub struct ScheduleEngine {
    cfg: WaferConfig,
    contention: ContentionSim,
    /// Directed-link count, computed once (building a mesh per run would
    /// put a fresh link-index table on the hot path).
    link_count: usize,
}

impl ScheduleEngine {
    /// Creates an engine for a wafer.
    pub fn new(cfg: &WaferConfig) -> Self {
        ScheduleEngine {
            cfg: cfg.clone(),
            contention: ContentionSim::new(cfg),
            link_count: cfg.mesh().link_count(),
        }
    }

    /// The underlying contention simulator.
    pub fn contention(&self) -> &ContentionSim {
        &self.contention
    }

    /// Runs a schedule to completion.
    pub fn run(&self, schedule: &RoundSchedule) -> RoundReport {
        let mut total_time = 0.0;
        let mut compute_time = 0.0;
        let mut comm_time = 0.0;
        let mut exposed = 0.0;
        // Accumulate per-die / per-link totals in dense arrays (ids are
        // dense indices); the report's maps are built once at the end.
        // `touched` preserves the HashMap semantics exactly: an entry
        // exists iff some task/flow referenced the die/link, even with a
        // zero value (bandwidth_utilization divides by the entry count).
        let mut die_busy_dense = vec![0.0f64; self.cfg.die_count()];
        let mut die_touched = vec![false; self.cfg.die_count()];
        let mut link_bytes_dense = vec![0.0f64; self.link_count];
        let mut link_touched = vec![false; self.link_count];
        let mut energy = EnergyLedger::new();

        for round in &schedule.rounds {
            let comp_max = round
                .compute
                .iter()
                .map(|t| t.seconds)
                .fold(0.0f64, f64::max);
            let comm = if round.flows.is_empty() {
                0.0
            } else {
                self.contention.simulate(&round.flows).makespan
            };
            let round_time = if round.overlap {
                comp_max.max(comm)
            } else {
                comp_max + comm
            };
            total_time += round_time;
            compute_time += comp_max;
            comm_time += comm;
            exposed += (round_time - comp_max).max(0.0);

            for t in &round.compute {
                if t.die.index() >= die_busy_dense.len() {
                    die_busy_dense.resize(t.die.index() + 1, 0.0);
                    die_touched.resize(t.die.index() + 1, false);
                }
                die_busy_dense[t.die.index()] += t.seconds;
                die_touched[t.die.index()] = true;
                energy.add_compute(t.flops, &self.cfg);
                energy.add_hbm(t.hbm_bytes, &self.cfg);
            }
            for f in &round.flows {
                energy.add_d2d(f.bytes, f.hops() as f64, &self.cfg);
                for l in &f.route {
                    if l.index() >= link_bytes_dense.len() {
                        link_bytes_dense.resize(l.index() + 1, 0.0);
                        link_touched.resize(l.index() + 1, false);
                    }
                    link_bytes_dense[l.index()] += f.bytes;
                    link_touched[l.index()] = true;
                }
            }
        }

        let die_busy: HashMap<DieId, f64> = die_busy_dense
            .into_iter()
            .enumerate()
            .filter(|(i, _)| die_touched[*i])
            .map(|(i, v)| (DieId(i as u32), v))
            .collect();
        let link_bytes: HashMap<LinkId, f64> = link_bytes_dense
            .into_iter()
            .enumerate()
            .filter(|(i, _)| link_touched[*i])
            .map(|(i, v)| (LinkId(i as u32), v))
            .collect();
        RoundReport {
            total_time,
            compute_time,
            comm_time,
            exposed_comm_time: exposed,
            die_busy,
            link_bytes,
            energy,
            die_count: self.cfg.die_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_wsc::units::MB;

    fn engine() -> ScheduleEngine {
        ScheduleEngine::new(&WaferConfig::hpca())
    }

    fn mesh() -> temp_wsc::topology::Mesh {
        WaferConfig::hpca().mesh()
    }

    #[test]
    fn empty_schedule_is_free() {
        let r = engine().run(&RoundSchedule::new());
        assert_eq!(r.total_time, 0.0);
        assert_eq!(r.compute_utilization(), 0.0);
    }

    #[test]
    fn overlapped_round_takes_max_of_comp_and_comm() {
        let e = engine();
        let m = mesh();
        let flow = Flow::xy(&m, DieId(0), DieId(1), 400.0 * MB); // 100 us serialization
        let comm_alone = e.contention.simulate(std::slice::from_ref(&flow)).makespan;
        let round = Round::overlapped("r")
            .with_compute(ComputeTask::timed(DieId(0), 2.0 * comm_alone))
            .with_flow(flow);
        let mut s = RoundSchedule::new();
        s.push(round);
        let r = e.run(&s);
        assert!((r.total_time - 2.0 * comm_alone).abs() / r.total_time < 1e-9);
        assert_eq!(r.exposed_comm_time, 0.0);
    }

    #[test]
    fn exposed_round_adds_comm_to_comp() {
        let e = engine();
        let m = mesh();
        let flow = Flow::xy(&m, DieId(0), DieId(1), 400.0 * MB);
        let comm = e.contention.simulate(std::slice::from_ref(&flow)).makespan;
        let round = Round::exposed("r")
            .with_compute(ComputeTask::timed(DieId(0), 1.0e-3))
            .with_flow(flow);
        let mut s = RoundSchedule::new();
        s.push(round);
        let r = e.run(&s);
        assert!((r.total_time - (1.0e-3 + comm)).abs() < 1e-9);
        assert!((r.exposed_comm_time - comm).abs() < 1e-9);
    }

    #[test]
    fn partially_hidden_comm_counts_only_excess() {
        let e = engine();
        let m = mesh();
        let flow = Flow::xy(&m, DieId(0), DieId(1), 400.0 * MB);
        let comm = e.contention.simulate(std::slice::from_ref(&flow)).makespan;
        let comp = 0.5 * comm;
        let round = Round::overlapped("r")
            .with_compute(ComputeTask::timed(DieId(0), comp))
            .with_flow(flow);
        let mut s = RoundSchedule::new();
        s.push(round);
        let r = e.run(&s);
        assert!((r.exposed_comm_time - 0.5 * comm).abs() / comm < 1e-9);
    }

    #[test]
    fn utilization_accounts_all_dies() {
        let e = engine();
        let mut s = RoundSchedule::new();
        let mut round = Round::overlapped("r");
        // Half the dies busy for the full round.
        for i in 0..16 {
            round.compute.push(ComputeTask::timed(DieId(i), 1.0e-3));
        }
        s.push(round);
        let r = e.run(&s);
        assert!((r.compute_utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_valued_entries_survive_the_dense_accumulation() {
        // A zero-byte flow and a zero-second task must still appear in
        // the report maps (bandwidth_utilization divides by entry count).
        let e = engine();
        let m = mesh();
        let mut s = RoundSchedule::new();
        s.push(
            Round::overlapped("r")
                .with_compute(ComputeTask::timed(DieId(5), 0.0))
                .with_compute(ComputeTask::timed(DieId(0), 1.0e-3))
                .with_flow(Flow::xy(&m, DieId(0), DieId(1), 0.0))
                .with_flow(Flow::xy(&m, DieId(2), DieId(3), 1.0 * MB)),
        );
        let r = e.run(&s);
        assert_eq!(r.die_busy.len(), 2);
        assert_eq!(r.die_busy[&DieId(5)], 0.0);
        assert_eq!(r.link_bytes.len(), 2);
        let l01 = m.link_between(DieId(0), DieId(1)).unwrap();
        assert_eq!(r.link_bytes[&l01], 0.0);
    }

    #[test]
    fn energy_accumulates_across_rounds() {
        let e = engine();
        let m = mesh();
        let mut s = RoundSchedule::new();
        for _ in 0..3 {
            s.push(
                Round::overlapped("r")
                    .with_compute(ComputeTask::new(DieId(0), 1e-3, 2.0e12, 1.0e9))
                    .with_flow(Flow::xy(&m, DieId(0), DieId(1), 1.0e9)),
            );
        }
        let r = e.run(&s);
        // 3 * (1 J compute + 0.048 J HBM + 0.04 J D2D).
        assert!((r.energy.compute - 3.0).abs() < 1e-9);
        assert!((r.energy.hbm - 0.144).abs() < 1e-9);
        assert!((r.energy.d2d - 0.12).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_utilization_reflects_overlap() {
        let e = engine();
        let m = mesh();
        let flow = Flow::xy(&m, DieId(0), DieId(1), 400.0 * MB);
        let comm = e.contention.simulate(std::slice::from_ref(&flow)).makespan;
        let mut s = RoundSchedule::new();
        s.push(
            Round::overlapped("r")
                .with_compute(ComputeTask::timed(DieId(0), comm)) // fully hidden
                .with_flow(flow),
        );
        let r = e.run(&s);
        let u = r.bandwidth_utilization(e.contention.link_bandwidth);
        assert!(u > 0.9, "link kept busy the whole round: {u}");
    }
}
