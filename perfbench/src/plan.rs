//! Library-level planning: cold single-wafer solves on fresh context
//! pools, multi-wafer sweeps, the exhaustive-oracle sample, the cache
//! save the serving phase starts from, and (traced runs only) the exact
//! costing sub-layers re-timed over the candidates the solves costed.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::time::Instant;

use temp_repro::core::baselines::BaselineSystem;
use temp_repro::core::framework::Temp;
use temp_repro::graph::workload::Workload;
use temp_repro::mapping::comm::layer_flows;
use temp_repro::mapping::engines::{map_hybrid, MappingEngine};
use temp_repro::mapping::optimizer::TrafficOptimizer;
use temp_repro::parallel::strategy::HybridConfig;
use temp_repro::serve::wafer_config;
use temp_repro::sim::network::{contention_warm_stats, ContentionSim, Flow};
use temp_repro::solver::dlws::{Dlws, ExecutionPlan};
use temp_repro::solver::pool::ContextPool;
use temp_repro::solver::search::SearchStats;
use temp_repro::solver::SolverError;
use temp_repro::wsc::config::WaferConfig;

use crate::gen::{model, variant_workload, Job, Rng};
use crate::trace::Tracer;

/// Relative chain-cost tolerance against the frozen plans: cost-model
/// sums are accumulated in hash-map order, which differs across
/// processes, so the last few bits jitter.
pub const FROZEN_TOL: f64 = 1e-6;
/// Tolerance between two answers computed in one process.
pub const SAME_PROCESS_TOL: f64 = 1e-9;

pub fn engine(name: &str) -> MappingEngine {
    match name {
        "tcme" => MappingEngine::Tcme,
        "smap" => MappingEngine::SMap,
        "gmap" => MappingEngine::GMap,
        other => panic!("unknown engine {other}"),
    }
}

pub fn wafer(key: &str) -> WaferConfig {
    wafer_config(key).expect("benchmark wafer keys are valid")
}

/// A plan as the checks compare it: the label and chain cost, or `None`
/// for `NoFeasiblePlan`.
pub type Outcome = Option<(String, f64)>;

pub fn same(a: &Outcome, b: &Outcome, tol: f64) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some((la, ca)), Some((lb, cb))) => {
            la == lb && (ca - cb).abs() <= tol * ca.abs().max(1e-30)
        }
        _ => false,
    }
}

/// The frozen expected answers (`data/expected_plans.txt`), keyed by
/// [`Job::key`] or a sweep key. A key marked `unstable` gave different
/// answers across repeated cold solves when the file was frozen.
pub struct Expected(HashMap<String, (Outcome, bool)>);

const EXPECTED_TEXT: &str = include_str!("../data/expected_plans.txt");

/// Tokens of a key in the expected-plans file.
const KEY_TOKENS: usize = 4;

impl Expected {
    pub fn load() -> Self {
        Self::parse(EXPECTED_TEXT)
    }

    fn parse(text: &str) -> Self {
        let mut map = HashMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert!(
                f.len() >= KEY_TOKENS + 2,
                "malformed expected-plans line {line:?}"
            );
            let outcome = match f[KEY_TOKENS] {
                "NOFEASIBLE" => None,
                label => Some((label.to_string(), f[KEY_TOKENS + 1].parse().expect("cost"))),
            };
            let unstable = f.get(KEY_TOKENS + 2) == Some(&"unstable");
            map.insert(f[..KEY_TOKENS].join(" "), (outcome, unstable));
        }
        Expected(map)
    }

    pub fn unstable(&self, key: &str) -> bool {
        self.0.get(key).is_some_and(|(_, u)| *u)
    }

    /// Whether the key has a frozen feasible plan (cold keys are drawn
    /// from these).
    pub fn feasible(&self, key: &str) -> bool {
        matches!(self.0.get(key), Some((Some(_), _)))
    }

    /// Files `got` for `key`: nothing when it matches the frozen answer,
    /// else a failure — of the known class only when the key was marked
    /// `unstable` at freeze time. A key whose answer changes the same way
    /// in every process is a regression and files under `other`.
    pub fn judge(&self, key: &str, got: &Outcome, failures: &mut Failures) {
        match self.0.get(key) {
            Some((want, _)) if same(want, got, FROZEN_TOL) => {}
            Some((want, unstable)) => {
                let msg = format!("{key}: got {got:?}, frozen {want:?}");
                if *unstable {
                    failures.unstable.push(msg);
                } else {
                    failures.other.push(msg);
                }
            }
            None => failures.other.push(format!("{key}: no frozen answer")),
        }
    }
}

/// Failed operations, by cause.
#[derive(Debug, Default)]
pub struct Failures {
    /// Answers that differ from a replay while a deadline'd query on the
    /// same context was in flight: the shared cancel scope (known defect).
    pub cancel_scope: Vec<String>,
    /// Answers for keys marked `unstable` in the frozen file: their cold
    /// solves in separate processes disagreed with each other when the
    /// file was frozen (see README).
    pub unstable: Vec<String>,
    /// Everything else.
    pub other: Vec<String>,
}

impl Failures {
    /// Failed operations: the known-defect classes are counted per layer
    /// instead, because whether they happen depends on process and timing.
    pub fn failed(&self) -> u64 {
        self.other.len() as u64
    }

    pub fn merge(&mut self, more: Failures) {
        self.cancel_scope.extend(more.cancel_scope);
        self.unstable.extend(more.unstable);
        self.other.extend(more.other);
    }
}

pub fn outcome(result: &Result<ExecutionPlan, SolverError>) -> Result<Outcome, String> {
    match result {
        Ok(plan) => Ok(Some((plan.config.label(), plan.chain_cost))),
        Err(SolverError::NoFeasiblePlan(_)) => Ok(None),
        Err(e) => Err(e.to_string()),
    }
}

/// Totals of one cold pass.
#[derive(Debug, Default, Clone)]
pub struct PassStats {
    pub stats: SearchStats,
    pub map_hits: u64,
    pub map_misses: u64,
    pub coll_hits: u64,
    pub coll_misses: u64,
    pub warm_hits: u64,
    pub warm_misses: u64,
    pub candidates: u64,
    pub pools: u64,
}

fn add_stats(total: &mut SearchStats, s: &SearchStats) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.coalesced += s.coalesced;
    total.shard_waits += s.shard_waits;
    total.seg_hits += s.seg_hits;
    total.seg_misses += s.seg_misses;
    total.bound_pruned += s.bound_pruned;
    total.dominated_pruned += s.dominated_pruned;
    total.enumerate_ns += s.enumerate_ns;
    total.bound_ns += s.bound_ns;
    total.exact_ns += s.exact_ns;
}

/// One solved job of a cold pass, kept for the checks, the save and the
/// sub-layer probe.
pub struct Solved {
    pub job: Job,
    pub solver: Dlws,
    pub outcome: Outcome,
    pub throughput: Option<f64>,
}

pub struct Pass {
    pub wall_s: f64,
    pub solved: Vec<Solved>,
    pub stats: PassStats,
    pub errors: Vec<String>,
}

/// Cold-plans every job once, each on a fresh [`ContextPool`].
pub fn cold_pass(jobs: &[Job], tracer: &Tracer, parent: Option<usize>) -> Pass {
    let root = tracer.span("plan.cold_pass", parent);
    let (wh0, wm0) = contention_warm_stats();
    let mut stats = PassStats::default();
    let mut solved = Vec::with_capacity(jobs.len());
    let mut errors = Vec::new();
    let started = Instant::now();
    for job in jobs {
        let m = model(&job.model);
        let wl = variant_workload(&m, job.variant);
        let pool = {
            let _s = tracer.span("enumerate", root.id());
            ContextPool::new(wafer(&job.wafer))
        };
        let solver = pool.solver(&m, &wl);
        let result = {
            let _s = tracer.span("solve.cold", root.id());
            solver.solve_with_engine(engine(job.engine), |_| true)
        };
        stats.candidates += pool.candidates().len() as u64;
        stats.pools += 1;
        let s = solver.search_stats();
        add_stats(&mut stats.stats, &s);
        let (mh, mm) = solver.cost_model().mapping_memo_stats();
        let (ch, cm) = solver.cost_model().collective_memo_stats();
        stats.map_hits += mh;
        stats.map_misses += mm;
        stats.coll_hits += ch;
        stats.coll_misses += cm;
        match outcome(&result) {
            Ok(o) => solved.push(Solved {
                job: job.clone(),
                solver,
                throughput: result.as_ref().ok().map(|p| p.report.throughput),
                outcome: o,
            }),
            Err(e) => errors.push(format!("{}: {e}", job.key())),
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let (wh1, wm1) = contention_warm_stats();
    stats.warm_hits = wh1 - wh0;
    stats.warm_misses = wm1 - wm0;
    Pass {
        wall_s,
        solved,
        stats,
        errors,
    }
}

/// Checks a pass against the frozen plans.
pub fn check_frozen(pass: &Pass, expected: &Expected, failures: &mut Failures) {
    failures.other.extend(pass.errors.iter().cloned());
    for s in &pass.solved {
        expected.judge(&s.job.key(), &s.outcome, failures);
    }
}

/// Re-solves each job on its now-warm context (lookups, segment rows, DP
/// and GA; no exact costing) and returns the per-solve times in µs.
pub fn warm_solves(pass: &Pass, tracer: &Tracer, parent: Option<usize>) -> Vec<f64> {
    let mut out = Vec::new();
    for s in &pass.solved {
        let _g = tracer.span("solve.warm", parent);
        let t = Instant::now();
        let _ = s.solver.solve_with_engine(engine(s.job.engine), |_| true);
        out.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out
}

/// Solves a seeded sample of the pass's jobs again with pruning off on a
/// separate context (the exhaustive oracle) and compares. Returns the
/// number checked.
pub fn oracle_sample(pass: &Pass, rng: &mut Rng, n: usize, failures: &mut Failures) -> usize {
    let mut idx: Vec<usize> = (0..pass.solved.len()).collect();
    rng.shuffle(&mut idx);
    let take = n.min(idx.len());
    for &i in &idx[..take] {
        let s = &pass.solved[i];
        let m = model(&s.job.model);
        let wl = variant_workload(&m, s.job.variant);
        let pool = ContextPool::new(wafer(&s.job.wafer));
        let ctx = pool.context(&m, &wl);
        ctx.set_pruning(false);
        let oracle = Dlws::from_context(ctx).solve_with_engine(engine(s.job.engine), |_| true);
        match outcome(&oracle) {
            Ok(o) if same(&o, &s.outcome, SAME_PROCESS_TOL) => {}
            Ok(o) => failures.other.push(format!(
                "{}: pruned {:?} vs exhaustive {:?}",
                s.job.key(),
                s.outcome,
                o
            )),
            Err(e) => failures
                .other
                .push(format!("{}: oracle error {e}", s.job.key())),
        }
    }
    take
}

/// Merges every context of the pass into one pool per wafer and saves
/// them to `dir` (engines of one model share a cache file, so separate
/// per-job pools would overwrite each other). Returns the save time in ms.
pub fn save_caches(pass: &Pass, dir: &Path, tracer: &Tracer, parent: Option<usize>) -> f64 {
    let _g = tracer.span("persist.save", parent);
    let mut pools: BTreeMap<String, ContextPool> = BTreeMap::new();
    for s in &pass.solved {
        let pool = pools
            .entry(s.job.wafer.clone())
            .or_insert_with(|| ContextPool::new(wafer(&s.job.wafer)));
        let cm = s.solver.cost_model();
        let merged = pool.context(cm.model(), cm.workload());
        merged
            .import_cost_table(&s.solver.context().export_cost_table())
            .expect("a cache exported in this process imports");
    }
    let t = Instant::now();
    for pool in pools.values() {
        pool.save_to(dir).expect("cache directory is writable");
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Bytes of `cache-*.txt` files in `dir`.
pub fn cache_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().starts_with("cache-"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Imports the saved caches of every job's context into fresh pools
/// (`ContextPool::load_from` + the lazy per-context import); ms.
pub fn import_caches(jobs: &[Job], dir: &Path, tracer: &Tracer, parent: Option<usize>) -> f64 {
    let _g = tracer.span("persist.import", parent);
    let t = Instant::now();
    let mut pools: BTreeMap<String, ContextPool> = BTreeMap::new();
    for job in jobs {
        let pool = pools.entry(job.wafer.clone()).or_insert_with(|| {
            let pool = ContextPool::new(wafer(&job.wafer));
            pool.load_from(dir).expect("cache directory is readable");
            pool
        });
        let m = model(&job.model);
        let _ = pool.context(&m, &variant_workload(&m, job.variant));
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// One multi-wafer sweep job.
#[derive(Debug, Clone)]
pub struct Sweep {
    pub wafer: String,
    pub model: String,
    pub counts: Vec<usize>,
    pub mults: Vec<usize>,
}

impl Sweep {
    fn key(&self, count: usize, mult: usize) -> String {
        format!("sweep {} {} {count}x{mult}", self.wafer, self.model)
    }
}

pub struct SweepPass {
    pub wall_s: f64,
    /// Sweep wall minus its exact costing (stage balancing, DP, placement).
    pub stage_s: f64,
    pub answers: Vec<(String, Outcome)>,
}

/// Runs `Temp::evaluate_multiwafer_sweep` for each sweep on a fresh
/// framework instance (cold context).
pub fn sweep_pass(sweeps: &[Sweep], tracer: &Tracer, parent: Option<usize>) -> SweepPass {
    let root = tracer.span("plan.sweep_pass", parent);
    let mut wall_s = 0.0;
    let mut exact_s = 0.0;
    let mut answers = Vec::new();
    for sw in sweeps {
        let m = model(&sw.model);
        let temp = Temp::new(wafer(&sw.wafer), m.clone(), Workload::for_model(&m));
        let t = Instant::now();
        let entries = {
            let _s = tracer.span("stage.sweep", root.id());
            temp.evaluate_multiwafer_sweep(&BaselineSystem::temp(), &sw.counts, &sw.mults)
        };
        wall_s += t.elapsed().as_secs_f64();
        exact_s += temp.solver().search_stats().exact_ns as f64 / 1e9;
        for e in entries {
            let o = e.report.plan.as_ref().map(|p| {
                let labels: Vec<String> = p
                    .stages
                    .iter()
                    .flat_map(|st| st.segments.iter().map(|a| a.config.label()))
                    .collect();
                (labels.join("/"), p.step_time)
            });
            answers.push((sw.key(e.wafer_count, e.pp_multiplier), o));
        }
    }
    SweepPass {
        wall_s,
        stage_s: (wall_s - exact_s).max(0.0),
        answers,
    }
}

pub fn check_sweeps(pass: &SweepPass, expected: &Expected, failures: &mut Failures) {
    for (key, got) in &pass.answers {
        expected.judge(key, got, failures);
    }
}

/// Self time per call of each exact-costing sub-layer (µs) and the mean
/// number of flows per contention simulation.
#[derive(Debug, Default, Clone, Copy)]
pub struct SubLayers {
    pub calls: u64,
    pub flows: u64,
}

/// The distinct `(EP-folded layout config, engine)` pairs a solved job's
/// context costed exactly, read back from its exported cost table
/// (`E <dp> <fsdp> <tp> <sp> <cp> <tatp> <ep> <pp> <engine> ...`).
fn costed_layouts(s: &Solved) -> BTreeSet<(HybridConfigKey, usize)> {
    let text = s.solver.context().export_cost_table();
    let mut out = BTreeSet::new();
    for line in text.lines().filter(|l| l.starts_with("E ")) {
        let f: Vec<usize> = line
            .split_whitespace()
            .skip(1)
            .take(9)
            .map(|x| x.parse().expect("numeric cost-table record"))
            .collect();
        // The mapping engines see expert parallelism folded into dp.
        let key = [f[0] * f[6].max(1), f[1], f[2], f[3], f[4], f[5], f[7]];
        out.insert((key, f[8]));
    }
    out
}

/// `[dp, fsdp, tp, sp, cp, tatp, pp]` of an `ep = 1` layout config.
type HybridConfigKey = [usize; 7];

fn layout_config(k: &HybridConfigKey) -> HybridConfig {
    HybridConfig {
        dp: k[0],
        fsdp: k[1] == 1,
        tp: k[2],
        sp: k[3],
        cp: k[4],
        tatp: k[5],
        ep: 1,
        pp: k[6],
    }
}

/// Re-times the four sub-layers of exact costing — `map_hybrid`,
/// `TrafficOptimizer::optimize`, `ContentionSim::simulate` and
/// `Collective::simulate` — over (a seeded sample of at most `cap` per
/// wafer of) the layouts the pass's solves costed.
pub fn sublayer_probe(
    pass: &Pass,
    rng: &mut Rng,
    cap: usize,
    tracer: &Tracer,
    parent: Option<usize>,
) -> SubLayers {
    let root = tracer.span("exact.sublayers", parent);
    let mut per_wafer: BTreeMap<String, Vec<(usize, HybridConfigKey, usize)>> = BTreeMap::new();
    for (i, s) in pass.solved.iter().enumerate() {
        for (cfg, code) in costed_layouts(s) {
            per_wafer
                .entry(s.job.wafer.clone())
                .or_default()
                .push((i, cfg, code));
        }
    }
    let mut out = SubLayers::default();
    for (wkey, mut items) in per_wafer {
        rng.shuffle(&mut items);
        items.truncate(cap);
        let wcfg = wafer(&wkey);
        let mesh = wcfg.mesh();
        let sim = ContentionSim::new(&wcfg);
        for (i, key, code) in items {
            let cfg = layout_config(&key);
            let s = &pass.solved[i];
            let m = model(&s.job.model);
            let wl = variant_workload(&m, s.job.variant);
            let eng = match code {
                0 => MappingEngine::SMap,
                1 => MappingEngine::GMap,
                _ => MappingEngine::Tcme,
            };
            let mapped = {
                let _g = tracer.span("mapping", root.id());
                map_hybrid(eng, &wcfg, &m, &wl, &cfg)
            };
            let Ok(mapped) = mapped else { continue };
            out.calls += 1;
            if eng == MappingEngine::Tcme {
                let flows = layer_flows(&mesh, &mapped.comm_ops);
                let _g = tracer.span("optimizer", root.id());
                std::hint::black_box(TrafficOptimizer::new(mesh.clone()).optimize(flows));
            }
            let raw: Vec<Flow> = mapped.flows.iter().map(|f| f.flow.clone()).collect();
            out.flows += raw.len() as u64;
            {
                let _g = tracer.span("contention", root.id());
                std::hint::black_box(sim.simulate(&raw));
            }
            for op in &mapped.comm_ops {
                let coll = op.collective();
                let _g = tracer.span("collective", root.id());
                std::hint::black_box(coll.simulate(&sim, &mesh));
            }
        }
    }
    out
}

/// Every job's and sweep's answer, one `<key> <label> <cost>` line each
/// (one freezing repetition; see `--freeze`).
pub fn freeze_answers(jobs: &[Job], sweeps: &[Sweep]) -> String {
    let off = Tracer::new(false);
    let pass = cold_pass(jobs, &off, None);
    for e in &pass.errors {
        eprintln!("freeze: {e}");
    }
    let sw = sweep_pass(sweeps, &off, None);
    let mut out = String::new();
    for (key, o) in pass
        .solved
        .iter()
        .map(|s| (s.job.key(), s.outcome.clone()))
        .chain(sw.answers)
    {
        out.push_str(&render(&key, &o));
        out.push('\n');
    }
    out
}

/// Merges the answer lists of several freezing repetitions, each from
/// its own process (caches inside one process make a repeated solve
/// return the earlier answer), into the expected-plans file. The first
/// repetition's answer is the expected one; a key whose repetitions
/// disagree is marked `unstable`.
pub fn freeze_merge(reps: &[String]) -> String {
    let mut lines = vec![
        "# Frozen expected plans: <key> <plan label | NOFEASIBLE> <chain cost | -> [unstable]"
            .to_string(),
        "# Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --freeze"
            .to_string(),
    ];
    let parsed: Vec<Expected> = reps.iter().map(|text| Expected::parse(text)).collect();
    for line in reps[0].lines() {
        let key = line
            .split_whitespace()
            .take(KEY_TOKENS)
            .collect::<Vec<_>>()
            .join(" ");
        let first = &parsed[0].0[&key].0;
        let unstable = parsed[1..].iter().any(|p| {
            !p.0.get(&key)
                .is_some_and(|(o, _)| same(o, first, FROZEN_TOL))
        });
        if unstable {
            eprintln!("freeze: {key} differs across repetitions");
            lines.push(format!("{line} unstable"));
        } else {
            lines.push(line.to_string());
        }
    }
    lines.join("\n") + "\n"
}

fn render(key: &str, o: &Outcome) -> String {
    match o {
        Some((label, cost)) => format!("{key} {label} {cost:?}"),
        None => format!("{key} NOFEASIBLE -"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FROZEN: &str = "hpca gpt3_6_7b tcme 0 (2,1,1,16) 1.5\n\
                          4x16 llama2_7b tcme 0 (2,1,1,32) 1.25 unstable\n\
                          hpca opt_175b gmap 0 NOFEASIBLE -\n";

    fn plan(label: &str, cost: f64) -> Outcome {
        Some((label.to_string(), cost))
    }

    #[test]
    fn a_changed_plan_of_a_stable_key_is_a_real_failure() {
        let e = Expected::parse(FROZEN);
        let mut f = Failures::default();
        e.judge(
            "hpca gpt3_6_7b tcme 0",
            &plan("(2,1,1,16)", 1.5 * (1.0 + 1e-9)),
            &mut f,
        );
        e.judge("hpca opt_175b gmap 0", &None, &mut f);
        assert_eq!((f.other.len(), f.unstable.len()), (0, 0), "{f:?}");
        e.judge("hpca gpt3_6_7b tcme 0", &plan("(1,1,1,32)", 1.4), &mut f);
        e.judge("hpca gpt3_6_7b tcme 0", &plan("(2,1,1,16)", 1.6), &mut f);
        e.judge("hpca opt_175b gmap 0", &plan("(1,1,1,32)", 9.0), &mut f);
        e.judge("hpca llama3_70b tcme 0", &None, &mut f);
        assert_eq!((f.other.len(), f.unstable.len()), (4, 0), "{f:?}");
    }

    #[test]
    fn only_keys_marked_at_freeze_are_filed_as_unstable() {
        let e = Expected::parse(FROZEN);
        let mut f = Failures::default();
        e.judge("4x16 llama2_7b tcme 0", &plan("(1,1,1,64)", 1.3), &mut f);
        assert_eq!((f.other.len(), f.unstable.len()), (0, 1), "{f:?}");
        assert_eq!(
            f.failed(),
            0,
            "a known-defect mismatch is not a failed operation"
        );
        assert!(e.unstable("4x16 llama2_7b tcme 0"));
        assert!(!e.unstable("hpca gpt3_6_7b tcme 0"));
    }

    #[test]
    fn freeze_marks_a_key_when_any_repetition_disagrees() {
        let a = "hpca gpt3_6_7b tcme 0 (2,1,1,16) 1.5\n4x16 llama2_7b tcme 0 (2,1,1,32) 1.25\n";
        let b = "hpca gpt3_6_7b tcme 0 (2,1,1,16) 1.5\n4x16 llama2_7b tcme 0 (1,1,1,64) 1.3\n";
        let e = Expected::parse(&freeze_merge(&[a.into(), a.into(), b.into()]));
        assert!(e.unstable("4x16 llama2_7b tcme 0"));
        assert!(!e.unstable("hpca gpt3_6_7b tcme 0"));
    }
}
