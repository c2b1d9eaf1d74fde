//! perfbench — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <plan-hpca|plan-mesh|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the same four phases on its own inputs: cold
//! library planning, multi-wafer sweeps, a cache save plus warm server
//! start, and open-loop serving over a fixed rate ladder. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` re-runs the workload
//! untraced in a child process, then traced here, and prints the
//! per-layer metrics plus the tracing overhead. The last stdout line is
//! the JSON result; a human-readable table goes to stderr. The exit code
//! is non-zero when any output check fails. See README.md.

mod gen;
mod out;
mod plan;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use temp_repro::serve::zoo_slugs;
use temp_repro::solver::pool::ContextPool;
use temp_repro::solver::runtime;

use gen::{Job, Mix, Rng, ENGINES};
use out::{geomean, median, quantile, ratio, Values, END_TO_END, PER_LAYER};
use plan::{Expected, Sweep};
use trace::Tracer;

/// Reference run length; phase budgets and rung sizes scale with
/// `--seconds / REF_SECONDS`.
const REF_SECONDS: f64 = 30.0;
/// Arrivals in each `lo` and `hi` segment at the reference length, so
/// each segment's p50 rests on enough samples; a rate's p99 pools its
/// segments.
const RUNG_ARRIVALS: f64 = 600.0;
/// Arrivals in each rung past `hi`; those only decide pass or fail for
/// the knee.
const KNEE_RUNG_ARRIVALS: f64 = 500.0;

/// Segments the `lo` and `hi` rungs are each split into. Five, so the
/// median over them drops up to two segments hit by slow spells.
const SEGMENTS: usize = 5;
/// A rung passes toward the knee when its p99 is at most this (ms) and
/// its backlog does not grow.
const LIMIT_MS: f64 = 1000.0;
/// Every this many arrivals one starts a cold burst. At every 40th, the
/// clients were blocked behind cold solves often enough that the p50
/// measured those waits rather than the hit path.
const COLD_EVERY: usize = 160;
/// Set-up repetitions at each of the three points of a run where set-ups
/// are timed (the median over all of them is reported).
const SETUP_REPS: usize = 7;

#[derive(Debug, Clone)]
struct Args {
    /// Set in child processes: run one timed pass (`cold`, `sweep` or
    /// `setup`).
    phase: Option<String>,
    /// The cache directory a `setup` child starts its server from.
    cache_dir: Option<PathBuf>,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        phase: None,
        cache_dir: None,
        workload: String::new(),
        seed: 1,
        seconds: REF_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--phase" => args.phase = Some(value()?),
            "--cache-dir" => args.cache_dir = Some(value()?.into()),
            "--freeze" => {
                freeze();
                std::process::exit(0);
            }
            "--freeze-answers" => {
                let (jobs, sweeps) = freeze_inputs();
                print!("{}", plan::freeze_answers(&jobs, &sweeps));
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["plan-hpca", "plan-mesh", "serve-mix"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Everything a workload runs, drawn from the seed before timing.
struct Spec {
    /// Wafers whose `ContextPool` the set-up builds.
    wafers: Vec<String>,
    jobs: Vec<Job>,
    sweeps: Vec<Sweep>,
    /// Share of the run spent on repeated cold passes and sweep passes.
    plan_share: f64,
    sweep_share: f64,
    /// Jobs checked against the exhaustive oracle per run.
    oracle: usize,
    mix: Mix,
    /// Offered rate of each rung in the order they run.
    rung_rates: Vec<f64>,
    schedule: Vec<Vec<gen::Arrival>>,
    /// serve-mix's 64-die cold bursts, sent after the ladder.
    probe: Vec<gen::Arrival>,
}

fn sweep(wafer: &str, model: &str, counts: &[usize], mults: &[usize]) -> Sweep {
    Sweep {
        wafer: wafer.into(),
        model: model.into(),
        counts: counts.to_vec(),
        mults: mults.to_vec(),
    }
}

/// The primed keys the serving phase draws from, hottest first: smaller
/// wafers first, then zoo and engine order. The ranking is fixed; the seed
/// only draws from it. Wafer first keeps plan-mesh's median inside the
/// 8x16 keys: under zoo order the 8x16 keys held 57% of the draws, warm
/// 16x16 hits take about 1.6x as long, and the median sat on that gap.
fn hot_keys(jobs: &[Job]) -> Vec<gen::Key> {
    let slugs = zoo_slugs();
    let rank = |j: &Job| {
        (
            plan::wafer(&j.wafer).die_count(),
            slugs.iter().position(|s| *s == j.model),
            ENGINES.iter().position(|e| *e == j.engine),
        )
    };
    let mut primed: Vec<&Job> = jobs.iter().filter(|j| j.variant == 0).collect();
    primed.sort_by_key(|j| rank(j));
    let mut keys: Vec<_> = primed
        .into_iter()
        .map(|j| (j.model.clone(), j.wafer.clone(), j.engine))
        .collect();
    keys.dedup();
    keys
}

fn cold_keys(expected: &Expected, wafers: &[String], engines: &[&'static str]) -> Vec<gen::Key> {
    let mut keys = Vec::new();
    for w in wafers {
        for m in zoo_slugs() {
            for &e in engines {
                if expected.feasible(&format!("{w} {m} {e} 0")) {
                    keys.push((m.to_string(), w.clone(), e));
                }
            }
        }
    }
    keys
}

fn build_spec(workload: &str, seed: u64, seconds: f64, expected: &Expected) -> Spec {
    let mut rng = Rng::new(seed);
    let scale = seconds / REF_SECONDS;
    // Every workload serves its primed keys plus a steady cold burst every
    // COLD_EVERY arrivals; serve-mix adds deadlines, control and
    // malformed lines. A warm hit takes well under a millisecond, less
    // than this class of shared machine's scheduling stalls, so without
    // misses a p99 would measure the machine instead of the server.
    let mut mix = Mix {
        hot: Vec::new(),
        cold_every: COLD_EVERY,
        cold: cold_keys(expected, &gen::cold_wafers(gen::LADDER_MAX_DIES), &ENGINES),
        deadline_share: 0.0,
        control_every: 0,
        malformed_share: 0.0,
    };
    // Ladders of offered rates (1/s): `lo`, `hi`, then the knee rungs in
    // rising order. `hi` is below every knee measured on a 2-vCPU VM with
    // enough margin that a slow spell of the machine does not tip it into
    // queueing (README, "Rates"); plan-mesh's warm hits take 2-5x longer
    // than the 8x4 wafer's, so its `lo` and `hi` are lower.
    let (wafers, jobs, sweeps, plan_share, sweep_share, oracle, rates): (_, _, _, _, _, _, &[f64]) =
        match workload {
            "plan-hpca" => (
                vec!["hpca".to_string()],
                gen::hpca_jobs(&mut rng.fork(1)),
                zoo_slugs()
                    .into_iter()
                    .map(|m| sweep("hpca", m, &[1, 2, 4], &[1, 2]))
                    .collect(),
                0.25,
                0.2,
                3,
                &[
                    300.0, 500.0, 900.0, 1300.0, 1700.0, 2100.0, 2500.0, 3000.0, 3600.0,
                ],
            ),
            "plan-mesh" => (
                vec!["8x16".to_string(), "16x16".to_string()],
                gen::mesh_jobs(&mut rng.fork(1)),
                vec![sweep("8x16", "gpt3_6_7b", &[1, 2], &[1])],
                0.3,
                0.12,
                0,
                &[200.0, 350.0, 700.0, 900.0, 1100.0, 1350.0, 1650.0, 2000.0],
            ),
            _ => {
                mix.deadline_share = 0.05;
                mix.control_every = 250;
                mix.malformed_share = 0.003;
                (
                    vec!["hpca".to_string()],
                    gen::serve_prime_jobs(),
                    vec![
                        sweep("hpca", "mixtral_8x7b", &[1, 2, 4], &[1, 2]),
                        sweep("hpca", "deepseek_moe_16b", &[1, 2, 4], &[1, 2]),
                    ],
                    0.1,
                    0.05,
                    0,
                    &[
                        300.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1050.0, 1200.0, 1400.0, 1700.0,
                        2000.0,
                    ],
                )
            }
        };
    mix.hot = hot_keys(&jobs);
    // `lo` and `hi` alternate in `segments` segments each, so a slow
    // spell of a shared machine lands on both and no single stretch of
    // time decides either; the knee rungs follow in rising order.
    let mut rungs: Vec<(f64, f64)> = Vec::new();
    for _ in 0..SEGMENTS {
        for r in &rates[..2] {
            rungs.push((*r, RUNG_ARRIVALS * scale / r));
        }
    }
    for r in &rates[2..] {
        rungs.push((*r, KNEE_RUNG_ARRIVALS * scale / r));
    }
    let rung_rates = rungs.iter().map(|(r, _)| *r).collect();
    let schedule = gen::schedule(&mut rng.fork(2), &mix, &rungs, 2);
    // serve-mix's 64-die probe: every 4x16 TCME key, solved after the
    // ladder — the 64-die wafer whose plans changed across processes when
    // the expected plans were frozen.
    let probe = if workload == "serve-mix" {
        let probe_mix = Mix {
            cold_every: 1,
            cold: cold_keys(expected, &["4x16".to_string()], &["tcme"]),
            deadline_share: 0.0,
            ..mix.clone()
        };
        let bursts = probe_mix.cold.len();
        gen::schedule(
            &mut rng.fork(3),
            &probe_mix,
            &[(20.0, bursts as f64 / 10.0)],
            2,
        )
        .remove(0)
        .into_iter()
        .take(2 * bursts)
        .collect()
    } else {
        Vec::new()
    };
    Spec {
        wafers,
        jobs,
        sweeps,
        plan_share,
        sweep_share,
        oracle,
        mix,
        rung_rates,
        schedule,
        probe,
    }
}

/// Outcome of one pipeline run.
struct RunResult {
    values: Values,
    attempted: u64,
    failures: plan::Failures,
}

/// Removes the run's scratch directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args, tracer: &Tracer, work: &Path) -> RunResult {
    let expected = Expected::load();
    let spec = build_spec(&args.workload, args.seed, args.seconds, &expected);
    let budget = args.seconds;
    let mut rng = Rng::new(args.seed).fork(9);
    let mut v = Values::new();
    let mut failures = plan::Failures::default();
    let mut attempted = 0u64;
    let run_start = tracer.now();
    let rt0 = runtime::global().stats();

    // Cold planning. The timed passes run in child processes: each starts
    // with empty process-wide caches (the thread-local contention-sim
    // cache, the contention warm-start state), which a second pass in
    // one process would find warm. This process then solves the list once
    // more, itself cold, for the state the later phases need: the cache
    // save, warm solves, the oracle sample and the traced sub-layer probe.
    progress("cold planning");
    let pass = plan::cold_pass(&spec.jobs, tracer, None);
    attempted += spec.jobs.len() as u64;
    plan::check_frozen(&pass, &expected, &mut failures);
    let mut walls = Vec::new();
    let t = Instant::now();
    let mut tput = 0.0;
    while walls.is_empty() || t.elapsed().as_secs_f64() < budget * spec.plan_share {
        let _g = tracer.span("plan.cold_child", None);
        let r = child_phase(args, "cold", None);
        attempted += r.attempted;
        failures.merge(r.failures);
        walls.push(r.wall_s);
        tput = r.tput;
    }
    v.insert("plan_s".into(), median(&walls));
    v.insert("plan_tokens_per_s".into(), tput);

    {
        let _g = tracer.span("checks.oracle", None);
        attempted += plan::oracle_sample(&pass, &mut rng, spec.oracle, &mut failures) as u64;
    }
    let warm_us = {
        let g = tracer.span("solve.warm_pass", None);
        plan::warm_solves(&pass, tracer, g.id())
    };
    let dir = work.join(if tracer.enabled() {
        "cache-traced"
    } else {
        "cache"
    });
    std::fs::create_dir_all(&dir).expect("work directory is writable");
    let mut save_ms = vec![plan::save_caches(&pass, &dir, tracer, None)];
    let cache_bytes = plan::cache_bytes(&dir);
    // The set-ups start from a copy: serve-mix's `save` lines grow the
    // server's own directory while it serves.
    let setup_dir = dir.with_extension("setup");
    std::fs::create_dir_all(&setup_dir).expect("work directory is writable");
    for entry in std::fs::read_dir(&dir).expect("cache directory is readable") {
        let path = entry.expect("cache directory is readable").path();
        std::fs::copy(&path, setup_dir.join(path.file_name().expect("a file")))
            .expect("cache files copy");
    }

    // Set-up: enumerate the workload's wafers and start a warm server from
    // the saved caches, each repetition in a fresh child process. In one
    // process a repetition's time depended on the ones before it (after a
    // few it could drop by a third, or not). The repetitions are spread
    // over three points of the run, before the sweeps, before serving and
    // after it, because the machine's speed shifts by as much from one
    // stretch of time to the next.
    let mut setups = Vec::new();
    let mut enum_ms = Vec::new();
    let mut time_setups = |failures: &mut plan::Failures| {
        progress("set-up");
        for _ in 0..SETUP_REPS {
            let _g = tracer.span("setup.child", None);
            let r = child_phase(args, "setup", Some(&setup_dir));
            failures.merge(r.failures);
            setups.push(r.wall_s);
            enum_ms.extend(r.enum_ms);
        }
    };
    time_setups(&mut failures);

    // Multi-wafer sweeps on fresh frameworks, each pass in a child process.
    progress("sweeps");
    let mut sweep_walls = Vec::new();
    let mut stage_ms = Vec::new();
    let t = Instant::now();
    while sweep_walls.is_empty() || t.elapsed().as_secs_f64() < budget * spec.sweep_share {
        let _g = tracer.span("plan.sweep_child", None);
        let r = child_phase(args, "sweep", None);
        attempted += r.attempted;
        failures.merge(r.failures);
        sweep_walls.push(r.wall_s);
        stage_ms.push(r.stage_s * 1e3);
    }
    v.insert("sweep_s".into(), median(&sweep_walls));

    time_setups(&mut failures);
    let hot_lines = hot_lines(&spec);
    let (server, _) = {
        let _s = tracer.span("persist.server_start", None);
        serve::start_server(&dir, &hot_lines)
    };
    let import_ms: Vec<f64> = (0..3)
        .map(|_| plan::import_caches(&spec.jobs, &dir, tracer, None))
        .collect();

    // Open-loop serving over the ladder.
    progress("serving");
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let served = {
        let g = tracer.span("serve.ladder", None);
        serve::ladder(
            &server,
            &hot_lines,
            &spec.schedule,
            &spec.rung_rates,
            2 * SEGMENTS - 1,
            LIMIT_MS,
            clients,
            tracer,
            g.id(),
        )
    };
    let (lo, hi) = serve::segmented(&served, SEGMENTS);
    v.insert("p50_ms.lo".into(), lo.p50_ms);
    v.insert("serve.p99_ms.lo".into(), lo.p99_ms);
    v.insert("p50_ms.hi".into(), hi.p50_ms);
    v.insert("serve.p99_ms.hi".into(), hi.p99_ms);
    let upper = served.rungs.get(2 * SEGMENTS..).unwrap_or(&[]);
    v.insert("serve.knee_qps".into(), serve::knee(&lo, &hi, upper));
    let mut records = served.records;
    if !spec.probe.is_empty() {
        let g = tracer.span("serve.probe_64", None);
        let probe = serve::ladder(
            &server,
            &[],
            std::slice::from_ref(&spec.probe),
            &[20.0],
            0,
            f64::INFINITY,
            clients,
            tracer,
            g.id(),
        );
        let base = served.rungs.len();
        records.extend(probe.records.into_iter().map(|mut r| {
            r.rung += base;
            r
        }));
    }
    time_setups(&mut failures);
    v.insert("setup_s".into(), median(&setups));
    for r in &records {
        if r.line == "save" {
            save_ms.push((r.end - r.start) * 1e3);
        }
    }
    let stats_reply = server.handle_line("stats").text().to_string();
    attempted += {
        let _g = tracer.span("checks.replay", None);
        serve::check(&server, &records, &expected, &mut failures)
    };

    // Per-layer metrics (reported by traced runs).
    progress("metrics");
    let s = &pass.stats;
    let st = &s.stats;
    let evals = st.misses as f64;
    v.insert("enumerate.ms".into(), median(&enum_ms));
    v.insert(
        "enumerate.candidates".into(),
        ratio(s.candidates as f64, s.pools as f64),
    );
    v.insert("bound.ms".into(), st.bound_ns as f64 / 1e6);
    let pruned = (st.bound_pruned + st.dominated_pruned) as f64;
    v.insert("bound.pruned_share".into(), ratio(pruned, pruned + evals));
    v.insert("exact.evals".into(), evals);
    v.insert("exact.ms".into(), st.exact_ns as f64 / 1e6);
    v.insert(
        "exact.share_of_plan".into(),
        ratio(st.exact_ns as f64 / 1e9, pass.wall_s),
    );
    v.insert(
        "exact.us_per_eval".into(),
        ratio(st.exact_ns as f64 / 1e3, evals),
    );
    v.insert(
        "mapping.memo_hit_rate".into(),
        ratio(s.map_hits as f64, (s.map_hits + s.map_misses) as f64),
    );
    v.insert(
        "contention.warm_hit_rate".into(),
        ratio(s.warm_hits as f64, (s.warm_hits + s.warm_misses) as f64),
    );
    v.insert(
        "collective.memo_hit_rate".into(),
        ratio(s.coll_hits as f64, (s.coll_hits + s.coll_misses) as f64),
    );
    v.insert("solve.warm_us".into(), median(&warm_us));
    v.insert("stage.ms".into(), median(&stage_ms));
    let (agg, _) = server.aggregate();
    v.insert(
        "cache.hit_rate".into(),
        ratio(agg.hits as f64, (agg.hits + agg.misses) as f64),
    );
    v.insert(
        "cache.seg_hit_rate".into(),
        ratio(agg.seg_hits as f64, (agg.seg_hits + agg.seg_misses) as f64),
    );
    v.insert("cache.coalesced".into(), agg.coalesced as f64);
    v.insert("cache.shard_waits".into(), agg.shard_waits as f64);
    v.insert(
        "cache.duplicate_work_ratio".into(),
        server.duplicate_work_ratio(),
    );
    v.insert("persist.import_ms".into(), median(&import_ms));
    v.insert("persist.save_ms".into(), median(&save_ms));
    v.insert("persist.cache_bytes".into(), cache_bytes as f64);
    let b = serve::breakdown(&records);
    v.insert("serve.handle_us.hit.p50".into(), quantile(&b.hit_us, 0.5));
    v.insert("serve.handle_us.hit.p99".into(), quantile(&b.hit_us, 0.99));
    v.insert("serve.handle_us.miss.p50".into(), quantile(&b.miss_us, 0.5));
    v.insert(
        "serve.handle_us.miss.p99".into(),
        quantile(&b.miss_us, 0.99),
    );
    v.insert("serve.queue_wait_ms.p50".into(), quantile(&b.queue_ms, 0.5));
    v.insert(
        "serve.queue_wait_ms.p99".into(),
        quantile(&b.queue_ms, 0.99),
    );
    v.insert(
        "serve.errors".into(),
        out::json_num(&stats_reply, "errors").unwrap_or(0.0),
    );
    v.insert(
        "serve.timeouts".into(),
        out::json_num(&stats_reply, "timeouts").unwrap_or(0.0),
    );
    v.insert(
        "serve.cancel_scope_failures".into(),
        failures.cancel_scope.len() as f64,
    );
    v.insert(
        "checks.unstable_plan_failures".into(),
        failures.unstable.len() as f64,
    );
    let rt1 = runtime::global().stats();
    v.insert("runtime.workers".into(), runtime::global().workers() as f64);
    v.insert(
        "runtime.temp_threads".into(),
        std::env::var("TEMP_THREADS")
            .ok()
            .and_then(|t| t.parse().ok())
            .unwrap_or(0.0),
    );
    v.insert("runtime.steals".into(), (rt1.steals - rt0.steals) as f64);
    v.insert(
        "runtime.executed".into(),
        (rt1.executed - rt0.executed) as f64,
    );
    v.insert("loadgen.clients".into(), clients as f64);
    v.insert("loadgen.lag_p99_ms".into(), quantile(&b.lag_ms, 0.99));
    v.insert(
        "loadgen.backlog_max".into(),
        served
            .rungs
            .iter()
            .map(|r| r.backlog_max)
            .max()
            .unwrap_or(0) as f64,
    );

    if tracer.enabled() {
        let lines: Vec<&str> = spec
            .schedule
            .iter()
            .flatten()
            .map(|a| a.line.as_str())
            .collect();
        v.insert(
            "serve.parse_us".into(),
            serve::parse_us(&lines, tracer, None),
        );
        let g = tracer.span("exact.probe", None);
        let sub = plan::sublayer_probe(&pass, &mut rng, 40, tracer, g.id());
        drop(g);
        let layers = tracer.layers();
        let per_call = |name: &str| layers.get(name).map_or(0.0, |l| l.self_us_per_call());
        v.insert("mapping.us_per_call".into(), per_call("mapping"));
        v.insert("optimizer.us_per_call".into(), per_call("optimizer"));
        v.insert("contention.us_per_call".into(), per_call("contention"));
        v.insert("collective.us_per_call".into(), per_call("collective"));
        v.insert(
            "contention.flows".into(),
            ratio(sub.flows as f64, sub.calls as f64),
        );
        v.insert("trace.spans".into(), tracer.spans().len() as f64);
    }
    v.insert("peak_rss_mb".into(), out::peak_rss_mb());
    if tracer.enabled() {
        let end = tracer.now();
        v.insert(
            "trace.coverage".into(),
            tracer.root_coverage(run_start, end),
        );
    }
    RunResult {
        values: v,
        attempted,
        failures,
    }
}

fn progress(phase: &str) {
    eprintln!("perfbench: {phase}");
}

/// The lines that warm a server up: one per primed key.
fn hot_lines(spec: &Spec) -> Vec<String> {
    spec.mix
        .hot
        .iter()
        .map(|(m, w, e)| format!("solve {m} wafer={w} engine={e}"))
        .collect()
}

/// What one child pass reports back.
#[derive(Default)]
struct ChildReport {
    wall_s: f64,
    enum_ms: Vec<f64>,
    stage_s: f64,
    tput: f64,
    attempted: u64,
    failures: plan::Failures,
}

/// `--phase cold|sweep|setup`: one timed pass of the workload's job list,
/// its sweeps or its set-up in this (fresh) process, reported as
/// `key value` lines.
fn phase_main(args: &Args, phase: &str) {
    let expected = Expected::load();
    let spec = build_spec(&args.workload, args.seed, args.seconds, &expected);
    let off = Tracer::new(false);
    let mut failures = plan::Failures::default();
    match phase {
        "cold" => {
            let pass = plan::cold_pass(&spec.jobs, &off, None);
            plan::check_frozen(&pass, &expected, &mut failures);
            // Over the Table II jobs: the seeded variants change the
            // plans' throughput from seed to seed, the Table II workloads
            // do not.
            let tputs: Vec<f64> = pass
                .solved
                .iter()
                .filter(|s| s.job.variant == 0)
                .filter_map(|s| s.throughput)
                .collect();
            println!("wall {:?}", pass.wall_s);
            println!("tput {:?}", geomean(&tputs));
            println!("attempted {}", spec.jobs.len());
        }
        "setup" => {
            let dir = args.cache_dir.as_deref().expect("--cache-dir is given");
            let t = Instant::now();
            for w in &spec.wafers {
                let te = Instant::now();
                std::hint::black_box(ContextPool::new(plan::wafer(w)));
                println!("enum {:?}", te.elapsed().as_secs_f64() * 1e3);
            }
            std::hint::black_box(serve::start_server(dir, &hot_lines(&spec)));
            println!("wall {:?}", t.elapsed().as_secs_f64());
        }
        _ => {
            let sp = plan::sweep_pass(&spec.sweeps, &off, None);
            plan::check_sweeps(&sp, &expected, &mut failures);
            println!("wall {:?}", sp.wall_s);
            println!("stage {:?}", sp.stage_s);
            println!("attempted {}", sp.answers.len());
        }
    }
    for (class, list) in [
        ("other", &failures.other),
        ("unstable", &failures.unstable),
        ("cancel_scope", &failures.cancel_scope),
    ] {
        for msg in list {
            println!("fail {class} {}", msg.replace('\n', " "));
        }
    }
}

/// Runs one `--phase` pass in a child process and reads its report.
fn child_phase(args: &Args, phase: &str, cache_dir: Option<&Path>) -> ChildReport {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    if let Some(dir) = cache_dir {
        cmd.arg("--cache-dir").arg(dir);
    }
    let out = cmd
        .args([
            "--phase",
            phase,
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("child pass runs");
    let mut r = ChildReport::default();
    if !out.status.success() {
        r.failures
            .other
            .push(format!("{phase} pass exited with {}", out.status));
        return r;
    }
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let num = || rest.parse::<f64>().expect("numeric child report");
        match key {
            "wall" => r.wall_s = num(),
            "stage" => r.stage_s = num(),
            "enum" => r.enum_ms.push(num()),
            "tput" => r.tput = num(),
            "attempted" => r.attempted = num() as u64,
            "fail" => {
                let (class, msg) = rest.split_once(' ').unwrap_or((rest, ""));
                let msg = format!("{phase} pass: {msg}");
                match class {
                    "unstable" => r.failures.unstable.push(msg),
                    "cancel_scope" => r.failures.cancel_scope.push(msg),
                    _ => r.failures.other.push(msg),
                }
            }
            _ => {}
        }
    }
    r
}

/// Runs this binary again with `--trace 0` and reads its end-to-end
/// values and counts from the result line.
fn untraced_child(args: &Args) -> Result<(Values, u64, u64, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or("untraced run printed nothing")?;
    let mut values = Values::new();
    for (name, _) in END_TO_END {
        let at = last
            .find(&format!("\"{name}\": {{\"value\": "))
            .ok_or(format!("untraced run lacks {name}"))?;
        let rest = &last[at + name.len() + 14..];
        let end = rest.find(',').ok_or("truncated value")?;
        values.insert(
            name.to_string(),
            rest[..end].parse().map_err(|_| "bad value")?,
        );
    }
    let count = |key: &str| out::json_num(&last.replace(": ", ":"), key).unwrap_or(0.0) as u64;
    Ok((
        values,
        count("attempted"),
        count("failed"),
        last.contains("\"correct\": true"),
    ))
}

/// Every job and sweep any workload can draw.
fn freeze_inputs() -> (Vec<Job>, Vec<Sweep>) {
    let mut jobs = Vec::new();
    for slug in zoo_slugs() {
        for engine in ENGINES {
            for variant in 0..gen::VARIANTS {
                jobs.push(Job {
                    wafer: "hpca".into(),
                    model: slug.into(),
                    engine,
                    variant,
                });
            }
            for w in gen::cold_wafers(64) {
                jobs.push(Job {
                    wafer: w,
                    model: slug.into(),
                    engine,
                    variant: 0,
                });
            }
        }
        for w in ["8x16", "16x16"] {
            jobs.push(Job {
                wafer: w.into(),
                model: slug.into(),
                engine: "tcme",
                variant: 0,
            });
        }
    }
    let mut sweeps: Vec<Sweep> = zoo_slugs()
        .into_iter()
        .map(|m| sweep("hpca", m, &[1, 2, 4], &[1, 2]))
        .collect();
    sweeps.push(sweep("8x16", "gpt3_6_7b", &[1, 2], &[1]));
    (jobs, sweeps)
}

/// Freezing repetitions, each in its own process. Enough that every key
/// whose plan flips between processes is caught and marked `unstable`:
/// the run-time checks classify only by that mark.
const FREEZE_REPS: usize = 16;

/// Regenerates `perfbench/data/expected_plans.txt` (run from the
/// repository root). Runs `nproc` repetitions at a time.
fn freeze() {
    let exe = std::env::current_exe().expect("own executable path");
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut reps: Vec<String> = Vec::new();
    while reps.len() < FREEZE_REPS {
        let batch: Vec<_> = (0..width.min(FREEZE_REPS - reps.len()))
            .map(|_| {
                Command::new(&exe)
                    .arg("--freeze-answers")
                    .stdout(std::process::Stdio::piped())
                    .stderr(std::process::Stdio::inherit())
                    .spawn()
                    .expect("freeze repetition starts")
            })
            .collect();
        for child in batch {
            let out = child.wait_with_output().expect("freeze repetition runs");
            assert!(out.status.success(), "freeze repetition failed");
            reps.push(String::from_utf8(out.stdout).expect("utf-8 answers"));
        }
    }
    std::fs::write(
        "perfbench/data/expected_plans.txt",
        plan::freeze_merge(&reps),
    )
    .expect("run --freeze from the repository root");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(phase) = &args.phase {
        phase_main(&args, phase);
        return;
    }
    let work = WorkDir(PathBuf::from(".bench_build").join(format!(
        "perfbench-{}-{}",
        args.workload,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).expect("the checkout is writable");

    let child = if args.trace {
        match untraced_child(&args) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("perfbench: untraced run failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };

    let tracer = Tracer::new(args.trace);
    let started = Instant::now();
    let mut result = run(&args, &tracer, &work.0);
    eprintln!(
        "perfbench: {} seed {} ran {:.1} s (threads: runtime {}, TEMP_THREADS {:?}, nproc {})",
        args.workload,
        args.seed,
        started.elapsed().as_secs_f64(),
        runtime::global().workers(),
        std::env::var("TEMP_THREADS").ok(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let f = &result.failures;
    for msg in &f.other {
        eprintln!("perfbench: FAILED {msg}");
    }
    for msg in &f.cancel_scope {
        eprintln!("perfbench: FAILED (known defect: shared cancel scope) {msg}");
    }
    for msg in &f.unstable {
        eprintln!("perfbench: FAILED (known defect: plan differs across cold solves) {msg}");
    }
    // Mismatches of the two known-defect classes are listed above and
    // counted per layer (`checks.unstable_plan_failures`,
    // `serve.cancel_scope_failures`); whether they happen depends on the
    // process and on timing, so as failed operations they would make
    // `failed` differ between runs of the same code. Any other mismatch is
    // a failed operation and makes the run incorrect.
    let mut failed = f.failed();
    let mut attempted = result.attempted;
    let mut correct = failed == 0;
    let names: &[(&str, &str)] = if let Some((untraced, a, f, c)) = child {
        attempted += a;
        failed += f;
        correct &= c;
        for (name, _) in END_TO_END {
            let traced = result.values[*name];
            result
                .values
                .insert(format!("overhead.{name}"), traced - untraced[*name]);
        }
        let coverage = result.values["trace.coverage"];
        if coverage < 0.9 {
            eprintln!("perfbench: FAILED top-level spans cover only {coverage:.3} of the run");
            correct = false;
        }
        let spans = PathBuf::from(".bench_build").join(format!(
            "perfbench-trace-{}-{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = std::fs::write(&spans, tracer.to_jsonl()) {
            eprintln!("perfbench: could not write {}: {e}", spans.display());
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    for (name, unit) in names {
        eprintln!(
            "perfbench: {name:<32} {:>16.6} {unit}",
            result.values[*name]
        );
    }
    eprintln!(
        "perfbench: failed {failed} / attempted {attempted} (known defects, not counted as failed: {} cancel scope, {} unstable plans)",
        f.cancel_scope.len(),
        f.unstable.len()
    );
    println!(
        "{}",
        out::result_line(correct, attempted, failed, names, &result.values)
    );
    drop(work);
    if !correct {
        std::process::exit(1);
    }
}
