//! Seeded input generation. Everything a run feeds the program — job
//! lists, sweep models, the serving key space and the open-loop arrival
//! schedule — is drawn here from `--seed` alone, before any timing, so the
//! same seed always yields byte-identical inputs (see the self-tests).

use temp_repro::graph::models::ModelConfig;
use temp_repro::graph::workload::{RecomputeMode, Workload};
use temp_repro::serve::{model_by_slug, zoo_slugs};

/// SplitMix64: a tiny, fully specified generator, so the inputs never
/// depend on another crate's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x05EE_DBE4_C0DD_BA11_u64)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Exponential inter-arrival gap for a Poisson process at `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// A fresh stream for a sub-purpose, so adding draws to one part of
    /// the input never shifts another part.
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng(self.next_u64() ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }
}

pub const ENGINES: [&str; 3] = ["tcme", "smap", "gmap"];

/// A solve key of the serving mix: `(model, wafer, engine)`.
pub type Key = (String, String, &'static str);

/// Number of workload variants [`variant_workload`] knows.
pub const VARIANTS: usize = 9;

/// The Table II workload (variant 0) or one of eight seeded departures
/// from it in sequence length, global batch, micro-batches or recompute.
pub fn variant_workload(model: &ModelConfig, variant: usize) -> Workload {
    let base = Workload::for_model(model);
    match variant {
        0 => base,
        1 => Workload {
            seq_len: base.seq_len / 2,
            ..base
        },
        2 => Workload {
            seq_len: base.seq_len * 2,
            ..base
        },
        3 => Workload {
            global_batch: base.global_batch * 2,
            ..base
        },
        4 => Workload {
            global_batch: base.global_batch / 2,
            ..base
        },
        5 => base.with_micro_batches(16),
        6 => base.with_micro_batches(4),
        7 => base.with_recompute(RecomputeMode::Full),
        8 => base.with_recompute(RecomputeMode::None),
        other => panic!("unknown workload variant {other}"),
    }
}

pub fn model(slug: &str) -> ModelConfig {
    model_by_slug(slug).expect("zoo slug")
}

/// One cold single-wafer planning job.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Job {
    pub wafer: String,
    pub model: String,
    pub engine: &'static str,
    pub variant: usize,
}

impl Job {
    /// The key the expected-plans file stores this job under.
    pub fn key(&self) -> String {
        format!(
            "{} {} {} {}",
            self.wafer, self.model, self.engine, self.variant
        )
    }
}

/// plan-hpca: every zoo model x engine once with its Table II workload
/// and once with a seeded variant, in seeded order. Each of the eight
/// variants is used equally often, so the total work barely depends on
/// the seed.
pub fn hpca_jobs(rng: &mut Rng) -> Vec<Job> {
    let pairs: Vec<(&str, &'static str)> = zoo_slugs()
        .into_iter()
        .flat_map(|slug| ENGINES.into_iter().map(move |e| (slug, e)))
        .collect();
    let mut variants: Vec<usize> = (0..pairs.len()).map(|i| 1 + i % (VARIANTS - 1)).collect();
    rng.shuffle(&mut variants);
    let mut jobs = Vec::new();
    for (&(slug, engine), &variant) in pairs.iter().zip(&variants) {
        for variant in [0, variant] {
            jobs.push(Job {
                wafer: "hpca".into(),
                model: slug.into(),
                engine,
                variant,
            });
        }
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// plan-mesh: TCME solves with Table II workloads — GPT-3 6.7B, Llama3
/// 70B and Mixtral 8x7B on 8x16, Llama2 7B and GPT-3 175B on 16x16 — in
/// seeded order. The composition is fixed: per-model solve times differ
/// by up to 5x at this scale, so a seeded subset would make the pass time
/// a property of the seed.
pub fn mesh_jobs(rng: &mut Rng) -> Vec<Job> {
    let mut jobs: Vec<Job> = [
        ("8x16", "gpt3_6_7b"),
        ("8x16", "llama3_70b"),
        ("8x16", "mixtral_8x7b"),
        ("16x16", "llama2_7b"),
        ("16x16", "gpt3_175b"),
    ]
    .into_iter()
    .map(|(wafer, model)| Job {
        wafer: wafer.into(),
        model: model.into(),
        engine: "tcme",
        variant: 0,
    })
    .collect();
    rng.shuffle(&mut jobs);
    jobs
}

/// serve-mix's planning job list: its hot-key set, cold-planned once to
/// fill the cache directory the server starts from.
pub fn serve_prime_jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for slug in zoo_slugs() {
        for engine in ENGINES {
            jobs.push(Job {
                wafer: "hpca".into(),
                model: slug.into(),
                engine,
                variant: 0,
            });
        }
    }
    jobs
}

/// Every power-of-two custom `WxH` array of 8 to `max_dies` dies. The
/// benchmark never asks for more than 64 dies: an unbounded `wafer=WxH`
/// (a 64x64 query holds a worker for over a minute) would turn every run
/// into a timeout, not a measurement.
pub fn cold_wafers(max_dies: u32) -> Vec<String> {
    let mut out = Vec::new();
    for w in [1u32, 2, 4, 8, 16, 32, 64] {
        for h in [1u32, 2, 4, 8, 16, 32, 64] {
            let dies = w * h;
            if (8..=max_dies).contains(&dies) {
                out.push(format!("{w}x{h}"));
            }
        }
    }
    out
}

/// The largest custom wafer the ladders' cold keys use. One 64-die TCME
/// solve takes up to half a second and would set a rung's p99 alone, so
/// 64-die keys are solved in serve-mix's miss probe instead.
pub const LADDER_MAX_DIES: u32 = 32;

/// One protocol line of the open-loop schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Due time, seconds from the start of the rung.
    pub due: f64,
    pub line: String,
    pub class: LineClass,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineClass {
    /// A solve of a primed key.
    Hot,
    /// A solve of a key no cache holds (a custom wafer).
    Cold,
    /// `stats` or `save`.
    Control,
    /// A line that must get exactly one `{"ok":false` reply.
    Malformed,
}

/// What a workload's serving mix draws from.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Primed solve keys as `(model, wafer, engine)`, hottest first.
    pub hot: Vec<Key>,
    /// Every `cold_every`-th arrival starts a cold burst; 0 disables.
    pub cold_every: usize,
    /// Feasible cold keys `(model, wafer, engine)`, drawn without
    /// replacement.
    pub cold: Vec<Key>,
    /// Share of TCME solve lines that carry `deadline_ms`.
    pub deadline_share: f64,
    /// Every `control_every`-th arrival is `stats` (each fifth of those
    /// `save`); 0 disables control lines.
    pub control_every: usize,
    /// Share of malformed lines.
    pub malformed_share: f64,
}

pub const OBJECTIVES: [&str; 3] = ["step_time", "throughput", "power_eff"];

const MALFORMED: [&str; 6] = [
    "solve",
    "solve gpt3_6_7b engine=warp",
    "fly me to the moon",
    "solve not_a_model",
    "solve gpt3_6_7b deadline_ms=soon",
    "solve gpt3_6_7b wafer=0x4",
];

/// Zipf(1.0) sampler over `n` ranks.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for rank in 1..=n {
            acc += 1.0 / rank as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }
}

/// Draws the whole open-loop schedule for a ladder of `(rate, seconds)`
/// rungs up front: Poisson arrivals, hot keys from a fixed Zipf ranking,
/// and a cold burst at every `cold_every`-th arrival, so the miss share is
/// the same in every rung and every seed. Cold keys are consumed without
/// replacement across the whole ladder and arrive as duplicate bursts of
/// `burst` lines 50 µs apart, so single-flight has something to coalesce.
pub fn schedule(rng: &mut Rng, mix: &Mix, rungs: &[(f64, f64)], burst: usize) -> Vec<Vec<Arrival>> {
    let zipf = Zipf::new(mix.hot.len());
    let mut cold = stratified(rng, &mix.cold).into_iter();
    let mut count = rng.below(mix.cold_every.max(1));
    let mut out = Vec::new();
    for &(rate, seconds) in rungs {
        let mut t = rng.exp_gap(rate);
        let mut rung = Vec::new();
        while t < seconds {
            count += 1;
            let u = rng.unit();
            if mix.control_every > 0 && count.is_multiple_of(mix.control_every) {
                let line = if count.is_multiple_of(5 * mix.control_every) {
                    "save"
                } else {
                    "stats"
                };
                rung.push(Arrival {
                    due: t,
                    line: line.into(),
                    class: LineClass::Control,
                });
            } else if u < mix.malformed_share {
                rung.push(Arrival {
                    due: t,
                    line: MALFORMED[rng.below(MALFORMED.len())].into(),
                    class: LineClass::Malformed,
                });
            } else if let Some((m, w, e)) = (mix.cold_every > 0
                && count.is_multiple_of(mix.cold_every))
            .then(|| cold.next())
            .flatten()
            {
                // Once the cold keys run out, the rest of the schedule is hot.
                let line = solve_line(rng, &m, &w, e);
                for k in 0..burst {
                    rung.push(Arrival {
                        due: t + k as f64 * 50e-6,
                        line: with_deadline(rng, mix, &line, e),
                        class: LineClass::Cold,
                    });
                }
            } else {
                let (m, w, e) = &mix.hot[zipf.sample(rng)];
                let line = solve_line(rng, m, w, e);
                rung.push(Arrival {
                    due: t,
                    line: with_deadline(rng, mix, &line, e),
                    class: LineClass::Hot,
                });
            }
            t += rng.exp_gap(rate);
        }
        rung.sort_by(|a, b| a.due.total_cmp(&b.due));
        out.push(rung);
    }
    out
}

/// Orders cold keys so every stretch of the sequence mixes costs alike:
/// keys are shuffled within each `(engine, dies, MoE or dense)` stratum,
/// then dealt round-robin across the strata in a fixed order. Solve cost
/// grows steeply with die count and MoE layers, so a plain shuffle would
/// let one seed's rung draw far more expensive misses than another's.
fn stratified(rng: &mut Rng, keys: &[Key]) -> Vec<Key> {
    let dies = |w: &str| -> u32 {
        let (a, b) = w.split_once('x').expect("WxH wafer key");
        a.parse::<u32>().expect("width") * b.parse::<u32>().expect("height")
    };
    let moe = zoo_slugs()[temp_repro::serve::FIG13_ZOO..].to_vec();
    let mut strata: std::collections::BTreeMap<(&str, u32, bool), Vec<Key>> =
        std::collections::BTreeMap::new();
    for k in keys {
        strata
            .entry((k.2, dies(&k.1), moe.contains(&k.0.as_str())))
            .or_default()
            .push(k.clone());
    }
    let mut strata: Vec<Vec<_>> = strata.into_values().collect();
    for s in &mut strata {
        rng.shuffle(s);
    }
    let mut out = Vec::with_capacity(keys.len());
    loop {
        let before = out.len();
        for stratum in &mut strata {
            out.extend(stratum.pop());
        }
        if out.len() == before {
            return out;
        }
    }
}

fn solve_line(rng: &mut Rng, model: &str, wafer: &str, engine: &str) -> String {
    format!(
        "solve {model} wafer={wafer} engine={engine} objective={}",
        OBJECTIVES[rng.below(OBJECTIVES.len())]
    )
}

/// Each line (also each duplicate of a burst) draws its own deadline, so
/// a plain solve and a deadline'd one of the same key can be in flight
/// together — the case the shared cancel scope gets wrong.
fn with_deadline(rng: &mut Rng, mix: &Mix, line: &str, engine: &str) -> String {
    if engine == "tcme" && rng.unit() < mix.deadline_share {
        // Budgets spread across typical cold-solve times (1-60 ms).
        format!("{line} deadline_ms={}", 1 + rng.below(60))
    } else {
        line.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Mix {
        Mix {
            hot: serve_prime_jobs()
                .into_iter()
                .map(|j| (j.model, j.wafer, j.engine))
                .collect(),
            cold_every: 20,
            cold: cold_wafers(LADDER_MAX_DIES)
                .into_iter()
                .flat_map(|w| {
                    zoo_slugs()
                        .into_iter()
                        .map(move |m| (m.to_string(), w.clone(), "tcme"))
                })
                .collect(),
            deadline_share: 0.1,
            control_every: 50,
            malformed_share: 0.01,
        }
    }

    fn render(seed: u64) -> String {
        let mut rng = Rng::new(seed);
        let jobs = (
            hpca_jobs(&mut rng.fork(1)),
            mesh_jobs(&mut rng.fork(2)),
            schedule(&mut rng.fork(3), &mix(), &[(100.0, 2.0), (300.0, 1.0)], 2),
        );
        format!("{jobs:?}")
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(render(7), render(7));
        assert_ne!(render(7), render(8));
    }

    #[test]
    fn schedule_is_sorted_and_cold_keys_never_repeat_across_bursts() {
        let sched = schedule(&mut Rng::new(3), &mix(), &[(400.0, 2.0)], 2);
        let rung = &sched[0];
        assert!(rung.windows(2).all(|w| w[0].due <= w[1].due));
        let cold: Vec<&str> = rung
            .iter()
            .filter(|a| a.class == LineClass::Cold)
            .map(|a| a.line.split(" deadline_ms").next().unwrap())
            .collect();
        let mut distinct = cold.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len() * 2, cold.len());
    }

    #[test]
    fn every_variant_is_a_valid_workload() {
        for slug in zoo_slugs() {
            for v in 0..VARIANTS {
                variant_workload(&model(slug), v)
                    .validate()
                    .expect("valid variant");
            }
        }
    }
}
