//! Open-loop plan serving through `PlanServer::handle_line`.
//!
//! The whole arrival schedule is drawn from the seed before the server
//! starts. At most `nproc` client threads each own every `clients`-th
//! arrival of a rung; a client waits until its next arrival is due and
//! sends late arrivals immediately, so no dispatcher thread is needed.
//! Latency runs from an arrival's due time to its reply, so a stall
//! counts against every request queued behind it.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use temp_repro::serve::{PlanServer, Request};

use crate::gen::{Arrival, LineClass};
use crate::out::{json_num, json_str, median, quantile, ratio};
use crate::plan::{same, Expected, Failures, Outcome, SAME_PROCESS_TOL};
use crate::trace::Tracer;

/// One request as sent and answered.
#[derive(Debug, Clone)]
pub struct Record {
    pub rung: usize,
    pub class: LineClass,
    pub line: String,
    pub reply: String,
    /// Seconds from the rung's start.
    pub due: f64,
    pub start: f64,
    pub end: f64,
    /// Whether the client was idle when this request fell due (so any
    /// lateness is the generator's own).
    pub idle: bool,
}

impl Record {
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.due) * 1e3
    }
}

#[derive(Debug, Clone, Default)]
pub struct RungResult {
    pub rate: f64,
    pub drain_ms: f64,
    pub sent: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub achieved_qps: f64,
    pub backlog_max: usize,
    pub passed: bool,
}

/// Sends one rung's arrivals from client `c` of `clients`: every
/// `clients`-th arrival, each at its due time (late ones at once).
fn client_rung(
    server: &PlanServer,
    rung: usize,
    arrivals: &[Arrival],
    c: usize,
    clients: usize,
    tracer: &Tracer,
    parent: Option<usize>,
) -> Vec<(usize, Record)> {
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut out = Vec::new();
    let mut free_at = 0.0f64;
    for (i, a) in arrivals.iter().enumerate().skip(c).step_by(clients) {
        let due_at = t0 + Duration::from_secs_f64(a.due);
        wait_until(due_at);
        let start = Instant::now();
        let reply = {
            let _g = tracer.span("serve.handle_line", parent);
            server.handle_line(&a.line).text().to_string()
        };
        let end = Instant::now();
        let secs = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
        let rec = Record {
            rung,
            class: a.class,
            line: a.line.clone(),
            reply,
            due: a.due,
            start: secs(start),
            end: secs(end),
            idle: free_at <= a.due,
        };
        free_at = rec.end;
        out.push((i, rec));
    }
    out
}

/// How early a client wakes from sleep to spin to an arrival's due time.
/// A sleeping thread on a shared VM wakes up to a millisecond late, and
/// that lateness would count as latency of an idle server.
const SPIN: Duration = Duration::from_micros(500);

/// Sleeps until shortly before `due_at`, then spins to it.
fn wait_until(due_at: Instant) {
    let now = Instant::now();
    if due_at > now + SPIN {
        std::thread::sleep(due_at - now - SPIN);
    }
    while Instant::now() < due_at {
        std::hint::spin_loop();
    }
}

/// A rung passes when its p99 meets `limit_ms` and the backlog does not
/// grow: completions keep up with arrivals (at least 90% of the offered
/// rate over the rung) and what is still queued when the last request
/// falls due drains within `limit_ms`.
fn summarize(rate: f64, records: &[Record], limit_ms: f64) -> RungResult {
    let lat: Vec<f64> = records
        .iter()
        .filter(|r| matches!(r.class, LineClass::Hot | LineClass::Cold))
        .map(Record::latency_ms)
        .collect();
    let mut starts: Vec<f64> = records.iter().map(|r| r.start).collect();
    starts.sort_by(f64::total_cmp);
    // Requests due but not yet started, at each arrival's due time.
    let backlog_at = |t: f64, due_before: usize| due_before - starts.partition_point(|s| *s <= t);
    let mut backlog_max = 0;
    for (i, r) in records.iter().enumerate() {
        backlog_max = backlog_max.max(backlog_at(r.due, i));
    }
    let last_due = records.last().map_or(0.0, |r| r.due);
    let last_end = records.iter().map(|r| r.end).fold(0.0, f64::max);
    let p99 = quantile(&lat, 0.99);
    let drain_ms = (last_end - last_due).max(0.0) * 1e3;
    let offered = ratio(records.len() as f64, last_due);
    let achieved = ratio(records.len() as f64, last_end.max(last_due));
    RungResult {
        rate,
        sent: records.len(),
        p50_ms: quantile(&lat, 0.5),
        p99_ms: p99,
        achieved_qps: achieved,
        drain_ms,
        backlog_max,
        passed: p99 <= limit_ms && drain_ms <= limit_ms && achieved >= 0.9 * offered,
    }
}

/// Result of the serving phase.
pub struct Served {
    pub rungs: Vec<RungResult>,
    pub records: Vec<Record>,
}

/// Walks the ladder upward on `clients` threads that live for the whole
/// ladder (so their thread-local caches stay warm from rung to rung) and
/// first send every `warm` line once, untimed. Rungs up to `must_run`
/// always run; past it the walk stops at the first rung that misses the
/// limit or backs up.
#[allow(clippy::too_many_arguments)]
pub fn ladder(
    server: &PlanServer,
    warm: &[String],
    schedule: &[Vec<Arrival>],
    rates: &[f64],
    must_run: usize,
    limit_ms: f64,
    clients: usize,
    tracer: &Tracer,
    parent: Option<usize>,
) -> Served {
    // Main thread + clients meet before and after every rung; `next`
    // holds the rung to run (or `usize::MAX` to stop) and its span.
    let gate = Barrier::new(clients + 1);
    let next: Mutex<(usize, Option<usize>)> = Mutex::new((usize::MAX, None));
    let done: Mutex<Vec<(usize, Record)>> = Mutex::new(Vec::new());
    let mut rungs = Vec::new();
    let mut records = Vec::new();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (gate, next, done) = (&gate, &next, &done);
            scope.spawn(move || {
                for line in warm.iter().skip(c).step_by(clients) {
                    server.handle_line(line);
                }
                loop {
                    gate.wait();
                    let (k, span) = *next.lock().expect("rung lock");
                    if k == usize::MAX {
                        return;
                    }
                    let recs = client_rung(server, k, &schedule[k], c, clients, tracer, span);
                    done.lock().expect("records lock").extend(recs);
                    gate.wait();
                }
            });
        }
        for (k, rate) in rates.iter().enumerate().take(schedule.len()) {
            let g = tracer.span("serve.rung", parent);
            *next.lock().expect("rung lock") = (k, g.id());
            gate.wait();
            gate.wait();
            drop(g);
            let mut recs = std::mem::take(&mut *done.lock().expect("records lock"));
            recs.sort_by_key(|(i, _)| *i);
            let recs: Vec<Record> = recs.into_iter().map(|(_, r)| r).collect();
            let res = summarize(*rate, &recs, limit_ms);
            eprintln!(
                "perfbench: rung {k} offered {:.0}/s sent {} achieved {:.1}/s p50 {:.3} ms p99 {:.3} ms drain {:.1} ms backlog max {} {}",
                res.rate,
                res.sent,
                res.achieved_qps,
                res.p50_ms,
                res.p99_ms,
                res.drain_ms,
                res.backlog_max,
                if res.passed { "pass" } else { "FAIL" }
            );
            let stop = !res.passed && k >= must_run;
            rungs.push(res);
            records.extend(recs);
            if stop {
                break;
            }
        }
        *next.lock().expect("rung lock") = (usize::MAX, None);
        gate.wait();
    });
    Served { rungs, records }
}

/// The `lo` and `hi` results over their alternating segments (rungs
/// `0, 2, ..` and `1, 3, ..` of the first `2 * segments`). The p50 is the
/// median over the segments' p50s, so one slow spell of a shared machine
/// moves one segment, not the result; the p99 pools the segments'
/// latencies, so it has enough samples beyond it. Passed only if every
/// segment passed.
pub fn segmented(served: &Served, segments: usize) -> (RungResult, RungResult) {
    let pool = |parity: usize| {
        let ks: Vec<usize> = (0..2 * segments).filter(|k| k % 2 == parity).collect();
        let parts: Vec<&RungResult> = ks.iter().filter_map(|&k| served.rungs.get(k)).collect();
        let med =
            |f: fn(&RungResult) -> f64| median(&parts.iter().map(|r| f(r)).collect::<Vec<_>>());
        let pooled: Vec<f64> = served
            .records
            .iter()
            .filter(|r| ks.contains(&r.rung) && matches!(r.class, LineClass::Hot | LineClass::Cold))
            .map(Record::latency_ms)
            .collect();
        RungResult {
            rate: parts.first().map_or(0.0, |r| r.rate),
            sent: parts.iter().map(|r| r.sent).sum(),
            p50_ms: med(|r| r.p50_ms),
            p99_ms: quantile(&pooled, 0.99),
            achieved_qps: med(|r| r.achieved_qps),
            drain_ms: parts.iter().map(|r| r.drain_ms).fold(0.0, f64::max),
            backlog_max: parts.iter().map(|r| r.backlog_max).max().unwrap_or(0),
            passed: parts.len() == segments && parts.iter().all(|r| r.passed),
        }
    };
    (pool(0), pool(1))
}

/// The knee: the achieved rate of the highest rung, walking up from `lo`
/// through `hi` and the knee rungs, before the first one that fails.
pub fn knee(lo: &RungResult, hi: &RungResult, upper: &[RungResult]) -> f64 {
    let mut knee = lo.achieved_qps;
    for r in std::iter::once(hi).chain(upper) {
        if !r.passed {
            break;
        }
        knee = r.achieved_qps;
    }
    knee
}

/// The solve key a line addresses: `(model, wafer, engine)`.
fn solve_key(line: &str) -> Option<(String, String, String)> {
    match Request::parse(line) {
        Ok(Request::Solve(q)) => Some((
            q.model,
            q.wafer,
            match q.engine {
                temp_repro::mapping::engines::MappingEngine::Tcme => "tcme",
                temp_repro::mapping::engines::MappingEngine::SMap => "smap",
                temp_repro::mapping::engines::MappingEngine::GMap => "gmap",
            }
            .to_string(),
        )),
        _ => None,
    }
}

fn reply_outcome(reply: &str) -> Option<Outcome> {
    if !reply.starts_with("{\"ok\":true") {
        return None;
    }
    Some(Some((
        json_str(reply, "plan")?.to_string(),
        json_num(reply, "chain_cost")?,
    )))
}

/// Checks every reply and returns the number of operations checked:
/// malformed lines get exactly one `{"ok":false` reply; control lines
/// succeed; each distinct solve key is replayed alone on the same server,
/// the replay must match the frozen plan, and every earlier reply that
/// did not time out must match the replay.
pub fn check(
    server: &PlanServer,
    records: &[Record],
    expected: &Expected,
    failures: &mut Failures,
) -> u64 {
    let mut replay: BTreeMap<(String, String, String), Option<Outcome>> = BTreeMap::new();
    for r in records {
        if matches!(r.class, LineClass::Hot | LineClass::Cold) {
            replay
                .entry(solve_key(&r.line).expect("solve lines parse"))
                .or_insert(None);
        }
    }
    for (key, slot) in replay.iter_mut() {
        let line = format!("solve {} wafer={} engine={}", key.0, key.1, key.2);
        let reply = server.handle_line(&line).text().to_string();
        match reply_outcome(&reply) {
            Some(o) => {
                expected.judge(&format!("{} {} {} 0", key.1, key.0, key.2), &o, failures);
                *slot = Some(o);
            }
            None => failures.other.push(format!("replay {line}: {reply}")),
        }
    }
    // Deadline'd requests per (wafer, model) context.
    let mut deadlined: HashMap<(String, String), Vec<usize>> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        if r.line.contains("deadline_ms=") {
            if let Some(k) = solve_key(&r.line) {
                deadlined.entry((k.1, k.0)).or_default().push(i);
            }
        }
    }
    for (i, r) in records.iter().enumerate() {
        let single_line = !r.reply.contains('\n');
        match r.class {
            LineClass::Malformed => {
                if !(single_line && r.reply.starts_with("{\"ok\":false")) {
                    failures
                        .other
                        .push(format!("malformed {:?} got {:?}", r.line, r.reply));
                }
            }
            LineClass::Control => {
                if !(single_line && r.reply.starts_with("{\"ok\":true")) {
                    failures
                        .other
                        .push(format!("control {:?} got {:?}", r.line, r.reply));
                }
            }
            LineClass::Hot | LineClass::Cold => {
                let key = solve_key(&r.line).expect("solve lines parse");
                if r.reply.contains("\"timed_out\":true") {
                    continue;
                }
                let want = replay.get(&key).cloned().flatten();
                let got = reply_outcome(&r.reply);
                if matches!((&got, &want), (Some(g), Some(w)) if same(g, w, SAME_PROCESS_TOL)) {
                    continue;
                }
                let msg = format!("{:?} got {:?}, replay {:?}", r.line, r.reply, want);
                let overlapped = deadlined
                    .get(&(key.1.clone(), key.0.clone()))
                    .is_some_and(|ds| {
                        ds.iter().any(|&j| {
                            let d = &records[j];
                            j != i && d.rung == r.rung && d.start < r.end && r.start < d.end
                        })
                    });
                if overlapped {
                    failures.cancel_scope.push(msg);
                } else if expected.unstable(&format!("{} {} {} 0", key.1, key.0, key.2)) {
                    failures.unstable.push(msg);
                } else {
                    failures.other.push(msg);
                }
            }
        }
    }
    records.len() as u64
}

/// Per-class handle times (µs) and queue waits (ms) of solve requests.
pub struct Breakdown {
    pub hit_us: Vec<f64>,
    pub miss_us: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
}

pub fn breakdown(records: &[Record]) -> Breakdown {
    let mut b = Breakdown {
        hit_us: Vec::new(),
        miss_us: Vec::new(),
        queue_ms: Vec::new(),
        lag_ms: Vec::new(),
    };
    for r in records {
        let handle = (r.end - r.start) * 1e6;
        match r.class {
            LineClass::Hot => b.hit_us.push(handle),
            LineClass::Cold => b.miss_us.push(handle),
            _ => {}
        }
        let wait = (r.start - r.due).max(0.0) * 1e3;
        if r.idle {
            b.lag_ms.push(wait);
        } else {
            b.queue_ms.push(wait);
        }
    }
    b
}

/// Builds a server over the cache directory and touches every hot key
/// once, so the lazy per-context import and the thread-local caches are
/// done before timing. Returns the server and the set-up time in s.
pub fn start_server(dir: &Path, hot_lines: &[String]) -> (PlanServer, f64) {
    let t = Instant::now();
    let server = PlanServer::new(Some(dir)).expect("cache directory is usable");
    for line in hot_lines {
        let reply = server.handle_line(line);
        assert!(
            reply.text().starts_with("{\"ok\":true"),
            "warm-up {line:?} failed: {}",
            reply.text()
        );
    }
    (server, t.elapsed().as_secs_f64())
}

/// Mean µs per `Request::parse` over `lines`.
pub fn parse_us(lines: &[&str], tracer: &Tracer, parent: Option<usize>) -> f64 {
    let _g = tracer.span("serve.parse", parent);
    let reps = 20;
    let t = Instant::now();
    for _ in 0..reps {
        for line in lines {
            std::hint::black_box(Request::parse(std::hint::black_box(line)).is_ok());
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / (reps * lines.len().max(1)) as f64
}
