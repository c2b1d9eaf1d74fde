//! Metric names and units, summary statistics, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("plan_s", "s"),
    ("sweep_s", "s"),
    ("plan_tokens_per_s", "tokens/s"),
    ("p50_ms.lo", "ms"),
    ("p50_ms.hi", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Every workload
/// reports every one; a count of events a workload never produces reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("enumerate.ms", "ms"),
    ("enumerate.candidates", "count"),
    ("bound.ms", "ms"),
    ("bound.pruned_share", "share"),
    ("exact.evals", "count"),
    ("exact.ms", "ms"),
    ("exact.share_of_plan", "share"),
    ("exact.us_per_eval", "us"),
    ("mapping.us_per_call", "us"),
    ("mapping.memo_hit_rate", "share"),
    ("optimizer.us_per_call", "us"),
    ("contention.us_per_call", "us"),
    ("contention.flows", "flows/call"),
    ("contention.warm_hit_rate", "share"),
    ("collective.us_per_call", "us"),
    ("collective.memo_hit_rate", "share"),
    ("solve.warm_us", "us"),
    ("stage.ms", "ms"),
    ("cache.hit_rate", "share"),
    ("cache.seg_hit_rate", "share"),
    ("cache.coalesced", "count"),
    ("cache.shard_waits", "count"),
    ("cache.duplicate_work_ratio", "ratio"),
    ("persist.import_ms", "ms"),
    ("persist.save_ms", "ms"),
    ("persist.cache_bytes", "bytes"),
    ("serve.p99_ms.lo", "ms"),
    ("serve.p99_ms.hi", "ms"),
    ("serve.knee_qps", "1/s"),
    ("serve.parse_us", "us"),
    ("serve.handle_us.hit.p50", "us"),
    ("serve.handle_us.hit.p99", "us"),
    ("serve.handle_us.miss.p50", "us"),
    ("serve.handle_us.miss.p99", "us"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.errors", "count"),
    ("serve.timeouts", "count"),
    ("serve.cancel_scope_failures", "count"),
    ("checks.unstable_plan_failures", "count"),
    ("runtime.workers", "count"),
    ("runtime.temp_threads", "count"),
    ("runtime.steals", "count"),
    ("runtime.executed", "count"),
    ("loadgen.clients", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.backlog_max", "count"),
    ("trace.coverage", "share"),
    ("trace.spans", "count"),
    ("overhead.setup_s", "s"),
    ("overhead.plan_s", "s"),
    ("overhead.sweep_s", "s"),
    ("overhead.plan_tokens_per_s", "tokens/s"),
    ("overhead.p50_ms.lo", "ms"),
    ("overhead.p50_ms.hi", "ms"),
    ("overhead.peak_rss_mb", "MB"),
];

/// Collected metric values by name.
pub type Values = BTreeMap<String, f64>;

/// The `q`-quantile (0..=1) of `xs` by nearest rank; 0 for an empty set.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (VmHWM) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A numeric field of a single-line JSON reply (`"key":<number>`).
pub fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// A string field of a single-line JSON reply (`"key":"<text>"`).
pub fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    Some(&rest[..rest.find('"')?])
}

/// The result line (the last line of stdout): exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric with its unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values
                .get(*name)
                .copied()
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names in `BENCHMARK.json` under `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory")
                .replace("\": \"", "\":\"");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                (
                    json_str(entry, "name").expect("name").to_string(),
                    json_str(entry, "unit").expect("unit").to_string(),
                )
            })
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json_both_ways() {
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn quantiles_and_fields() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        let reply = "{\"ok\":true,\"plan\":\"(1,2,1,16)\",\"chain_cost\":0.5,\"x\":3}";
        assert_eq!(json_str(reply, "plan"), Some("(1,2,1,16)"));
        assert_eq!(json_num(reply, "chain_cost"), Some(0.5));
        assert_eq!(json_num(reply, "x"), Some(3.0));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut values = Values::new();
        values.insert("a".into(), 1.5);
        let line = result_line(true, 3, 0, &[("a", "s")], &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
