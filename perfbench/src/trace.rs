//! Spans recorded from the benchmark's own code, around each call into a
//! layer's public function: name, start, end and parent, kept in memory
//! and written out when the run ends. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closes when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Guard<'_> {
    /// The span's id, to parent child spans on (`None` when tracing is off).
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.now();
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans[id].end_ns = end;
            }
        }
    }
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub self_ns: u64,
    pub calls: u64,
}

impl LayerTime {
    pub fn self_us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn span(&self, name: &'static str, parent: Option<usize>) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: self,
                id: None,
            };
        }
        let start = self.now();
        let mut spans = self.spans.lock().expect("span list lock");
        spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
        });
        Guard {
            tracer: self,
            id: Some(spans.len() - 1),
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Per-name self time (duration minus the union of its children's
    /// intervals) and call counts.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let covered = union_len(&mut children[i], s.start_ns, s.end_ns);
            let entry = out.entry(s.name).or_default();
            entry.self_ns += total.saturating_sub(covered);
            entry.calls += 1;
        }
        out
    }

    /// Share of `[start, end]` covered by root spans.
    pub fn root_coverage(&self, start_ns: u64, end_ns: u64) -> f64 {
        let mut roots: Vec<(u64, u64)> = self
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let covered = union_len(&mut roots, start_ns, end_ns);
        covered as f64 / end_ns.saturating_sub(start_ns).max(1) as f64
    }

    /// One JSON object per line: `{"id":..,"name":..,"start_ns":..,
    /// "end_ns":..,"parent":..}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_overlapping_children_once() {
        let mut kids = vec![(10, 30), (20, 40), (50, 60)];
        assert_eq!(union_len(&mut kids, 0, 100), 40);
        assert_eq!(union_len(&mut kids, 25, 55), 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let g = t.span("x", None);
        assert!(g.id().is_none());
        drop(g);
        assert!(t.spans().is_empty());
    }
}
