//! In-memory span recorder for the traced run.
//!
//! Spans are recorded *from the benchmark's own files*, around the calls it
//! makes into each layer; names are `<layer>.<what>`, so the layer of a span
//! is the prefix before the first dot. Spans live in memory and are written
//! out once, when the run ends.
//!
//! The main thread's spans form a tree (a span opened while another is open
//! is its child). The threaded runtime's per-device work arrives after the
//! fact, from `Pipeline::last_timeline()`, as *lane* spans: children of the
//! iteration span that run in parallel with each other. A span's self time
//! is its duration minus the part of that interval its children cover, with
//! overlapping (parallel) children counted once.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request (one training iteration, one planned session,
    /// one service call) share an identifier.
    pub request_id: u64,
    /// 0 = the benchmark's main thread; `1 + d` = pipeline device `d`.
    pub lane: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Token for an open span (see [`Tracer::begin`]).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The recorder. A disabled tracer records nothing, so the same driver code
/// serves the untraced half of the overhead comparison.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span on the main lane, as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, request_id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request_id,
            lane: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close the innermost open span, which must be `open`.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost-first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request_id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, request_id);
        let out = f();
        self.end(open);
        out
    }

    /// Record a finished span on a device lane, as a child of `parent`:
    /// `start_s`/`end_s` are seconds from the parent's start (the runtime's
    /// timeline clock), clipped to the parent's interval.
    pub fn lane_span(
        &mut self,
        parent: Open,
        name: &'static str,
        lane: u32,
        start_s: f64,
        end_s: f64,
    ) {
        let Some(p) = parent.0 else { return };
        let (p_start, p_end, request_id) = {
            let s = &self.spans[p];
            (s.start_ns, s.end_ns, s.request_id)
        };
        let at = |s: f64| (p_start + (s.max(0.0) * 1e9) as u64).min(p_end);
        self.spans.push(Span {
            name,
            start_ns: at(start_s),
            end_ns: at(end_s),
            parent: Some(p),
            request_id,
            lane,
        });
    }

    /// Bump a counter recorded at the same boundary as the spans.
    pub fn count(&mut self, name: &'static str, by: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += by;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Per-span-name call counts and total durations (main lane only).
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.lane == 0) {
            let e = out.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.duration_ns();
        }
        out
    }

    /// Mean duration (µs) of the main-lane spans named `name`; 0 if none.
    pub fn mean_us(&self, name: &str) -> f64 {
        self.totals()
            .get(name)
            .map_or(0.0, |&(n, ns)| ns as f64 / n as f64 / 1e3)
    }

    /// The span file: every span, the counters, and the per-layer self
    /// times with their share of the traced wall.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let layers = layer_self_ns(&self.spans);
        let wall: u64 = layers.values().sum();
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": match s.parent { Some(p) => json!(p), None => Value::Null },
                    "request_id": s.request_id,
                    "lane": s.lane,
                })
            })
            .collect();
        let layer_rows: Vec<(String, Value)> = layers
            .iter()
            .map(|(l, ns)| {
                (
                    l.to_string(),
                    json!({"self_ns": *ns, "share": *ns as f64 / wall.max(1) as f64}),
                )
            })
            .collect();
        let counts: Vec<(String, Value)> = self
            .counts
            .iter()
            .map(|(k, v)| (k.to_string(), json!(*v)))
            .collect();
        json!({
            "workload": workload,
            "seed": seed,
            "traced_wall_ns": wall,
            "layer_self": Value::Object(layer_rows),
            "counts": Value::Object(counts),
            "spans": spans,
        })
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| s.duration_ns() - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Self time per layer such that the layers sum to the root spans' wall:
/// every main-lane span contributes its self time to its own layer, and the
/// interval its lane children cover (parallel device work, counted once) is
/// credited to the `stage` layer.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut lanes: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans.iter().filter(|s| s.lane != 0) {
        if let Some(p) = s.parent {
            lanes[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.lane == 0) {
        *out.entry(s.layer()).or_insert(0) += selfs[i];
        if !lanes[i].is_empty() {
            *out.entry("stage").or_insert(0) += covered(&mut lanes[i], s.start_ns, s.end_ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, lane: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 0,
            lane,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // root [0,100]
        //   session.plan [10,40]
        //     planner.search [15,35]
        //   engine.iter [50,90]
        //     lane 1: stage.fwd [52,70], stage.bwd [70,80]
        //     lane 2: stage.fwd [60,85]            (overlaps lane 1)
        let spans = vec![
            span("harness.run", 0, 100, None, 0),
            span("session.plan", 10, 40, Some(0), 0),
            span("planner.search", 15, 35, Some(1), 0),
            span("engine.iter", 50, 90, Some(0), 0),
            span("stage.fwd", 52, 70, Some(3), 1),
            span("stage.bwd", 70, 80, Some(3), 1),
            span("stage.fwd", 60, 85, Some(3), 2),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 30 - 40);
        assert_eq!(selfs[1], 30 - 20);
        assert_eq!(selfs[2], 20);
        // Children cover [52,85] once, although their durations sum to 53.
        assert_eq!(selfs[3], 40 - 33);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["harness"], 30);
        assert_eq!(layers["session"], 10);
        assert_eq!(layers["planner"], 20);
        assert_eq!(layers["engine"], 7);
        assert_eq!(layers["stage"], 33);
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn lane_spans_are_clipped_to_their_parent() {
        let mut tr = Tracer::new(true);
        let it = tr.begin("engine.iter", 7);
        tr.end(it);
        let (start, end) = (tr.spans()[0].start_ns, tr.spans()[0].end_ns);
        tr.lane_span(it, "stage.fwd", 1, -1.0, 1e6);
        let lane = &tr.spans()[1];
        assert_eq!((lane.start_ns, lane.end_ns), (start, end));
        assert_eq!(lane.request_id, 7);
        assert_eq!(lane.parent, Some(0));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let got = tr.span("session.plan", 1, || 42);
        tr.count("service.calls", 3);
        assert_eq!(got, 42);
        assert!(tr.spans().is_empty());
        assert!(tr.counts().is_empty());
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut tr = Tracer::new(true);
        let a = tr.begin("session.chain", 1);
        tr.span("session.plan", 1, || ());
        tr.end(a);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[0].parent, None);
        assert_eq!(tr.totals()["session.plan"].0, 1);
    }
}
