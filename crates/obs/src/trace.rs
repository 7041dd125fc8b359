//! Request-scoped causal tracing: parent/child span trees with dual
//! timestamps.
//!
//! Each [`Trace`] owns one tree of spans for one logical request (a
//! serve `Request`, a training run, …). Every span carries **two**
//! clocks:
//!
//! * `start_tick`/`end_tick` — a per-trace logical counter incremented
//!   on every span open/close. Ticks are a pure function of the code
//!   path taken, so span *structure* (ids, parentage, ticks) is
//!   bit-identical across worker counts and machines. Determinism tests
//!   compare [`structure_text`] / [`structure_digest`] over these.
//! * `start_ns`/`end_ns` — wall nanoseconds from
//!   [`crate::monotonic_ns`] (one process-wide
//!   monotonic epoch), for humans. These feed the Chrome trace-event
//!   export ([`chrome_trace_json`]) and the per-name wall-time
//!   aggregates ([`timings`]) that run manifests record, and are
//!   *excluded* from the structure digest.
//!
//! A `Trace` is single-owner and `&mut`-threaded through the code path
//! it observes (the serve scheduler moves it worker→worker alongside
//! the request slot); there is no global collector and no locking on
//! the hot path.

use crate::clock::monotonic_ns;
use serde::Value;
use std::collections::BTreeMap;

/// A span field's value: the serde value tree, so fields land in the
/// Chrome export's `args` without conversion.
pub type FieldValue = Value;

/// Identifier of one trace (one request). The serve scheduler uses the
/// request's replay index, so responses and traces correlate by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Handle to one span inside its owning [`Trace`]. Ids are dense
/// indices assigned in open order, starting at 0 for the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u32);

/// One recorded span: a named interval with a parent link, logical
/// ticks and wall timestamps, plus optional key/value fields.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Dense id within the trace (open order).
    pub id: u32,
    /// Parent span id; `None` for the root.
    pub parent: Option<u32>,
    /// Dotted snake_case span name (e.g. `serve.batch`); lint rule N1
    /// enforces the format.
    pub name: String,
    /// Logical tick at open (1-based, per trace).
    pub start_tick: u64,
    /// Logical tick at close; `0` while the span is still open.
    pub end_tick: u64,
    /// Wall nanoseconds at open, from the process monotonic epoch.
    pub start_ns: u64,
    /// Wall nanoseconds at close.
    pub end_ns: u64,
    /// Structured annotations (cache hit flags, batch bounds, …).
    /// Excluded from the structure digest: values like candidate
    /// counts may legitimately vary where structure may not.
    pub fields: Vec<(String, Value)>,
}

impl SpanRecord {
    /// Wall duration in nanoseconds (0 while open).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A live, single-owner span tree under construction.
///
/// ```
/// use scenerec_obs::trace::Trace;
/// let mut t = Trace::new(7);
/// let root = t.start_span("serve.request");
/// let child = t.start_span("serve.queue");
/// t.end_span(child);
/// t.end_span(root);
/// let data = t.finish();
/// assert_eq!(data.spans[1].parent, Some(0));
/// assert_eq!(data.spans[0].start_tick, 1);
/// ```
#[derive(Debug)]
pub struct Trace {
    id: u64,
    tick: u64,
    spans: Vec<SpanRecord>,
    /// Open spans, innermost last; the top is the parent of the next
    /// `start_span` and the target of `end_top`.
    stack: Vec<u32>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new(id: u64) -> Self {
        Trace {
            id,
            tick: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The trace id.
    pub fn id(&self) -> TraceId {
        TraceId(self.id)
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Opens a span as a child of the innermost open span (or as a
    /// root) and pushes it on the open stack.
    pub fn start_span(&mut self, name: &str) -> SpanId {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_tick = self.next_tick();
        self.spans.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_tick,
            end_tick: 0,
            start_ns: monotonic_ns(),
            end_ns: 0,
            fields: Vec::new(),
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `span`. Any spans opened after it and still open are
    /// closed first (innermost-out), each on its own tick, so the tree
    /// stays properly nested even if a callee forgot an `end_span`.
    /// Closing an already-closed or unknown span is a no-op.
    pub fn end_span(&mut self, span: SpanId) {
        if !self.stack.contains(&span.0) {
            return;
        }
        while let Some(top) = self.stack.pop() {
            self.close(top);
            if top == span.0 {
                break;
            }
        }
    }

    /// Closes the innermost open span, if any. Lets code that did not
    /// open a span (a worker picking up a queued request) close it
    /// without carrying the [`SpanId`] across the handoff.
    pub fn end_top(&mut self) {
        if let Some(top) = self.stack.pop() {
            self.close(top);
        }
    }

    fn close(&mut self, id: u32) {
        let tick = self.next_tick();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_tick = tick;
            s.end_ns = monotonic_ns();
        }
    }

    /// Records an already-measured interval as a closed child of the
    /// innermost open span: open tick and close tick are consecutive,
    /// and the wall window is back-dated by `dur_ns` from now.
    pub fn record_span(&mut self, name: &str, dur_ns: u64) -> SpanId {
        let start_ns = monotonic_ns().saturating_sub(dur_ns);
        self.record_span_at(name, start_ns, dur_ns)
    }

    /// [`Trace::record_span`] with the wall window placed at `start_ns`
    /// (on the [`crate::monotonic_ns`] clock) rather than ending now. Used
    /// for phase accounting measured externally: the trainer lays an
    /// epoch's measured phases end to end this way.
    pub fn record_span_at(&mut self, name: &str, start_ns: u64, dur_ns: u64) -> SpanId {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_tick = self.next_tick();
        let end_tick = self.next_tick();
        self.spans.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_tick,
            end_tick,
            start_ns,
            end_ns: start_ns.saturating_add(dur_ns),
            fields: Vec::new(),
        });
        SpanId(id)
    }

    /// Attaches a key/value field to `span` (open or closed).
    pub fn add_field(&mut self, span: SpanId, key: &str, value: Value) {
        if let Some(s) = self.spans.get_mut(span.0 as usize) {
            s.fields.push((key.to_string(), value));
        }
    }

    /// Number of spans still open.
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    /// Closes any remaining open spans (innermost-out, one tick each)
    /// and freezes the trace into an immutable [`TraceData`].
    pub fn finish(mut self) -> TraceData {
        while let Some(top) = self.stack.pop() {
            self.close(top);
        }
        TraceData {
            trace_id: self.id,
            spans: self.spans,
        }
    }
}

/// A finished, immutable span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceData {
    /// Trace id (the serve replay uses the request index).
    pub trace_id: u64,
    /// Spans in open order; `spans[i].id == i`.
    pub spans: Vec<SpanRecord>,
}

impl TraceData {
    /// The root span (id 0), when the trace is non-empty.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.first()
    }

    /// Direct children of `parent`, in open order.
    pub fn children(&self, parent: u32) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .collect()
    }

    /// First span with the given name, in open order.
    pub fn span_named(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// Renders traces in Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load): one complete (`"ph": "X"`) event per span,
/// with the trace id as the `tid` so each request renders as its own
/// track. Timestamps are microseconds from the process monotonic
/// epoch; tick timestamps and span ids travel in `args`.
pub fn chrome_trace_json(traces: &[TraceData]) -> String {
    let events: Vec<Value> = traces
        .iter()
        .flat_map(|t| {
            t.spans.iter().map(|s| {
                let parent = match s.parent {
                    Some(p) => Value::Int(p as i64),
                    None => Value::Null,
                };
                Value::Object(vec![
                    ("name".to_string(), Value::Str(s.name.clone())),
                    ("cat".to_string(), Value::Str("scenerec".to_string())),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("ts".to_string(), Value::Float(s.start_ns as f64 / 1e3)),
                    (
                        "dur".to_string(),
                        Value::Float(s.duration_ns() as f64 / 1e3),
                    ),
                    ("pid".to_string(), Value::Int(1)),
                    ("tid".to_string(), Value::Int(t.trace_id as i64)),
                    (
                        "args".to_string(),
                        Value::Object(vec![
                            ("trace_id".to_string(), Value::Int(t.trace_id as i64)),
                            ("span_id".to_string(), Value::Int(s.id as i64)),
                            ("parent".to_string(), parent),
                            ("start_tick".to_string(), Value::Int(s.start_tick as i64)),
                            ("end_tick".to_string(), Value::Int(s.end_tick as i64)),
                            ("fields".to_string(), Value::Object(s.fields.clone())),
                        ]),
                    ),
                ])
            })
        })
        .collect();
    let doc = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::Str("ns".to_string())),
    ]);
    serde_json::to_string(&doc).unwrap_or_default()
}

/// Canonical text rendering of span *structure*: one line per span with
/// ids, parentage, names and ticks — everything deterministic — and
/// nothing wall-clock or field-valued. Two replays of the same request
/// log must produce byte-identical structure text regardless of worker
/// count.
pub fn structure_text(traces: &[TraceData]) -> String {
    let mut out = String::new();
    for t in traces {
        for s in &t.spans {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "trace={} span={} parent={} name={} ticks={}..{}\n",
                t.trace_id, s.id, parent, s.name, s.start_tick, s.end_tick
            ));
        }
    }
    out
}

/// FNV-1a hash of [`structure_text`] — a compact structure fingerprint
/// for cross-worker-count determinism assertions.
pub fn structure_digest(traces: &[TraceData]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in structure_text(traces).bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Wall time of every span sharing one name, across a set of traces:
/// one row of a run manifest's `timings`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SpanTiming {
    /// The span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of their wall durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of their self times, nanoseconds: each span's duration minus
    /// the union of its children's intervals (clipped to the span), so
    /// children that overlap — back-dated phase spans do — count once.
    pub self_ns: u64,
    /// Shortest duration, nanoseconds.
    pub min_ns: u64,
    /// Longest duration, nanoseconds.
    pub max_ns: u64,
}

/// Aggregates `traces` per span name — count, total, self, min and max
/// wall time — sorted by name.
pub fn timings(traces: &[TraceData]) -> Vec<SpanTiming> {
    let mut by_name: BTreeMap<&str, SpanTiming> = BTreeMap::new();
    for t in traces {
        // Each span's children's wall intervals, clipped to the span.
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); t.spans.len()];
        for s in &t.spans {
            let Some(p) = s.parent.map(|p| p as usize) else {
                continue;
            };
            let Some(parent) = t.spans.get(p) else {
                continue;
            };
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
        for (s, kids) in t.spans.iter().zip(children.iter_mut()) {
            let dur = s.duration_ns();
            let row = by_name.entry(&s.name).or_insert_with(|| SpanTiming {
                name: s.name.clone(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            });
            row.count += 1;
            row.total_ns = row.total_ns.saturating_add(dur);
            row.self_ns = row
                .self_ns
                .saturating_add(dur.saturating_sub(union_ns(kids)));
            row.min_ns = row.min_ns.min(dur);
            row.max_ns = row.max_ns.max(dur);
        }
    }
    by_name.into_values().collect()
}

/// Length of the union of `intervals` (sorted in place).
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut covered_to) = (0u64, 0u64);
    for &(lo, hi) in intervals.iter() {
        let lo = lo.max(covered_to);
        if hi > lo {
            total += hi - lo;
            covered_to = hi;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_with_consecutive_ticks() {
        let mut t = Trace::new(3);
        let root = t.start_span("serve.request");
        let q = t.start_span("serve.queue");
        t.end_span(q);
        let b = t.start_span("serve.batch");
        t.add_field(b, "hit", Value::Bool(false));
        t.end_span(b);
        t.end_span(root);
        let data = t.finish();
        assert_eq!(data.trace_id, 3);
        assert_eq!(data.spans.len(), 3);
        let root = data.root().unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(root.start_tick, 1);
        assert_eq!(root.end_tick, 6);
        let kids = data.children(0);
        assert_eq!(
            kids.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            vec!["serve.queue", "serve.batch"]
        );
        assert_eq!(kids[0].start_tick, 2);
        assert_eq!(kids[0].end_tick, 3);
        assert_eq!(kids[1].start_tick, 4);
        assert_eq!(kids[1].end_tick, 5);
        assert_eq!(
            data.span_named("serve.batch").unwrap().field("hit"),
            Some(&Value::Bool(false))
        );
    }

    #[test]
    fn end_span_closes_forgotten_children_first() {
        let mut t = Trace::new(0);
        let root = t.start_span("a");
        let _leak = t.start_span("a.b");
        t.end_span(root); // closes a.b (tick 3) then a (tick 4)
        let data = t.finish();
        assert_eq!(data.spans[1].end_tick, 3);
        assert_eq!(data.spans[0].end_tick, 4);
    }

    #[test]
    fn end_top_closes_innermost_and_double_close_is_noop() {
        let mut t = Trace::new(0);
        let root = t.start_span("a");
        t.start_span("a.b");
        t.end_top(); // a.b
        t.end_span(SpanId(1)); // already closed: no-op
        assert_eq!(t.open_spans(), 1);
        t.end_span(root);
        t.end_top(); // empty stack: no-op
        let data = t.finish();
        assert_eq!(data.spans[1].end_tick, 3);
        assert_eq!(data.spans[0].end_tick, 4);
    }

    #[test]
    fn record_span_backdates_and_uses_two_ticks() {
        let mut t = Trace::new(0);
        t.start_span("trainer.epoch");
        let s = t.record_span("trainer.forward", 1_000);
        // The placed variant puts the window where it is told to.
        let at = t.record_span_at("trainer.step", 5_000, 700);
        let data = t.finish();
        let rec = &data.spans[s.0 as usize];
        assert_eq!(rec.parent, Some(0));
        assert_eq!(rec.start_tick, 2);
        assert_eq!(rec.end_tick, 3);
        assert_eq!(rec.duration_ns(), 1_000);
        let rec = &data.spans[at.0 as usize];
        assert_eq!(rec.parent, Some(0));
        assert_eq!((rec.start_tick, rec.end_tick), (4, 5));
        assert_eq!((rec.start_ns, rec.end_ns), (5_000, 5_700));
    }

    #[test]
    fn finish_closes_open_spans() {
        let mut t = Trace::new(0);
        t.start_span("a");
        t.start_span("a.b");
        let data = t.finish();
        assert!(data.spans.iter().all(|s| s.end_tick > s.start_tick));
        assert_eq!(data.spans[1].end_tick, 3);
        assert_eq!(data.spans[0].end_tick, 4);
    }

    #[test]
    fn structure_text_ignores_wall_time_and_fields() {
        let build = |field: i64| {
            let mut t = Trace::new(9);
            let a = t.start_span("serve.request");
            t.add_field(a, "user", Value::Int(field));
            t.start_span("serve.cache");
            t.finish()
        };
        let x = build(1);
        let y = build(2);
        assert_eq!(
            structure_text(std::slice::from_ref(&x)),
            structure_text(std::slice::from_ref(&y))
        );
        assert_eq!(structure_digest(&[x]), structure_digest(&[y]));
    }

    #[test]
    fn structure_digest_detects_shape_changes() {
        let mut a = Trace::new(0);
        a.start_span("serve.request");
        let a = a.finish();
        let mut b = Trace::new(0);
        b.start_span("serve.request");
        b.start_span("serve.queue");
        let b = b.finish();
        assert_ne!(structure_digest(&[a]), structure_digest(&[b]));
    }

    /// A closed span with explicit wall times (ticks are irrelevant to
    /// [`timings`]).
    fn closed(id: u32, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_tick: 2 * id as u64 + 1,
            end_tick: 2 * id as u64 + 2,
            start_ns,
            end_ns,
            fields: Vec::new(),
        }
    }

    #[test]
    fn timings_aggregate_count_total_min_max() {
        // Back-dating subtracts from the monotonic clock, so let it pass
        // the longest duration first.
        while monotonic_ns() < 1_000 {}
        let mut t = Trace::new(0);
        t.record_span("test.agg", 100);
        t.record_span("test.agg", 300);
        let rows = timings(&[t.finish()]);
        assert_eq!(
            rows,
            vec![SpanTiming {
                name: "test.agg".to_string(),
                count: 2,
                total_ns: 400,
                self_ns: 400,
                min_ns: 100,
                max_ns: 300,
            }]
        );
    }

    #[test]
    fn timings_self_time_counts_overlapping_children_once() {
        // Two epochs of back-dated phase spans: each phase ends when its
        // epoch does, so fan-out, forward and backward overlap. In the
        // second epoch backward (summed over workers) outlasts the epoch
        // and is clipped to it.
        let trace = TraceData {
            trace_id: 0,
            spans: vec![
                closed(0, None, "trainer.train", 1_000, 4_000),
                closed(1, Some(0), "trainer.epoch", 1_000, 2_000),
                closed(2, Some(1), "trainer.sample", 1_100, 1_150),
                closed(3, Some(1), "trainer.fanout", 1_200, 2_000),
                closed(4, Some(1), "trainer.forward", 1_400, 2_000),
                closed(5, Some(1), "trainer.backward", 1_600, 2_000),
                closed(6, Some(0), "trainer.epoch", 3_000, 4_000),
                closed(7, Some(6), "trainer.backward", 2_500, 4_000),
            ],
        };
        let rows = timings(&[trace]);
        let row = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
        let epoch = row("trainer.epoch");
        assert_eq!((epoch.count, epoch.total_ns), (2, 2_000));
        // 1 000 − |[1 100, 1 150] ∪ [1 200, 2 000]| = 150, then 0.
        assert_eq!(epoch.self_ns, 150);
        assert_eq!((epoch.min_ns, epoch.max_ns), (1_000, 1_000));
        let backward = row("trainer.backward");
        assert_eq!(backward.total_ns, 400 + 1_500);
        assert_eq!(backward.self_ns, backward.total_ns, "leaves are all self");
        // The root's children cover [1 000, 2 000] and [3 000, 4 000].
        assert_eq!(row("trainer.train").self_ns, 1_000);
    }

    #[test]
    fn timings_aggregate_names_across_traces_sorted_by_name() {
        let request = |id: u64, merge: bool| {
            let mut spans = vec![
                closed(0, None, "serve.request", 0, 100),
                closed(1, Some(0), "serve.queue", 10, 40),
            ];
            if merge {
                spans.push(closed(2, Some(0), "serve.merge", 60, 70));
            }
            TraceData {
                trace_id: id,
                spans,
            }
        };
        let rows = timings(&[request(0, true), request(1, false)]);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["serve.merge", "serve.queue", "serve.request"]);
        let req = &rows[2];
        assert_eq!((req.count, req.total_ns), (2, 200));
        assert_eq!(req.self_ns, (100 - 30 - 10) + (100 - 30));
        assert_eq!(rows[1].count, 2);
        assert_eq!(rows[0].count, 1);
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_event_per_span() {
        let mut t = Trace::new(4);
        let r = t.start_span("serve.request");
        t.start_span("serve.queue");
        t.end_top();
        t.end_span(r);
        let data = t.finish();
        let json = chrome_trace_json(&[data]);
        let doc = serde_json::parse_value(&json).unwrap();
        let events = match &doc {
            Value::Object(o) => match &o.iter().find(|(k, _)| k == "traceEvents").unwrap().1 {
                Value::Array(a) => a.clone(),
                _ => panic!("traceEvents not an array"),
            },
            _ => panic!("not an object"),
        };
        assert_eq!(events.len(), 2);
        for ev in &events {
            let Value::Object(o) = ev else {
                panic!("event not an object")
            };
            let get = |k: &str| o.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
            assert_eq!(get("ph"), Some(Value::Str("X".to_string())));
            assert_eq!(get("tid"), Some(Value::Int(4)));
            assert!(matches!(get("args"), Some(Value::Object(_))));
        }
    }
}
