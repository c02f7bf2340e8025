//! au-prof: continuous profiling over au-telemetry's causal spans.
//!
//! The recorder already captures every completed span with its
//! `trace_id`/`span_id`/`parent_id` ancestry; this crate folds that stream
//! into the three artifacts a profiler owes its operator:
//!
//! 1. **Self-time attribution** — per-span-name call counts plus
//!    *inclusive* (wall time of the span) and *exclusive* (wall time not
//!    covered by child spans) totals, computed incrementally as traces
//!    complete ([`Profiler::poll`]).
//! 2. **Collapsed stacks** — `root;child;leaf N` lines
//!    ([`Profile::collapsed`]), the interchange format every flamegraph
//!    tool reads.
//! 3. **Flamegraphs** — a self-contained SVG rendering
//!    ([`Profile::flamegraph_svg`]) with hover tooltips, no JavaScript, no
//!    external assets; au-scope serves it at `/flamegraph`.
//!
//! # The self-time model
//!
//! Exclusive time is *signed*: `exclusive = dur − Σ(direct children dur)`.
//! When a parent's children run concurrently, the sum of their wall
//! durations can exceed the parent's own wall duration — the parent then
//! carries a *negative* exclusive time whose magnitude is the overlap. Keeping the sign (instead of clamping at zero)
//! makes the accounting telescope exactly: for every completed trace,
//!
//! ```text
//! Σ exclusive(span) over the trace == inclusive(root)   (integer-exact)
//! ```
//!
//! because each non-root span's duration is subtracted from exactly one
//! parent and added back once as its own term. Collapsed stacks and the
//! flamegraph clamp negatives to zero at *render* time (a flame box cannot
//! have negative width), which is why the SVG is a view and the signed
//! table is the ground truth.
//!
//! # Incrementality and ordering
//!
//! Spans are recorded when their guard drops, so a child always lands in
//! the recorder buffer before its parent (spans nest per thread — see
//! docs/observability.md). The
//! profiler exploits that: spans accumulate per-trace until the trace root
//! (`parent_id == 0`) arrives, at which point the whole tree is folded in
//! one pass and the per-trace buffer is freed. Unclosed traces are bounded
//! by [`MAX_PENDING_SPANS`]; beyond it the largest pending trace is
//! dropped and counted in [`Profile::dropped_spans`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flame;

use au_telemetry::{Recorder, SpanRecord};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Upper bound on spans buffered for traces whose root has not closed yet.
/// Beyond it the largest pending trace is evicted (and counted as dropped)
/// so a never-closing root cannot grow the profiler without bound.
pub const MAX_PENDING_SPANS: usize = 65_536;

/// How many completed traces [`Profile::recent_traces`] retains.
pub const RECENT_TRACES: usize = 512;

/// Aggregated timing for one span name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NameStat {
    /// Number of completed spans with this name.
    pub calls: u64,
    /// Total wall time, counting only spans with no same-name ancestor so
    /// recursive nests are not double-counted.
    pub inclusive_ns: u64,
    /// Total self time: `Σ (dur − Σ children dur)`. Negative at fork
    /// points whose children overlap in wall time (see crate docs).
    pub exclusive_ns: i64,
    /// Shortest single span of this name.
    pub min_ns: u64,
    /// Longest single span of this name.
    pub max_ns: u64,
}

/// Exclusive-time total for one ancestry path (`root;child;leaf`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StackStat {
    /// Signed exclusive nanoseconds attributed to this exact path.
    pub exclusive_ns: i64,
    /// Completed spans folded into this path.
    pub count: u64,
}

/// Per-trace totals kept for the most recent [`RECENT_TRACES`] traces —
/// the evidence that the telescoping identity holds on live data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceTotal {
    /// The trace id.
    pub trace_id: u64,
    /// Name of the root span.
    pub root: String,
    /// Wall duration of the root span.
    pub inclusive_ns: u64,
    /// Sum of signed exclusive times over every span in the trace;
    /// always equals `inclusive_ns` (integer-exact).
    pub exclusive_sum_ns: i64,
    /// Spans folded for this trace.
    pub spans: u64,
}

/// The folded aggregate: everything [`Profiler`] has attributed so far.
#[derive(Debug, Default)]
pub struct Profile {
    names: BTreeMap<String, NameStat>,
    stacks: BTreeMap<String, StackStat>,
    recent: VecDeque<TraceTotal>,
    traces: u64,
    spans: u64,
    dropped_spans: u64,
}

impl Profile {
    /// Per-name aggregates, sorted by name.
    pub fn names(&self) -> &BTreeMap<String, NameStat> {
        &self.names
    }

    /// Per-ancestry-path exclusive totals, sorted by path.
    pub fn stacks(&self) -> &BTreeMap<String, StackStat> {
        &self.stacks
    }

    /// The most recent completed traces, oldest first.
    pub fn recent_traces(&self) -> impl Iterator<Item = &TraceTotal> {
        self.recent.iter()
    }

    /// Completed traces folded so far.
    pub fn traces(&self) -> u64 {
        self.traces
    }

    /// Spans folded so far (excludes dropped ones).
    pub fn spans(&self) -> u64 {
        self.spans
    }

    /// Spans discarded because their trace outgrew [`MAX_PENDING_SPANS`]
    /// before its root closed.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// Collapsed-stack export: one `path count` line per ancestry path in
    /// path order, exclusive time clamped at zero (the interchange format
    /// of `flamegraph.pl` and friends, counts in nanoseconds).
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (path, stat) in &self.stacks {
            out.push_str(path);
            out.push(' ');
            out.push_str(&stat.exclusive_ns.max(0).to_string());
            out.push('\n');
        }
        out
    }

    /// Renders the profile as a self-contained SVG flamegraph (icicle
    /// layout, hover tooltips via `<title>`, no scripts). Deterministic
    /// for a given profile.
    pub fn flamegraph_svg(&self) -> String {
        flame::render(self)
    }

    /// Folds one *complete* trace (root plus all descendants).
    fn fold_trace(&mut self, spans: &[SpanRecord]) {
        let Some(root_pos) = spans.iter().position(|s| s.parent_id == 0) else {
            return;
        };
        let root_id = spans[root_pos].span_id;

        // Direct-children index and per-parent duration sums. A span whose
        // recorded parent is missing from the trace (a non-scoped thread
        // that outlived its parent span) is re-parented under the root so
        // the telescoping identity still holds.
        let mut known: HashMap<u64, usize> = HashMap::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            known.insert(s.span_id, i);
        }
        let effective_parent = |s: &SpanRecord| -> u64 {
            if s.parent_id != 0 && !known.contains_key(&s.parent_id) {
                root_id
            } else {
                s.parent_id
            }
        };
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut child_dur: HashMap<u64, u64> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.span_id == root_id {
                continue;
            }
            let p = effective_parent(s);
            children.entry(p).or_default().push(i);
            *child_dur.entry(p).or_default() += s.dur_ns;
        }

        // Depth-first walk from the root, maintaining the ancestry path
        // (for stack keys) and a same-name occupancy map (for
        // recursion-safe inclusive totals).
        enum Step {
            Enter(usize),
            Exit(usize),
        }
        let mut agenda = vec![Step::Enter(root_pos)];
        let mut path = String::new();
        let mut path_lens: Vec<usize> = Vec::new();
        let mut on_path: HashMap<String, u32> = HashMap::new();
        let mut exclusive_sum: i64 = 0;
        let mut folded: u64 = 0;

        while let Some(step) = agenda.pop() {
            match step {
                Step::Enter(i) => {
                    let s = &spans[i];
                    let kids = child_dur.get(&s.span_id).copied().unwrap_or(0);
                    let exclusive = s.dur_ns as i64 - kids as i64;
                    exclusive_sum += exclusive;
                    folded += 1;

                    let first_of_name = !on_path.contains_key(&s.name);
                    let stat = self.names.entry(s.name.clone()).or_default();
                    if stat.calls == 0 {
                        stat.min_ns = u64::MAX;
                    }
                    stat.calls += 1;
                    stat.exclusive_ns += exclusive;
                    stat.min_ns = stat.min_ns.min(s.dur_ns);
                    stat.max_ns = stat.max_ns.max(s.dur_ns);
                    if first_of_name {
                        stat.inclusive_ns += s.dur_ns;
                    }

                    path_lens.push(path.len());
                    if !path.is_empty() {
                        path.push(';');
                    }
                    path.push_str(&s.name);
                    *on_path.entry(s.name.clone()).or_insert(0) += 1;
                    let sstat = self.stacks.entry(path.clone()).or_default();
                    sstat.exclusive_ns += exclusive;
                    sstat.count += 1;

                    agenda.push(Step::Exit(i));
                    if let Some(kids) = children.get(&s.span_id) {
                        // Reverse so arrival order is preserved on the
                        // LIFO agenda (cosmetic: stack keys are sorted
                        // anyway, but recent-trace walks stay intuitive).
                        for &c in kids.iter().rev() {
                            agenda.push(Step::Enter(c));
                        }
                    }
                }
                Step::Exit(i) => {
                    let s = &spans[i];
                    path.truncate(path_lens.pop().unwrap_or(0));
                    if let Some(n) = on_path.get_mut(&s.name) {
                        *n -= 1;
                        if *n == 0 {
                            on_path.remove(&s.name);
                        }
                    }
                }
            }
        }

        self.traces += 1;
        self.spans += folded;
        self.recent.push_back(TraceTotal {
            trace_id: spans[root_pos].trace_id,
            root: spans[root_pos].name.clone(),
            inclusive_ns: spans[root_pos].dur_ns,
            exclusive_sum_ns: exclusive_sum,
            spans: folded,
        });
        while self.recent.len() > RECENT_TRACES {
            self.recent.pop_front();
        }
    }
}

/// Incremental folder over a [`Recorder`]'s span stream.
///
/// Call [`Profiler::poll`] whenever fresh attribution is wanted (au-scope
/// does so on each `/profile.json` or `/flamegraph` request); between
/// polls the profiler holds no locks and costs nothing — the hot path
/// never knows it exists.
#[derive(Debug, Default)]
pub struct Profiler {
    epoch: u64,
    span_off: usize,
    pending: HashMap<u64, Vec<SpanRecord>>,
    pending_count: usize,
    profile: Profile,
}

impl Profiler {
    /// A fresh profiler with an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// The aggregate folded so far.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Spans currently buffered for traces whose root has not closed.
    pub fn pending_spans(&self) -> usize {
        self.pending_count
    }

    /// Drains every span recorded since the previous poll and folds all
    /// traces that completed. Returns the number of spans consumed.
    ///
    /// A [`Recorder::reset`] between polls (detected via
    /// [`Recorder::reset_epoch`]) discards the profile and pending state —
    /// offsets from before the reset no longer address the same stream.
    pub fn poll(&mut self, rec: &Recorder) -> usize {
        let epoch = rec.reset_epoch();
        if epoch != self.epoch {
            self.epoch = epoch;
            self.span_off = 0;
            self.pending.clear();
            self.pending_count = 0;
            self.profile = Profile::default();
        }
        let from = self.span_off;
        let consumed = rec.tap_spans_since(from, |spans| {
            for s in spans {
                self.ingest(s);
            }
            spans.len()
        });
        self.span_off += consumed;
        consumed
    }

    /// Feeds one completed span in recording order. Exposed for tests and
    /// offline folding of exported span dumps; [`Profiler::poll`] is the
    /// live path.
    pub fn ingest(&mut self, s: &SpanRecord) {
        let trace = s.trace_id;
        let is_root = s.parent_id == 0;
        self.pending.entry(trace).or_default().push(s.clone());
        self.pending_count += 1;
        if is_root {
            if let Some(spans) = self.pending.remove(&trace) {
                self.pending_count -= spans.len();
                self.profile.fold_trace(&spans);
            }
        } else if self.pending_count > MAX_PENDING_SPANS {
            self.evict_largest_pending();
        }
    }

    /// Drops the largest pending trace (ties broken by trace id, so
    /// eviction is deterministic) and counts its spans as dropped.
    fn evict_largest_pending(&mut self) {
        let victim = self
            .pending
            .iter()
            .max_by_key(|(id, spans)| (spans.len(), **id))
            .map(|(id, _)| *id);
        if let Some(id) = victim {
            if let Some(spans) = self.pending.remove(&id) {
                self.pending_count -= spans.len();
                self.profile.dropped_spans += spans.len() as u64;
            }
        }
    }
}

/// One-shot fold of an already-collected span list (e.g. a JSONL export):
/// equivalent to feeding every span through [`Profiler::ingest`] and
/// taking the profile. Traces without a closed root are ignored.
pub fn profile_spans<'a>(spans: impl IntoIterator<Item = &'a SpanRecord>) -> Profile {
    let mut p = Profiler::new();
    for s in spans {
        p.ingest(s);
    }
    p.profile
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, dur_ns: u64, trace_id: u64, span_id: u64, parent_id: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_owned(),
            args: Vec::new(),
            start_ns: 0,
            dur_ns,
            tid: 1,
            depth: 0,
            trace_id,
            span_id,
            parent_id,
        }
    }

    /// root(100) -> a(60) -> b(10); a also has sibling leaf c(25).
    /// Children close before parents, so recording order is leaf-first.
    fn linear_trace() -> Vec<SpanRecord> {
        vec![
            span("b", 10, 1, 3, 2),
            span("a", 60, 1, 2, 1),
            span("c", 25, 1, 4, 1),
            span("root", 100, 1, 1, 0),
        ]
    }

    #[test]
    fn exclusive_times_telescope_to_root_inclusive() {
        let p = profile_spans(&linear_trace());
        assert_eq!(p.traces(), 1);
        assert_eq!(p.spans(), 4);
        let t = p.recent_traces().next().expect("one trace");
        assert_eq!(t.root, "root");
        assert_eq!(t.inclusive_ns, 100);
        assert_eq!(t.exclusive_sum_ns, 100);
        // root self = 100 - (60 + 25) = 15; a = 60 - 10 = 50.
        assert_eq!(p.names()["root"].exclusive_ns, 15);
        assert_eq!(p.names()["a"].exclusive_ns, 50);
        assert_eq!(p.names()["b"].exclusive_ns, 10);
        assert_eq!(p.names()["c"].exclusive_ns, 25);
        assert_eq!(p.names()["a"].inclusive_ns, 60);
        assert_eq!(p.names()["root"].inclusive_ns, 100);
    }

    #[test]
    fn parallel_overlap_goes_negative_but_identity_holds() {
        // fork(50) with 4 workers of 30ns each: children sum to 120 > 50.
        let spans = vec![
            span("w", 30, 7, 12, 11),
            span("w", 30, 7, 13, 11),
            span("w", 30, 7, 14, 11),
            span("w", 30, 7, 15, 11),
            span("fork", 50, 7, 11, 0),
        ];
        let p = profile_spans(&spans);
        assert_eq!(p.names()["fork"].exclusive_ns, 50 - 120);
        assert_eq!(p.names()["w"].exclusive_ns, 120);
        let t = p.recent_traces().next().unwrap();
        assert_eq!(t.exclusive_sum_ns, t.inclusive_ns as i64);
        // Clamped at render: the fork contributes a zero-width box, not a
        // negative one.
        assert!(p.collapsed().contains("fork 0\n"), "{}", p.collapsed());
        assert!(p.collapsed().contains("fork;w 120\n"), "{}", p.collapsed());
    }

    #[test]
    fn recursion_counts_inclusive_once() {
        // r(100) -> r(60) -> r(20): one logical call tree of name "r".
        let spans = vec![
            span("r", 20, 3, 33, 32),
            span("r", 60, 3, 32, 31),
            span("r", 100, 3, 31, 0),
        ];
        let p = profile_spans(&spans);
        let r = &p.names()["r"];
        assert_eq!(r.calls, 3);
        assert_eq!(r.inclusive_ns, 100, "outermost frame only");
        assert_eq!(r.exclusive_ns, 100);
        assert_eq!(p.stacks()["r;r;r"].exclusive_ns, 20);
    }

    #[test]
    fn orphan_parents_reattach_under_root() {
        // Span 99's parent 42 never closed in this trace; it must fold
        // under the root rather than vanish, keeping the identity exact.
        let spans = vec![span("stray", 10, 5, 99, 42), span("root", 30, 5, 50, 0)];
        let p = profile_spans(&spans);
        let t = p.recent_traces().next().unwrap();
        assert_eq!(t.spans, 2);
        assert_eq!(t.exclusive_sum_ns, 30);
        assert_eq!(p.stacks()["root;stray"].count, 1);
    }

    #[test]
    fn incremental_poll_matches_one_shot() {
        let rec = Recorder::new();
        rec.enable();
        {
            let _root = rec.span("outer");
            let _inner = rec.span("inner");
        }
        {
            let _root = rec.span("outer");
        }
        let mut prof = Profiler::new();
        // Poll twice; the second poll must consume nothing new.
        let first = prof.poll(&rec);
        assert_eq!(first, 3);
        assert_eq!(prof.poll(&rec), 0);
        assert_eq!(prof.profile().traces(), 2);
        let one_shot = profile_spans(rec.spans().iter());
        assert_eq!(prof.profile().names(), one_shot.names());
        assert_eq!(prof.profile().stacks(), one_shot.stacks());
        for t in prof.profile().recent_traces() {
            assert_eq!(t.exclusive_sum_ns, t.inclusive_ns as i64, "{t:?}");
        }
    }

    #[test]
    fn recorder_reset_discards_stale_offsets() {
        let rec = Recorder::new();
        rec.enable();
        {
            let _s = rec.span("before");
        }
        let mut prof = Profiler::new();
        prof.poll(&rec);
        assert_eq!(prof.profile().traces(), 1);
        rec.reset();
        {
            let _s = rec.span("after");
        }
        prof.poll(&rec);
        assert_eq!(prof.profile().traces(), 1, "profile restarted at reset");
        assert!(prof.profile().names().contains_key("after"));
        assert!(!prof.profile().names().contains_key("before"));
    }

    #[test]
    fn pending_overflow_evicts_and_counts_drops() {
        let mut prof = Profiler::new();
        // One giant trace that never closes its root...
        for i in 0..MAX_PENDING_SPANS {
            prof.ingest(&span("leak", 1, 1, 10 + i as u64, 2));
        }
        // ...plus one more span from a small healthy trace tips it over.
        prof.ingest(&span("ok_child", 1, 2, 1_000_000, 1_000_001));
        assert!(prof.pending_spans() <= MAX_PENDING_SPANS);
        assert_eq!(prof.profile().dropped_spans(), MAX_PENDING_SPANS as u64);
        // The healthy trace still completes.
        prof.ingest(&span("ok_root", 2, 2, 1_000_001, 0));
        assert_eq!(prof.profile().traces(), 1);
        assert_eq!(prof.profile().names()["ok_root"].calls, 1);
    }

    #[test]
    fn collapsed_lines_are_sorted_and_parseable() {
        let p = profile_spans(&linear_trace());
        let collapsed = p.collapsed();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(
            lines,
            vec!["root 15", "root;a 50", "root;a;b 10", "root;c 25"]
        );
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn flamegraph_svg_is_self_contained() {
        let p = profile_spans(&linear_trace());
        let svg = p.flamegraph_svg();
        assert!(svg.starts_with("<svg"), "{}", &svg[..60.min(svg.len())]);
        assert!(svg.ends_with("</svg>\n"));
        for name in ["root", "a", "b", "c"] {
            assert!(svg.contains(&format!("<title>{name}")), "missing {name}");
        }
        assert!(!svg.contains("<script"), "no scripts in the SVG");
        // Deterministic render.
        assert_eq!(svg, p.flamegraph_svg());
    }

    #[test]
    fn empty_profile_renders() {
        let p = Profile::default();
        assert_eq!(p.collapsed(), "");
        let svg = p.flamegraph_svg();
        assert!(svg.starts_with("<svg"));
    }
}
