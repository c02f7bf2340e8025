//! The traced run's per-layer ledger.
//!
//! The benchmark wraps every layer call it makes in an au-telemetry span
//! named after the per-layer metric; the crates' own spans (`au_nn`,
//! `aulang_vm_run`, …) nest under them through the inherited trace
//! context, and au-par workers inherit it across threads. The recorder
//! keeps at most `MAX_RECORDS` spans, so the ledger drains it between
//! units of work — folding spans, counters and histograms into running
//! totals — and resets it. Spans still lost to the cap are counted and
//! reported as `bench.dropped_spans`.

use crate::stats::{push_json_num, push_json_str, summarize};
use au_telemetry::SpanRecord;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Drain once this many spans are buffered: far below `MAX_RECORDS`, so
/// even the largest unit of work fits between two drains.
const DRAIN_AT: usize = 16 * 1024;

/// Per-name span aggregate.
#[derive(Debug, Default)]
pub struct SpanAgg {
    /// Inclusive durations, ns, in completion order.
    pub durs_ns: Vec<u64>,
    /// Self times (duration minus the part children cover), ns.
    pub selfs_ns: Vec<u64>,
}

impl SpanAgg {
    /// Median inclusive duration, ns.
    pub fn median_ns(&self) -> f64 {
        crate::stats::median(&to_f64(&self.durs_ns))
    }

    /// Median self time, ns.
    pub fn median_self_ns(&self) -> f64 {
        crate::stats::median(&to_f64(&self.selfs_ns))
    }

    /// Total inclusive duration, ns.
    pub fn total_ns(&self) -> u64 {
        self.durs_ns.iter().sum()
    }

    /// Total self time, ns.
    pub fn self_total_ns(&self) -> u64 {
        self.selfs_ns.iter().sum()
    }
}

fn to_f64(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}

/// Self time of every span in `spans`: its duration minus the union of
/// its direct children's intervals, clipped to its own. Children whose
/// parent is not in the slice count toward nothing. Over a tree whose
/// siblings run one after another, the self times sum to the root's
/// inclusive duration.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.span_id, i))
        .collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent_id) {
            children[p].push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            let (lo, hi) = (s.start_ns, s.start_ns + s.dur_ns);
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = lo;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns - covered.min(s.dur_ns)
        })
        .collect()
}

/// Running totals of everything the recorder saw during a traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    by_name: BTreeMap<String, SpanAgg>,
    /// Spans keyed `parent>child`, to attribute a crate span to the
    /// benchmark call it ran under.
    by_edge: BTreeMap<String, SpanAgg>,
    counters: BTreeMap<String, u64>,
    /// Histogram `(count, sum_ns)` totals.
    hists: BTreeMap<String, (u64, u64)>,
    dropped: u64,
    /// Where to write the first drained batch as a Chrome trace.
    chrome: Option<PathBuf>,
    chrome_error: Option<String>,
}

impl Ledger {
    /// Writes the next drained batch of spans as a Chrome trace to `path`.
    pub fn write_chrome_next(&mut self, path: PathBuf) {
        self.chrome = Some(path);
    }

    /// Drains the recorder when its span buffer is getting full. Call only
    /// between units of work, when no span is open, so a parent is never
    /// folded in a later batch than its children.
    pub fn maybe_drain(&mut self) {
        if au_telemetry::global().span_count() >= DRAIN_AT {
            self.drain();
        }
    }

    /// Folds every recorded span, counter and histogram into the ledger
    /// and resets the recorder. Same precondition as
    /// [`Ledger::maybe_drain`].
    pub fn drain(&mut self) {
        let rec = au_telemetry::global();
        if let Some(path) = self.chrome.take() {
            let written = std::fs::File::create(&path).and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                rec.write_chrome_trace(&mut w)?;
                std::io::Write::flush(&mut w)
            });
            if let Err(e) = written {
                self.chrome_error = Some(format!("{}: {e}", path.display()));
            }
        }
        rec.tap_spans_since(0, |spans| self.fold(spans));
        for (name, v) in rec.counters() {
            *self.counters.entry(name).or_default() += v;
        }
        for (name, h) in rec.histograms() {
            let e = self.hists.entry(name).or_default();
            e.0 += h.count;
            e.1 += h.sum;
        }
        self.dropped += rec.dropped();
        rec.reset();
    }

    fn fold(&mut self, spans: &[SpanRecord]) {
        let selfs = self_times(spans);
        let names: HashMap<u64, &str> =
            spans.iter().map(|s| (s.span_id, s.name.as_str())).collect();
        for (s, self_ns) in spans.iter().zip(selfs) {
            let agg = self.by_name.entry(s.name.clone()).or_default();
            agg.durs_ns.push(s.dur_ns);
            agg.selfs_ns.push(self_ns);
            if let Some(parent) = names.get(&s.parent_id) {
                let agg = self
                    .by_edge
                    .entry(format!("{parent}>{}", s.name))
                    .or_default();
                agg.durs_ns.push(s.dur_ns);
                agg.selfs_ns.push(self_ns);
            }
        }
    }

    /// Spans named `name` seen so far.
    pub fn span(&self, name: &str) -> Option<&SpanAgg> {
        self.by_name.get(name)
    }

    /// Spans named `child` that ran directly under a `parent` span.
    pub fn edge(&self, parent: &str, child: &str) -> Option<&SpanAgg> {
        self.by_edge.get(&format!("{parent}>{child}"))
    }

    /// Accumulated value of a crate counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Accumulated `(count, sum_ns)` of a crate latency histogram.
    pub fn hist(&self, name: &str) -> (u64, u64) {
        self.hists.get(name).copied().unwrap_or((0, 0))
    }

    /// Spans the recorder dropped at its cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Why the Chrome trace could not be written, if it could not.
    pub fn chrome_error(&self) -> Option<&str> {
        self.chrome_error.as_deref()
    }

    /// Every span name and `parent>child` edge with count, median, tail,
    /// total and self total in milliseconds, plus counters and histogram
    /// totals, as a JSON object body (no braces).
    pub fn to_json_fields(&self) -> String {
        let mut out = String::new();
        for (key, map) in [("spans", &self.by_name), ("edges", &self.by_edge)] {
            push_json_str(&mut out, key);
            out.push_str(":{");
            for (i, (name, agg)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let ms: Vec<f64> = agg.durs_ns.iter().map(|&d| d as f64 / 1e6).collect();
                let s = summarize(&ms);
                push_json_str(&mut out, name);
                let _ = write!(out, ":{{\"count\":{},\"median_ms\":", s.n);
                push_json_num(&mut out, s.p50);
                let _ = write!(out, ",\"tail_p\":");
                push_json_num(&mut out, s.tail_p);
                out.push_str(",\"tail_ms\":");
                push_json_num(&mut out, s.tail);
                out.push_str(",\"total_ms\":");
                push_json_num(&mut out, agg.total_ns() as f64 / 1e6);
                out.push_str(",\"self_ms\":");
                push_json_num(&mut out, agg.self_total_ns() as f64 / 1e6);
                out.push('}');
            }
            out.push_str("},");
        }
        out.push_str("\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, (count, sum))) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            let _ = write!(out, ":{{\"count\":{count},\"total_ms\":");
            push_json_num(&mut out, *sum as f64 / 1e6);
            out.push('}');
        }
        let _ = write!(out, "}},\"dropped_spans\":{}", self.dropped);
        out
    }
}
