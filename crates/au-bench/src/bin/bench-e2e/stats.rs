//! Sample statistics and result rendering for the end-to-end benchmark.

use std::fmt::Write as _;

/// Samples below this count support no tail percentile at all.
const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The tail percentile a sample of `n` supports, with its 1-based nearest
/// rank: p99 once `n ≥ 1000`, otherwise the highest percentile that still
/// leaves at least ten samples beyond it; `None` when `n ≤ 10`. The rank is
/// computed in integers so rounding never leaves fewer than ten beyond.
fn tail_rank(n: usize) -> Option<(f64, usize)> {
    if n <= MIN_BEYOND {
        None
    } else if n >= 100 * MIN_BEYOND {
        Some((99.0, (99 * n).div_ceil(100)))
    } else {
        Some((100.0 * (n - MIN_BEYOND) as f64 / n as f64, n - MIN_BEYOND))
    }
}

/// Median and supported tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is: p99, or the highest one with ten samples
    /// beyond it; 0 when the sample is too small for any.
    pub tail_p: f64,
    /// Value at `tail_p`; the maximum when the sample supports no tail.
    pub tail: f64,
}

/// Summarizes a latency sample.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (tail_p, tail) = match tail_rank(v.len()) {
        Some((p, rank)) => (p, v[rank - 1]),
        None => (0.0, v.last().copied().unwrap_or(0.0)),
    };
    Summary {
        n: v.len(),
        p50: median(&v),
        tail_p,
        tail,
    }
}

/// A fixed-size uniform sample of a stream of latencies (Vitter's
/// algorithm R). Memory, and so the process's peak RSS, stays the same
/// however many units of work fit into a run.
#[derive(Debug, Clone)]
pub struct Reservoir {
    buf: Vec<f64>,
    seen: u64,
    rng: u64,
}

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir {
            buf: Vec::with_capacity(Reservoir::CAP),
            seen: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl Reservoir {
    /// Samples kept: enough for a p99 with over a thousand beyond it.
    pub const CAP: usize = 1 << 17;

    fn next_rand(&mut self) -> u64 {
        // xorshift64*
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Offers one value.
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.buf.len() < Reservoir::CAP {
            self.buf.push(v);
        } else {
            let j = self.next_rand() % self.seen;
            if let Ok(j) = usize::try_from(j) {
                if j < Reservoir::CAP {
                    self.buf[j] = v;
                }
            }
        }
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept sample.
    pub fn values(&self) -> &[f64] {
        &self.buf
    }

    /// Folds `other` in: the result samples both streams in proportion
    /// to how many values each saw.
    pub fn merge(&mut self, mut other: Reservoir) {
        let total = self.seen + other.seen;
        if self.buf.len() + other.buf.len() > Reservoir::CAP {
            let keep_other =
                (Reservoir::CAP as f64 * other.seen as f64 / total.max(1) as f64) as usize;
            let keep_self = Reservoir::CAP - keep_other;
            self.shuffle_truncate(keep_self);
            other.shuffle_truncate(keep_other);
        }
        self.buf.extend(other.buf);
        self.seen = total;
    }

    /// Keeps a uniformly chosen `n` of the kept values.
    fn shuffle_truncate(&mut self, n: usize) {
        let len = self.buf.len();
        for i in 0..n.min(len) {
            let j = i + (self.next_rand() % (len - i) as u64) as usize;
            self.buf.swap(i, j);
        }
        self.buf.truncate(n);
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    /// A metric from `n` samples.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// Appends `s` to `out` as a JSON string literal.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number (non-finite values, which JSON cannot
/// hold, become `null`).
pub fn push_json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Renders metrics as a JSON object of `{"value", "unit"}` entries, plus
/// each sample count `n` when `with_n` is set.
pub fn metrics_json(metrics: &[Metric], with_n: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, &m.name);
        out.push_str(":{\"value\":");
        push_json_num(&mut out, m.value);
        out.push_str(",\"unit\":");
        push_json_str(&mut out, m.unit);
        if with_n {
            let _ = write!(out, ",\"n\":{}", m.n);
        }
        out.push('}');
    }
    out.push('}');
    out
}
