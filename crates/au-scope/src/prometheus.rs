//! Prometheus text exposition (format version 0.0.4) over the recorder.
//!
//! Naming: dotted recorder names map to underscores (`au_core.predict` →
//! `au_core_predict`), counters gain the conventional `_total` suffix, and
//! latency histograms — recorded in nanoseconds — are exported in seconds
//! with a `_seconds` suffix and cumulative `le` buckets, so standard
//! `histogram_quantile` queries work unchanged.

use crate::Plane;
use au_telemetry::{bucket_upper_bound, HistogramSnapshot, BUCKETS};
use std::fmt::Write as _;

/// Maps a dotted recorder name to a Prometheus-legal metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, everything else becomes `_`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Escapes a label value (backslash, quote, newline per the exposition
/// format). Only engine-level series carry labels today.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn write_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let metric = format!("{}_seconds", sanitize(name));
    let _ = writeln!(out, "# TYPE {metric} histogram");
    // Trailing empty buckets carry no information beyond +Inf; stop at the
    // last occupied one to keep scrapes compact.
    let last = h
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .map_or(0, |i| (i + 1).min(BUCKETS - 1));
    let mut cumulative = 0u64;
    for (i, &count) in h.buckets.iter().enumerate().take(last + 1) {
        cumulative += count;
        let le = bucket_upper_bound(i);
        if le == u64::MAX {
            break; // the clamp bucket is the +Inf bucket below
        }
        let le_s = le as f64 / 1e9;
        let _ = writeln!(out, "{metric}_bucket{{le=\"{le_s}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{metric}_sum {}", h.sum as f64 / 1e9);
    let _ = writeln!(out, "{metric}_count {}", h.count);
}

/// Renders the full exposition: every recorder metric plus plane- and
/// engine-level series computed at scrape time.
pub(crate) fn render(plane: &Plane) -> String {
    let rec = plane.recorder;
    let mut out = String::with_capacity(4096);

    for (name, v) in rec.counters() {
        let metric = format!("{}_total", sanitize(&name));
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {v}");
    }
    for (name, v) in rec.gauges() {
        let metric = sanitize(&name);
        let _ = writeln!(out, "# TYPE {metric} gauge");
        let _ = writeln!(out, "{metric} {v}");
    }
    for (name, h) in rec.histograms() {
        write_histogram(&mut out, &name, &h);
    }

    // Plane/recorder meta series.
    let _ = writeln!(out, "# TYPE au_scope_uptime_seconds gauge");
    let _ = writeln!(
        out,
        "au_scope_uptime_seconds {}",
        plane.started.elapsed().as_secs_f64()
    );
    for (metric, v) in [
        ("au_telemetry_spans_total", rec.span_count() as u64),
        ("au_telemetry_events_total", rec.event_count() as u64),
        ("au_telemetry_alerts_total", rec.alert_count()),
        ("au_telemetry_dropped_total", rec.dropped()),
    ] {
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {v}");
    }

    if let Some(engine) = &plane.engine {
        let mode = match engine.mode() {
            au_core::Mode::Train => 0,
            au_core::Mode::Test => 1,
        };
        let _ = writeln!(out, "# TYPE au_engine_mode gauge");
        let _ = writeln!(out, "au_engine_mode {mode}");
        let _ = writeln!(out, "# TYPE au_engine_models gauge");
        let _ = writeln!(out, "au_engine_models {}", engine.model_names().len());
        let reports = engine.monitor_reports();
        let _ = writeln!(out, "# TYPE au_engine_degraded_models gauge");
        let _ = writeln!(
            out,
            "au_engine_degraded_models {}",
            reports.iter().filter(|(_, r)| r.degraded).count()
        );
        if !reports.is_empty() {
            let _ = writeln!(out, "# TYPE au_monitor_observations_total counter");
            let _ = writeln!(out, "# TYPE au_monitor_rolling_mae gauge");
            let _ = writeln!(out, "# TYPE au_monitor_drift_score gauge");
            let _ = writeln!(out, "# TYPE au_monitor_flight_records gauge");
            let _ = writeln!(out, "# TYPE au_monitor_degraded gauge");
            for (model, r) in &reports {
                let m = escape_label(model);
                let _ = writeln!(
                    out,
                    "au_monitor_observations_total{{model=\"{m}\"}} {}",
                    r.observations
                );
                if let Some(mae) = r.rolling_mae {
                    let _ = writeln!(out, "au_monitor_rolling_mae{{model=\"{m}\"}} {mae}");
                }
                if let Some(drift) = r.drift_score {
                    let _ = writeln!(out, "au_monitor_drift_score{{model=\"{m}\"}} {drift}");
                }
                let _ = writeln!(
                    out,
                    "au_monitor_flight_records{{model=\"{m}\"}} {}",
                    r.flight_records
                );
                let _ = writeln!(
                    out,
                    "au_monitor_degraded{{model=\"{m}\"}} {}",
                    u8::from(r.degraded)
                );
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_sanitize_to_legal_metric_names() {
        assert_eq!(sanitize("au_core.predict"), "au_core_predict");
        assert_eq!(sanitize("au_nn.gemm"), "au_nn_gemm");
        assert_eq!(sanitize("weird name-1"), "weird_name_1");
        assert_eq!(sanitize("9lives"), "_lives");
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_bounded() {
        let rec = au_telemetry::Recorder::new();
        let h = rec.histogram("t");
        h.record(10);
        h.record(1_000);
        h.record(1_000);
        let mut out = String::new();
        write_histogram(&mut out, "t", &h.snapshot());
        assert!(out.contains("# TYPE t_seconds histogram"), "{out}");
        assert!(out.contains("t_seconds_bucket{le=\"+Inf\"} 3"), "{out}");
        assert!(out.contains("t_seconds_count 3"), "{out}");
        // Cumulative counts never decrease.
        let counts: Vec<u64> = out
            .lines()
            .filter(|l| l.contains("_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }
}
