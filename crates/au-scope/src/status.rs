//! `/health` and `/snapshot.json`: JSON views of the plane.
//!
//! `/health` is the small, cheap endpoint a load balancer or smoke test
//! polls; `/snapshot.json` is the full dump the dashboard fetches once at
//! load before tailing `/events`.

use crate::json::{push_f64, push_key, push_str};
use crate::Plane;
use std::fmt::Write as _;

/// Renders the `/health` payload: plane liveness plus (with an engine
/// attached) mode, registered models and the degraded set.
pub(crate) fn health_json(plane: &Plane) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    push_key(&mut out, "status");
    push_str(&mut out, "ok");
    out.push(',');
    push_key(&mut out, "uptime_seconds");
    push_f64(&mut out, plane.started.elapsed().as_secs_f64());
    out.push(',');
    push_key(&mut out, "recorder_enabled");
    out.push_str(if plane.recorder.is_enabled() {
        "true"
    } else {
        "false"
    });
    out.push(',');
    push_key(&mut out, "spans");
    let _ = write!(out, "{}", plane.recorder.span_count());
    out.push(',');
    push_key(&mut out, "events");
    let _ = write!(out, "{}", plane.recorder.event_count());
    out.push(',');
    push_key(&mut out, "alerts");
    let _ = write!(out, "{}", plane.recorder.alert_count());
    append_engine_health(&mut out, plane);
    out.push('}');
    out
}

fn append_engine_health(out: &mut String, plane: &Plane) {
    let Some(engine) = &plane.engine else {
        out.push(',');
        push_key(out, "engine");
        out.push_str("null");
        return;
    };
    out.push(',');
    push_key(out, "engine");
    out.push('{');
    push_key(out, "mode");
    push_str(
        out,
        match engine.mode() {
            au_core::Mode::Train => "TR",
            au_core::Mode::Test => "TS",
        },
    );
    out.push(',');
    push_key(out, "models");
    push_str_list(out, &engine.model_names());
    out.push(',');
    push_key(out, "degraded");
    push_str_list(out, &engine.degraded_models());
    out.push('}');
}

fn push_str_list(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str(out, s);
    }
    out.push(']');
}

/// Renders the `/snapshot.json` payload: every counter, gauge, and
/// histogram summary, monitor reports, and the recorder's reset epoch (so
/// a reader can correlate with `/events` restarts).
pub(crate) fn snapshot_json(plane: &Plane) -> String {
    let rec = plane.recorder;
    let mut out = String::with_capacity(4096);
    out.push('{');
    push_key(&mut out, "reset_epoch");
    let _ = write!(out, "{}", rec.reset_epoch());
    out.push(',');
    push_key(&mut out, "spans");
    let _ = write!(out, "{}", rec.span_count());
    out.push(',');
    push_key(&mut out, "events");
    let _ = write!(out, "{}", rec.event_count());
    out.push(',');
    push_key(&mut out, "alerts");
    let _ = write!(out, "{}", rec.alert_count());
    out.push(',');
    push_key(&mut out, "dropped");
    let _ = write!(out, "{}", rec.dropped());

    out.push(',');
    push_key(&mut out, "counters");
    out.push('{');
    for (i, (name, v)) in rec.counters().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_key(&mut out, name);
        let _ = write!(out, "{v}");
    }
    out.push('}');

    out.push(',');
    push_key(&mut out, "gauges");
    out.push('{');
    for (i, (name, v)) in rec.gauges().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_key(&mut out, name);
        push_f64(&mut out, *v);
    }
    out.push('}');

    out.push(',');
    push_key(&mut out, "histograms");
    out.push('{');
    for (i, (name, h)) in rec.histograms().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_key(&mut out, name);
        out.push('{');
        push_key(&mut out, "count");
        let _ = write!(out, "{}", h.count);
        out.push(',');
        push_key(&mut out, "mean_ns");
        push_f64(&mut out, h.mean());
        out.push(',');
        push_key(&mut out, "p50_ns");
        let _ = write!(out, "{}", h.percentile(50.0));
        out.push(',');
        push_key(&mut out, "p99_ns");
        let _ = write!(out, "{}", h.percentile(99.0));
        out.push(',');
        push_key(&mut out, "max_ns");
        let _ = write!(out, "{}", if h.count == 0 { 0 } else { h.max });
        out.push('}');
    }
    out.push('}');

    append_engine_snapshot(&mut out, plane);
    out.push('}');
    out
}

fn append_engine_snapshot(out: &mut String, plane: &Plane) {
    let Some(engine) = &plane.engine else {
        out.push(',');
        push_key(out, "monitor");
        out.push_str("null");
        return;
    };
    out.push(',');
    push_key(out, "monitor");
    out.push('{');
    for (i, (model, r)) in engine.monitor_reports().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_key(out, model);
        out.push('{');
        push_key(out, "observations");
        let _ = write!(out, "{}", r.observations);
        out.push(',');
        push_key(out, "rolling_mae");
        match r.rolling_mae {
            Some(v) => push_f64(out, v),
            None => out.push_str("null"),
        }
        out.push(',');
        push_key(out, "drift_score");
        match r.drift_score {
            Some(v) => push_f64(out, v),
            None => out.push_str("null"),
        }
        out.push(',');
        push_key(out, "flight_records");
        let _ = write!(out, "{}", r.flight_records);
        out.push(',');
        push_key(out, "alerts_warn");
        let _ = write!(out, "{}", r.alerts_warn);
        out.push(',');
        push_key(out, "alerts_critical");
        let _ = write!(out, "{}", r.alerts_critical);
        out.push(',');
        push_key(out, "degraded");
        out.push_str(if r.degraded { "true" } else { "false" });
        out.push('}');
    }
    out.push('}');
}
