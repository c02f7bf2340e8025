//! The au-prof acceptance test: run a real workload (batched predictions
//! fanning out across au-par, plus a mid-flight retrain) against a live
//! ScopeServer, then fetch `/profile.json` and `/flamegraph` and check the
//! attribution is *exact*: for every completed trace the signed exclusive
//! times sum to the root's inclusive time, and every collapsed stack
//! resolves segment-by-segment to real span names.
//!
//! Uses the process-global recorder (the real deployment shape), so this
//! file holds exactly one test.

use au_core::{Engine, Mode, ModelConfig};
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const BATCH_ROWS: usize = 48;
const TRAIN_ROWS: usize = 16;

fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    out
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or(response)
}

fn deployed_engine() -> Engine {
    let mut e = Engine::new(Mode::Train);
    e.au_config("prof", ModelConfig::dnn(&[16]).with_learning_rate(0.05))
        .expect("config");
    let xs: Vec<Vec<f64>> = (0..32).map(|i| vec![f64::from(i) / 32.0]).collect();
    let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![2.0 * x[0]]).collect();
    e.train_supervised("prof", &xs, &ys, 10).expect("train");
    e.set_mode(Mode::Test);
    e
}

#[test]
fn profile_endpoints_attribute_a_live_workload_exactly() {
    let rec = au_telemetry::global();
    rec.reset();
    au_telemetry::enable();

    let mut engine = deployed_engine();
    let handle = engine.handle();
    let server = au_scope::ScopeServer::builder()
        .engine(handle.clone())
        .bind("127.0.0.1:0")
        .start()
        .expect("start scope server");
    let addr = server.local_addr();

    // The workload. Batched predictions fan out across au-par (worker
    // spans parent under the batch span — overlapping children, the case
    // that forces signed exclusive time), and the monitored retrain
    // produces nested predict spans under its train_supervised span.
    let batch: Vec<Vec<f64>> = (0..BATCH_ROWS).map(|i| vec![i as f64 / 64.0]).collect();
    for _ in 0..4 {
        handle.predict_batch("prof", &batch).expect("predict_batch");
    }
    handle.set_monitor_config(au_core::monitor::MonitorConfig::default());
    engine.set_mode(Mode::Train);
    let xs: Vec<Vec<f64>> = (0..TRAIN_ROWS).map(|i| vec![i as f64 / 16.0]).collect();
    let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0] * 0.5]).collect();
    engine
        .train_supervised("prof", &xs, &ys, 2)
        .expect("retrain");
    engine.set_mode(Mode::Test);
    for i in 0..25 {
        handle
            .predict("prof", &[f64::from(i) / 25.0])
            .expect("predict");
    }

    // ---- /profile.json ----
    let resp = get(addr, "/profile.json");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("application/json"), "{resp}");
    let profile: Value = serde_json::from_str(body_of(&resp)).expect("profile parses");

    let first_traces = profile.field("traces").unwrap().as_f64().unwrap();
    assert!(first_traces > 0.0, "no traces attributed");
    assert_eq!(
        profile.field("dropped_spans").unwrap().as_f64().unwrap(),
        0.0
    );

    // Every span name the engine emits shows up with sane stats.
    let Value::Object(names) = profile.field("names").unwrap() else {
        panic!("names not an object");
    };
    let name_set: std::collections::HashSet<&str> = names.iter().map(|(k, _)| k.as_str()).collect();
    for expected in ["predict", "predict_batch", "train_supervised"] {
        assert!(name_set.contains(expected), "missing span name {expected}");
    }
    for (name, stat) in names {
        let calls = stat.field("calls").unwrap().as_f64().unwrap();
        let inclusive = stat.field("inclusive_ns").unwrap().as_f64().unwrap();
        assert!(calls >= 1.0, "{name}: zero calls");
        assert!(inclusive >= 0.0, "{name}: negative inclusive");
    }

    // Every collapsed stack resolves, segment by segment, to real names.
    let Value::Array(stacks) = profile.field("stacks").unwrap() else {
        panic!("stacks not a list");
    };
    assert!(!stacks.is_empty(), "no collapsed stacks");
    let mut nested_stacks = 0usize;
    for entry in stacks {
        let Value::Str(stack) = entry.field("stack").unwrap() else {
            panic!("stack not a string");
        };
        for segment in stack.split(';') {
            assert!(
                name_set.contains(segment),
                "stack {stack:?} has unknown segment {segment:?}"
            );
        }
        if stack.contains(';') {
            nested_stacks += 1;
        }
    }
    assert!(nested_stacks > 0, "workload produced no nested stacks");

    // The telescoping identity, on live data: per trace, signed exclusive
    // times sum *exactly* to the root's inclusive time.
    let Value::Array(recents) = profile.field("recent_traces").unwrap() else {
        panic!("recent_traces not a list");
    };
    assert!(!recents.is_empty(), "no recent traces");
    for t in recents {
        let inclusive = t.field("inclusive_ns").unwrap().as_f64().unwrap();
        let exclusive_sum = t.field("exclusive_sum_ns").unwrap().as_f64().unwrap();
        assert_eq!(
            inclusive, exclusive_sum,
            "telescoping identity violated for trace {t:?}"
        );
        assert!(t.field("spans").unwrap().as_f64().unwrap() >= 1.0);
    }

    // ---- /flamegraph ----
    let fg = get(addr, "/flamegraph");
    assert!(fg.starts_with("HTTP/1.1 200"), "{fg}");
    assert!(fg.contains("image/svg+xml"), "{fg}");
    let svg = body_of(&fg);
    assert!(svg.starts_with("<svg"), "not an svg: {}", &svg[..60]);
    assert!(svg.contains("predict"), "flamegraph misses workload spans");
    assert!(!svg.contains("<script"), "flamegraph must be static");

    // ---- incremental: more work, more traces, identity still exact ----
    for i in 0..10 {
        handle
            .predict("prof", &[f64::from(i) / 10.0])
            .expect("predict");
    }
    let again: Value =
        serde_json::from_str(body_of(&get(addr, "/profile.json"))).expect("second profile");
    let second_traces = again.field("traces").unwrap().as_f64().unwrap();
    assert!(
        second_traces >= first_traces + 10.0,
        "profiler did not fold the new traces: {second_traces} vs {first_traces}"
    );
    let Value::Array(recents) = again.field("recent_traces").unwrap() else {
        panic!("recent_traces not a list");
    };
    for t in recents {
        assert_eq!(
            t.field("inclusive_ns").unwrap().as_f64().unwrap(),
            t.field("exclusive_sum_ns").unwrap().as_f64().unwrap(),
        );
    }

    au_telemetry::disable();
    server.shutdown();
}
