//! The live-plane acceptance test: a deployed engine serves 8 threads ×
//! 125 predictions while one thread scrapes `/metrics` and another tails
//! `/events`, concurrently. Afterwards the scraped state must agree with
//! the work actually done — counter totals match, and every span the SSE
//! stream delivered has a parent resolving to a span in the same trace.
//!
//! Uses the process-global recorder (the real deployment shape), so this
//! file holds exactly one test.

use au_core::{Engine, Mode, ModelConfig};
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

const THREADS: usize = 8;
const PER_THREAD: usize = 125;
const BATCH_ROWS: usize = 32;
/// Rows in the mid-flight training pass; with monitoring on, the baseline
/// pass predicts each row once *inside* the `train_supervised` span,
/// producing the nested spans the parent-link check needs.
const MID_TRAIN_ROWS: usize = 16;

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

/// Extracts the value of an un-labeled metric line from an exposition body.
fn metric_value(body: &str, metric: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.starts_with(metric) && l.as_bytes().get(metric.len()) == Some(&b' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

fn deployed_engine() -> Engine {
    let mut e = Engine::new(Mode::Train);
    e.au_config("live", ModelConfig::dnn(&[16]).with_learning_rate(0.05))
        .expect("config");
    let xs: Vec<Vec<f64>> = (0..32).map(|i| vec![f64::from(i) / 32.0]).collect();
    let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![2.0 * x[0]]).collect();
    e.train_supervised("live", &xs, &ys, 10).expect("train");
    e.set_mode(Mode::Test);
    e
}

#[test]
fn concurrent_serving_scraping_and_streaming_agree() {
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

    let stop = AtomicBool::new(false);
    let mut sse_bytes = Vec::new();
    let mut scrapes = 0u32;

    thread::scope(|scope| {
        // SSE tail: connect before any serving so every serving span
        // completes after the stream's offsets were seeded.
        let sse_out = &mut sse_bytes;
        let stop_ref = &stop;
        let sse = scope.spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("sse connect");
            write!(stream, "GET /events HTTP/1.1\r\nHost: t\r\n\r\n").expect("sse send");
            stream
                .set_read_timeout(Some(Duration::from_millis(50)))
                .unwrap();
            let mut buf = [0u8; 16 * 1024];
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => sse_out.extend_from_slice(&buf[..n]),
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if stop_ref.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
        });

        // Give the SSE handler a moment to seed its offsets before spans
        // start completing.
        thread::sleep(Duration::from_millis(150));

        // Concurrent scraper: every exposition fetched mid-flight must be
        // well-formed.
        let scrape_count = &mut scrapes;
        let scraper = scope.spawn(move || {
            while !stop_ref.load(Ordering::Relaxed) {
                let resp = get(addr, "/metrics");
                assert!(resp.starts_with("HTTP/1.1 200"), "scrape failed: {resp}");
                assert!(body_of(&resp).contains("# TYPE"), "malformed exposition");
                *scrape_count += 1;
                thread::sleep(Duration::from_millis(20));
            }
        });

        // The workload: 8 threads × 125 predictions through handle clones.
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = handle.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let x = [f64::from((t * PER_THREAD + i) as u32 % 128) / 128.0];
                        h.predict("live", &x).expect("predict");
                    }
                })
            })
            .collect();

        // Mixed load on the main thread while workers run: one batched
        // call and one training pass (produces *nested* spans for the
        // parent-link check below).
        let batch: Vec<Vec<f64>> = (0..BATCH_ROWS).map(|i| vec![i as f64 / 64.0]).collect();
        handle.predict_batch("live", &batch).expect("predict_batch");
        // Monitoring makes the training pass below predict each row once
        // for its quality baseline — nested `predict` spans under the
        // `train_supervised` span.
        handle.set_monitor_config(au_core::monitor::MonitorConfig::default());
        engine.set_mode(Mode::Train);
        let xs: Vec<Vec<f64>> = (0..MID_TRAIN_ROWS).map(|i| vec![i as f64 / 16.0]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0] * 0.5]).collect();
        engine
            .train_supervised("live", &xs, &ys, 2)
            .expect("mid-flight train");
        engine.set_mode(Mode::Test);

        for w in workers {
            w.join().expect("worker");
        }
        // Let the SSE poll loop drain everything the workload produced
        // (poll period is 100ms; two periods is enough for the tail).
        thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        scraper.join().expect("scraper");
        sse.join().expect("sse reader");
    });

    assert!(scrapes > 0, "scraper never completed a fetch");
    // Worker predicts + the batched call + the monitoring baseline pass
    // (one predict per mid-flight training row).
    let expected_served = (THREADS * PER_THREAD + BATCH_ROWS + MID_TRAIN_ROWS) as f64;

    // 1. Final exposition: counter totals match the work done.
    let final_metrics = get(addr, "/metrics");
    let body = body_of(&final_metrics);
    assert_eq!(
        metric_value(body, "au_core_predictions_served_total"),
        Some(expected_served),
        "{body}"
    );
    assert!(
        metric_value(body, "au_core_predict_seconds_count") >= Some((THREADS * PER_THREAD) as f64),
        "predict histogram undercounts"
    );
    assert!(body.contains("au_engine_mode 1"), "engine gauge missing");

    // 2. /health agrees with the engine.
    let health: Value = serde_json::from_str(body_of(&get(addr, "/health"))).expect("health");
    let engine_info = health.field("engine").expect("engine block");
    assert_eq!(
        engine_info.field("mode").unwrap(),
        &Value::Str("TS".to_owned())
    );
    let Value::Array(models) = engine_info.field("models").unwrap() else {
        panic!("models not a list");
    };
    assert_eq!(models, &[Value::Str("live".to_owned())], "{models:?}");

    // 3. /snapshot.json sees the same counter total.
    let snap: Value = serde_json::from_str(body_of(&get(addr, "/snapshot.json"))).expect("snap");
    assert_eq!(
        snap.field("counters")
            .unwrap()
            .field("au_core.predictions_served")
            .unwrap()
            .as_f64()
            .unwrap(),
        expected_served
    );

    // 4. Every span the SSE stream delivered: parent links resolve to a
    //    span in the same trace, and all the serving spans arrived.
    let text = String::from_utf8_lossy(&sse_bytes);
    assert!(text.contains("event: hello"), "no hello frame");
    let spans: Vec<Value> = text
        .lines()
        .zip(text.lines().skip(1))
        .filter(|(ev, _)| *ev == "event: span")
        .filter_map(|(_, data)| data.strip_prefix("data: "))
        .map(|json| serde_json::from_str(json).expect("span json"))
        .collect();
    let predict_spans = spans
        .iter()
        .filter(|s| s.field("name").unwrap() == &Value::Str("predict".to_owned()))
        .count();
    assert_eq!(
        predict_spans,
        THREADS * PER_THREAD + MID_TRAIN_ROWS,
        "SSE stream missed predict spans"
    );
    let ids: std::collections::HashMap<u64, u64> = spans
        .iter()
        .map(|s| {
            (
                s.field("span").unwrap().as_f64().unwrap() as u64,
                s.field("trace").unwrap().as_f64().unwrap() as u64,
            )
        })
        .collect();
    let mut linked = 0usize;
    for s in &spans {
        let parent = s.field("parent").unwrap().as_f64().unwrap() as u64;
        if parent == 0 {
            continue; // trace root
        }
        let trace = s.field("trace").unwrap().as_f64().unwrap() as u64;
        let parent_trace = ids.get(&parent).unwrap_or_else(|| {
            panic!("span {s:?} has dangling parent {parent}");
        });
        assert_eq!(*parent_trace, trace, "parent in a different trace: {s:?}");
        linked += 1;
    }
    assert!(
        linked > 0,
        "workload produced no nested spans; parent-link check vacuous"
    );

    server.shutdown();
}
