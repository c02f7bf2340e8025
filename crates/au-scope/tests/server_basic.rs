//! Endpoint smoke tests against a private (leaked) recorder — no engine
//! attached, so these exercise the plane's telemetry-only half.

use au_telemetry::Recorder;
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One full GET round trip; returns the raw response (head + body).
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

fn leaked_recorder() -> &'static Recorder {
    let rec: &'static Recorder = Box::leak(Box::new(Recorder::new()));
    rec.enable();
    rec
}

fn server_over(rec: &'static Recorder) -> au_scope::ScopeServer {
    au_scope::ScopeServer::builder()
        .recorder(rec)
        .bind("127.0.0.1:0")
        .start()
        .expect("start scope server")
}

#[test]
fn metrics_exposes_counters_gauges_and_histograms() {
    let rec = leaked_recorder();
    rec.counter("au_core.predictions_served").add(7);
    rec.gauge("au_core.last_loss").set(0.25);
    rec.histogram("au_core.predict").record(1_500);
    let server = server_over(rec);

    let resp = get(server.local_addr(), "/metrics");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    let body = body_of(&resp);
    assert!(
        body.contains("# TYPE au_core_predictions_served_total counter"),
        "{body}"
    );
    assert!(
        body.contains("au_core_predictions_served_total 7"),
        "{body}"
    );
    assert!(body.contains("# TYPE au_core_last_loss gauge"), "{body}");
    assert!(body.contains("au_core_last_loss 0.25"), "{body}");
    assert!(
        body.contains("# TYPE au_core_predict_seconds histogram"),
        "{body}"
    );
    assert!(
        body.contains("au_core_predict_seconds_bucket{le=\"+Inf\"} 1"),
        "{body}"
    );
    assert!(body.contains("au_core_predict_seconds_count 1"), "{body}");
    // Plane meta series are always present.
    assert!(body.contains("au_scope_uptime_seconds"), "{body}");
    assert!(body.contains("au_telemetry_spans_total"), "{body}");
}

#[test]
fn health_and_snapshot_are_valid_json() {
    let rec = leaked_recorder();
    rec.counter("c").add(3);
    rec.histogram("h").record(10);
    let server = server_over(rec);

    let health = get(server.local_addr(), "/health");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    let parsed: Value = serde_json::from_str(body_of(&health)).expect("health parses");
    assert_eq!(
        parsed.field("status").unwrap(),
        &Value::Str("ok".to_owned())
    );
    assert!(parsed.field("engine").is_ok(), "engine key present");

    let snap = get(server.local_addr(), "/snapshot.json");
    let parsed: Value = serde_json::from_str(body_of(&snap)).expect("snapshot parses");
    let counters = parsed.field("counters").expect("counters");
    assert_eq!(counters.field("c").unwrap().as_f64().unwrap(), 3.0);
    let h = parsed.field("histograms").unwrap().field("h").expect("h");
    assert_eq!(h.field("count").unwrap().as_f64().unwrap(), 1.0);
}

#[test]
fn dashboard_unknown_path_and_bad_method() {
    let rec = leaked_recorder();
    let server = server_over(rec);
    let addr = server.local_addr();

    let home = get(addr, "/");
    assert!(home.starts_with("HTTP/1.1 200"), "{home}");
    assert!(home.contains("text/html"), "{home}");
    assert!(body_of(&home).contains("au-scope"), "dashboard body");

    let missing = get(addr, "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 405"), "{out}");
}

/// Reads from `stream` into `data` until `done` holds for what has
/// arrived, the peer hangs up, or `deadline` passes.
fn read_until(
    stream: &mut TcpStream,
    data: &mut Vec<u8>,
    deadline: std::time::Instant,
    done: impl Fn(&str) -> bool,
) {
    let mut buf = [0u8; 4096];
    while std::time::Instant::now() < deadline && !done(&String::from_utf8_lossy(data)) {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => data.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => panic!("sse read failed: {e}"),
        }
    }
}

#[test]
fn events_streams_spans_and_alerts() {
    let rec = leaked_recorder();
    let server = server_over(rec);

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write!(stream, "GET /events HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut data = Vec::new();

    // The stream starts where the recorder stood when the server sent
    // `hello`; anything emitted before that is counted there, not streamed.
    read_until(&mut stream, &mut data, deadline, |text| {
        text.contains("event: hello")
    });

    // Activity after the stream connects must show up as SSE frames.
    {
        let _s = rec.span("demo_span");
        std::thread::sleep(Duration::from_millis(1));
    }
    rec.alert(au_telemetry::Level::Warn, "demo", "drift above threshold");

    // A frame can arrive split across reads (`event:` line first), so
    // wait for both payloads, not just their event lines.
    read_until(&mut stream, &mut data, deadline, |text| {
        text.contains("\"name\":\"demo_span\"") && text.contains("drift above threshold")
    });
    let text = String::from_utf8_lossy(&data);
    assert!(text.contains("text/event-stream"), "{text}");
    assert!(text.contains("event: hello"), "{text}");
    assert!(text.contains("event: span"), "{text}");
    assert!(text.contains("\"name\":\"demo_span\""), "{text}");
    assert!(text.contains("event: alert"), "{text}");
    assert!(text.contains("drift above threshold"), "{text}");

    server.shutdown();
    server.shutdown(); // idempotent
}
