//! End-to-end telemetry check: a quickstart-style train→predict run must
//! leave the global recorder with counter values that match the engine's
//! own bookkeeping, and the exporters must produce well-formed output.
//!
//! The global recorder is process-wide, so everything lives in one `#[test]`
//! (Rust runs tests in one process; two tests would race on the counters).

use au_core::{Engine, Mode, ModelConfig};

fn json_structure_balances(text: &str) -> bool {
    let (mut braces, mut brackets, mut in_str, mut esc) = (0i64, 0i64, false, false);
    for c in text.chars() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' if !in_str => braces += 1,
            '}' if !in_str => braces -= 1,
            '[' if !in_str => brackets += 1,
            ']' if !in_str => brackets -= 1,
            _ => {}
        }
        if braces < 0 || brackets < 0 {
            return false;
        }
    }
    braces == 0 && brackets == 0 && !in_str
}

#[test]
fn quickstart_style_run_records_expected_counters() {
    au_telemetry::enable();
    let rec = au_telemetry::global();
    rec.set_verbosity(au_telemetry::Level::Error);

    // Train: extract a 4-wide feature row plus a 1-wide label per input,
    // take a gradient step, then predict on held-out inputs.
    let mut engine = Engine::new(Mode::Train);
    engine
        .au_config("TelemNN", ModelConfig::dnn(&[8]))
        .expect("config");
    let train_inputs = 12u64;
    for i in 0..train_inputs {
        let x = i as f64 / train_inputs as f64;
        engine.au_extract("SUMMARY", &[x, 1.0 - x, x * x, 0.5]);
        engine.au_extract("OUT", &[2.0 * x]);
        engine
            .au_nn("TelemNN", "SUMMARY", &["OUT"])
            .expect("train step");
    }
    let ckpt = engine.checkpoint_with(&());
    engine.restore_with(&ckpt);

    engine.set_mode(Mode::Test);
    let test_inputs = 5u64;
    for i in 0..test_inputs {
        let x = 0.05 + i as f64 / 10.0;
        engine.au_extract("SUMMARY", &[x, 1.0 - x, x * x, 0.5]);
        engine.au_nn("TelemNN", "SUMMARY", &["OUT"]).expect("serve");
        let _y = engine.au_write_back_scalar("OUT").expect("prediction");
    }

    // Counter values must agree with the engine's own lifetime counter:
    // every au_extract row was counted exactly once.
    assert_eq!(
        rec.counter_value("au_core.extract_rows"),
        engine.total_extracted(),
        "extract_rows counter must equal Engine::total_extracted()"
    );
    // 5 rows per training input (4 features + 1 label), 4 per test input.
    assert_eq!(engine.total_extracted(), train_inputs * 5 + test_inputs * 4);
    assert_eq!(rec.counter_value("au_core.rows_trained"), train_inputs);
    // One prediction per au_nn call (train calls also predict for wb).
    assert_eq!(
        rec.counter_value("au_core.predictions_served"),
        train_inputs + test_inputs
    );
    assert_eq!(rec.counter_value("au_core.checkpoints"), 1);
    assert_eq!(rec.counter_value("au_core.restores"), 1);
    assert_eq!(rec.counter_value("au_core.write_backs"), test_inputs);

    // Latency histograms observed the same call counts.
    let extract_hist = rec
        .histogram_snapshot("au_core.au_extract")
        .expect("au_extract histogram exists");
    assert_eq!(extract_hist.count, train_inputs * 2 + test_inputs);
    let nn_hist = rec
        .histogram_snapshot("au_core.au_nn")
        .expect("au_nn histogram exists");
    assert_eq!(nn_hist.count, train_inputs + test_inputs);
    assert!(nn_hist.sum > 0, "au_nn spans must take measurable time");

    // au-nn layer underneath saw one batch per au_nn training call.
    assert!(rec.counter_value("au_nn.batches_trained") >= train_inputs);

    // Spans captured the au_nn call tree.
    let spans = rec.spans();
    assert!(
        spans.iter().any(
            |s| s.name == "au_nn" && s.args.iter().any(|(k, v)| k == "model" && v == "TelemNN")
        ),
        "au_nn span with model arg expected, got {:?}",
        spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );

    // The summary report surfaces the counters; exporters emit valid JSON.
    let report = engine.telemetry_report();
    assert!(report.contains("au_core.extract_rows"), "{report}");

    let mut chrome = Vec::new();
    rec.write_chrome_trace(&mut chrome).expect("chrome trace");
    let chrome = String::from_utf8(chrome).expect("utf8");
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(json_structure_balances(&chrome), "unbalanced: {chrome}");
    assert!(chrome.contains("\"name\":\"au_nn\""));

    let mut jsonl = Vec::new();
    rec.write_jsonl(&mut jsonl).expect("jsonl");
    let jsonl = String::from_utf8(jsonl).expect("utf8");
    for line in jsonl.lines() {
        assert!(json_structure_balances(line), "bad line: {line}");
    }
    assert!(jsonl.contains("\"kind\":\"histogram\""));
}
