//! Online prediction-quality monitoring for deployed Autonomizer models.
//!
//! The paper's TS mode replaces human/heuristic control with a trained
//! network — and from that moment the reproduction had no way to tell
//! whether the model was still trustworthy: Tables 2–3 accuracy is measured
//! offline only. This crate is the runtime answer, in four parts:
//!
//! - **Shadow/online accuracy** ([`RollingQuality`]) — while ground-truth
//!   labels still flow through `au_extract` in TS mode, a rolling window of
//!   per-prediction errors tracks live MAE and compares it against the
//!   training-time baseline persisted with the model.
//! - **Feature drift detection** ([`DriftDetector`]) — per-feature training
//!   distributions ([`FeatureBaseline`], built with the same min–max-scaled
//!   trace statistics Algorithm 2 uses via `au-trace`) are compared against
//!   a sliding window of at-inference inputs: inputs outside the learned
//!   range are flagged immediately, and a population-stability-style score
//!   catches windowed mean/variance shifts.
//! - **Flight recorder** ([`FlightRecorder`]) — a bounded ring buffer of
//!   recent `(features, prediction, outcome, span-id)` records per model,
//!   dumped to JSONL on alert or on demand.
//! - **Alerting + graceful degradation** ([`Alert`], [`MonitorConfig`]) —
//!   leveled alerts are raised on rising edges (no per-frame spam); with the
//!   fallback policy enabled a critical alert marks the model *degraded* so
//!   the engine can route callers back to the original code path (the
//!   paper's hybrid mode) instead of serving silent bad predictions.
//!
//! [`ModelMonitor`] ties the four together for one model; the Autonomizer
//! engine (`au-core`) owns one per deployed model and feeds it from the
//! `au_nn`/`au_nn_rl` hot paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alert;
mod config;
mod drift;
mod flight;
mod quality;

pub use alert::{Alert, AlertKind, AlertLevel};
pub use config::MonitorConfig;
pub use drift::{stability_score, BaselineBuilder, DriftDetector, DriftReading, FeatureBaseline};
pub use flight::{FlightRecord, FlightRecorder};
pub use quality::RollingQuality;
// Re-exported so dependents can build baselines without naming `au-trace`.
pub use au_trace::TraceSummary;

use std::fmt;

/// Live monitoring state for one deployed model: drift detector, rolling
/// quality window, flight recorder, and the alert ledger.
#[derive(Debug)]
pub struct ModelMonitor {
    config: MonitorConfig,
    drift: Option<DriftDetector>,
    baseline_mae: Option<f64>,
    quality: RollingQuality,
    flight: FlightRecorder,
    alerts: Vec<Alert>,
    /// Alert kinds currently firing — alerts are emitted on the rising edge
    /// only and re-arm when the condition clears.
    active: Vec<AlertKind>,
    last_drift: Option<DriftReading>,
    degraded: bool,
    observations: u64,
}

impl ModelMonitor {
    /// Creates a monitor with no training baseline: drift detection stays
    /// inert, but quality tracking (against labels) and flight recording
    /// work from the first observation.
    pub fn new(config: MonitorConfig) -> Self {
        let quality = RollingQuality::new(config.quality_window);
        let flight = FlightRecorder::new(config.flight_capacity);
        ModelMonitor {
            config,
            drift: None,
            baseline_mae: None,
            quality,
            flight,
            alerts: Vec::new(),
            active: Vec::new(),
            last_drift: None,
            degraded: false,
            observations: 0,
        }
    }

    /// Attaches the training-time baselines: the per-feature input
    /// distribution and (when known) the training-set MAE.
    pub fn with_baseline(mut self, baseline: FeatureBaseline, baseline_mae: Option<f64>) -> Self {
        self.drift = Some(DriftDetector::new(baseline, &self.config));
        self.baseline_mae = baseline_mae;
        self
    }

    /// The configuration this monitor runs under.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Training-time baseline MAE, when known.
    pub fn baseline_mae(&self) -> Option<f64> {
        self.baseline_mae
    }

    /// Observes one served prediction. `outcome` carries the ground-truth
    /// label when one still flows through the database store (shadow
    /// accuracy); `span_id` correlates the flight record with telemetry.
    ///
    /// Returns the alerts newly raised by this observation (rising edges
    /// only). When the configuration enables `fallback`, any critical alert
    /// also marks the model degraded.
    pub fn observe(
        &mut self,
        features: &[f64],
        prediction: &[f64],
        outcome: Option<&[f64]>,
        span_id: u64,
    ) -> Vec<Alert> {
        self.observations += 1;
        let reading = self.drift.as_mut().map(|d| d.observe(features));

        if let Some(truth) = outcome {
            self.quality.observe(prediction, truth);
        }

        // Evaluate every alert condition, then reconcile with the active
        // set so each condition alerts once per excursion.
        let mut firing: Vec<(AlertKind, AlertLevel, String)> = Vec::new();

        if prediction.iter().any(|v| !v.is_finite()) {
            firing.push((
                AlertKind::NaNPrediction,
                AlertLevel::Critical,
                "model produced a non-finite prediction".to_owned(),
            ));
        }
        if let Some(r) = &reading {
            if r.out_of_range > 0 {
                firing.push((
                    AlertKind::OutOfRange,
                    AlertLevel::Warn,
                    format!(
                        "{} feature(s) outside the learned training range (worst: #{})",
                        r.out_of_range,
                        r.worst_feature.unwrap_or(0)
                    ),
                ));
            }
            if r.samples >= self.config.min_samples && r.score > self.config.drift_threshold {
                firing.push((
                    AlertKind::Drift,
                    AlertLevel::Critical,
                    format!(
                        "input drift score {:.3} exceeds threshold {:.3} (feature #{}, window {})",
                        r.score,
                        self.config.drift_threshold,
                        r.worst_feature.unwrap_or(0),
                        r.samples
                    ),
                ));
            }
        }
        if let (Some(mae), Some(base)) = (self.quality.rolling_mae(), self.baseline_mae) {
            let floor = base.max(1e-6);
            if self.quality.samples() >= self.config.min_samples
                && mae > self.config.mae_degradation_factor * floor
            {
                firing.push((
                    AlertKind::QualityDrop,
                    AlertLevel::Critical,
                    format!(
                        "rolling MAE {mae:.4} exceeds {}x the training baseline {base:.4}",
                        self.config.mae_degradation_factor
                    ),
                ));
            }
        }

        let mut raised = Vec::new();
        let firing_kinds: Vec<AlertKind> = firing.iter().map(|(k, _, _)| *k).collect();
        for (kind, level, message) in firing {
            if !self.active.contains(&kind) {
                self.active.push(kind);
                let alert = Alert {
                    level,
                    kind,
                    message,
                    seq: self.observations,
                };
                if level == AlertLevel::Critical && self.config.fallback {
                    self.degraded = true;
                }
                self.alerts.push(alert.clone());
                raised.push(alert);
            }
        }
        // Re-arm conditions that have cleared.
        self.active.retain(|k| firing_kinds.contains(k));

        let drift_score = reading.as_ref().map_or(0.0, |r| r.score);
        self.last_drift = reading;
        self.flight.record(
            span_id,
            features.to_vec(),
            prediction.to_vec(),
            outcome.map(<[f64]>::to_vec),
            drift_score,
        );
        raised
    }

    /// Whether a critical alert has tripped the fallback policy. A degraded
    /// model should not serve predictions until [`ModelMonitor::clear_degraded`].
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Re-arms a degraded model (e.g. after the caller retrained or decided
    /// to trust it again). The drift and quality windows are emptied so the
    /// stale samples that tripped the alert cannot immediately re-trip it;
    /// windowed conditions stay quiet until fresh traffic refills
    /// `min_samples`.
    pub fn clear_degraded(&mut self) {
        self.degraded = false;
        self.active.clear();
        if let Some(d) = self.drift.as_mut() {
            d.reset();
        }
        self.quality.reset_window();
    }

    /// Every alert raised so far, in order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// The flight recorder (read access; dump with
    /// [`FlightRecorder::write_jsonl`]).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The rolling quality window.
    pub fn quality(&self) -> &RollingQuality {
        &self.quality
    }

    /// The most recent drift reading, when a baseline is attached and at
    /// least one observation happened.
    pub fn last_drift(&self) -> Option<&DriftReading> {
        self.last_drift.as_ref()
    }

    /// Point-in-time summary of this monitor.
    pub fn report(&self) -> MonitorReport {
        MonitorReport {
            observations: self.observations,
            rolling_mae: self.quality.rolling_mae(),
            baseline_mae: self.baseline_mae,
            quality_samples: self.quality.samples(),
            nan_predictions: self.quality.nan_count(),
            drift_score: self.last_drift.as_ref().map(|r| r.score),
            has_baseline: self.drift.is_some(),
            alerts_warn: self
                .alerts
                .iter()
                .filter(|a| a.level == AlertLevel::Warn)
                .count(),
            alerts_critical: self
                .alerts
                .iter()
                .filter(|a| a.level == AlertLevel::Critical)
                .count(),
            flight_records: self.flight.len(),
            degraded: self.degraded,
        }
    }
}

/// Point-in-time summary of one model's monitoring state, as produced by
/// [`ModelMonitor::report`].
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorReport {
    /// Predictions observed in TS mode.
    pub observations: u64,
    /// Rolling mean absolute error over the quality window, when labels
    /// have flowed.
    pub rolling_mae: Option<f64>,
    /// Training-time baseline MAE, when persisted with the model.
    pub baseline_mae: Option<f64>,
    /// Observations currently in the quality window.
    pub quality_samples: usize,
    /// Non-finite predictions seen.
    pub nan_predictions: u64,
    /// Most recent drift score, when a baseline is attached.
    pub drift_score: Option<f64>,
    /// Whether a training feature baseline is attached.
    pub has_baseline: bool,
    /// Warn-level alerts raised so far.
    pub alerts_warn: usize,
    /// Critical alerts raised so far.
    pub alerts_critical: usize,
    /// Records currently held by the flight recorder.
    pub flight_records: usize,
    /// Whether the fallback policy has marked the model degraded.
    pub degraded: bool,
}

impl fmt::Display for MonitorReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "observations={}", self.observations)?;
        match (self.rolling_mae, self.baseline_mae) {
            (Some(mae), Some(base)) => {
                write!(f, " mae={mae:.4} (baseline {base:.4})")?;
            }
            (Some(mae), None) => write!(f, " mae={mae:.4}")?,
            (None, Some(base)) => write!(f, " mae=- (baseline {base:.4})")?,
            (None, None) => {}
        }
        if let Some(score) = self.drift_score {
            write!(f, " drift={score:.3}")?;
        } else if !self.has_baseline {
            write!(f, " drift=n/a(no baseline)")?;
        }
        write!(
            f,
            " alerts={}w/{}c flight={} degraded={}",
            self.alerts_warn, self.alerts_critical, self.flight_records, self.degraded
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline_from(traces: &[Vec<f64>]) -> FeatureBaseline {
        FeatureBaseline::from_rows(traces)
    }

    fn clean_rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                vec![x, 1.0 - x, 0.5]
            })
            .collect()
    }

    #[test]
    fn clean_stream_stays_silent() {
        let rows = clean_rows(64);
        let mut m = ModelMonitor::new(MonitorConfig::default())
            .with_baseline(baseline_from(&rows), Some(0.05));
        // Serve the training rows in a strided order so each sliding window
        // stays representative of the whole distribution (a monotonic sweep
        // would make every window genuinely mean-shifted).
        for i in 0..rows.len() {
            let row = &rows[(i * 13) % rows.len()];
            let alerts = m.observe(row, &[0.5], Some(&[0.52]), i as u64);
            assert!(alerts.is_empty(), "clean stream alerted: {alerts:?}");
        }
        assert!(!m.is_degraded());
        assert_eq!(m.report().alerts_critical, 0);
    }

    #[test]
    fn shifted_stream_raises_drift_and_degrades_with_fallback() {
        let rows = clean_rows(64);
        let cfg = MonitorConfig::default().with_fallback(true);
        let mut m = ModelMonitor::new(cfg).with_baseline(baseline_from(&rows), Some(0.05));
        // Feed enough clearly shifted rows to fill the min-sample window.
        let mut saw_drift = false;
        for i in 0..64u64 {
            let alerts = m.observe(&[8.0, -7.0, 9.5], &[0.5], None, i);
            saw_drift |= alerts.iter().any(|a| a.kind == AlertKind::Drift);
        }
        assert!(saw_drift, "shifted inputs must raise a drift alert");
        assert!(m.is_degraded(), "critical alert with fallback degrades");
        // Out-of-range fired immediately too (values outside [0,1]).
        assert!(m.alerts().iter().any(|a| a.kind == AlertKind::OutOfRange));
    }

    #[test]
    fn alerts_fire_on_rising_edge_only() {
        let rows = clean_rows(64);
        let mut m =
            ModelMonitor::new(MonitorConfig::default()).with_baseline(baseline_from(&rows), None);
        let mut out_of_range_alerts = 0usize;
        for i in 0..32u64 {
            let alerts = m.observe(&[5.0, 5.0, 5.0], &[0.0], None, i);
            out_of_range_alerts += alerts
                .iter()
                .filter(|a| a.kind == AlertKind::OutOfRange)
                .count();
        }
        assert_eq!(out_of_range_alerts, 1, "no per-frame alert spam");
        // Once the condition clears and re-trips, it may fire again.
        for i in 32..96u64 {
            let x = (i % 10) as f64 / 10.0;
            m.observe(&[x, 1.0 - x, 0.5], &[0.0], None, i);
        }
        let again = m.observe(&[5.0, 5.0, 5.0], &[0.0], None, 97);
        assert!(
            again.iter().any(|a| a.kind == AlertKind::OutOfRange),
            "condition re-arms after clearing"
        );
    }

    #[test]
    fn quality_drop_against_baseline_raises_alert() {
        let mut m = ModelMonitor::new(MonitorConfig::default());
        m.baseline_mae = Some(0.01);
        let mut saw = false;
        for i in 0..32u64 {
            let alerts = m.observe(&[0.1], &[1.0], Some(&[0.0]), i);
            saw |= alerts.iter().any(|a| a.kind == AlertKind::QualityDrop);
        }
        assert!(saw, "rolling MAE 1.0 vs baseline 0.01 must alert");
    }

    #[test]
    fn nan_prediction_is_critical_without_any_baseline() {
        let cfg = MonitorConfig::default().with_fallback(true);
        let mut m = ModelMonitor::new(cfg);
        let alerts = m.observe(&[0.1], &[f64::NAN], None, 1);
        assert!(alerts
            .iter()
            .any(|a| a.kind == AlertKind::NaNPrediction && a.level == AlertLevel::Critical));
        assert!(m.is_degraded());
        m.clear_degraded();
        assert!(!m.is_degraded());
    }

    #[test]
    fn report_and_flight_recorder_track_observations() {
        let rows = clean_rows(32);
        let mut m = ModelMonitor::new(MonitorConfig::default().with_flight_capacity(8))
            .with_baseline(baseline_from(&rows), Some(0.1));
        for (i, row) in rows.iter().enumerate() {
            m.observe(row, &[0.4], Some(&[0.5]), i as u64);
        }
        let r = m.report();
        assert_eq!(r.observations, 32);
        assert_eq!(r.flight_records, 8, "ring buffer bounded");
        assert!(r.rolling_mae.is_some());
        assert!(r.has_baseline);
        let text = r.to_string();
        assert!(text.contains("observations=32"), "{text}");
        assert!(text.contains("degraded=false"), "{text}");
    }
}
