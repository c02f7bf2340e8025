//! Engine-side monitoring support: the persisted feature-baseline sidecar
//! format and the per-model monitor registry.
//!
//! A `<name>.meta.json` sidecar has one schema whether or not the writer
//! had monitoring switched on: the baseline fields are `null` when it did
//! not, because the vendored serde stand-in errors on missing fields.

use au_monitor::{
    Alert, BaselineBuilder, FeatureBaseline, ModelMonitor, MonitorConfig, TraceSummary,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-feature training distribution snapshot as persisted in a model's
/// `.meta.json` sidecar (columns parallel: index `i` describes feature `i`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineMeta {
    /// Training rows the statistics were computed over.
    pub count: u64,
    /// Per-feature minima.
    pub min: Vec<f64>,
    /// Per-feature maxima.
    pub max: Vec<f64>,
    /// Per-feature means.
    pub mean: Vec<f64>,
    /// Per-feature population variances.
    pub var: Vec<f64>,
}

impl BaselineMeta {
    pub(crate) fn from_baseline(b: &FeatureBaseline) -> Self {
        BaselineMeta {
            count: b.count,
            min: b.features.iter().map(|f| f.min).collect(),
            max: b.features.iter().map(|f| f.max).collect(),
            mean: b.features.iter().map(|f| f.mean).collect(),
            var: b.features.iter().map(|f| f.var).collect(),
        }
    }

    pub(crate) fn to_baseline(&self) -> FeatureBaseline {
        let n = self
            .min
            .len()
            .min(self.max.len())
            .min(self.mean.len())
            .min(self.var.len());
        FeatureBaseline {
            features: (0..n)
                .map(|i| TraceSummary {
                    min: self.min[i],
                    max: self.max[i],
                    mean: self.mean[i],
                    var: self.var[i],
                })
                .collect(),
            count: self.count,
        }
    }
}

/// Per-engine monitoring state: the active config plus per-model
/// monitors, training-time baseline accumulators, and error sums.
#[derive(Debug, Default)]
pub(crate) struct MonitorState {
    pub(crate) config: Option<MonitorConfig>,
    pub(crate) monitors: BTreeMap<String, ModelMonitor>,
    /// TR-mode per-model input-distribution accumulators.
    pub(crate) builders: BTreeMap<String, BaselineBuilder>,
    /// TR-mode per-model `(sum of absolute errors, observations)`.
    pub(crate) err_acc: BTreeMap<String, (f64, u64)>,
}

impl MonitorState {
    pub(crate) fn enabled(&self) -> bool {
        self.config.is_some()
    }

    /// Records one TR-mode training observation for `model`.
    pub(crate) fn observe_training(&mut self, model: &str, input: &[f64], abs_err: Option<f64>) {
        if !self.enabled() {
            return;
        }
        self.builders
            .entry(model.to_owned())
            .or_default()
            .observe(input);
        if let Some(err) = abs_err {
            let acc = self.err_acc.entry(model.to_owned()).or_insert((0.0, 0));
            acc.0 += err;
            acc.1 += 1;
        }
    }

    /// Mean training error accumulated for `model`, when any.
    pub(crate) fn training_mae(&self, model: &str) -> Option<f64> {
        self.err_acc
            .get(model)
            .filter(|(_, n)| *n > 0)
            .map(|(sum, n)| sum / *n as f64)
    }

    /// The finished training baseline for `model`, when any rows flowed.
    pub(crate) fn training_baseline(&self, model: &str) -> Option<FeatureBaseline> {
        self.builders.get(model).and_then(BaselineBuilder::finish)
    }

    /// Installs a monitor for a model loaded from disk.
    pub(crate) fn install_loaded(
        &mut self,
        model: &str,
        baseline: Option<&BaselineMeta>,
        baseline_mae: Option<f64>,
    ) {
        let Some(config) = self.config.clone() else {
            return;
        };
        let mut m = ModelMonitor::new(config);
        if let Some(meta) = baseline {
            m = m.with_baseline(meta.to_baseline(), baseline_mae);
        }
        self.monitors.insert(model.to_owned(), m);
    }

    /// Returns the monitor for `model`, creating it on first TS-mode use
    /// from whatever TR-mode state this engine accumulated (the
    /// in-process train-then-deploy flow).
    pub(crate) fn ensure_monitor(&mut self, model: &str) -> Option<&mut ModelMonitor> {
        let config = self.config.clone()?;
        if !self.monitors.contains_key(model) {
            let mut m = ModelMonitor::new(config);
            if let Some(baseline) = self.training_baseline(model) {
                m = m.with_baseline(baseline, self.training_mae(model));
            }
            self.monitors.insert(model.to_owned(), m);
        }
        self.monitors.get_mut(model)
    }
}

/// Routes newly raised alerts to the operator through the telemetry
/// recorder, which always echoes alerts to stderr. Clean streams raise no
/// alerts, so clean runs stay silent.
pub(crate) fn emit_alerts(model: &str, alerts: &[Alert]) {
    for alert in alerts {
        let level = match alert.level {
            au_monitor::AlertLevel::Warn => au_telemetry::Level::Warn,
            au_monitor::AlertLevel::Critical => au_telemetry::Level::Error,
        };
        au_telemetry::alert(
            level,
            "au_core.monitor",
            &format!("model `{model}`: {alert}"),
        );
    }
}
