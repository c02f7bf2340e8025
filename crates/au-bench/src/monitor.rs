//! `--monitor` support shared by the bench binaries.
//!
//! A binary calls [`init_from_args`] (or [`init_from_env`] when it does not
//! otherwise collect its arguments) before its workload; if the flag is
//! present, every engine the binary creates runs with online monitoring
//! enabled — drift detection against the training distribution, shadow
//! accuracy where labels still flow, and per-model flight recording — and
//! alerts surface on stderr and through telemetry.

/// Parses `--monitor` from `args` and, when present, installs the default
/// [`au_core::monitor::MonitorConfig`] as the process-wide default picked up
/// by every subsequently created engine. Returns whether monitoring is on.
pub fn init_from_args(args: &[String]) -> bool {
    if !args.iter().any(|a| a == "--monitor") {
        return false;
    }
    au_core::set_default_monitor_config(Some(au_core::monitor::MonitorConfig::default()));
    eprintln!("monitor: online monitoring enabled for every engine in this run");
    true
}

/// Like [`init_from_args`] but reads the process arguments directly — the
/// one-line hookup for binaries that do not collect an args vector.
pub fn init_from_env() -> bool {
    let args: Vec<String> = std::env::args().skip(1).collect();
    init_from_args(&args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_absent_means_disabled() {
        assert!(!init_from_args(&["--quick".into(), "--telemetry".into()]));
        assert!(!init_from_args(&[]));
    }

    // `init_from_args(["--monitor"])` mutates the process-wide default
    // config, which other tests' engines would silently pick up — the
    // enabled path is exercised by the `drift_demo` binary instead.
}
