//! The recon workspace's benchmark: three closed-loop workloads driven
//! through the crates' public API, end-to-end metrics from untraced runs and
//! per-layer metrics from traced ones. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <daemon_sync|sos_families|graph_families> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A reconciliation that
//! returns a wrong result aborts the run with exit code 3; a typed error is
//! counted as a failure.

mod daemon_sync;
mod graph_families;
mod report;
mod sos_families;
mod trace;

use report::{Budget, RunConfig, RunOutput, Scale};

const USAGE: &str = "usage: perfbench --workload <daemon_sync|sos_families|graph_families> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["daemon_sync", "sos_families", "graph_families"];

fn run(workload: &str, config: &RunConfig) -> Result<RunOutput, String> {
    match workload {
        "daemon_sync" => daemon_sync::run(config),
        "sos_families" => sos_families::run(config),
        "graph_families" => graph_families::run(config),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn parse(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let config = RunConfig {
        seed: seed.ok_or("--seed is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
        budget: Budget::Seconds(seconds),
    };
    Ok((workload, config))
}

/// Fix glibc's mmap threshold at its default of 128 KiB. Setting it turns
/// off glibc's dynamic raise of the threshold, so every large buffer is
/// returned to the system when freed and `peak_rss_mb` tracks the peak of
/// live memory instead of how fragmented the heap happened to get.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: std::os::raw::c_int, value: std::os::raw::c_int) -> std::os::raw::c_int;
    }
    const M_MMAP_THRESHOLD: std::os::raw::c_int = -3;
    // SAFETY: `mallopt` only adjusts allocator parameters; it is called once,
    // before any other thread exists.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(ok, 1, "glibc accepts a 128 KiB mmap threshold");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() {
    pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&workload, &config) {
        Ok(output) => output.print(),
        Err(message) => {
            eprintln!("perfbench: {workload} seed {}: {message}", config.seed);
            std::process::exit(3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64, trace: bool, cycles: usize) -> RunConfig {
        RunConfig { seed, trace, scale: Scale::Small, budget: Budget::Cycles(cycles) }
    }

    /// Counts that must repeat exactly for a seed: from an untraced and a
    /// traced run.
    fn counts(workload: &str, seed: u64, cycles: usize) -> Vec<(&'static str, f64)> {
        let plain = run(workload, &small(seed, false, cycles)).expect("untraced run");
        let traced = run(workload, &small(seed, true, cycles)).expect("traced run");
        let mut out: Vec<(&'static str, f64)> =
            ["wire_bytes_per_recon", "rounds_per_recon", "success_ratio"]
                .iter()
                .map(|&name| (name, plain.get(name).expect("end-to-end metric")))
                .collect();
        out.push(("failed", plain.failed as f64));
        for name in ["estimator.rung_over_true_d", "store.snapshots_per_1k_writes"] {
            out.push((name, traced.get(name).expect("per-layer metric")));
        }
        for m in traced.metrics.iter().filter(|m| m.name.ends_with(".wire_bytes")) {
            out.push((m.name, m.value));
        }
        out
    }

    fn deterministic(workload: &str, cycles: usize) {
        let first = counts(workload, 7, cycles);
        let second = counts(workload, 7, cycles);
        assert_eq!(first, second, "{workload}: counts differ between runs of one seed");
        assert!(first.iter().any(|&(name, v)| name == "wire_bytes_per_recon" && v > 0.0));
        let other = run(workload, &small(8, false, cycles)).expect("second seed runs clean");
        assert!(other.attempted > 0);
    }

    #[test]
    fn daemon_sync_is_a_function_of_the_seed() {
        deterministic("daemon_sync", 60);
    }

    #[test]
    fn sos_families_is_a_function_of_the_seed() {
        deterministic("sos_families", 20);
    }

    #[test]
    fn graph_families_is_a_function_of_the_seed() {
        deterministic("graph_families", 24);
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        let output = run("graph_families", &small(3, false, 6)).expect("run");
        let json = output.json();
        for (name, unit) in report::END_TO_END {
            assert!(json.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing");
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
        }
        let traced = run("graph_families", &small(3, true, 6)).expect("traced run");
        assert_eq!(traced.metrics.len(), report::PER_LAYER.len());
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse(&args("--workload sos_families --seed 1 --seconds 2 --trace 0")).is_ok());
        assert!(parse(&args("--workload nope --seed 1 --seconds 2 --trace 0")).is_err());
        assert!(parse(&args("--workload sos_families --seed 1 --seconds 2 --trace 2")).is_err());
        assert!(parse(&args("--workload sos_families --seed 1 --trace 0")).is_err());
    }
}
