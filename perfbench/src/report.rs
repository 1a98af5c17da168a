//! Run configuration, the metric catalogue, the per-run collector and the
//! result line.
//!
//! Every metric the benchmark can print is named once, with its unit, in
//! [`END_TO_END`] or [`PER_LAYER`]. An untraced run prints every end-to-end
//! metric; a traced run prints every per-layer metric, reading 0 for the
//! layers its workload never calls.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("recon_p50_ms", "ms"),
    ("recon_p99_ms", "ms"),
    ("recon_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("wire_bytes_per_recon", "bytes"),
    ("rounds_per_recon", "rounds"),
    ("success_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The five set-of-sets families of `sos_families`, in catalogue order.
pub const SOS_FAMILIES: [&str; 5] =
    ["naive", "ioi", "cascading", "multiround", "cascading_unknown"];

/// The three graph families of `graph_families`, in catalogue order.
pub const GRAPH_FAMILIES: [&str; 3] = ["degree_order", "degree_neighborhood", "forest"];

/// Per-layer metrics, `(name, unit)`, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.client_cpu_ms_per_recon", "ms"),
    ("runtime.wait_ms_per_recon", "ms"),
    ("runtime.connect_ms", "ms"),
    ("store.daemon_cpu_ms_per_recon", "ms"),
    ("store.mutate_us_per_key", "us"),
    ("store.snapshot_ms", "ms"),
    ("store.digest_serve_us", "us"),
    ("store.estimate_bound_us", "us"),
    ("store.snapshots_per_1k_writes", "count"),
    ("estimator.strata_build_ms", "ms"),
    ("estimator.rung_over_true_d", "ratio"),
    ("estimator.bytes_per_recon", "bytes"),
    ("set.bob_fold_ms", "ms"),
    ("set.full_digest_builds_per_recon", "count"),
    ("iblt.subtract_decode_us", "us"),
    ("iblt.decode_rescues_per_recon", "count"),
    ("iblt.rescue_failures_per_recon", "count"),
    ("protocol.messages_per_recon", "count"),
    ("protocol.bytes_a2b_per_recon", "bytes"),
    ("protocol.bytes_b2a_per_recon", "bytes"),
    ("protocol.link_self_ms_per_recon", "ms"),
    ("protocol.pool_hit_ratio", "ratio"),
    ("sos.construct_ms_per_recon", "ms"),
    ("sos.encode_ms_per_recon", "ms"),
    ("sos.decode_ms_per_recon", "ms"),
    ("sos.naive.session_ms", "ms"),
    ("sos.naive.wire_bytes", "bytes"),
    ("sos.naive.attempts", "count"),
    ("sos.ioi.session_ms", "ms"),
    ("sos.ioi.wire_bytes", "bytes"),
    ("sos.ioi.attempts", "count"),
    ("sos.cascading.session_ms", "ms"),
    ("sos.cascading.wire_bytes", "bytes"),
    ("sos.cascading.attempts", "count"),
    ("sos.multiround.session_ms", "ms"),
    ("sos.multiround.wire_bytes", "bytes"),
    ("sos.multiround.attempts", "count"),
    ("sos.cascading_unknown.session_ms", "ms"),
    ("sos.cascading_unknown.wire_bytes", "bytes"),
    ("sos.cascading_unknown.attempts", "count"),
    ("graph.construct_ms_per_recon", "ms"),
    ("graph.encode_ms_per_recon", "ms"),
    ("graph.decode_ms_per_recon", "ms"),
    ("graph.degree_order.session_ms", "ms"),
    ("graph.degree_order.wire_bytes", "bytes"),
    ("graph.degree_order.failed", "ratio"),
    ("graph.degree_neighborhood.session_ms", "ms"),
    ("graph.degree_neighborhood.wire_bytes", "bytes"),
    ("graph.degree_neighborhood.failed", "ratio"),
    ("graph.forest.session_ms", "ms"),
    ("graph.forest.wire_bytes", "bytes"),
    ("graph.forest.failed", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.replayed_share_of_recon_p50", "ratio"),
];

/// How many of a run's `total` set-ups come before the measuring loop. The
/// rest come after it, so that the median set-up time samples the host at
/// both ends of the run rather than only in its first seconds.
pub fn setups_before_loop(total: usize) -> usize {
    total - total / 2
}

/// Input size: the benchmark's own, or a small one for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` and the note describe.
    Full,
    /// Small inputs with the same shape, for fast self-tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Small,
}

/// A timed loop stops early once it has run this many times its seconds, so
/// a run on a much slower host still ends in time.
pub const MAX_STRETCH: f64 = 2.0;

/// A workload's loop length: the cycles it runs per second of `--seconds`,
/// and the fewest it runs (also the prefix its counts are kept over).
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// Cycles per second of `--seconds`: about what a 2-vCPU VM completes.
    pub cycles_per_s: f64,
    /// The fewest cycles of a timed run.
    pub min_cycles: usize,
}

/// How long the measuring loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// A fixed number of cycles: the seconds times the workload's
    /// [`Pace::cycles_per_s`], and at least its [`Pace::min_cycles`]. A host
    /// at that pace measures for the seconds. The count does not depend on
    /// the clock, so a run of a seed attempts the same operations every time
    /// and `attempted` and `failed` repeat exactly. Only a host so slow that
    /// the loop passes [`MAX_STRETCH`] times the seconds ends it early.
    Seconds(f64),
    /// Exactly this many cycles (self-tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Cycles(usize),
}

impl Budget {
    /// `true` while the loop should start another cycle.
    pub fn more(&self, done: usize, elapsed_s: f64, pace: Pace) -> bool {
        match *self {
            Budget::Cycles(cycles) => done < cycles,
            Budget::Seconds(seconds) => {
                let cycles = ((seconds * pace.cycles_per_s).ceil() as usize).max(pace.min_cycles);
                done < cycles && elapsed_s < seconds * MAX_STRETCH
            }
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: every input is a pure function of it.
    pub seed: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Loop length.
    pub budget: Budget,
}

impl RunConfig {
    /// In a traced run every odd cycle is traced and every even one is not,
    /// so the two halves see the same inputs and the same state drift and
    /// their throughput ratio is the tracing overhead.
    pub fn traced(&self, cycle: usize) -> bool {
        self.trace && cycle % 2 == 1
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Catalogue unit.
    pub unit: &'static str,
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Samples per window of [`windowed_median`].
pub const WINDOW: usize = 50;

/// The median of each window of [`WINDOW`] consecutive samples, averaged over
/// the windows; the median of all samples when there is no full window. A
/// shared host runs this benchmark fast for some seconds and up to 1.5 times
/// slower for others. The median of a whole run jumps by that factor when the
/// slow share of the run crosses one half; the mean of window medians moves
/// in proportion to the slow share and still ignores single outliers.
pub fn windowed_median(samples: &[f64]) -> f64 {
    if samples.len() < WINDOW {
        return quantile(samples, 0.50);
    }
    let medians: Vec<f64> = samples.chunks_exact(WINDOW).map(|w| quantile(w, 0.50)).collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Milliseconds between two instants.
pub fn ms(start: Instant, end: Instant) -> f64 {
    (end - start).as_secs_f64() * 1e3
}

/// A short name for an error's kind: its variant name.
pub fn error_kind(error: &recon_base::ReconError) -> String {
    format!("{error:?}").chars().take_while(|c| c.is_ascii_alphanumeric()).collect()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Successful reconciliations of one family over the counted prefix.
#[derive(Debug, Clone, Copy, Default)]
struct FamilyCounts {
    ok: u64,
    bytes: u64,
    rounds: u64,
}

/// End-to-end bookkeeping of one run. Counts (bytes, rounds, failures) are
/// kept over a fixed prefix of cycles so they repeat exactly for a seed;
/// timings cover every untraced cycle.
#[derive(Debug)]
pub struct Collector {
    prefix: usize,
    recon_ms: BTreeMap<usize, Vec<f64>>,
    write_ms: Vec<f64>,
    loop_s: [f64; 2],
    cycles: [u64; 2],
    prefix_ops: u64,
    prefix_failed: u64,
    prefix_families: BTreeMap<usize, FamilyCounts>,
    /// Every reconciliation and daemon write attempted, traced or not.
    pub attempted: u64,
    /// Every attempt that ended in a typed error.
    pub failed: u64,
    /// Failures by error kind.
    pub failures: BTreeMap<String, u64>,
    /// Set-up times of every set-up in the run, seconds.
    pub setup_s: Vec<f64>,
}

impl Collector {
    /// A collector counting over the first `prefix` cycles.
    pub fn new(prefix: usize) -> Self {
        Self {
            prefix,
            recon_ms: BTreeMap::new(),
            write_ms: Vec::new(),
            loop_s: [0.0; 2],
            cycles: [0; 2],
            prefix_ops: 0,
            prefix_failed: 0,
            prefix_families: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: BTreeMap::new(),
            setup_s: Vec::new(),
        }
    }

    fn counted(&self, cycle: usize, traced: bool) -> bool {
        !traced && cycle < self.prefix
    }

    fn attempt<T>(
        &mut self,
        cycle: usize,
        traced: bool,
        result: &Result<T, recon_base::ReconError>,
    ) {
        self.attempted += 1;
        let counted = self.counted(cycle, traced);
        if counted {
            self.prefix_ops += 1;
        }
        if let Err(error) = result {
            self.failed += 1;
            *self.failures.entry(error_kind(error)).or_default() += 1;
            if counted {
                self.prefix_failed += 1;
            }
        }
    }

    /// One daemon write call and its latency. A write over the wire can fail,
    /// so it counts as an attempt.
    pub fn write<T>(
        &mut self,
        cycle: usize,
        traced: bool,
        latency_ms: f64,
        result: &Result<T, recon_base::ReconError>,
    ) {
        self.attempt(cycle, traced, result);
        if result.is_ok() {
            self.write_latency(traced, latency_ms);
        }
    }

    /// The latency of one in-process write batch. Such a write cannot fail,
    /// so it is not an attempt and leaves `success_ratio` to the
    /// reconciliations.
    pub fn write_latency(&mut self, traced: bool, latency_ms: f64) {
        if !traced {
            self.write_ms.push(latency_ms);
        }
    }

    /// One reconciliation of `family`, its latency and, on success, its
    /// `CommStats`. The latency is kept whatever the result: the caller waits
    /// for a detected failure too.
    pub fn recon<T>(
        &mut self,
        cycle: usize,
        traced: bool,
        family: usize,
        latency_ms: f64,
        result: &Result<T, recon_base::ReconError>,
        stats: Option<recon_base::CommStats>,
    ) {
        self.attempt(cycle, traced, result);
        if traced {
            return;
        }
        self.recon_ms.entry(family).or_default().push(latency_ms);
        if let (true, Some(stats)) = (self.counted(cycle, traced), stats) {
            let counts = self.prefix_families.entry(family).or_default();
            counts.ok += 1;
            counts.bytes += stats.total_bytes() as u64;
            counts.rounds += stats.rounds as u64;
        }
    }

    /// Mean over families of each family's mean per successful
    /// reconciliation. Every family gets the same share of attempts, so
    /// weighting them equally keeps the figure from moving when one family's
    /// failure count does.
    fn per_family_mean(&self, value: impl Fn(&FamilyCounts) -> u64) -> f64 {
        let means: Vec<f64> = self
            .prefix_families
            .values()
            .map(|counts| ratio(value(counts) as f64, counts.ok as f64))
            .collect();
        ratio(means.iter().sum(), means.len() as f64)
    }

    /// Mean over families of each family's [`windowed_median`]. The families
    /// of a rotation differ in cost, so the median of all samples together
    /// sits where two families' latencies meet and jumps between them; each
    /// family's own median does not.
    fn recon_p50(&self) -> f64 {
        let medians: Vec<f64> = self.recon_ms.values().map(|v| windowed_median(v)).collect();
        ratio(medians.iter().sum(), medians.len() as f64)
    }

    /// Every untraced reconciliation latency, all families together.
    fn all_recon_ms(&self) -> Vec<f64> {
        self.recon_ms.values().flatten().copied().collect()
    }

    /// Timed loop time of one finished cycle (its program calls only).
    pub fn cycle_time(&mut self, traced: bool, seconds: f64) {
        self.loop_s[traced as usize] += seconds;
        self.cycles[traced as usize] += 1;
    }

    /// Untraced over traced throughput (a traced run's overhead).
    pub fn trace_overhead_ratio(&self) -> f64 {
        let rate = |class: usize| ratio(self.cycles[class] as f64, self.loop_s[class]);
        ratio(rate(0), rate(1))
    }

    /// The end-to-end metrics of the untraced cycles.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let values = [
            self.recon_p50(),
            quantile(&self.all_recon_ms(), 0.99),
            ratio(self.cycles[0] as f64, self.loop_s[0]),
            windowed_median(&self.write_ms),
            quantile(&self.write_ms, 0.99),
            self.per_family_mean(|counts| counts.bytes),
            self.per_family_mean(|counts| counts.rounds),
            ratio((self.prefix_ops - self.prefix_failed) as f64, self.prefix_ops as f64),
            quantile(&self.setup_s, 0.50),
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }

    /// Number of untraced reconciliations behind the latency quantiles.
    pub fn recon_samples(&self) -> usize {
        self.recon_ms.values().map(Vec::len).sum()
    }
}

/// Per-layer values by name; anything not set reads 0 (a layer the workload
/// never calls).
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    /// Set one per-layer value. Panics on a name outside the catalogue, which
    /// is a bug in this benchmark.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(PER_LAYER.iter().any(|&(known, _)| known == name), "unknown metric {name}");
        self.values.insert(name, value);
    }

    /// Every catalogue metric, in catalogue order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.values.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// The outcome of one workload run.
#[derive(Debug)]
pub struct RunOutput {
    /// Operations attempted (reconciliations and daemon writes).
    pub attempted: u64,
    /// Operations that ended in a typed error.
    pub failed: u64,
    /// Failures by error kind.
    pub failures: BTreeMap<String, u64>,
    /// Metrics to print: end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl RunOutput {
    /// Assemble the output of a finished run.
    pub fn new(collector: &Collector, trace: bool, layers: &Layers, notes: Vec<String>) -> Self {
        Self {
            attempted: collector.attempted,
            failed: collector.failed,
            failures: collector.failures.clone(),
            metrics: if trace { layers.metrics() } else { collector.end_to_end() },
            notes,
        }
    }

    /// The value of metric `name`, if printed.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Print notes, one line per metric, then the result line last.
    pub fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        if !self.failures.is_empty() {
            println!("failures by kind: {:?}", self.failures);
        }
        for m in &self.metrics {
            println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let values: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 51.0);
        assert_eq!(quantile(&values, 0.99), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_median_follows_the_slow_share() {
        // Four windows, the first `slow_windows` of them at twice the latency.
        let run = |slow_windows: usize| -> Vec<f64> {
            (0..4 * WINDOW).map(|i| if i < slow_windows * WINDOW { 2.0 } else { 1.0 }).collect()
        };
        assert_eq!(windowed_median(&run(1)), 1.25);
        assert_eq!(windowed_median(&run(3)), 1.75);
        assert_eq!(windowed_median(&[3.0, 1.0, 2.0]), 2.0);
    }

    /// A timed run's length is a cycle count, whatever the clock reads, until
    /// the loop has stretched to `MAX_STRETCH` times its seconds.
    #[test]
    fn timed_loops_run_a_fixed_number_of_cycles() {
        let pace = Pace { cycles_per_s: 10.0, min_cycles: 5 };
        let budget = Budget::Seconds(2.5);
        for elapsed_s in [0.0, 1.0, 2.5, 4.9] {
            assert!(budget.more(24, elapsed_s, pace));
            assert!(!budget.more(25, elapsed_s, pace));
        }
        assert!(!budget.more(3, 2.5 * MAX_STRETCH, pace));
        assert!(Budget::Seconds(0.1).more(4, 0.15, pace), "at least min_cycles");
    }

    /// The catalogue and `BENCHMARK.json` name the same metrics with the same
    /// units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), owned(END_TO_END));
        assert_eq!(section("per_layer"), owned(PER_LAYER));
    }
}
