//! The benchmark behind `BENCHMARK.json`.
//!
//! Three seeded workloads drive the program only through its public
//! functions:
//!
//! * [`fleet`] — a sharded, migrating PAS fleet (`cluster` over
//!   `hypervisor`);
//! * [`hosts`] — single-host paper scenarios plus one `MultiHost` and
//!   one `SmtHost` (`hypervisor` alone);
//! * [`serve`] — one closed-loop client against an in-process
//!   `server::Server` (`server` over `campaign`).
//!
//! Each workload repeats a fixed, seed-determined *pass* until the
//! run's time is spent (at least two passes). End-to-end metrics come
//! from passes with every instrument off. A traced run
//! (`--trace 1`) alternates untraced passes with traced ones, reads the
//! per-layer metrics off the traced passes, and compares the two kinds
//! for the tracing overhead. Every pass also yields deterministic
//! counters (simulated statistics and work sizes); they must repeat
//! exactly across passes, across traced and untraced passes, and
//! across runs of one seed.

pub mod fleet;
pub mod hosts;
pub mod serve;
pub mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use spans::Spans;

/// The workloads, by their `--workload` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// See [`fleet`].
    Fleet,
    /// See [`hosts`].
    Hosts,
    /// See [`serve`].
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Fleet, Workload::Hosts, Workload::Serve];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Hosts => "hosts",
            Workload::Serve => "serve",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seeds every generated input.
    pub seed: u64,
    /// Measurement time; passes repeat until it is spent.
    pub seconds: f64,
    /// Alternate untraced and traced passes and report the per-layer
    /// metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Corrupt one output before it is checked, so the self-test can
    /// prove a wrong output is counted as a failed operation.
    pub inject_fault: bool,
}

/// A metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// A deterministic counter: a pure function of the seed that must
    /// repeat exactly (simulated results and work sizes).
    pub exact: bool,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: true,
    }
}

/// End-to-end metrics, measured with every instrument off and printed
/// on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("host_s_per_s", "host-s/s"),
    m("turnaround_p50_s", "s"),
    m("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, read off traced passes and printed on every
/// workload; a layer the workload bypasses reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("failed_frac", "ratio"),
    exact("pas_credit_err_pp", "pp"),
    m("cluster.build_ms", "ms"),
    m("cluster.epoch_ms_p50", "ms"),
    m("cluster.pool_busy_frac", "ratio"),
    exact("cluster.hosts", "count"),
    exact("cluster.vms", "count"),
    exact("cluster.migrations", "count"),
    exact("cluster.energy_mj", "MJ"),
    exact("cluster.sla_ratio", "ratio"),
    m("hypervisor.host_slice_ms", "ms"),
    m("hypervisor.sched_acct_ms", "ms"),
    m("hypervisor.governor_ms", "ms"),
    m("hypervisor.snapshot_ms", "ms"),
    m("hypervisor.slice_ns_per_host_s", "ns/host-s"),
    exact("hypervisor.fused_slices", "count"),
    m("hypervisor.credit_ms", "ms"),
    m("hypervisor.sedf_ms", "ms"),
    m("hypervisor.pas_ms", "ms"),
    m("hypervisor.multihost_ms", "ms"),
    m("hypervisor.smthost_ms", "ms"),
    exact("cpumodel.freq_transitions", "count"),
    exact("cpumodel.energy_kj", "kJ"),
    exact("trace.events_per_host_s", "1/host-s"),
    m("trace.overhead_pct", "%"),
    m("campaign.parse_ms", "ms"),
    m("campaign.expand_ms", "ms"),
    m("campaign.simulate_ms", "ms"),
    m("campaign.runs_cpu_ms", "ms"),
    m("campaign.reduce_ms", "ms"),
    m("campaign.export_ms", "ms"),
    exact("campaign.runs", "count"),
    m("server.submit_ms_p50", "ms"),
    m("server.status_ms_p50", "ms"),
    m("server.status_ms_p99", "ms"),
    m("server.summary_ms_p50", "ms"),
    m("server.refused_ms_p50", "ms"),
    m("server.mw.request_log_ms", "ms"),
    m("server.mw.token_auth_ms", "ms"),
    m("server.mw.rate_limit_ms", "ms"),
    m("server.mw.spec_validation_ms", "ms"),
    m("server.mw.handler_ms", "ms"),
    m("server.campaign_run_ms", "ms"),
    m("server.requests", "count"),
    exact("server.responses_4xx", "count"),
    exact("server.responses_5xx", "count"),
];

fn def(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: epochs (fleet), scenarios (hosts) or
    /// requests (serve).
    pub attempted: u64,
    /// Attempted operations that panicked or produced a wrong output.
    pub failed: u64,
    /// One line per failure, for stderr.
    pub failures: Vec<String>,
    /// `(name, value)` in catalogue order: the end-to-end metrics for
    /// an untraced run, the per-layer ones for a traced run.
    pub metrics: Vec<(&'static str, f64)>,
    /// The deterministic counters of the first pass that produced each.
    pub counters: BTreeMap<&'static str, f64>,
    /// Every span the run recorded.
    pub spans: Spans,
}

impl Outcome {
    /// `true` when no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// metrics with their units.
    #[must_use]
    pub fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(*value),
                def(name).unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// The deterministic counters as one JSON object.
    #[must_use]
    pub fn counters_json(&self) -> String {
        let body: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite number as JSON, all digits kept (Rust's shortest
/// round-trip form never uses an exponent).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Runs one workload as `cfg` says.
#[must_use]
pub fn run(cfg: &Config) -> Outcome {
    let mut run = Run::new(cfg);
    let mut reported = match cfg.workload {
        Workload::Fleet => fleet::run(&mut run),
        Workload::Hosts => hosts::run(&mut run),
        Workload::Serve => serve::run(&mut run),
    };
    if run.attempted == 0 {
        run.lost(1, "no operation was attempted");
    }
    reported.insert("peak_rss_mb", peak_rss_kib() / 1024.0);
    reported.insert("failed_frac", run.failed as f64 / run.attempted as f64);
    for (name, value) in &run.counters {
        reported.entry(name).or_insert(*value);
    }
    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    let metrics = wanted
        .iter()
        .map(|d| (d.name, reported.get(d.name).copied().unwrap_or(0.0)))
        .collect();
    Outcome {
        attempted: run.attempted,
        failed: run.failed,
        failures: run.failures,
        metrics,
        counters: run.counters,
        spans: run.spans,
    }
}

/// Values a workload reports, keyed by catalogue name.
pub(crate) type Reported = BTreeMap<&'static str, f64>;

/// The state every workload shares: spans, the failure tally, the
/// pass schedule and the cross-pass counter check.
pub(crate) struct Run<'a> {
    pub cfg: &'a Config,
    pub spans: Spans,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    counters: BTreeMap<&'static str, f64>,
    passes: usize,
    started: Instant,
    longest_pass_s: f64,
    fault_pending: bool,
}

impl<'a> Run<'a> {
    fn new(cfg: &'a Config) -> Self {
        Run {
            cfg,
            spans: Spans::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            counters: BTreeMap::new(),
            passes: 0,
            started: Instant::now(),
            longest_pass_s: 0.0,
            fault_pending: cfg.inject_fault,
        }
    }

    /// Starts the next pass if the run's time allows one (two passes
    /// always run, so counters can be compared); returns whether that
    /// pass is traced. Traced runs alternate untraced and traced
    /// passes, starting untraced.
    pub fn next_pass(&mut self) -> Option<bool> {
        let elapsed = self.started.elapsed().as_secs_f64();
        if self.passes >= 2 && elapsed + self.longest_pass_s > self.cfg.seconds {
            return None;
        }
        let traced = self.cfg.trace && self.passes % 2 == 1;
        self.passes += 1;
        self.spans.set_traced(traced);
        Some(traced)
    }

    /// Records how long the pass that just ended took, so the next
    /// one is only started if it fits.
    pub fn pass_done(&mut self, pass_s: f64) {
        self.longest_pass_s = self.longest_pass_s.max(pass_s);
    }

    /// One attempted operation: `f` runs under `catch_unwind`; a panic
    /// or an `Err` (a wrong output) counts it as failed without ending
    /// the run.
    pub fn op<T>(
        &mut self,
        what: &str,
        f: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(wrong)) => {
                self.fail(format!("{what}: {wrong}"));
                None
            }
            Err(_) => {
                self.fail(format!("{what}: panicked"));
                None
            }
        }
    }

    /// Checks the output of the operation just attempted: an `Err`
    /// counts that operation as failed.
    pub fn check(&mut self, output: Result<(), String>) -> bool {
        match output {
            Ok(()) => true,
            Err(wrong) => {
                self.fail(wrong);
                false
            }
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Counts `ops` operations as attempted and failed: work that
    /// could not run at all, or a wrong output no single operation
    /// owns.
    pub fn lost(&mut self, ops: u64, why: &str) {
        self.attempted += ops;
        self.failed += ops;
        self.failures.push(why.to_owned());
    }

    /// `true` exactly once when the run was asked to corrupt an
    /// output: the caller then corrupts the next output it checks.
    pub fn take_fault(&mut self) -> bool {
        std::mem::take(&mut self.fault_pending)
    }

    /// Files one pass's deterministic counters: the first value of
    /// each is kept, and a pass that disagrees with it bit for bit
    /// counts as one more, failed, operation.
    pub fn counters(&mut self, pass: &Reported) {
        let mut changed = Vec::new();
        for (&name, &value) in pass {
            debug_assert!(def(name).exact, "{name} is not a deterministic counter");
            let first = *self.counters.entry(name).or_insert(value);
            if first.to_bits() != value.to_bits() {
                changed.push(format!("{name} {first} then {value}"));
            }
        }
        if !changed.is_empty() {
            self.lost(
                1,
                &format!("counters changed between passes: {}", changed.join(", ")),
            );
        }
    }
}

/// The process's peak resident set in KiB (`VmHWM`), or 0 where
/// `/proc/self/status` does not exist.
fn peak_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0.0)
}

/// Worker threads for the parallel parts of a workload.
pub(crate) fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Wall times of a pass's operations and set-ups, collected over the
/// untraced passes: item `i` is the `i`-th operation of every pass (the
/// same deterministic work each time), with its simulated
/// host-seconds.
///
/// A shared machine slows work down by tens of percent for seconds to
/// minutes at a time and never speeds it up, so an operation's cost is
/// its fastest repeat across the run's passes: medians and sums over
/// repeats move with whatever share of the run a slow stretch covered.
#[derive(Default)]
pub(crate) struct Items {
    host_s: Vec<f64>,
    fastest_s: Vec<f64>,
    setups: Vec<f64>,
}

impl Items {
    /// Files item `i`'s wall time in one pass.
    pub fn record(&mut self, i: usize, host_s: f64, wall_s: f64) {
        if self.fastest_s.len() <= i {
            self.fastest_s.resize(i + 1, f64::INFINITY);
            self.host_s.resize(i + 1, 0.0);
        }
        self.host_s[i] = host_s;
        self.fastest_s[i] = self.fastest_s[i].min(wall_s);
    }

    /// Files one pass's set-up time: the fastest of its set-ups, by the
    /// same reasoning as for operations.
    pub fn setup(&mut self, wall_s: f64) {
        self.setups.push(wall_s);
    }

    /// Simulated host-seconds of a pass over the sum of the items'
    /// fastest wall times.
    pub fn host_s_per_s(&self) -> f64 {
        ratio(self.host_s.iter().sum(), self.fastest_s.iter().sum())
    }

    /// The median over items of their fastest wall time, seconds.
    pub fn p50_s(&self) -> f64 {
        spans::median(&self.fastest_s)
    }

    /// The median over passes of their set-up time, seconds.
    pub fn setup_s(&self) -> f64 {
        spans::median(&self.setups)
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer no pass measured).
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `new / old − 1` as a percentage, 0 when `old` is 0.
pub(crate) fn overhead_pct(old: f64, new: f64) -> f64 {
    if old > 0.0 {
        (new / old - 1.0) * 100.0
    } else {
        0.0
    }
}
