//! The perf-trajectory harness behind `repro bench`.
//!
//! Runs a *fixed* suite of macro-benchmarks — single-host pi-app and
//! web-app runs, [`cluster::Fleet`] epochs at three population sizes,
//! one [`campaign`] sweep, the 96-VM fleet with the event tracer off
//! and on (the tracing-overhead A/B), and datacenter-scale fleets —
//! with one warmup pass and `R` timed repetitions each, and reduces
//! the wall-clock times to median/min/max per benchmark. The trace A/B
//! pair runs its repetitions interleaved (off, on, off, on, …) so the
//! overhead ratio survives machine-noise drift; see
//! [`Benchmark::interleaved_with_next`].
//!
//! # The `BENCH_<date>.json` schema (`pas-repro-bench/v1`)
//!
//! ```json
//! {
//!   "schema": "pas-repro-bench/v1",
//!   "created_utc": "2026-08-07",
//!   "quick": false,
//!   "warmup": 1,
//!   "repetitions": 5,
//!   "benchmarks": [
//!     { "name": "fleet_medium", "group": "fleet", "reps": 5,
//!       "median_ms": 123.4, "min_ms": 120.0, "max_ms": 130.1,
//!       "rss_peak_kb": 20480 }
//!   ],
//!   "pairs": [
//!     { "baseline": "fleet_96vms_trace_off",
//!       "measured": "fleet_96vms_trace_on",
//!       "reps": 15, "median_overhead_pct": 1.1 }
//!   ]
//! }
//! ```
//!
//! Field semantics, fixed for every `v1` producer and consumer:
//!
//! * `schema` — always `"pas-repro-bench/v1"`; bump on breaking change.
//! * `created_utc` — UTC calendar date the suite ran, `YYYY-MM-DD`.
//! * `quick` — `true` when the suite ran shortened simulations.
//! * `warmup` / `repetitions` — untimed passes before, timed passes
//!   per benchmark.
//! * per benchmark: `median_ms`/`min_ms`/`max_ms` of the timed reps'
//!   wall-clock, and `rss_peak_kb` — the *process* peak RSS (Linux
//!   `VmHWM`) sampled after the benchmark's last repetition. The
//!   high-water mark is monotone over the process lifetime, so within
//!   one file it reads as "peak RSS of the suite up to and including
//!   this benchmark"; on non-Linux platforms it is reported as 0.
//! * `pairs` — one entry per interleaved A/B pair (see [`PairResult`]):
//!   the pair's arm names, repetition-pair count (3× `repetitions`),
//!   and the median per-repetition overhead percentage, which may be
//!   negative under noise. Empty when the suite has no pairs.
//!
//! Wall-clock numbers are machine-dependent by nature; the JSON is a
//! *trajectory* artefact (compare PRs on the same runner class), not a
//! determinism artefact.

use std::time::Instant;

use campaign::CampaignSpec;
use cluster::{Fleet, FleetConfig, VmSpec};
use governors::StableOndemand;
use hypervisor::host::{HostConfig, SchedulerKind};
use hypervisor::vm::VmConfig;
use pas_core::Credit;
use serde::{Serialize, Value};
use simkernel::{SimDuration, SimRng, SimTime};
use workloads::{ArrivalModel, Intensity, PiApp, Profile, WebApp};

/// The schema identifier written to and required of every artefact.
pub const SCHEMA: &str = "pas-repro-bench/v1";

/// One benchmark: a name, a display group, and the workload closure.
pub struct Benchmark {
    /// Stable identifier (a JSON key across PRs — never reuse).
    pub name: &'static str,
    /// Display group ("host", "fleet", "campaign").
    pub group: &'static str,
    /// When `true`, this benchmark and the next suite entry form an
    /// interleaved A/B pair (see [`Benchmark::interleaved_with_next`]).
    pub pair_with_next: bool,
    runner: Box<dyn FnMut()>,
}

impl Benchmark {
    /// Wraps a closure as a named benchmark.
    pub fn new(name: &'static str, group: &'static str, runner: impl FnMut() + 'static) -> Self {
        Benchmark {
            name,
            group,
            pair_with_next: false,
            runner: Box::new(runner),
        }
    }

    /// Marks this benchmark and the *next* suite entry as an
    /// interleaved A/B pair: the runner alternates their repetitions
    /// (A, B, A, B, …) instead of completing one arm before the other.
    ///
    /// Back-to-back repetitions let slow machine drift (thermal
    /// throttling, a co-tenant waking up) land entirely on one arm and
    /// masquerade as a large speedup or regression. Alternating makes
    /// adjacent repetitions of the two arms sample the same noise, so
    /// the per-repetition ratio cancels drift; the pair's median ratio
    /// is reported in [`BenchReport::pairs`]. The pair runs 3× the
    /// suite repetitions (the ratio is what it exists for, and more
    /// pairs tighten the median), and both arms still get ordinary
    /// per-arm entries in the artefact.
    #[must_use]
    pub fn interleaved_with_next(mut self) -> Self {
        self.pair_with_next = true;
        self
    }
}

/// Measured result of one benchmark.
#[derive(Debug, Clone, Serialize)]
pub struct BenchResult {
    /// The benchmark's stable name.
    pub name: String,
    /// Its display group.
    pub group: String,
    /// Timed repetitions the statistics are over.
    pub reps: usize,
    /// Median wall-clock per repetition, milliseconds.
    pub median_ms: f64,
    /// Fastest repetition, milliseconds.
    pub min_ms: f64,
    /// Slowest repetition, milliseconds.
    pub max_ms: f64,
    /// Process peak RSS after the last repetition, KiB (Linux `VmHWM`;
    /// 0 where unavailable). Monotone across the suite.
    pub rss_peak_kb: u64,
}

/// The paired statistic of one interleaved A/B pair: the median over
/// repetitions of the per-repetition ratio `b_i / a_i - 1`, as a
/// percentage. Because each repetition of `b` runs immediately after
/// its paired repetition of `a`, machine-noise drift hits both arms of
/// a pair almost equally and cancels in the ratio — on a noisy runner
/// this statistic resolves single-digit-percent overheads that the
/// ratio of the two arms' medians cannot.
#[derive(Debug, Clone, Serialize)]
pub struct PairResult {
    /// Name of the baseline arm (`a`).
    pub baseline: String,
    /// Name of the measured arm (`b`).
    pub measured: String,
    /// Interleaved repetition pairs the median is over.
    pub reps: usize,
    /// Median per-repetition overhead of `b` over `a`, percent. May be
    /// negative when the measurement noise exceeds the true overhead.
    pub median_overhead_pct: f64,
}

/// A finished suite: everything `BENCH_<date>.json` holds.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// UTC calendar date of the run (`YYYY-MM-DD`).
    pub created_utc: String,
    /// Whether the suite ran shortened simulations.
    pub quick: bool,
    /// Untimed warmup passes per benchmark.
    pub warmup: usize,
    /// Timed repetitions per benchmark.
    pub repetitions: usize,
    /// Per-benchmark results, in suite order.
    pub benchmarks: Vec<BenchResult>,
    /// Paired A/B statistics, one per interleaved pair in the suite
    /// (empty when the suite has none).
    pub pairs: Vec<PairResult>,
}

impl BenchReport {
    /// The artefact's canonical file name for its creation date.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.created_utc)
    }

    /// Serialises the report to pretty JSON.
    ///
    /// # Panics
    ///
    /// Never in practice: every field is finite by construction.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("finite fields")
    }

    /// A compact stdout table: one line per benchmark.
    #[must_use]
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench suite ({} benchmarks, {} reps + {} warmup{}):",
            self.benchmarks.len(),
            self.repetitions,
            self.warmup,
            if self.quick { ", quick" } else { "" }
        );
        let width = self
            .benchmarks
            .iter()
            .map(|b| b.name.len())
            .max()
            .unwrap_or(4);
        for b in &self.benchmarks {
            let _ = writeln!(
                out,
                "  {:<width$}  median {:>9.2} ms  (min {:>9.2}, max {:>9.2})  rss {:>7} KiB",
                b.name, b.median_ms, b.min_ms, b.max_ms, b.rss_peak_kb
            );
        }
        out
    }
}

/// The process's peak resident-set size in KiB (`VmHWM` from
/// `/proc/self/status`), or 0 where that interface does not exist.
#[must_use]
pub fn rss_peak_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    return rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Converts days since the Unix epoch to a civil `(year, month, day)`
/// (Gregorian; the standard era-decomposition algorithm).
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = u32::try_from(doy - (153 * mp + 2) / 5 + 1).expect("day in [1,31]");
    let m = u32::try_from(if mp < 10 { mp + 3 } else { mp - 9 }).expect("month in [1,12]");
    (era * 400 + yoe + i64::from(m <= 2), m, d)
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock.
#[must_use]
pub fn utc_date_today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days(i64::try_from(secs / 86_400).expect("fits"));
    format!("{y:04}-{m:02}-{d:02}")
}

/// One timed pass of a benchmark's closure, in milliseconds.
fn time_once(bench: &mut Benchmark) -> f64 {
    let t0 = Instant::now();
    (bench.runner)();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Reduces a benchmark's timed repetitions to its [`BenchResult`].
fn reduce(bench: &Benchmark, mut times_ms: Vec<f64>) -> BenchResult {
    times_ms.sort_by(f64::total_cmp);
    BenchResult {
        name: bench.name.to_owned(),
        group: bench.group.to_owned(),
        reps: times_ms.len(),
        median_ms: times_ms[times_ms.len() / 2],
        min_ms: times_ms[0],
        max_ms: times_ms[times_ms.len() - 1],
        rss_peak_kb: rss_peak_kb(),
    }
}

/// Runs `benchmarks` with one warmup pass and `repetitions` timed
/// passes each, in order. Entries marked
/// [`interleaved_with_next`](Benchmark::interleaved_with_next)
/// alternate repetitions with their successor so A/B ratios stay
/// meaningful under machine-noise drift; their results are still
/// reported as two ordinary per-arm entries.
///
/// # Panics
///
/// Panics if `repetitions` is zero, or if the final benchmark is
/// marked `pair_with_next` (it has no successor to pair with).
pub fn run(mut benchmarks: Vec<Benchmark>, quick: bool, repetitions: usize) -> BenchReport {
    assert!(repetitions > 0, "need at least one timed repetition");
    const WARMUP: usize = 1;
    let mut results = Vec::with_capacity(benchmarks.len());
    let mut pairs = Vec::new();
    let mut i = 0;
    while i < benchmarks.len() {
        if benchmarks[i].pair_with_next {
            assert!(
                i + 1 < benchmarks.len(),
                "`{}` is pair_with_next but is the last benchmark",
                benchmarks[i].name
            );
            let (head, tail) = benchmarks.split_at_mut(i + 1);
            let (a, b) = (&mut head[i], &mut tail[0]);
            for _ in 0..WARMUP {
                (a.runner)();
                (b.runner)();
            }
            // 3x repetitions: the pair exists for its ratio, and the
            // median of per-pair ratios tightens with pair count at a
            // cost of seconds, not minutes.
            let pair_reps = repetitions * 3;
            let mut times_a = Vec::with_capacity(pair_reps);
            let mut times_b = Vec::with_capacity(pair_reps);
            for _ in 0..pair_reps {
                times_a.push(time_once(a));
                times_b.push(time_once(b));
            }
            let mut ratios: Vec<f64> = times_a
                .iter()
                .zip(&times_b)
                .map(|(ta, tb)| (tb / ta - 1.0) * 100.0)
                .collect();
            ratios.sort_by(f64::total_cmp);
            pairs.push(PairResult {
                baseline: a.name.to_owned(),
                measured: b.name.to_owned(),
                reps: pair_reps,
                median_overhead_pct: ratios[ratios.len() / 2],
            });
            results.push(reduce(a, times_a));
            results.push(reduce(b, times_b));
            i += 2;
        } else {
            let bench = &mut benchmarks[i];
            for _ in 0..WARMUP {
                (bench.runner)();
            }
            let times_ms = (0..repetitions).map(|_| time_once(bench)).collect();
            results.push(reduce(bench, times_ms));
            i += 1;
        }
    }
    BenchReport {
        schema: SCHEMA.to_owned(),
        created_utc: utc_date_today(),
        quick,
        warmup: WARMUP,
        repetitions,
        benchmarks: results,
        pairs,
    }
}

/// Runs the fixed macro-benchmark suite (see [`suite`]) with the
/// default repetition count (5, or 3 under `quick`).
#[must_use]
pub fn run_suite(quick: bool) -> BenchReport {
    run(suite(quick), quick, if quick { 3 } else { 5 })
}

/// A single-host pi-app run: a 50%-credit batch job racing a constant
/// background load, simulated to completion.
fn host_pi_app(quick: bool) {
    let mut host = HostConfig::optiplex_defaults(SchedulerKind::Pas).build();
    let fmax = host.fmax_mcps();
    let seconds = if quick { 30.0 } else { 120.0 };
    let pi = host.add_vm(
        VmConfig::new("pi", Credit::percent(50.0)),
        Box::new(PiApp::sized_for_seconds(seconds, fmax)),
    );
    host.add_vm(
        VmConfig::new("bg", Credit::percent(20.0)),
        Box::new(hypervisor::work::ConstantDemand::new(0.2 * fmax)),
    );
    let done = host.run_until_vm_finished(pi, SimTime::from_secs(3600));
    assert!(done.is_some(), "pi-app must finish within an hour");
}

/// A single-host web-app run: bursty Poisson arrivals under the
/// stabilised ondemand governor.
fn host_web_app(quick: bool) {
    let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit)
        .with_governor(Box::new(StableOndemand::new()))
        .build();
    let fmax = host.fmax_mcps();
    let secs = if quick { 60 } else { 300 };
    host.add_vm(
        VmConfig::new("web", Credit::percent(70.0)),
        Box::new(WebApp::new(
            Profile::active_for(SimDuration::from_secs(secs), Intensity::Fraction(0.5)),
            0.70 * fmax,
            fmax,
            ArrivalModel::Poisson {
                request_mcycles: 50.0,
                rng: SimRng::seed_from(7),
            },
        )),
    );
    host.run_for(SimDuration::from_secs(secs));
}

/// A mixed fleet population: one quarter web-tier-sized VMs, the rest
/// small steady tenants (4 GiB each → four VMs per Optiplex host).
fn fleet_population(n: usize) -> Vec<VmSpec> {
    (0..n)
        .map(|i| {
            let frac = if i % 4 == 0 { 0.20 } else { 0.05 };
            VmSpec::new(format!("vm{i}"), 4.0, frac)
        })
        .collect()
}

/// `Fleet` epochs over `n` VMs (the three population-size points).
fn fleet_epochs(n: usize, quick: bool) {
    let specs = fleet_population(n);
    let mut fleet = Fleet::build(FleetConfig::pas_defaults(), &specs);
    fleet.run_epochs(if quick { 3 } else { 10 }, 4);
    assert!(fleet.totals().energy_j > 0.0);
}

/// The 96-VM fleet from `fleet_epochs`, run with the event tracer
/// disabled or enabled — the A/B pair behind the documented tracing
/// overhead ceiling. The traced variant drains the merged trace at
/// the end so the cost of recording *and* collection is inside the
/// measurement, not just the per-event ring pushes.
fn fleet_traced(n: usize, quick: bool, traced: bool) {
    let specs = fleet_population(n);
    let mut fleet = Fleet::build(FleetConfig::pas_defaults(), &specs);
    if traced {
        fleet.enable_tracing(trace::DEFAULT_CAPACITY);
    }
    fleet.run_epochs(if quick { 3 } else { 10 }, 4);
    assert!(fleet.totals().energy_j > 0.0);
    if traced {
        let t = fleet.take_trace().expect("tracing was enabled");
        assert!(t.recorded() > 0, "a traced fleet records events");
        std::hint::black_box(t.events().len());
    }
}

/// A datacenter-scale fleet pass: a `hosts`-host population (four VMs
/// per Optiplex host), 16 shard controllers, and short 10 s control
/// epochs so a repetition stays affordable. `bounded` selects the
/// streaming-sketch statistics path (`with_bounded_stats`) or the
/// store-all baseline it is measured against. The suite runs the
/// sketch variants *before* the store-all one: `rss_peak_kb` is a
/// process high-water mark, so that order makes "store-all RSS above
/// sketch RSS" directly readable off the artefact.
fn fleet_scale(hosts: usize, quick: bool, bounded: bool) {
    let specs = fleet_population(hosts * 4);
    let cfg = FleetConfig::pas_defaults()
        .with_epoch(SimDuration::from_secs(10))
        .with_sharding(cluster::ShardConfig::new(16))
        .with_bounded_stats(bounded);
    let mut fleet = Fleet::build(cfg, &specs);
    fleet.run_epochs(if quick { 1 } else { 2 }, 4);
    assert!(fleet.totals().energy_j > 0.0);
}

/// One small campaign sweep: scheduler × credit, three seeds.
fn campaign_sweep() {
    let spec = CampaignSpec::from_json(
        r#"{
            "name": "bench-sweep",
            "scenario": {
                "kind": "host",
                "scheduler": "credit",
                "governor": "stable-ondemand",
                "duration_s": 300,
                "vms": [
                    { "name": "v20", "credit_pct": 20,
                      "workload": { "kind": "web-app", "intensity_pct": 100,
                                    "bursty": true } }
                ]
            },
            "sweep": [
                { "param": "scheduler", "values": ["credit", "pas"] },
                { "param": "credit_pct:v20", "values": [10, 20] }
            ],
            "seeds": { "base": 42, "replicates": 3 }
        }"#,
    )
    .expect("valid bench spec");
    let report = campaign::run(&spec, true, 2).expect("campaign runs");
    assert_eq!(report.total_runs, 12);
}

/// The fixed macro-benchmark suite `repro bench` runs, in order.
#[must_use]
pub fn suite(quick: bool) -> Vec<Benchmark> {
    vec![
        Benchmark::new("host_pi_app", "host", move || host_pi_app(quick)),
        Benchmark::new("host_web_app", "host", move || host_web_app(quick)),
        Benchmark::new("fleet_small_16vms", "fleet", move || {
            fleet_epochs(16, quick);
        }),
        Benchmark::new("fleet_medium_48vms", "fleet", move || {
            fleet_epochs(48, quick);
        }),
        Benchmark::new("fleet_large_96vms", "fleet", move || {
            fleet_epochs(96, quick);
        }),
        Benchmark::new("campaign_sweep", "campaign", campaign_sweep),
        // Tracing overhead A/B on the 96-VM fleet: off first, then on,
        // so the pair reads top-to-bottom as baseline → instrumented.
        // Interleaved: the overhead ratio is single-digit percent,
        // well below this runner's sequential run-to-run drift.
        Benchmark::new("fleet_96vms_trace_off", "trace_overhead", move || {
            fleet_traced(96, quick, false);
        })
        .interleaved_with_next(),
        Benchmark::new("fleet_96vms_trace_on", "trace_overhead", move || {
            fleet_traced(96, quick, true);
        }),
        // Datacenter scale: wall-clock + RSS at 1k and 10k hosts.
        // Sketch variants first — see `fleet_scale` on why order
        // matters for the RSS reading.
        Benchmark::new("fleet_scale_1k_sketch", "fleet_scale", move || {
            fleet_scale(1_000, quick, true);
        }),
        Benchmark::new("fleet_scale_10k_sketch", "fleet_scale", move || {
            fleet_scale(10_000, quick, true);
        }),
        Benchmark::new("fleet_scale_10k_storeall", "fleet_scale", move || {
            fleet_scale(10_000, quick, false);
        }),
    ]
}

// ---------------------------------------------------------------------------
// Schema validation (the CI gate for emitted artefacts).
// ---------------------------------------------------------------------------

fn field<'v>(map: &'v [(String, Value)], key: &str) -> Result<&'v Value, String> {
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn num_of(v: &Value, what: &str) -> Result<f64, String> {
    let n = v
        .as_num()
        .ok_or_else(|| format!("{what} must be a number"))?;
    if n.is_finite() && n >= 0.0 {
        Ok(n)
    } else {
        Err(format!("{what} must be finite and non-negative, got {n}"))
    }
}

fn str_of<'v>(v: &'v Value, what: &str) -> Result<&'v str, String> {
    v.as_str().ok_or_else(|| format!("{what} must be a string"))
}

/// Validates a `BENCH_*.json` artefact against the `v1` schema:
/// parseable JSON, the exact [`SCHEMA`] tag, well-formed top-level
/// fields and at least one benchmark entry with consistent
/// (`min ≤ median ≤ max`) non-negative statistics.
///
/// # Errors
///
/// Returns a human-actionable message naming the first violation.
pub fn validate(json: &str) -> Result<(), String> {
    let v: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let map = v.as_map().ok_or("top level must be an object")?;
    let schema = str_of(field(map, "schema")?, "schema")?;
    if schema != SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{SCHEMA}`"));
    }
    let date = str_of(field(map, "created_utc")?, "created_utc")?;
    let date_ok = date.len() == 10
        && date.bytes().enumerate().all(|(i, b)| match i {
            4 | 7 => b == b'-',
            _ => b.is_ascii_digit(),
        });
    if !date_ok {
        return Err(format!("created_utc `{date}` is not YYYY-MM-DD"));
    }
    field(map, "quick")?
        .as_bool()
        .ok_or("quick must be a boolean")?;
    num_of(field(map, "warmup")?, "warmup")?;
    let reps = num_of(field(map, "repetitions")?, "repetitions")?;
    if reps < 1.0 {
        return Err("repetitions must be at least 1".to_owned());
    }
    let benches = field(map, "benchmarks")?
        .as_seq()
        .ok_or("benchmarks must be an array")?;
    if benches.is_empty() {
        return Err("benchmarks must not be empty".to_owned());
    }
    for (i, b) in benches.iter().enumerate() {
        let b = b
            .as_map()
            .ok_or_else(|| format!("benchmarks[{i}] must be an object"))?;
        let name = str_of(field(b, "name")?, "name")?;
        str_of(field(b, "group")?, "group")?;
        if num_of(field(b, "reps")?, "reps")? < 1.0 {
            return Err(format!("{name}: reps must be at least 1"));
        }
        let median = num_of(field(b, "median_ms")?, "median_ms")?;
        let min = num_of(field(b, "min_ms")?, "min_ms")?;
        let max = num_of(field(b, "max_ms")?, "max_ms")?;
        if !(min <= median && median <= max) {
            return Err(format!(
                "{name}: expected min_ms <= median_ms <= max_ms, got {min} / {median} / {max}"
            ));
        }
        num_of(field(b, "rss_peak_kb")?, "rss_peak_kb")?;
    }
    // `pairs` is additive (absent in artefacts from before interleaved
    // A/B pairs existed); when present it must be well-formed.
    if let Some((_, v)) = map.iter().find(|(k, _)| k == "pairs") {
        let pairs = v.as_seq().ok_or("pairs must be an array")?;
        for (i, p) in pairs.iter().enumerate() {
            let p = p
                .as_map()
                .ok_or_else(|| format!("pairs[{i}] must be an object"))?;
            let baseline = str_of(field(p, "baseline")?, "baseline")?;
            str_of(field(p, "measured")?, "measured")?;
            if num_of(field(p, "reps")?, "reps")? < 1.0 {
                return Err(format!("pair {baseline}: reps must be at least 1"));
            }
            let ratio = field(p, "median_overhead_pct")?
                .as_num()
                .ok_or("median_overhead_pct must be a number")?;
            if !ratio.is_finite() {
                return Err(format!(
                    "pair {baseline}: median_overhead_pct must be finite, got {ratio}"
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Artefact comparison (the `repro bench-check --compare` regression gate).
// ---------------------------------------------------------------------------

/// The group-level regression threshold `repro bench-check --compare`
/// enforces: a benchmark *group* whose summed median wall-clock grew
/// by more than this fraction fails the check. Group-level (not
/// per-benchmark) so a single noisy micro-entry cannot fail CI while a
/// real across-the-board slowdown still does.
pub const REGRESSION_THRESHOLD_PCT: f64 = 20.0;

/// One benchmark's medians across two artefacts.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Benchmark name.
    pub name: String,
    /// Benchmark group (as in the *new* artefact).
    pub group: String,
    /// Median in the old artefact, milliseconds.
    pub old_ms: f64,
    /// Median in the new artefact, milliseconds.
    pub new_ms: f64,
    /// `(new - old) / old`, percent. Positive = slower.
    pub delta_pct: f64,
}

/// One group's summed medians across two artefacts (over the
/// benchmarks present in both).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDelta {
    /// Group name.
    pub group: String,
    /// Summed old medians, milliseconds.
    pub old_ms: f64,
    /// Summed new medians, milliseconds.
    pub new_ms: f64,
    /// `(new - old) / old`, percent. Positive = slower.
    pub delta_pct: f64,
}

/// The result of comparing two `BENCH_*.json` artefacts.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Per-benchmark deltas, in the new artefact's order.
    pub deltas: Vec<BenchDelta>,
    /// Per-group deltas, in first-appearance order.
    pub groups: Vec<GroupDelta>,
    /// Benchmarks only in the old artefact (removed since).
    pub only_old: Vec<String>,
    /// Benchmarks only in the new artefact (added since) — a fresh
    /// benchmark has no baseline and cannot regress.
    pub only_new: Vec<String>,
}

impl Comparison {
    /// The groups whose summed median grew by more than
    /// `threshold_pct` percent.
    #[must_use]
    pub fn regressions(&self, threshold_pct: f64) -> Vec<&GroupDelta> {
        self.groups
            .iter()
            .filter(|g| g.delta_pct > threshold_pct)
            .collect()
    }

    /// A plain-text report: one line per benchmark, then per group.
    #[must_use]
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>12} {:>9}",
            "benchmark", "old (ms)", "new (ms)", "delta"
        );
        for d in &self.deltas {
            let _ = writeln!(
                out,
                "{:<28} {:>12.2} {:>12.2} {:>+8.1}%",
                d.name, d.old_ms, d.new_ms, d.delta_pct
            );
        }
        let _ = writeln!(out, "---");
        for g in &self.groups {
            let _ = writeln!(
                out,
                "group {:<22} {:>12.2} {:>12.2} {:>+8.1}%",
                g.group, g.old_ms, g.new_ms, g.delta_pct
            );
        }
        for n in &self.only_old {
            let _ = writeln!(out, "removed: {n}");
        }
        for n in &self.only_new {
            let _ = writeln!(out, "added:   {n} (no baseline, not compared)");
        }
        out
    }
}

/// Extracts `(name, group, median_ms)` per benchmark from a validated
/// artefact.
fn medians(json: &str) -> Result<Vec<(String, String, f64)>, String> {
    validate(json)?;
    let v: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let map = v.as_map().ok_or("top level must be an object")?;
    let benches = field(map, "benchmarks")?
        .as_seq()
        .ok_or("benchmarks must be an array")?;
    let mut out = Vec::with_capacity(benches.len());
    for b in benches {
        let b = b.as_map().ok_or("benchmark must be an object")?;
        out.push((
            str_of(field(b, "name")?, "name")?.to_owned(),
            str_of(field(b, "group")?, "group")?.to_owned(),
            num_of(field(b, "median_ms")?, "median_ms")?,
        ));
    }
    Ok(out)
}

/// Compares two `BENCH_*.json` artefacts benchmark by benchmark and
/// group by group. Both must validate against the schema first.
/// Benchmarks present in only one artefact are listed but not
/// compared; groups are aggregated over the common benchmarks only, so
/// adding or removing a benchmark never shows up as a spurious
/// regression.
///
/// # Errors
///
/// Returns a message naming the first schema violation, or the absence
/// of any benchmark common to both artefacts.
pub fn compare(old_json: &str, new_json: &str) -> Result<Comparison, String> {
    let old = medians(old_json).map_err(|e| format!("old artefact: {e}"))?;
    let new = medians(new_json).map_err(|e| format!("new artefact: {e}"))?;

    let mut deltas = Vec::new();
    let mut only_new = Vec::new();
    let mut groups: Vec<GroupDelta> = Vec::new();
    for (name, group, new_ms) in &new {
        let Some((_, _, old_ms)) = old.iter().find(|(n, _, _)| n == name) else {
            only_new.push(name.clone());
            continue;
        };
        let delta_pct = if *old_ms > 0.0 {
            (new_ms - old_ms) / old_ms * 100.0
        } else {
            0.0
        };
        deltas.push(BenchDelta {
            name: name.clone(),
            group: group.clone(),
            old_ms: *old_ms,
            new_ms: *new_ms,
            delta_pct,
        });
        match groups.iter_mut().find(|g| &g.group == group) {
            Some(g) => {
                g.old_ms += old_ms;
                g.new_ms += new_ms;
            }
            None => groups.push(GroupDelta {
                group: group.clone(),
                old_ms: *old_ms,
                new_ms: *new_ms,
                delta_pct: 0.0,
            }),
        }
    }
    if deltas.is_empty() {
        return Err("the artefacts share no benchmark to compare".to_owned());
    }
    for g in &mut groups {
        g.delta_pct = if g.old_ms > 0.0 {
            (g.new_ms - g.old_ms) / g.old_ms * 100.0
        } else {
            0.0
        };
    }
    let only_old = old
        .iter()
        .filter(|(n, _, _)| !new.iter().any(|(m, _, _)| m == n))
        .map(|(n, _, _)| n.clone())
        .collect();
    Ok(Comparison {
        deltas,
        groups,
        only_old,
        only_new,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_conversion_is_correct() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year
        assert_eq!(civil_from_days(19_723 + 59), (2024, 2, 29));
        assert_eq!(civil_from_days(20_672), (2026, 8, 7));
    }

    #[test]
    fn utc_date_is_well_formed() {
        let d = utc_date_today();
        assert!(validate_date(&d), "{d}");
    }

    fn validate_date(d: &str) -> bool {
        d.len() == 10
            && d.bytes().enumerate().all(|(i, b)| match i {
                4 | 7 => b == b'-',
                _ => b.is_ascii_digit(),
            })
    }

    #[test]
    fn rss_is_reported_on_linux() {
        #[cfg(target_os = "linux")]
        assert!(rss_peak_kb() > 0, "VmHWM must be readable");
    }

    /// A tiny synthetic suite exercises the run → serialise → validate
    /// round trip without the cost of the real macro-suite.
    #[test]
    fn run_serialise_validate_roundtrip() {
        let benches = vec![
            Benchmark::new("noop_a", "test", || {}),
            Benchmark::new("noop_b", "test", || {
                std::hint::black_box((0..1000).sum::<u64>());
            }),
        ];
        let report = run(benches, true, 3);
        assert_eq!(report.benchmarks.len(), 2);
        assert_eq!(
            report.file_name(),
            format!("BENCH_{}.json", report.created_utc)
        );
        let json = report.to_json();
        validate(&json).expect("emitted artefact validates");
        for b in &report.benchmarks {
            assert!(b.min_ms <= b.median_ms && b.median_ms <= b.max_ms);
        }
    }

    /// A minimal valid artefact with the given `(name, group, median)`
    /// rows — the fixture generator for the comparison tests.
    fn fixture(rows: &[(&str, &str, f64)]) -> String {
        let benches: Vec<String> = rows
            .iter()
            .map(|(name, group, median)| {
                format!(
                    r#"{{"name":"{name}","group":"{group}","reps":5,
                        "median_ms":{median},"min_ms":{},"max_ms":{},
                        "rss_peak_kb":1000}}"#,
                    median * 0.9,
                    median * 1.1
                )
            })
            .collect();
        format!(
            r#"{{"schema":"{SCHEMA}","created_utc":"2026-08-07",
                "quick":false,"warmup":1,"repetitions":5,
                "benchmarks":[{}]}}"#,
            benches.join(",")
        )
    }

    #[test]
    fn compare_reports_per_benchmark_and_group_deltas() {
        let old = fixture(&[
            ("a", "host", 100.0),
            ("b", "host", 50.0),
            ("c", "fleet", 200.0),
        ]);
        let new = fixture(&[
            ("a", "host", 110.0),
            ("b", "host", 40.0),
            ("c", "fleet", 210.0),
        ]);
        let cmp = compare(&old, &new).expect("comparable");
        assert_eq!(cmp.deltas.len(), 3);
        let a = &cmp.deltas[0];
        assert!((a.delta_pct - 10.0).abs() < 1e-9, "{}", a.delta_pct);
        // host group: 150 -> 150, 0%; fleet: 200 -> 210, +5%.
        assert_eq!(cmp.groups.len(), 2);
        assert!(cmp.groups[0].delta_pct.abs() < 1e-9);
        assert!((cmp.groups[1].delta_pct - 5.0).abs() < 1e-9);
        assert!(cmp.regressions(REGRESSION_THRESHOLD_PCT).is_empty());
        let table = cmp.table();
        assert!(table.contains("group host"), "{table}");
    }

    #[test]
    fn compare_flags_group_regressions_over_threshold() {
        let old = fixture(&[("a", "fleet", 100.0), ("b", "fleet", 100.0)]);
        // +25% summed across the group: over the 20% gate.
        let new = fixture(&[("a", "fleet", 130.0), ("b", "fleet", 120.0)]);
        let cmp = compare(&old, &new).expect("comparable");
        let bad = cmp.regressions(REGRESSION_THRESHOLD_PCT);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].group, "fleet");
        assert!((bad[0].delta_pct - 25.0).abs() < 1e-9);
        // A *faster* new artefact never regresses, however large the
        // delta magnitude.
        let faster = fixture(&[("a", "fleet", 10.0), ("b", "fleet", 10.0)]);
        let cmp = compare(&old, &faster).expect("comparable");
        assert!(cmp.regressions(REGRESSION_THRESHOLD_PCT).is_empty());
    }

    #[test]
    fn compare_ignores_added_and_removed_benchmarks() {
        let old = fixture(&[("a", "host", 100.0), ("gone", "host", 400.0)]);
        let new = fixture(&[("a", "host", 105.0), ("fresh", "host", 900.0)]);
        let cmp = compare(&old, &new).expect("comparable");
        // Only `a` is compared: the group delta is 5%, not polluted by
        // the 400 ms removal or the 900 ms addition.
        assert_eq!(cmp.deltas.len(), 1);
        assert!((cmp.groups[0].delta_pct - 5.0).abs() < 1e-9);
        assert_eq!(cmp.only_old, vec!["gone".to_owned()]);
        assert_eq!(cmp.only_new, vec!["fresh".to_owned()]);
        assert!(cmp.regressions(REGRESSION_THRESHOLD_PCT).is_empty());
    }

    #[test]
    fn compare_rejects_disjoint_or_invalid_artefacts() {
        let old = fixture(&[("a", "host", 100.0)]);
        let new = fixture(&[("b", "host", 100.0)]);
        let err = compare(&old, &new).unwrap_err();
        assert!(err.contains("no benchmark"), "{err}");
        let err = compare("{}", &old).unwrap_err();
        assert!(err.contains("old artefact"), "{err}");
        let err = compare(&old, "not json").unwrap_err();
        assert!(err.contains("new artefact"), "{err}");
    }

    #[test]
    fn validate_rejects_malformed_artefacts() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").unwrap_err().contains("schema"));
        assert!(validate(r#"{"schema": "other/v9"}"#)
            .unwrap_err()
            .contains("expected"));
        let no_benches = r#"{
            "schema": "pas-repro-bench/v1", "created_utc": "2026-08-07",
            "quick": true, "warmup": 1, "repetitions": 3, "benchmarks": []
        }"#;
        assert!(validate(no_benches).unwrap_err().contains("empty"));
        let bad_order = r#"{
            "schema": "pas-repro-bench/v1", "created_utc": "2026-08-07",
            "quick": true, "warmup": 1, "repetitions": 3,
            "benchmarks": [{ "name": "x", "group": "g", "reps": 3,
                "median_ms": 5.0, "min_ms": 6.0, "max_ms": 7.0,
                "rss_peak_kb": 0 }]
        }"#;
        assert!(validate(bad_order).unwrap_err().contains("min_ms"));
    }

    /// An interleaved pair alternates repetitions (A, B, A, B, …)
    /// after a joint warmup, runs 3× the suite repetitions, and
    /// reports two ordinary per-arm entries plus a `pairs` statistic.
    #[test]
    fn interleaved_pair_alternates_repetitions() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let order = Rc::new(RefCell::new(String::new()));
        let (oa, ob) = (Rc::clone(&order), Rc::clone(&order));
        let benches = vec![
            Benchmark::new("arm_a", "pair", move || oa.borrow_mut().push('a'))
                .interleaved_with_next(),
            Benchmark::new("arm_b", "pair", move || ob.borrow_mut().push('b')),
        ];
        let report = run(benches, true, 3);
        // 1 warmup each, then 3x3 alternating timed rep pairs.
        assert_eq!(*order.borrow(), "ab".repeat(10));
        assert_eq!(report.benchmarks.len(), 2);
        assert_eq!(report.benchmarks[0].name, "arm_a");
        assert_eq!(report.benchmarks[1].name, "arm_b");
        assert_eq!(report.benchmarks[0].reps, 9);
        assert_eq!(report.pairs.len(), 1);
        let p = &report.pairs[0];
        assert_eq!(
            (p.baseline.as_str(), p.measured.as_str()),
            ("arm_a", "arm_b")
        );
        assert_eq!(p.reps, 9);
        assert!(p.median_overhead_pct.is_finite());
        validate(&report.to_json()).expect("paired artefact validates");
    }

    /// Artefacts from before `pairs` existed still validate, and a
    /// malformed `pairs` entry is rejected.
    #[test]
    fn validate_pairs_field_is_additive() {
        let no_pairs = r#"{
            "schema": "pas-repro-bench/v1", "created_utc": "2026-08-07",
            "quick": true, "warmup": 1, "repetitions": 3,
            "benchmarks": [{ "name": "x", "group": "g", "reps": 3,
                "median_ms": 5.0, "min_ms": 4.0, "max_ms": 7.0,
                "rss_peak_kb": 0 }]
        }"#;
        validate(no_pairs).expect("pairs is optional");
        let bad_pair = r#"{
            "schema": "pas-repro-bench/v1", "created_utc": "2026-08-07",
            "quick": true, "warmup": 1, "repetitions": 3,
            "benchmarks": [{ "name": "x", "group": "g", "reps": 3,
                "median_ms": 5.0, "min_ms": 4.0, "max_ms": 7.0,
                "rss_peak_kb": 0 }],
            "pairs": [{ "baseline": "x", "measured": "y", "reps": 0,
                "median_overhead_pct": 1.0 }]
        }"#;
        assert!(validate(bad_pair).unwrap_err().contains("reps"));
    }

    #[test]
    #[should_panic(expected = "pair_with_next but is the last benchmark")]
    fn trailing_pair_marker_panics() {
        let benches = vec![Benchmark::new("lonely", "pair", || {}).interleaved_with_next()];
        let _ = run(benches, true, 1);
    }

    /// The suite definition itself: fixed names, the documented
    /// minimum of six benchmarks, and the tracing A/B pair present.
    #[test]
    fn suite_shape_is_stable() {
        let s = suite(true);
        assert!(s.len() >= 6, "suite has {} benchmarks", s.len());
        let names: Vec<&str> = s.iter().map(|b| b.name).collect();
        assert!(names.contains(&"fleet_96vms_trace_off"));
        assert!(names.contains(&"fleet_96vms_trace_on"));
        assert!(names.contains(&"campaign_sweep"));
    }
}
