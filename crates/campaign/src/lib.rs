//! Declarative campaigns: scenarios as *data*, not code.
//!
//! Every experiment in `crates/experiments` is a hand-written module,
//! so exploring a new point of the paper's design space (machine ×
//! scheduler × governor × credit mix × fleet size …) meant writing and
//! recompiling Rust. This crate is the layer between the fleet and the
//! experiment registry that removes that step:
//!
//! * [`spec`] — a serde-backed [`CampaignSpec`] parsed from JSON that
//!   can describe everything the scenario builder and
//!   [`cluster::fleet::Fleet::build`] can build in code: machine
//!   preset, scheduler, governor, per-VM credit and workload (pi-app /
//!   web-app / trace / fluid), fleet size, placement policy, migration
//!   watermarks, duration. Malformed specs produce actionable errors
//!   (never panics), and unknown fields are rejected.
//! * [`sweep`] — the expander: axes (`"credit_pct:v20": [20, 40, 70]`,
//!   `"scheduler": ["credit", "pas"]`) become the cross-product of
//!   concrete design points, capped by `max_runs` with an explicit
//!   count report — over-cap expansion is an error, never silent
//!   truncation.
//! * [`mod@run`] — each design point runs under R seeds, fanned out over
//!   [`cluster::exec::parallel_map`]; every run is an independent,
//!   internally single-threaded, seeded simulation, so results are
//!   byte-identical for every `--jobs` value.
//! * [`report`] — [`metrics::stats`] reduces the replicas to mean /
//!   stddev / 95% CI (Student-t) and interpolated p50/p95/p99 per
//!   scalar, ranked by energy with SLA violation alongside, rendered
//!   as text plus CSV/JSON artefacts.
//!
//! The `repro` binary exposes all of this as
//! `repro campaign <spec.json> [--quick] [--jobs N] [--out DIR]`;
//! example specs live under `examples/campaigns/`.
//!
//! # Example
//!
//! ```
//! let json = r#"{
//!     "name": "doc",
//!     "scenario": {
//!         "kind": "host",
//!         "scheduler": "credit",
//!         "duration_s": 300,
//!         "vms": [ { "name": "v20", "credit_pct": 20,
//!                    "workload": { "kind": "fluid", "load_pct": 100 } } ]
//!     },
//!     "sweep": [ { "param": "scheduler", "values": ["credit", "pas"] } ],
//!     "seeds": { "base": 1, "replicates": 2 }
//! }"#;
//! let spec = campaign::CampaignSpec::from_json(json).unwrap();
//! let report = campaign::run(&spec, true, 2).unwrap();
//! assert_eq!(report.point_count, 2);
//! assert_eq!(report.total_runs, 4);
//! // PAS never spends more than Credit-at-fmax on this load.
//! let credit = report.points[0].mean("energy_j").unwrap();
//! let pas = report.points[1].mean("energy_j").unwrap();
//! assert!(pas <= credit);
//! ```

#![deny(missing_docs)]

pub mod report;
pub mod run;
pub mod spec;
pub mod sweep;

pub use report::{CampaignReport, PointReport};
pub use run::{RunRecord, TracedRun};
pub use spec::{CampaignError, CampaignSpec, ScenarioSpec};
pub use sweep::{expand, DesignPoint, Expansion};

/// Runs a whole campaign: expand, replicate, simulate (on up to
/// `jobs` worker threads), reduce.
///
/// Output is byte-identical for every `jobs` value: runs are
/// independent seeded simulations, [`cluster::exec::parallel_map`]
/// returns results in input order, and reduction walks points and
/// metrics in expansion order.
///
/// # Errors
///
/// Returns a [`CampaignError`] if the spec fails validation or sweep
/// expansion (see [`sweep::expand`]).
pub fn run(spec: &CampaignSpec, quick: bool, jobs: usize) -> Result<CampaignReport, CampaignError> {
    run_with_progress(spec, quick, jobs, &|_, _| {})
}

/// A progress observer for [`run_with_progress`]: called once per
/// completed run with `(completed_runs, total_runs)`.
///
/// Calls may come from any worker thread (hence `Sync`), but
/// `completed_runs` is monotone: each call reports a strictly larger
/// count than any call that happened-before it.
pub type Progress<'a> = &'a (dyn Fn(usize, usize) + Sync);

/// [`fn@run`] with a per-run progress callback — the entry point resident
/// services (e.g. `repro serve`) use to surface completed/total run
/// counts while a campaign executes.
///
/// The callback only observes; the report is byte-identical to
/// [`fn@run`] on the same spec for every `jobs` value.
///
/// # Errors
///
/// Returns a [`CampaignError`] if the spec fails validation or sweep
/// expansion (see [`sweep::expand`]).
pub fn run_with_progress(
    spec: &CampaignSpec,
    quick: bool,
    jobs: usize,
    progress: Progress<'_>,
) -> Result<CampaignReport, CampaignError> {
    let expansion = sweep::expand(spec)?;
    let replicates = expansion.replicates;

    // One flat work list: point-major, seed-minor, so grouping back is
    // a fixed-stride chunking.
    let plans: Vec<(usize, u64)> = (0..expansion.points.len())
        .flat_map(|p| (0..replicates).map(move |r| (p, spec.seeds.base + r as u64)))
        .collect();
    let total = plans.len();
    let done = std::sync::atomic::AtomicUsize::new(0);
    let results = cluster::exec::parallel_map(jobs.max(1), plans, |_, (p, seed)| {
        let record = run::run_point(&expansion.points[p], seed, quick);
        let completed = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        progress(completed, total);
        record
    });

    let grouped: Vec<Vec<RunRecord>> = results
        .chunks(replicates)
        .map(<[RunRecord]>::to_vec)
        .collect();
    let labels = expansion
        .points
        .iter()
        .map(|p| (p.label.clone(), p.settings.clone()))
        .collect();
    Ok(report::reduce(
        &spec.name,
        quick,
        spec.max_runs,
        labels,
        grouped,
    ))
}

/// A traced campaign: the ordinary report plus the run-labelled event
/// trace and the wall-clock self-profile.
///
/// The report and the trace JSONL are deterministic — byte-identical
/// for every `--jobs` value. The profile measures wall-clock time and
/// is **not**; callers must write it to its own artefact and keep it
/// out of byte-identity comparisons.
#[derive(Debug, Clone)]
pub struct TracedCampaign {
    /// The campaign report, bit-identical to what [`run()`] produces.
    pub report: CampaignReport,
    /// The merged `pas-repro-trace/v1` JSONL document: every event
    /// line labelled `<point-label>#<seed>`, runs in plan order
    /// (point-major, seed-minor).
    pub trace_jsonl: String,
    /// Phase spans (`expand` / `simulate` / `reduce`, plus `runs_cpu`
    /// — the summed per-run worker time, whose ratio to `simulate`
    /// shows the parallel speedup — and the host hot-path phases
    /// `host_slice` / `sched_acct` / `governor` / `snapshot`, slices
    /// of `runs_cpu` summed across every simulated host) and counters.
    pub profile: metrics::profile::ProfileReport,
}

/// Runs a whole campaign with per-run tracing and self-profiling:
/// every simulated host carries a bounded event ring of `capacity`
/// events (see [`trace::Tracer`]), and the campaign times its own
/// phases.
///
/// The scalar results are bit-identical to [`run()`] — tracing only
/// observes the simulation.
///
/// # Errors
///
/// Returns a [`CampaignError`] if the spec fails validation or sweep
/// expansion (see [`sweep::expand`]).
pub fn run_traced(
    spec: &CampaignSpec,
    quick: bool,
    jobs: usize,
    capacity: usize,
) -> Result<TracedCampaign, CampaignError> {
    let mut profiler = metrics::profile::Profiler::new();
    let expansion = profiler.span("expand", || sweep::expand(spec))?;
    let replicates = expansion.replicates;

    let plans: Vec<(usize, u64)> = (0..expansion.points.len())
        .flat_map(|p| (0..replicates).map(move |r| (p, spec.seeds.base + r as u64)))
        .collect();
    let run_labels: Vec<String> = plans
        .iter()
        .map(|&(p, seed)| format!("{}#{seed}", expansion.points[p].label))
        .collect();

    let results: Vec<(run::TracedRun, f64)> = profiler.span("simulate", || {
        cluster::exec::parallel_map(jobs.max(1), plans, |_, (p, seed)| {
            let started = std::time::Instant::now();
            let traced = run::run_point_traced(&expansion.points[p], seed, quick, capacity);
            (traced, started.elapsed().as_secs_f64() * 1000.0)
        })
    });
    profiler.add_span_ms("runs_cpu", results.iter().map(|(_, ms)| ms).sum());
    // Host hot-path phase timings, summed across every run's hosts
    // (see `hypervisor::HostPerf`). These are slices of `runs_cpu`:
    // how much of the worker time went to advancing VM slices versus
    // each boundary kind.
    let mut perf = hypervisor::HostPerf::default();
    for (r, _) in &results {
        perf.absorb(r.perf);
    }
    profiler.add_span_ms("host_slice", perf.host_slice_ns as f64 / 1e6);
    profiler.add_span_ms("sched_acct", perf.sched_acct_ns as f64 / 1e6);
    profiler.add_span_ms("governor", perf.governor_ns as f64 / 1e6);
    profiler.add_span_ms("snapshot", perf.snapshot_ns as f64 / 1e6);
    profiler.count("runs", results.len() as u64);
    profiler.count(
        "trace_events",
        results
            .iter()
            .map(|(r, _)| r.trace.events().len() as u64)
            .sum(),
    );
    profiler.count(
        "trace_dropped",
        results.iter().map(|(r, _)| r.trace.dropped()).sum(),
    );

    let parts: Vec<(Option<&str>, &trace::Trace)> = run_labels
        .iter()
        .zip(results.iter())
        .map(|(label, (r, _))| (Some(label.as_str()), &r.trace))
        .collect();
    let trace_jsonl = trace::render_jsonl(&spec.name, &parts);

    let grouped: Vec<Vec<RunRecord>> = results
        .chunks(replicates)
        .map(|chunk| chunk.iter().map(|(r, _)| r.record.clone()).collect())
        .collect();
    let labels = expansion
        .points
        .iter()
        .map(|p| (p.label.clone(), p.settings.clone()))
        .collect();
    let report = profiler.span("reduce", || {
        report::reduce(&spec.name, quick, spec.max_runs, labels, grouped)
    });
    Ok(TracedCampaign {
        report,
        trace_jsonl,
        profile: profiler.report(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWEPT: &str = r#"{
        "name": "jobs-check",
        "scenario": {
            "kind": "host",
            "scheduler": "credit",
            "governor": "stable-ondemand",
            "duration_s": 300,
            "vms": [
                { "name": "v20", "credit_pct": 20,
                  "workload": { "kind": "web-app", "intensity_pct": 100,
                                "bursty": true } },
                { "name": "v70", "credit_pct": 70,
                  "workload": { "kind": "web-app", "intensity_pct": 40,
                                "start_s": 100, "bursty": true } }
            ]
        },
        "sweep": [
            { "param": "scheduler", "values": ["credit", "pas"] },
            { "param": "credit_pct:v20", "values": [10, 20] }
        ],
        "seeds": { "base": 7, "replicates": 3 }
    }"#;

    #[test]
    fn campaign_is_byte_identical_across_job_counts() {
        let spec = CampaignSpec::from_json(SWEPT).unwrap();
        let serial = run(&spec, true, 1).unwrap();
        let parallel = run(&spec, true, 4).unwrap();
        assert_eq!(serial.text(), parallel.text());
        assert_eq!(serial.summary_csv(), parallel.summary_csv());
        assert_eq!(serial.runs_csv(), parallel.runs_csv());
        let ja = serde_json::to_string_pretty(&serial).unwrap();
        let jb = serde_json::to_string_pretty(&parallel).unwrap();
        assert_eq!(ja, jb);
    }

    #[test]
    fn replication_produces_dispersion_statistics() {
        let spec = CampaignSpec::from_json(SWEPT).unwrap();
        let report = run(&spec, true, 4).unwrap();
        assert_eq!(report.point_count, 4);
        assert_eq!(report.total_runs, 12);
        let energy = report.points[0]
            .metrics
            .iter()
            .find(|(n, _)| n == "energy_j")
            .map(|(_, s)| *s)
            .expect("energy tracked");
        assert_eq!(energy.n, 3);
        assert!(energy.stddev > 0.0, "bursty seeds must disperse");
        assert!(energy.ci95_half > 0.0);
        assert!(energy.min <= energy.p50 && energy.p50 <= energy.max);
    }

    #[test]
    fn traced_campaign_matches_untraced_and_is_jobs_invariant() {
        let spec = CampaignSpec::from_json(SWEPT).unwrap();
        let plain = run(&spec, true, 2).unwrap();
        let t1 = run_traced(&spec, true, 1, 4096).unwrap();
        let t4 = run_traced(&spec, true, 4, 4096).unwrap();
        assert_eq!(
            plain.text(),
            t1.report.text(),
            "tracing must not change the report"
        );
        assert_eq!(t1.report.text(), t4.report.text());
        assert_eq!(t1.trace_jsonl, t4.trace_jsonl, "trace is jobs-invariant");
        // Header, labelled event lines in plan order, and a footer
        // accounting for all 12 runs.
        assert!(t1
            .trace_jsonl
            .starts_with("{\"schema\":\"pas-repro-trace/v1\""));
        assert!(t1
            .trace_jsonl
            .contains("\"run\":\"scheduler=credit, credit_pct:v20=10#7\""));
        assert!(t1.trace_jsonl.trim_end().ends_with("\"runs\":12}"));
        // The profile is wall-clock (non-deterministic) but complete.
        let span_names: Vec<&str> = t1.profile.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            span_names,
            [
                "expand",
                "simulate",
                "runs_cpu",
                "host_slice",
                "sched_acct",
                "governor",
                "snapshot",
                "reduce"
            ]
        );
        // The host phases are real measurements, not placeholders:
        // every run advances slices and fires accounting boundaries.
        let span_ms = |name: &str| {
            t1.profile
                .spans
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.ms)
                .unwrap()
        };
        assert!(span_ms("host_slice") > 0.0);
        assert!(span_ms("sched_acct") > 0.0);
        let counter = |name: &str| {
            t1.profile
                .counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap()
        };
        assert_eq!(counter("runs"), 12);
        assert!(counter("trace_events") > 0);
    }

    #[test]
    fn progress_callback_observes_every_run_and_changes_nothing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let spec = CampaignSpec::from_json(SWEPT).unwrap();
        let plain = run(&spec, true, 2).unwrap();
        let calls = AtomicUsize::new(0);
        let max_seen = AtomicUsize::new(0);
        let observed = run_with_progress(&spec, true, 2, &|completed, total| {
            assert_eq!(total, 12, "4 points x 3 seeds");
            assert!(completed >= 1 && completed <= total);
            calls.fetch_add(1, Ordering::Relaxed);
            max_seen.fetch_max(completed, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 12, "one call per run");
        assert_eq!(max_seen.load(Ordering::Relaxed), 12);
        assert_eq!(plain.text(), observed.text(), "observer never perturbs");
        assert_eq!(plain.summary_csv(), observed.summary_csv());
    }

    #[test]
    fn spec_errors_propagate_through_run() {
        let spec = CampaignSpec {
            seeds: spec::SeedSpec {
                base: 1,
                replicates: 0,
            },
            ..CampaignSpec::from_json(SWEPT).unwrap()
        };
        let err = run(&spec, true, 1).unwrap_err();
        assert!(err.0.contains("replicates"), "{err}");
    }
}
