//! Reproducibility: identical seeds give bit-identical runs; the
//! figures are therefore exactly regenerable.

use pas_repro::experiments::scenario::{build, Fidelity, ScenarioConfig};
use pas_repro::governors::Ondemand;
use pas_repro::hypervisor::SchedulerKind;
use pas_repro::workloads::Intensity;

fn run_seeded(seed: u64) -> Vec<(f64, f64)> {
    let mut sc = build(
        ScenarioConfig::new(SchedulerKind::Credit, Intensity::Exact, Fidelity::Quick)
            .with_governor(Box::new(Ondemand::default()))
            .with_bursty_arrivals(seed),
    );
    sc.run();
    sc.global_load_series(sc.v20, "v20").points().to_vec()
}

#[test]
fn same_seed_same_trace() {
    let a = run_seeded(7);
    let b = run_seeded(7);
    assert_eq!(a.len(), b.len());
    for (pa, pb) in a.iter().zip(&b) {
        assert_eq!(pa.0.to_bits(), pb.0.to_bits(), "timestamps identical");
        assert_eq!(pa.1.to_bits(), pb.1.to_bits(), "values identical");
    }
}

#[test]
fn different_seed_different_trace() {
    let a = run_seeded(7);
    let b = run_seeded(8);
    let differing = a.iter().zip(&b).filter(|(x, y)| x.1 != y.1).count();
    assert!(differing > 0, "bursty arrivals must depend on the seed");
}

#[test]
fn fluid_runs_are_seed_independent() {
    let run = |seed| {
        let mut sc = build(
            ScenarioConfig::new(SchedulerKind::Pas, Intensity::Thrashing, Fidelity::Quick)
                .with_bursty_arrivals(seed), // bursty flag off below
        );
        // Note: thrashing + Poisson still saturates; use global load.
        sc.run();
        sc.global_load_series(sc.v20, "v20").mean()
    };
    // Saturated thrashing runs are statistically identical across
    // seeds even with Poisson arrivals (the queue never empties).
    let a = run(1);
    let b = run(2);
    assert!((a - b).abs() < 1.0, "saturated runs agree: {a} vs {b}");
}

/// The façade quickstart scenario (src/lib.rs) extended with one
/// seeded bursty workload, exported through the metrics crate.
fn quickstart_exports(seed: u64) -> (String, String) {
    use pas_repro::hypervisor::work::ConstantDemand;
    use pas_repro::hypervisor::{HostConfig, VmConfig};
    use pas_repro::metrics::{export, TimeSeries};
    use pas_repro::pas_core::Credit;
    use pas_repro::simkernel::{SimDuration, SimRng};
    use pas_repro::workloads::{ArrivalModel, Profile, WebApp};

    let mut host = HostConfig::optiplex_defaults(SchedulerKind::Pas).build();
    let fmax = host.fmax_mcps();
    host.add_vm(
        VmConfig::new("v20", Credit::percent(20.0)),
        Box::new(ConstantDemand::new(fmax)),
    );
    // The quickstart's lazy V70, made bursty so the simkernel seed
    // actually flows into the trace.
    host.add_vm(
        VmConfig::new("v70", Credit::percent(70.0)),
        Box::new(WebApp::new(
            Profile::active_for(SimDuration::from_secs(60), Intensity::Fraction(0.5)),
            0.70 * fmax,
            fmax,
            ArrivalModel::Poisson {
                request_mcycles: 50.0,
                rng: SimRng::seed_from(seed),
            },
        )),
    );
    host.run_for(SimDuration::from_secs(60));

    let snaps = host.stats().snapshots();
    assert!(!snaps.is_empty(), "the run must produce snapshots");
    let v20 = TimeSeries::from_points(
        "v20_absolute_pct",
        snaps
            .iter()
            .map(|s| (s.t_secs, s.vms[0].absolute_load_pct))
            .collect(),
    );
    let v70 = TimeSeries::from_points(
        "v70_absolute_pct",
        snaps
            .iter()
            .map(|s| (s.t_secs, s.vms[1].absolute_load_pct))
            .collect(),
    );
    let freq = TimeSeries::from_points(
        "frequency_mhz",
        snaps
            .iter()
            .map(|s| (s.t_secs, f64::from(s.freq_mhz)))
            .collect(),
    );
    let csv = export::to_csv(&[&v20, &v70, &freq]);
    let json = export::to_json(&vec![v20, v70, freq]).expect("finite values");
    (csv, json)
}

/// Parallel execution must not change results: every fleet-scale
/// experiment (the ones that simulate hosts on worker threads) must
/// produce byte-identical CSV and JSON artefacts with 1 and 4 jobs.
/// The `repro` binary's `--jobs` flag goes through exactly this path
/// (`run_experiment_jobs`); the full CLI pipeline is additionally
/// covered end-to-end in `crates/experiments/tests/cli.rs`.
#[test]
fn fleet_experiments_are_byte_identical_across_job_counts() {
    use pas_repro::experiments::run_experiment_jobs;
    use pas_repro::metrics::export;

    for name in ["consolidation", "churn", "cluster-energy", "migration"] {
        let a = run_experiment_jobs(name, Fidelity::Quick, 1).expect("known experiment");
        let b = run_experiment_jobs(name, Fidelity::Quick, 4).expect("known experiment");
        assert_eq!(
            a.to_csv().as_bytes(),
            b.to_csv().as_bytes(),
            "{name}: CSV artefact must not depend on --jobs"
        );
        let ja = export::to_json(&a).expect("finite values");
        let jb = export::to_json(&b).expect("finite values");
        assert_eq!(
            ja.as_bytes(),
            jb.as_bytes(),
            "{name}: JSON artefact must not depend on --jobs"
        );
        assert_eq!(a.text, b.text, "{name}: printed report must match");
    }
}

/// The campaign subsystem's acceptance criterion, exercised through
/// the library API (the `repro campaign` CLI path is covered
/// end-to-end in `crates/experiments/tests/cli.rs`): a spec with two
/// sweep axes and three seeds per design point must produce
/// byte-identical text and artefacts for 1 and 4 worker threads.
#[test]
fn campaigns_are_byte_identical_across_job_counts() {
    use pas_repro::campaign;

    let spec = campaign::CampaignSpec::from_json(
        r#"{
            "name": "determinism",
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
    .expect("valid spec");
    let a = campaign::run(&spec, true, 1).expect("serial run");
    let b = campaign::run(&spec, true, 4).expect("parallel run");
    assert_eq!(a.total_runs, 12, "2 × 2 points × 3 seeds");
    assert_eq!(
        a.text().as_bytes(),
        b.text().as_bytes(),
        "campaign stdout must not depend on --jobs"
    );
    assert_eq!(a.summary_csv().as_bytes(), b.summary_csv().as_bytes());
    assert_eq!(a.runs_csv().as_bytes(), b.runs_csv().as_bytes());
    let ja = pas_repro::metrics::export::to_json(&a).expect("finite values");
    let jb = pas_repro::metrics::export::to_json(&b).expect("finite values");
    assert_eq!(ja.as_bytes(), jb.as_bytes());
}

/// The idle skip and inline routing of quiescent hosts are wall-clock
/// optimisations only: on an idle-heavy fleet (most VMs quiescent
/// from the first epoch) the exported CSV artefact and the fleet
/// totals must be byte-identical serial and parallel, whichever hosts
/// the worker pool receives.
#[test]
fn idle_skip_fleet_artifacts_are_byte_identical() {
    use pas_repro::cluster::{Fleet, FleetConfig, VmSpec};
    use pas_repro::metrics::export;

    let mut specs = vec![
        VmSpec::new("busy0", 4.0, 0.30),
        VmSpec::new("busy1", 4.0, 0.30),
    ];
    specs.extend((0..14).map(|i| VmSpec::new(format!("idle{i}"), 4.0, 0.0).with_credit_frac(0.15)));
    let run = |jobs: usize| {
        let mut fleet = Fleet::build(FleetConfig::performance_defaults(), &specs);
        fleet.run_epochs(6, jobs);
        let totals = fleet.totals();
        (
            totals.energy_j.to_bits(),
            export::to_csv(&[fleet.load_series()]),
        )
    };
    let (energy_serial, csv_serial) = run(1);
    let (energy, csv) = run(4);
    assert_eq!(energy, energy_serial, "energy must be bit-identical");
    assert_eq!(
        csv.as_bytes(),
        csv_serial.as_bytes(),
        "load-series CSV must be byte-identical"
    );
}

/// The sharded placement layer is a pure worker partitioning: VMs
/// hash to a fixed universe of virtual zones, shards own contiguous
/// zone ranges, and the coordinator concatenates shard results
/// zone-major — so the shard count, like the job count, must never
/// change a single byte of the artefacts. This pins the fleet-scale
/// contract: `repro campaign examples/campaigns/fleet-scale.json` is
/// regenerable on any machine whatever `--jobs` or `shards` say.
#[test]
fn sharded_fleet_artifacts_are_byte_identical_across_jobs_and_shards() {
    use pas_repro::cluster::{Fleet, FleetConfig, ShardConfig, VmSpec};
    use pas_repro::metrics::export;

    let specs: Vec<VmSpec> = (0..48)
        .map(|i| {
            let mem = [2.0, 4.0, 8.0][i % 3];
            let cpu = 0.03 + 0.02 * (i % 4) as f64;
            VmSpec::new(format!("vm{i}"), mem, cpu)
        })
        .collect();
    let run = |shards: usize, jobs: usize| {
        let mut fleet = Fleet::build(
            FleetConfig::pas_defaults().with_sharding(ShardConfig::new(shards)),
            &specs,
        );
        fleet.run_epochs(4, jobs);
        let totals = fleet.totals();
        (
            totals.energy_j.to_bits(),
            export::to_csv(&[fleet.load_series()]),
            fleet.load_sketch().summary(),
        )
    };
    let (energy_ref, csv_ref, sketch_ref) = run(1, 1);
    for (shards, jobs) in [(1, 2), (1, 8), (4, 1), (4, 2), (16, 8)] {
        let (energy, csv, sketch) = run(shards, jobs);
        assert_eq!(
            energy, energy_ref,
            "energy must be bit-identical (shards={shards}, jobs={jobs})"
        );
        assert_eq!(
            csv.as_bytes(),
            csv_ref.as_bytes(),
            "load-series CSV must be byte-identical (shards={shards}, jobs={jobs})"
        );
        assert_eq!(
            sketch, sketch_ref,
            "load sketch must agree (shards={shards}, jobs={jobs})"
        );
    }
}

/// The tracing subsystem's acceptance criterion: a traced campaign's
/// event-trace JSONL — and every deterministic artefact next to it —
/// must be byte-identical across `--jobs` 1/2/8 and shard counts
/// 1/4/16. Events are a pure function of simulation state (ordered by
/// `(sim_time, stream, seq)`), so neither worker scheduling nor
/// placement partitioning may leak a single byte into the trace. The
/// wall-clock profile is deliberately NOT compared: it lives in its
/// own artefact precisely so byte-identity checks can skip it.
#[test]
fn traced_campaign_trace_jsonl_is_byte_identical_across_jobs_and_shards() {
    use pas_repro::campaign;

    let spec_for = |shards: usize| {
        campaign::CampaignSpec::from_json(&format!(
            r#"{{
                "name": "traced-determinism",
                "scenario": {{
                    "kind": "fleet",
                    "scheduler": "pas",
                    "duration_s": 600,
                    "size": 24,
                    "mem_gib_choices": [2, 4, 8],
                    "cpu_frac_min": 0.05,
                    "cpu_frac_max": 0.30,
                    "credit_factor": 1.5,
                    "epoch_s": 30,
                    "migration": {{ "high_pct": 85, "target_pct": 70 }},
                    "shards": {shards}
                }},
                "seeds": {{ "base": 2013, "replicates": 2 }}
            }}"#
        ))
        .expect("valid spec")
    };
    let run = |shards: usize, jobs: usize| {
        campaign::run_traced(&spec_for(shards), true, jobs, 8192).expect("traced run")
    };

    let base = run(1, 1);
    assert!(
        base.trace_jsonl
            .starts_with("{\"schema\":\"pas-repro-trace/v1\""),
        "trace header carries the schema"
    );
    assert!(
        base.trace_jsonl.contains("\"event\":\"placement\""),
        "fleet traces record the placement"
    );
    for (shards, jobs) in [(1, 2), (1, 8), (4, 1), (4, 2), (16, 8)] {
        let other = run(shards, jobs);
        assert_eq!(
            base.trace_jsonl.as_bytes(),
            other.trace_jsonl.as_bytes(),
            "trace JSONL must be byte-identical (shards={shards}, jobs={jobs})"
        );
        assert_eq!(
            base.report.text().as_bytes(),
            other.report.text().as_bytes(),
            "report must be byte-identical (shards={shards}, jobs={jobs})"
        );
        assert_eq!(
            base.report.summary_csv().as_bytes(),
            other.report.summary_csv().as_bytes()
        );
        assert_eq!(
            base.report.runs_csv().as_bytes(),
            other.report.runs_csv().as_bytes()
        );
    }

    // And tracing never perturbs the simulation: the untraced report
    // is byte-identical too.
    let untraced = campaign::run(&spec_for(4), true, 2).expect("untraced run");
    assert_eq!(base.report.text().as_bytes(), untraced.text().as_bytes());
}

/// Regression for the workspace bootstrap: two runs of the quickstart
/// scenario with the same simkernel seed must produce byte-identical
/// CSV and JSON metric exports.
#[test]
fn quickstart_metrics_exports_are_byte_identical() {
    let (csv_a, json_a) = quickstart_exports(0xC0FFEE);
    let (csv_b, json_b) = quickstart_exports(0xC0FFEE);
    assert_eq!(
        csv_a.as_bytes(),
        csv_b.as_bytes(),
        "CSV export must be reproducible"
    );
    assert_eq!(
        json_a.as_bytes(),
        json_b.as_bytes(),
        "JSON export must be reproducible"
    );
}

/// Fleet routing's acceptance criterion: every artefact must be
/// byte-identical across `--jobs` 1/2/8 and shard counts 1/4/16.
/// Routing only decides *where* a host simulates (inline when
/// quiescent, otherwise on the worker pool), never what any slice
/// computes, so worker scheduling may not leak into a single byte.
/// The population mixes saturating, trickle (dormant for whole epochs
/// between wakes), stepped-surge and fully idle VMs so both routes
/// are actually exercised.
#[test]
fn mixed_fleet_artifacts_are_byte_identical_across_jobs_and_shards() {
    use pas_repro::cluster::{Fleet, FleetConfig, ShardConfig, VmSpec};
    use pas_repro::metrics::export;

    let mut specs: Vec<VmSpec> = (0..6)
        .map(|i| VmSpec::new(format!("busy{i}"), 4.0, 0.25))
        .collect();
    specs.extend(
        (0..6).map(|i| VmSpec::new(format!("trickle{i}"), 2.0, 0.002).with_credit_frac(0.2)),
    );
    specs.push(VmSpec::new("surge", 4.0, 0.05).with_steps(vec![(60.0, 0.40), (90.0, 0.05)]));
    specs.extend((0..5).map(|i| VmSpec::new(format!("idle{i}"), 2.0, 0.0).with_credit_frac(0.1)));

    let run = |shards: usize, jobs: usize| {
        let mut fleet = Fleet::build(
            FleetConfig::pas_defaults().with_sharding(ShardConfig::new(shards)),
            &specs,
        );
        fleet.run_epochs(5, jobs);
        let totals = fleet.totals();
        (
            totals.energy_j.to_bits(),
            totals.sla_ratio.to_bits(),
            export::to_csv(&[fleet.load_series()]),
        )
    };
    let reference = run(1, 1);
    for (shards, jobs) in [(1, 2), (1, 8), (4, 2), (4, 8), (16, 8)] {
        let got = run(shards, jobs);
        assert_eq!(
            got, reference,
            "artefacts must be byte-identical (shards={shards}, jobs={jobs})"
        );
    }
}

/// FNV-1a 64 of `bytes`: a short pin for a long artefact.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The values behind [`golden_bits_are_pinned`], as `(name, bits)`:
/// floats as raw `f64::to_bits`, counts as themselves, artefacts as
/// their [`fnv1a64`] digest.
fn golden_values() -> Vec<(&'static str, u64)> {
    use pas_repro::cluster::{Fleet, FleetConfig, MigrationTrigger, ShardConfig, VmSpec};
    use pas_repro::cpumodel::machines;
    use pas_repro::cpumodel::topology::{CoreId, DvfsGranularity, Topology};
    use pas_repro::cpumodel::SmtSpec;
    use pas_repro::hypervisor::multicore::{MultiDvfs, MultiHost};
    use pas_repro::hypervisor::smt::{SmtAwareness, SmtHost, ThreadId};
    use pas_repro::hypervisor::work::{ConstantDemand, Idle};
    use pas_repro::hypervisor::{HostConfig, VmConfig};
    use pas_repro::pas_core::Credit;
    use pas_repro::simkernel::SimDuration;
    use pas_repro::trace::{render_jsonl, Trace, Tracer};

    let mut golden = Vec::new();

    // A small sharded PAS fleet: busy, trickle and idle VMs, and two
    // surges that overload their hosts mid-run so the controller
    // migrates (extract, then admit) while the fleet runs.
    let mut specs: Vec<VmSpec> = (0..2)
        .map(|i| {
            VmSpec::new(format!("surge{i}"), 5.0, 0.25)
                .with_credit_frac(0.60)
                .with_steps(vec![(40.0 + 30.0 * f64::from(i), 0.60)])
        })
        .collect();
    specs.extend((0..4).map(|i| VmSpec::new(format!("busy{i}"), 5.0, 0.25).with_credit_frac(0.35)));
    specs.extend(
        (0..6).map(|i| VmSpec::new(format!("trickle{i}"), 1.0, 0.002).with_credit_frac(0.2)),
    );
    specs.extend((0..2).map(|i| VmSpec::new(format!("idle{i}"), 1.0, 0.0).with_credit_frac(0.1)));
    let mut fleet = Fleet::build(
        FleetConfig::pas_defaults()
            .with_sharding(ShardConfig::new(2).with_virtual_zones(2))
            .with_trigger(MigrationTrigger::default())
            .with_spares(1),
        &specs,
    );
    fleet.run_epochs(4, 2);
    let totals = fleet.totals();
    golden.push(("fleet.energy_j", totals.energy_j.to_bits()));
    golden.push(("fleet.sla_ratio", totals.sla_ratio.to_bits()));
    golden.push(("fleet.migrations", totals.migration_count as u64));

    // The paper's three-phase scenario under PAS.
    let mut pas = build(ScenarioConfig::new(
        SchedulerKind::Pas,
        Intensity::Exact,
        Fidelity::Quick,
    ));
    pas.run();
    let stats = pas.host.stats();
    golden.push(("pas.v20_abs", stats.vm_absolute_fraction(pas.v20).to_bits()));
    golden.push(("pas.v70_abs", stats.vm_absolute_fraction(pas.v70).to_bits()));
    golden.push(("pas.energy_j", pas.total_energy_j().to_bits()));
    let qos = pas.host.vm_qos(pas.v20).expect("V20 is a web-app");
    golden.push(("pas.v20_mean_latency_s", qos.mean_latency_s.to_bits()));
    golden.push(("pas.v20_p95_latency_s", qos.p95_latency_s.to_bits()));

    // The same scenario under Credit + ondemand with Poisson arrivals.
    let mut credit = build(
        ScenarioConfig::new(SchedulerKind::Credit, Intensity::Exact, Fidelity::Quick)
            .with_governor(Box::new(Ondemand::default()))
            .with_bursty_arrivals(7),
    );
    credit.run();
    golden.push((
        "credit_ondemand.transitions",
        credit.host.cpu().transitions(),
    ));
    golden.push((
        "credit_ondemand.energy_j",
        credit.total_energy_j().to_bits(),
    ));
    let qos = credit.host.vm_qos(credit.v20).expect("V20 is a web-app");
    golden.push((
        "credit_ondemand.v20_mean_latency_s",
        qos.mean_latency_s.to_bits(),
    ));
    golden.push((
        "credit_ondemand.v20_p95_latency_s",
        qos.p95_latency_s.to_bits(),
    ));

    // A steady PAS host: V20 thrashing, V70 idle.
    let mut steady = HostConfig::optiplex_defaults(SchedulerKind::Pas).build();
    let fmax = steady.fmax_mcps();
    steady.add_vm(
        VmConfig::new("v20", Credit::percent(20.0)),
        Box::new(ConstantDemand::new(fmax)),
    );
    steady.add_vm(VmConfig::new("v70", Credit::percent(70.0)), Box::new(Idle));
    steady.run_for(SimDuration::from_secs(120));
    golden.push((
        "steady_pas.energy_j",
        steady.cpu().energy().joules().to_bits(),
    ));

    // The same host traced for its first 6 s, into a ring that drops
    // nothing: its picks, frequency changes and cap rewrites, in order.
    let mut traced = HostConfig::optiplex_defaults(SchedulerKind::Pas).build();
    traced.add_vm(
        VmConfig::new("v20", Credit::percent(20.0)),
        Box::new(ConstantDemand::new(fmax)),
    );
    traced.add_vm(VmConfig::new("v70", Credit::percent(70.0)), Box::new(Idle));
    traced.set_tracer(Tracer::new(1, 4096).with_host(0));
    traced.run_for(SimDuration::from_secs(6));
    let tracer = traced.take_tracer().expect("tracer installed");
    assert_eq!(tracer.dropped(), 0, "the ring must keep every event");
    let jsonl = render_jsonl("steady_pas", &[(None, &Trace::merge(vec![tracer]))]);
    golden.push(("steady_pas.trace_fnv1a64", fnv1a64(jsonl.as_bytes())));

    // A 2 × 2 per-core-DVFS PAS multi-core host, every core thrashing.
    let mut multi = MultiHost::new(
        &machines::optiplex_755(),
        Topology::new(2, 2, DvfsGranularity::PerCore),
        MultiDvfs::Pas,
    );
    let fmax = multi.fmax_mcps();
    for (core, booked) in [20.0, 70.0, 40.0, 10.0].into_iter().enumerate() {
        multi.add_vm(
            VmConfig::new(format!("vm{core}"), Credit::percent(booked)),
            Box::new(ConstantDemand::new(fmax)),
            CoreId(core),
        );
    }
    multi.run_for(SimDuration::from_secs(60));
    golden.push(("multihost.energy_j", multi.total_energy_j().to_bits()));

    // An SMT core, contention-aware PAS, both siblings thrashing.
    let mut smt = SmtHost::new(
        &machines::optiplex_755(),
        SmtSpec::intel_typical(),
        SmtAwareness::Aware,
    );
    let fmax = smt.fmax_mcps();
    for thread in 0..2 {
        smt.add_vm(
            VmConfig::new(format!("t{thread}"), Credit::percent(40.0)),
            Box::new(ConstantDemand::new(fmax)),
            ThreadId(thread),
        );
    }
    smt.run_for(SimDuration::from_secs(60));
    golden.push(("smthost.energy_j", smt.total_energy_j().to_bits()));
    golden
}

/// Golden bits: results of every host model pinned to the last bit.
/// A change that only makes the simulator faster (caching a value
/// where it is written, inlining, reusing buffers) must leave each of
/// these in place. Regenerate the literals only in a commit that does
/// nothing else (the failure message prints the current table), and
/// only once a change has moved the arithmetic on purpose — integer
/// accounting, say.
#[test]
fn golden_bits_are_pinned() {
    const GOLDEN: &[(&str, u64)] = &[
        ("fleet.energy_j", 0x40e2d7c484d97a17),
        ("fleet.sla_ratio", 0x3feefc239c4dbcb9),
        ("fleet.migrations", 1),
        ("pas.v20_abs", 0x3fc33315ffcf35b1),
        ("pas.v70_abs", 0x3fd2aaa548b2aebc),
        ("pas.energy_j", 0x40e52dd8f7aef1ea),
        ("pas.v20_mean_latency_s", 0x3fb0dd87144fae91),
        ("pas.v20_p95_latency_s", 0x3fb7024f6598e10d),
        ("credit_ondemand.transitions", 60),
        ("credit_ondemand.energy_j", 0x40e4e879f2edc92a),
        ("credit_ondemand.v20_mean_latency_s", 0x4013d6cf42726d3f),
        ("credit_ondemand.v20_p95_latency_s", 0x4020d04a515ce9e6),
        ("steady_pas.energy_j", 0x40b7f06db0da5dbb),
        ("steady_pas.trace_fnv1a64", 0xe250e4ce551ed3e8),
        ("multihost.energy_j", 0x40cb580733d69ebf),
        ("smthost.energy_j", 0x40b2c342bba89023),
    ];
    let got = golden_values();
    let table: String = got
        .iter()
        .map(|(name, bits)| format!("        (\"{name}\", {bits:#018x}),\n"))
        .collect();
    assert_eq!(
        got, GOLDEN,
        "golden bits moved; the current table:\n{table}"
    );
}
