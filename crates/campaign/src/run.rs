//! Assembling and running one design point, R-seeded.
//!
//! Every run is an independent, internally single-threaded simulation
//! seeded from `seeds.base + replica`; the campaign fans runs out over
//! [`cluster::exec::parallel_map`], whose results land in input order
//! — so stdout and artefacts are byte-identical for every `--jobs`
//! value, like the rest of the `repro` pipeline.
//!
//! SLA accounting exploits the declarative spec: the offered demand of
//! every workload is known in closed form, so each VM's entitlement
//! (`min(booked credit, demand)` integrated over the run, the same
//! definition as [`cluster::fleet::Fleet::totals`]) is computed from
//! the spec and compared against the delivered absolute capacity the
//! host actually measured.

use cluster::fleet::{Fleet, FleetConfig};
use cluster::placement::{HostCapacity, VmSpec as ClusterVmSpec};
use cluster::MigrationCostModel;
use hypervisor::host::{HostConfig, HostPerf};
use hypervisor::vm::VmConfig;
use hypervisor::work::{ConstantDemand, WorkSource};
use pas_core::Credit;
use serde::Serialize;
use simkernel::{SimDuration, SimRng};
use workloads::{ArrivalModel, Intensity, PiApp, Profile, TraceDemand, WebApp};

use crate::spec::{FleetScenario, HostScenario, ScenarioSpec, SchedulerSpec, WorkloadSpec};
use crate::sweep::DesignPoint;

/// One replica's raw results: the seed and the scalar metrics, in a
/// deterministic order shared by every replica of the campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunRecord {
    /// The seed this replica ran under.
    pub seed: u64,
    /// `(metric, value)` pairs.
    pub scalars: Vec<(String, f64)>,
}

/// One replica's results plus its merged event trace (see
/// [`run_point_traced`]).
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The scalar results, identical to what [`run_point`] returns.
    pub record: RunRecord,
    /// The run's merged, time-ordered event trace.
    pub trace: trace::Trace,
    /// Host hot-path wall-clock timings, summed over the run's hosts.
    /// Measured, not simulated — keep out of byte-compared artefacts;
    /// the campaign folds them into its `<name>-profile.json` report.
    pub perf: HostPerf,
}

/// The time-scale factor: `--quick` runs are 10× shorter (floored at
/// 30 s), applied uniformly so profile shapes are preserved.
fn time_factor(duration_s: f64, quick: bool) -> f64 {
    if !quick {
        return 1.0;
    }
    let scaled = (duration_s / 10.0).max(30.0).min(duration_s);
    scaled / duration_s
}

/// Runs one design point under one seed.
#[must_use]
pub fn run_point(point: &DesignPoint, seed: u64, quick: bool) -> RunRecord {
    let scalars = match &point.scenario {
        ScenarioSpec::Host(h) => run_host(h, seed, quick, None, false).0,
        ScenarioSpec::Fleet(f) => run_fleet(f, seed, quick, None, false).0,
    };
    RunRecord { seed, scalars }
}

/// Runs one design point under one seed with tracing and host phase
/// profiling enabled: every host carries a bounded ring of `capacity`
/// events and times its hot-path phases. The scalar results are
/// bit-identical to [`run_point`] — tracing and profiling only
/// observe.
#[must_use]
pub fn run_point_traced(point: &DesignPoint, seed: u64, quick: bool, capacity: usize) -> TracedRun {
    let (scalars, trace, perf) = match &point.scenario {
        ScenarioSpec::Host(h) => run_host(h, seed, quick, Some(capacity), true),
        ScenarioSpec::Fleet(f) => run_fleet(f, seed, quick, Some(capacity), true),
    };
    TracedRun {
        record: RunRecord { seed, scalars },
        trace: trace.expect("tracing was requested"),
        perf,
    }
}

// ---------------------------------------------------------------------------
// Host scenarios.
// ---------------------------------------------------------------------------

fn build_workload(
    w: &WorkloadSpec,
    credit_frac: f64,
    fmax_mcps: f64,
    scale: f64,
    total_s: f64,
    rng: SimRng,
) -> Box<dyn WorkSource> {
    let vm_capacity = credit_frac * fmax_mcps;
    match w {
        WorkloadSpec::PiApp { seconds } => {
            Box::new(PiApp::sized_for_seconds(seconds * scale, vm_capacity))
        }
        WorkloadSpec::WebApp {
            intensity_pct,
            start_s,
            active_s,
            bursty,
            request_mcycles,
        } => {
            let start = start_s * scale;
            let active = active_s
                .map(|a| a * scale)
                .unwrap_or((total_s - start).max(0.0));
            let profile = Profile::three_phase(
                SimDuration::from_secs_f64(start),
                SimDuration::from_secs_f64(active),
                Intensity::Fraction(intensity_pct / 100.0),
            );
            let arrivals = if *bursty {
                ArrivalModel::Poisson {
                    request_mcycles: *request_mcycles,
                    rng,
                }
            } else {
                ArrivalModel::Fluid
            };
            Box::new(WebApp::new(profile, vm_capacity, fmax_mcps, arrivals))
        }
        WorkloadSpec::Trace { segments } => {
            let mut trace = TraceDemand::new();
            for &(dur, load_pct) in segments {
                trace = trace.segment(
                    SimDuration::from_secs_f64(dur * scale),
                    load_pct / 100.0 * vm_capacity,
                );
            }
            Box::new(trace)
        }
        WorkloadSpec::Fluid { load_pct } => {
            Box::new(ConstantDemand::new(load_pct / 100.0 * vm_capacity))
        }
    }
}

/// `min(credit, offered demand)` integrated over `[0, total_s]`, in
/// fmax-seconds — the VM's entitlement, computed in closed form from
/// the declarative workload.
fn entitled_fmax_secs(w: &WorkloadSpec, credit_frac: f64, scale: f64, total_s: f64) -> f64 {
    match w {
        WorkloadSpec::PiApp { seconds } => {
            // A batch of `seconds` at booked capacity: the VM can use
            // at most its credit until the batch drains.
            credit_frac * (seconds * scale).min(total_s)
        }
        WorkloadSpec::WebApp {
            intensity_pct,
            start_s,
            active_s,
            ..
        } => {
            let start = (start_s * scale).min(total_s);
            let end = active_s
                .map(|a| (start + a * scale).min(total_s))
                .unwrap_or(total_s);
            let rate = credit_frac * intensity_pct / 100.0;
            rate.min(credit_frac) * (end - start).max(0.0)
        }
        WorkloadSpec::Trace { segments } => {
            let mut acc = 0.0;
            let mut cursor = 0.0;
            for &(dur, load_pct) in segments {
                if cursor >= total_s {
                    break;
                }
                let end = (cursor + dur * scale).min(total_s);
                let rate = credit_frac * load_pct / 100.0;
                acc += rate.min(credit_frac) * (end - cursor);
                cursor = end;
            }
            acc
        }
        WorkloadSpec::Fluid { load_pct } => {
            let rate = credit_frac * load_pct / 100.0;
            rate.min(credit_frac) * total_s
        }
    }
}

fn run_host(
    sc: &HostScenario,
    seed: u64,
    quick: bool,
    trace_capacity: Option<usize>,
    profile: bool,
) -> (Vec<(String, f64)>, Option<trace::Trace>, HostPerf) {
    let scale = time_factor(sc.duration_s, quick);
    let total_s = sc.duration_s * scale;
    let mut cfg = HostConfig::optiplex_defaults(sc.scheduler.kind())
        .with_machine(sc.machine.build())
        .with_sample_period(SimDuration::from_secs_f64((total_s / 60.0).max(1.0)));
    // PAS owns DVFS; a swept `scheduler × governor` grid simply drops
    // the governor on its PAS points.
    if sc.scheduler != SchedulerSpec::Pas {
        if let Some(g) = sc.governor {
            cfg = cfg.with_governor(g.build());
        }
    }
    let mut host = cfg.build();
    if let Some(cap) = trace_capacity {
        host.set_tracer(trace::Tracer::new(1, cap).with_host(0));
    }
    host.set_profiling(profile);
    let fmax = host.fmax_mcps();
    let base_rng = SimRng::seed_from(seed);

    let mut ids = Vec::with_capacity(sc.vms.len());
    for (i, vm) in sc.vms.iter().enumerate() {
        let credit_frac = vm.credit_pct / 100.0;
        let work = build_workload(
            &vm.workload,
            credit_frac,
            fmax,
            scale,
            total_s,
            base_rng.fork(i as u64),
        );
        ids.push(host.add_vm(
            VmConfig::new(vm.name.clone(), Credit::percent(vm.credit_pct)),
            work,
        ));
    }
    host.run_for(SimDuration::from_secs_f64(total_s));

    let mut delivered = 0.0;
    let mut entitled = 0.0;
    let mut per_vm = Vec::new();
    for (i, vm) in sc.vms.iter().enumerate() {
        let credit_frac = vm.credit_pct / 100.0;
        let abs = host.stats().vm_absolute_fraction(ids[i]);
        delivered += abs * total_s;
        entitled += entitled_fmax_secs(&vm.workload, credit_frac, scale, total_s);
        per_vm.push((format!("abs_load_pct:{}", vm.name), abs * 100.0));
        if let Some(qos) = host.vm_qos(ids[i]) {
            per_vm.push((format!("p95_latency_s:{}", vm.name), qos.p95_latency_s));
        }
    }
    let sla_ratio = if entitled > 0.0 {
        delivered / entitled
    } else {
        1.0
    };

    let snaps = host.stats().snapshots();
    let mean_freq = if snaps.is_empty() {
        0.0
    } else {
        snaps.iter().map(|s| f64::from(s.freq_mhz)).sum::<f64>() / snaps.len() as f64
    };

    let mut scalars = vec![
        ("energy_j".to_owned(), host.cpu().energy().joules()),
        (
            "sla_violation_pct".to_owned(),
            ((1.0 - sla_ratio).max(0.0)) * 100.0,
        ),
        ("mean_freq_mhz".to_owned(), mean_freq),
    ];
    scalars.extend(per_vm);
    let perf = host.perf();
    let trace = host
        .take_tracer()
        .map(|tracer| trace::Trace::merge(vec![tracer]));
    (scalars, trace, perf)
}

// ---------------------------------------------------------------------------
// Fleet scenarios.
// ---------------------------------------------------------------------------

/// The seed-deterministic VM population of a fleet scenario.
fn fleet_population(sc: &FleetScenario, seed: u64) -> Vec<ClusterVmSpec> {
    let mut rng = SimRng::seed_from(seed);
    (0..sc.size)
        .map(|i| {
            let mem = sc.mem_gib_choices[rng.below(sc.mem_gib_choices.len() as u64) as usize];
            let cpu = rng.uniform_range(sc.cpu_frac_min, sc.cpu_frac_max);
            let credit = (cpu * sc.credit_factor).clamp(0.01, 0.95);
            ClusterVmSpec::new(format!("vm{i}"), mem, cpu).with_credit_frac(credit)
        })
        .collect()
}

fn run_fleet(
    sc: &FleetScenario,
    seed: u64,
    quick: bool,
    trace_capacity: Option<usize>,
    profile: bool,
) -> (Vec<(String, f64)>, Option<trace::Trace>, HostPerf) {
    let scale = time_factor(sc.duration_s, quick);
    let total_s = sc.duration_s * scale;
    let epochs = ((total_s / sc.epoch_s).round() as usize).max(1);

    let governor = if sc.scheduler == SchedulerSpec::Pas {
        None
    } else {
        sc.governor
            .map(|g| g.fleet().expect("validated at expansion"))
    };
    let cfg = FleetConfig {
        capacity: HostCapacity::optiplex_defaults(),
        scheduler: sc.scheduler.kind(),
        governor,
        policy: sc.placement.policy(),
        trigger: sc.migration.map(crate::spec::MigrationSpec::trigger),
        cost: MigrationCostModel::gigabit_defaults(),
        epoch: SimDuration::from_secs_f64(sc.epoch_s),
        spare_hosts: sc.spare_hosts,
        sharding: sc.shards.map(cluster::ShardConfig::new),
        // Campaigns only consume scalar reductions, so every fleet
        // run takes the bounded-statistics path: mean load from the
        // running sum, the load distribution from the mergeable
        // sketch, no per-epoch series or per-host snapshot retention
        // — memory stays O(sketch) at any population.
        bounded_stats: true,
    };
    let specs = fleet_population(sc, seed);
    let mut fleet = Fleet::build(cfg, &specs);
    if let Some(cap) = trace_capacity {
        fleet.enable_tracing(cap);
    }
    if profile {
        fleet.enable_profiling();
    }
    // Inner jobs stay at 1: campaign parallelism fans out across
    // replicas and design points, which is both simpler and fuller.
    fleet.run_epochs(epochs, 1);
    let totals = fleet.totals();
    let (perf, _) = fleet.perf_totals();
    let trace = fleet.take_trace();
    let sketch = fleet.load_sketch();

    let scalars = vec![
        ("energy_j".to_owned(), totals.energy_j),
        (
            "sla_violation_pct".to_owned(),
            ((1.0 - totals.sla_ratio).max(0.0)) * 100.0,
        ),
        ("host_energy_j".to_owned(), totals.host_energy_j),
        ("migration_energy_j".to_owned(), totals.migration_energy_j),
        ("migration_count".to_owned(), totals.migration_count as f64),
        ("downtime_s".to_owned(), totals.downtime_s),
        ("host_count".to_owned(), fleet.host_count() as f64),
        ("mean_load_pct".to_owned(), fleet.mean_load_pct()),
        // Tail percentiles of the per-host-epoch load distribution,
        // from the sketch (within its documented 1% relative error).
        (
            "load_p95_pct".to_owned(),
            sketch.percentile(95.0).unwrap_or(0.0),
        ),
        (
            "load_p99_pct".to_owned(),
            sketch.percentile(99.0).unwrap_or(0.0),
        ),
    ];
    (scalars, trace, perf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{GovernorSpec, MachinePreset, MigrationSpec, PlacementSpec, VmSpec};

    fn quick_host(scheduler: SchedulerSpec, governor: Option<GovernorSpec>) -> HostScenario {
        HostScenario {
            machine: MachinePreset::Optiplex755,
            scheduler,
            governor,
            duration_s: 600.0,
            vms: vec![
                VmSpec {
                    name: "v20".to_owned(),
                    credit_pct: 20.0,
                    workload: WorkloadSpec::WebApp {
                        intensity_pct: 100.0,
                        start_s: 0.0,
                        active_s: None,
                        bursty: true,
                        request_mcycles: 50.0,
                    },
                },
                VmSpec {
                    name: "batch".to_owned(),
                    credit_pct: 30.0,
                    workload: WorkloadSpec::PiApp { seconds: 20.0 },
                },
            ],
        }
    }

    fn point(scenario: ScenarioSpec) -> DesignPoint {
        DesignPoint {
            label: "base".to_owned(),
            settings: Vec::new(),
            scenario,
        }
    }

    #[test]
    fn quick_scaling_preserves_shape_and_floors_at_30s() {
        assert_eq!(time_factor(600.0, false), 1.0);
        assert_eq!(time_factor(600.0, true), 0.1);
        // 100 s / 10 = 10 s would be under the floor: clamp to 30 s.
        assert!((time_factor(100.0, true) - 0.3).abs() < 1e-12);
        // Durations already under the floor are left alone.
        assert_eq!(time_factor(20.0, true), 1.0);
    }

    #[test]
    fn host_run_produces_the_core_metrics() {
        let r = run_point(
            &point(ScenarioSpec::Host(quick_host(SchedulerSpec::Pas, None))),
            7,
            true,
        );
        let get = |k: &str| {
            r.scalars
                .iter()
                .find(|(n, _)| n == k)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing {k} in {:?}", r.scalars))
        };
        assert!(get("energy_j") > 0.0);
        assert!(get("mean_freq_mhz") > 0.0);
        assert!((0.0..=100.0).contains(&get("sla_violation_pct")));
        assert!(get("abs_load_pct:v20") > 5.0, "the exact load shows up");
        // Web-app VMs report latency; batch VMs do not.
        assert!(r.scalars.iter().any(|(n, _)| n == "p95_latency_s:v20"));
        assert!(!r.scalars.iter().any(|(n, _)| n == "p95_latency_s:batch"));
    }

    #[test]
    fn same_seed_same_scalars_different_seed_differs() {
        let sc = ScenarioSpec::Host(quick_host(
            SchedulerSpec::Credit,
            Some(GovernorSpec::StableOndemand),
        ));
        let a = run_point(&point(sc.clone()), 7, true);
        let b = run_point(&point(sc.clone()), 7, true);
        assert_eq!(a, b, "bit-identical replica");
        let c = run_point(&point(sc), 8, true);
        assert_ne!(a.scalars, c.scalars, "bursty arrivals follow the seed");
    }

    #[test]
    fn pas_point_ignores_the_swept_governor() {
        // A scheduler × governor sweep reaches (pas, ondemand); the
        // host must build (no panic) and behave like plain PAS.
        let with_gov = run_point(
            &point(ScenarioSpec::Host(quick_host(
                SchedulerSpec::Pas,
                Some(GovernorSpec::Ondemand),
            ))),
            7,
            true,
        );
        let without = run_point(
            &point(ScenarioSpec::Host(quick_host(SchedulerSpec::Pas, None))),
            7,
            true,
        );
        assert_eq!(with_gov, without);
    }

    #[test]
    fn fleet_run_produces_fleet_metrics_and_follows_seed() {
        let sc = ScenarioSpec::Fleet(FleetScenario {
            scheduler: SchedulerSpec::Pas,
            governor: None,
            duration_s: 600.0,
            size: 10,
            mem_gib_choices: vec![2.0, 4.0, 8.0],
            cpu_frac_min: 0.03,
            cpu_frac_max: 0.10,
            credit_factor: 1.0,
            placement: PlacementSpec::BestFit,
            migration: Some(MigrationSpec {
                high_pct: 85.0,
                target_pct: 70.0,
            }),
            epoch_s: 30.0,
            spare_hosts: 0,
            shards: None,
        });
        let a = run_point(&point(sc.clone()), 1, true);
        let get = |k: &str| a.scalars.iter().find(|(n, _)| n == k).unwrap().1;
        assert!(get("energy_j") > 0.0);
        assert!(get("host_count") >= 2.0);
        assert!(get("mean_load_pct") > 0.0);
        let b = run_point(&point(sc), 2, true);
        assert_ne!(a.scalars, b.scalars, "population follows the seed");
    }

    #[test]
    fn traced_point_matches_untraced_scalars_and_yields_events() {
        let host_sc = ScenarioSpec::Host(quick_host(SchedulerSpec::Pas, None));
        let plain = run_point(&point(host_sc.clone()), 7, true);
        let traced = run_point_traced(&point(host_sc), 7, true, 4096);
        assert_eq!(
            plain, traced.record,
            "tracing must not change the simulation"
        );
        assert!(traced.trace.recorded() > 0, "a PAS host emits events");
        assert!(traced
            .trace
            .events()
            .iter()
            .any(|e| e.kind.name() == "sched_pick"));

        let fleet_sc = ScenarioSpec::Fleet(FleetScenario {
            scheduler: SchedulerSpec::Pas,
            governor: None,
            duration_s: 600.0,
            size: 10,
            mem_gib_choices: vec![2.0, 4.0, 8.0],
            cpu_frac_min: 0.03,
            cpu_frac_max: 0.10,
            credit_factor: 1.0,
            placement: PlacementSpec::BestFit,
            migration: None,
            epoch_s: 30.0,
            spare_hosts: 0,
            shards: None,
        });
        let plain = run_point(&point(fleet_sc.clone()), 1, true);
        let traced = run_point_traced(&point(fleet_sc), 1, true, 4096);
        assert_eq!(plain, traced.record);
        let placements = traced
            .trace
            .events()
            .iter()
            .filter(|e| e.kind.name() == "placement")
            .count();
        assert_eq!(placements, 10, "one placement event per VM");
    }
}
