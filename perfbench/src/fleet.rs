//! `fleet`: the datacenter path users run.
//!
//! Why: nearly all of its time goes to the sub-quantum wake/drain
//! slices of trickle-demand VMs, the hot path steady-state skipping
//! targets, and it is the only workload on sharded placement, the
//! `exec` worker pool, the migration controller and the load sketch.
//!
//! Exercises `cluster` (placement, shards, epochs, migration, `exec`)
//! and `hypervisor` hosts running PAS (with `simkernel`, `cpumodel`,
//! `pas_core` and `metrics` inside). Bypasses `campaign`, `server` and
//! `experiments`; the fused window replay commits next to nothing here.
//!
//! Input: the `examples/campaigns/fleet-scale.json` population at its
//! 1,000-VM sweep point (2, 4 or 8 GiB; steady demand uniform in
//! 3–10 % of a host; credit 1.5× demand), drawn from the seed. Twenty
//! VMs the seed picks are instead booked high and step their demand up
//! to that booking mid-pass, and a few spare hosts give the controller
//! somewhere to move them. A pass builds the fleet (16 shard
//! controllers, bounded statistics, default migration watermarks) and
//! advances it four 30 s epochs on one worker per core; an operation is
//! one epoch.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cluster::{Fleet, FleetConfig, MigrationTrigger, ShardConfig, VmSpec};
use hypervisor::HostPerf;
use simkernel::{SimDuration, SimRng};

use crate::spans::median;
use crate::{jobs, overhead_pct, ratio, Items, Reported, Run};

const VMS: usize = 1_000;
const MEM_GIB: [f64; 3] = [2.0, 4.0, 8.0];
const CPU_FRAC: (f64, f64) = (0.03, 0.10);
const CREDIT_FACTOR: f64 = 1.5;
/// How many VMs surge (the same count for every seed, so the seed
/// changes which hosts surge, not how much surge work there is), the
/// booking they surge to, and when.
const SURGES: usize = 20;
const SURGE_CREDIT: (f64, f64) = (0.60, 0.68);
const SURGE_AT_S: (f64, f64) = (40.0, 80.0);
const SHARDS: usize = 16;
const SPARE_HOSTS: usize = 4;
const EPOCH_S: u64 = 30;
const EPOCHS: usize = 4;
/// Fleet builds per pass; only the last one runs.
const BUILDS: usize = 20;

/// The seed's VM population.
fn population(seed: u64) -> Vec<VmSpec> {
    let mut rng = SimRng::seed_from(seed);
    let mut pick = rng.fork(1);
    let mut order: Vec<usize> = (0..VMS).collect();
    for i in 0..SURGES {
        let j = i + pick.below((VMS - i) as u64) as usize;
        order.swap(i, j);
    }
    let surging = &order[..SURGES];
    (0..VMS)
        .map(|i| {
            let mem = MEM_GIB[rng.below(MEM_GIB.len() as u64) as usize];
            let cpu = rng.uniform_range(CPU_FRAC.0, CPU_FRAC.1);
            let vm = VmSpec::new(format!("vm{i}"), mem, cpu);
            if surging.contains(&i) {
                let booked = rng.uniform_range(SURGE_CREDIT.0, SURGE_CREDIT.1);
                let at_s = rng.uniform_range(SURGE_AT_S.0, SURGE_AT_S.1);
                vm.with_credit_frac(booked).with_steps(vec![(at_s, booked)])
            } else {
                vm.with_credit_frac((cpu * CREDIT_FACTOR).clamp(0.01, 0.95))
            }
        })
        .collect()
}

fn config() -> FleetConfig {
    FleetConfig::pas_defaults()
        .with_sharding(ShardConfig::new(SHARDS))
        .with_bounded_stats(true)
        .with_epoch(SimDuration::from_secs(EPOCH_S))
        .with_trigger(MigrationTrigger::default())
        .with_spares(SPARE_HOSTS)
}

pub(crate) fn run(run: &mut Run) -> Reported {
    let specs = population(run.cfg.seed);
    let jobs = jobs();
    // Traced passes only: summed host phase times, simulated host-s.
    let mut perf_passes: Vec<HostPerf> = Vec::new();
    let mut traced_host_s = 0.0;
    let mut items = Items::default();

    while let Some(traced) = run.next_pass() {
        let pass = run.spans.begin("pass");
        let mut fleet = None;
        let mut fastest_build = f64::INFINITY;
        for _ in 0..BUILDS {
            drop(fleet.take());
            let id = run.spans.begin("Fleet::build");
            let built = catch_unwind(AssertUnwindSafe(|| Fleet::build(config(), &specs)));
            fastest_build = fastest_build.min(run.spans.end(id));
            fleet = built.ok();
        }
        if !traced {
            items.setup(fastest_build);
        }
        let Some(mut fleet) = fleet else {
            run.lost(EPOCHS as u64, "Fleet::build panicked");
            run.spans.end(pass);
            continue;
        };
        if traced {
            fleet.enable_tracing(trace::DEFAULT_CAPACITY);
            fleet.enable_profiling();
        }
        let host_s_per_epoch = (fleet.host_count() as u64 * EPOCH_S) as f64;
        for epoch in 0..EPOCHS {
            let ran = run.op("epoch", |run| {
                let ((), wall) = run
                    .spans
                    .time("Fleet::run_epochs", || fleet.run_epochs(1, jobs));
                let (totals, _) = run.spans.time("Fleet::totals", || fleet.totals());
                let mut sla = totals.sla_ratio;
                if run.take_fault() {
                    sla = -sla;
                }
                if !(totals.energy_j.is_finite() && totals.energy_j > 0.0) {
                    return Err(format!("fleet energy {} J", totals.energy_j));
                }
                if !(0.0..=1.0).contains(&sla) {
                    return Err(format!("SLA ratio {sla} outside [0, 1]"));
                }
                Ok(wall)
            });
            if let (Some(wall), false) = (ran, traced) {
                items.record(epoch, host_s_per_epoch, wall);
            }
        }
        let totals = fleet.totals();
        let (perf, fused) = fleet.perf_totals();
        let pass_host_s = host_s_per_epoch * EPOCHS as f64;
        let mut counters = Reported::from([
            ("cluster.hosts", fleet.host_count() as f64),
            ("cluster.vms", specs.len() as f64),
            ("cluster.migrations", totals.migration_count as f64),
            ("cluster.energy_mj", totals.energy_j / 1e6),
            ("cluster.sla_ratio", totals.sla_ratio),
        ]);
        // A host with a tracer installed never takes the fused replay,
        // so the fused-slice count is an untraced-pass counter.
        if !traced {
            counters.insert("hypervisor.fused_slices", fused as f64);
        } else {
            let (trace, _) = run.spans.time("Fleet::take_trace", || fleet.take_trace());
            let recorded = trace.map_or(0, |t| t.recorded());
            counters.insert(
                "trace.events_per_host_s",
                ratio(recorded as f64, pass_host_s),
            );
            perf_passes.push(perf);
            traced_host_s += pass_host_s;
        }
        run.counters(&counters);
        drop(fleet);
        let pass_s = run.spans.end(pass);
        run.pass_done(pass_s);
    }

    let spans = &run.spans;
    let traced_epochs = spans.secs("Fleet::run_epochs", true);
    let ms = |ns: fn(&HostPerf) -> u64| {
        median(
            &perf_passes
                .iter()
                .map(|p| ns(p) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let busy_ns: u64 = perf_passes
        .iter()
        .map(|p| p.host_slice_ns + p.sched_acct_ns + p.governor_ns + p.snapshot_ns)
        .sum();
    let traced_epoch_s: f64 = traced_epochs.iter().sum();
    Reported::from([
        ("setup_s", items.setup_s()),
        ("host_s_per_s", items.host_s_per_s()),
        ("turnaround_p50_s", items.p50_s()),
        (
            "cluster.build_ms",
            median(&spans.secs("Fleet::build", true)) * 1e3,
        ),
        ("cluster.epoch_ms_p50", median(&traced_epochs) * 1e3),
        (
            "cluster.pool_busy_frac",
            ratio(busy_ns as f64 / 1e9, jobs as f64 * traced_epoch_s),
        ),
        ("hypervisor.host_slice_ms", ms(|p| p.host_slice_ns)),
        ("hypervisor.sched_acct_ms", ms(|p| p.sched_acct_ns)),
        ("hypervisor.governor_ms", ms(|p| p.governor_ns)),
        ("hypervisor.snapshot_ms", ms(|p| p.snapshot_ns)),
        (
            "hypervisor.slice_ns_per_host_s",
            ratio(
                perf_passes.iter().map(|p| p.host_slice_ns).sum::<u64>() as f64,
                traced_host_s,
            ),
        ),
        (
            "trace.overhead_pct",
            overhead_pct(
                median(&spans.secs("pass", false)),
                median(&spans.secs("pass", true)),
            ),
        ),
    ])
}
