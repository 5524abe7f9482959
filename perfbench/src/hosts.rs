//! `hosts`: single-host paper scenarios back to back on one thread.
//!
//! Why: it drives the slice loop unlike `fleet` does — saturated,
//! bursty and phased sources on one host, under every scheduler and
//! all three host models — and it is the only workload where the fused
//! window replay commits (the steady-thrash hosts) and the only one
//! that checks the paper's claims, so it carries the accuracy counter
//! `pas_credit_err_pp`.
//!
//! Exercises `hypervisor` (`Host`, `MultiHost`, `SmtHost` and their
//! schedulers, with `simkernel`, `cpumodel`, `governors`, `pas_core`
//! and `workloads` inside) and `experiments::scenario::build`. Bypasses
//! `cluster`, `campaign` and `server`.
//!
//! A pass builds and runs, in order: the Fig. 2–10 three-phase
//! scenario on its full 6000 s timeline under Credit + performance,
//! Credit + ondemand and Credit + stable ondemand (both with Poisson
//! arrivals drawn from the seed, as Figs. 3–4 use), SEDF-extra with
//! exact and with thrashing load, and PAS with thrashing load; a
//! steady PAS host (V20 thrashing at fmax, V70 idle) at three credit
//! levels; a 2-socket × 2-core `MultiHost` with per-core DVFS under
//! PAS; and an `SmtHost`, naive and aware, with its sibling idle and
//! thrashing. An operation is one scenario.

use cpumodel::topology::{CoreId, DvfsGranularity, Topology};
use cpumodel::{machines, SmtSpec};
use experiments::scenario::{self, Fidelity, Scenario, ScenarioConfig};
use governors::{Governor, Ondemand, Performance, StableOndemand};
use hypervisor::multicore::{MultiDvfs, MultiHost};
use hypervisor::smt::{SmtAwareness, SmtHost, ThreadId};
use hypervisor::work::{ConstantDemand, Idle};
use hypervisor::{Host, HostConfig, HostPerf, SchedulerKind, VmConfig, VmId};
use pas_core::Credit;
use simkernel::{SimDuration, SimRng};
use workloads::Intensity;

use crate::spans::median;
use crate::{overhead_pct, ratio, Items, Reported, Run};

/// Tolerances of `tests/paper_claims.rs`.
const PAS_TOLERANCE_PP: f64 = 1.5;
const CREDIT_ONDEMAND_V20_MAX_PCT: f64 = 13.0;
/// Steady-thrash V20 bookings, percent.
const STEADY_CREDITS: [f64; 3] = [10.0, 20.0, 30.0];
const STEADY_S: u64 = 6000;
/// Per-core bookings of the thrashing `MultiHost` VMs, percent.
const MULTI_CREDITS: [f64; 4] = [20.0, 70.0, 40.0, 10.0];
const MULTI_S: u64 = 1200;
const SMT_BOOKED_PCT: f64 = 40.0;
const SMT_S: u64 = 2400;
/// Host-set builds per pass; only the last set runs.
const BUILDS: usize = 100;

#[derive(Clone, Copy)]
enum Gov {
    None,
    Performance,
    Ondemand,
    Stable,
}

impl Gov {
    fn build(self) -> Option<Box<dyn Governor>> {
        match self {
            Gov::None => None,
            Gov::Performance => Some(Box::new(Performance)),
            Gov::Ondemand => Some(Box::new(Ondemand::default())),
            Gov::Stable => Some(Box::new(StableOndemand::new())),
        }
    }
}

/// The three-phase scenarios: `(name, scheduler, governor, load,
/// Poisson arrivals)`.
#[rustfmt::skip]
const PHASED: [(&str, SchedulerKind, Gov, Intensity, bool); 6] = [
    ("credit+performance", SchedulerKind::Credit, Gov::Performance, Intensity::Exact, false),
    ("credit+ondemand", SchedulerKind::Credit, Gov::Ondemand, Intensity::Exact, true),
    ("credit+stable", SchedulerKind::Credit, Gov::Stable, Intensity::Exact, true),
    ("sedf+exact", SchedulerKind::Sedf { extra: true }, Gov::Stable, Intensity::Exact, false),
    ("sedf+thrashing", SchedulerKind::Sedf { extra: true }, Gov::Stable, Intensity::Thrashing, false),
    ("pas+thrashing", SchedulerKind::Pas, Gov::None, Intensity::Thrashing, false),
];

/// One built, not yet run, scenario.
enum Sim {
    Phased {
        name: &'static str,
        sc: Scenario,
    },
    Steady {
        host: Host,
        v20: VmId,
        booked_pct: f64,
    },
    Multi(MultiHost),
    Smt {
        host: SmtHost,
        vm: VmId,
    },
}

fn build_set(run: &mut Run, seed: u64) -> Vec<Sim> {
    let mut rng = SimRng::seed_from(seed);
    let mut set = Vec::new();
    for (name, scheduler, gov, intensity, bursty) in PHASED {
        let mut cfg = ScenarioConfig::new(scheduler, intensity, Fidelity::Full);
        if let Some(g) = gov.build() {
            cfg = cfg.with_governor(g);
        }
        if bursty {
            cfg = cfg.with_bursty_arrivals(rng.below(u64::MAX));
        }
        let (sc, _) = run.spans.time("scenario::build", || scenario::build(cfg));
        set.push(Sim::Phased { name, sc });
    }
    for booked_pct in STEADY_CREDITS {
        let (host, _) = run.spans.time("HostConfig::build", || {
            HostConfig::optiplex_defaults(SchedulerKind::Pas).build()
        });
        let mut host = host;
        let thrash = host.fmax_mcps();
        let v20 = host.add_vm(
            VmConfig::new("v20", Credit::percent(booked_pct)),
            Box::new(ConstantDemand::new(thrash)),
        );
        host.add_vm(VmConfig::new("v70", Credit::percent(70.0)), Box::new(Idle));
        set.push(Sim::Steady {
            host,
            v20,
            booked_pct,
        });
    }
    let (mut multi, _) = run.spans.time("MultiHost::new", || {
        MultiHost::new(
            &machines::optiplex_755(),
            Topology::new(2, 2, DvfsGranularity::PerCore),
            MultiDvfs::Pas,
        )
    });
    let fmax = multi.fmax_mcps();
    for (core, booked) in MULTI_CREDITS.iter().enumerate() {
        multi.add_vm(
            VmConfig::new(format!("vm{core}"), Credit::percent(*booked)),
            Box::new(ConstantDemand::new(fmax)),
            CoreId(core),
        );
    }
    set.push(Sim::Multi(multi));
    for awareness in [SmtAwareness::Naive, SmtAwareness::Aware] {
        for sibling_thrashing in [false, true] {
            let (mut host, _) = run.spans.time("SmtHost::new", || {
                SmtHost::new(
                    &machines::optiplex_755(),
                    SmtSpec::intel_typical(),
                    awareness,
                )
            });
            let thrash = host.fmax_mcps();
            let vm = host.add_vm(
                VmConfig::new("a", Credit::percent(SMT_BOOKED_PCT)),
                Box::new(ConstantDemand::new(thrash)),
                ThreadId(0),
            );
            let sibling = VmConfig::new("b", Credit::percent(SMT_BOOKED_PCT));
            if sibling_thrashing {
                host.add_vm(sibling, Box::new(ConstantDemand::new(thrash)), ThreadId(1));
            } else {
                host.add_vm(sibling, Box::new(Idle), ThreadId(1));
            }
            set.push(Sim::Smt { host, vm });
        }
    }
    set
}

/// Absolute load of `vm` over `(t0, t1)`, percent of fmax capacity.
fn abs_pct(sc: &Scenario, vm: VmId, (t0, t1): (f64, f64)) -> f64 {
    sc.absolute_load_series(vm, "abs")
        .mean_between(t0, t1)
        .unwrap_or(f64::NAN)
}

/// What a pass accumulates across its scenarios.
#[derive(Default)]
struct PassTotals {
    pas_err_pp: f64,
    fused: u64,
    transitions: u64,
    energy_j: f64,
    trace_events: u64,
    traced_host_s: f64,
    perf: HostPerf,
}

/// Runs one scenario and checks its output; returns its simulated
/// host-seconds and the wall time of its `run_for`.
fn run_one(
    run: &mut Run,
    sim: &mut Sim,
    traced: bool,
    acc: &mut PassTotals,
) -> Result<(f64, f64), String> {
    match sim {
        Sim::Phased { name, sc } => {
            if traced {
                sc.host
                    .set_tracer(trace::Tracer::new(1, trace::DEFAULT_CAPACITY));
                sc.host.set_profiling(true);
            }
            let span = run_for_span(sc.host.scheduler_name());
            let ((), wall) = run.spans.time(span, || sc.run());
            let host_s = sc.timeline.total;
            finish_host(&mut sc.host, host_s, acc);
            let (a, b) = (sc.timeline.phase_a(), sc.timeline.phase_b());
            match *name {
                "credit+ondemand" => {
                    let v20 = abs_pct(sc, sc.v20, a);
                    if v20.is_nan() || v20 >= CREDIT_ONDEMAND_V20_MAX_PCT {
                        return Err(format!("credit+ondemand gave V20 {v20}% in phase A"));
                    }
                }
                "sedf+thrashing" => {
                    let fmax_mhz = f64::from(sc.host.cpu().pstates().max().frequency.as_mhz());
                    let freq = sc.freq_series().mean_between(a.0, a.1).unwrap_or(0.0);
                    if freq < fmax_mhz {
                        return Err(format!("SEDF thrashing ran phase A at {freq} MHz"));
                    }
                }
                "pas+thrashing" => {
                    let mut v20_a = abs_pct(sc, sc.v20, a);
                    if run.take_fault() {
                        v20_a += 10.0;
                    }
                    let err = [
                        (v20_a - 20.0).abs(),
                        (abs_pct(sc, sc.v20, b) - 20.0).abs(),
                        (abs_pct(sc, sc.v70, b) - 70.0).abs(),
                    ]
                    .into_iter()
                    // Keeps a NaN (a window without snapshots) visible.
                    .fold(
                        0.0,
                        |worst: f64, e| if e > worst || e.is_nan() { e } else { worst },
                    );
                    acc.pas_err_pp = acc.pas_err_pp.max(err);
                    if err.is_nan() || err >= PAS_TOLERANCE_PP {
                        return Err(format!("PAS thrashing missed a booking by {err} pp"));
                    }
                }
                _ => {}
            }
            Ok((host_s, wall))
        }
        Sim::Steady {
            host,
            v20,
            booked_pct,
        } => {
            if traced {
                host.set_tracer(trace::Tracer::new(1, trace::DEFAULT_CAPACITY));
                host.set_profiling(true);
            }
            let span = run_for_span(host.scheduler_name());
            let ((), wall) = run
                .spans
                .time(span, || host.run_for(SimDuration::from_secs(STEADY_S)));
            finish_host(host, STEADY_S as f64, acc);
            let abs = 100.0 * host.stats().vm_absolute_fraction(*v20);
            let err = (abs - *booked_pct).abs();
            acc.pas_err_pp = acc.pas_err_pp.max(err);
            if err.is_nan() || err >= PAS_TOLERANCE_PP {
                return Err(format!(
                    "steady PAS gave V20 {abs}% for a {booked_pct}% booking"
                ));
            }
            Ok((STEADY_S as f64, wall))
        }
        Sim::Multi(host) => {
            let ((), wall) = run.spans.time("MultiHost::run_for", || {
                host.run_for(SimDuration::from_secs(MULTI_S));
            });
            acc.energy_j += host.total_energy_j();
            for (i, booked) in MULTI_CREDITS.iter().enumerate() {
                let abs = 100.0 * host.vm_absolute_fraction(VmId(i));
                if !(abs.is_finite() && abs > 0.0 && abs <= 100.0) {
                    return Err(format!("MultiHost VM {i} ({booked}% booked) got {abs}%"));
                }
            }
            Ok((MULTI_S as f64, wall))
        }
        Sim::Smt { host, vm } => {
            let ((), wall) = run.spans.time("SmtHost::run_for", || {
                host.run_for(SimDuration::from_secs(SMT_S));
            });
            acc.energy_j += host.total_energy_j();
            acc.transitions += host.cpu().transitions();
            let abs = 100.0 * host.vm_absolute_fraction(*vm);
            if !(abs.is_finite() && abs > 0.0 && abs <= 100.0) {
                return Err(format!("SmtHost VM got {abs}%"));
            }
            Ok((SMT_S as f64, wall))
        }
    }
}

fn run_for_span(scheduler: &str) -> &'static str {
    match scheduler {
        "credit" => "Host::run_for credit",
        "sedf" => "Host::run_for sedf",
        "pas" => "Host::run_for pas",
        _ => "Host::run_for",
    }
}

/// Books a single-core host's counters, tracer and profile.
fn finish_host(host: &mut Host, host_s: f64, acc: &mut PassTotals) {
    acc.fused += host.fused_slices();
    acc.transitions += host.cpu().transitions();
    acc.energy_j += host.cpu().energy().joules();
    if let Some(tracer) = host.take_tracer() {
        acc.trace_events += tracer.recorded();
        acc.traced_host_s += host_s;
        acc.perf.absorb(host.perf());
    }
}

pub(crate) fn run(run: &mut Run) -> Reported {
    let seed = run.cfg.seed;
    let mut items = Items::default();
    let mut perf_passes: Vec<(HostPerf, f64)> = Vec::new();

    while let Some(traced) = run.next_pass() {
        let pass = run.spans.begin("pass");
        let mut set = Vec::new();
        let mut fastest_build = f64::INFINITY;
        for _ in 0..BUILDS {
            drop(std::mem::take(&mut set));
            let id = run.spans.begin("build");
            set = build_set(run, seed);
            fastest_build = fastest_build.min(run.spans.end(id));
        }
        if !traced {
            items.setup(fastest_build);
        }
        let mut acc = PassTotals::default();
        for (i, sim) in set.iter_mut().enumerate() {
            let ran = run.op("scenario", |run| run_one(run, sim, traced, &mut acc));
            if let (Some((host_s, wall)), false) = (ran, traced) {
                items.record(i, host_s, wall);
            }
        }
        let mut counters = Reported::from([
            ("pas_credit_err_pp", acc.pas_err_pp),
            ("cpumodel.freq_transitions", acc.transitions as f64),
            ("cpumodel.energy_kj", acc.energy_j / 1e3),
        ]);
        // A host with a tracer installed never takes the fused replay,
        // so the fused-slice count is an untraced-pass counter.
        if !traced {
            counters.insert("hypervisor.fused_slices", acc.fused as f64);
        } else {
            counters.insert(
                "trace.events_per_host_s",
                ratio(acc.trace_events as f64, acc.traced_host_s),
            );
            perf_passes.push((acc.perf, acc.traced_host_s));
        }
        run.counters(&counters);
        let pass_s = run.spans.end(pass);
        run.pass_done(pass_s);
    }

    let spans = &run.spans;
    let traced_passes = perf_passes.len().max(1) as f64;
    // Milliseconds of `run_for` per traced pass, for one span name.
    let per_pass_ms = |name: &str| spans.secs(name, true).iter().sum::<f64>() * 1e3 / traced_passes;
    let perf_ms = |ns: fn(&HostPerf) -> u64| {
        median(
            &perf_passes
                .iter()
                .map(|(p, _)| ns(p) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    Reported::from([
        ("setup_s", items.setup_s()),
        ("host_s_per_s", items.host_s_per_s()),
        ("turnaround_p50_s", items.p50_s()),
        ("hypervisor.host_slice_ms", perf_ms(|p| p.host_slice_ns)),
        ("hypervisor.sched_acct_ms", perf_ms(|p| p.sched_acct_ns)),
        ("hypervisor.governor_ms", perf_ms(|p| p.governor_ns)),
        ("hypervisor.snapshot_ms", perf_ms(|p| p.snapshot_ns)),
        (
            "hypervisor.slice_ns_per_host_s",
            ratio(
                perf_passes
                    .iter()
                    .map(|(p, _)| p.host_slice_ns as f64)
                    .sum(),
                perf_passes.iter().map(|(_, s)| s).sum(),
            ),
        ),
        ("hypervisor.credit_ms", per_pass_ms("Host::run_for credit")),
        ("hypervisor.sedf_ms", per_pass_ms("Host::run_for sedf")),
        ("hypervisor.pas_ms", per_pass_ms("Host::run_for pas")),
        ("hypervisor.multihost_ms", per_pass_ms("MultiHost::run_for")),
        ("hypervisor.smthost_ms", per_pass_ms("SmtHost::run_for")),
        (
            "trace.overhead_pct",
            overhead_pct(
                median(&spans.secs("pass", false)),
                median(&spans.secs("pass", true)),
            ),
        ),
    ])
}
