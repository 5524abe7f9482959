//! Micro-benchmarks of the hot paths: the scheduler dispatch decision,
//! the PAS planner, and one simulated host-second.

use cpumodel::machines;
use criterion::{criterion_group, criterion_main, Criterion};
use hypervisor::sched::{CreditScheduler, Scheduler};
use hypervisor::vm::{VmConfig, VmId};
use hypervisor::work::ConstantDemand;
use hypervisor::{HostConfig, SchedulerKind};
use pas_core::{Credit, FreqPlanner};
use simkernel::{SimDuration, SimTime};

fn bench_scheduler_dispatch(c: &mut Criterion) {
    c.bench_function("credit/pick_charge_cycle", |b| {
        let mut sched = CreditScheduler::new();
        let ids: Vec<VmId> = (0..8).map(VmId).collect();
        for (i, id) in ids.iter().enumerate() {
            sched.on_vm_added(*id, &VmConfig::new(format!("vm{i}"), Credit::percent(10.0)));
        }
        b.iter(|| {
            let pick = sched.pick_next(SimTime::ZERO, &ids);
            if let Some(vm) = pick {
                sched.charge(vm, SimDuration::from_micros(100));
            }
            criterion::black_box(pick)
        })
    });
}

fn bench_planner(c: &mut Criterion) {
    c.bench_function("pas/plan_3_vms", |b| {
        let planner = FreqPlanner::new(machines::optiplex_755().pstate_table());
        let credits = [
            Credit::percent(20.0),
            Credit::percent(70.0),
            Credit::percent(10.0),
        ];
        let mut load = 0.0f64;
        b.iter(|| {
            load = (load + 7.3) % 110.0;
            criterion::black_box(planner.plan(&credits, load))
        })
    });
}

fn bench_host_second(c: &mut Criterion) {
    c.bench_function("host/one_simulated_second_pas", |b| {
        b.iter_with_setup(
            || {
                let mut host = HostConfig::optiplex_defaults(SchedulerKind::Pas).build();
                let thrash = host.fmax_mcps();
                host.add_vm(
                    VmConfig::new("v20", Credit::percent(20.0)),
                    Box::new(ConstantDemand::new(thrash)),
                );
                host.add_vm(
                    VmConfig::new("v70", Credit::percent(70.0)),
                    Box::new(ConstantDemand::new(0.2 * thrash)),
                );
                host
            },
            |mut host| {
                host.run_for(SimDuration::from_secs(1));
                criterion::black_box(host.now())
            },
        )
    });
}

criterion_group!(
    micro,
    bench_scheduler_dispatch,
    bench_planner,
    bench_host_second
);
criterion_main!(micro);
