//! Degenerate-configuration and failure-injection tests across the
//! stack: the system must stay well-defined at the edges.

use pas_repro::cpumodel::{CfModel, Frequency, MachineSpec, PStateTable, PowerModel};
use pas_repro::hypervisor::work::{ConstantDemand, Idle};
use pas_repro::hypervisor::{HostConfig, SchedulerKind, VmConfig, VmId};
use pas_repro::pas_core::{Credit, FreqPlanner, PasDomain};
use pas_repro::simkernel::SimDuration;

/// A machine with a single P-state: DVFS is a no-op and PAS must
/// degrade gracefully to plain credit scheduling.
fn single_pstate_machine() -> MachineSpec {
    MachineSpec {
        name: "fixed-frequency appliance".to_owned(),
        frequencies_mhz: vec![2000],
        cf_model: CfModel::Ideal,
        power: PowerModel::default(),
    }
}

#[test]
fn pas_on_single_pstate_machine_is_plain_credit() {
    let mut host = HostConfig::optiplex_defaults(SchedulerKind::Pas)
        .with_machine(single_pstate_machine())
        .build();
    let thrash = host.fmax_mcps();
    host.add_vm(
        VmConfig::new("v20", Credit::percent(20.0)),
        Box::new(ConstantDemand::new(thrash)),
    );
    host.run_for(SimDuration::from_secs(60));
    // Nothing to compensate: the cap stays at the booked 20%.
    let cap = host.effective_cap_pct(VmId(0)).unwrap();
    assert!((cap - 20.0).abs() < 0.5, "cap {cap}");
    let busy = host.stats().vm_busy_fraction(VmId(0));
    assert!((busy - 0.20).abs() < 0.01, "busy {busy}");
}

#[test]
fn planner_on_single_state_ladder_always_returns_it() {
    let table = PStateTable::from_frequencies([Frequency::mhz(2000)], &CfModel::Ideal).unwrap();
    let planner = FreqPlanner::new(table.clone());
    for load in [0.0, 50.0, 150.0] {
        assert_eq!(planner.compute_new_freq(load), table.max_idx());
    }
    let mut pas = PasDomain::new(table.clone());
    let target = pas.retarget(40.0, 40.0, table.max_idx());
    assert_eq!(target, table.max_idx());
    let cap = pas.cap(Credit::percent(30.0), target).unwrap();
    assert!((cap - 0.30).abs() < 1e-9, "identity compensation");
}

#[test]
fn host_with_no_vms_runs_idle() {
    let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
    host.run_for(SimDuration::from_secs(30));
    assert_eq!(host.stats().global_busy_fraction(), 0.0);
    assert!(
        host.cpu().energy().joules() > 0.0,
        "static power still burns"
    );
}

#[test]
fn pas_host_with_no_vms_descends_to_floor() {
    let mut host = HostConfig::optiplex_defaults(SchedulerKind::Pas).build();
    host.run_for(SimDuration::from_secs(10));
    assert_eq!(host.cpu().pstate(), host.cpu().pstates().min_idx());
}

#[test]
fn hundred_percent_credit_vm_owns_the_machine() {
    let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
    let thrash = host.fmax_mcps();
    host.add_vm(
        VmConfig::new("all", Credit::percent(100.0)),
        Box::new(ConstantDemand::new(thrash)),
    );
    host.run_for(SimDuration::from_secs(10));
    let busy = host.stats().vm_busy_fraction(VmId(0));
    assert!(busy > 0.995, "busy {busy}");
}

#[test]
fn tiny_credit_vm_still_progresses() {
    let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
    let thrash = host.fmax_mcps();
    host.add_vm(
        VmConfig::new("tiny", Credit::percent(1.0)),
        Box::new(ConstantDemand::new(thrash)),
    );
    host.run_for(SimDuration::from_secs(30));
    let busy = host.stats().vm_busy_fraction(VmId(0));
    assert!((busy - 0.01).abs() < 0.003, "1% cap honoured: {busy}");
}

#[test]
fn many_vms_share_exactly() {
    let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
    let thrash = host.fmax_mcps();
    for i in 0..10 {
        host.add_vm(
            VmConfig::new(format!("vm{i}"), Credit::percent(10.0)),
            Box::new(ConstantDemand::new(thrash)),
        );
    }
    host.run_for(SimDuration::from_secs(30));
    for i in 0..10 {
        let busy = host.stats().vm_busy_fraction(VmId(i));
        assert!((busy - 0.10).abs() < 0.01, "vm{i} busy {busy}");
    }
}

#[test]
fn idle_vm_consumes_nothing_under_every_scheduler() {
    for kind in [
        SchedulerKind::Credit,
        SchedulerKind::Credit2,
        SchedulerKind::Sedf { extra: true },
        SchedulerKind::Pas,
    ] {
        let mut host = HostConfig::optiplex_defaults(kind).build();
        host.add_vm(
            VmConfig::new("sleeper", Credit::percent(50.0)),
            Box::new(Idle),
        );
        host.run_for(SimDuration::from_secs(10));
        assert_eq!(
            host.stats().vm_busy_fraction(VmId(0)),
            0.0,
            "{kind:?}: idle VM must not be charged"
        );
    }
}

#[test]
fn extreme_cf_penalty_still_compensates_correctly() {
    // A pathological machine losing 60% efficiency at the floor.
    let machine = MachineSpec {
        name: "pathological".to_owned(),
        frequencies_mhz: vec![1000, 2000],
        cf_model: CfModel::microarch(0.0, 0.6),
        power: PowerModel::default(),
    };
    let mut host = HostConfig::optiplex_defaults(SchedulerKind::Pas)
        .with_machine(machine)
        .build();
    let demand = 0.10 * host.fmax_mcps();
    host.add_vm(
        VmConfig::new("v10", Credit::percent(10.0)),
        Box::new(ConstantDemand::new(demand)),
    );
    host.run_for(SimDuration::from_secs(120));
    let abs = host.stats().vm_absolute_fraction(VmId(0));
    assert!(
        (abs - 0.10).abs() < 0.01,
        "delivered {abs} despite cf = 0.45 at the floor"
    );
}

#[test]
fn zero_length_run_is_sound() {
    let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
    host.add_vm(VmConfig::new("v", Credit::percent(20.0)), Box::new(Idle));
    host.run_for(SimDuration::ZERO);
    assert_eq!(host.now(), pas_repro::simkernel::SimTime::ZERO);
    assert_eq!(host.stats().global_busy_fraction(), 0.0);
}
