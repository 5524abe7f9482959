//! The two-level scheduling structure of Section 2.1: the hypervisor
//! schedules VMs, the guest OS schedules processes — and the
//! hypervisor is "not conscious of it".

use pas_repro::hypervisor::guest::GuestOs;
use pas_repro::hypervisor::work::{ConstantDemand, FixedWork};
use pas_repro::hypervisor::{HostConfig, SchedulerKind, VmConfig, VmId};
use pas_repro::pas_core::Credit;
use pas_repro::simkernel::{SimDuration, SimTime};
use pas_repro::workloads::PiApp;

#[test]
fn guest_processes_share_the_vm_credit() {
    let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
    let fmax = host.fmax_mcps();
    // Two equal batch jobs inside one 40% VM.
    let mut guest = GuestOs::new();
    guest.spawn(Box::new(FixedWork::new(4.0 * fmax)));
    guest.spawn(Box::new(FixedWork::new(4.0 * fmax)));
    let vm = host.add_vm(
        VmConfig::new("guest", Credit::percent(40.0)),
        Box::new(guest),
    );
    // 8 s of work at fmax through a 40% cap → ~20 s.
    let done = host
        .run_until_vm_finished(vm, SimTime::from_secs(100))
        .expect("finishes");
    let t = done.as_secs_f64();
    assert!((t - 20.0).abs() < 1.0, "finished at {t}s (expected ~20)");
}

#[test]
fn guest_batch_job_is_transparent_to_pas() {
    // PAS compensates the VM; the guest's internal scheduling is
    // unaffected — a batch job inside a multi-process guest finishes
    // in the same time at low frequency as at fmax.
    let run = |scheduler: SchedulerKind| {
        let mut host = HostConfig::optiplex_defaults(scheduler).build();
        let fmax = host.fmax_mcps();
        let mut guest = GuestOs::new();
        guest.spawn(Box::new(PiApp::sized_for_seconds(4.0, fmax)));
        guest.spawn(Box::new(ConstantDemand::new(0.02 * fmax))); // background daemon
        let vm = host.add_vm(
            VmConfig::new("guest", Credit::percent(25.0)),
            Box::new(guest),
        );
        // Run to a fixed horizon; measure completed work via stats.
        host.run_for(SimDuration::from_secs(60));
        let _ = vm;
        let abs = host.stats().vm_absolute_fraction(VmId(0));
        (abs, host.cpu().pstate())
    };
    let (abs_credit, _) = run(SchedulerKind::Credit);
    let (abs_pas, pstate_pas) = run(SchedulerKind::Pas);
    // PAS ran at a *lower* frequency yet delivered the same absolute
    // capacity to the guest.
    assert!(
        pstate_pas < pas_repro::cpumodel::PStateIdx(4),
        "PAS lowered frequency"
    );
    assert!(
        (abs_pas - abs_credit).abs() < 0.02,
        "same delivered capacity: pas {abs_pas} vs credit {abs_credit}"
    );
}

#[test]
fn short_guest_process_finishes_while_long_one_continues() {
    let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
    let fmax = host.fmax_mcps();
    let mut guest = GuestOs::new();
    let short = guest.spawn(Box::new(FixedWork::new(0.5 * fmax)));
    let long = guest.spawn(Box::new(FixedWork::new(50.0 * fmax)));
    let vm = host.add_vm(
        VmConfig::new("guest", Credit::percent(50.0)),
        Box::new(guest),
    );
    host.run_for(SimDuration::from_secs(10));
    // Inspect the guest through the VM's work source.
    let work = host.vm(vm).work();
    assert!(!work.is_finished(), "long process still running");
    let _ = (short, long);
    // 10 s at 50% = 5 s of fmax work: the 0.5 s job is long done, the
    // 50 s job is not.
    let abs = host.stats().vm_absolute_fraction(VmId(0));
    assert!(
        (abs - 0.5).abs() < 0.05,
        "VM consumed its half share: {abs}"
    );
}
