//! The multi-core and SMT hosts map each public `VmId` to a runqueue
//! and a local id on it. These hosts pin VMs out of order and several
//! to one core or thread, so a swapped or shifted map reports another
//! VM's figures. The literals were recorded before the runqueues owned
//! their VMs, when every VM lived in one host-wide list.

use cpumodel::machines;
use cpumodel::topology::{CoreId, DvfsGranularity, Topology};
use cpumodel::SmtSpec;
use hypervisor::multicore::{MultiDvfs, MultiHost};
use hypervisor::smt::{SmtAwareness, SmtHost, ThreadId};
use hypervisor::work::{ConstantDemand, Idle};
use hypervisor::{VmConfig, VmId};
use pas_core::Credit;
use simkernel::SimDuration;

#[test]
fn multihost_reports_each_vm_through_its_core() {
    let machine = machines::optiplex_755();
    let topo = Topology::new(2, 2, DvfsGranularity::PerSocket);
    let mut host = MultiHost::new(&machine, topo, MultiDvfs::Pas);
    let fmax = host.fmax_mcps();
    // (core, booked %, demand as a multiple of fmax)
    let vms = [
        (3, 30.0, 1.0),
        (0, 20.0, 1.0),
        (3, 15.0, 0.5),
        (1, 50.0, 1.0),
        (0, 10.0, 0.05),
    ];
    for (i, (core, pct, demand)) in vms.into_iter().enumerate() {
        let id = host.add_vm(
            VmConfig::new(format!("vm{i}"), Credit::percent(pct)),
            Box::new(ConstantDemand::new(demand * fmax)),
            CoreId(core),
        );
        assert_eq!(id, VmId(i));
    }
    host.run_for(SimDuration::from_secs(60));

    assert_eq!(host.total_energy_j().to_bits(), 0x40c9_5b28_09ab_2feb);
    let absolute = [
        0x3fd3_2af9_0129_1679, // 0.2995
        0x3fc9_8ea1_56e1_741b, // 0.1997
        0x3fc3_2b11_dfc2_d6ab, // 0.1498
        0x3fdf_f262_8b33_8da1, // 0.4992
        0x3fa9_9346_5288_e3ef, // 0.0500
    ];
    for (i, bits) in absolute.into_iter().enumerate() {
        let got = host.vm_absolute_fraction(VmId(i));
        assert_eq!(got.to_bits(), bits, "vm{i}: {got}");
    }
}

#[test]
fn smthost_reports_each_vm_through_its_thread() {
    let machine = machines::optiplex_755();
    let mut host = SmtHost::new(&machine, SmtSpec::intel_typical(), SmtAwareness::Aware);
    let fmax = host.fmax_mcps();
    let a = host.add_vm(
        VmConfig::new("a", Credit::percent(30.0)),
        Box::new(ConstantDemand::new(fmax)),
        ThreadId(1),
    );
    let b = host.add_vm(
        VmConfig::new("b", Credit::percent(25.0)),
        Box::new(ConstantDemand::new(fmax)),
        ThreadId(0),
    );
    let c = host.add_vm(
        VmConfig::new("c", Credit::percent(20.0)),
        Box::new(Idle),
        ThreadId(1),
    );
    host.run_for(SimDuration::from_secs(60));

    assert_eq!(host.total_energy_j().to_bits(), 0x40ab_7abb_8ce3_15b1);
    // (vm, thread, absolute fraction bits, cap bits)
    let want = [
        (a, 1, 0x3fd3_2567_cd3e_a25d, 0x3fe8_3ed0_ddc0_ecfd), // 0.2992, cap 0.7577
        (b, 0, 0x3fcf_e7bd_f060_a966, 0x3fe5_8d30_18d3_018c), // 0.2493, cap 0.6735
        (c, 1, 0, 0x3fe0_29e0_93d5_f353),                     // idle, cap 0.5051
    ];
    for (vm, thread, absolute, cap) in want {
        assert_eq!(host.thread_of(vm), ThreadId(thread), "{vm}");
        let got = host.vm_absolute_fraction(vm);
        assert_eq!(got.to_bits(), absolute, "{vm}: {got}");
        let got = host.effective_cap(vm);
        assert_eq!(got.map(f64::to_bits), Some(cap), "{vm}: {got:?}");
    }
}
