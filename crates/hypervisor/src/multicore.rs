//! A multi-core virtualized host with per-domain DVFS — the paper's
//! closing perspective ("multi-core, per-socket DVFS, and per-core
//! DVFS"), as a running simulation rather than a thought experiment.
//!
//! Model:
//!
//! * every core runs its own Credit scheduler (caps are per-core, as
//!   in Xen with pinned vCPUs);
//! * VMs are single-vCPU and pinned to a core at creation;
//! * frequency is set per [DVFS domain](cpumodel::topology): each
//!   domain has its own PAS controller ([`PasDomain`]), fed the
//!   *busiest core* in the domain as its absolute load (a domain must
//!   satisfy its most loaded core), which picks the domain's frequency
//!   and compensates the credits of every VM in that domain for it.
//!
//! Each core is one runqueue (a Credit scheduler and the VMs pinned
//! to it, which it owns) advanced by the slice loop the single-core
//! host runs: a picked VM runs for the shortest of the 10 ms quantum,
//! its remaining cap allowance and its backlog's drain time, and
//! every slice ends at the next 100 ms accounting tick, sample or run
//! end. Cores interact only at the ticks, so each core runs its own
//! slices up to the next one. A VM's public [`VmId`] maps to its core
//! and its id on that core's runqueue.

use cpumodel::topology::{CoreId, CpuPackage, DomainId, Topology};
use cpumodel::{MachineSpec, SmtSpec};
use pas_core::PasDomain;
use simkernel::{SimDuration, SimTime};

use crate::sched::{CreditScheduler, Scheduler};
use crate::slice::{step_core, RunQueue};
use crate::vm::{VmConfig, VmId};
use crate::work::WorkSource;

/// Frequency management for the multi-core host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiDvfs {
    /// All cores pinned at maximum frequency (the no-DVFS baseline).
    MaxFrequency,
    /// PAS per DVFS domain: plan frequency and compensate credits.
    Pas,
}

/// One periodic snapshot of the multi-core host.
#[derive(Debug, Clone)]
pub struct MultiSnapshot {
    /// Snapshot time, seconds.
    pub t_secs: f64,
    /// Frequency per core, MHz.
    pub core_freq_mhz: Vec<u32>,
}

struct CoreState {
    rq: RunQueue,
    window_busy: f64,
    window_abs: f64,
    /// Absolute busy seconds over the whole run, by local VM id.
    vm_total_abs: Vec<f64>,
}

/// The multi-core host.
pub struct MultiHost {
    topo: Topology,
    pkg: CpuPackage,
    cores: Vec<CoreState>,
    /// Each VM's core and its id on that core's runqueue, by public id.
    placement: Vec<(CoreId, VmId)>,
    /// One PAS controller per DVFS domain, indexed by [`DomainId`];
    /// none under [`MultiDvfs::MaxFrequency`].
    pas: Vec<PasDomain>,
    /// The P-state each domain's caps were last written for, as on
    /// `Host`: `None` before the first tick and after a VM joins,
    /// since `on_vm_added` caps it at its uncompensated credit.
    pas_caps_for: Vec<Option<cpumodel::PStateIdx>>,
    now: SimTime,
    acct_period: SimDuration,
    next_acct: SimTime,
    sample_period: SimDuration,
    next_sample: SimTime,
    snapshots: Vec<MultiSnapshot>,
    window_start: SimTime,
    // Reusable runnable-scan buffer, as in `Host`.
    runnable_scratch: Vec<VmId>,
}

impl MultiHost {
    /// Builds a host of identical cores.
    #[must_use]
    pub fn new(machine: &MachineSpec, topo: Topology, dvfs: MultiDvfs) -> Self {
        let pkg = CpuPackage::new(machine, topo);
        let n_pas = match dvfs {
            MultiDvfs::MaxFrequency => 0,
            MultiDvfs::Pas => topo.n_domains(),
        };
        let acct_period = SimDuration::from_millis(100);
        let sample_period = SimDuration::from_secs(10);
        MultiHost {
            topo,
            pkg,
            cores: (0..topo.n_cores())
                .map(|_| CoreState {
                    rq: RunQueue::new(Box::new(CreditScheduler::with_period(acct_period))),
                    window_busy: 0.0,
                    window_abs: 0.0,
                    vm_total_abs: Vec::new(),
                })
                .collect(),
            placement: Vec::new(),
            pas: vec![PasDomain::new(machine.pstate_table()); n_pas],
            pas_caps_for: vec![None; n_pas],
            now: SimTime::ZERO,
            acct_period,
            next_acct: SimTime::ZERO + acct_period,
            sample_period,
            next_sample: SimTime::ZERO + sample_period,
            snapshots: Vec::new(),
            window_start: SimTime::ZERO,
            runnable_scratch: Vec::new(),
        }
    }

    /// Adds a VM pinned to `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for the topology.
    pub fn add_vm(&mut self, config: VmConfig, work: Box<dyn WorkSource>, core: CoreId) -> VmId {
        assert!(core.0 < self.topo.n_cores(), "core {core} out of range");
        let id = VmId(self.placement.len());
        let st = &mut self.cores[core.0];
        self.placement.push((core, st.rq.add_vm(config, work)));
        st.vm_total_abs.push(0.0);
        self.pas_caps_for.fill(None);
        id
    }

    /// The topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Capacity of one core at maximum frequency (mega-cycles/sec).
    #[must_use]
    pub fn fmax_mcps(&self) -> f64 {
        self.pkg.core(CoreId(0)).pstates().max().effective_mcps()
    }

    /// The current instant.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total energy across cores, joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.pkg.total_joules()
    }

    /// A VM's delivered absolute capacity over the whole run, as a
    /// fraction of one core's fmax capacity.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is unknown.
    #[must_use]
    pub fn vm_absolute_fraction(&self, vm: VmId) -> f64 {
        let span = self.now.as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            let (core, local) = self.placement[vm.0];
            self.cores[core.0].vm_total_abs[local.0] / span
        }
    }

    /// The current P-state of a core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core_pstate(&self, core: CoreId) -> cpumodel::PStateIdx {
        self.pkg.core(core).pstate()
    }

    /// All snapshots.
    #[must_use]
    pub fn snapshots(&self) -> &[MultiSnapshot] {
        &self.snapshots
    }

    /// Runs for `duration`.
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.now + duration;
        while self.now < end {
            if self.now >= self.next_acct {
                self.accounting_tick();
                self.next_acct += self.acct_period;
            }
            if self.now >= self.next_sample {
                self.sample();
                self.next_sample += self.sample_period;
            }
            let boundary = end.min(self.next_acct).min(self.next_sample);
            for (idx, core) in self.cores.iter_mut().enumerate() {
                let cpu = self.pkg.core_mut(CoreId(idx));
                // The P-state holds until the next tick.
                let ratio_cf = cpu.ratio() * cpu.cf();
                let mut t = self.now;
                while t < boundary {
                    t = step_core(
                        std::slice::from_mut(&mut core.rq),
                        cpu,
                        SmtSpec::off(),
                        t,
                        boundary,
                        &mut self.runnable_scratch,
                    );
                    if let Some(ran) = core.rq.ran {
                        let abs_secs = ran.busy_secs * ratio_cf;
                        core.window_busy += ran.busy_secs;
                        core.window_abs += abs_secs;
                        core.vm_total_abs[ran.vm.0] += abs_secs;
                    }
                }
            }
            self.now = boundary;
        }
    }

    fn accounting_tick(&mut self) {
        let window = self.now.duration_since(self.window_start).as_secs_f64();
        // Per-domain DVFS + credit compensation.
        if window > 0.0 {
            for (d, (pas, caps_for)) in self.pas.iter_mut().zip(&mut self.pas_caps_for).enumerate()
            {
                let domain = DomainId(d);
                let cores = self.topo.cores_in(domain);
                let mut busiest_abs: f64 = 0.0;
                let mut busiest_load: f64 = 0.0;
                for c in &cores {
                    let st = &self.cores[c.0];
                    busiest_abs = busiest_abs.max(100.0 * st.window_abs / window);
                    busiest_load = busiest_load.max(100.0 * st.window_busy / window);
                }
                let target =
                    pas.retarget(busiest_abs, busiest_load, self.pkg.core(cores[0]).pstate());
                self.pkg
                    .set_domain_pstate(domain, target)
                    .expect("valid p-state");
                // The caps are a pure function of booking and target.
                if *caps_for == Some(target) {
                    continue;
                }
                for c in &cores {
                    let rq = &mut self.cores[c.0].rq;
                    for vm in &rq.vms {
                        rq.sched.set_cap(vm.id, pas.cap(vm.config.credit, target));
                    }
                }
                *caps_for = Some(target);
            }
        }
        // Credit refill on every core scheduler.
        for st in &mut self.cores {
            st.rq.sched.on_accounting(self.now);
            st.window_busy = 0.0;
            st.window_abs = 0.0;
        }
        self.window_start = self.now;
    }

    fn sample(&mut self) {
        self.snapshots.push(MultiSnapshot {
            t_secs: self.now.as_secs_f64(),
            core_freq_mhz: (0..self.topo.n_cores())
                .map(|c| {
                    let cpu = self.pkg.core(CoreId(c));
                    cpu.pstates().state(cpu.pstate()).frequency.as_mhz()
                })
                .collect(),
        });
    }
}

impl std::fmt::Debug for MultiHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiHost")
            .field("cores", &self.topo.n_cores())
            .field("domains", &self.topo.n_domains())
            .field("vms", &self.placement.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::ConstantDemand;
    use cpumodel::machines;
    use cpumodel::topology::DvfsGranularity;
    use pas_core::Credit;

    fn build(granularity: DvfsGranularity, dvfs: MultiDvfs, demands: &[f64]) -> MultiHost {
        let machine = machines::optiplex_755();
        let topo = Topology::new(2, 2, granularity);
        let mut host = MultiHost::new(&machine, topo, dvfs);
        let fmax = host.fmax_mcps();
        for (i, &d) in demands.iter().enumerate() {
            let credit = Credit::percent((d * 100.0).clamp(5.0, 95.0));
            host.add_vm(
                VmConfig::new(format!("vm{i}"), credit),
                Box::new(ConstantDemand::new(fmax)), // thrash: cap decides
                CoreId(i % 4),
            );
        }
        host
    }

    #[test]
    fn per_core_caps_enforced() {
        let mut host = build(
            DvfsGranularity::Global,
            MultiDvfs::MaxFrequency,
            &[0.2, 0.7, 0.4, 0.1],
        );
        host.run_for(SimDuration::from_secs(30));
        for (i, want) in [0.2, 0.7, 0.4, 0.1].iter().enumerate() {
            let abs = host.vm_absolute_fraction(VmId(i));
            assert!((abs - want).abs() < 0.02, "vm{i}: {abs} vs {want}");
        }
    }

    #[test]
    fn per_core_pas_scales_independently() {
        let mut host = build(
            DvfsGranularity::PerCore,
            MultiDvfs::Pas,
            &[0.2, 0.7, 0.4, 0.1],
        );
        host.run_for(SimDuration::from_secs(60));
        // The 70% core must run fast; the 10% core parks at the floor.
        assert!(host.core_pstate(CoreId(1)) > host.core_pstate(CoreId(3)));
        // Every VM still receives its booked absolute capacity.
        for (i, want) in [0.2, 0.7, 0.4, 0.1].iter().enumerate() {
            let abs = host.vm_absolute_fraction(VmId(i));
            assert!((abs - want).abs() < 0.03, "vm{i}: {abs} vs {want}");
        }
    }

    #[test]
    fn per_socket_domain_couples_cores() {
        let mut host = build(
            DvfsGranularity::PerSocket,
            MultiDvfs::Pas,
            &[0.2, 0.7, 0.1, 0.1],
        );
        host.run_for(SimDuration::from_secs(60));
        // Socket 0 (cores 0,1) is driven by the 70% VM.
        assert_eq!(host.core_pstate(CoreId(0)), host.core_pstate(CoreId(1)));
        assert_eq!(host.core_pstate(CoreId(2)), host.core_pstate(CoreId(3)));
        assert!(host.core_pstate(CoreId(0)) > host.core_pstate(CoreId(2)));
    }

    #[test]
    fn finer_domains_save_energy_dynamically() {
        let demands = [0.2, 0.7, 0.4, 0.1];
        let energy = |g| {
            let mut host = build(g, MultiDvfs::Pas, &demands);
            host.run_for(SimDuration::from_secs(60));
            host.total_energy_j()
        };
        let global = energy(DvfsGranularity::Global);
        let socket = energy(DvfsGranularity::PerSocket);
        let core = energy(DvfsGranularity::PerCore);
        assert!(
            socket <= global * 1.01,
            "socket {socket} vs global {global}"
        );
        assert!(core <= socket * 1.01, "core {core} vs socket {socket}");
        assert!(core < global, "strict saving on heterogeneous load");
    }

    #[test]
    fn max_frequency_baseline_uses_more_energy() {
        let demands = [0.2, 0.7, 0.4, 0.1];
        let mut base = build(DvfsGranularity::PerCore, MultiDvfs::MaxFrequency, &demands);
        base.run_for(SimDuration::from_secs(60));
        let mut pas = build(DvfsGranularity::PerCore, MultiDvfs::Pas, &demands);
        pas.run_for(SimDuration::from_secs(60));
        assert!(pas.total_energy_j() < base.total_energy_j());
    }

    #[test]
    fn snapshots_record_frequencies() {
        let mut host = build(
            DvfsGranularity::PerCore,
            MultiDvfs::Pas,
            &[0.2, 0.7, 0.4, 0.1],
        );
        host.run_for(SimDuration::from_secs(30));
        assert!(!host.snapshots().is_empty());
        assert_eq!(host.snapshots()[0].core_freq_mhz.len(), 4);
    }
}
