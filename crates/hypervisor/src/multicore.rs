//! A multi-core virtualized host with per-domain DVFS — the paper's
//! closing perspective ("multi-core, per-socket DVFS, and per-core
//! DVFS"), as a running simulation rather than a thought experiment.
//!
//! Model:
//!
//! * every core runs its own Credit scheduler (caps are per-core, as
//!   in Xen with pinned vCPUs);
//! * VMs are single-vCPU and pinned to a core at creation;
//! * frequency is set per [DVFS domain](cpumodel::topology): PAS plans
//!   each domain independently, using the *busiest core* in the domain
//!   as its absolute load (a domain must satisfy its most loaded
//!   core), and compensates the credits of every VM in that domain for
//!   the domain's frequency.
//!
//! The loop uses a fixed 1 ms quantum against a 100 ms accounting
//! period (1% cap granularity) — coarser than the single-core host's
//! exact variable slicing, but the multi-core questions are about
//! domain coupling, not sub-millisecond cap precision.

use cpumodel::topology::{CoreId, CpuPackage, DomainId, Topology};
use cpumodel::MachineSpec;
use pas_core::{Credit, FreqPlanner, MovingAverage};
use simkernel::{SimDuration, SimTime};

use crate::sched::{CreditScheduler, SchedCtx, Scheduler};
use crate::vm::{Vm, VmConfig, VmId};
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
    /// Absolute load per VM over the window, percent of one core's
    /// fmax capacity.
    pub vm_absolute_pct: Vec<f64>,
}

struct CoreState {
    sched: CreditScheduler,
    vms: Vec<VmId>,
    window_busy: f64,
    window_abs: f64,
    total_busy: f64,
}

/// The multi-core host.
pub struct MultiHost {
    topo: Topology,
    pkg: CpuPackage,
    cores: Vec<CoreState>,
    vms: Vec<Vm>,
    placement: Vec<CoreId>,
    initial_credits: Vec<Credit>,
    vm_total_abs: Vec<f64>,
    dvfs: MultiDvfs,
    planner: FreqPlanner,
    domain_smooth: Vec<MovingAverage>,
    now: SimTime,
    quantum: SimDuration,
    acct_period: SimDuration,
    next_acct: SimTime,
    sample_period: SimDuration,
    next_sample: SimTime,
    snapshots: Vec<MultiSnapshot>,
    window_start: SimTime,
    // Reusable runnable-scan buffer, as in `Host`: `advance` runs once
    // per core every 1 ms step.
    runnable_scratch: Vec<VmId>,
}

impl MultiHost {
    /// Builds a host of identical cores.
    #[must_use]
    pub fn new(machine: &MachineSpec, topo: Topology, dvfs: MultiDvfs) -> Self {
        let pkg = CpuPackage::new(machine, topo);
        let planner = FreqPlanner::new(machine.pstate_table());
        let acct_period = SimDuration::from_millis(100);
        let sample_period = SimDuration::from_secs(10);
        MultiHost {
            topo,
            pkg,
            cores: (0..topo.n_cores())
                .map(|_| CoreState {
                    sched: CreditScheduler::with_period(acct_period),
                    vms: Vec::new(),
                    window_busy: 0.0,
                    window_abs: 0.0,
                    total_busy: 0.0,
                })
                .collect(),
            vms: Vec::new(),
            placement: Vec::new(),
            initial_credits: Vec::new(),
            vm_total_abs: Vec::new(),
            dvfs,
            planner,
            domain_smooth: (0..topo.n_domains())
                .map(|_| MovingAverage::paper_default())
                .collect(),
            now: SimTime::ZERO,
            quantum: SimDuration::from_millis(1),
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
        let id = VmId(self.vms.len());
        self.cores[core.0].sched.on_vm_added(id, &config);
        self.cores[core.0].vms.push(id);
        self.initial_credits.push(config.credit);
        self.vm_total_abs.push(0.0);
        self.placement.push(core);
        self.vms.push(Vm::new(id, config, work));
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
            self.vm_total_abs[vm.0] / span
        }
    }

    /// A core's busy fraction over the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core_busy_fraction(&self, core: CoreId) -> f64 {
        let span = self.now.as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.cores[core.0].total_busy / span
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
            let step = self
                .quantum
                .min(end - self.now)
                .min(self.next_acct - self.now)
                .min(self.next_sample - self.now);
            self.advance(step);
        }
    }

    fn advance(&mut self, dt: SimDuration) {
        let slice_end = self.now + dt;
        for vm in &mut self.vms {
            vm.refill(slice_end, dt);
        }
        let mut runnable = std::mem::take(&mut self.runnable_scratch);
        for core_idx in 0..self.cores.len() {
            let core_id = CoreId(core_idx);
            runnable.clear();
            runnable.extend(
                self.cores[core_idx]
                    .vms
                    .iter()
                    .copied()
                    .filter(|id| self.vms[id.0].is_runnable()),
            );
            let pick = self.cores[core_idx].sched.pick_next(self.now, &runnable);
            let Some(vm) = pick else {
                self.pkg.core_mut(core_id).account(0.0, dt);
                continue;
            };
            let allowed = self.cores[core_idx].sched.max_slice(vm, self.now).min(dt);
            let cpu = self.pkg.core(core_id);
            let capacity = cpu.work_capacity(allowed);
            let ratio_cf = cpu.ratio() * cpu.cf();
            let done = self.vms[vm.0].execute(capacity, slice_end);
            let busy_frac_of_allowed = if capacity > 0.0 {
                (done / capacity).min(1.0)
            } else {
                0.0
            };
            let busy_secs = allowed.as_secs_f64() * busy_frac_of_allowed;
            let abs_secs = busy_secs * ratio_cf;
            self.cores[core_idx]
                .sched
                .charge(vm, SimDuration::from_secs_f64(busy_secs));
            self.pkg
                .core_mut(core_id)
                .account(busy_secs / dt.as_secs_f64().max(1e-12), dt);
            let st = &mut self.cores[core_idx];
            st.window_busy += busy_secs;
            st.window_abs += abs_secs;
            st.total_busy += busy_secs;
            self.vm_total_abs[vm.0] += abs_secs;
        }
        self.runnable_scratch = runnable;
        self.now = slice_end;
    }

    fn accounting_tick(&mut self) {
        let window = self.now.duration_since(self.window_start).as_secs_f64();
        // Per-domain DVFS + credit compensation.
        if self.dvfs == MultiDvfs::Pas && window > 0.0 {
            for d in 0..self.topo.n_domains() {
                let domain = DomainId(d);
                let cores = self.topo.cores_in(domain);
                let mut busiest_abs: f64 = 0.0;
                let mut busiest_load: f64 = 0.0;
                for c in &cores {
                    let st = &self.cores[c.0];
                    busiest_abs = busiest_abs.max(100.0 * st.window_abs / window);
                    busiest_load = busiest_load.max(100.0 * st.window_busy / window);
                }
                let smoothed = self.domain_smooth[d].push(busiest_abs);
                let mut target = self.planner.compute_new_freq(smoothed);
                let current = self.pkg.core(cores[0]).pstate();
                if busiest_load >= 99.0 && target <= current {
                    let table = self.planner.table();
                    target = cpumodel::PStateIdx((current.0 + 1).min(table.max_idx().0));
                }
                self.pkg
                    .set_domain_pstate(domain, target)
                    .expect("valid p-state");
                for c in &cores {
                    let st = &mut self.cores[c.0];
                    let vm_ids = st.vms.clone();
                    for vm in vm_ids {
                        let comp = self.planner.compensate(self.initial_credits[vm.0], target);
                        let cap = if comp.is_uncapped() {
                            None
                        } else {
                            Some(comp.as_fraction())
                        };
                        st.sched.set_cap(vm, cap);
                    }
                }
            }
        }
        // Credit refill on every core scheduler.
        for (idx, st) in self.cores.iter_mut().enumerate() {
            let cpu = self.pkg.core_mut(CoreId(idx));
            let mut ctx = SchedCtx {
                now: self.now,
                cpu,
                measured_load_pct: 0.0,
                measured_absolute_pct: 0.0,
            };
            st.sched.on_accounting(&mut ctx);
            st.window_busy = 0.0;
            st.window_abs = 0.0;
        }
        self.window_start = self.now;
    }

    fn sample(&mut self) {
        let span = self.sample_period.as_secs_f64();
        self.snapshots.push(MultiSnapshot {
            t_secs: self.now.as_secs_f64(),
            core_freq_mhz: (0..self.topo.n_cores())
                .map(|c| {
                    let cpu = self.pkg.core(CoreId(c));
                    cpu.pstates().state(cpu.pstate()).frequency.as_mhz()
                })
                .collect(),
            vm_absolute_pct: (0..self.vms.len())
                .map(|_| 0.0) // per-window per-VM tracking omitted; totals cover the studies
                .collect(),
        });
        let _ = span;
    }
}

impl std::fmt::Debug for MultiHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiHost")
            .field("cores", &self.topo.n_cores())
            .field("domains", &self.topo.n_domains())
            .field("vms", &self.vms.len())
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
