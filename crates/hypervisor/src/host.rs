//! The host simulation loop.
//!
//! [`Host`] ties together one simulated processor ([`cpumodel::Cpu`]),
//! a hypervisor [`Scheduler`] and the VMs it runs, the frequency
//! owner (an optional DVFS governor, [`governors::CpuFreq`], or PAS's
//! [`PasDomain`]) and the statistics engine.
//!
//! The loop advances in *variable-length slices*: each slice is the
//! minimum of the scheduler quantum (Xen: 10 ms), the picked VM's cap
//! or deadline allowance, its backlog drain time, and the distance to
//! the next period boundary (accounting / governor / snapshot). This
//! gives exact cap enforcement (a 20% cap on a 30 ms period yields
//! precisely 6 ms) without a sub-millisecond fixed step. A slice is
//! one step of the slice loop the multi-core and SMT hosts also run
//! (the private `slice` module), on the host's single runqueue with
//! SMT off; the host adds its statistics and trace events.
//!
//! On a Credit runqueue (Credit or PAS) whose every VM declares a
//! demand rate ([`WorkSource::rate_until`]), the host first tries to
//! run each boundary window as one *busy period*: in one closed-form
//! step every VM serves its whole backlog, or a VM whose cap binds its
//! whole allowance, then the core idles to the boundary. Where that
//! rule does not hold (even capped, the busy period would cross the
//! boundary; the uncapped VMs saturate the core; a VM declares no
//! rate), the window runs slice by slice.
//!
//! A PAS host's accounting tick retargets its [`PasDomain`] every
//! time, but rewrites the caps only when the target P-state differs
//! from the one they were written for: an Equation 4 cap is a pure
//! function of the booking and the P-state.

use cpumodel::{Cpu, SmtSpec};
use governors::{CpuFreq, Governor};
use pas_core::PasDomain;
use simkernel::{SimDuration, SimTime};
use trace::{EventKind, FreqCause, Tracer};

use crate::sched::{Credit2Scheduler, CreditScheduler, Scheduler, SedfScheduler};
use crate::slice::{busy_period, run_busy_period, step_core, RunQueue};
use crate::stats::HostStats;
use crate::vm::{Vm, VmConfig, VmId};
use crate::work::WorkSource;

/// Base governor sampling period; each governor stretches it by its
/// own `sampling_multiplier`.
const GOVERNOR_BASE_PERIOD: SimDuration = SimDuration::from_millis(50);

/// Which hypervisor scheduler the host runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Xen Credit with caps (fix credit).
    Credit,
    /// Xen Credit2 (beta in the paper's Xen): weighted fair, no caps
    /// — behaves as a variable-credit scheduler.
    Credit2,
    /// Xen SEDF; `extra = true` is the paper's variable-credit
    /// configuration.
    Sedf {
        /// The extra-time (`b`) flag applied to VMs without an
        /// explicit triplet.
        extra: bool,
    },
    /// The paper's PAS: Credit with caps, whose caps and processor
    /// frequency a [`PasDomain`] rewrites on every accounting tick
    /// (DVFS + credit compensation). The host must not also install a
    /// governor.
    Pas,
}

/// Host configuration; see [`HostConfig::optiplex_defaults`].
pub struct HostConfig {
    /// The simulated machine.
    pub machine: cpumodel::MachineSpec,
    /// Scheduler choice.
    pub scheduler: SchedulerKind,
    /// Optional DVFS governor (`None` keeps the boot frequency, i.e.
    /// maximum — equivalent to the performance governor).
    pub governor: Option<Box<dyn Governor>>,
    /// Telemetry snapshot period (the spacing of figure points).
    pub sample_period: SimDuration,
    /// PAS smoothing-window override (ablation; the paper uses 3).
    /// Ignored for other schedulers.
    pub pas_smoothing_window: Option<usize>,
    /// PAS planner headroom override, percent (ablation; the paper's
    /// Listing 1.1 uses none). Ignored for other schedulers.
    pub pas_headroom_pct: Option<f64>,
}

impl HostConfig {
    /// The paper's testbed defaults: Optiplex 755 ladder, 10 s
    /// snapshots, no governor installed. The 10 ms scheduler quantum
    /// and the 50 ms base governor period are fixed for every host.
    #[must_use]
    pub fn optiplex_defaults(scheduler: SchedulerKind) -> Self {
        HostConfig {
            machine: cpumodel::machines::optiplex_755(),
            scheduler,
            governor: None,
            sample_period: SimDuration::from_secs(10),
            pas_smoothing_window: None,
            pas_headroom_pct: None,
        }
    }

    /// Overrides PAS's load-smoothing window (the paper's footnote 5
    /// uses 3 samples). Only meaningful with [`SchedulerKind::Pas`].
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn with_pas_smoothing_window(mut self, window: usize) -> Self {
        assert!(window > 0, "smoothing window must be at least 1");
        self.pas_smoothing_window = Some(window);
        self
    }

    /// Gives PAS's frequency planner headroom: the chosen state must
    /// have `headroom_pct` spare capacity above the absolute load.
    /// Only meaningful with [`SchedulerKind::Pas`].
    #[must_use]
    pub fn with_pas_headroom(mut self, headroom_pct: f64) -> Self {
        self.pas_headroom_pct = Some(headroom_pct);
        self
    }

    /// Sets the machine.
    #[must_use]
    pub fn with_machine(mut self, machine: cpumodel::MachineSpec) -> Self {
        self.machine = machine;
        self
    }

    /// Installs a governor.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler is [`SchedulerKind::Pas`]: PAS manages
    /// DVFS itself; running a second frequency owner would fight it
    /// (the paper runs Xen's governor as userspace under PAS).
    #[must_use]
    pub fn with_governor(mut self, governor: Box<dyn Governor>) -> Self {
        assert!(
            self.scheduler != SchedulerKind::Pas,
            "PAS manages DVFS itself; do not install a governor"
        );
        self.governor = Some(governor);
        self
    }

    /// Sets the snapshot period.
    #[must_use]
    pub fn with_sample_period(mut self, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "sample period must be non-zero");
        self.sample_period = period;
        self
    }

    /// Builds the host.
    #[must_use]
    pub fn build(self) -> Host {
        let cpu = self.machine.build_cpu();
        let sched: Box<dyn Scheduler> = match self.scheduler {
            SchedulerKind::Credit | SchedulerKind::Pas => Box::new(CreditScheduler::new()),
            SchedulerKind::Credit2 => Box::new(Credit2Scheduler::new()),
            SchedulerKind::Sedf { extra } => Box::new(SedfScheduler::new(extra)),
        };
        let pas = (self.scheduler == SchedulerKind::Pas).then(|| {
            let mut pas = PasDomain::new(cpu.pstates().clone());
            if let Some(w) = self.pas_smoothing_window {
                pas = pas.with_smoothing_window(w);
            }
            if let Some(h) = self.pas_headroom_pct {
                pas = pas.with_headroom(h);
            }
            pas
        });
        let gov_period = match &self.governor {
            Some(g) => GOVERNOR_BASE_PERIOD * u64::from(g.sampling_multiplier().max(1)),
            None => GOVERNOR_BASE_PERIOD,
        };
        let acct_period = sched.accounting_period();
        Host {
            now: SimTime::ZERO,
            cpu,
            rq: RunQueue::new(sched),
            pas,
            pas_caps_for: None,
            pas_caps: Vec::new(),
            cpufreq: self.governor.map(CpuFreq::new),
            stats: HostStats::new(),
            acct_period,
            gov_period,
            sample_period: self.sample_period,
            next_acct: SimTime::ZERO + acct_period,
            next_gov: SimTime::ZERO + gov_period,
            next_sample: SimTime::ZERO + self.sample_period,
            tracer: None,
            trace_ids: Vec::new(),
            last_pick: None,
            runnable_scratch: Vec::new(),
            profiling: false,
            perf: HostPerf::default(),
        }
    }
}

impl std::fmt::Debug for HostConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostConfig")
            .field("machine", &self.machine.name)
            .field("scheduler", &self.scheduler)
            .field("governor", &self.governor.as_ref().map(|g| g.name()))
            .finish()
    }
}

/// A VM in flight between two hosts: everything
/// [`Host::extract_vm`] hands over and [`Host::admit_vm`] restores.
pub struct MigratedVm {
    /// The VM's static configuration (name, credit, weight, …).
    pub config: VmConfig,
    /// The live workload, moved out of the source host.
    pub work: Box<dyn WorkSource>,
    /// Demand that was queued but not yet executed at extraction time,
    /// in mega-cycles; re-admission restores it so no work is lost.
    pub backlog_mcycles: f64,
}

impl std::fmt::Debug for MigratedVm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MigratedVm")
            .field("name", &self.config.name)
            .field("credit", &self.config.credit)
            .field("backlog_mcycles", &self.backlog_mcycles)
            .finish()
    }
}

/// One simulated virtualized host.
pub struct Host {
    now: SimTime,
    cpu: Cpu,
    // The scheduler and the VMs, whose ids are the host's.
    rq: RunQueue<dyn Scheduler>,
    // PAS's controller, on a Credit runqueue; `None` for the other
    // schedulers.
    pas: Option<PasDomain>,
    // The P-state the runqueue's PAS caps were last written for:
    // `None` before the first tick and after a VM joins, since
    // `on_vm_added` caps it at its uncompensated credit.
    pas_caps_for: Option<cpumodel::PStateIdx>,
    // The PAS cap last recorded in the trace, by VM id, for the VMs
    // recorded so far (a prefix, since ticks walk the ids in order).
    // Empty while untraced.
    pas_caps: Vec<Option<f64>>,
    cpufreq: Option<CpuFreq>,
    stats: HostStats,
    acct_period: SimDuration,
    gov_period: SimDuration,
    sample_period: SimDuration,
    next_acct: SimTime,
    next_gov: SimTime,
    next_sample: SimTime,
    // Tracing is opt-in: `None` (the default) keeps the hot path to a
    // single branch per site.
    tracer: Option<Box<Tracer>>,
    // Interned tracer name id per VM, indexed by `VmId` — a dense
    // sidecar so the hot pick-record path reads 4 bytes instead of
    // paging in the whole `Vm` struct. Populated while a tracer is
    // installed, empty otherwise.
    trace_ids: Vec<trace::NameId>,
    last_pick: Option<VmId>,
    // Reusable runnable-scan buffer for `step_core`, which runs a few
    // hundred thousand times per simulated fleet-minute: a per-slice
    // `Vec<VmId>` collect would be a heap allocation on the hottest
    // path in the workspace. After each slice it holds the VMs that
    // were runnable at its start, which the pick event reads.
    runnable_scratch: Vec<VmId>,
    // Wall-clock self-profiling (see `HostPerf`). Off by default so
    // the hot path pays one branch, never a clock read.
    profiling: bool,
    perf: HostPerf,
}

/// Wall-clock time spent in each host hot-path phase, in nanoseconds.
/// Collected only while [`Host::set_profiling`] is on; purely
/// observational and **not** deterministic — it must stay out of every
/// artefact that is compared byte-for-byte (the campaign layer writes
/// it to the separate `<name>-profile.json`).
///
/// The hypervisor crate deliberately has no dependency on the metrics
/// crate, so these are raw counters; callers convert to profile spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct HostPerf {
    /// Time advancing VM slices through the exact slice loop, timed
    /// once per boundary window.
    pub host_slice_ns: u64,
    /// Time in the scheduler's accounting boundary (credit refill, PAS
    /// cap/frequency decisions).
    pub sched_acct_ns: u64,
    /// Time in the DVFS governor boundary.
    pub governor_ns: u64,
    /// Time taking statistics snapshots.
    pub snapshot_ns: u64,
}

impl HostPerf {
    /// Adds another host's counters into this one (fleet totals).
    pub fn absorb(&mut self, other: HostPerf) {
        self.host_slice_ns += other.host_slice_ns;
        self.sched_acct_ns += other.sched_acct_ns;
        self.governor_ns += other.governor_ns;
        self.snapshot_ns += other.snapshot_ns;
    }
}

impl Host {
    /// Adds a VM with its workload; returns its id.
    pub fn add_vm(&mut self, config: VmConfig, work: Box<dyn WorkSource>) -> VmId {
        self.stats.register_vm(&config.name);
        let id = self.rq.add_vm(config, work);
        self.pas_caps_for = None;
        if let Some(t) = self.tracer.as_mut() {
            self.trace_ids.push(t.intern(&self.rq.vms[id.0].name_tag));
        }
        id
    }

    /// The current simulated instant.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The simulated processor.
    #[must_use]
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The statistics engine (loads, snapshots, energy).
    #[must_use]
    pub fn stats(&self) -> &HostStats {
        &self.stats
    }

    /// Always 0. No fused window replay exists any more; the accessor
    /// stays so benchmark readers keep one shape. Busy periods, which
    /// run a whole window in one closed-form step, are not counted
    /// here.
    #[must_use]
    pub fn fused_slices(&self) -> u64 {
        0
    }

    /// Turns wall-clock phase profiling on or off (see [`HostPerf`]).
    /// Profiling only reads the clock around already-scheduled work —
    /// it cannot change any simulation result, only how long the
    /// simulation takes to run.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// The accumulated phase timings (zeros unless
    /// [`Host::set_profiling`] was turned on).
    #[must_use]
    pub fn perf(&self) -> HostPerf {
        self.perf
    }

    /// The scheduler's name ("credit", "sedf", "pas").
    #[must_use]
    pub fn scheduler_name(&self) -> &'static str {
        if self.pas.is_some() {
            "pas"
        } else {
            self.rq.sched.name()
        }
    }

    /// The machine's capacity at maximum frequency, in mega-cycles per
    /// second — the reference for "a VM with credit c demands
    /// `c · fmax_mcps`".
    #[must_use]
    pub fn fmax_mcps(&self) -> f64 {
        self.cpu.pstates().max().effective_mcps()
    }

    /// Immutable access to a VM.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    #[must_use]
    pub fn vm(&self, id: VmId) -> &Vm {
        &self.rq.vms[id.0]
    }

    /// The scheduler's current cap for a VM (percent of wall time).
    #[must_use]
    pub fn effective_cap_pct(&self, id: VmId) -> Option<f64> {
        self.rq.sched.effective_cap(id).map(|c| c * 100.0)
    }

    /// Number of VMs on this host.
    #[must_use]
    pub fn vm_count(&self) -> usize {
        self.rq.vms.len()
    }

    /// Externally overrides a VM's cap (fraction of wall time; `None`
    /// = uncapped). Returns `false` if the scheduler does not support
    /// external cap changes, or PAS manages the caps. This is the
    /// control surface the user-level PAS controllers of Section 4.1
    /// use.
    pub fn set_vm_cap(&mut self, id: VmId, cap: Option<f64>) -> bool {
        self.pas.is_none() && self.rq.sched.set_cap_external(id, cap)
    }

    /// Directly sets the processor P-state (the `userspace` governor
    /// path used by the user-level full controller).
    ///
    /// # Errors
    ///
    /// Returns [`cpumodel::CpuError`] for an out-of-range index.
    pub fn set_pstate(&mut self, idx: cpumodel::PStateIdx) -> Result<(), cpumodel::CpuError> {
        self.cpu.set_pstate(idx)
    }

    /// Reads and resets the external measurement window: `(load_pct,
    /// absolute_pct)` accumulated since the previous call.
    pub fn take_external_load(&mut self) -> (f64, f64) {
        self.stats.take_ext_window(self.now)
    }

    /// Retires a VM: its workload is replaced by [`crate::work::Idle`]
    /// and any queued demand is discarded, so it never runs again. The
    /// id stays valid (statistics are preserved); scheduler-side state
    /// is inert since the VM is never runnable.
    ///
    /// This models a guest shutdown in churn scenarios; Xen would
    /// additionally reclaim memory, which this CPU-focused model does
    /// not track per-host.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn retire_vm(&mut self, id: VmId) {
        let vm = &mut self.rq.vms[id.0];
        vm.replace_work(Box::new(crate::work::Idle));
        vm.backlog_mcycles = 0.0;
    }

    /// Extracts a VM for live migration: the workload and any queued
    /// backlog move out with the configuration, and the local slot is
    /// retired (replaced by [`crate::work::Idle`], never runnable
    /// again) so existing [`VmId`]s stay valid. Feed the returned
    /// [`MigratedVm`] to [`Host::admit_vm`] on the destination host.
    ///
    /// Statistics accumulated so far stay on the source host — exactly
    /// like a real migration, where the destination starts with fresh
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn extract_vm(&mut self, id: VmId) -> MigratedVm {
        let vm = &mut self.rq.vms[id.0];
        let work = vm.replace_work(Box::new(crate::work::Idle));
        let backlog_mcycles = std::mem::replace(&mut vm.backlog_mcycles, 0.0);
        MigratedVm {
            config: vm.config.clone(),
            work,
            backlog_mcycles,
        }
    }

    /// Re-admits a migrated VM (the counterpart of
    /// [`Host::extract_vm`]): registers it with the scheduler and
    /// restores the in-flight backlog it carried over. Returns the
    /// VM's id *on this host*.
    pub fn admit_vm(&mut self, migrated: MigratedVm) -> VmId {
        let id = self.add_vm(migrated.config, migrated.work);
        self.rq.vms[id.0].backlog_mcycles = migrated.backlog_mcycles;
        id
    }

    /// The QoS summary a VM's workload tracks, if any.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    #[must_use]
    pub fn vm_qos(&self, id: VmId) -> Option<crate::work::QosSummary> {
        self.rq.vms[id.0].work().qos_summary()
    }

    /// Installs a simulation-event tracer: from here on, scheduler
    /// pick changes, frequency transitions, PAS cap rewrites and VM
    /// completions are recorded into its bounded ring. The first
    /// accounting tick it sees records every VM's PAS cap. Replaces
    /// any previous tracer.
    ///
    /// Events are a pure function of simulation state, so a traced
    /// run records the identical stream regardless of worker threads
    /// or shard counts — and tracing never changes the simulation
    /// itself.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        let mut tracer = tracer;
        self.trace_ids = self
            .rq
            .vms
            .iter()
            .map(|vm| tracer.intern(&vm.name_tag))
            .collect();
        self.pas_caps.clear();
        self.last_pick = None;
        self.tracer = Some(Box::new(tracer));
    }

    /// Removes the tracer and returns it with everything recorded so
    /// far.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.pas_caps.clear();
        self.trace_ids.clear();
        self.tracer.take().map(|t| *t)
    }

    /// Whether a tracer is currently installed.
    #[must_use]
    pub fn is_tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Runs the simulation for `duration`.
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.now + duration;
        self.run_until(end);
    }

    /// `true` when no VM can ever execute work again: none is runnable
    /// and every demand source is exhausted (see
    /// [`WorkSource::demand_exhausted`]). Quiescence is absorbing —
    /// only [`Host::add_vm`] / [`Host::admit_vm`] can end it.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.rq
            .vms
            .iter()
            .all(|vm| !vm.is_runnable() && vm.demand_exhausted())
    }

    /// Runs the simulation until the absolute instant `t_end`.
    pub fn run_until(&mut self, t_end: SimTime) {
        self.run_slices(t_end, None);
    }

    /// Runs until the given VM's workload reports completion, up to
    /// `limit`. Returns the completion instant if reached.
    ///
    /// Completion is detected at *slice* granularity: a slice ends
    /// exactly when the backlog drains, so the returned instant is the
    /// true completion time, not rounded up to the next accounting
    /// boundary. The host stops at that instant.
    pub fn run_until_vm_finished(&mut self, id: VmId, limit: SimTime) -> Option<SimTime> {
        self.run_slices(limit, Some(id)).then_some(self.now)
    }

    /// The one run loop: boundary windows up to `t_end`, each run as
    /// one busy period or slice by slice, stopping early, at the end of
    /// a step, once the VM `until_complete` names has completed.
    /// Returns whether it stopped for that. A batch job declares no
    /// rate, so a host running one takes the slice loop and its
    /// completion instant stays slice-exact.
    fn run_slices(&mut self, t_end: SimTime, until_complete: Option<VmId>) -> bool {
        let complete =
            |host: &Host| until_complete.is_some_and(|id| host.rq.vms[id.0].is_complete());
        let mut stopped = complete(self);
        while !stopped && self.now < t_end {
            self.handle_boundaries();
            let boundary = self.next_boundary(t_end);
            // A real assert, not a debug_assert: a non-advancing
            // boundary (a zero-length period, say) would otherwise be
            // an infinite loop in exactly the --release builds the
            // benchmarks run.
            assert!(boundary > self.now, "boundary must advance");
            let t0 = self.profiling.then(std::time::Instant::now);
            let window_start = self.now;
            while self.now < boundary {
                if self.is_quiescent() {
                    // Idle skip: a quiescent host produces no VM
                    // activity before the boundary, so the per-slice
                    // machinery (runnable scan, scheduler pick, per-VM
                    // refill) is all no-ops. The only observable
                    // effect of the gap is idle energy accounting —
                    // and the slice loop covers an empty gap with a
                    // single slice, so one `account` call here is
                    // bit-identical, not just approximately equal.
                    // Unlike that slice, the skip records no `None`
                    // pick in a trace.
                    self.cpu.account(0.0, boundary - self.now);
                    self.now = boundary;
                    break;
                }
                // One attempt per window, at its start, to run the
                // whole window as a busy period; the slice loop
                // otherwise.
                if self.now != window_start || !self.advance_busy_period(boundary) {
                    self.advance_one_slice(boundary);
                }
                if complete(self) {
                    stopped = true;
                    break;
                }
            }
            if let Some(t0) = t0 {
                self.perf.host_slice_ns += t0.elapsed().as_nanos() as u64;
            }
        }
        self.handle_boundaries();
        self.stats.set_elapsed(self.now);
        stopped
    }

    fn next_boundary(&self, t_end: SimTime) -> SimTime {
        let mut b = t_end.min(self.next_acct).min(self.next_sample);
        if self.cpufreq.is_some() {
            b = b.min(self.next_gov);
        }
        b
    }

    fn handle_boundaries(&mut self) {
        if self.now >= self.next_acct {
            let t0 = self.profiling.then(std::time::Instant::now);
            let prev_pstate = self.tracer.as_ref().map(|_| self.cpu.pstate());
            let (load, abs) = self.stats.take_acct_window(self.now);
            let mut caps_rewritten = false;
            self.rq.sched.on_accounting(self.now);
            if let Some(pas) = self.pas.as_mut() {
                // Listing 1.2, with the absolute load measured exactly
                // by the host (integrated per slice).
                let target = pas.retarget(abs, load, self.cpu.pstate());
                // An Eq. 4 cap is a pure function of the booking and
                // the target, and nothing else writes a cap on a PAS
                // host, so the caps change only with the target.
                caps_rewritten = self.pas_caps_for != Some(target);
                if caps_rewritten {
                    for vm in &self.rq.vms {
                        let cap = pas.cap(vm.config.credit, target);
                        self.rq.sched.set_cap_external(vm.id, cap);
                    }
                    self.pas_caps_for = Some(target);
                }
                self.cpu
                    .set_pstate(target)
                    .expect("PAS plans on the cpu's own ladder");
            }
            if let Some(prev) = prev_pstate {
                self.note_freq_change(prev, FreqCause::Scheduler);
                // The recorded caps are those of the last rewrite,
                // unless a tracer or a VM joined since.
                if caps_rewritten || self.pas_caps.len() < self.rq.vms.len() {
                    self.note_cap_changes();
                }
            }
            self.next_acct += self.acct_period;
            if let Some(t0) = t0 {
                self.perf.sched_acct_ns += t0.elapsed().as_nanos() as u64;
            }
        }
        if self.cpufreq.is_some() && self.now >= self.next_gov {
            let t0 = self.profiling.then(std::time::Instant::now);
            let prev_pstate = self.tracer.as_ref().map(|_| self.cpu.pstate());
            let load = self.stats.take_gov_window(self.now);
            if let Some(cpufreq) = self.cpufreq.as_mut() {
                cpufreq.sample(&mut self.cpu, self.now, load);
            }
            if let Some(prev) = prev_pstate {
                self.note_freq_change(prev, FreqCause::Governor);
            }
            self.next_gov += self.gov_period;
            if let Some(t0) = t0 {
                self.perf.governor_ns += t0.elapsed().as_nanos() as u64;
            }
        }
        if self.now >= self.next_sample {
            let t0 = self.profiling.then(std::time::Instant::now);
            let caps: Vec<Option<f64>> = (0..self.rq.vms.len())
                .map(|i| self.rq.sched.effective_cap(VmId(i)))
                .collect();
            let backlogs: Vec<f64> = self.rq.vms.iter().map(|v| v.backlog_mcycles).collect();
            self.stats.set_elapsed(self.now);
            self.stats
                .take_snapshot(self.now, &self.cpu, &caps, &backlogs);
            self.next_sample += self.sample_period;
            if let Some(t0) = t0 {
                self.perf.snapshot_ns += t0.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Records a `freq_change` event if the P-state moved away from
    /// `prev`. Only called on the traced path.
    fn note_freq_change(&mut self, prev: cpumodel::PStateIdx, cause: FreqCause) {
        let cur = self.cpu.pstate();
        if cur == prev {
            return;
        }
        let table = self.cpu.pstates();
        let from_mhz = table.state(prev).frequency.as_mhz();
        let to_mhz = table.state(cur).frequency.as_mhz();
        let at_s = self.now.as_secs_f64();
        if let Some(t) = self.tracer.as_mut() {
            t.record(
                at_s,
                EventKind::FreqChange {
                    cause,
                    from_mhz,
                    to_mhz,
                },
            );
        }
    }

    /// Records a `cap_change` for each VM whose PAS cap differs from
    /// the one last recorded (for every VM on the first traced tick).
    /// Only called on the traced path, after the P-state is written,
    /// on a tick that rewrote the caps or has VMs not yet recorded.
    fn note_cap_changes(&mut self) {
        let (Some(pas), Some(t)) = (self.pas.as_ref(), self.tracer.as_mut()) else {
            return;
        };
        let target = self.cpu.pstate();
        let at_s = self.now.as_secs_f64();
        for (vm, &name) in self.rq.vms.iter().zip(&self.trace_ids) {
            let cap = pas.cap(vm.config.credit, target);
            let changed = match self.pas_caps.get_mut(vm.id.0) {
                Some(last) => std::mem::replace(last, cap) != cap,
                None => {
                    self.pas_caps.push(cap);
                    true
                }
            };
            if changed {
                t.record_cap(at_s, name, cap.map(|c| c * 100.0));
            }
        }
    }

    /// One step of the shared slice loop on the host's runqueue, then
    /// what only this host observes: its statistics and, when traced,
    /// the pick and completion events.
    fn advance_one_slice(&mut self, boundary: SimTime) {
        let start = self.now;
        self.now = step_core(
            std::slice::from_mut(&mut self.rq),
            &mut self.cpu,
            SmtSpec::off(),
            start,
            boundary,
            &mut self.runnable_scratch,
        );
        match self.rq.ran {
            Some(ran) => {
                let abs_secs = ran.busy_secs * self.cpu.ratio() * self.cpu.cf();
                self.stats.on_slice(Some((ran.vm, ran.busy_secs, abs_secs)));
            }
            None => self.stats.on_slice(None),
        }
        if self.tracer.is_some() {
            self.trace_slice(start);
        }
    }

    /// Runs the window up to `boundary` as one busy period of the
    /// host's runqueue and returns `true`, or returns `false`, changing
    /// nothing, where [`busy_period`] plans none. Then what only this
    /// host observes: each VM that ran adds its busy time to the
    /// statistics and, when traced, records a pick at the step's start,
    /// in id order (a VM already on the CPU records none), and a
    /// completion if it finished. The idle pick follows at the busy
    /// period's end. No pick is a preemption: each VM runs its whole
    /// backlog or its whole allowance.
    fn advance_busy_period(&mut self, boundary: SimTime) -> bool {
        let start = self.now;
        let Some(busy) = busy_period(&self.rq, &self.cpu, start, boundary) else {
            return false;
        };
        let (ratio, cf) = (self.cpu.ratio(), self.cpu.cf());
        let stats = &mut self.stats;
        let mut trace = self
            .tracer
            .as_deref_mut()
            .map(|t| (t, &self.trace_ids, &mut self.last_pick));
        let mut completed = Vec::new();
        let end = run_busy_period(
            &mut self.rq,
            &mut self.cpu,
            start,
            boundary,
            busy,
            |vm, ran| {
                stats.on_slice(Some((ran.vm, ran.busy_secs, ran.busy_secs * ratio * cf)));
                if let Some((t, ids, last)) = trace.as_mut() {
                    if **last != Some(ran.vm) {
                        t.record_pick(start.as_secs_f64(), Some(ids[ran.vm.0]), false);
                        **last = Some(ran.vm);
                    }
                    if vm.is_complete() {
                        completed.push(vm.name_tag.clone());
                    }
                }
            },
        );
        self.now = boundary;
        if let Some(t) = self.tracer.as_mut() {
            let end_s = end.as_secs_f64();
            for vm in completed {
                t.record(end_s, EventKind::VmComplete { vm });
            }
            if self.last_pick.take().is_some() {
                t.record_pick(end_s, None, false);
            }
        }
        true
    }

    /// Records the events of the slice from `start` to now. Only
    /// called on the traced path.
    fn trace_slice(&mut self, start: SimTime) {
        let Some(t) = self.tracer.as_mut() else {
            return;
        };
        let pick = self.rq.ran.map(|ran| ran.vm);
        if pick != self.last_pick {
            // A pick *change* is the event; re-picking the same VM
            // slice after slice is not. `preempt` marks the case where
            // the displaced VM was still runnable at `start` (the
            // scratch buffer still lists those VMs) — it lost the CPU
            // rather than going idle.
            let preempt = match (self.last_pick, pick) {
                (Some(prev), Some(_)) => self.runnable_scratch.contains(&prev),
                _ => false,
            };
            let vm = pick.map(|v| self.trace_ids[v.0]);
            t.record_pick(start.as_secs_f64(), vm, preempt);
            self.last_pick = pick;
        }
        if let Some(ran) = self.rq.ran {
            let vm = &self.rq.vms[ran.vm.0];
            if ran.done > 0.0 && vm.is_complete() {
                let name = vm.name_tag.clone();
                t.record(self.now.as_secs_f64(), EventKind::VmComplete { vm: name });
            }
        }
    }
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("now", &self.now)
            .field("scheduler", &self.scheduler_name())
            .field("vms", &self.rq.vms.len())
            .field("pstate", &self.cpu.pstate())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::ConstantDemand;
    use governors::{Performance, StableOndemand};
    use pas_core::Credit;

    fn demand(host: &Host, frac: f64) -> Box<ConstantDemand> {
        Box::new(ConstantDemand::new(frac * host.fmax_mcps()))
    }

    /// The paper's Figure 9 host under PAS: V20 running a constant
    /// `v20_demand` (a fraction of the fmax capacity), V70 idle.
    fn fig9_host(v20_demand: f64) -> Host {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Pas).build();
        let d = demand(&host, v20_demand);
        host.add_vm(VmConfig::new("v20", Credit::percent(20.0)), d);
        host.add_vm(
            VmConfig::new("v70", Credit::percent(70.0)),
            Box::new(crate::work::Idle),
        );
        host
    }

    #[test]
    fn cap_enforced_under_credit() {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
        let d = demand(&host, 0.5);
        host.add_vm(VmConfig::new("v20", Credit::percent(20.0)), d);
        host.run_for(SimDuration::from_secs(30));
        let busy = host.stats().vm_busy_fraction(VmId(0));
        assert!((busy - 0.20).abs() < 0.01, "busy {busy} != 20%");
    }

    #[test]
    fn idle_host_consumes_no_cpu() {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
        host.add_vm(
            VmConfig::new("idle", Credit::percent(50.0)),
            Box::new(crate::work::Idle),
        );
        host.run_for(SimDuration::from_secs(10));
        assert_eq!(host.stats().global_busy_fraction(), 0.0);
        assert_eq!(host.now(), SimTime::from_secs(10));
    }

    #[test]
    fn two_vms_respect_their_caps() {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
        let d1 = demand(&host, 1.0);
        let d2 = demand(&host, 1.0);
        host.add_vm(VmConfig::new("v20", Credit::percent(20.0)), d1);
        host.add_vm(VmConfig::new("v70", Credit::percent(70.0)), d2);
        host.run_for(SimDuration::from_secs(30));
        let b0 = host.stats().vm_busy_fraction(VmId(0));
        let b1 = host.stats().vm_busy_fraction(VmId(1));
        assert!((b0 - 0.20).abs() < 0.01, "v20 busy {b0}");
        assert!((b1 - 0.70).abs() < 0.01, "v70 busy {b1}");
    }

    #[test]
    fn sedf_redistributes_idle_time() {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Sedf { extra: true }).build();
        let d = demand(&host, 1.0);
        host.add_vm(VmConfig::new("v20", Credit::percent(20.0)), d);
        host.add_vm(
            VmConfig::new("v70", Credit::percent(70.0)),
            Box::new(crate::work::Idle),
        );
        host.run_for(SimDuration::from_secs(30));
        let b0 = host.stats().vm_busy_fraction(VmId(0));
        assert!(b0 > 0.9, "work conserving: v20 got {b0}");
    }

    #[test]
    fn governor_scales_down_on_low_load() {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit)
            .with_governor(Box::new(StableOndemand::new()))
            .build();
        let d = demand(&host, 0.20);
        host.add_vm(VmConfig::new("v20", Credit::percent(20.0)), d);
        host.run_for(SimDuration::from_secs(60));
        assert_eq!(host.cpu().pstate(), host.cpu().pstates().min_idx());
    }

    #[test]
    fn performance_governor_stays_at_max() {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit)
            .with_governor(Box::new(Performance))
            .build();
        let d = demand(&host, 0.05);
        host.add_vm(VmConfig::new("v", Credit::percent(20.0)), d);
        host.run_for(SimDuration::from_secs(20));
        assert_eq!(host.cpu().pstate(), host.cpu().pstates().max_idx());
    }

    #[test]
    fn pas_self_manages_dvfs() {
        let mut host = fig9_host(1.0); // thrashing V20
        host.run_for(SimDuration::from_secs(60));
        // Host underloaded → PAS parks the frequency at the bottom...
        assert_eq!(host.cpu().pstate(), host.cpu().pstates().min_idx());
        // ...while preserving V20's absolute capacity at ~20%.
        let abs = host.stats().vm_absolute_fraction(VmId(0));
        assert!((abs - 0.20).abs() < 0.02, "absolute {abs} != 20%");
        // And its cap was raised to ~33% (Figure 9).
        let cap = host.effective_cap_pct(VmId(0)).unwrap();
        assert!((cap - 33.0).abs() < 2.0, "cap {cap}");
    }

    #[test]
    fn cap_never_exceeds_wall_clock() {
        let mut host = fig9_host(0.05);
        host.run_for(SimDuration::from_secs(5));
        assert_eq!(host.cpu().pstate(), host.cpu().pstates().min_idx());
        // V70's compensated credit is 70/0.6 ≈ 117% → clamped to 100%.
        assert_eq!(host.effective_cap_pct(VmId(1)), Some(100.0));
        assert!(!host.set_vm_cap(VmId(1), Some(0.5)), "PAS owns the caps");
    }

    /// The `cap_change` events of a traced PAS host: every VM's cap at
    /// the first traced tick, nothing while the operating point holds,
    /// and again once a new VM moves the frequency.
    #[test]
    fn event_recording_emits_only_cap_changes() {
        let mut host = fig9_host(1.0);
        host.run_for(SimDuration::from_secs(1));
        host.set_tracer(trace::Tracer::new(1, 1 << 12));
        host.run_for(SimDuration::from_secs(3));
        let d = demand(&host, 1.0);
        host.add_vm(VmConfig::new("v50", Credit::percent(50.0)), d);
        host.run_for(SimDuration::from_secs(4));
        let tracer = host.take_tracer().expect("tracer installed");
        assert_eq!(tracer.dropped(), 0);
        let caps: Vec<f64> = trace::Trace::merge(vec![tracer])
            .events()
            .iter()
            .filter(|e| e.kind.name() == "cap_change")
            .map(|e| e.at_s)
            .collect();
        let (steady, loaded): (Vec<f64>, Vec<f64>) = caps.iter().partition(|&&t| t < 4.0);
        assert_eq!(steady, [1.02, 1.02], "one cap per VM, then none");
        assert!(loaded.len() > 3, "re-emitted after the frequency moved");
    }

    /// Recording cap changes is observation only: the P-state and
    /// every cap agree, every 200 ms, with an untraced twin across a
    /// load change, on a thrashing host and on a light one that runs
    /// busy periods.
    #[test]
    fn event_recording_never_changes_decisions() {
        let run = |v20_demand: f64, traced: bool| {
            let mut host = fig9_host(v20_demand);
            if traced {
                host.set_tracer(trace::Tracer::new(1, 64));
            }
            let mut decisions = Vec::new();
            for step in 0..40 {
                if step == 20 {
                    let d = demand(&host, 1.0);
                    host.add_vm(VmConfig::new("v50", Credit::percent(50.0)), d);
                }
                host.run_for(SimDuration::from_millis(200));
                let caps: Vec<Option<u64>> = (0..host.vm_count())
                    .map(|i| host.effective_cap_pct(VmId(i)).map(f64::to_bits))
                    .collect();
                decisions.push((host.cpu().pstate(), caps));
            }
            decisions
        };
        for v20_demand in [1.0, 0.05] {
            assert_eq!(run(v20_demand, true), run(v20_demand, false));
        }
    }

    #[test]
    #[should_panic(expected = "PAS manages DVFS itself")]
    fn pas_plus_governor_rejected() {
        let _ =
            HostConfig::optiplex_defaults(SchedulerKind::Pas).with_governor(Box::new(Performance));
    }

    #[test]
    fn snapshots_are_emitted() {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit)
            .with_sample_period(SimDuration::from_secs(5))
            .build();
        let d = demand(&host, 0.3);
        host.add_vm(VmConfig::new("v", Credit::percent(30.0)), d);
        host.run_for(SimDuration::from_secs(30));
        let n = host.stats().snapshots().len();
        assert!((5..=7).contains(&n), "snapshots {n}");
    }

    #[test]
    fn extract_then_admit_preserves_backlog_and_retires_source() {
        let mut src = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
        let total = 5.0 * src.fmax_mcps();
        let id = src.add_vm(
            VmConfig::new("mover", Credit::percent(50.0)),
            Box::new(crate::work::test_batch(total)),
        );
        src.run_for(SimDuration::from_secs(2));
        let moved = src.extract_vm(id);
        assert!(moved.backlog_mcycles >= 0.0);
        assert_eq!(moved.config.name, "mover");

        // The source slot is inert: more simulated time does no work.
        let done_before = src.vm(id).total_done_mcycles;
        src.run_for(SimDuration::from_secs(2));
        assert_eq!(src.vm(id).total_done_mcycles, done_before);

        // The destination finishes the batch exactly.
        let mut dst = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
        let new_id = dst.admit_vm(moved);
        let done = dst.run_until_vm_finished(new_id, SimTime::from_secs(100));
        assert!(done.is_some(), "migrated batch completes on destination");
        let total_done = src.vm(id).total_done_mcycles + dst.vm(new_id).total_done_mcycles;
        assert!(
            (total_done - total).abs() < 1e-6,
            "no work lost in migration: {total_done} vs {total}"
        );
    }

    #[test]
    fn run_until_vm_finished_reports_completion() {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
        // A batch job of exactly 10 seconds of fmax work in a 50% VM:
        // should take ~20 s of wall time.
        let total = 10.0 * host.fmax_mcps();
        host.add_vm(
            VmConfig::new("batch", Credit::percent(50.0)),
            Box::new(crate::work::test_batch(total)),
        );
        let done = host.run_until_vm_finished(VmId(0), SimTime::from_secs(100));
        let t = done.expect("finished").as_secs_f64();
        assert!((t - 20.0).abs() < 0.5, "finished at {t}");
    }

    #[test]
    fn completion_instant_is_slice_exact_not_acct_quantized() {
        // 0.5 s of fmax work in a 50% VM: 15 ms of service per 30 ms
        // accounting period, starting one period late (credit arrives
        // at the first accounting boundary), so the drain finishes
        // mid-period at t = 0.03 + 33 × 0.03 + 0.005 = 1.025 s —
        // strictly between the 1.02 and 1.05 boundaries. The
        // acct-granularity poll this regression pins down used to
        // round completion up to the next boundary.
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
        let total = 0.5 * host.fmax_mcps();
        host.add_vm(
            VmConfig::new("batch", Credit::percent(50.0)),
            Box::new(crate::work::test_batch(total)),
        );
        let done = host.run_until_vm_finished(VmId(0), SimTime::from_secs(10));
        let t = done.expect("finished").as_secs_f64();
        assert!(
            (t - 1.025).abs() < 1e-4,
            "exact completion instant, got {t}"
        );
        assert_eq!(host.now().as_secs_f64(), t, "host stops at completion");
    }

    #[test]
    fn traced_pas_host_records_picks_caps_freq_and_completion() {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Pas).build();
        let total = 2.0 * host.fmax_mcps();
        host.add_vm(
            VmConfig::new("batch", Credit::percent(20.0)),
            Box::new(crate::work::test_batch(total)),
        );
        host.add_vm(
            VmConfig::new("lazy", Credit::percent(70.0)),
            Box::new(crate::work::Idle),
        );
        host.set_tracer(trace::Tracer::new(1, trace::DEFAULT_CAPACITY).with_host(0));
        assert!(host.is_tracing());
        host.run_for(SimDuration::from_secs(30));
        let tracer = host.take_tracer().expect("tracer installed");
        assert!(!host.is_tracing());
        let trace = trace::Trace::merge(vec![tracer]);
        let kind_count = |name: &str| {
            trace
                .events()
                .iter()
                .filter(|e| e.kind.name() == name)
                .count()
        };
        assert!(kind_count("sched_pick") >= 2, "batch runs, then idles");
        assert!(kind_count("cap_change") >= 2, "PAS rewrote caps");
        assert!(
            kind_count("freq_change") >= 1,
            "underload drops the frequency"
        );
        assert_eq!(kind_count("vm_complete"), 1, "the batch finished once");
        // Host tag flows through to every event.
        assert!(trace.events().iter().all(|e| e.host == Some(0)));
        // Events are in simulation-time order.
        let times: Vec<f64> = trace.events().iter().map(|e| e.at_s).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    /// On a thrashing host and on a light one that runs busy periods.
    /// The light host's trace is a valid `pas-repro-trace/v1` document.
    #[test]
    fn tracing_never_changes_the_simulation() {
        let run = |v20_demand: f64, traced: bool| {
            let mut host = fig9_host(v20_demand);
            if traced {
                host.set_tracer(trace::Tracer::new(1, 64));
            }
            host.run_for(SimDuration::from_secs(30));
            let jsonl = host
                .take_tracer()
                .map(|t| trace::render_jsonl("light", &[(None, &trace::Trace::merge(vec![t]))]));
            let bits = (
                host.cpu().energy().joules().to_bits(),
                host.stats().global_busy_fraction().to_bits(),
                host.cpu().pstate(),
            );
            (bits, jsonl)
        };
        for v20_demand in [1.0, 0.05] {
            let (traced, jsonl) = run(v20_demand, true);
            assert_eq!(
                traced,
                run(v20_demand, false).0,
                "tracing must be observation-only"
            );
            let summary = trace::summary::summarize(&jsonl.expect("traced")).expect("valid trace");
            assert!(summary
                .by_kind
                .iter()
                .any(|(kind, n)| kind == "sched_pick" && *n > 0));
        }
    }

    /// The idle skip in the host's run loop must be *bit-identical*
    /// to the exact slice loop, not merely close: energy accounting,
    /// loads and snapshots all agree to the last bit on a host that
    /// turns quiescent mid-run. The reference drives the slice loop
    /// with no skip. Traces are not compared: the skip deliberately
    /// records no `None` pick.
    #[test]
    fn idle_fast_path_is_bit_exact() {
        let build = || {
            let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit)
                .with_governor(Box::new(StableOndemand::new()))
                .build();
            let total = 5.0 * host.fmax_mcps();
            host.add_vm(
                VmConfig::new("batch", Credit::percent(50.0)),
                Box::new(crate::work::test_batch(total)),
            );
            host.add_vm(
                VmConfig::new("spare", Credit::percent(20.0)),
                Box::new(crate::work::Idle),
            );
            host
        };
        // ~10 s busy, then ~50 s quiescent.
        let end = SimTime::from_secs(60);
        let mut fast = build();
        fast.run_until(end);
        let mut exact = build();
        while exact.now() < end {
            exact.handle_boundaries();
            let boundary = exact.next_boundary(end);
            exact.advance_one_slice(boundary);
        }
        exact.handle_boundaries();
        exact.stats.set_elapsed(exact.now());
        assert!(fast.is_quiescent() && exact.is_quiescent());
        assert_eq!(fast.now(), exact.now());
        assert_eq!(
            fast.cpu().energy().joules().to_bits(),
            exact.cpu().energy().joules().to_bits(),
            "energy must agree bit-for-bit"
        );
        assert_eq!(
            fast.stats().global_busy_fraction().to_bits(),
            exact.stats().global_busy_fraction().to_bits()
        );
        assert_eq!(fast.stats().snapshots(), exact.stats().snapshots());
    }

    /// Everything externally observable about a finished run, with the
    /// floats as raw bits: equality here means *bit*-identity, not
    /// tolerance.
    fn fingerprint(host: &Host) -> (u64, u64, usize, SimTime, Vec<(u64, u64)>, usize) {
        let per_vm: Vec<(u64, u64)> = (0..host.vm_count())
            .map(|i| {
                let id = VmId(i);
                (
                    host.stats().vm_busy_fraction(id).to_bits(),
                    host.vm(id).total_done_mcycles.to_bits(),
                )
            })
            .collect();
        (
            host.cpu().energy().joules().to_bits(),
            host.stats().global_busy_fraction().to_bits(),
            host.cpu().pstate().0,
            host.now(),
            per_vm,
            host.stats().snapshots().len(),
        )
    }

    /// Profiling only reads the clock around already-scheduled work:
    /// a profiled run must be bit-identical to an unprofiled one, and
    /// the phase counters must actually accumulate. On a thrashing
    /// host and on a light one that runs busy periods.
    #[test]
    fn profiling_is_bit_exact_and_counters_accumulate() {
        let thrashing = || {
            let mut host = HostConfig::optiplex_defaults(SchedulerKind::Pas).build();
            let d = demand(&host, 1.0);
            host.add_vm(VmConfig::new("v20", Credit::percent(20.0)), d);
            host
        };
        let light = || fig9_host(0.05);
        for build in [&thrashing as &dyn Fn() -> Host, &light] {
            let run = |profiled: bool| {
                let mut host = build();
                host.set_profiling(profiled);
                host.run_for(SimDuration::from_secs(60));
                host
            };
            let profiled = run(true);
            let plain = run(false);
            assert_eq!(fingerprint(&profiled), fingerprint(&plain));
            assert_eq!(profiled.stats().snapshots(), plain.stats().snapshots());
            let perf = profiled.perf();
            assert!(perf.host_slice_ns > 0, "slice phase was timed");
            assert!(perf.sched_acct_ns > 0, "accounting phase was timed");
            assert!(perf.snapshot_ns > 0, "snapshot phase was timed");
            let off = plain.perf();
            assert_eq!(
                (
                    off.host_slice_ns,
                    off.sched_acct_ns,
                    off.governor_ns,
                    off.snapshot_ns
                ),
                (0, 0, 0, 0),
                "profiling off must not read the clock"
            );
        }
    }
}
