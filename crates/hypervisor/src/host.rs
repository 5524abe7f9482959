//! The host simulation loop.
//!
//! [`Host`] ties together one simulated processor ([`cpumodel::Cpu`]),
//! a hypervisor [`Scheduler`], an optional DVFS governor
//! ([`governors::CpuFreq`]), the VMs and the statistics engine.
//!
//! The loop advances in *variable-length slices*: each slice is the
//! minimum of the scheduler quantum (Xen: 10 ms), the picked VM's cap
//! or deadline allowance, its backlog drain time, and the distance to
//! the next period boundary (accounting / governor / snapshot). This
//! gives exact cap enforcement (a 20% cap on a 30 ms period yields
//! precisely 6 ms) without a sub-millisecond fixed step.

use cpumodel::Cpu;
use governors::{CpuFreq, Governor};
use simkernel::{SimDuration, SimTime, WakeHeap, WakeKind};
use trace::{EventKind, FreqCause, Record as _, Tracer};

use crate::sched::{
    Credit2Scheduler, CreditScheduler, PasScheduler, SchedCtx, Scheduler, SedfScheduler,
};
use crate::stats::HostStats;
use crate::vm::{Vm, VmConfig, VmId, MIN_RUNNABLE_MCYCLES};
use crate::work::WorkSource;

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
    /// The paper's PAS scheduler (Credit + DVFS + credit
    /// compensation). The host must not also install a governor.
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
    /// Scheduler quantum (Xen: 10 ms).
    pub quantum: SimDuration,
    /// Base governor sampling period; each governor stretches it by
    /// its own `sampling_multiplier`.
    pub governor_base_period: SimDuration,
    /// Telemetry snapshot period (the spacing of figure points).
    pub sample_period: SimDuration,
    /// PAS smoothing-window override (ablation; the paper uses 3).
    /// Ignored for other schedulers.
    pub pas_smoothing_window: Option<usize>,
    /// PAS planner headroom override, percent (ablation; the paper's
    /// Listing 1.1 uses none). Ignored for other schedulers.
    pub pas_headroom_pct: Option<f64>,
    /// Whether [`Host::run_until`] may jump quiescent hosts straight
    /// to the next period boundary (see [`Host::is_quiescent`]). The
    /// jump is bit-identical to the slice-exact path; the switch
    /// exists so tests and benchmarks can compare the two.
    pub idle_fast_path: bool,
    /// Whether the host advances boundary windows through the
    /// event-driven core: the window loop hoists the per-slice
    /// quiescence scan and, when the scheduler exposes a Credit core
    /// and the pick provably cannot change, replays repeated identical
    /// quantum slices without re-running the scan
    /// (see `Host::run_fused`). Bit-identical to the per-slice path by
    /// construction; the switch exists for the A/B benchmarks and
    /// equivalence tests.
    pub event_core: bool,
}

impl HostConfig {
    /// The paper's testbed defaults: Optiplex 755 ladder, 10 ms
    /// quantum, 50 ms base governor period, 10 s snapshots, no
    /// governor installed.
    #[must_use]
    pub fn optiplex_defaults(scheduler: SchedulerKind) -> Self {
        HostConfig {
            machine: cpumodel::machines::optiplex_755(),
            scheduler,
            governor: None,
            quantum: SimDuration::from_millis(10),
            governor_base_period: SimDuration::from_millis(50),
            sample_period: SimDuration::from_secs(10),
            pas_smoothing_window: None,
            pas_headroom_pct: None,
            idle_fast_path: true,
            event_core: true,
        }
    }

    /// Enables or disables the idle-skip fast path (on by default).
    #[must_use]
    pub fn with_idle_fast_path(mut self, on: bool) -> Self {
        self.idle_fast_path = on;
        self
    }

    /// Enables or disables the event-driven core (on by default).
    #[must_use]
    pub fn with_event_core(mut self, on: bool) -> Self {
        self.event_core = on;
        self
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
            SchedulerKind::Credit => Box::new(CreditScheduler::new()),
            SchedulerKind::Credit2 => Box::new(Credit2Scheduler::new()),
            SchedulerKind::Sedf { extra } => Box::new(SedfScheduler::new(extra)),
            SchedulerKind::Pas => {
                let mut pas = PasScheduler::new(&cpu);
                if let Some(w) = self.pas_smoothing_window {
                    pas = pas.with_smoothing_window(w);
                }
                if let Some(h) = self.pas_headroom_pct {
                    pas = pas.with_headroom(h);
                }
                Box::new(pas)
            }
        };
        let gov_period = match &self.governor {
            Some(g) => self.governor_base_period * u64::from(g.sampling_multiplier().max(1)),
            None => self.governor_base_period,
        };
        let acct_period = sched.accounting_period();
        Host {
            now: SimTime::ZERO,
            cpu,
            sched,
            cpufreq: self.governor.map(CpuFreq::new),
            vms: Vec::new(),
            stats: HostStats::new(),
            quantum: self.quantum,
            acct_period,
            gov_period,
            sample_period: self.sample_period,
            next_acct: SimTime::ZERO + acct_period,
            next_gov: SimTime::ZERO + gov_period,
            next_sample: SimTime::ZERO + self.sample_period,
            idle_fast_path: self.idle_fast_path,
            event_core: self.event_core,
            tracer: None,
            trace_ids: Vec::new(),
            last_pick: None,
            runnable_scratch: Vec::new(),
            hot: HotVms::default(),
            wakes: WakeHeap::new(),
            fused_slices: 0,
            fuse_backoff: 0,
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
    sched: Box<dyn Scheduler>,
    cpufreq: Option<CpuFreq>,
    vms: Vec<Vm>,
    stats: HostStats,
    quantum: SimDuration,
    acct_period: SimDuration,
    gov_period: SimDuration,
    sample_period: SimDuration,
    next_acct: SimTime,
    next_gov: SimTime,
    next_sample: SimTime,
    idle_fast_path: bool,
    // Tracing is opt-in: `None` (the default) keeps the hot path to a
    // single branch per site, pinned by the `trace_overhead` bench.
    tracer: Option<Box<Tracer>>,
    // Interned tracer name id per VM, indexed by `VmId` — a dense
    // sidecar so the hot pick-record path reads 4 bytes instead of
    // paging in the whole `Vm` struct. Populated while a tracer is
    // installed, empty otherwise.
    trace_ids: Vec<trace::NameId>,
    last_pick: Option<VmId>,
    // Reusable runnable-scan buffer: `advance_one_slice` runs a few
    // hundred thousand times per simulated fleet-minute, so the
    // per-slice `Vec<VmId>` collect was a heap allocation on the
    // hottest path in the workspace. Capacity is retained across
    // slices; contents are rebuilt each slice.
    runnable_scratch: Vec<VmId>,
    event_core: bool,
    // Per-window flattened demand model (see `HotVms`); rebuilt at
    // each boundary window, allocation retained across windows.
    hot: HotVms,
    // Per-forecast wake heap (see `Host::next_event`); rebuilt on
    // demand, allocation retained across rebuilds.
    wakes: WakeHeap,
    // Slices committed by the fused replay loop, cumulative. Purely
    // observational (tests prove the fast path engages; profiling
    // reports coverage) — never consulted by the simulation.
    fused_slices: u64,
    // Windows left before the fused loop probes again after a probe
    // that committed nothing (see `FUSE_PROBE_BACKOFF`). Pure pacing
    // state: it decides when the fast path is *attempted*, never what
    // any slice computes, so results are unaffected.
    fuse_backoff: u16,
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
    /// Time advancing VM slices (both the fused window replay and the
    /// exact slice loop). Timed per boundary window on the event core,
    /// per slice on the legacy loop.
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

/// How many boundary windows the fused loop sits out after a probe
/// that committed no slices. Hosts where fusing cannot apply (several
/// concurrently runnable VMs, caps below the quantum) would otherwise
/// pay an extra runnable scan per slice for nothing; with backoff the
/// probe cost is amortised to ~one scan per this many windows, while
/// hosts that do fuse keep probing every window (a successful probe
/// resets the pacing).
const FUSE_PROBE_BACKOFF: u16 = 8;

/// Struct-of-arrays sidecar for the fused window loop: the per-VM
/// demand added per quantum, flattened into plain floats for one
/// boundary window. Valid for a whole window because every input is
/// pinned between boundaries: steady rates are constant by the
/// [`WorkSource::steady_rate_mcps`] contract, and exhaustion is
/// absorbing by the [`WorkSource::demand_exhausted`] contract.
/// Runnability is read from the [`Vm`]s, whose cached demand model
/// answers it for steady sources, and backlogs stay authoritative
/// there too — the fused loop reads and writes `Vm::backlog_mcycles`
/// directly, so there is no state to re-synchronise on fallback.
#[derive(Default)]
struct HotVms {
    /// Per VM: demand added per quantum (`rate · quantum`), `0.0` for
    /// exhausted sources.
    add: Vec<f64>,
    /// Indices of VMs with `add > 0`: the only VMs whose backlog (and
    /// hence runnability) can change during a window without running.
    growers: Vec<u32>,
    /// `false` if any VM is neither steady nor exhausted — its
    /// `generate` must be called per slice, so the window cannot be
    /// replayed.
    fusable: bool,
    /// `work_capacity(quantum)` at the window's P-state.
    cap_mc: f64,
    /// Effective mega-cycles per second at the window's P-state.
    mcps: f64,
    /// The quantum in seconds.
    qs: f64,
    /// The quantum re-rounded through `from_secs_f64`, as `charge`
    /// receives it on the exact path.
    busy_q: SimDuration,
    /// Absolute-load contribution of one fully-busy quantum.
    abs_q: f64,
}

impl Host {
    /// Adds a VM with its workload; returns its id.
    pub fn add_vm(&mut self, config: VmConfig, work: Box<dyn WorkSource>) -> VmId {
        let id = VmId(self.vms.len());
        self.sched.on_vm_added(id, &config);
        self.stats.register_vm(&config.name);
        let vm = Vm::new(id, config, work);
        if let Some(t) = self.tracer.as_mut() {
            self.trace_ids.push(t.intern(&vm.name_tag));
        }
        self.vms.push(vm);
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

    /// Cumulative count of scheduling slices committed by the fused
    /// replay loop (see `HostConfig::event_core`). Observational only:
    /// tests use it to prove the fast path engages, and profiling
    /// reports it as coverage. Zero when the event core is off.
    #[must_use]
    pub fn fused_slices(&self) -> u64 {
        self.fused_slices
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
        self.sched.name()
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
        &self.vms[id.0]
    }

    /// The scheduler's current cap for a VM (percent of wall time).
    #[must_use]
    pub fn effective_cap_pct(&self, id: VmId) -> Option<f64> {
        self.sched.effective_cap(id).map(|c| c * 100.0)
    }

    /// Number of VMs on this host.
    #[must_use]
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Externally overrides a VM's cap (fraction of wall time; `None`
    /// = uncapped). Returns `false` if the scheduler does not support
    /// external cap changes. This is the control surface the
    /// user-level PAS controllers of Section 4.1 use.
    pub fn set_vm_cap(&mut self, id: VmId, cap: Option<f64>) -> bool {
        self.sched.set_cap_external(id, cap)
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
        let vm = &mut self.vms[id.0];
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
        let vm = &mut self.vms[id.0];
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
        self.vms[id.0].backlog_mcycles = migrated.backlog_mcycles;
        id
    }

    /// The QoS summary a VM's workload tracks, if any.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    #[must_use]
    pub fn vm_qos(&self, id: VmId) -> Option<crate::work::QosSummary> {
        self.vms[id.0].work().qos_summary()
    }

    /// Installs a simulation-event tracer: from here on, scheduler
    /// pick changes, frequency transitions, cap rewrites and VM
    /// completions are recorded into its bounded ring. Also switches
    /// the scheduler's own event recording on. Replaces any previous
    /// tracer.
    ///
    /// Events are a pure function of simulation state, so a traced
    /// run records the identical stream regardless of worker threads
    /// or shard counts — and tracing never changes the simulation
    /// itself.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        let mut tracer = tracer;
        self.trace_ids = self
            .vms
            .iter()
            .map(|vm| tracer.intern(&vm.name_tag))
            .collect();
        self.sched.set_event_recording(true);
        self.last_pick = None;
        self.tracer = Some(Box::new(tracer));
    }

    /// Removes the tracer (switching scheduler event recording back
    /// off) and returns it with everything recorded so far.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.sched.set_event_recording(false);
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
        self.vms
            .iter()
            .all(|vm| !vm.is_runnable() && vm.demand_exhausted())
    }

    /// Runs the simulation until the absolute instant `t_end`.
    pub fn run_until(&mut self, t_end: SimTime) {
        while self.now < t_end {
            self.handle_boundaries();
            let boundary = self.next_boundary(t_end);
            // A real assert, not a debug_assert: a non-advancing
            // boundary (a zero-length period, say) would otherwise be
            // an infinite loop in exactly the --release builds the
            // benchmarks run.
            assert!(boundary > self.now, "boundary must advance");
            if self.idle_fast_path && self.is_quiescent() {
                // Idle-skip fast path: a quiescent host produces no VM
                // activity before the next boundary, so the per-slice
                // machinery (runnable scan, scheduler pick, per-VM
                // refill) is all no-ops. The only observable effect of
                // the gap is idle energy accounting — and the exact
                // path covers an empty gap with a single slice, so one
                // `account` call here is bit-identical, not just
                // approximately equal. Boundaries (accounting,
                // governor, snapshots) still fire one by one above.
                self.cpu.account(0.0, boundary - self.now);
                self.now = boundary;
            } else {
                let t0 = self.profiling.then(std::time::Instant::now);
                if self.event_core {
                    self.advance_window(boundary);
                } else {
                    self.advance_one_slice(boundary);
                }
                if let Some(t0) = t0 {
                    self.perf.host_slice_ns += t0.elapsed().as_nanos() as u64;
                }
            }
        }
        self.handle_boundaries();
        self.stats.set_elapsed(self.now);
    }

    /// Runs until the given VM's workload reports completion, up to
    /// `limit`. Returns the completion instant if reached.
    ///
    /// Completion is detected at *slice* granularity: a slice ends
    /// exactly when the backlog drains, so the returned instant is the
    /// true completion time, not rounded up to the next accounting
    /// boundary. The host stops at that instant.
    pub fn run_until_vm_finished(&mut self, id: VmId, limit: SimTime) -> Option<SimTime> {
        loop {
            if self.vms[id.0].is_complete() {
                self.handle_boundaries();
                self.stats.set_elapsed(self.now);
                return Some(self.now);
            }
            if self.now >= limit {
                self.handle_boundaries();
                self.stats.set_elapsed(self.now);
                return None;
            }
            self.handle_boundaries();
            let boundary = self.next_boundary(limit);
            assert!(boundary > self.now, "boundary must advance");
            self.advance_one_slice(boundary);
        }
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
            let mut ctx = SchedCtx {
                now: self.now,
                cpu: &mut self.cpu,
                measured_load_pct: load,
                measured_absolute_pct: abs,
            };
            self.sched.on_accounting(&mut ctx);
            if let Some(prev) = prev_pstate {
                self.note_freq_change(prev, FreqCause::Scheduler);
                self.drain_sched_events();
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
            let caps: Vec<Option<f64>> = (0..self.vms.len())
                .map(|i| self.sched.effective_cap(VmId(i)))
                .collect();
            let backlogs: Vec<f64> = self.vms.iter().map(|v| v.backlog_mcycles).collect();
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

    /// Drains the scheduler's recorded cap rewrites into the tracer.
    /// Only called on the traced path.
    fn drain_sched_events(&mut self) {
        let events = self.sched.take_sched_events();
        if events.is_empty() {
            return;
        }
        let at_s = self.now.as_secs_f64();
        if let Some(t) = self.tracer.as_mut() {
            for e in events {
                t.record_cap(at_s, self.trace_ids[e.vm.0], e.cap_pct);
            }
        }
    }

    fn advance_one_slice(&mut self, boundary: SimTime) {
        let horizon = boundary - self.now;
        let mut runnable = std::mem::take(&mut self.runnable_scratch);
        runnable.clear();
        runnable.extend(
            self.vms
                .iter()
                .filter(|vm| vm.is_runnable())
                .map(|vm| vm.id),
        );
        let pick = self.sched.pick_next(self.now, &runnable);
        if self.tracer.is_some() && pick != self.last_pick {
            // A pick *change* is the event; re-picking the same VM
            // slice after slice is not. `preempt` marks the case where
            // the displaced VM was still runnable — it lost the CPU
            // rather than going idle.
            let preempt = match (self.last_pick, pick) {
                (Some(prev), Some(_)) => runnable.contains(&prev),
                _ => false,
            };
            let vm = pick.map(|v| self.trace_ids[v.0]);
            let at_s = self.now.as_secs_f64();
            if let Some(t) = self.tracer.as_mut() {
                t.record_pick(at_s, vm, preempt);
            }
            self.last_pick = pick;
        }
        self.runnable_scratch = runnable;

        let slice = match pick {
            None => horizon,
            Some(vm) => {
                let cap_slice = self.sched.max_slice(vm, self.now);
                let mcps = self.cpu.pstates().state(self.cpu.pstate()).effective_mcps();
                let drain_secs = self.vms[vm.0].backlog_seconds_at(mcps);
                let drain = if drain_secs.is_finite() {
                    SimDuration::from_secs_f64(drain_secs.min(horizon.as_secs_f64()))
                } else {
                    horizon
                };
                let mut s = horizon.min(self.quantum).min(cap_slice).min(drain);
                if s.is_zero() {
                    // Sub-microsecond residue (cap or backlog): round up
                    // to the clock resolution so time always advances.
                    s = SimDuration::from_micros(1).min(horizon);
                }
                s
            }
        };
        debug_assert!(!slice.is_zero());

        let slice_end = self.now + slice;
        // Demand arrives continuously during the slice.
        for vm in &mut self.vms {
            vm.refill(slice_end, slice);
        }

        match pick {
            Some(vm) => {
                let capacity = self.cpu.work_capacity(slice);
                let done = self.vms[vm.0].execute(capacity, slice_end);
                let busy_frac = if capacity > 0.0 {
                    (done / capacity).min(1.0)
                } else {
                    0.0
                };
                let busy_secs = slice.as_secs_f64() * busy_frac;
                let busy = SimDuration::from_secs_f64(busy_secs);
                self.sched.charge(vm, busy);
                self.cpu.account(busy_frac, slice);
                let abs_secs = busy_secs * self.cpu.ratio() * self.cpu.cf();
                self.stats.on_slice(Some((vm, busy_secs, abs_secs)));
                if self.tracer.is_some() && done > 0.0 && self.vms[vm.0].is_complete() {
                    let name = self.vms[vm.0].name_tag.clone();
                    let at_s = slice_end.as_secs_f64();
                    if let Some(t) = self.tracer.as_mut() {
                        t.record(at_s, EventKind::VmComplete { vm: name });
                    }
                }
            }
            None => {
                self.cpu.account(0.0, slice);
                self.stats.on_slice(None);
            }
        }
        self.now = slice_end;
    }

    /// Rebuilds the [`HotVms`] sidecar for the window starting at
    /// `self.now`. One pass of virtual calls per window instead of
    /// several per slice.
    fn refresh_hot(&mut self) {
        let hot = &mut self.hot;
        hot.add.clear();
        hot.growers.clear();
        hot.fusable = true;
        let qs = self.quantum.as_secs_f64();
        hot.cap_mc = self.cpu.work_capacity(self.quantum);
        hot.mcps = self.cpu.pstates().state(self.cpu.pstate()).effective_mcps();
        hot.qs = qs;
        hot.busy_q = SimDuration::from_secs_f64(qs);
        hot.abs_q = qs * self.cpu.ratio() * self.cpu.cf();
        for (i, vm) in self.vms.iter().enumerate() {
            let add = match vm.steady_rate_mcps() {
                Some(rate) => rate * qs,
                None if vm.demand_exhausted() => 0.0,
                None => {
                    // A source whose generate() must run every slice
                    // (stepped demand, open-loop injectors): the window
                    // cannot be replayed. Stop classifying — the
                    // sidecar is not consulted on the unfusable path.
                    hot.fusable = false;
                    return;
                }
            };
            hot.add.push(add);
            if add > 0.0 {
                hot.growers.push(i as u32);
            }
        }
    }

    /// Advances one whole boundary window `[self.now, boundary)`
    /// through the event-driven core: replay fused steady stretches
    /// where provably equivalent, fall back to the exact per-slice
    /// loop the moment equivalence cannot be shown. Every observable
    /// effect is bit-identical to calling [`Host::advance_one_slice`]
    /// in a loop.
    fn advance_window(&mut self, boundary: SimTime) {
        // Probe pacing: attempting to fuse costs a sidecar rebuild and
        // a runnable scan, so the probe runs once per window — at the
        // window's start, where a steady stretch begins with fresh
        // credit — and a host whose probe found nothing to fuse sits
        // out a few windows before trying again. Purely a matter of
        // *when* the fast path is attempted — per-host and
        // deterministic, so results stay invariant across jobs and
        // shards.
        if self.sched.credit_core().is_some() {
            if self.fuse_backoff == 0 {
                self.refresh_hot();
                if self.hot.fusable {
                    let before = self.fused_slices;
                    self.run_fused(boundary);
                    if self.fused_slices == before {
                        self.fuse_backoff = FUSE_PROBE_BACKOFF;
                    }
                }
            } else {
                self.fuse_backoff -= 1;
            }
        }
        // Whatever the probe could not cover runs through the exact
        // per-slice loop below, replicating `run_until`'s legacy body.
        loop {
            if self.now >= boundary {
                return;
            }
            // Replicate `run_until`'s between-slice idle skip: a host
            // that turns quiescent mid-window (a batch completing)
            // must cover the gap without the per-slice machinery —
            // crucially, without the traced pick-change record a
            // `None` pick would emit.
            if self.idle_fast_path && self.is_quiescent() {
                self.cpu.account(0.0, boundary - self.now);
                self.now = boundary;
                return;
            }
            // Exact slice for anything the fused loop could not prove:
            // pick changes, partial slices, cap exhaustion, drains.
            // State may be steady again afterwards, so re-try fusing.
            self.advance_one_slice(boundary);
        }
    }

    /// Replays consecutive *identical* quantum slices without
    /// re-running the runnable scan, the scheduler pick or the per-VM
    /// refill calls. Commits zero or more slices and returns as soon
    /// as any precondition fails.
    ///
    /// Bit-exactness argument: a committed iteration performs exactly
    /// the operations `advance_one_slice` would, in the same order, on
    /// the same values:
    /// * the pick is forced — exactly one VM is runnable, its
    ///   `max_slice ≥ quantum > 0` implies cap eligibility, so
    ///   Credit's `pick_next` must return it; `repick_commit` replays
    ///   the cursor advance;
    /// * the slice is *computed* per iteration with the legacy
    ///   expression (horizon / quantum / cap / drain minimum, including
    ///   `from_secs_f64` rounding) and required to equal the quantum —
    ///   equality is checked, never derived;
    /// * refills are replayed as `backlog += rate · quantum`, the
    ///   bit-exact value `generate` must return for steady sources;
    ///   exhausted sources add exactly `0.0`, and `x + 0.0` preserves
    ///   bits for the non-negative backlogs the host maintains, so
    ///   zero-add refills are skipped outright;
    /// * the picked VM executes through the real [`Vm::execute`] with
    ///   `capacity = work_capacity(quantum)`; requiring
    ///   `backlog ≥ capacity` beforehand makes `done == capacity`
    ///   bitwise, hence `busy_frac == 1.0` exactly and the hoisted
    ///   charge/energy/stats values equal the per-slice computation;
    /// * with a tracer installed, fusing additionally requires the
    ///   recorded pick to already be this VM, so the steady stretch
    ///   emits the same (empty) record stream as the exact path; the
    ///   completion edge is re-checked per iteration.
    fn run_fused(&mut self, boundary: SimTime) {
        debug_assert!(self.hot.fusable);
        let cap_mc = self.hot.cap_mc;
        if cap_mc <= 0.0 {
            return;
        }
        let mcps = self.hot.mcps;
        let qs = self.hot.qs;
        let busy_q = self.hot.busy_q;
        let abs_q = self.hot.abs_q;
        // Exactly one runnable VM.
        let mut pick = None;
        for (i, vm) in self.vms.iter().enumerate() {
            if vm.is_runnable() {
                if pick.is_some() {
                    return; // two runnable VMs: the pick can alternate
                }
                pick = Some(i);
            }
        }
        let Some(p) = pick else { return };
        let p_id = VmId(p);
        if self.tracer.is_some() && self.last_pick != Some(p_id) {
            return; // the exact path emits a pick record first
        }
        // Borrows split per field: the leased core only holds
        // `self.sched`, leaving vms/cpu/stats/tracer/now free.
        let Some(core) = self.sched.credit_core() else {
            return;
        };
        loop {
            let horizon = boundary - self.now;
            if self.quantum > horizon {
                return; // the window tail is shorter than a quantum
            }
            // Growers must stay below the runnable threshold through
            // this slice's scan; every other VM's backlog is unchanged
            // since the entry scan.
            for &g in &self.hot.growers {
                let g = g as usize;
                if g != p && self.vms[g].backlog_mcycles >= MIN_RUNNABLE_MCYCLES {
                    return;
                }
            }
            if !self.vms[p].is_runnable() {
                return;
            }
            let b_p = self.vms[p].backlog_mcycles;
            // The slice the exact path would take, computed with its
            // exact float operations, must be one full quantum.
            let cap_slice = core.max_slice(p_id, self.now);
            let drain_secs = b_p / mcps;
            let drain = if drain_secs.is_finite() {
                SimDuration::from_secs_f64(drain_secs.min(horizon.as_secs_f64()))
            } else {
                horizon
            };
            if horizon.min(self.quantum).min(cap_slice).min(drain) != self.quantum {
                return;
            }
            // The refilled backlog must cover the quantum's capacity
            // so `execute` runs the VM fully busy.
            let b_new = b_p + self.hot.add[p];
            if b_new < cap_mc {
                return;
            }

            // Commit: the legacy slice's operations in its order.
            self.fused_slices += 1;
            let slice_end = self.now + self.quantum;
            core.repick_commit(p_id);
            for &g in &self.hot.growers {
                let g = g as usize;
                if g != p {
                    self.vms[g].backlog_mcycles += self.hot.add[g];
                }
            }
            self.vms[p].backlog_mcycles = b_new;
            let done = self.vms[p].execute(cap_mc, slice_end);
            debug_assert_eq!(done.to_bits(), cap_mc.to_bits());
            core.charge(p_id, busy_q);
            self.cpu.account(1.0, self.quantum);
            self.stats.on_slice(Some((p_id, qs, abs_q)));
            if self.tracer.is_some() && self.vms[p].is_complete() {
                let name = self.vms[p].name_tag.clone();
                let at_s = slice_end.as_secs_f64();
                if let Some(t) = self.tracer.as_mut() {
                    t.record(at_s, EventKind::VmComplete { vm: name });
                }
            }
            self.now = slice_end;
        }
    }

    /// Rebuilds the wake heap with one entry per pending wake —
    /// optionally the control boundaries (accounting, governor,
    /// snapshot), plus per VM the instant it can next hold the CPU:
    /// a runnable VM drains from now; a dormant steady source becomes
    /// runnable once `(threshold − backlog) / rate` elapses; an
    /// exhausted source never wakes again; an unpredictable source
    /// wakes conservatively now. Returns the earliest wake, capped at
    /// `horizon`.
    fn rebuild_wakes(&mut self, horizon: SimTime, with_boundaries: bool) -> SimTime {
        self.wakes.clear();
        if with_boundaries {
            self.wakes.push(self.next_acct, WakeKind::Acct);
            if self.cpufreq.is_some() {
                self.wakes.push(self.next_gov, WakeKind::Governor);
            }
            self.wakes.push(self.next_sample, WakeKind::Sample);
        }
        let span_s = (horizon - self.now.min(horizon)).as_secs_f64();
        for (i, vm) in self.vms.iter().enumerate() {
            let idx = i as u32;
            if vm.is_runnable() {
                self.wakes.push(self.now, WakeKind::VmDrain(idx));
            } else if vm.demand_exhausted() {
                // Exhaustion is absorbing and the backlog is below the
                // runnable threshold: this VM never wakes again.
            } else {
                match vm.steady_rate_mcps() {
                    Some(rate) if rate > 0.0 => {
                        let deficit = (MIN_RUNNABLE_MCYCLES - vm.backlog_mcycles).max(0.0);
                        let dt = SimDuration::from_secs_f64((deficit / rate).min(span_s));
                        self.wakes.push(self.now + dt, WakeKind::VmArrival(idx));
                    }
                    Some(_) => {} // zero rate: never generates demand
                    None => self.wakes.push(self.now, WakeKind::VmArrival(idx)),
                }
            }
        }
        self.wakes.peek_time().map_or(horizon, |t| t.min(horizon))
    }

    /// The earliest instant at which anything can happen on this host
    /// — a control boundary or VM activity — capped at `horizon`.
    /// A deterministic forecast over current state; computing it does
    /// not advance or otherwise change the simulation.
    pub fn next_event(&mut self, horizon: SimTime) -> SimTime {
        self.rebuild_wakes(horizon, true)
    }

    /// The earliest instant at which any VM can execute work, capped
    /// at `horizon`; `horizon` itself means "no VM activity before
    /// then". Control boundaries are excluded — they fire regardless
    /// but are cheap to process. The fleet's next-event epoch runner
    /// uses this to keep dormant hosts off the worker pool; the
    /// forecast only routes *where* a host simulates, never what it
    /// computes, so a conservative estimate cannot change results.
    pub fn next_vm_wake(&mut self, horizon: SimTime) -> SimTime {
        self.rebuild_wakes(horizon, false)
    }
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("now", &self.now)
            .field("scheduler", &self.sched.name())
            .field("vms", &self.vms.len())
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
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Pas).build();
        let d = demand(&host, 1.0); // thrashing V20
        host.add_vm(VmConfig::new("v20", Credit::percent(20.0)), d);
        host.add_vm(
            VmConfig::new("v70", Credit::percent(70.0)),
            Box::new(crate::work::Idle),
        );
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

    #[test]
    fn tracing_never_changes_the_simulation() {
        let run = |traced: bool| {
            let mut host = HostConfig::optiplex_defaults(SchedulerKind::Pas).build();
            let d = demand(&host, 1.0);
            host.add_vm(VmConfig::new("v20", Credit::percent(20.0)), d);
            host.add_vm(
                VmConfig::new("v70", Credit::percent(70.0)),
                Box::new(crate::work::Idle),
            );
            if traced {
                host.set_tracer(trace::Tracer::new(1, 64));
            }
            host.run_for(SimDuration::from_secs(30));
            (
                host.cpu().energy().joules().to_bits(),
                host.stats().global_busy_fraction().to_bits(),
                host.cpu().pstate(),
            )
        };
        assert_eq!(run(true), run(false), "tracing must be observation-only");
    }

    /// The idle-skip fast path must be *bit-identical* to the
    /// slice-exact path, not merely close: energy accounting, loads
    /// and snapshots all agree to the last bit on a host that turns
    /// quiescent mid-run.
    #[test]
    fn idle_fast_path_is_bit_exact() {
        let run = |fast: bool| {
            let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit)
                .with_governor(Box::new(StableOndemand::new()))
                .with_idle_fast_path(fast)
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
            // ~10 s busy, then ~50 s quiescent.
            host.run_for(SimDuration::from_secs(60));
            host
        };
        let fast = run(true);
        let exact = run(false);
        assert!(fast.is_quiescent() && exact.is_quiescent());
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

    /// The fused replay's sweet spot — one saturating uncapped VM
    /// under Credit (a capped VM's per-period allowance sits below the
    /// quantum, so caps force partial slices) — must be bit-identical
    /// to the slice-exact path, and the fast path must actually
    /// engage.
    #[test]
    fn event_core_is_bit_exact_for_thrashing_credit_vm() {
        let run = |on: bool| {
            let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit)
                .with_event_core(on)
                .build();
            let d = demand(&host, 1.0);
            host.add_vm(VmConfig::new("hog", Credit::ZERO), d);
            host.run_for(SimDuration::from_secs(60));
            host
        };
        let on = run(true);
        let off = run(false);
        assert!(on.fused_slices() > 0, "fused path never engaged");
        assert_eq!(off.fused_slices(), 0);
        assert_eq!(fingerprint(&on), fingerprint(&off));
        assert_eq!(on.stats().snapshots(), off.stats().snapshots());
    }

    /// Profiling only reads the clock around already-scheduled work:
    /// a profiled run must be bit-identical to an unprofiled one, and
    /// the phase counters must actually accumulate.
    #[test]
    fn profiling_is_bit_exact_and_counters_accumulate() {
        let run = |profiled: bool| {
            let mut host = HostConfig::optiplex_defaults(SchedulerKind::Pas)
                .with_event_core(true)
                .build();
            host.set_profiling(profiled);
            let d = demand(&host, 1.0);
            host.add_vm(VmConfig::new("v20", Credit::percent(20.0)), d);
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

    /// PAS rewrites caps and the frequency at every accounting
    /// boundary; the fused loop must replay identically between those
    /// boundaries. The trickle VM stays dormant for ~12 windows at a
    /// time, then crosses the runnable threshold *mid-window* — the
    /// grower re-check must bail the fused loop out at exactly the
    /// slice where the exact path would schedule it.
    #[test]
    fn event_core_is_bit_exact_under_pas_with_mixed_vms() {
        let run = |on: bool| {
            let mut host = HostConfig::optiplex_defaults(SchedulerKind::Pas)
                .with_event_core(on)
                .build();
            let d1 = demand(&host, 1.0);
            let d2 = Box::new(ConstantDemand::new(0.008));
            host.add_vm(VmConfig::new("v20", Credit::percent(20.0)), d1);
            host.add_vm(VmConfig::new("trickle", Credit::percent(30.0)), d2);
            host.add_vm(
                VmConfig::new("lazy", Credit::percent(70.0)),
                Box::new(crate::work::Idle),
            );
            host.run_for(SimDuration::from_secs(60));
            host
        };
        let on = run(true);
        let off = run(false);
        assert!(on.fused_slices() > 0, "fused path never engaged");
        assert_eq!(fingerprint(&on), fingerprint(&off));
        assert_eq!(on.stats().snapshots(), off.stats().snapshots());
    }

    /// A batch source is unfusable until its work is released (its
    /// `generate` has state), then fuses as an exhausted drain; the
    /// host later turns quiescent under a downscaling governor. All
    /// three regimes must agree with the exact path bit-for-bit.
    #[test]
    fn event_core_is_bit_exact_for_batch_drain() {
        let run = |on: bool| {
            let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit)
                .with_governor(Box::new(StableOndemand::new()))
                .with_event_core(on)
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
            host.run_for(SimDuration::from_secs(60));
            host
        };
        let on = run(true);
        let off = run(false);
        assert!(on.fused_slices() > 0, "fused path never engaged");
        assert_eq!(fingerprint(&on), fingerprint(&off));
        assert_eq!(on.stats().snapshots(), off.stats().snapshots());
    }

    /// With a tracer installed the event core must emit the *same
    /// event stream*, not merely the same aggregates — fusing is only
    /// allowed on stretches that provably record nothing.
    #[test]
    fn event_core_is_bit_exact_when_traced() {
        let run = |on: bool| {
            let mut host = HostConfig::optiplex_defaults(SchedulerKind::Pas)
                .with_event_core(on)
                .build();
            let total = 8.0 * host.fmax_mcps();
            host.add_vm(
                VmConfig::new("batch", Credit::percent(20.0)),
                Box::new(crate::work::test_batch(total)),
            );
            host.add_vm(
                VmConfig::new("lazy", Credit::percent(70.0)),
                Box::new(crate::work::Idle),
            );
            host.set_tracer(trace::Tracer::new(1, trace::DEFAULT_CAPACITY).with_host(0));
            host.run_for(SimDuration::from_secs(60));
            let tracer = host.take_tracer().expect("tracer installed");
            (fingerprint(&host), trace::Trace::merge(vec![tracer]))
        };
        let (fp_on, trace_on) = run(true);
        let (fp_off, trace_off) = run(false);
        assert_eq!(fp_on, fp_off);
        assert!(!trace_on.events().is_empty());
        assert_eq!(trace_on.events(), trace_off.events());
    }

    /// SEDF has no Credit core to lease, so the event core must fall
    /// back to the exact loop throughout — and still match.
    #[test]
    fn event_core_is_inert_for_sedf() {
        let run = |on: bool| {
            let mut host = HostConfig::optiplex_defaults(SchedulerKind::Sedf { extra: true })
                .with_event_core(on)
                .build();
            let d1 = demand(&host, 1.0);
            host.add_vm(VmConfig::new("v20", Credit::percent(20.0)), d1);
            host.add_vm(
                VmConfig::new("v70", Credit::percent(70.0)),
                Box::new(crate::work::Idle),
            );
            host.run_for(SimDuration::from_secs(30));
            host
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.fused_slices(), 0, "no Credit core, nothing fuses");
        assert_eq!(fingerprint(&on), fingerprint(&off));
    }

    /// The wake forecast: runnable VMs wake now, dormant fluid sources
    /// wake when their backlog reaches the runnable threshold, and
    /// exhausted VMs never wake.
    #[test]
    fn next_vm_wake_forecasts_arrivals() {
        let horizon = SimTime::from_secs(100);

        // Idle-only host: no VM ever wakes.
        let mut idle = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
        idle.add_vm(
            VmConfig::new("idle", Credit::percent(50.0)),
            Box::new(crate::work::Idle),
        );
        assert_eq!(idle.next_vm_wake(horizon), horizon);
        // Control boundaries still fire: the first accounting tick.
        assert_eq!(idle.next_event(horizon), SimTime::from_millis(30));

        // A dormant trickle source crosses the runnable threshold
        // after threshold / rate seconds.
        let mut slow = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
        slow.add_vm(
            VmConfig::new("trickle", Credit::percent(50.0)),
            Box::new(ConstantDemand::new(MIN_RUNNABLE_MCYCLES)),
        );
        let wake = slow.next_vm_wake(horizon).as_secs_f64();
        assert!((wake - 1.0).abs() < 1e-9, "wake at {wake}, expected 1 s");

        // A runnable VM wakes immediately.
        let mut busy = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
        let d = demand(&busy, 0.5);
        busy.add_vm(VmConfig::new("busy", Credit::percent(50.0)), d);
        busy.run_for(SimDuration::from_millis(90));
        assert_eq!(busy.next_vm_wake(horizon), busy.now());
    }
}
