//! The fleet: many hosts, one controller, one bill.
//!
//! [`Fleet`] builds a set of [`hypervisor::host::Host`]s from a
//! placement (see [`crate::placement`]), advances them in lock-step
//! *control epochs* — concurrently, via [`crate::exec::for_each_mut`]
//! — and between epochs runs the global controller: per-host load
//! measurement, the migration trigger, and VM live migration through
//! the hypervisor's [`extract`](hypervisor::host::Host::extract_vm) /
//! [`admit`](hypervisor::host::Host::admit_vm) hooks.
//!
//! Everything is deterministic regardless of the worker-thread count:
//! each host's simulation is independent and seeded, the controller
//! runs serially between epochs, and every aggregation walks hosts in
//! index order.

use governors::{Governor, Ondemand, Performance, StableOndemand};
use hypervisor::host::{Host, HostConfig, HostPerf, SchedulerKind};
use hypervisor::vm::{VmConfig, VmId};
use hypervisor::work::{ConstantDemand, WorkSource};
use metrics::sketch::{Sketch, DEFAULT_ALPHA};
use metrics::TimeSeries;
use pas_core::Credit;
use simkernel::{SimDuration, SimTime};
use trace::{EventKind, Trace, Tracer};

use crate::exec;
use crate::migration::{MigrationCostModel, MigrationRecord, MigrationTrigger};
use crate::placement::{HostCapacity, Placement, PlacementPolicy, VmSpec};
use crate::shard::{self, ShardConfig};

/// Which DVFS governor every fleet host runs (a plain enum rather than
/// a boxed trait object so one config can build any number of hosts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetGovernor {
    /// Always at maximum frequency (the no-savings QoS reference).
    Performance,
    /// Linux ondemand.
    Ondemand,
    /// The paper's stabilised ondemand.
    StableOndemand,
}

impl FleetGovernor {
    fn build(self) -> Box<dyn Governor> {
        match self {
            FleetGovernor::Performance => Box::new(Performance),
            FleetGovernor::Ondemand => Box::new(Ondemand::default()),
            FleetGovernor::StableOndemand => Box::new(StableOndemand::new()),
        }
    }
}

/// Fleet-wide configuration: host shape, scheduler, placement policy,
/// migration behaviour and the control-epoch length.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// What each host offers to the placement controller.
    pub capacity: HostCapacity,
    /// The hypervisor scheduler every host runs.
    pub scheduler: SchedulerKind,
    /// The governor every host runs; must be `None` under
    /// [`SchedulerKind::Pas`] (PAS manages DVFS itself).
    pub governor: Option<FleetGovernor>,
    /// How VMs are packed onto hosts at build time.
    pub policy: PlacementPolicy,
    /// Load-triggered migration; `None` disables migration.
    pub trigger: Option<MigrationTrigger>,
    /// What each migration costs.
    pub cost: MigrationCostModel,
    /// Control-epoch length: hosts simulate this long between
    /// controller passes.
    pub epoch: SimDuration,
    /// Empty hosts provisioned beyond what the placement opens —
    /// headroom the migration controller can shed load into (N+k
    /// provisioning). They idle (and burn idle energy) until a VM
    /// arrives.
    pub spare_hosts: usize,
    /// Sharded placement (see [`crate::shard`]): `None` keeps the
    /// global single-controller pass. The shard *count* inside the
    /// config is pure worker partitioning — it never changes the
    /// placement — so this is safe to vary with the machine.
    pub sharding: Option<ShardConfig>,
    /// Bounded-memory statistics for datacenter-scale runs: the
    /// per-epoch [`Fleet::load_series`] is not recorded (the mean and
    /// the per-host-epoch distribution stay available through
    /// [`Fleet::mean_load_pct`] and [`Fleet::load_sketch`]), and hosts
    /// retain no periodic snapshots — so retained state stops scaling
    /// with epoch count and host population. Off by default; scale
    /// campaigns and benches turn it on.
    pub bounded_stats: bool,
}

impl FleetConfig {
    /// PAS on every host (no governor — PAS owns DVFS), first-fit
    /// placement, migration off, 30 s control epochs on the paper's
    /// Optiplex-shaped hosts.
    #[must_use]
    pub fn pas_defaults() -> Self {
        FleetConfig {
            capacity: HostCapacity::optiplex_defaults(),
            scheduler: SchedulerKind::Pas,
            governor: None,
            policy: PlacementPolicy::FirstFit,
            trigger: None,
            cost: MigrationCostModel::gigabit_defaults(),
            epoch: SimDuration::from_secs(30),
            spare_hosts: 0,
            sharding: None,
            bounded_stats: false,
        }
    }

    /// Credit + the performance governor: the QoS reference fleet that
    /// never saves energy.
    #[must_use]
    pub fn performance_defaults() -> Self {
        FleetConfig {
            scheduler: SchedulerKind::Credit,
            governor: Some(FleetGovernor::Performance),
            ..FleetConfig::pas_defaults()
        }
    }

    /// Overrides the placement policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PlacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables load-triggered migration.
    #[must_use]
    pub fn with_trigger(mut self, trigger: MigrationTrigger) -> Self {
        self.trigger = Some(trigger);
        self
    }

    /// Provisions `n` empty spare hosts for the migration controller.
    #[must_use]
    pub fn with_spares(mut self, n: usize) -> Self {
        self.spare_hosts = n;
        self
    }

    /// Enables sharded placement (see [`crate::shard`]).
    #[must_use]
    pub fn with_sharding(mut self, sharding: ShardConfig) -> Self {
        self.sharding = Some(sharding);
        self
    }

    /// Enables or disables bounded-memory statistics (off by default).
    #[must_use]
    pub fn with_bounded_stats(mut self, on: bool) -> Self {
        self.bounded_stats = on;
        self
    }

    /// Overrides the control-epoch length.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    #[must_use]
    pub fn with_epoch(mut self, epoch: SimDuration) -> Self {
        assert!(!epoch.is_zero(), "control epoch must be non-zero");
        self.epoch = epoch;
        self
    }

    fn build_host(&self) -> Host {
        let mut cfg = HostConfig::optiplex_defaults(self.scheduler);
        if self.bounded_stats {
            // Push the snapshot boundary past any realistic run so
            // hosts retain no periodic snapshots: per-host state stays
            // O(1) in both epoch count and wall-clock.
            cfg = cfg.with_sample_period(SimDuration::from_secs(86_400 * 365));
        }
        if let Some(gov) = self.governor {
            cfg = cfg.with_governor(gov.build());
        }
        cfg.build()
    }
}

/// A stepped fluid demand source: the spec's piecewise-constant demand
/// fraction scaled to mega-cycles. Time is *fleet* time — each host's
/// clock equals fleet time because hosts advance in lock-step — and
/// migration preserves the schedule because the rate depends on
/// absolute time, not on which host asks. Both generation here and the
/// SLA entitlement in [`Fleet::totals`] delegate to
/// [`VmSpec::integrated_demand`], so they can never disagree.
struct SteppedDemand {
    spec: VmSpec,
    fmax_mcps: f64,
}

impl WorkSource for SteppedDemand {
    fn label(&self) -> &str {
        "stepped"
    }

    fn generate(&mut self, now: SimTime, dt: SimDuration) -> f64 {
        let t1 = now.as_secs_f64();
        let t0 = t1 - dt.as_secs_f64();
        self.fmax_mcps * self.spec.integrated_demand(t0, t1, None)
    }
}

/// The fleet's aggregate bill and service record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetTotals {
    /// Total energy: hosts plus migration overhead, joules.
    pub energy_j: f64,
    /// Host CPU energy alone, joules.
    pub host_energy_j: f64,
    /// Migration transfer overhead alone, joules.
    pub migration_energy_j: f64,
    /// Number of completed migrations.
    pub migration_count: usize,
    /// Total stop-and-copy blackout, seconds.
    pub downtime_s: f64,
    /// Delivered / entitled absolute capacity across all VMs, where a
    /// VM's entitlement is `min(booked credit, demand)` integrated
    /// over the run. 1.0 means every SLA was met.
    pub sla_ratio: f64,
}

/// A fleet of hosts under one global controller.
pub struct Fleet {
    cfg: FleetConfig,
    specs: Vec<VmSpec>,
    hosts: Vec<Host>,
    placement: Placement,
    /// Per spec: every `(host, vm id)` slot the VM has occupied, in
    /// order; the last entry is its current home.
    residency: Vec<Vec<(usize, VmId)>>,
    /// Booked memory per host, GiB.
    mem_used: Vec<f64>,
    /// Booked credit per host (fraction of fmax capacity).
    credit_booked: Vec<f64>,
    /// Absolute (fmax-fraction) load per host over the last epoch —
    /// the unit the specs' demand and credit fractions are in.
    /// Reused across epochs (cleared, never reallocated).
    host_load: Vec<f64>,
    /// Spec indices currently resident per host — the incremental
    /// index the controller scans instead of the whole spec list.
    resident: Vec<Vec<usize>>,
    /// Each host's cumulative energy at the last epoch boundary, so
    /// the epoch pass books per-epoch *deltas*.
    host_energy_prev: Vec<f64>,
    /// Running fleet energy total (sum of the per-epoch deltas).
    host_energy_acc: f64,
    /// Running sum of the per-epoch mean loads (percent), for
    /// [`Fleet::mean_load_pct`] without retaining the series.
    epoch_mean_sum: f64,
    epochs_run: usize,
    elapsed: SimDuration,
    migrations: Vec<MigrationRecord>,
    load_series: TimeSeries,
    /// Every per-host-epoch absolute load (percent), sketched: the
    /// bounded-memory load distribution at any population.
    load_sketch: Sketch,
    /// The zone each host belongs to under sharded placement; empty
    /// when the global controller placed the fleet.
    zone_of_host: Vec<Option<usize>>,
    /// Spec indices re-placed through the coordinator's spill path.
    spilled: Vec<usize>,
    /// Fleet-level tracer (stream 0): controller events — placement,
    /// migration timeline, epoch boundaries, SLA verdict. `None` keeps
    /// the controller's hot path free of tracing branches.
    tracer: Option<Tracer>,
}

impl Fleet {
    /// Places `specs` with the configured policy and instantiates one
    /// host per placement bin, each VM running its (possibly stepped)
    /// demand under its booked credit.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty, or if any booking is outside
    /// `[0.01, 0.95]` of one host — the range a single host's
    /// scheduler can actually enforce. Rejecting such specs up front
    /// keeps the SLA accounting ([`Fleet::totals`]) consistent with
    /// what the hosts were configured to deliver.
    #[must_use]
    pub fn build(cfg: FleetConfig, specs: &[VmSpec]) -> Fleet {
        assert!(!specs.is_empty(), "a fleet needs at least one VM");
        for spec in specs {
            assert!(
                (0.01..=0.95).contains(&spec.credit_frac),
                "booking for {:?} is {}, outside the enforceable [0.01, 0.95] of one host",
                spec.name,
                spec.credit_frac
            );
        }
        let (placement, zone_of_host, spilled) = match &cfg.sharding {
            Some(sc) => {
                let sp = shard::place_sharded(cfg.policy, specs, cfg.capacity, sc);
                (sp.placement, sp.zone_of_host, sp.spilled)
            }
            None => (
                cfg.policy.place(specs, cfg.capacity),
                Vec::new(),
                Vec::new(),
            ),
        };
        let mut hosts = Vec::with_capacity(placement.host_count());
        let mut residency: Vec<Vec<(usize, VmId)>> = vec![Vec::new(); specs.len()];
        let mut mem_used = Vec::new();
        let mut credit_booked = Vec::new();
        for (h, bin) in placement.hosts.iter().enumerate() {
            let mut host = cfg.build_host();
            let fmax = host.fmax_mcps();
            for &i in bin {
                let spec = &specs[i];
                let credit = Credit::percent(spec.credit_frac * 100.0);
                let work: Box<dyn WorkSource> = if spec.steps.is_empty() {
                    Box::new(ConstantDemand::new(spec.cpu_frac * fmax))
                } else {
                    Box::new(SteppedDemand {
                        spec: spec.clone(),
                        fmax_mcps: fmax,
                    })
                };
                let id = host.add_vm(VmConfig::new(spec.name.clone(), credit), work);
                residency[i].push((h, id));
            }
            mem_used.push(placement.mem_used(specs, h));
            credit_booked.push(bin.iter().map(|&i| specs[i].credit_frac).sum());
            hosts.push(host);
        }
        for _ in 0..cfg.spare_hosts {
            hosts.push(cfg.build_host());
            mem_used.push(0.0);
            credit_booked.push(0.0);
        }
        let n = hosts.len();
        let mut resident: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (h, bin) in placement.hosts.iter().enumerate() {
            resident[h] = bin.clone();
        }
        Fleet {
            cfg,
            specs: specs.to_vec(),
            hosts,
            placement,
            residency,
            mem_used,
            credit_booked,
            host_load: vec![0.0; n],
            resident,
            host_energy_prev: vec![0.0; n],
            host_energy_acc: 0.0,
            epoch_mean_sum: 0.0,
            epochs_run: 0,
            elapsed: SimDuration::from_secs(0),
            migrations: Vec::new(),
            load_series: TimeSeries::new("fleet_mean_load_pct"),
            load_sketch: Sketch::new(DEFAULT_ALPHA),
            zone_of_host,
            spilled,
            tracer: None,
        }
    }

    /// Installs tracers on the fleet stream and on every host, each a
    /// bounded ring of `capacity` events (see [`trace::Tracer`]); the
    /// placement is recorded immediately, one `placement` event per
    /// VM in host-major order. Tracing never changes the simulation —
    /// only observes it — so traced and untraced runs are
    /// bit-identical in every artefact.
    pub fn enable_tracing(&mut self, capacity: usize) {
        let mut tracer = Tracer::new(0, capacity);
        let at_s = self.elapsed.as_secs_f64();
        for (h, i) in self.placement.assignments() {
            tracer.record(
                at_s,
                EventKind::Placement {
                    vm: self.specs[i].name.as_str().into(),
                    to_host: h,
                    zone: self.zone_of_host.get(h).copied().flatten(),
                    spilled: self.spilled.contains(&i),
                },
            );
        }
        self.tracer = Some(tracer);
        for (h, host) in self.hosts.iter_mut().enumerate() {
            host.set_tracer(Tracer::new(h + 1, capacity).with_host(h));
        }
    }

    /// Turns wall-clock phase profiling on for every host (see
    /// [`hypervisor::HostPerf`]). Profiling measures real time and is
    /// **not** deterministic — its output must stay out of every
    /// byte-compared artefact; the campaign layer writes it to the
    /// separate `<name>-profile.json`.
    pub fn enable_profiling(&mut self) {
        for host in &mut self.hosts {
            host.set_profiling(true);
        }
    }

    /// Fleet-wide phase timings and fused-slice count: the sum of
    /// every host's [`Host::perf`] and [`Host::fused_slices`]
    /// counters. The count is 0 while every slice runs through the
    /// exact slice loop.
    #[must_use]
    pub fn perf_totals(&self) -> (HostPerf, u64) {
        let mut perf = HostPerf::default();
        let mut fused = 0;
        for host in &self.hosts {
            perf.absorb(host.perf());
            fused += host.fused_slices();
        }
        (perf, fused)
    }

    /// `true` once [`Fleet::enable_tracing`] has installed tracers.
    #[must_use]
    pub fn is_tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Uninstalls every tracer and merges their streams into one
    /// time-ordered [`Trace`]. A final `sla_violation` event is
    /// recorded first if the run's delivered/entitled ratio fell
    /// short. Returns `None` when tracing was never enabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.tracer.as_ref()?;
        let totals = self.totals();
        let mut fleet_tracer = self.tracer.take().expect("checked above");
        if totals.sla_ratio < 1.0 - 1e-9 {
            fleet_tracer.record(
                self.elapsed.as_secs_f64(),
                EventKind::SlaViolation {
                    sla_ratio: totals.sla_ratio,
                },
            );
        }
        let mut tracers = vec![fleet_tracer];
        for host in &mut self.hosts {
            if let Some(t) = host.take_tracer() {
                tracers.push(t);
            }
        }
        Some(Trace::merge(tracers))
    }

    /// Number of hosts the placement opened.
    #[must_use]
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// The placement the fleet was built from.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Completed migrations, in decision order.
    #[must_use]
    pub fn migrations(&self) -> &[MigrationRecord] {
        &self.migrations
    }

    /// Mean *absolute* host load per epoch, percent of fmax capacity
    /// (one point per completed epoch). The absolute measure is what
    /// the controller triggers on: a PAS host 100% busy at a reduced
    /// frequency is not overloaded — it has fmax headroom.
    ///
    /// Empty when the fleet runs with
    /// [`bounded_stats`](FleetConfig::bounded_stats): the series is
    /// the one per-epoch accumulator whose memory grows with run
    /// length, so scale runs keep only [`Fleet::mean_load_pct`] and
    /// [`Fleet::load_sketch`].
    #[must_use]
    pub fn load_series(&self) -> &TimeSeries {
        &self.load_series
    }

    /// Mean of the per-epoch mean loads, percent of fmax capacity.
    /// Maintained as a running sum — identical to averaging
    /// [`Fleet::load_series`], but available in bounded-stats mode
    /// too. `0.0` before the first epoch completes.
    #[must_use]
    pub fn mean_load_pct(&self) -> f64 {
        if self.epochs_run == 0 {
            0.0
        } else {
            self.epoch_mean_sum / self.epochs_run as f64
        }
    }

    /// The sketched distribution of every per-host-epoch absolute
    /// load (percent): bounded memory at any population, mergeable
    /// across shards and campaigns.
    #[must_use]
    pub fn load_sketch(&self) -> &Sketch {
        &self.load_sketch
    }

    /// Total statistic points the fleet currently retains: load-series
    /// points, per-host snapshots and sketch buckets. The regression
    /// guard for the O(sketch) memory claim — in bounded-stats mode
    /// this must not scale with epoch count.
    #[must_use]
    pub fn retained_stat_points(&self) -> usize {
        self.load_series.len()
            + self
                .hosts
                .iter()
                .map(|h| h.stats().snapshots().len())
                .sum::<usize>()
            + self.load_sketch.bucket_count()
    }

    /// Simulated fleet time so far.
    #[must_use]
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Advances the whole fleet by `epochs` control epochs, simulating
    /// hosts on up to `jobs` worker threads. The controller (load
    /// measurement, migration) runs serially between epochs, so the
    /// result is byte-identical for every `jobs` value.
    pub fn run_epochs(&mut self, epochs: usize, jobs: usize) {
        for _ in 0..epochs {
            let epoch = self.cfg.epoch;
            // Quiescent hosts (spares, hosts whose VMs all retired or
            // migrated away) cost next to nothing to simulate: the
            // idle skip covers each boundary window in one step. So
            // advance them inline and spend the worker pool on the
            // hosts that can execute work. The split routes *where* a
            // host runs, never what it computes — each host is
            // independent and runs the same `run_for` either way — so
            // it cannot change results.
            let mut busy: Vec<&mut Host> = Vec::new();
            for host in &mut self.hosts {
                if host.is_quiescent() {
                    host.run_for(epoch);
                } else {
                    busy.push(host);
                }
            }
            exec::for_each_mut(jobs, &mut busy, |_, host| host.run_for(epoch));
            self.elapsed += epoch;

            // One serial pass over the hosts books everything the
            // epoch changed: the absolute (fmax-normalised) load —
            // the same unit as the specs' demand/credit fractions;
            // wall-clock busy time would read a PAS host at low
            // frequency as "overloaded" when it merely parked the
            // frequency — plus the per-epoch energy delta, so totals
            // never rescan, and the load sketch. The buffer is reused
            // across epochs and the sum runs in host-index order, so
            // the values are bit-identical to the collect-then-sum
            // they replace.
            self.host_load.clear();
            let mut load_sum = 0.0;
            for (h, host) in self.hosts.iter_mut().enumerate() {
                let load = host.take_external_load().1 / 100.0;
                self.host_load.push(load);
                load_sum += load;
                self.load_sketch.push(load * 100.0);
                let joules = host.cpu().energy().joules();
                self.host_energy_acc += joules - self.host_energy_prev[h];
                self.host_energy_prev[h] = joules;
            }
            let mean = load_sum / self.host_load.len() as f64;
            self.epoch_mean_sum += mean * 100.0;
            self.epochs_run += 1;
            if !self.cfg.bounded_stats {
                self.load_series
                    .push(self.elapsed.as_secs_f64(), mean * 100.0);
            }
            if let Some(tracer) = self.tracer.as_mut() {
                // The same `mean * 100.0` the series records, so the
                // trace and the artefacts can never disagree.
                tracer.record(
                    self.elapsed.as_secs_f64(),
                    EventKind::EpochEnd {
                        epoch: (self.epochs_run - 1) as u64,
                        mean_load_pct: mean * 100.0,
                    },
                );
            }

            if let Some(trigger) = self.cfg.trigger {
                self.rebalance(&trigger);
            }
        }
    }

    /// One controller pass: every overloaded host sheds its hottest
    /// VM to the least-loaded admissible host. At most one migration
    /// per source host per epoch (pre-copy takes most of an epoch
    /// anyway).
    fn rebalance(&mut self, trigger: &MigrationTrigger) {
        let now_s = self.elapsed.as_secs_f64();
        for src in 0..self.hosts.len() {
            if !trigger.overloaded(self.host_load[src]) {
                continue;
            }
            // The hottest VM currently resident on `src` (ties go to
            // the lowest spec index — deterministic). The per-host
            // resident index makes this O(residents), not O(fleet):
            // the comparator is a total order on (demand, -index), so
            // the winner is independent of the index's internal order.
            let candidate = self.resident[src].iter().copied().max_by(|&a, &b| {
                let da = self.specs[a].demand_at(now_s);
                let db = self.specs[b].demand_at(now_s);
                f64::total_cmp(&da, &db).then(b.cmp(&a))
            });
            let Some(vm_idx) = candidate else { continue };
            let spec_mem = self.specs[vm_idx].mem_gib;
            let spec_credit = self.specs[vm_idx].credit_frac;
            let spec_demand = self.specs[vm_idx].demand_at(now_s);

            // Least-loaded destination with room in both dimensions
            // that stays under the target watermark.
            let dst = (0..self.hosts.len())
                .filter(|&d| d != src)
                .filter(|&d| {
                    self.mem_used[d] + spec_mem <= self.cfg.capacity.mem_gib + 1e-12
                        && self.credit_booked[d] + spec_credit <= self.cfg.capacity.cpu_frac + 1e-12
                        // Admission is judged on the *booked* credit,
                        // not today's demand: the destination must
                        // stay under the watermark even when the VM
                        // later uses its whole booking.
                        && trigger.admissible(self.host_load[d], spec_credit)
                })
                .min_by(|&a, &b| {
                    f64::total_cmp(&self.host_load[a], &self.host_load[b]).then(a.cmp(&b))
                });
            let Some(dst) = dst else { continue };

            let &(_, src_id) = self.residency[vm_idx].last().expect("resident");
            let moved = self.hosts[src].extract_vm(src_id);
            let new_id = self.hosts[dst].admit_vm(moved);
            self.residency[vm_idx].push((dst, new_id));
            let slot = self.resident[src]
                .iter()
                .position(|&i| i == vm_idx)
                .expect("indexed");
            self.resident[src].swap_remove(slot);
            self.resident[dst].push(vm_idx);
            self.mem_used[src] -= spec_mem;
            self.mem_used[dst] += spec_mem;
            self.credit_booked[src] -= spec_credit;
            self.credit_booked[dst] += spec_credit;
            // Keep the in-epoch load estimates honest so a second
            // overloaded host doesn't pile onto the same destination.
            self.host_load[src] = (self.host_load[src] - spec_demand).max(0.0);
            self.host_load[dst] += spec_demand;

            let rec = MigrationRecord {
                at_s: now_s,
                vm: self.specs[vm_idx].name.clone(),
                from: src,
                to: dst,
                mem_gib: spec_mem,
                copy_time_s: self.cfg.cost.copy_time_s(spec_mem),
                downtime_s: self.cfg.cost.downtime_s,
                energy_j: self.cfg.cost.energy_j(spec_mem),
            };
            if let Some(tracer) = self.tracer.as_mut() {
                let vm_tag = trace::VmName::from(rec.vm.as_str());
                tracer.record(
                    rec.at_s,
                    EventKind::MigrationStart {
                        vm: vm_tag.clone(),
                        from_host: rec.from,
                        to_host: rec.to,
                        mem_gib: rec.mem_gib,
                        copy_s: rec.copy_time_s,
                    },
                );
                tracer.record(
                    rec.blackout_at_s(),
                    EventKind::MigrationBlackout {
                        vm: vm_tag.clone(),
                        downtime_s: rec.downtime_s,
                    },
                );
                tracer.record(
                    rec.finish_at_s(),
                    EventKind::MigrationFinish {
                        vm: vm_tag,
                        from_host: rec.from,
                        to_host: rec.to,
                        energy_j: rec.energy_j,
                    },
                );
            }
            self.migrations.push(rec);
        }
    }

    /// The fleet-wide bill and service record so far.
    ///
    /// Energy comes from the running per-epoch delta accounting in
    /// [`Fleet::run_epochs`] — no per-host rescan — so this is cheap
    /// to call every epoch even at datacenter population. The SLA
    /// ratio still walks the residency history once per call: it is a
    /// whole-run integral, not a per-epoch quantity.
    #[must_use]
    pub fn totals(&self) -> FleetTotals {
        let host_energy_j: f64 = self.host_energy_acc + 0.0;
        // `+ 0.0` normalises the empty sum (std's additive identity is
        // -0.0, which would print and serialise as "-0").
        let migration_energy_j: f64 = self.migrations.iter().map(|m| m.energy_j).sum::<f64>() + 0.0;
        let downtime_s: f64 = self.migrations.iter().map(|m| m.downtime_s).sum::<f64>() + 0.0;

        let total_s = self.elapsed.as_secs_f64();
        let mut delivered = 0.0;
        let mut entitled = 0.0;
        for (i, spec) in self.specs.iter().enumerate() {
            // Each residency segment's absolute fraction is taken over
            // the host's whole elapsed time, and the retired source
            // slot does no further work after extraction — so
            // fraction × elapsed sums to the VM's true busy integral.
            for &(h, id) in &self.residency[i] {
                delivered += self.hosts[h].stats().vm_absolute_fraction(id) * total_s;
            }
            // Entitlement: min(booked credit, demand) integrated over
            // the run, in fmax-seconds.
            entitled += spec.integrated_demand(0.0, total_s, Some(spec.credit_frac));
        }
        FleetTotals {
            energy_j: host_energy_j + migration_energy_j,
            host_energy_j,
            migration_energy_j,
            migration_count: self.migrations.len(),
            downtime_s,
            sla_ratio: if entitled > 0.0 {
                delivered / entitled
            } else {
                1.0
            },
        }
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("hosts", &self.hosts.len())
            .field("vms", &self.specs.len())
            .field("elapsed", &self.elapsed)
            .field("migrations", &self.migrations.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lazy_fleet(n: usize) -> Vec<VmSpec> {
        (0..n)
            .map(|i| VmSpec::new(format!("vm{i}"), 4.0, 0.04 + 0.005 * (i % 4) as f64))
            .collect()
    }

    #[test]
    fn build_places_every_vm() {
        let specs = lazy_fleet(12);
        let fleet = Fleet::build(FleetConfig::pas_defaults(), &specs);
        assert_eq!(fleet.host_count(), 3);
        let placed: usize = fleet.placement().hosts.iter().map(Vec::len).sum();
        assert_eq!(placed, 12);
    }

    #[test]
    #[should_panic(expected = "outside the enforceable")]
    fn unenforceable_booking_is_rejected_at_build() {
        let specs = vec![VmSpec::new("whole-host", 4.0, 1.0)];
        let _ = Fleet::build(FleetConfig::pas_defaults(), &specs);
    }

    #[test]
    fn parallel_and_serial_runs_are_identical() {
        let specs = lazy_fleet(12);
        let run = |jobs: usize| {
            let mut fleet = Fleet::build(FleetConfig::pas_defaults(), &specs);
            fleet.run_epochs(3, jobs);
            fleet.totals()
        };
        let serial = run(1);
        for jobs in [2, 4, 8] {
            let parallel = run(jobs);
            assert_eq!(
                serial.energy_j.to_bits(),
                parallel.energy_j.to_bits(),
                "jobs={jobs}"
            );
            assert_eq!(
                serial.sla_ratio.to_bits(),
                parallel.sla_ratio.to_bits(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn pas_fleet_spends_less_than_performance_fleet() {
        let specs = lazy_fleet(12);
        let mut pas = Fleet::build(FleetConfig::pas_defaults(), &specs);
        let mut perf = Fleet::build(FleetConfig::performance_defaults(), &specs);
        pas.run_epochs(4, 2);
        perf.run_epochs(4, 2);
        let (e_pas, e_perf) = (pas.totals().energy_j, perf.totals().energy_j);
        assert!(
            e_pas < 0.95 * e_perf,
            "PAS saves fleet-wide: {e_pas} vs {e_perf}"
        );
        assert!(pas.totals().sla_ratio > 0.9, "and still delivers");
    }

    #[test]
    fn surge_triggers_migration_and_restores_sla() {
        // Equal 5-GiB footprints put the first three VMs on host 0
        // (16 GiB) and the fourth alone on host 1. Bookings exceed
        // steady demand (normal hosting headroom), so when the surger
        // jumps to its full booking, host 0 saturates — overload —
        // while host 1 idles.
        let specs = vec![
            VmSpec::new("surger", 5.0, 0.25)
                .with_credit_frac(0.60)
                .with_steps(vec![(30.0, 0.60)]),
            VmSpec::new("steady-a", 5.0, 0.25).with_credit_frac(0.35),
            VmSpec::new("steady-b", 5.0, 0.25).with_credit_frac(0.35),
            VmSpec::new("quiet", 5.0, 0.05).with_credit_frac(0.20),
        ];

        let base = FleetConfig::performance_defaults();
        let run = |trigger: Option<MigrationTrigger>| {
            let mut cfg = base.clone();
            cfg.trigger = trigger;
            let mut fleet = Fleet::build(cfg, &specs);
            fleet.run_epochs(8, 2); // 240 s
            (fleet.totals(), fleet.migrations().len())
        };

        let (without, m0) = run(None);
        let (with, m1) = run(Some(MigrationTrigger::default()));
        assert_eq!(m0, 0);
        assert!(m1 >= 1, "the surge must trip the trigger");
        assert!(
            with.sla_ratio > without.sla_ratio + 0.02,
            "migration restores entitlements: {} vs {}",
            with.sla_ratio,
            without.sla_ratio
        );
        assert!(with.migration_energy_j > 0.0);
        assert!(with.downtime_s > 0.0);
    }

    #[test]
    fn pas_fleet_with_trigger_does_not_phantom_migrate() {
        // PAS parks the frequency and runs hosts near 100% *busy*
        // while they have ample fmax headroom. The trigger judges
        // absolute (fmax-normalised) load, so a lazy PAS fleet must
        // never migrate — wall-clock busy time would churn here.
        let specs = lazy_fleet(12);
        let cfg = FleetConfig::pas_defaults().with_trigger(MigrationTrigger::default());
        let mut fleet = Fleet::build(cfg, &specs);
        fleet.run_epochs(6, 2);
        assert_eq!(fleet.migrations().len(), 0, "no phantom overload");
        assert!(fleet.totals().sla_ratio > 0.9);
    }

    /// Runs `specs` for `epochs` epochs at jobs 1, 2 and 4 and asserts
    /// that totals and load series agree bit for bit. Quiescent hosts
    /// run inline and the rest on the worker pool, so the population
    /// must start with hosts on both routes.
    fn assert_jobs_invariant(cfg: &FleetConfig, specs: &[VmSpec], epochs: usize) {
        let run = |jobs: usize| {
            let mut fleet = Fleet::build(cfg.clone(), specs);
            let quiescent = fleet.hosts.iter().filter(|h| h.is_quiescent()).count();
            assert!(
                quiescent > 0 && quiescent < fleet.host_count(),
                "both routes carry hosts: {quiescent} of {} quiescent",
                fleet.host_count()
            );
            fleet.run_epochs(epochs, jobs);
            (fleet.totals(), fleet.load_series().points().to_vec())
        };
        let (t1, s1) = run(1);
        for jobs in [2, 4] {
            let (t, s) = run(jobs);
            assert_eq!(
                t.energy_j.to_bits(),
                t1.energy_j.to_bits(),
                "energy, jobs={jobs}"
            );
            assert_eq!(
                t.sla_ratio.to_bits(),
                t1.sla_ratio.to_bits(),
                "SLA, jobs={jobs}"
            );
            assert_eq!(s.len(), s1.len());
            for (a, b) in s.iter().zip(&s1) {
                assert_eq!(a.0.to_bits(), b.0.to_bits());
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "load, jobs={jobs}");
            }
        }
    }

    /// Idle-heavy: one working host plus six quiescent spares, which
    /// advance inline through the hypervisor's idle skip.
    #[test]
    fn idle_fast_path_is_bit_exact_and_jobs_invariant() {
        let cfg = FleetConfig::performance_defaults().with_spares(6);
        assert_jobs_invariant(&cfg, &lazy_fleet(4), 4);
    }

    /// Mixed: steady constant-demand workers, one stepped VM whose
    /// demand changes mid-run, and quiescent spares. The population
    /// once pinned a removed event core against the exact loop; with
    /// one loop left it pins the inline/pool split.
    #[test]
    fn event_core_is_bit_exact_and_jobs_invariant() {
        let mut specs = lazy_fleet(8);
        specs.push(VmSpec::new("surge", 4.0, 0.05).with_steps(vec![(60.0, 0.40), (90.0, 0.05)]));
        let cfg = FleetConfig::pas_defaults().with_spares(3);
        assert_jobs_invariant(&cfg, &specs, 5);
    }

    #[test]
    fn load_series_has_one_point_per_epoch() {
        let specs = lazy_fleet(8);
        let mut fleet = Fleet::build(FleetConfig::pas_defaults(), &specs);
        fleet.run_epochs(5, 2);
        assert_eq!(fleet.load_series().len(), 5);
        assert_eq!(fleet.elapsed(), SimDuration::from_secs(150));
    }

    #[test]
    fn mean_load_matches_the_series_mean_bit_for_bit() {
        let specs = lazy_fleet(12);
        let mut fleet = Fleet::build(FleetConfig::pas_defaults(), &specs);
        fleet.run_epochs(6, 2);
        let pts = fleet.load_series().points();
        let series_mean = pts.iter().map(|p| p.1).sum::<f64>() / pts.len() as f64;
        assert_eq!(fleet.mean_load_pct().to_bits(), series_mean.to_bits());
    }

    #[test]
    fn load_sketch_sees_one_sample_per_host_epoch() {
        let specs = lazy_fleet(8);
        let mut fleet = Fleet::build(FleetConfig::pas_defaults(), &specs);
        let hosts = fleet.host_count();
        fleet.run_epochs(5, 1);
        assert_eq!(fleet.load_sketch().len(), hosts * 5);
    }

    #[test]
    fn sharded_fleet_runs_and_matches_single_shard() {
        let specs = lazy_fleet(24);
        let run = |shards: usize, jobs: usize| {
            let cfg = FleetConfig::pas_defaults().with_sharding(ShardConfig::new(shards));
            let mut fleet = Fleet::build(cfg, &specs);
            fleet.run_epochs(3, jobs);
            (fleet.totals(), fleet.load_series().points().to_vec())
        };
        let (t1, s1) = run(1, 1);
        for (shards, jobs) in [(4, 1), (16, 4)] {
            let (t, s) = run(shards, jobs);
            assert_eq!(
                t.energy_j.to_bits(),
                t1.energy_j.to_bits(),
                "shards={shards} jobs={jobs}"
            );
            assert_eq!(t.sla_ratio.to_bits(), t1.sla_ratio.to_bits());
            assert_eq!(s.len(), s1.len());
            for (a, b) in s.iter().zip(&s1) {
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }

    fn surge_specs() -> Vec<VmSpec> {
        vec![
            VmSpec::new("surger", 5.0, 0.25)
                .with_credit_frac(0.60)
                .with_steps(vec![(30.0, 0.60)]),
            VmSpec::new("steady-a", 5.0, 0.25).with_credit_frac(0.35),
            VmSpec::new("steady-b", 5.0, 0.25).with_credit_frac(0.35),
            VmSpec::new("quiet", 5.0, 0.05).with_credit_frac(0.20),
        ]
    }

    #[test]
    fn traced_fleet_records_placement_epochs_and_migration_timeline() {
        let specs = surge_specs();
        let cfg = FleetConfig::performance_defaults().with_trigger(MigrationTrigger::default());
        let mut fleet = Fleet::build(cfg, &specs);
        fleet.enable_tracing(trace::DEFAULT_CAPACITY);
        assert!(fleet.is_tracing());
        fleet.run_epochs(8, 2);
        let migrations = fleet.migrations().len();
        assert!(migrations >= 1, "the surge must trip the trigger");
        let trace = fleet.take_trace().expect("tracing was enabled");
        assert!(!fleet.is_tracing(), "take_trace uninstalls");

        let count = |name: &str| {
            trace
                .events()
                .iter()
                .filter(|e| e.kind.name() == name)
                .count()
        };
        assert_eq!(count("placement"), specs.len(), "one per VM");
        assert_eq!(count("epoch_end"), 8, "one per epoch");
        assert_eq!(count("migration_start"), migrations);
        assert_eq!(count("migration_blackout"), migrations);
        assert_eq!(count("migration_finish"), migrations);
        assert!(count("sched_pick") > 0, "host streams are merged in");
        // Fleet-stream events carry no host tag; host streams do.
        assert!(trace
            .events()
            .iter()
            .filter(|e| e.stream == 0)
            .all(|e| e.host.is_none()));
        assert!(trace
            .events()
            .iter()
            .filter(|e| e.stream > 0)
            .all(|e| e.host == Some(e.stream - 1)));
        // And the merge is time-ordered.
        for pair in trace.events().windows(2) {
            assert!(pair[0].at_s <= pair[1].at_s);
        }
    }

    #[test]
    fn tracing_never_changes_the_fleet_simulation() {
        let specs = surge_specs();
        let run = |traced: bool| {
            let cfg = FleetConfig::performance_defaults().with_trigger(MigrationTrigger::default());
            let mut fleet = Fleet::build(cfg, &specs);
            if traced {
                fleet.enable_tracing(64);
            }
            fleet.run_epochs(6, 2);
            fleet.totals()
        };
        let (plain, traced) = (run(false), run(true));
        assert_eq!(plain.energy_j.to_bits(), traced.energy_j.to_bits());
        assert_eq!(plain.sla_ratio.to_bits(), traced.sla_ratio.to_bits());
        assert_eq!(plain.migration_count, traced.migration_count);
    }

    #[test]
    fn trace_jsonl_is_identical_across_jobs_and_shards() {
        let specs = lazy_fleet(24);
        let run = |shards: usize, jobs: usize| {
            let cfg = FleetConfig::pas_defaults().with_sharding(ShardConfig::new(shards));
            let mut fleet = Fleet::build(cfg, &specs);
            fleet.enable_tracing(trace::DEFAULT_CAPACITY);
            fleet.run_epochs(3, jobs);
            let t = fleet.take_trace().expect("traced");
            trace::render_jsonl("fleet-test", &[(None, &t)])
        };
        let base = run(1, 1);
        assert!(base.contains("\"event\":\"epoch_end\""));
        for (shards, jobs) in [(1, 8), (4, 2), (16, 4)] {
            assert_eq!(base, run(shards, jobs), "shards={shards} jobs={jobs}");
        }
    }

    /// The O(sketch) memory claim: in bounded-stats mode the retained
    /// statistic state must not grow with epoch count — a 10× longer
    /// run keeps the same footprint (regression guard for routing the
    /// fleet's per-epoch series through the sketch path).
    #[test]
    fn bounded_stats_memory_does_not_scale_with_epochs() {
        let specs = lazy_fleet(12);
        let run = |epochs: usize| {
            let cfg = FleetConfig::pas_defaults().with_bounded_stats(true);
            let mut fleet = Fleet::build(cfg, &specs);
            fleet.run_epochs(epochs, 2);
            fleet
        };
        let short = run(4);
        let long = run(40);
        assert_eq!(short.load_series().len(), 0, "series is not recorded");
        assert_eq!(long.load_series().len(), 0);
        assert!(
            long.retained_stat_points() <= short.retained_stat_points(),
            "10× the epochs must not retain more state: {} vs {}",
            long.retained_stat_points(),
            short.retained_stat_points()
        );
        // The statistics themselves are still available and sane.
        assert!(long.mean_load_pct() > 0.0);
        assert_eq!(long.load_sketch().len(), 40 * long.host_count());
        // And the store-all mode really does grow with epochs, so the
        // guard above is meaningful.
        let unbounded = {
            let mut fleet = Fleet::build(FleetConfig::pas_defaults(), &specs);
            fleet.run_epochs(40, 2);
            fleet
        };
        assert!(unbounded.retained_stat_points() > long.retained_stat_points());
    }
}
