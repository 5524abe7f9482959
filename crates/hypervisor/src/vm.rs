//! Virtual machines: identity, configuration and runtime state.

use std::fmt;

use pas_core::Credit;
use simkernel::{SimDuration, SimTime};

use crate::work::{Idle, WorkSource};

/// Identifies a VM on its host (dense index, assigned by the host in
/// creation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VmId(pub usize);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// Scheduling priority. The paper configures Dom0 "with the highest
/// priority in the VM scheduler" and gives customer VMs equal
/// priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Customer VM.
    #[default]
    Normal,
    /// Management domain; always scheduled first when runnable.
    Dom0,
}

/// SEDF parameters: the `(s, p, b)` triplet of Section 3.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SedfParams {
    /// Guaranteed slice per period.
    pub slice: SimDuration,
    /// Period length.
    pub period: SimDuration,
    /// Extra-time flag: eligible for unused CPU slices.
    pub extra: bool,
}

impl SedfParams {
    /// Derives the triplet from a credit: `s = credit · p`, the
    /// mapping the paper uses ("the credit allocated to a VM can be
    /// defined with the s and p parameters").
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn from_credit(credit: Credit, period: SimDuration, extra: bool) -> Self {
        assert!(!period.is_zero(), "SEDF period must be non-zero");
        SedfParams {
            slice: period.mul_f64(credit.as_fraction()),
            period,
            extra,
        }
    }
}

/// Static configuration of a VM.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Human-readable name ("v20", "v70", "dom0", …).
    pub name: String,
    /// The booked credit: a share of the processor **at maximum
    /// frequency** (the SLA of Section 3.1). [`Credit::ZERO`] means
    /// uncapped (Xen's null-credit special case).
    pub credit: Credit,
    /// Relative weight for proportional sharing under contention.
    /// Defaults to the credit percentage.
    pub weight: u32,
    /// Scheduling priority.
    pub priority: Priority,
    /// SEDF triplet; derived from the credit by the SEDF scheduler if
    /// absent.
    pub sedf: Option<SedfParams>,
}

impl VmConfig {
    /// A customer VM with the given name and credit; weight follows
    /// the credit.
    #[must_use]
    pub fn new(name: impl Into<String>, credit: Credit) -> Self {
        let weight = (credit.as_percent().round() as u32).max(1);
        VmConfig {
            name: name.into(),
            credit,
            weight,
            priority: Priority::Normal,
            sedf: None,
        }
    }

    /// The paper's management domain: 10% credit, highest priority.
    #[must_use]
    pub fn dom0() -> Self {
        let mut cfg = VmConfig::new("dom0", Credit::percent(10.0));
        cfg.priority = Priority::Dom0;
        cfg
    }

    /// Overrides the weight.
    #[must_use]
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Overrides the SEDF triplet.
    #[must_use]
    pub fn with_sedf(mut self, sedf: SedfParams) -> Self {
        self.sedf = Some(sedf);
        self
    }

    /// Marks this VM as Dom0-priority.
    #[must_use]
    pub fn with_dom0_priority(mut self) -> Self {
        self.priority = Priority::Dom0;
        self
    }
}

/// A VM at run time: its configuration, its workload, and the demand
/// backlog mediating between them.
pub struct Vm {
    /// The VM's id on its scheduler: the host's id on a
    /// [`Host`](crate::Host), the id local to its core or hardware
    /// thread on a multi-core or SMT host.
    pub id: VmId,
    /// Static configuration.
    pub config: VmConfig,
    /// The workload running inside the guest. Private so that
    /// [`Vm::replace_work`] is its only writer and `steady` cannot go
    /// stale.
    work: Box<dyn WorkSource>,
    /// The source's steady demand model, read once by
    /// [`Vm::replace_work`]: `None` for sources that must be asked
    /// every time.
    steady: Option<Steady>,
    /// The config name interned for trace recording: cloning this is
    /// a reference-count bump, so hot scheduling paths can stamp
    /// events without allocating (see [`trace::VmName`]).
    pub name_tag: trace::VmName,
    /// Pending demand in mega-cycles (fmax-equivalent work).
    pub backlog_mcycles: f64,
    /// Total mega-cycles completed.
    pub total_done_mcycles: f64,
}

/// The minimum backlog (mega-cycles) that makes a VM with an *ongoing*
/// workload runnable — roughly one microsecond of work at 3 GHz.
///
/// Real guests block between requests; they do not stay runnable with
/// an infinitesimal residue of fluid demand. Without this floor, a
/// lightly-loaded VM is runnable at every scheduling decision and, in
/// the Credit scheduler's UNDER class, it preempts uncapped (OVER)
/// VMs at microsecond granularity — starving them in a way real Xen
/// never does (there, the light guest blocks and the greedy vCPU
/// soaks the idle time). A VM whose workload has *finished* generating
/// demand runs its remaining backlog regardless, so batch jobs
/// complete exactly.
pub const MIN_RUNNABLE_MCYCLES: f64 = 0.003;

/// What a steady source declares through
/// [`WorkSource::steady_rate_mcps`]. By that contract both fields hold
/// for the source's whole life, so the slice loop reads them here and
/// never calls the source.
#[derive(Debug, Clone, Copy)]
struct Steady {
    rate_mcps: f64,
    exhausted: bool,
}

impl Vm {
    /// Creates a VM with an empty backlog.
    #[must_use]
    pub fn new(id: VmId, config: VmConfig, work: Box<dyn WorkSource>) -> Self {
        let name_tag = trace::VmName::from(config.name.as_str());
        let mut vm = Vm {
            id,
            config,
            work: Box::new(Idle),
            steady: None,
            name_tag,
            backlog_mcycles: 0.0,
            total_done_mcycles: 0.0,
        };
        vm.replace_work(work);
        vm
    }

    /// The workload running inside the guest.
    #[must_use]
    pub fn work(&self) -> &dyn WorkSource {
        &*self.work
    }

    /// Installs `work` as the VM's workload and returns the previous
    /// one. The backlog is left alone.
    pub(crate) fn replace_work(&mut self, work: Box<dyn WorkSource>) -> Box<dyn WorkSource> {
        self.steady = work.steady_rate_mcps().map(|rate_mcps| Steady {
            rate_mcps,
            exhausted: work.demand_exhausted(),
        });
        std::mem::replace(&mut self.work, work)
    }

    /// The workload's [`WorkSource::demand_exhausted`]; a steady
    /// source's answer is the one read when it was installed.
    #[inline]
    #[must_use]
    pub(crate) fn demand_exhausted(&self) -> bool {
        match self.steady {
            Some(s) => s.exhausted,
            None => self.work.demand_exhausted(),
        }
    }

    /// The demand rate the workload declares from `now` and the
    /// instant it holds until ([`WorkSource::rate_until`]); a steady
    /// source's cached rate holds for good.
    #[inline]
    pub(crate) fn declared_rate(&self, now: SimTime) -> Option<(f64, SimTime)> {
        match self.steady {
            Some(s) => Some((s.rate_mcps, SimTime::MAX)),
            None => self.work.rate_until(now),
        }
    }

    /// `true` if the VM has enough pending work to be scheduled (see
    /// [`MIN_RUNNABLE_MCYCLES`]); once the workload has generated all
    /// its demand, any remaining backlog tail counts so batch jobs
    /// complete exactly.
    ///
    /// The backlog decides outside the band between the two floors,
    /// so only a backlog inside it asks the source whether its demand
    /// is exhausted.
    #[inline]
    #[must_use]
    pub fn is_runnable(&self) -> bool {
        if self.backlog_mcycles >= MIN_RUNNABLE_MCYCLES {
            return true;
        }
        self.backlog_mcycles > 1e-9 && self.demand_exhausted()
    }

    /// Pulls new demand from the workload for the elapsed span.
    pub fn refill(&mut self, now: SimTime, dt: SimDuration) {
        if let Some(s) = self.steady {
            // The value `generate` must return, under a backlog cap
            // that is infinite: nothing to clamp, nothing dropped.
            self.backlog_mcycles += s.rate_mcps * dt.as_secs_f64();
            return;
        }
        let generated = self.work.generate(now, dt);
        debug_assert!(generated >= 0.0, "workload generated negative demand");
        self.backlog_mcycles += generated;
        let cap = self.work.backlog_cap_mcycles();
        if self.backlog_mcycles > cap {
            let dropped = self.backlog_mcycles - cap;
            self.work.on_dropped(dropped, now);
            self.backlog_mcycles = cap;
        }
    }

    /// Executes up to `capacity_mcycles` of backlog; returns the work
    /// actually done.
    pub fn execute(&mut self, capacity_mcycles: f64, now: SimTime) -> f64 {
        let done = self.backlog_mcycles.min(capacity_mcycles);
        self.backlog_mcycles -= done;
        self.total_done_mcycles += done;
        // `on_progress` of a steady source is a no-op.
        if done > 0.0 && self.steady.is_none() {
            self.work.on_progress(done, now);
        }
        done
    }

    /// `true` once the VM has nothing left to do, ever: the workload
    /// has finished generating demand and the backlog has drained.
    /// This is the completion edge the tracer reports as
    /// `vm_complete` (batch jobs only; open-ended workloads never
    /// reach it).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.work.is_finished() && !self.is_runnable()
    }

    /// Seconds needed to drain the current backlog at `mcps`
    /// mega-cycles per second (`f64::INFINITY` when `mcps` is zero).
    #[must_use]
    pub fn backlog_seconds_at(&self, mcps: f64) -> f64 {
        if mcps <= 0.0 {
            f64::INFINITY
        } else {
            self.backlog_mcycles / mcps
        }
    }
}

impl fmt::Debug for Vm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("id", &self.id)
            .field("name", &self.config.name)
            .field("credit", &self.config.credit)
            .field("backlog_mcycles", &self.backlog_mcycles)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::ConstantDemand;

    #[test]
    fn config_defaults() {
        let cfg = VmConfig::new("v20", Credit::percent(20.0));
        assert_eq!(cfg.weight, 20);
        assert_eq!(cfg.priority, Priority::Normal);
        assert!(cfg.sedf.is_none());
    }

    #[test]
    fn dom0_has_priority() {
        let cfg = VmConfig::dom0();
        assert_eq!(cfg.priority, Priority::Dom0);
        assert_eq!(cfg.credit, Credit::percent(10.0));
        assert!(Priority::Dom0 > Priority::Normal);
    }

    #[test]
    fn sedf_from_credit() {
        let p = SedfParams::from_credit(Credit::percent(20.0), SimDuration::from_millis(100), true);
        assert_eq!(p.slice, SimDuration::from_millis(20));
        assert!(p.extra);
    }

    #[test]
    fn uncapped_weight_floor() {
        let cfg = VmConfig::new("free", Credit::ZERO);
        assert_eq!(cfg.weight, 1, "weight never zero");
    }

    #[test]
    fn backlog_lifecycle() {
        let mut vm = Vm::new(
            VmId(0),
            VmConfig::new("v", Credit::percent(50.0)),
            Box::new(ConstantDemand::new(1000.0)), // 1000 mcycles/s
        );
        assert!(!vm.is_runnable());
        vm.refill(SimTime::ZERO, SimDuration::from_millis(100));
        assert!((vm.backlog_mcycles - 100.0).abs() < 1e-9);
        assert!(vm.is_runnable());
        let done = vm.execute(40.0, SimTime::ZERO);
        assert!((done - 40.0).abs() < 1e-9);
        assert!((vm.backlog_mcycles - 60.0).abs() < 1e-9);
        let done2 = vm.execute(1000.0, SimTime::ZERO);
        assert!(
            (done2 - 60.0).abs() < 1e-9,
            "cannot execute more than backlog"
        );
        assert!(!vm.is_runnable());
        assert!((vm.total_done_mcycles - 100.0).abs() < 1e-9);
    }

    #[test]
    fn completion_edge_needs_finished_work_and_drained_backlog() {
        let mut vm = Vm::new(
            VmId(0),
            VmConfig::new("batch", Credit::percent(50.0)),
            Box::new(crate::work::test_batch(100.0)),
        );
        assert!(!vm.is_complete(), "nothing released yet");
        vm.refill(SimTime::ZERO, SimDuration::from_secs(1));
        vm.execute(40.0, SimTime::ZERO);
        assert!(!vm.is_complete(), "backlog remains");
        vm.execute(60.0, SimTime::from_secs(1));
        assert!(vm.is_complete(), "work finished and backlog drained");
        // An open-ended workload never completes.
        let mut open = Vm::new(
            VmId(1),
            VmConfig::new("open", Credit::percent(50.0)),
            Box::new(ConstantDemand::new(1000.0)),
        );
        open.refill(SimTime::ZERO, SimDuration::from_millis(10));
        assert!(!open.is_complete());
    }

    /// `is_runnable` reads the backlog before the source, and agrees
    /// with asking the source first at each edge of the band between
    /// the two floors, for steady and opaque, exhausted and ongoing
    /// sources.
    #[test]
    fn backlog_first_runnable_test_matches_source_first() {
        let old_rule = |vm: &Vm| {
            if vm.demand_exhausted() {
                vm.backlog_mcycles > 1e-9
            } else {
                vm.backlog_mcycles >= MIN_RUNNABLE_MCYCLES
            }
        };
        let mut released = crate::work::test_batch(1.0);
        released.generate(SimTime::from_secs(1), SimDuration::from_secs(1));
        let sources: [(Box<dyn WorkSource>, bool); 5] = [
            (Box::new(ConstantDemand::new(1000.0)), false),
            (Box::new(ConstantDemand::new(0.0)), true),
            (Box::new(Idle), true),
            (Box::new(crate::work::test_batch(1.0)), false),
            (Box::new(released), true),
        ];
        let backlogs = [
            0.0,
            -0.0,
            1e-9_f64.next_down(),
            1e-9,
            1e-9_f64.next_up(),
            MIN_RUNNABLE_MCYCLES.next_down(),
            MIN_RUNNABLE_MCYCLES,
            MIN_RUNNABLE_MCYCLES.next_up(),
            1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for (work, exhausted) in sources {
            let mut vm = Vm::new(VmId(0), VmConfig::new("v", Credit::percent(50.0)), work);
            assert_eq!(vm.demand_exhausted(), exhausted, "{}", vm.work().label());
            for b in backlogs {
                vm.backlog_mcycles = b;
                assert_eq!(
                    vm.is_runnable(),
                    old_rule(&vm),
                    "backlog {b}, exhausted {exhausted}"
                );
            }
        }
    }

    #[test]
    fn backlog_seconds() {
        let mut vm = Vm::new(
            VmId(1),
            VmConfig::new("v", Credit::percent(50.0)),
            Box::new(ConstantDemand::new(500.0)),
        );
        vm.refill(SimTime::ZERO, SimDuration::from_secs(1));
        assert!((vm.backlog_seconds_at(1000.0) - 0.5).abs() < 1e-9);
        assert!(vm.backlog_seconds_at(0.0).is_infinite());
    }
}
