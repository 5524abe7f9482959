//! The workload interface between the hypervisor and the guest.
//!
//! Demand is expressed in **mega-cycles of maximum-frequency-equivalent
//! work** (see `cpumodel`): a demand of `0.2 · fmax_mcps` per second is
//! "an exact load for a 20%-credit VM" in the paper's terms.

use simkernel::{SimDuration, SimTime};

/// Quality-of-service summary a workload can expose (served volume,
/// losses, response times). All fields optional-by-zero: sources that
/// do not track a metric leave it at the default.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QosSummary {
    /// Total demand served, mega-cycles.
    pub served_mcycles: f64,
    /// Total demand dropped (full queue), mega-cycles.
    pub dropped_mcycles: f64,
    /// Mean response time, seconds (0 if untracked).
    pub mean_latency_s: f64,
    /// 95th-percentile response time, seconds (0 if untracked).
    pub p95_latency_s: f64,
}

/// A source of CPU demand running inside a VM.
///
/// The host calls [`generate`](Self::generate) once per scheduling
/// step with the elapsed span, and [`on_progress`](Self::on_progress)
/// whenever the VM executed work. The `workloads` crate provides the
/// paper's pi-app and web-app implementations; [`ConstantDemand`] here
/// is the trivial building block used in unit tests and doctests.
///
/// Sources are `Send` so a whole host (including the workloads inside
/// its VMs) can be simulated on a worker thread; all implementations
/// are plain data plus a seeded [`simkernel::SimRng`].
pub trait WorkSource: Send {
    /// A short label for traces ("pi-app", "web-app", …).
    fn label(&self) -> &str;

    /// New demand (mega-cycles) produced during the `dt` ending at
    /// `now`.
    fn generate(&mut self, now: SimTime, dt: SimDuration) -> f64;

    /// Notification that `mcycles` of this source's demand completed.
    fn on_progress(&mut self, mcycles: f64, now: SimTime) {
        let _ = (mcycles, now);
    }

    /// Notification that `mcycles` of demand were dropped because the
    /// backlog cap was hit (a full accept queue, in web-server terms).
    fn on_dropped(&mut self, mcycles: f64, now: SimTime) {
        let _ = (mcycles, now);
    }

    /// Upper bound on queued demand, in mega-cycles. Defaults to
    /// unbounded. The web-app sets this to about a second of demand so
    /// that, as on a real server, stopping the load injector empties
    /// the system quickly.
    fn backlog_cap_mcycles(&self) -> f64 {
        f64::INFINITY
    }

    /// `true` once the source will never produce demand again (lets
    /// batch experiments stop early).
    fn is_finished(&self) -> bool {
        false
    }

    /// `true` once all of this source's demand has already been
    /// *generated* (even if not yet executed). A batch job that has
    /// released its work reports `true` while an open-loop injector
    /// reports `false` for as long as load keeps arriving.
    ///
    /// The host uses this to decide whether a sub-microsecond backlog
    /// tail still deserves the CPU: ongoing fluid sources wait until a
    /// request's worth of demand accumulates, but an exhausted batch
    /// source must drain its tail exactly or it would never complete.
    ///
    /// **Contract:** exhaustion is *absorbing and pure*. Once this
    /// returns `true`, every later [`generate`](Self::generate) call
    /// must return `0.0` with no observable state change, and
    /// `demand_exhausted` must keep returning `true`. The host's
    /// idle-skip fast path relies on this to elide `generate` calls on
    /// quiescent hosts without changing results (see
    /// `Host::is_quiescent`).
    fn demand_exhausted(&self) -> bool {
        self.is_finished()
    }

    /// Quality-of-service summary, if this source tracks one (the
    /// web-app reports served/dropped volume and response times).
    fn qos_summary(&self) -> Option<QosSummary> {
        None
    }

    /// `Some(rate)` if this source is a *pure fluid* producing exactly
    /// `rate · dt` mega-cycles for every call, independent of `now`.
    ///
    /// **Contract:** a source returning `Some(r)` must guarantee that
    /// [`generate`](Self::generate) returns the bit-exact value
    /// `r * dt.as_secs_f64()` with no observable state change, that
    /// [`on_progress`](Self::on_progress) and
    /// [`on_dropped`](Self::on_dropped) are no-ops, that
    /// [`backlog_cap_mcycles`](Self::backlog_cap_mcycles) is infinite,
    /// and that [`demand_exhausted`](Self::demand_exhausted) is
    /// constant over time (`false` whenever `r > 0`). Any source with
    /// history- or time-dependent behaviour must return `None` (the
    /// default).
    ///
    /// The exact slice loop relies on this. A [`Vm`](crate::vm::Vm)
    /// reads the rate and `demand_exhausted` once, when the source is
    /// installed, and from then on never calls `generate`,
    /// `on_progress` or `backlog_cap_mcycles` of a steady source, nor
    /// asks it again whether its demand is exhausted: refills add
    /// `r * dt.as_secs_f64()` to the backlog directly.
    fn steady_rate_mcps(&self) -> Option<f64> {
        None
    }

    /// `Some((rate, until))` if this source produces demand at the
    /// constant `rate` (mega-cycles per second) from `now` up to the
    /// instant `until` ([`SimTime::MAX`] when the rate holds for
    /// good). The default derives it from
    /// [`steady_rate_mcps`](Self::steady_rate_mcps), so it declines
    /// for every source that is not steady.
    ///
    /// **Contract:** a source returning `Some((r, until))` must
    /// guarantee that, for every span of `dt` ending at `t` with
    /// `now ≤ t − dt` and `t ≤ until`, [`generate`](Self::generate)
    /// returns `r · dt` up to float rounding; that
    /// [`backlog_cap_mcycles`](Self::backlog_cap_mcycles) is infinite;
    /// and that neither [`on_progress`](Self::on_progress) nor when it
    /// is called changes what the source generates or reports. Unlike
    /// `steady_rate_mcps`, this need not be bit-exact and may change
    /// over time, so the host asks again at every boundary window.
    ///
    /// The host relies on this to run a whole busy period of a Credit
    /// runqueue as one closed-form step (see `Host`'s run loop): it
    /// refills each VM once for the period, executes its backlog in
    /// one call and reports the work to `on_progress` once, at the
    /// period's end.
    fn rate_until(&self, now: SimTime) -> Option<(f64, SimTime)> {
        let _ = now;
        self.steady_rate_mcps().map(|rate| (rate, SimTime::MAX))
    }
}

/// A fluid constant-rate demand source (mega-cycles per second).
///
/// # Example
///
/// ```
/// use hypervisor::work::{ConstantDemand, WorkSource};
/// use simkernel::{SimDuration, SimTime};
///
/// let mut d = ConstantDemand::new(200.0);
/// let got = d.generate(SimTime::ZERO, SimDuration::from_millis(500));
/// assert!((got - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct ConstantDemand {
    rate_mcps: f64,
}

impl ConstantDemand {
    /// A source producing `rate_mcps` mega-cycles per second forever.
    ///
    /// # Panics
    ///
    /// Panics if the rate is negative or not finite.
    #[must_use]
    pub fn new(rate_mcps: f64) -> Self {
        assert!(
            rate_mcps.is_finite() && rate_mcps >= 0.0,
            "invalid rate {rate_mcps}"
        );
        ConstantDemand { rate_mcps }
    }

    /// The configured rate.
    #[must_use]
    pub fn rate_mcps(&self) -> f64 {
        self.rate_mcps
    }
}

impl WorkSource for ConstantDemand {
    fn label(&self) -> &str {
        "constant"
    }

    fn generate(&mut self, _now: SimTime, dt: SimDuration) -> f64 {
        self.rate_mcps * dt.as_secs_f64()
    }

    fn demand_exhausted(&self) -> bool {
        // A zero-rate source will never produce demand, so a host
        // carrying only such VMs counts as quiescent.
        self.rate_mcps == 0.0
    }

    fn steady_rate_mcps(&self) -> Option<f64> {
        Some(self.rate_mcps)
    }
}

/// A batch job: a fixed amount of work released at time zero, then
/// nothing. The building block of the paper's pi-app (see the
/// `workloads` crate for the full version with completion timing).
#[derive(Debug, Clone)]
pub struct FixedWork {
    total_mcycles: f64,
    released: bool,
    remaining: f64,
    finished_at: Option<SimTime>,
}

impl FixedWork {
    /// A job of `total_mcycles` mega-cycles (fmax-equivalent work).
    ///
    /// # Panics
    ///
    /// Panics if `total_mcycles` is not strictly positive and finite.
    #[must_use]
    pub fn new(total_mcycles: f64) -> Self {
        assert!(
            total_mcycles.is_finite() && total_mcycles > 0.0,
            "invalid job size {total_mcycles}"
        );
        FixedWork {
            total_mcycles,
            released: false,
            remaining: total_mcycles,
            finished_at: None,
        }
    }

    /// Total size of the job.
    #[must_use]
    pub fn total_mcycles(&self) -> f64 {
        self.total_mcycles
    }

    /// When the job completed, if it has.
    #[must_use]
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }
}

impl WorkSource for FixedWork {
    fn label(&self) -> &str {
        "fixed-work"
    }

    fn generate(&mut self, _now: SimTime, _dt: SimDuration) -> f64 {
        if self.released {
            0.0
        } else {
            self.released = true;
            self.total_mcycles
        }
    }

    fn on_progress(&mut self, mcycles: f64, now: SimTime) {
        self.remaining -= mcycles;
        if self.remaining <= 1e-9 && self.finished_at.is_none() {
            self.finished_at = Some(now);
        }
    }

    fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    fn demand_exhausted(&self) -> bool {
        self.released
    }
}

/// Convenience constructor used by host unit tests.
#[doc(hidden)]
#[must_use]
pub fn test_batch(total_mcycles: f64) -> FixedWork {
    FixedWork::new(total_mcycles)
}

/// A source that never produces demand (an idle VM).
#[derive(Debug, Clone, Copy, Default)]
pub struct Idle;

impl WorkSource for Idle {
    fn label(&self) -> &str {
        "idle"
    }

    fn generate(&mut self, _now: SimTime, _dt: SimDuration) -> f64 {
        0.0
    }

    fn is_finished(&self) -> bool {
        true
    }

    fn steady_rate_mcps(&self) -> Option<f64> {
        Some(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_demand_accumulates_linearly() {
        let mut d = ConstantDemand::new(1000.0);
        let a = d.generate(SimTime::ZERO, SimDuration::from_millis(10));
        let b = d.generate(SimTime::from_millis(10), SimDuration::from_millis(30));
        assert!((a - 10.0).abs() < 1e-9);
        assert!((b - 30.0).abs() < 1e-9);
        assert!(!d.is_finished());
    }

    #[test]
    fn zero_rate_is_idle_like() {
        let mut d = ConstantDemand::new(0.0);
        assert_eq!(d.generate(SimTime::ZERO, SimDuration::from_secs(10)), 0.0);
        assert!(d.demand_exhausted(), "zero rate counts as exhausted");
        assert!(!ConstantDemand::new(5.0).demand_exhausted());
    }

    #[test]
    fn idle_never_generates() {
        let mut i = Idle;
        assert_eq!(i.generate(SimTime::ZERO, SimDuration::from_secs(1)), 0.0);
        assert!(i.is_finished());
        assert_eq!(i.label(), "idle");
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn negative_rate_rejected() {
        let _ = ConstantDemand::new(-1.0);
    }
}
