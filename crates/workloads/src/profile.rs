//! Execution profiles: the paper's three-phase scenario.
//!
//! Section 5.3: "Both VMs have a three-phase profile:
//! inactive–active–inactive", where during the active phase the
//! injector generates either an *exact load* ("100% of the VM capacity
//! but not more") or a *thrashing load* ("exceeds the VM capacity").

use simkernel::{SimDuration, SimTime};

/// Demand intensity during a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Intensity {
    /// No demand (the inactive phases).
    Idle,
    /// The paper's *exact load*: demand equals the VM's booked
    /// capacity at maximum frequency.
    Exact,
    /// The paper's *thrashing load*: demand exceeds the VM capacity —
    /// modelled as the demand that would saturate the whole host.
    Thrashing,
    /// Demand at an arbitrary fraction of the VM's booked capacity.
    Fraction(f64),
}

impl Intensity {
    /// The demand rate in mega-cycles/second given the VM's booked
    /// capacity and the host's total capacity (both at fmax).
    ///
    /// # Panics
    ///
    /// Panics if a [`Intensity::Fraction`] value is negative or not
    /// finite.
    #[must_use]
    pub fn rate_mcps(self, vm_capacity_mcps: f64, host_capacity_mcps: f64) -> f64 {
        match self {
            Intensity::Idle => 0.0,
            Intensity::Exact => vm_capacity_mcps,
            Intensity::Thrashing => host_capacity_mcps,
            Intensity::Fraction(f) => {
                assert!(f.is_finite() && f >= 0.0, "invalid fraction {f}");
                vm_capacity_mcps * f
            }
        }
    }
}

/// One phase of a profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// How long the phase lasts.
    pub duration: SimDuration,
    /// The intensity during it.
    pub intensity: Intensity,
}

/// A sequence of phases; demand is [`Intensity::Idle`] after the last
/// phase ends.
///
/// # Example
///
/// ```
/// use simkernel::{SimDuration, SimTime};
/// use workloads::{Intensity, Profile};
///
/// let p = Profile::three_phase(
///     SimDuration::from_secs(100),
///     SimDuration::from_secs(200),
///     Intensity::Exact,
/// );
/// assert_eq!(p.intensity_at(SimTime::from_secs(50)), Intensity::Idle);
/// assert_eq!(p.intensity_at(SimTime::from_secs(150)), Intensity::Exact);
/// assert_eq!(p.intensity_at(SimTime::from_secs(400)), Intensity::Idle);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    phases: Vec<Phase>,
}

impl Profile {
    /// An empty (always idle) profile.
    #[must_use]
    pub fn new() -> Self {
        Profile::default()
    }

    /// Builds a profile from explicit phases.
    #[must_use]
    pub fn from_phases(phases: Vec<Phase>) -> Self {
        Profile { phases }
    }

    /// Appends a phase (builder style).
    #[must_use]
    pub fn then(mut self, duration: SimDuration, intensity: Intensity) -> Self {
        self.phases.push(Phase {
            duration,
            intensity,
        });
        self
    }

    /// The paper's inactive–active–inactive shape: idle for `lead_in`,
    /// active for `active` at `intensity`, then idle forever.
    #[must_use]
    pub fn three_phase(lead_in: SimDuration, active: SimDuration, intensity: Intensity) -> Self {
        Profile::new()
            .then(lead_in, Intensity::Idle)
            .then(active, intensity)
    }

    /// A profile that is active at `intensity` from time zero onward
    /// for `duration`.
    #[must_use]
    pub fn active_for(duration: SimDuration, intensity: Intensity) -> Self {
        Profile::new().then(duration, intensity)
    }

    /// The intensity at instant `now`.
    #[must_use]
    pub fn intensity_at(&self, now: SimTime) -> Intensity {
        self.phase_at(now).2
    }

    /// The phase holding instant `now`: its `[start, end)` bounds and
    /// its intensity. Past the last phase it is the idle tail,
    /// `[total_duration, SimTime::MAX)`.
    pub(crate) fn phase_at(&self, now: SimTime) -> (SimTime, SimTime, Intensity) {
        let mut t = SimTime::ZERO;
        for ph in &self.phases {
            let end = t + ph.duration;
            if now < end {
                return (t, end, ph.intensity);
            }
            t = end;
        }
        (t, SimTime::MAX, Intensity::Idle)
    }

    /// Total configured length (after which the profile is idle).
    #[must_use]
    pub fn total_duration(&self) -> SimDuration {
        self.phases
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.duration)
    }

    /// `true` once `now` is past every phase.
    #[must_use]
    pub fn is_exhausted(&self, now: SimTime) -> bool {
        now >= SimTime::ZERO + self.total_duration()
    }

    /// The configured phases.
    #[must_use]
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_phase_boundaries() {
        let p = Profile::three_phase(
            SimDuration::from_secs(10),
            SimDuration::from_secs(20),
            Intensity::Thrashing,
        );
        assert_eq!(p.intensity_at(SimTime::ZERO), Intensity::Idle);
        assert_eq!(p.intensity_at(SimTime::from_secs(10)), Intensity::Thrashing);
        assert_eq!(p.intensity_at(SimTime::from_secs(29)), Intensity::Thrashing);
        assert_eq!(p.intensity_at(SimTime::from_secs(30)), Intensity::Idle);
        assert_eq!(p.total_duration(), SimDuration::from_secs(30));
        assert!(p.is_exhausted(SimTime::from_secs(30)));
        assert!(!p.is_exhausted(SimTime::from_secs(29)));
    }

    #[test]
    fn rates_follow_intensity() {
        let vm = 500.0;
        let host = 2667.0;
        assert_eq!(Intensity::Idle.rate_mcps(vm, host), 0.0);
        assert_eq!(Intensity::Exact.rate_mcps(vm, host), 500.0);
        assert_eq!(Intensity::Thrashing.rate_mcps(vm, host), 2667.0);
        assert_eq!(Intensity::Fraction(0.5).rate_mcps(vm, host), 250.0);
    }

    #[test]
    fn builder_chains() {
        let p = Profile::new()
            .then(SimDuration::from_secs(5), Intensity::Exact)
            .then(SimDuration::from_secs(5), Intensity::Fraction(0.3));
        assert_eq!(p.phases().len(), 2);
        assert_eq!(
            p.intensity_at(SimTime::from_secs(7)),
            Intensity::Fraction(0.3)
        );
    }

    #[test]
    fn empty_profile_is_idle() {
        let p = Profile::new();
        assert_eq!(p.intensity_at(SimTime::from_secs(1)), Intensity::Idle);
        assert!(p.is_exhausted(SimTime::ZERO));
    }

    #[test]
    #[should_panic(expected = "invalid fraction")]
    fn bad_fraction_rejected() {
        let _ = Intensity::Fraction(-0.1).rate_mcps(100.0, 200.0);
    }
}
