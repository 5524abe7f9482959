//! A single simulated core.

use std::fmt;

use simkernel::SimDuration;

use crate::power::{EnergyMeter, PowerModel};
use crate::pstate::{PStateIdx, PStateTable};

/// Errors from [`Cpu`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpuError {
    /// Requested P-state index does not exist in this CPU's table.
    UnknownPState {
        /// The invalid index.
        requested: PStateIdx,
        /// Number of states the table actually has.
        available: usize,
    },
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuError::UnknownPState {
                requested,
                available,
            } => {
                write!(
                    f,
                    "unknown p-state {requested} (table has {available} states)"
                )
            }
        }
    }
}

impl std::error::Error for CpuError {}

/// A single core with a DVFS ladder, a current operating point, and
/// power/energy accounting.
///
/// Work is measured in **mega-cycles of maximum-frequency-equivalent
/// work**: running for `Δt` at state `i` completes
/// `F_i · cf_i · Δt` mega-cycles (Equation 1 restated as a capacity).
///
/// # Example
///
/// ```
/// use cpumodel::machines;
/// use simkernel::SimDuration;
///
/// let mut cpu = machines::optiplex_755().build_cpu();
/// let max = cpu.pstates().max_idx();
/// let min = cpu.pstates().min_idx();
/// cpu.set_pstate(max)?;
/// let fast = cpu.work_capacity(SimDuration::from_secs(1));
/// cpu.set_pstate(min)?;
/// let slow = cpu.work_capacity(SimDuration::from_secs(1));
/// assert!(slow < fast);
/// # Ok::<(), cpumodel::CpuError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    pstates: PStateTable,
    power: PowerModel,
    current: PStateIdx,
    transitions: u64,
    transition_latency: SimDuration,
    energy: EnergyMeter,
}

impl Cpu {
    /// Creates a CPU starting at the **maximum** frequency (matching
    /// Linux's boot state before a governor takes over).
    #[must_use]
    pub fn new(pstates: PStateTable, power: PowerModel) -> Self {
        let current = pstates.max_idx();
        Cpu {
            pstates,
            power,
            current,
            transitions: 0,
            transition_latency: SimDuration::from_micros(100),
            energy: EnergyMeter::new(),
        }
    }

    /// Overrides the (informational) frequency-transition latency.
    #[must_use]
    pub fn with_transition_latency(mut self, latency: SimDuration) -> Self {
        self.transition_latency = latency;
        self
    }

    /// The DVFS ladder.
    #[must_use]
    pub fn pstates(&self) -> &PStateTable {
        &self.pstates
    }

    /// The power model.
    #[must_use]
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// The current P-state index.
    #[must_use]
    pub fn pstate(&self) -> PStateIdx {
        self.current
    }

    /// The current frequency ratio `F_cur / F_max`.
    #[inline]
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.pstates.ratio(self.current)
    }

    /// The `cf` factor at the current frequency.
    #[inline]
    #[must_use]
    pub fn cf(&self) -> f64 {
        self.pstates.cf(self.current)
    }

    /// Number of completed frequency transitions.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The (informational) per-transition latency.
    #[must_use]
    pub fn transition_latency(&self) -> SimDuration {
        self.transition_latency
    }

    /// Switches to P-state `idx`. A no-op (not counted as a transition)
    /// when `idx` is already current.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::UnknownPState`] when `idx` is out of range.
    pub fn set_pstate(&mut self, idx: PStateIdx) -> Result<(), CpuError> {
        if self.pstates.get(idx).is_none() {
            return Err(CpuError::UnknownPState {
                requested: idx,
                available: self.pstates.len(),
            });
        }
        if idx != self.current {
            self.current = idx;
            self.transitions += 1;
        }
        Ok(())
    }

    /// Mega-cycles of fmax-equivalent work this core can complete in
    /// `dt` at its current P-state: `F_cur · cf_cur · dt`.
    #[inline]
    #[must_use]
    pub fn work_capacity(&self, dt: SimDuration) -> f64 {
        self.pstates.state(self.current).effective_mcps() * dt.as_secs_f64()
    }

    /// Mega-cycles the core would complete in `dt` at its **maximum**
    /// frequency — the denominator of every "absolute load" computation.
    #[must_use]
    pub fn work_capacity_at_max(&self, dt: SimDuration) -> f64 {
        self.pstates.max().effective_mcps() * dt.as_secs_f64()
    }

    /// Accounts `dt` of wall-clock time at the current state with the
    /// given busy fraction, integrating energy.
    ///
    /// # Panics
    ///
    /// Panics if `busy` is outside `[0, 1]`.
    #[inline]
    pub fn account(&mut self, busy: f64, dt: SimDuration) {
        self.energy.advance(
            &self.power,
            &self.pstates,
            self.current,
            busy,
            dt.as_secs_f64(),
        );
    }

    /// The energy meter.
    #[must_use]
    pub fn energy(&self) -> &EnergyMeter {
        &self.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cf::CfModel;
    use crate::freq::Frequency;

    fn cpu() -> Cpu {
        let t =
            PStateTable::from_frequencies([1600, 2133, 2667].map(Frequency::mhz), &CfModel::Ideal)
                .unwrap();
        Cpu::new(t, PowerModel::default())
    }

    #[test]
    fn starts_at_max() {
        let c = cpu();
        assert_eq!(c.pstate(), c.pstates().max_idx());
        assert!((c.ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn set_pstate_counts_transitions() {
        let mut c = cpu();
        c.set_pstate(PStateIdx(0)).unwrap();
        c.set_pstate(PStateIdx(0)).unwrap(); // no-op
        c.set_pstate(PStateIdx(2)).unwrap();
        assert_eq!(c.transitions(), 2);
    }

    #[test]
    fn unknown_pstate_is_error() {
        let mut c = cpu();
        let err = c.set_pstate(PStateIdx(9)).unwrap_err();
        assert_eq!(
            err,
            CpuError::UnknownPState {
                requested: PStateIdx(9),
                available: 3
            }
        );
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    fn capacity_scales_with_frequency() {
        let mut c = cpu();
        let dt = SimDuration::from_secs(1);
        let at_max = c.work_capacity(dt);
        assert!((at_max - 2667.0).abs() < 1e-9);
        c.set_pstate(PStateIdx(0)).unwrap();
        assert!((c.work_capacity(dt) - 1600.0).abs() < 1e-9);
        assert!((c.work_capacity_at_max(dt) - 2667.0).abs() < 1e-9);
    }

    #[test]
    fn cf_reduces_capacity() {
        let t = PStateTable::from_frequencies(
            [1000, 2000].map(Frequency::mhz),
            &CfModel::microarch(0.0, 0.2),
        )
        .unwrap();
        let mut c = Cpu::new(t, PowerModel::default());
        c.set_pstate(PStateIdx(0)).unwrap();
        let dt = SimDuration::from_secs(1);
        assert!(c.work_capacity(dt) < 1000.0, "beta penalty bites");
    }

    #[test]
    fn energy_accumulates() {
        let mut c = cpu();
        c.account(1.0, SimDuration::from_secs(10));
        let at_max = c.energy().joules();
        assert!(at_max > 0.0);
        let mut c2 = cpu();
        c2.set_pstate(PStateIdx(0)).unwrap();
        c2.account(1.0, SimDuration::from_secs(10));
        assert!(c2.energy().joules() < at_max, "lower freq, lower energy");
    }
}
