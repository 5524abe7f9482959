//! A single simulated core.

use std::fmt;

use simkernel::SimDuration;

use crate::power::{dynamic_factors, EnergyMeter, PowerModel};
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
/// `F_i · cf_i · Δt` mega-cycles (Equation 1 restated as a capacity):
/// state `i`'s [`PState::effective_mcps`](crate::PState::effective_mcps)
/// times `Δt`.
///
/// # Example
///
/// ```
/// use cpumodel::machines;
///
/// let mut cpu = machines::optiplex_755().build_cpu();
/// let fast = cpu.pstates().state(cpu.pstate()).effective_mcps();
/// cpu.set_pstate(cpu.pstates().min_idx())?;
/// let slow = cpu.pstates().state(cpu.pstate()).effective_mcps();
/// assert!(slow < fast);
/// # Ok::<(), cpumodel::CpuError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    pstates: PStateTable,
    power: PowerModel,
    current: PStateIdx,
    // `current`'s F / F_max and V / V_max, written with it, so the
    // per-slice `ratio` and `account` divide nothing.
    f_ratio: f64,
    v_ratio: f64,
    transitions: u64,
    energy: EnergyMeter,
}

impl Cpu {
    /// Creates a CPU starting at the **maximum** frequency (matching
    /// Linux's boot state before a governor takes over).
    #[must_use]
    pub fn new(pstates: PStateTable, power: PowerModel) -> Self {
        let current = pstates.max_idx();
        let (f_ratio, v_ratio) = dynamic_factors(pstates.state(current), pstates.max());
        Cpu {
            pstates,
            power,
            current,
            f_ratio,
            v_ratio,
            transitions: 0,
            energy: EnergyMeter::new(),
        }
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
        self.f_ratio
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
            (self.f_ratio, self.v_ratio) =
                dynamic_factors(self.pstates.state(idx), self.pstates.max());
            self.transitions += 1;
        }
        Ok(())
    }

    /// Accounts `dt` of wall-clock time at the current state with the
    /// given busy fraction, integrating energy.
    ///
    /// # Panics
    ///
    /// Panics if `busy` is outside `[0, 1]`.
    #[inline]
    pub fn account(&mut self, busy: f64, dt: SimDuration) {
        self.energy.advance_at(
            &self.power,
            self.f_ratio,
            self.v_ratio,
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

    /// Mega-cycles per second at the current P-state, the rate the
    /// hosts' slice loop runs a VM at.
    fn rate(c: &Cpu) -> f64 {
        c.pstates().state(c.pstate()).effective_mcps()
    }

    #[test]
    fn capacity_scales_with_frequency() {
        let mut c = cpu();
        assert!((rate(&c) - 2667.0).abs() < 1e-9);
        c.set_pstate(PStateIdx(0)).unwrap();
        assert!((rate(&c) - 1600.0).abs() < 1e-9);
        assert!((c.pstates().max().effective_mcps() - 2667.0).abs() < 1e-9);
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
        assert!(rate(&c) < 1000.0, "beta penalty bites");
    }

    /// The factors `set_pstate` stores are the table's, and `account`
    /// integrates the energy `EnergyMeter::advance` and the power
    /// formula written out give, bit for bit, on every preset machine
    /// walked down, up and across its ladder.
    #[test]
    fn stored_factors_match_the_table_bit_for_bit() {
        let mut presets = crate::machines::table1_machines();
        presets.push(crate::machines::optiplex_755());
        for spec in presets {
            let mut cpu = spec.build_cpu();
            let table = cpu.pstates().clone();
            let power = *cpu.power_model();
            let mut meter = EnergyMeter::new();
            let mut joules = 0.0;
            let top = table.len() - 1;
            let walk = (0..=top)
                .rev()
                .chain(0..=top)
                .chain([0, top, 0, top / 2, top, top]);
            for (step, i) in walk.enumerate() {
                let idx = PStateIdx(i);
                cpu.set_pstate(idx).unwrap();
                assert_eq!(cpu.ratio().to_bits(), table.ratio(idx).to_bits());
                let busy = (step % 5) as f64 / 4.0;
                let dt = SimDuration::from_micros(1 + 7_919 * step as u64);
                cpu.account(busy, dt);
                meter.advance(&power, &table, idx, busy, dt.as_secs_f64());
                let (state, max) = (table.state(idx), table.max());
                let f = f64::from(state.frequency.as_mhz()) / f64::from(max.frequency.as_mhz());
                let v = state.voltage / max.voltage;
                joules += (power.p_static_w + busy * power.p_dynamic_max_w * f * v * v)
                    * dt.as_secs_f64();
                let got = cpu.energy();
                assert_eq!(got.joules().to_bits(), meter.joules().to_bits());
                assert_eq!(got.joules().to_bits(), joules.to_bits());
                assert_eq!(got.utilization().to_bits(), meter.utilization().to_bits());
                assert_eq!(got.seconds().to_bits(), meter.seconds().to_bits());
            }
        }
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
