//! The simulator backend: a thin adapter from [`PasBackend`] onto a
//! mutably borrowed [`Host`].

use cpumodel::{PStateIdx, PStateTable};
use hypervisor::vm::VmId;
use hypervisor::Host;
use pas_core::{BackendError, Credit, PasBackend};

/// Adapts a simulated [`Host`] to the [`PasBackend`] control surface.
///
/// Construct one per control period around a mutable borrow of the
/// host, run `PasController::step`, then drop it and keep simulating:
///
/// ```
/// use enforcer::SimBackend;
/// use hypervisor::{HostConfig, SchedulerKind, VmConfig};
/// use hypervisor::work::ConstantDemand;
/// use pas_core::{ControllerPlacement, Credit, PasController};
/// use simkernel::SimDuration;
///
/// let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
/// let rate = 0.2 * host.fmax_mcps();
/// host.add_vm(VmConfig::new("v20", Credit::percent(20.0)),
///             Box::new(ConstantDemand::new(rate)));
/// let mut ctl = PasController::new(
///     ControllerPlacement::UserLevelFull,
///     host.cpu().pstates().clone(),
/// );
/// for _ in 0..10 {
///     host.run_for(SimDuration::from_secs(1));
///     let mut backend = SimBackend::new(&mut host);
///     ctl.step(&mut backend)?;
/// }
/// // 20% load → the controller parked the host at the lowest frequency.
/// assert_eq!(host.cpu().pstate(), host.cpu().pstates().min_idx());
/// # Ok::<(), pas_core::BackendError>(())
/// ```
pub struct SimBackend<'a> {
    host: &'a mut Host,
    cached_load_pct: f64,
}

impl<'a> SimBackend<'a> {
    /// Wraps a host, snapshotting (and resetting) the host's external
    /// load window — so construct one backend per control period.
    #[must_use]
    pub fn new(host: &'a mut Host) -> Self {
        let cached_load_pct = host.take_external_load().0;
        SimBackend {
            host,
            cached_load_pct,
        }
    }
}

impl PasBackend for SimBackend<'_> {
    fn pstate_table(&self) -> &PStateTable {
        self.host.cpu().pstates()
    }

    fn current_pstate(&self) -> Result<PStateIdx, BackendError> {
        Ok(self.host.cpu().pstate())
    }

    fn set_pstate(&mut self, idx: PStateIdx) -> Result<(), BackendError> {
        self.host
            .set_pstate(idx)
            .map_err(|e| BackendError::new("set p-state", e.to_string()))
    }

    fn initial_credits(&self) -> Vec<Credit> {
        (0..self.host.vm_count())
            .map(|i| self.host.vm(VmId(i)).config.credit)
            .collect()
    }

    fn apply_credits(&mut self, credits: &[Credit]) -> Result<(), BackendError> {
        if credits.len() != self.host.vm_count() {
            return Err(BackendError::new(
                "apply credits",
                format!("{} credits for {} VMs", credits.len(), self.host.vm_count()),
            ));
        }
        for (i, credit) in credits.iter().enumerate() {
            if !self.host.set_vm_cap(VmId(i), credit.as_cap()) {
                return Err(BackendError::new(
                    "apply credits",
                    format!(
                        "scheduler '{}' does not accept external caps",
                        self.host.scheduler_name()
                    ),
                ));
            }
        }
        Ok(())
    }

    fn global_load_percent(&self) -> Result<f64, BackendError> {
        Ok(self.cached_load_pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervisor::work::ConstantDemand;
    use hypervisor::{HostConfig, SchedulerKind, VmConfig};
    use simkernel::SimDuration;

    fn host_with_v20() -> Host {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
        let rate = 0.2 * host.fmax_mcps();
        host.add_vm(
            VmConfig::new("v20", Credit::percent(20.0)),
            Box::new(ConstantDemand::new(rate)),
        );
        host
    }

    #[test]
    fn reads_host_state() {
        let mut host = host_with_v20();
        host.run_for(SimDuration::from_secs(2));
        let backend = SimBackend::new(&mut host);
        assert_eq!(backend.initial_credits(), vec![Credit::percent(20.0)]);
        assert!(backend.current_pstate().is_ok());
    }

    #[test]
    fn applies_caps_and_pstate() {
        let mut host = host_with_v20();
        let mut backend = SimBackend::new(&mut host);
        backend.apply_credits(&[Credit::percent(33.0)]).unwrap();
        let min = backend.pstate_table().min_idx();
        backend.set_pstate(min).unwrap();
        assert_eq!(host.effective_cap_pct(VmId(0)), Some(33.0));
        assert_eq!(host.cpu().pstate(), host.cpu().pstates().min_idx());
    }

    #[test]
    fn wrong_credit_count_is_error() {
        let mut host = host_with_v20();
        let mut backend = SimBackend::new(&mut host);
        let err = backend.apply_credits(&[]).unwrap_err();
        assert!(err.detail.contains("0 credits"));
    }

    #[test]
    fn sedf_rejects_external_caps() {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Sedf { extra: true }).build();
        host.add_vm(
            VmConfig::new("v", Credit::percent(20.0)),
            Box::new(ConstantDemand::new(100.0)),
        );
        let mut backend = SimBackend::new(&mut host);
        let err = backend.apply_credits(&[Credit::percent(25.0)]).unwrap_err();
        assert!(err.detail.contains("sedf"));
    }

    #[test]
    fn load_snapshot_measures_window() {
        let mut host = host_with_v20();
        host.run_for(SimDuration::from_secs(5));
        let backend = SimBackend::new(&mut host);
        let load = backend.global_load_percent().unwrap();
        assert!((load - 20.0).abs() < 2.0, "load {load}");
    }
}
