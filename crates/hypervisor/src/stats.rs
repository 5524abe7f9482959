//! Load accounting and periodic snapshots.
//!
//! The host integrates, per scheduling slice, each VM's busy time and
//! its *absolute* busy time (`busy · ratio · cf`, i.e. the equivalent
//! busy time at maximum frequency). Three rolling windows feed the
//! three consumers:
//!
//! * the **accounting window** feeds the scheduler tick (PAS),
//! * the **governor window** feeds the DVFS governor,
//! * the **sample window** feeds the figure snapshots (the paper
//!   plots "VM global load" and "Absolute load" exactly as defined in
//!   Section 4).

use cpumodel::{Cpu, PStateIdx};
use simkernel::SimTime;

use crate::vm::VmId;

/// One rolling accumulation window.
#[derive(Debug, Clone, Default)]
struct Window {
    start_secs: f64,
    busy_secs: f64,
    abs_busy_secs: f64,
}

impl Window {
    fn span(&self, now_secs: f64) -> f64 {
        (now_secs - self.start_secs).max(0.0)
    }

    fn load_pct(&self, now_secs: f64) -> f64 {
        let span = self.span(now_secs);
        if span <= 0.0 {
            0.0
        } else {
            100.0 * self.busy_secs / span
        }
    }

    fn absolute_pct(&self, now_secs: f64) -> f64 {
        let span = self.span(now_secs);
        if span <= 0.0 {
            0.0
        } else {
            100.0 * self.abs_busy_secs / span
        }
    }

    fn reset(&mut self, now_secs: f64) {
        self.start_secs = now_secs;
        self.busy_secs = 0.0;
        self.abs_busy_secs = 0.0;
    }
}

/// Per-VM state in one periodic snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct VmSnap {
    /// The VM.
    pub id: VmId,
    /// The VM's contribution to the processor load over the sample
    /// window, in percent (the paper's *VM global load*).
    pub global_load_pct: f64,
    /// The same contribution at maximum-frequency equivalence (the
    /// paper's *absolute load* attributed to this VM).
    pub absolute_load_pct: f64,
    /// The scheduler's current cap for this VM, percent of wall time
    /// (`None` = uncapped). Under PAS this is the compensated credit.
    pub cap_pct: Option<f64>,
    /// Pending demand at snapshot time.
    pub backlog_mcycles: f64,
}

/// One periodic snapshot — a point on every curve of Figures 2–10.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Snapshot time in seconds.
    pub t_secs: f64,
    /// Processor frequency in MHz at snapshot time.
    pub freq_mhz: u32,
    /// Processor P-state at snapshot time.
    pub pstate: PStateIdx,
    /// Global processor load over the sample window, percent.
    pub global_load_pct: f64,
    /// Absolute (fmax-equivalent) load over the sample window,
    /// percent.
    pub absolute_load_pct: f64,
    /// Cumulative energy in joules.
    pub energy_j: f64,
    /// Per-VM breakdown.
    pub vms: Vec<VmSnap>,
}

/// The host's statistics engine.
#[derive(Debug, Default)]
pub struct HostStats {
    vm_names: Vec<String>,
    acct: Window,
    gov: Window,
    ext: Window,
    sample: Window,
    total: Window,
    per_vm_sample: Vec<(f64, f64)>,
    per_vm_total: Vec<(f64, f64)>,
    snapshots: Vec<Snapshot>,
    elapsed_secs: f64,
}

impl HostStats {
    /// An empty stats engine.
    #[must_use]
    pub fn new() -> Self {
        HostStats::default()
    }

    /// Registers a VM (called by the host in id order).
    pub fn register_vm(&mut self, name: &str) {
        self.vm_names.push(name.to_owned());
        self.per_vm_sample.push((0.0, 0.0));
        self.per_vm_total.push((0.0, 0.0));
    }

    /// Accounts one VM's busy time: once per slice of the slice loop,
    /// and once per VM that ran in a busy period.
    ///
    /// `running` carries `(vm, busy_secs, abs_busy_secs)` when a VM
    /// executed, and is `None` for a slice that idled.
    pub fn on_slice(&mut self, running: Option<(VmId, f64, f64)>) {
        if let Some((vm, busy, abs)) = running {
            self.acct.busy_secs += busy;
            self.acct.abs_busy_secs += abs;
            self.gov.busy_secs += busy;
            self.gov.abs_busy_secs += abs;
            self.ext.busy_secs += busy;
            self.ext.abs_busy_secs += abs;
            self.sample.busy_secs += busy;
            self.sample.abs_busy_secs += abs;
            self.total.busy_secs += busy;
            self.total.abs_busy_secs += abs;
            let (b, a) = &mut self.per_vm_sample[vm.0];
            *b += busy;
            *a += abs;
            let (tb, ta) = &mut self.per_vm_total[vm.0];
            *tb += busy;
            *ta += abs;
        }
    }

    /// Reads and resets the accounting window; returns `(load_pct,
    /// absolute_pct)`.
    pub fn take_acct_window(&mut self, now: SimTime) -> (f64, f64) {
        let s = now.as_secs_f64();
        let out = (self.acct.load_pct(s), self.acct.absolute_pct(s));
        self.acct.reset(s);
        out
    }

    /// Reads and resets the *external* window (used by user-level
    /// controllers that poll the host); returns `(load_pct,
    /// absolute_pct)` since the previous call.
    pub fn take_ext_window(&mut self, now: SimTime) -> (f64, f64) {
        let s = now.as_secs_f64();
        let out = (self.ext.load_pct(s), self.ext.absolute_pct(s));
        self.ext.reset(s);
        out
    }

    /// Reads and resets the governor window; returns the load percent.
    pub fn take_gov_window(&mut self, now: SimTime) -> f64 {
        let s = now.as_secs_f64();
        let out = self.gov.load_pct(s);
        self.gov.reset(s);
        out
    }

    /// Emits a snapshot for the elapsed sample window and resets it.
    pub fn take_snapshot(
        &mut self,
        now: SimTime,
        cpu: &Cpu,
        caps: &[Option<f64>],
        backlogs: &[f64],
    ) {
        let s = now.as_secs_f64();
        let span = self.sample.span(s);
        let vms = (0..self.vm_names.len())
            .map(|i| {
                let (busy, abs) = self.per_vm_sample[i];
                VmSnap {
                    id: VmId(i),
                    global_load_pct: if span > 0.0 { 100.0 * busy / span } else { 0.0 },
                    absolute_load_pct: if span > 0.0 { 100.0 * abs / span } else { 0.0 },
                    cap_pct: caps.get(i).copied().flatten().map(|c| c * 100.0),
                    backlog_mcycles: backlogs.get(i).copied().unwrap_or(0.0),
                }
            })
            .collect();
        self.snapshots.push(Snapshot {
            t_secs: s,
            freq_mhz: cpu.pstates().state(cpu.pstate()).frequency.as_mhz(),
            pstate: cpu.pstate(),
            global_load_pct: self.sample.load_pct(s),
            absolute_load_pct: self.sample.absolute_pct(s),
            energy_j: cpu.energy().joules(),
            vms,
        });
        self.sample.reset(s);
        for acc in &mut self.per_vm_sample {
            *acc = (0.0, 0.0);
        }
    }

    /// All snapshots taken so far.
    #[must_use]
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// A VM's busy fraction over the whole run (wall-time share).
    ///
    /// # Panics
    ///
    /// Panics if the VM was never registered.
    #[must_use]
    pub fn vm_busy_fraction(&self, vm: VmId) -> f64 {
        let span = self.total_span_hint();
        if span <= 0.0 {
            0.0
        } else {
            self.per_vm_total[vm.0].0 / span
        }
    }

    /// A VM's absolute-capacity fraction over the whole run.
    ///
    /// # Panics
    ///
    /// Panics if the VM was never registered.
    #[must_use]
    pub fn vm_absolute_fraction(&self, vm: VmId) -> f64 {
        let span = self.total_span_hint();
        if span <= 0.0 {
            0.0
        } else {
            self.per_vm_total[vm.0].1 / span
        }
    }

    /// Global busy fraction over the whole run.
    #[must_use]
    pub fn global_busy_fraction(&self) -> f64 {
        let span = self.total_span_hint();
        if span <= 0.0 {
            0.0
        } else {
            self.total.busy_secs / span
        }
    }

    /// Names of registered VMs, in id order.
    #[must_use]
    pub fn vm_names(&self) -> &[String] {
        &self.vm_names
    }

    /// Tells the stats engine how far the clock has advanced (the
    /// total window never resets, so the host reports the horizon).
    pub fn set_elapsed(&mut self, now: SimTime) {
        self.elapsed_secs = now.as_secs_f64();
    }

    fn total_span_hint(&self) -> f64 {
        self.elapsed_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpumodel::machines;

    #[test]
    fn windows_compute_loads() {
        let mut st = HostStats::new();
        st.register_vm("v20");
        // 2 s of slices, VM busy 0.4 s, at ratio·cf = 0.6.
        st.on_slice(Some((VmId(0), 0.4, 0.24)));
        st.set_elapsed(SimTime::from_secs(2));
        let (load, abs) = st.take_acct_window(SimTime::from_secs(2));
        assert!((load - 20.0).abs() < 1e-9);
        assert!((abs - 12.0).abs() < 1e-9);
        // Window reset: next read over the following second is zero.
        st.set_elapsed(SimTime::from_secs(3));
        let (load2, _) = st.take_acct_window(SimTime::from_secs(3));
        assert_eq!(load2, 0.0);
    }

    #[test]
    fn snapshot_breaks_down_per_vm() {
        let mut st = HostStats::new();
        st.register_vm("v20");
        st.register_vm("v70");
        st.on_slice(Some((VmId(0), 1.0, 0.6)));
        st.on_slice(Some((VmId(1), 2.0, 1.2)));
        st.set_elapsed(SimTime::from_secs(10));
        let cpu = machines::optiplex_755().build_cpu();
        st.take_snapshot(
            SimTime::from_secs(10),
            &cpu,
            &[Some(0.2), None],
            &[5.0, 0.0],
        );
        let snap = &st.snapshots()[0];
        assert!((snap.vms[0].global_load_pct - 10.0).abs() < 1e-9);
        assert!((snap.vms[1].global_load_pct - 20.0).abs() < 1e-9);
        assert!((snap.global_load_pct - 30.0).abs() < 1e-9);
        assert_eq!(snap.vms[0].cap_pct, Some(20.0));
        assert_eq!(snap.vms[1].cap_pct, None);
        assert_eq!(snap.freq_mhz, 2667);
        assert!((snap.vms[0].backlog_mcycles - 5.0).abs() < 1e-12);
    }

    #[test]
    fn totals_accumulate_across_windows() {
        let mut st = HostStats::new();
        st.register_vm("v");
        st.on_slice(Some((VmId(0), 1.0, 1.0)));
        st.take_acct_window(SimTime::from_secs(1));
        st.on_slice(Some((VmId(0), 1.0, 1.0)));
        st.set_elapsed(SimTime::from_secs(10));
        assert!((st.vm_busy_fraction(VmId(0)) - 0.2).abs() < 1e-9);
        assert!((st.global_busy_fraction() - 0.2).abs() < 1e-9);
        assert!((st.vm_absolute_fraction(VmId(0)) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_report_zero() {
        let st = HostStats::new();
        assert_eq!(st.global_busy_fraction(), 0.0);
        assert!(st.snapshots().is_empty());
    }
}
