//! The global placement controller: bin-packing VM fleets onto hosts
//! by memory *and* CPU.
//!
//! The consolidation experiment packs by memory alone; a real placement
//! controller must respect both dimensions — a host can be CPU-full
//! while memory-empty (compute tenants) or memory-full while CPU-idle
//! (the paper's hosting-center case). Both policies here are
//! *decreasing* variants (largest memory first), the classic
//! approximation with a 11/9 OPT + 1 bound in one dimension.

/// What one VM asks of a host.
///
/// CPU demand and the booked credit are fractions of one host's
/// capacity **at maximum frequency** (the paper's SLA unit).
#[derive(Debug, Clone, PartialEq)]
pub struct VmSpec {
    /// Human-readable name ("vm3", "tenant-web", …).
    pub name: String,
    /// Physical memory the VM needs even when CPU-idle, GiB.
    pub mem_gib: f64,
    /// Steady CPU demand as a fraction of a host's fmax capacity.
    pub cpu_frac: f64,
    /// Booked credit as a fraction of a host's fmax capacity; the SLA
    /// the fleet's violation accounting is checked against.
    pub credit_frac: f64,
    /// Optional demand steps: at `t` seconds, the demand becomes
    /// `cpu_frac` × host fmax capacity. Empty means constant demand.
    /// Used to model load surges that trip the migration trigger.
    pub steps: Vec<(f64, f64)>,
}

impl VmSpec {
    /// A VM with the given memory footprint and constant CPU demand;
    /// the booked credit defaults to the demand (an exactly-sized
    /// booking, the paper's "exact load").
    ///
    /// # Example
    ///
    /// ```
    /// use cluster::placement::VmSpec;
    /// let vm = VmSpec::new("web1", 4.0, 0.06);
    /// assert_eq!(vm.credit_frac, 0.06);
    /// assert!(vm.steps.is_empty());
    /// ```
    #[must_use]
    pub fn new(name: impl Into<String>, mem_gib: f64, cpu_frac: f64) -> Self {
        VmSpec {
            name: name.into(),
            mem_gib,
            cpu_frac,
            credit_frac: cpu_frac,
            steps: Vec::new(),
        }
    }

    /// Overrides the booked credit (overbooked or underbooked SLAs).
    #[must_use]
    pub fn with_credit_frac(mut self, credit_frac: f64) -> Self {
        self.credit_frac = credit_frac;
        self
    }

    /// Adds demand steps: at each `(t_secs, cpu_frac)` the VM's demand
    /// jumps to the new fraction. Steps must be in ascending time
    /// order.
    #[must_use]
    pub fn with_steps(mut self, steps: Vec<(f64, f64)>) -> Self {
        self.steps = steps;
        self
    }

    /// The demand fraction in effect at `t` seconds.
    #[must_use]
    pub fn demand_at(&self, t: f64) -> f64 {
        let mut d = self.cpu_frac;
        for &(at, frac) in &self.steps {
            if t >= at {
                d = frac;
            }
        }
        d
    }

    /// Integral of `min(demand(t), cap)` over `[t0, t1]`, in
    /// fmax-seconds (`cap = None` integrates the raw demand). This is
    /// the single piecewise walk behind both demand *generation* and
    /// SLA *entitlement* accounting in [`crate::fleet`], so the two
    /// can never disagree about step semantics.
    ///
    /// # Example
    ///
    /// ```
    /// use cluster::placement::VmSpec;
    /// let vm = VmSpec::new("surge", 4.0, 0.1).with_steps(vec![(10.0, 0.5)]);
    /// // 10 s at 10% + 10 s at 50%:
    /// assert!((vm.integrated_demand(0.0, 20.0, None) - 6.0).abs() < 1e-12);
    /// // Capped at the 30% booking: 10 s at 10% + 10 s at 30%.
    /// assert!((vm.integrated_demand(0.0, 20.0, Some(0.3)) - 4.0).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn integrated_demand(&self, t0: f64, t1: f64, cap: Option<f64>) -> f64 {
        let clip = |d: f64| cap.map_or(d, |c| d.min(c));
        let mut acc = 0.0;
        let mut cursor = t0;
        for &(at, _) in &self.steps {
            if at > cursor && at < t1 {
                acc += (at - cursor) * clip(self.demand_at(cursor));
                cursor = at;
            }
        }
        acc += (t1 - cursor).max(0.0) * clip(self.demand_at(cursor));
        acc
    }
}

/// What one host offers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostCapacity {
    /// Physical memory, GiB.
    pub mem_gib: f64,
    /// CPU budget the controller will book on one host, as a fraction
    /// of fmax capacity (1.0 books the whole processor; lower values
    /// reserve headroom for Dom0 and demand spikes).
    pub cpu_frac: f64,
}

impl HostCapacity {
    /// The paper's testbed host as a fleet building block: 16 GiB of
    /// memory, the full processor bookable.
    #[must_use]
    pub fn optiplex_defaults() -> Self {
        HostCapacity {
            mem_gib: 16.0,
            cpu_frac: 1.0,
        }
    }
}

/// How the controller picks a host for each VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// First-fit decreasing: the first host (in opening order) with
    /// room in both dimensions.
    FirstFit,
    /// Best-fit decreasing: the host with the least total slack left
    /// after placing the VM — packs tighter when VMs are
    /// heterogeneous.
    BestFit,
}

/// A placement: per-host lists of indices into the input spec slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// `hosts[h]` holds the spec indices placed on host `h`, in
    /// placement order.
    pub hosts: Vec<Vec<usize>>,
}

impl Placement {
    /// Number of hosts the placement opened.
    #[must_use]
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Memory booked on host `h`, GiB.
    #[must_use]
    pub fn mem_used(&self, specs: &[VmSpec], h: usize) -> f64 {
        self.hosts[h].iter().map(|&i| specs[i].mem_gib).sum()
    }

    /// CPU booked on host `h` (fraction of fmax capacity), by demand.
    #[must_use]
    pub fn cpu_used(&self, specs: &[VmSpec], h: usize) -> f64 {
        self.hosts[h].iter().map(|&i| specs[i].cpu_frac).sum()
    }

    /// Iterates `(host, spec_idx)` pairs host-major, in placement
    /// order — the order the fleet tracer reports `placement` events.
    ///
    /// # Example
    ///
    /// ```
    /// use cluster::placement::Placement;
    /// let p = Placement { hosts: vec![vec![2, 0], vec![1]] };
    /// let pairs: Vec<_> = p.assignments().collect();
    /// assert_eq!(pairs, vec![(0, 2), (0, 0), (1, 1)]);
    /// ```
    pub fn assignments(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.hosts
            .iter()
            .enumerate()
            .flat_map(|(h, vms)| vms.iter().map(move |&i| (h, i)))
    }
}

impl PlacementPolicy {
    /// Packs `specs` onto hosts of the given capacity.
    ///
    /// Deterministic: specs are placed in decreasing-memory order
    /// (stable on ties, so equal-memory VMs keep their input order),
    /// and every VM is placed — a VM larger than a whole empty host
    /// gets a host of its own, mirroring how a real controller must
    /// still run an oversized tenant somewhere.
    ///
    /// # Example
    ///
    /// Two-dimensional packing: four 2-GiB VMs fit one 16-GiB host by
    /// memory, but their CPU demand only lets two share a host.
    ///
    /// ```
    /// use cluster::placement::{HostCapacity, PlacementPolicy, VmSpec};
    ///
    /// let specs: Vec<VmSpec> = (0..4)
    ///     .map(|i| VmSpec::new(format!("vm{i}"), 2.0, 0.4))
    ///     .collect();
    /// let cap = HostCapacity { mem_gib: 16.0, cpu_frac: 1.0 };
    /// let p = PlacementPolicy::FirstFit.place(&specs, cap);
    /// assert_eq!(p.host_count(), 2, "CPU binds before memory here");
    /// assert!(p.cpu_used(&specs, 0) <= 1.0);
    /// ```
    #[must_use]
    pub fn place(self, specs: &[VmSpec], capacity: HostCapacity) -> Placement {
        let all: Vec<usize> = (0..specs.len()).collect();
        Placement {
            hosts: self
                .pack(specs, &all, capacity, None)
                .hosts
                .into_iter()
                .map(|(_, _, vms)| vms)
                .collect(),
        }
    }

    /// The one packing kernel: places `members` (indices into
    /// `specs`) in decreasing-memory order, stable on ties, opening at
    /// most `host_cap` hosts (`None` = no limit). What would need
    /// another host past the cap overflows. [`PlacementPolicy::place`]
    /// packs every spec with no cap; a shard controller packs one zone
    /// (see [`crate::shard`]).
    pub(crate) fn pack(
        self,
        specs: &[VmSpec],
        members: &[usize],
        capacity: HostCapacity,
        host_cap: Option<usize>,
    ) -> Packing {
        let mut order = members.to_vec();
        order.sort_by(|&a, &b| f64::total_cmp(&specs[b].mem_gib, &specs[a].mem_gib));

        let mut hosts: Vec<OpenHost> = Vec::new();
        let mut overflow = Vec::new();
        for idx in order {
            let need_mem = specs[idx].mem_gib;
            let need_cpu = specs[idx].cpu_frac;
            let may_open = host_cap.is_none_or(|cap| hosts.len() < cap);
            match self.find_target(&mut hosts, capacity, need_mem, need_cpu) {
                Some(host) => {
                    host.0 += need_mem;
                    host.1 += need_cpu;
                    host.2.push(idx);
                }
                None if may_open => hosts.push((need_mem, need_cpu, vec![idx])),
                None => overflow.push(idx),
            }
        }
        Packing { hosts, overflow }
    }

    /// The open host this policy places a VM needing `need_mem` GiB
    /// and `need_cpu` of the CPU into, if any fits. Best-fit keeps
    /// ties on the earliest-opened host (deterministic).
    pub(crate) fn find_target(
        self,
        hosts: &mut [OpenHost],
        capacity: HostCapacity,
        need_mem: f64,
        need_cpu: f64,
    ) -> Option<&mut OpenHost> {
        let fits = |mem: f64, cpu: f64| {
            mem + need_mem <= capacity.mem_gib + 1e-12
                && cpu + need_cpu <= capacity.cpu_frac + 1e-12
        };
        match self {
            PlacementPolicy::FirstFit => hosts.iter_mut().find(|h| fits(h.0, h.1)),
            PlacementPolicy::BestFit => hosts
                .iter_mut()
                .filter(|h| fits(h.0, h.1))
                // Least slack after placement; normalise both
                // dimensions so GiB and CPU fractions are
                // commensurable.
                .min_by(|a, b| {
                    let slack = |h: &OpenHost| {
                        (capacity.mem_gib - h.0 - need_mem) / capacity.mem_gib
                            + (capacity.cpu_frac - h.1 - need_cpu) / capacity.cpu_frac
                    };
                    f64::total_cmp(&slack(a), &slack(b))
                }),
        }
    }
}

/// An open host during packing: `(mem_used, cpu_used, spec indices)`.
pub(crate) type OpenHost = (f64, f64, Vec<usize>);

/// What [`PlacementPolicy::pack`] returns.
pub(crate) struct Packing {
    /// The hosts it opened.
    pub(crate) hosts: Vec<OpenHost>,
    /// Spec indices past the host cap, in packing order.
    pub(crate) overflow: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_fleet(n: usize, mem: f64, cpu: f64) -> Vec<VmSpec> {
        (0..n)
            .map(|i| VmSpec::new(format!("vm{i}"), mem, cpu))
            .collect()
    }

    #[test]
    fn memory_bound_packing_matches_consolidation_study() {
        // 12 × 4 GiB into 16 GiB hosts: 3 hosts, CPU nowhere near full
        // — the Section 2.3 argument.
        let specs = uniform_fleet(12, 4.0, 0.05);
        let cap = HostCapacity::optiplex_defaults();
        for policy in [PlacementPolicy::FirstFit, PlacementPolicy::BestFit] {
            let p = policy.place(&specs, cap);
            assert_eq!(p.host_count(), 3, "{policy:?}");
            for h in 0..p.host_count() {
                assert!(p.mem_used(&specs, h) <= cap.mem_gib + 1e-9);
                assert!(p.cpu_used(&specs, h) < 0.5, "CPU stays underloaded");
            }
        }
    }

    #[test]
    fn every_vm_is_placed_exactly_once() {
        let specs = uniform_fleet(17, 3.0, 0.2);
        let p = PlacementPolicy::BestFit.place(&specs, HostCapacity::optiplex_defaults());
        let mut seen: Vec<usize> = p.hosts.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn cpu_dimension_is_respected() {
        // Memory would allow all four on one host; CPU forbids it.
        let specs = uniform_fleet(4, 1.0, 0.6);
        let p = PlacementPolicy::FirstFit.place(&specs, HostCapacity::optiplex_defaults());
        assert_eq!(p.host_count(), 4);
    }

    #[test]
    fn best_fit_packs_heterogeneous_fleets_no_worse() {
        // A classic first-fit pessimal mix: best-fit must not open
        // more hosts than first-fit.
        let mut specs = Vec::new();
        for i in 0..6 {
            specs.push(VmSpec::new(format!("big{i}"), 10.0, 0.1));
            specs.push(VmSpec::new(format!("mid{i}"), 6.0, 0.1));
            specs.push(VmSpec::new(format!("small{i}"), 4.0, 0.1));
        }
        let cap = HostCapacity::optiplex_defaults();
        let ff = PlacementPolicy::FirstFit.place(&specs, cap).host_count();
        let bf = PlacementPolicy::BestFit.place(&specs, cap).host_count();
        assert!(bf <= ff, "best-fit {bf} vs first-fit {ff}");
    }

    #[test]
    fn oversized_vm_still_gets_a_host() {
        let specs = vec![VmSpec::new("huge", 64.0, 0.2)];
        let p = PlacementPolicy::FirstFit.place(&specs, HostCapacity::optiplex_defaults());
        assert_eq!(p.host_count(), 1);
    }

    #[test]
    fn placement_is_deterministic() {
        let specs = uniform_fleet(20, 4.0, 0.1);
        let cap = HostCapacity::optiplex_defaults();
        let a = PlacementPolicy::BestFit.place(&specs, cap);
        let b = PlacementPolicy::BestFit.place(&specs, cap);
        assert_eq!(a, b);
    }

    #[test]
    fn demand_steps_apply_in_order() {
        let vm = VmSpec::new("surge", 4.0, 0.05).with_steps(vec![(100.0, 0.5), (200.0, 0.1)]);
        assert_eq!(vm.demand_at(0.0), 0.05);
        assert_eq!(vm.demand_at(150.0), 0.5);
        assert_eq!(vm.demand_at(250.0), 0.1);
    }
}
