//! The phase-plan intermediate representation consumed by the simulator.

use simcore::Duration;

/// A CPU cost component, tagged for the execution-time breakdown
/// (Figure 3 uses tags like `"partitioner"`, `"append"`, `"sort"`,
/// `"merge"`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuWork {
    /// Operator label for busy-time accounting.
    pub tag: &'static str,
    /// Nanoseconds of work per byte handled, on the reference processor
    /// (300 MHz Pentium II).
    pub ns_per_byte: f64,
}

impl CpuWork {
    /// A cost expressed per tuple, converted to per byte.
    ///
    /// # Panics
    ///
    /// Panics if `tuple_bytes` is zero.
    pub fn per_tuple(tag: &'static str, ns_per_tuple: f64, tuple_bytes: u64) -> Self {
        assert!(tuple_bytes > 0, "tuple size must be positive");
        CpuWork {
            tag,
            ns_per_byte: ns_per_tuple / tuple_bytes as f64,
        }
    }
}

/// One phase of a task: what every worker node does, and how its output is
/// routed. All nodes are symmetric (the paper partitions each dataset
/// evenly); per-node amounts are the totals divided by the node count.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePlan {
    /// Phase label (e.g. `"sort"`, `"merge"`).
    pub name: &'static str,
    /// Total bytes scanned from disk in this phase, across all nodes.
    pub read_bytes_total: u64,
    /// CPU work per *scanned* byte (applied at the scanning node).
    pub read_cpu: Vec<CpuWork>,
    /// CPU work per *received* byte (applied at the receiving peer).
    pub recv_cpu: Vec<CpuWork>,
    /// Bytes sent to peer nodes (repartition) per scanned byte. A factor
    /// of 1.0 means the whole dataset is reshuffled; 0.5 means it is
    /// projected to half size first (the paper's join).
    pub shuffle_factor: f64,
    /// Optional per-destination shuffle weights (length = node count).
    /// `None` means the uniform all-to-all of the paper's datasets;
    /// skewed weights model hash-partitioning heavy-tailed keys (see the
    /// skew-sensitivity extension experiment).
    pub shuffle_weights: Option<Vec<f64>>,
    /// Bytes sent to the front-end per scanned byte (e.g. select output,
    /// group-by result tables).
    pub frontend_factor: f64,
    /// Additional fixed bytes each node sends to the front-end (e.g.
    /// dmine's per-disk counter tables).
    pub frontend_bytes_per_node: u64,
    /// Whether the per-node front-end bytes are *combinable* partial
    /// results (counters, accumulators): architectures with a global
    /// reduction primitive (the MPI-like library, SMP remote queues)
    /// merge them along a tree instead of funnelling every node's copy
    /// into the front-end link.
    pub frontend_combinable: bool,
    /// Bytes written to the scanning node's own disk per scanned byte.
    pub local_write_factor: f64,
    /// Whether bytes received from peers are written to the receiver's
    /// disk (true for sort/join repartition phases).
    pub write_received: bool,
    /// Whether this phase scans intermediate data produced by an earlier
    /// phase (run files, partitions, parent group-bys) rather than the
    /// base dataset. Determines the on-disk region the scan reads from.
    pub reads_intermediate: bool,
    /// Extra per-node disk busy time not captured by the request stream
    /// (e.g. run-switch seeks during a multiway merge).
    pub extra_disk_busy_per_node: Duration,
    /// Front-end CPU nanoseconds per byte it receives (reference
    /// processor) — result assembly, partial-table merging.
    pub frontend_cpu_ns_per_byte: f64,
}

impl PhasePlan {
    /// A quiescent phase template; builders override the relevant fields.
    pub fn new(name: &'static str, read_bytes_total: u64) -> Self {
        PhasePlan {
            name,
            read_bytes_total,
            read_cpu: Vec::new(),
            recv_cpu: Vec::new(),
            shuffle_factor: 0.0,
            shuffle_weights: None,
            frontend_factor: 0.0,
            frontend_bytes_per_node: 0,
            frontend_combinable: false,
            local_write_factor: 0.0,
            write_received: false,
            reads_intermediate: false,
            extra_disk_busy_per_node: Duration::ZERO,
            frontend_cpu_ns_per_byte: 0.0,
        }
    }

    /// Total bytes this phase ships to peers across all nodes.
    pub fn shuffle_bytes_total(&self) -> u64 {
        (self.read_bytes_total as f64 * self.shuffle_factor) as u64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        for (label, f) in [
            ("shuffle_factor", self.shuffle_factor),
            ("frontend_factor", self.frontend_factor),
            ("local_write_factor", self.local_write_factor),
        ] {
            if !(0.0..=4.0).contains(&f) || !f.is_finite() {
                return Err(format!("{}: {label} out of range: {f}", self.name));
            }
        }
        if self.read_bytes_total == 0 && self.read_cpu.iter().any(|c| c.ns_per_byte > 0.0) {
            return Err(format!("{}: CPU work with nothing to read", self.name));
        }
        if self.write_received && self.shuffle_factor == 0.0 {
            return Err(format!("{}: write_received without shuffle", self.name));
        }
        if let Some(w) = &self.shuffle_weights {
            if w.is_empty() || w.iter().any(|&x| !x.is_finite() || x < 0.0) {
                return Err(format!("{}: invalid shuffle weights", self.name));
            }
            if w.iter().sum::<f64>() <= 0.0 {
                return Err(format!("{}: shuffle weights sum to zero", self.name));
            }
        }
        Ok(())
    }
}

/// A complete task plan: the phases in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskPlan {
    /// Task name (paper spelling).
    pub task: &'static str,
    /// Phases, run back to back (each phase is a barrier).
    pub phases: Vec<PhasePlan>,
}

impl TaskPlan {
    /// Validates all phases.
    ///
    /// # Errors
    ///
    /// Returns the first phase error found.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err(format!("{}: no phases", self.task));
        }
        self.phases.iter().try_for_each(PhasePlan::validate)
    }

    /// Total bytes read from disk across all phases.
    pub fn total_read_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.read_bytes_total).sum()
    }

    /// Total bytes shuffled between peers across all phases.
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.phases.iter().map(PhasePlan::shuffle_bytes_total).sum()
    }

    /// Scales every CPU cost in the plan by `factor` (sensitivity studies:
    /// how robust are conclusions to the calibrated per-tuple constants?).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scale_cpu(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "cpu scale factor must be positive"
        );
        for phase in &mut self.phases {
            for w in phase.read_cpu.iter_mut().chain(&mut phase.recv_cpu) {
                w.ns_per_byte *= factor;
            }
            phase.frontend_cpu_ns_per_byte *= factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tuple_conversion() {
        let w = CpuWork::per_tuple("filter", 1_000.0, 64);
        assert!((w.ns_per_byte - 15.625).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn per_tuple_rejects_zero_size() {
        CpuWork::per_tuple("x", 1.0, 0);
    }

    #[test]
    fn default_phase_is_valid_and_quiet() {
        let p = PhasePlan::new("scan", 1_000);
        p.validate().expect("valid");
        assert_eq!(p.shuffle_bytes_total(), 0);
    }

    #[test]
    fn volume_computations() {
        let mut p = PhasePlan::new("part", 1_000_000);
        p.shuffle_factor = 0.5;
        assert_eq!(p.shuffle_bytes_total(), 500_000);
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut p = PhasePlan::new("bad", 100);
        p.shuffle_factor = -1.0;
        assert!(p.validate().is_err());

        let mut p = PhasePlan::new("bad2", 0);
        p.read_cpu.push(CpuWork {
            tag: "x",
            ns_per_byte: 1.0,
        });
        assert!(p.validate().is_err());

        let mut p = PhasePlan::new("bad3", 100);
        p.write_received = true;
        assert!(p.validate().is_err());

        let plan = TaskPlan {
            task: "empty",
            phases: vec![],
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    fn weight_validation() {
        let mut p = PhasePlan::new("skewed", 100);
        p.shuffle_factor = 1.0;
        p.shuffle_weights = Some(vec![0.5, 0.5]);
        p.validate().expect("valid weights");
        p.shuffle_weights = Some(vec![]);
        assert!(p.validate().is_err());
        p.shuffle_weights = Some(vec![-1.0, 2.0]);
        assert!(p.validate().is_err());
        p.shuffle_weights = Some(vec![0.0, 0.0]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn cpu_scaling_multiplies_all_costs() {
        let mut p = PhasePlan::new("a", 100);
        p.read_cpu = vec![CpuWork {
            tag: "x",
            ns_per_byte: 4.0,
        }];
        p.recv_cpu = vec![CpuWork {
            tag: "y",
            ns_per_byte: 2.0,
        }];
        p.frontend_cpu_ns_per_byte = 1.0;
        let mut plan = TaskPlan {
            task: "t",
            phases: vec![p],
        };
        plan.scale_cpu(2.5);
        assert_eq!(plan.phases[0].read_cpu[0].ns_per_byte, 10.0);
        assert_eq!(plan.phases[0].recv_cpu[0].ns_per_byte, 5.0);
        assert_eq!(plan.phases[0].frontend_cpu_ns_per_byte, 2.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn cpu_scaling_rejects_zero() {
        TaskPlan {
            task: "t",
            phases: vec![],
        }
        .scale_cpu(0.0);
    }

    #[test]
    fn task_totals() {
        let mut p1 = PhasePlan::new("a", 100);
        p1.shuffle_factor = 1.0;
        let p2 = PhasePlan::new("b", 50);
        let plan = TaskPlan {
            task: "t",
            phases: vec![p1, p2],
        };
        assert_eq!(plan.total_read_bytes(), 150);
        assert_eq!(plan.total_shuffle_bytes(), 100);
        plan.validate().expect("valid");
    }
}
