//! The eight decision-support workload tasks, expressed as per-architecture
//! coarse-grain dataflow *phase plans*.
//!
//! The paper structures every Active Disk algorithm "as coarse-grain
//! data-flow graphs" of disklets connected by streams; the cluster and SMP
//! variants share the same phase structure with different placement and
//! communication mechanisms. A [`plan::TaskPlan`] captures that structure:
//! a sequence of phases, each telling every node how many bytes it scans,
//! what CPU work it does per scanned and per received byte (tagged by
//! operator, so Figure 3's execution breakdown falls out), and how output
//! bytes are routed (kept, written, shuffled to peers, or sent to the
//! front-end).
//!
//! Memory-dependent planning — external-sort run counts, PipeHash pass
//! counts, Apriori counter residency — happens here, which is how the
//! paper's Figure 4 (disk-memory scaling) is reproduced.
//!
//! CPU costs are *reference costs* for the 300 MHz Pentium II (see
//! [`costs`]); the simulator scales them by each architecture's processor,
//! exactly as Howsim scaled traced processing times by processor speed.

#![warn(missing_docs)]

pub mod costs;
pub mod plan;
pub mod planner;

pub use plan::{CpuWork, PhasePlan, TaskPlan};
pub use planner::{plan_task, plan_task_on};

use datagen::DatasetSpec;

/// One of the paper's eight decision-support tasks.
///
/// # Example
///
/// ```
/// use tasks::TaskKind;
///
/// assert_eq!(TaskKind::Sort.name(), "sort");
/// assert!(TaskKind::Sort.repartitions());
/// assert_eq!(TaskKind::Sort.dataset().tuple_bytes, 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// SQL select (1% selectivity).
    Select,
    /// SQL aggregate (SUM).
    Aggregate,
    /// SQL group-by (13.5 M groups).
    GroupBy,
    /// The datacube operator (PipeHash).
    DataCube,
    /// External sort.
    Sort,
    /// Project-join.
    Join,
    /// Association-rule mining (Apriori).
    DataMine,
    /// Materialized-view maintenance.
    MaterializedView,
}

impl TaskKind {
    /// All eight tasks in the paper's presentation order.
    pub const ALL: [TaskKind; 8] = [
        TaskKind::Select,
        TaskKind::Aggregate,
        TaskKind::GroupBy,
        TaskKind::DataCube,
        TaskKind::Sort,
        TaskKind::Join,
        TaskKind::DataMine,
        TaskKind::MaterializedView,
    ];

    /// The paper's short name for the task.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Select => "select",
            TaskKind::Aggregate => "aggregate",
            TaskKind::GroupBy => "groupby",
            TaskKind::DataCube => "dcube",
            TaskKind::Sort => "sort",
            TaskKind::Join => "join",
            TaskKind::DataMine => "dmine",
            TaskKind::MaterializedView => "mview",
        }
    }

    /// Inverse of [`TaskKind::name`].
    pub fn parse(name: &str) -> Option<TaskKind> {
        TaskKind::ALL.into_iter().find(|t| t.name() == name)
    }

    /// The Table 2 dataset for this task.
    pub fn dataset(self) -> DatasetSpec {
        match self {
            TaskKind::Select => DatasetSpec::select(),
            TaskKind::Aggregate => DatasetSpec::aggregate(),
            TaskKind::GroupBy => DatasetSpec::groupby(),
            TaskKind::DataCube => DatasetSpec::dcube(),
            TaskKind::Sort => DatasetSpec::sort(),
            TaskKind::Join => DatasetSpec::join(),
            TaskKind::DataMine => DatasetSpec::dmine(),
            TaskKind::MaterializedView => DatasetSpec::mview(),
        }
    }

    /// Whether the task repartitions all (or a large fraction) of its
    /// dataset — the property the paper's Figure 5 turns on.
    pub fn repartitions(self) -> bool {
        matches!(
            self,
            TaskKind::Sort | TaskKind::Join | TaskKind::MaterializedView
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_tasks_in_paper_order() {
        let names: Vec<_> = TaskKind::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(
            names,
            vec![
                "select",
                "aggregate",
                "groupby",
                "dcube",
                "sort",
                "join",
                "dmine",
                "mview"
            ]
        );
    }

    #[test]
    fn parse_inverts_name() {
        for t in TaskKind::ALL {
            assert_eq!(TaskKind::parse(t.name()), Some(t));
        }
        assert_eq!(TaskKind::parse("Select"), None);
        assert_eq!(TaskKind::parse(""), None);
    }

    #[test]
    fn datasets_match_task_names() {
        for t in TaskKind::ALL {
            assert_eq!(t.name(), t.dataset().name);
        }
    }

    #[test]
    fn repartitioning_tasks_match_figure_5() {
        let repart: Vec<_> = TaskKind::ALL.iter().filter(|t| t.repartitions()).collect();
        assert_eq!(repart.len(), 3, "sort, join, mview");
        assert!(TaskKind::Sort.repartitions());
        assert!(TaskKind::Join.repartitions());
        assert!(TaskKind::MaterializedView.repartitions());
        assert!(!TaskKind::GroupBy.repartitions());
    }
}
