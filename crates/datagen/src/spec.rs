//! Table 2: the dataset used for each task in the workload.

/// One decimal gigabyte.
pub const GB: u64 = 1_000_000_000;

/// Task-specific dataset parameters beyond size and tuple shape.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskParams {
    /// SQL select: fraction of tuples satisfying the predicate.
    Select {
        /// Selectivity in [0, 1] (1% in the paper).
        selectivity: f64,
    },
    /// SQL aggregate (SUM): a zero-dimensional reduction.
    Aggregate,
    /// SQL group-by: number of distinct groups (13.5 million).
    GroupBy {
        /// Distinct group keys.
        distinct_groups: u64,
        /// Bytes per result row (group key + aggregate).
        result_tuple_bytes: u64,
    },
    /// The datacube operator over a 4-dimensional fact table.
    DataCube {
        /// Distinct values per dimension, as fractions of the tuple count
        /// (1%, 0.1%, 0.01%, 0.001% in the paper).
        dim_distinct_fractions: [f64; 4],
        /// Bytes per hash-table entry (group key + aggregate + chain).
        entry_bytes: u64,
    },
    /// External sort: uniformly distributed keys.
    Sort {
        /// Key length in bytes (10 in the paper).
        key_bytes: u64,
    },
    /// Project-join: two relations totalling `total_bytes`, tuples
    /// projected before the shuffle.
    Join {
        /// Bytes per tuple after projection (32 in the paper).
        projected_tuple_bytes: u64,
        /// Key length in bytes (4 in the paper).
        key_bytes: u64,
    },
    /// Association-rule mining (Apriori) on retail transactions.
    DataMine {
        /// Number of transactions (300 million).
        transactions: u64,
        /// Catalog size (1 million items).
        items: u64,
        /// Average items per transaction (4).
        avg_items_per_txn: f64,
        /// Minimum support (0.1%).
        min_support: f64,
        /// Bytes of itemset counters needed per disk (5.4 MB measured in
        /// the paper for this dataset).
        counter_bytes_per_disk: u64,
    },
    /// Materialized-view maintenance: applying deltas to derived relations.
    MaterializedView {
        /// Total size of the derived relations (4 GB).
        derived_bytes: u64,
        /// Total size of the delta stream (1 GB).
        delta_bytes: u64,
    },
}

/// A dataset description (one row of Table 2).
///
/// # Example
///
/// ```
/// use datagen::{DatasetSpec, GB};
/// let d = DatasetSpec::select();
/// assert_eq!(d.tuples, 268_000_000);
/// assert_eq!(d.tuple_bytes, 64);
/// assert!(d.total_bytes >= 16 * GB);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Task name (paper spelling).
    pub name: &'static str,
    /// Number of input tuples (or transactions for dmine).
    pub tuples: u64,
    /// Bytes per input tuple.
    pub tuple_bytes: u64,
    /// Total input bytes scanned in the first pass.
    pub total_bytes: u64,
    /// Task-specific parameters.
    pub params: TaskParams,
}

impl DatasetSpec {
    /// select: 268 million 64-byte tuples, 1% selectivity.
    pub fn select() -> Self {
        DatasetSpec {
            name: "select",
            tuples: 268_000_000,
            tuple_bytes: 64,
            total_bytes: 268_000_000 * 64,
            params: TaskParams::Select { selectivity: 0.01 },
        }
    }

    /// aggregate: 268 million 64-byte tuples, SUM function.
    pub fn aggregate() -> Self {
        DatasetSpec {
            name: "aggregate",
            tuples: 268_000_000,
            tuple_bytes: 64,
            total_bytes: 268_000_000 * 64,
            params: TaskParams::Aggregate,
        }
    }

    /// groupby: 268 million 64-byte tuples, 13.5 million distinct groups.
    pub fn groupby() -> Self {
        DatasetSpec {
            name: "groupby",
            tuples: 268_000_000,
            tuple_bytes: 64,
            total_bytes: 268_000_000 * 64,
            params: TaskParams::GroupBy {
                distinct_groups: 13_500_000,
                result_tuple_bytes: 64,
            },
        }
    }

    /// dcube: 536 million 32-byte tuples, 4 dimensions with 1%, 0.1%,
    /// 0.01% and 0.001% distinct values.
    pub fn dcube() -> Self {
        DatasetSpec {
            name: "dcube",
            tuples: 536_000_000,
            tuple_bytes: 32,
            total_bytes: 536_000_000 * 32,
            params: TaskParams::DataCube {
                dim_distinct_fractions: [0.01, 0.001, 0.000_1, 0.000_01],
                entry_bytes: 32,
            },
        }
    }

    /// sort: 16 GB of 100-byte tuples with 10-byte uniform keys.
    pub fn sort() -> Self {
        DatasetSpec {
            name: "sort",
            tuples: 16 * GB / 100,
            tuple_bytes: 100,
            total_bytes: 16 * GB,
            params: TaskParams::Sort { key_bytes: 10 },
        }
    }

    /// join: 32 GB of 64-byte tuples, 4-byte uniform keys, 32-byte tuples
    /// after projection.
    pub fn join() -> Self {
        DatasetSpec {
            name: "join",
            tuples: 32 * GB / 64,
            tuple_bytes: 64,
            total_bytes: 32 * GB,
            params: TaskParams::Join {
                projected_tuple_bytes: 32,
                key_bytes: 4,
            },
        }
    }

    /// dmine: 300 million transactions, 1 million items, average 4 items
    /// per transaction, 0.1% minimum support (16 GB encoded).
    pub fn dmine() -> Self {
        DatasetSpec {
            name: "dmine",
            tuples: 300_000_000,
            tuple_bytes: 53, // 16 GB / 300 M transactions, encoded
            total_bytes: 16 * GB,
            params: TaskParams::DataMine {
                transactions: 300_000_000,
                items: 1_000_000,
                avg_items_per_txn: 4.0,
                min_support: 0.001,
                counter_bytes_per_disk: 5_400_000,
            },
        }
    }

    /// mview: 15 GB base dataset of 32-byte tuples, 4 GB derived
    /// relations, 1 GB deltas.
    pub fn mview() -> Self {
        DatasetSpec {
            name: "mview",
            tuples: 15 * GB / 32,
            tuple_bytes: 32,
            total_bytes: 15 * GB,
            params: TaskParams::MaterializedView {
                derived_bytes: 4 * GB,
                delta_bytes: GB,
            },
        }
    }

    /// All eight datasets in the paper's presentation order.
    pub fn all() -> Vec<DatasetSpec> {
        vec![
            Self::select(),
            Self::aggregate(),
            Self::groupby(),
            Self::dcube(),
            Self::sort(),
            Self::join(),
            Self::dmine(),
            Self::mview(),
        ]
    }

    /// A proportionally scaled-up copy (same shape, `factor×` the tuples
    /// and bytes) — used for growth studies: the paper's motivation is
    /// datasets that double every nine-to-twelve months.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    #[must_use]
    pub fn scaled_up(&self, factor: u64) -> DatasetSpec {
        assert!(factor > 0, "scale factor must be positive");
        let mut d = self.clone();
        d.tuples *= factor;
        d.total_bytes *= factor;
        if let TaskParams::DataMine {
            ref mut transactions,
            ..
        } = d.params
        {
            *transactions *= factor;
        }
        if let TaskParams::MaterializedView {
            ref mut derived_bytes,
            ref mut delta_bytes,
        } = d.params
        {
            *derived_bytes *= factor;
            *delta_bytes *= factor;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_sizes() {
        // 16 GB datasets for all applications except join (32 GB) and
        // mview (15 GB). The 64-byte tuple datasets are 268 M × 64 B
        // ≈ 17.2 decimal GB, i.e. "16 GB" in binary units.
        for d in DatasetSpec::all() {
            let gb = d.total_bytes as f64 / GB as f64;
            match d.name {
                "join" => assert!((gb - 32.0).abs() < 3.0, "{}: {gb}", d.name),
                "mview" => assert!((gb - 15.0).abs() < 1.5, "{}: {gb}", d.name),
                _ => assert!((gb - 16.0).abs() < 2.0, "{}: {gb}", d.name),
            }
        }
    }

    #[test]
    fn eight_tasks_in_order() {
        let names: Vec<_> = DatasetSpec::all().iter().map(|d| d.name).collect();
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
    fn select_parameters() {
        let d = DatasetSpec::select();
        match d.params {
            TaskParams::Select { selectivity } => assert_eq!(selectivity, 0.01),
            _ => panic!("wrong params"),
        }
    }

    #[test]
    fn groupby_distinct_count() {
        match DatasetSpec::groupby().params {
            TaskParams::GroupBy {
                distinct_groups, ..
            } => assert_eq!(distinct_groups, 13_500_000),
            _ => panic!("wrong params"),
        }
    }

    #[test]
    fn dcube_dimension_fractions() {
        match DatasetSpec::dcube().params {
            TaskParams::DataCube {
                dim_distinct_fractions,
                ..
            } => {
                assert_eq!(dim_distinct_fractions, [0.01, 0.001, 0.000_1, 0.000_01]);
            }
            _ => panic!("wrong params"),
        }
    }

    #[test]
    fn dmine_parameters() {
        match DatasetSpec::dmine().params {
            TaskParams::DataMine {
                transactions,
                items,
                min_support,
                counter_bytes_per_disk,
                ..
            } => {
                assert_eq!(transactions, 300_000_000);
                assert_eq!(items, 1_000_000);
                assert_eq!(min_support, 0.001);
                assert_eq!(counter_bytes_per_disk, 5_400_000);
            }
            _ => panic!("wrong params"),
        }
    }

    #[test]
    fn mview_sizes() {
        match DatasetSpec::mview().params {
            TaskParams::MaterializedView {
                derived_bytes,
                delta_bytes,
            } => {
                assert_eq!(derived_bytes, 4 * GB);
                assert_eq!(delta_bytes, GB);
            }
            _ => panic!("wrong params"),
        }
    }

    #[test]
    fn scaling_preserves_shape() {
        let d = DatasetSpec::sort().scaled_up(4);
        assert_eq!(d.tuple_bytes, 100);
        assert_eq!(d.tuples, 4 * 160_000_000);
        assert_eq!(d.total_bytes, 64 * GB);
    }

    #[test]
    fn scaling_up_multiplies() {
        let d = DatasetSpec::dmine().scaled_up(4);
        assert_eq!(d.total_bytes, 64 * GB);
        match d.params {
            TaskParams::DataMine { transactions, .. } => {
                assert_eq!(transactions, 1_200_000_000);
            }
            _ => panic!("wrong params"),
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = DatasetSpec::sort().scaled_up(0);
    }
}
