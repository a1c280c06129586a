//! Datacube pass packing (PipeHash, Agarwal et al., "On the computation
//! of multidimensional aggregates").
//!
//! PipeHash "tries to minimize the number of passes by scheduling several
//! group-bys as a pipeline"; how many group-bys share one scan is limited
//! by the memory available for their hash tables. That memory dependence
//! is exactly what the paper's Figure 4 probes: at 64 disks doubling
//! memory merges 14 group-bys into a single scan (2.3 GB needed), cutting
//! the pass count from three to two. The planner's dcube packs the
//! group-bys below the pipeline root with [`pack_first_fit`].

/// Plain first-fit-decreasing packing (no pipeline-root rule): partitions
/// the group-bys into the fewest memory-feasible batches. Oversized items
/// each get their own batch.
///
/// # Panics
///
/// Panics if `memory_bytes` is zero.
pub fn pack_first_fit(table_bytes: &[u64], memory_bytes: u64) -> Vec<Vec<usize>> {
    assert!(memory_bytes > 0, "memory budget must be positive");
    let mut order: Vec<usize> = (0..table_bytes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(table_bytes[i]));
    let mut bins: Vec<(u64, Vec<usize>)> = Vec::new();
    for i in order {
        let size = table_bytes[i];
        match bins
            .iter_mut()
            .find(|(used, _)| size <= memory_bytes && used + size <= memory_bytes)
        {
            Some((used, members)) => {
                *used += size;
                members.push(i);
            }
            None => bins.push((size.min(memory_bytes), vec![i])),
        }
    }
    bins.into_iter().map(|(_, m)| m).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_memory_rejected() {
        pack_first_fit(&[1], 0);
    }

    proptest! {
        /// Every table lands in exactly one batch, and a batch that holds
        /// two or more tables fits the budget.
        #[test]
        fn prop_packing_is_a_partition(sizes in proptest::collection::vec(1u64..100, 0..40), mem in 1u64..200) {
            let batches = pack_first_fit(&sizes, mem);
            let mut seen = vec![0u8; sizes.len()];
            for batch in &batches {
                let total: u64 = batch.iter().map(|&i| sizes[i]).sum();
                prop_assert!(batch.len() == 1 || total <= mem);
                for &i in batch {
                    seen[i] += 1;
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1));
        }
    }
}
