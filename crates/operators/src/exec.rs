//! Execution configuration and the scoped-thread partitioning primitive
//! shared by the operators.
//!
//! The mapping algebra parallelizes along two independent axes:
//!
//! * **within one join** — above [`PARALLEL_THRESHOLD`](crate::plan::cost::PARALLEL_THRESHOLD)
//!   `Compose` partitions its probe side across a worker pool over a
//!   shared build-side table (the `Hash` join strategy);
//! * **across view columns** — `GenerateView` resolves each target's
//!   Map/Compose + restrict pipeline concurrently and only folds the final
//!   AND/OR join sequentially.
//!
//! Both axes preserve bit-identical output: partitions are contiguous
//! in-order slices of the probe side, per-worker buffers are merged back in
//! partition order, and the final `Mapping::dedup` / row sort are the same
//! total orders the sequential path applies. Determinism therefore does not
//! depend on thread scheduling.

/// The one execution tunable: how many worker threads an operation may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Maximum number of worker threads per operation. `0` and `1` both
    /// mean fully sequential execution.
    pub jobs: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            jobs: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

impl ExecConfig {
    /// Fully sequential execution.
    pub fn sequential() -> Self {
        ExecConfig { jobs: 1 }
    }

    /// A config with an explicit worker count.
    pub fn with_jobs(jobs: usize) -> Self {
        ExecConfig { jobs }
    }
}

/// Split `items` into at most `jobs` contiguous chunks, run `f` on each
/// chunk on its own scoped thread, and return the per-chunk results **in
/// chunk order** — the caller can concatenate them and obtain exactly the
/// sequence a sequential left-to-right pass would have produced.
pub fn partitioned<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return vec![f(items)];
    }
    let chunk_size = items.len().div_ceil(jobs.min(items.len()));
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || f(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioned_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        for jobs in [1, 2, 3, 7, 16] {
            let parts = partitioned(&items, jobs, |chunk| {
                chunk.iter().map(|x| x * 2).collect::<Vec<_>>()
            });
            let flat: Vec<u64> = parts.into_iter().flatten().collect();
            let seq: Vec<u64> = items.iter().map(|x| x * 2).collect();
            assert_eq!(flat, seq, "jobs={jobs}");
        }
    }

    #[test]
    fn partitioned_handles_empty_and_single() {
        let empty: Vec<u64> = Vec::new();
        let parts = partitioned(&empty, 4, |c| c.len());
        assert_eq!(parts, vec![0]);
        let one = [42u64];
        let parts = partitioned(&one, 4, |c| c.to_vec());
        assert_eq!(parts.concat(), vec![42]);
    }
}
