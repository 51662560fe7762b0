//! Deterministic work split for parallel kernels.
//!
//! Parallel sweeps over a state space must not let the thread count leak
//! into the arithmetic: the reachability engine's determinism contract
//! demands bitwise-identical results for 1, 2 or 64 workers. Each item's
//! update reads only the previous iterate, so the split below only
//! decides *which worker owns which items*, never what any item computes.

use std::ops::Range;

/// Assigns `num_blocks` consecutive blocks to `workers` contiguous
/// shares, as evenly as possible (the first `num_blocks % workers` shares
/// get one extra block). Returned ranges index *blocks*, not items; empty
/// shares are possible when there are more workers than blocks.
///
/// # Panics
///
/// Panics if `workers == 0`.
///
/// # Examples
///
/// ```
/// use unicon_sparse::chunk::assign_blocks;
///
/// assert_eq!(assign_blocks(7, 3), vec![0..3, 3..5, 5..7]);
/// assert_eq!(assign_blocks(2, 4), vec![0..1, 1..2, 2..2, 2..2]);
/// ```
pub fn assign_blocks(num_blocks: usize, workers: usize) -> Vec<Range<usize>> {
    assert!(workers > 0, "need at least one worker");
    let base = num_blocks / workers;
    let extra = num_blocks % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_blocks_is_balanced_and_contiguous() {
        for (blocks, workers) in [(7, 3), (8, 4), (3, 5), (0, 2), (100, 7)] {
            let shares = assign_blocks(blocks, workers);
            assert_eq!(shares.len(), workers);
            assert_eq!(shares.first().map(|r| r.start), Some(0));
            let mut prev_end = 0;
            let (mut min_len, mut max_len) = (usize::MAX, 0);
            for r in &shares {
                assert_eq!(r.start, prev_end);
                prev_end = r.end;
                min_len = min_len.min(r.len());
                max_len = max_len.max(r.len());
            }
            assert_eq!(prev_end, blocks);
            assert!(max_len - min_len <= 1, "unbalanced: {shares:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn assign_blocks_rejects_zero_workers() {
        assign_blocks(4, 0);
    }
}
