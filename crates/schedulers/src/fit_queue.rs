//! The pending queue shared by PQ, CA-PQ and BF-EXEC.
//!
//! All three walk their queued jobs in `(key, id)` order and start each job
//! that fits on one of a few target machines (first fit). [`FitQueue`] keeps
//! that order in a list of short sorted blocks, and each block keeps the
//! per-resource minimum demand of its entries in exact [`Amount`] ticks. A
//! walk skips a whole block when that minimum fits on none of the target
//! machines: every entry of the block demands at least the minimum in each
//! resource, so none of them could fit either. Within one dispatch
//! capacity only shrinks, so a skipped block stays unplaceable for the rest
//! of the walk, and the visit order and every placement equal the walk over
//! the whole queue.
//!
//! Keys are taken at insert time: weight aging rescales a re-released job's
//! weight, so its key can differ from the one it had before it was killed.

use mris_sim::{ClusterState, OrdTime};
use mris_types::{Amount, JobId};

/// Target block length. A block splits in half once it holds more than
/// twice this, and a block shrunk by a walk folds into its predecessor when
/// both fit in one block.
const BLOCK: usize = 64;

/// The first of `machines` (in the given order) where `demands` fits now.
pub(crate) fn first_fit_among(
    cluster: &ClusterState,
    machines: &[usize],
    demands: &[Amount],
) -> Option<usize> {
    machines.iter().copied().find(|&m| cluster.fits(m, demands))
}

/// One sorted run of entries with the per-resource minimum of its demands.
#[derive(Debug, Clone)]
struct Block {
    entries: Vec<(OrdTime, JobId)>,
    /// Flattened `entries.len() x R` demands, in entry order.
    demands: Vec<Amount>,
    /// Per-resource minimum of `demands` (`Amount::MAX` when empty).
    min: Vec<Amount>,
    /// An entry was inserted since the last walk.
    fresh: bool,
}

impl Block {
    fn new(entries: Vec<(OrdTime, JobId)>, demands: Vec<Amount>, r: usize, fresh: bool) -> Self {
        let mut block = Block {
            entries,
            demands,
            min: Vec::new(),
            fresh,
        };
        block.recompute_min(r);
        block
    }

    fn recompute_min(&mut self, r: usize) {
        self.min.clear();
        self.min.resize(r, Amount::MAX);
        for d in self.demands.chunks_exact(r) {
            for (m, &x) in self.min.iter_mut().zip(d) {
                *m = (*m).min(x);
            }
        }
    }
}

/// Pending jobs in `(key, id)` order, walked first-fit with block pruning.
#[derive(Debug, Clone, Default)]
pub(crate) struct FitQueue {
    /// Number of resources `R`, fixed by the first insert.
    resources: usize,
    /// Sorted, non-empty blocks; a lone block may be empty.
    blocks: Vec<Block>,
    len: usize,
}

impl FitQueue {
    /// Number of queued jobs.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of blocks, for tests that need a queue spanning several.
    #[cfg(test)]
    pub(crate) fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The queued `(key, id)` entries in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (OrdTime, JobId)> + '_ {
        self.blocks.iter().flat_map(|b| b.entries.iter().copied())
    }

    /// Queues `job` under `key`. The `(key, job)` pair must not be queued.
    pub(crate) fn insert(&mut self, key: OrdTime, job: JobId, demands: &[Amount]) {
        let entry = (key, job);
        let r = demands.len();
        if self.blocks.is_empty() {
            self.resources = r;
            self.blocks
                .push(Block::new(Vec::new(), Vec::new(), r, false));
        }
        debug_assert_eq!(r, self.resources, "demand vector length changed");
        let b = self
            .blocks
            .partition_point(|b| b.entries.last().is_some_and(|&last| last < entry))
            .min(self.blocks.len() - 1);
        let block = &mut self.blocks[b];
        let at = block.entries.partition_point(|&e| e < entry);
        debug_assert!(block.entries.get(at) != Some(&entry), "{job} queued twice");
        block.entries.insert(at, entry);
        block
            .demands
            .splice(at * r..at * r, demands.iter().copied());
        for (m, &d) in block.min.iter_mut().zip(demands) {
            *m = (*m).min(d);
        }
        block.fresh = true;
        self.len += 1;
        if block.entries.len() > 2 * BLOCK {
            let mid = block.entries.len() / 2;
            let entries = block.entries.split_off(mid);
            let demands = block.demands.split_off(mid * r);
            block.recompute_min(r);
            let right = Block::new(entries, demands, r, block.fresh);
            self.blocks.insert(b + 1, right);
        }
    }

    /// Walks the queue in `(key, id)` order and offers each entry's job and
    /// demands to `take`, which returns whether it started the job; started
    /// entries leave the queue.
    ///
    /// A block is visited only if `scan(ctx, min, fresh)` holds, where `min`
    /// is the per-resource minimum demand of its entries and `fresh` says
    /// whether an entry was inserted since the previous walk. `scan` must
    /// hold for every block holding an entry `take` would start; since
    /// capacity only shrinks during a dispatch, testing `min` against the
    /// machines `take` tests is enough.
    ///
    /// # Errors
    ///
    /// The first error of `take`; the walk stops there and the queue keeps
    /// every entry not yet started.
    pub(crate) fn take_each<C, E>(
        &mut self,
        ctx: &mut C,
        scan: impl Fn(&C, &[Amount], bool) -> bool,
        mut take: impl FnMut(&mut C, JobId, &[Amount]) -> Result<bool, E>,
    ) -> Result<(), E> {
        let r = self.resources;
        let mut b = 0;
        while b < self.blocks.len() {
            let block = &mut self.blocks[b];
            let fresh = std::mem::take(&mut block.fresh);
            if !scan(ctx, &block.min, fresh) {
                b += 1;
                continue;
            }
            // Compact in place, keeping the entries `take` declines.
            let mut result = Ok(());
            let mut kept = 0;
            for i in 0..block.entries.len() {
                let taken = result.is_ok()
                    && take(ctx, block.entries[i].1, &block.demands[i * r..(i + 1) * r])
                        .unwrap_or_else(|e| {
                            result = Err(e);
                            false
                        });
                if !taken {
                    if kept < i {
                        block.entries[kept] = block.entries[i];
                        block.demands.copy_within(i * r..(i + 1) * r, kept * r);
                    }
                    kept += 1;
                }
            }
            let removed = block.entries.len() - kept;
            if removed > 0 {
                block.entries.truncate(kept);
                block.demands.truncate(kept * r);
                block.recompute_min(r);
                self.len -= removed;
            }
            result?;
            if removed > 0 && b > 0 && self.blocks[b - 1].entries.len() + kept <= BLOCK {
                let block = self.blocks.remove(b);
                let prev = &mut self.blocks[b - 1];
                prev.entries.extend_from_slice(&block.entries);
                prev.demands.extend_from_slice(&block.demands);
                for (m, &x) in prev.min.iter_mut().zip(&block.min) {
                    *m = (*m).min(x);
                }
            } else if kept == 0 && self.blocks.len() > 1 {
                self.blocks.remove(b);
            } else {
                b += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use mris_rng::Rng;

    /// Every block is sorted, non-empty (unless alone), in order with its
    /// neighbours, at most `2 * BLOCK` long, and holds its true minimum.
    fn assert_invariants(q: &FitQueue, reference: &BTreeSet<(OrdTime, JobId)>) {
        let got: Vec<_> = q.iter().collect();
        let want: Vec<_> = reference.iter().copied().collect();
        assert_eq!(got, want, "iteration order differs from a BTreeSet");
        assert_eq!(q.len(), reference.len());
        for block in &q.blocks {
            assert!(!block.entries.is_empty() || q.blocks.len() == 1);
            assert!(block.entries.len() <= 2 * BLOCK);
            assert_eq!(block.demands.len(), block.entries.len() * q.resources);
            let mut min = vec![Amount::MAX; q.resources];
            for d in block.demands.chunks_exact(q.resources) {
                for (m, &x) in min.iter_mut().zip(d) {
                    *m = (*m).min(x);
                }
            }
            assert_eq!(block.min, min, "stale block minimum");
        }
    }

    fn demands_of(job: JobId, r: usize) -> Vec<Amount> {
        (0..r as u64)
            .map(|i| (job.0 as u64 * 7919 + i * 104_729) % 1000)
            .collect()
    }

    #[test]
    fn random_inserts_and_removals_keep_order_and_block_minima() {
        let mut rng = Rng::new(13);
        for round in 0..20 {
            let r = 1 + round % 4;
            let mut q = FitQueue::default();
            let mut reference = BTreeSet::new();
            let mut next_id = 0u32;
            for _ in 0..40 {
                // A burst of inserts with heavily tied keys.
                for _ in 0..rng.gen_range(0..120usize) {
                    let key = OrdTime(rng.next_u64_below(16) as f64 * 0.5);
                    let job = JobId(next_id);
                    next_id += 1;
                    q.insert(key, job, &demands_of(job, r));
                    reference.insert((key, job));
                }
                assert_invariants(&q, &reference);
                // Remove a random subset through a walk, skipping blocks at
                // random (a skipped block keeps all its entries).
                let mut ctx = Rng::new(rng.next_u64());
                let p = rng.gen_range(0..100u64);
                let mut taken = Vec::new();
                q.take_each(
                    &mut ctx,
                    |_, _, _| true,
                    |ctx, job, demands| {
                        assert_eq!(demands, demands_of(job, r));
                        let take = ctx.next_u64_below(100) < p;
                        if take {
                            taken.push(job);
                        }
                        Ok::<_, ()>(take)
                    },
                )
                .unwrap();
                reference.retain(|&(_, j)| !taken.contains(&j));
                assert_invariants(&q, &reference);
            }
        }
    }

    #[test]
    fn walk_skips_blocks_whose_minimum_fails_scan_and_stops_at_an_error() {
        let mut q = FitQueue::default();
        for i in 0..300u32 {
            // Only every 100th job is small, so some blocks hold none.
            let d = if i % 100 == 0 { 1 } else { 500 };
            q.insert(OrdTime(i as f64), JobId(i), &[d]);
        }
        let mut visited = 0;
        q.take_each(
            &mut (),
            |_, min, _| min[0] < 500,
            |_, _, demands| {
                visited += 1;
                Ok::<_, ()>(demands[0] < 500)
            },
        )
        .unwrap();
        assert_eq!(q.len(), 297);
        assert!(visited < 300, "no block was skipped");
        assert!(q.iter().all(|(_, j)| j.0 % 100 != 0));

        let err = q.take_each(
            &mut (),
            |_, _, _| true,
            |_, j, _| {
                if j.0 == 3 {
                    Err(j)
                } else {
                    Ok(j.0 < 3)
                }
            },
        );
        assert_eq!(err, Err(JobId(3)));
        assert_eq!(q.len(), 295, "jobs 1 and 2 left, the rest stayed");
        assert_eq!(q.iter().next(), Some((OrdTime(3.0), JobId(3))));
    }
}
