//! Exact integer-size knapsack dynamic programming.
//!
//! The value-only recurrence keeps one row of `O(capacity)` values per item
//! prefix. Adding item `(s, w)` maps the old row to a new one:
//! `new[c] = old[c]` for `c < s`, and for `c >= s`
//! `new[c] = if old[c - s] + w > old[c] { old[c - s] + w } else { old[c] }`.
//! The kernel writes `new` into a second buffer and swaps the two, so the
//! update is one straight zip over slices with no dependency between cells,
//! which LLVM vectorises for every `s`, including 0, in safe Rust. It is
//! bit-exact against the classic in-place downward scan over one row: that
//! scan also reads `c - s` before it is overwritten, so every cell gets the
//! same operands and the same comparison.
//!
//! Solution reconstruction uses Hirschberg-style divide and conquer: split
//! the items in half, run a forward DP over the first half and a backward DP
//! over the second, take the first capacity split that maximizes the combined
//! value, and recurse. Each recursion level does at most `n * capacity` row
//! updates in total, so the whole reconstruction costs at most twice the
//! value-only DP while never materializing the `n x capacity` choice matrix.
//! Every node reuses three rows allocated once per solve; the splits, and so
//! the selected set, are those of the single-row version.
//!
//! Two further cuts were measured on the paper's heavy regime and rejected:
//! clamping each half's row to its total item size saved nothing beyond
//! noise, and dropping items larger than the scaled capacity up front never
//! fired. It cannot under MRIS, whose eligible jobs have volume at most
//! `R * gamma_k`, within the knapsack capacity `R * M * gamma_k`.

use crate::{assert_valid_items, Item, KnapsackSolver, Solution, SolveScratch};

/// Best achievable weight for each capacity `0..=cap` over the given items,
/// left in `out[..=cap]`. `spare[..=cap]` is the second row of the double
/// buffer; both are overwritten.
fn dp_values(sizes: &[u64], weights: &[f64], cap: usize, out: &mut [f64], spare: &mut [f64]) {
    let mut old = &mut out[..=cap];
    let mut new = &mut spare[..=cap];
    let mut in_spare = false;
    old.fill(0.0);
    for (&s, &w) in sizes.iter().zip(weights) {
        if s > cap as u64 || w <= 0.0 {
            continue;
        }
        let s = s as usize;
        new[..s].copy_from_slice(&old[..s]);
        for ((cell, &keep), &base) in new[s..].iter_mut().zip(&old[s..]).zip(&old[..=cap - s]) {
            let candidate = base + w;
            *cell = if candidate > keep { candidate } else { keep };
        }
        std::mem::swap(&mut old, &mut new);
        in_spare = !in_spare;
    }
    if in_spare {
        new.copy_from_slice(old);
    }
}

/// The three DP rows the reconstruction reuses at every node.
struct Rows {
    left: Vec<f64>,
    right: Vec<f64>,
    spare: Vec<f64>,
}

/// Reconstructs one optimal selection of `items[lo..hi]` at capacity `cap`
/// into `selected`, using divide and conquer.
fn dp_reconstruct(
    sizes: &[u64],
    weights: &[f64],
    lo: usize,
    hi: usize,
    cap: u64,
    rows: &mut Rows,
    selected: &mut Vec<usize>,
) {
    if lo >= hi || cap == 0 {
        // Zero-capacity subproblems can still take zero-size items.
        for i in lo..hi {
            if sizes[i] == 0 && weights[i] > 0.0 {
                selected.push(i);
            }
        }
        return;
    }
    if hi - lo == 1 {
        if sizes[lo] <= cap && weights[lo] > 0.0 {
            selected.push(lo);
        }
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let top = cap as usize;
    let (left, right, spare) = (&mut rows.left, &mut rows.right, &mut rows.spare);
    dp_values(&sizes[lo..mid], &weights[lo..mid], top, left, spare);
    dp_values(&sizes[mid..hi], &weights[mid..hi], top, right, spare);
    let mut best_c = 0usize;
    let mut best = f64::NEG_INFINITY;
    for c in 0..=top {
        let v = left[c] + right[top - c];
        if v > best {
            best = v;
            best_c = c;
        }
    }
    dp_reconstruct(sizes, weights, lo, mid, best_c as u64, rows, selected);
    dp_reconstruct(sizes, weights, mid, hi, cap - best_c as u64, rows, selected);
}

/// Solves the 0/1 knapsack with integer sizes exactly.
///
/// Returns the selected indices (strictly increasing) achieving the maximum
/// total weight subject to `sum(sizes[selected]) <= cap`. Runs in
/// `O(n * cap)` time (times two for reconstruction) and `O(cap)` memory.
///
/// Items with non-positive weight are never selected (selecting them cannot
/// increase the objective and only consumes capacity).
pub fn solve_integer(sizes: &[u64], weights: &[f64], cap: u64) -> Vec<usize> {
    assert_eq!(sizes.len(), weights.len());
    // Clamp the capacity to the total size: larger capacities are equivalent
    // and only waste DP columns.
    let total: u64 = sizes.iter().fold(0u64, |a, &b| a.saturating_add(b));
    let cap = cap.min(total);
    let row = vec![0.0; cap as usize + 1];
    let mut rows = Rows {
        left: row.clone(),
        right: row.clone(),
        spare: row,
    };
    let mut selected = Vec::new();
    dp_reconstruct(
        sizes,
        weights,
        0,
        sizes.len(),
        cap,
        &mut rows,
        &mut selected,
    );
    selected.sort_unstable();
    selected
}

/// Best achievable total weight at integer capacity `cap` (value only).
pub fn max_weight_integer(sizes: &[u64], weights: &[f64], cap: u64) -> f64 {
    assert_eq!(sizes.len(), weights.len());
    let total: u64 = sizes.iter().fold(0u64, |a, &b| a.saturating_add(b));
    let cap = cap.min(total);
    let mut out = vec![0.0; cap as usize + 1];
    let mut spare = vec![0.0; cap as usize + 1];
    dp_values(sizes, weights, cap as usize, &mut out, &mut spare);
    *out.last().unwrap()
}

/// Exact pseudo-polynomial knapsack over real sizes, via fixed-point scaling.
///
/// Real sizes are multiplied by `resolution` and rounded **up**; the capacity
/// is rounded **down**. Rounding in opposite directions keeps every returned
/// selection feasible at the true capacity, at the cost of possibly missing
/// solutions that only fit by less than one tick. With `resolution` large
/// relative to `1/min_gap` this is exact; it exists mainly as the test oracle
/// and for small instances — MRIS itself uses [`Cadp`](crate::Cadp).
#[derive(Debug, Clone, Copy)]
pub struct ExactDp {
    /// Ticks per unit of size. Default `1024.0`.
    pub resolution: f64,
}

impl Default for ExactDp {
    fn default() -> Self {
        ExactDp { resolution: 1024.0 }
    }
}

impl KnapsackSolver for ExactDp {
    fn name(&self) -> &'static str {
        "exact-dp"
    }

    fn solve_into(&self, scratch: &mut SolveScratch, items: &[Item], capacity: f64) -> Solution {
        assert_valid_items(items);
        crate::record_solve(self.name(), items.len());
        if items.is_empty() || capacity < 0.0 {
            return Solution::empty();
        }
        scratch.sizes.clear();
        scratch.sizes.extend(
            items
                .iter()
                .map(|it| (it.size * self.resolution).ceil() as u64),
        );
        scratch.weights.clear();
        scratch.weights.extend(items.iter().map(|it| it.weight));
        let cap = (capacity * self.resolution).floor().max(0.0) as u64;
        let selected = solve_integer(&scratch.sizes, &scratch.weights, cap);
        Solution::from_selected(items, selected)
    }

    fn capacity_blowup(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weight_of(selected: &[usize], weights: &[f64]) -> f64 {
        selected.iter().map(|&i| weights[i]).sum()
    }

    #[test]
    fn tiny_exact() {
        // Classic: capacity 10, items (w, s): (60,5) (50,4) (40,6) (10,3).
        let sizes = [5, 4, 6, 3];
        let weights = [60.0, 50.0, 40.0, 10.0];
        let sel = solve_integer(&sizes, &weights, 10);
        assert_eq!(sel, vec![0, 1]);
        assert_eq!(max_weight_integer(&sizes, &weights, 10), 110.0);
    }

    #[test]
    fn zero_capacity_takes_only_zero_size() {
        let sizes = [0, 1, 0];
        let weights = [5.0, 9.0, 0.0];
        let sel = solve_integer(&sizes, &weights, 0);
        // Item 2 has zero weight: not selected.
        assert_eq!(sel, vec![0]);
    }

    #[test]
    fn capacity_above_total_takes_all_positive() {
        let sizes = [3, 4, 5];
        let weights = [1.0, 0.0, 2.0];
        let sel = solve_integer(&sizes, &weights, 1_000_000);
        assert_eq!(sel, vec![0, 2]);
    }

    #[test]
    fn reconstruction_matches_value_dp() {
        // Deterministic pseudo-random instance; checks the Hirschberg
        // reconstruction returns a selection achieving the value-DP optimum
        // and respecting the capacity.
        let mut state = 0x243F6A88u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for trial in 0..30 {
            let n = 1 + (next() % 40) as usize;
            let sizes: Vec<u64> = (0..n).map(|_| next() % 50).collect();
            let weights: Vec<f64> = (0..n).map(|_| (next() % 100) as f64).collect();
            let cap = next() % 300;
            let sel = solve_integer(&sizes, &weights, cap);
            let total_size: u64 = sel.iter().map(|&i| sizes[i]).sum();
            assert!(total_size <= cap.min(sizes.iter().sum()), "trial {trial}");
            let got = weight_of(&sel, &weights);
            let want = max_weight_integer(&sizes, &weights, cap);
            assert!((got - want).abs() < 1e-9, "trial {trial}: {got} vs {want}");
        }
    }

    #[test]
    fn exact_dp_trait_respects_capacity() {
        let items = vec![
            Item::new(60.0, 0.5),
            Item::new(50.0, 0.4),
            Item::new(40.0, 0.6),
        ];
        let sol = ExactDp::default().solve(&items, 1.0);
        assert!(sol.size <= 1.0 + 1e-9);
        assert_eq!(sol.selected, vec![0, 1]);
    }

    #[test]
    fn empty_items() {
        assert_eq!(ExactDp::default().solve(&[], 5.0), Solution::empty());
        assert!(solve_integer(&[], &[], 5).is_empty());
    }
}
