//! Differential test of the integer knapsack DP against a reference copy of
//! the single-row implementation it replaced: an in-place downward scan per
//! item and a Hirschberg reconstruction that allocates its two rows at every
//! node. The library must return the *same* selected indices — not merely
//! an optimal set — because MRIS schedules depend on which of several tied
//! optima CADP picks. The generator is shaped like CADP's scaled instances
//! and heavy on ties: integer-valued, repeated weights, about 45% size-0
//! items, many sizes below 8, and capacities of `floor(n / eps)` as well as
//! above the total size.

use mris_knapsack::{max_weight_integer, solve_integer};
use mris_rng::prop::{check, Config};
use mris_rng::{prop_assert, prop_assert_eq, Rng};

/// Reference value DP: one row, updated in place by a downward scan.
fn ref_dp_values(sizes: &[u64], weights: &[f64], lo: usize, hi: usize, cap: u64, out: &mut [f64]) {
    out.fill(0.0);
    for i in lo..hi {
        let s = sizes[i] as usize;
        let w = weights[i];
        if s > cap as usize || w <= 0.0 {
            continue;
        }
        for c in (s..=cap as usize).rev() {
            let candidate = out[c - s] + w;
            if candidate > out[c] {
                out[c] = candidate;
            }
        }
    }
}

/// Reference Hirschberg reconstruction with per-node row allocation.
fn ref_reconstruct(
    sizes: &[u64],
    weights: &[f64],
    lo: usize,
    hi: usize,
    cap: u64,
    selected: &mut Vec<usize>,
) {
    if lo >= hi || cap == 0 {
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
    let mut left = vec![0.0; cap as usize + 1];
    let mut right = vec![0.0; cap as usize + 1];
    ref_dp_values(sizes, weights, lo, mid, cap, &mut left);
    ref_dp_values(sizes, weights, mid, hi, cap, &mut right);
    let mut best_c = 0usize;
    let mut best = f64::NEG_INFINITY;
    for c in 0..=cap as usize {
        let v = left[c] + right[cap as usize - c];
        if v > best {
            best = v;
            best_c = c;
        }
    }
    ref_reconstruct(sizes, weights, lo, mid, best_c as u64, selected);
    ref_reconstruct(sizes, weights, mid, hi, cap - best_c as u64, selected);
}

fn ref_solve_integer(sizes: &[u64], weights: &[f64], cap: u64) -> Vec<usize> {
    let total: u64 = sizes.iter().fold(0u64, |a, &b| a.saturating_add(b));
    let cap = cap.min(total);
    let mut selected = Vec::new();
    ref_reconstruct(sizes, weights, 0, sizes.len(), cap, &mut selected);
    selected.sort_unstable();
    selected
}

fn ref_max_weight_integer(sizes: &[u64], weights: &[f64], cap: u64) -> f64 {
    let total: u64 = sizes.iter().fold(0u64, |a, &b| a.saturating_add(b));
    let cap = cap.min(total);
    let mut out = vec![0.0; cap as usize + 1];
    ref_dp_values(sizes, weights, 0, sizes.len(), cap, &mut out);
    *out.last().unwrap()
}

/// `(items, cap)` with items as `(scaled size, weight)` pairs.
fn gen_case(rng: &mut Rng) -> (Vec<(u64, f64)>, u64) {
    let n = rng.gen_range(0..=96usize);
    let eps = *rng.choose(&[0.1, 0.25, 0.5, 0.9]);
    let scaled_cap = (n as f64 / eps).floor() as u64;
    // A handful of distinct weights shared by all items forces ties; a
    // few zero and half-integer weights cover the skipped and the
    // fractional paths.
    let distinct = rng.gen_range(1..=4usize);
    let pool: Vec<f64> = (0..distinct)
        .map(|_| match rng.gen_range(0..10u64) {
            0 => 0.0,
            1 => rng.gen_range(1..=6u64) as f64 + 0.5,
            _ => rng.gen_range(1..=6u64) as f64,
        })
        .collect();
    let items: Vec<(u64, f64)> = (0..n)
        .map(|_| {
            let size = match rng.gen_range(0..100u64) {
                0..=44 => 0,
                45..=79 => rng.gen_range(1..8u64),
                80..=97 => rng.gen_range(8..=scaled_cap.max(8)),
                // Larger than the capacity: never fits.
                _ => scaled_cap + rng.gen_range(1..=8u64),
            };
            (size, *rng.choose(&pool))
        })
        .collect();
    let total: u64 = items.iter().map(|&(s, _)| s).sum();
    let cap = match rng.gen_range(0..4u64) {
        0 => total + rng.gen_range(0..=16u64),
        1 => rng.gen_range(0..=total),
        _ => scaled_cap,
    };
    (items, cap)
}

#[test]
fn solve_integer_matches_reference_selection() {
    check(
        "solve_integer = in-place reference",
        &Config::with_cases(512),
        gen_case,
        |(items, cap)| {
            let sizes: Vec<u64> = items.iter().map(|&(s, _)| s).collect();
            let weights: Vec<f64> = items.iter().map(|&(_, w)| w).collect();
            prop_assert_eq!(
                solve_integer(&sizes, &weights, *cap),
                ref_solve_integer(&sizes, &weights, *cap)
            );
            let got = max_weight_integer(&sizes, &weights, *cap);
            let want = ref_max_weight_integer(&sizes, &weights, *cap);
            prop_assert!(
                got.to_bits() == want.to_bits(),
                "max_weight_integer {got} != reference {want}"
            );
            Ok(())
        },
    );
}
