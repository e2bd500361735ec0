//! Order statistics helpers.
//!
//! Algorithm 2 of the paper repeatedly needs "the sum of the `R` smallest
//! `x_u` values" — centrally this is a selection problem; in the distributed
//! algorithm it becomes a binary search over a BFS tree (see
//! `lmt-congest::binsearch`). The centralized versions here serve as the
//! reference implementations that the distributed protocol is tested against,
//! and are also used by the ground-truth local-mixing-time oracle.

/// Sum of the `r` smallest values of `xs` (not required to be sorted).
///
/// `O(n log n)`; good enough for reference use. Returns `None` if `r > n`.
pub fn sum_of_r_smallest(xs: &[f64], r: usize) -> Option<f64> {
    if r > xs.len() {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sum_of_r_smallest"));
    Some(v[..r].iter().sum())
}

/// Order-preserving `u64` image of a non-NaN `f64` (Herf, *Radix Tricks*,
/// <http://stereopsis.com/radix.html>): `a < b ⇔ key(a) < key(b)` and
/// `a == b ⇔ key(a) == key(b)` for all non-NaN `a`, `b`.
///
/// Non-negative floats already order like their bit patterns, so they only
/// get the sign bit set (lifting them above every negative); negative
/// floats order backwards, so all their bits flip. `−0.0` maps to the key
/// of `+0.0`, as the two compare equal. NaN has no place in the order: the
/// caller must reject it.
pub fn f64_order_key(v: f64) -> u64 {
    let bits = if v == 0.0 { 0 } else { v.to_bits() };
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Bits per radix digit: 2¹¹ counters of 4 bytes stay in L1.
const RADIX_BITS: u32 = 11;
const RADIX_BUCKETS: usize = 1 << RADIX_BITS;
/// `⌈64 / RADIX_BITS⌉` digits cover a `u64` key.
const RADIX_PASSES: usize = 64usize.div_ceil(RADIX_BITS as usize);

fn radix_digit(key: u64, pass: usize) -> usize {
    (key >> (pass as u32 * RADIX_BITS)) as usize & (RADIX_BUCKETS - 1)
}

/// Stable sort of the pairs `(vals[i], ids[i])` by value, written to
/// `(vals_out, ids_out)`: equal values keep their input order, and `−0.0`
/// ties with `+0.0`.
///
/// An LSD radix sort with 11-bit digits of [`f64_order_key`], recomputed
/// from the value on every pass (so no key array is stored). Digits that
/// are the same for every value are found first (an OR over each key's
/// difference from the first key) and skipped outright: a distribution
/// near its stationary value differs only in its low mantissa bits. One
/// counting pass histograms the remaining digits, then each moves the
/// pairs once between the input and output buffers. `O(m)` time, no
/// allocation. `vals` and `ids` are clobbered.
///
/// # Panics
/// Panics if the four slices differ in length or hold `u32::MAX` or more
/// pairs. NaN values are not detected; they land in an unspecified place.
pub fn radix_sort_f64_pairs(
    vals: &mut [f64],
    ids: &mut [u32],
    vals_out: &mut [f64],
    ids_out: &mut [u32],
) {
    let m = vals.len();
    assert!(
        ids.len() == m && vals_out.len() == m && ids_out.len() == m,
        "radix_sort_f64_pairs: buffer lengths differ"
    );
    assert!(m < u32::MAX as usize, "radix_sort_f64_pairs: too many pairs");
    let first = vals.first().map_or(0, |&v| f64_order_key(v));
    let varying = vals
        .iter()
        .fold(0, |acc, &v| acc | (f64_order_key(v) ^ first));
    let mut passes = [0usize; RADIX_PASSES];
    let mut active = 0;
    for pass in 0..RADIX_PASSES {
        if radix_digit(varying, pass) != 0 {
            passes[active] = pass;
            active += 1;
        }
    }
    let passes = &passes[..active];
    let mut counts = [[0u32; RADIX_BUCKETS]; RADIX_PASSES];
    for &v in vals.iter() {
        let k = f64_order_key(v);
        for (hist, &pass) in counts.iter_mut().zip(passes) {
            hist[radix_digit(k, pass)] += 1;
        }
    }
    // Whether the current order lives in the output buffers.
    let mut in_out = false;
    for (hist, &pass) in counts.iter_mut().zip(passes) {
        let mut start = 0u32;
        for slot in hist.iter_mut() {
            start += std::mem::replace(slot, start);
        }
        if in_out {
            radix_scatter(vals_out, ids_out, vals, ids, hist, pass);
        } else {
            radix_scatter(vals, ids, vals_out, ids_out, hist, pass);
        }
        in_out = !in_out;
    }
    if !in_out {
        vals_out.copy_from_slice(vals);
        ids_out.copy_from_slice(ids);
    }
}

/// One stable counting-sort pass on digit `pass`; `next` holds each
/// bucket's first free slot.
fn radix_scatter(
    src_vals: &[f64],
    src_ids: &[u32],
    dst_vals: &mut [f64],
    dst_ids: &mut [u32],
    next: &mut [u32; RADIX_BUCKETS],
    pass: usize,
) {
    for (&v, &id) in src_vals.iter().zip(src_ids) {
        let slot = &mut next[radix_digit(f64_order_key(v), pass)];
        let at = *slot as usize;
        *slot += 1;
        dst_vals[at] = v;
        dst_ids[at] = id;
    }
}

/// Forward-error bound `Δ` on the window cost that
/// [`SortedPrefix::best_window`] computes, for a window of width `r` over
/// `n` sorted values with `abs_sum = Σ|v_i|` and centre `c`:
/// `|F(lo) − f(lo)| ≤ Δ` for every window, where `f(lo) = Σ_{i∈[lo,lo+r)}
/// |v_i − c|` is the exact cost and `F(lo)` the computed one.
///
/// **Derivation.** Let `u = 2⁻⁵³`, `A = Σ|v_i|`, `T = A + r|c|`, and
/// `γ_n = nu/(1−nu)`. The prefix sums are sequential, so
/// `|pre[i] − Σ_{k<i} v_k| ≤ γ_n·A` for every `i` (Higham, *Accuracy and
/// Stability of Numerical Algorithms*, §4.2). The cost formula
/// `(a·c − (pre[split]−pre[lo])) + ((pre[hi]−pre[split]) − b·c)` reads four
/// prefix values, adding at most `4γ_n·A`, and rounds seven times (two
/// products, two prefix differences, two subtractions, one addition); each
/// rounding errs by at most `u` times a magnitude bounded by `T` plus the
/// errors before it, which sums to at most `4(1+u)³γ_n·A + (3+4u)u·T`. The
/// two products may also underflow, by at most `2⁻¹⁰⁷⁵` each. Since
/// `γ_n ≤ 1.01·nu` for any `n` that fits in memory,
///
/// ```text
/// Δ_true ≤ (4.05·n + 3.01)·u·T + 2⁻¹⁰⁷⁴  ≤  Δ = (8n + 8)·u·T + 4·2⁻¹⁰⁷⁴.
/// ```
///
/// The factor-of-two slack absorbs the rounding of `A` and of `Δ` itself,
/// and the two extra roundings of the `s ∈ S` total (`|p_s − c|` plus a
/// window of the other `n−1` values), so `Δ` bounds that total's error as
/// well. When `T` is not finite or exceeds `f64::MAX / 16` (where the
/// formula could overflow), the bound is `+∞`.
pub fn window_cost_error_bound(n: usize, abs_sum: f64, r: usize, c: f64) -> f64 {
    let scale = abs_sum + r as f64 * c.abs();
    if scale.is_nan() || scale > f64::MAX / 16.0 {
        return f64::INFINITY;
    }
    (8 * n + 8) as f64 * (f64::EPSILON / 2.0) * scale + 4.0 * f64::from_bits(1)
}

/// Precomputed prefix sums over a **sorted ascending** slice, supporting
/// `O(log n)` evaluation of `Σ_{i∈window} |v_i − c|` for any contiguous
/// window and constant `c`.
///
/// This is the inner kernel of the ground-truth local-mixing-time oracle:
/// for a fixed set size `R`, the optimal mixing set (the `R` values of the
/// distribution closest to `1/R`) is a contiguous window of the sorted
/// distribution, and its L1 distance to the flat vector decomposes around
/// the crossing point of `c = 1/R`.
#[derive(Clone, Debug)]
pub struct SortedPrefix {
    /// Sorted ascending values.
    vals: Vec<f64>,
    /// `pre[i] = vals[0] + … + vals[i-1]`.
    pre: Vec<f64>,
    /// `Σ |vals[i]|`, summed left to right: the scale of the cost error
    /// bound ([`window_cost_error_bound`]).
    abs_sum: f64,
}

impl SortedPrefix {
    /// Build from arbitrary values; sorts internally.
    ///
    /// # Panics
    /// Panics if any value is NaN.
    pub fn new(mut vals: Vec<f64>) -> Self {
        vals.sort_by(|a, b| a.partial_cmp(b).expect("NaN in SortedPrefix"));
        let mut sp = SortedPrefix {
            pre: Vec::with_capacity(vals.len() + 1),
            vals,
            abs_sum: 0.0,
        };
        sp.rebuild_prefix();
        sp
    }

    /// An empty prefix structure, ready for [`SortedPrefix::refill_sorted`]
    /// — the allocation-reuse entry point for per-step callers (the
    /// local-mixing oracle rebuilds the prefix every walk step).
    pub fn empty() -> Self {
        SortedPrefix::new(Vec::new())
    }

    /// Refill from values that are **already sorted ascending**, reusing
    /// the existing allocations. Produces exactly the state
    /// [`SortedPrefix::new`] would (`new` sorts, then accumulates the same
    /// prefix sums left to right), minus the sort and the allocations.
    ///
    /// Debug builds verify sortedness; release builds trust the caller.
    pub fn refill_sorted<I: IntoIterator<Item = f64>>(&mut self, vals: I) {
        self.refill_with(|buf| buf.extend(vals));
    }

    /// [`refill_sorted`](Self::refill_sorted) with the values written by
    /// `fill` straight into the (cleared) value buffer, which it must leave
    /// ascending — so a sort can use that buffer as its output.
    pub fn refill_with(&mut self, fill: impl FnOnce(&mut Vec<f64>)) {
        self.vals.clear();
        fill(&mut self.vals);
        debug_assert!(
            self.vals.windows(2).all(|w| w[0] <= w[1]),
            "refill: values not ascending"
        );
        self.rebuild_prefix();
    }

    /// Recompute `pre` and `abs_sum` from `vals`, left to right.
    fn rebuild_prefix(&mut self) {
        self.pre.clear();
        self.pre.push(0.0);
        let (mut acc, mut abs) = (0.0, 0.0);
        for &v in &self.vals {
            acc += v;
            abs += v.abs();
            self.pre.push(acc);
        }
        self.abs_sum = abs;
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True iff no values.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The sorted values.
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// `Σ_{i=lo..hi} |vals[i] − c|` for the half-open window `[lo, hi)`.
    pub fn window_abs_dev(&self, lo: usize, hi: usize, c: f64) -> f64 {
        assert!(lo <= hi && hi <= self.vals.len(), "bad window [{lo},{hi})");
        self.window_cost(lo, hi - lo, c, self.vals.partition_point(|&v| v < c))
    }

    /// The computed cost `F(lo)` of the width-`r` window at `lo`, given
    /// `lb`, the first index with `vals[lb] ≥ c`. The values are sorted, so
    /// the window's own crossing point is `lb` clamped into it.
    fn window_cost(&self, lo: usize, r: usize, c: f64, lb: usize) -> f64 {
        let hi = lo + r;
        let split = lb.clamp(lo, hi);
        // Below the split: Σ (c − v) = (split−lo)·c − (pre[split]−pre[lo]).
        let below = (split - lo) as f64 * c - (self.pre[split] - self.pre[lo]);
        // At/above: Σ (v − c) = (pre[hi]−pre[split]) − (hi−split)·c.
        let above = (self.pre[hi] - self.pre[split]) - (hi - split) as f64 * c;
        below + above
    }

    /// Minimum of [`Self::window_abs_dev`] over all windows of width `r`,
    /// returning `(best_lo, best_value)` — the earliest minimizer, bit for
    /// bit what a scan over every window finds.
    ///
    /// **Bracketed search.** Over sorted values the exact cost
    /// `f(lo) = Σ_{i∈[lo,lo+r)} |v_i − c|` is quasi-convex in `lo`: its
    /// step `f(lo+1) − f(lo) = |v_{lo+r} − c| − |v_lo − c|` is `≤ 0` while
    /// `v_lo + v_{lo+r} < 2c` and `≥ 0` from there on, and that sum only
    /// grows with `lo`. The search starts at the first `lo` with
    /// `fl(v_lo + v_{lo+r}) ≥ 2c` (binary search: `fl(a+b)` is monotone)
    /// and walks outward, evaluating each window with the scan's exact
    /// expression. The computed cost `F` is within `Δ`
    /// ([`window_cost_error_bound`]) of `f`, so on either side, once
    /// `F(lo) − best > 2Δ`, `f` is already past its valley there and every
    /// further window has `F > best`: the walk stops. Walking right, only a
    /// strictly smaller value replaces `best`; walking left, ties move it
    /// to the earlier index, which keeps the earliest minimizer. A window
    /// that lies inside the run of exact zeros costs the same bits as every
    /// other such window (the prefix sums are constant there), so the left
    /// walk crosses that run in one step.
    ///
    /// `O(log n + w)` for `w` windows visited; `w` is a handful whenever
    /// the costs near the minimum differ by more than `2Δ`. When `Δ` is
    /// infinite (non-finite or overflowing inputs), the walk visits every
    /// window.
    pub fn best_window(&self, r: usize, c: f64) -> Option<(usize, f64)> {
        let n = self.vals.len();
        if r == 0 || r > n {
            return None;
        }
        let vals = &self.vals;
        let lb = vals.partition_point(|&v| v < c);
        let last = n - r;
        let two_c = 2.0 * c;
        // First lo in [0, last) with fl(v_lo + v_{lo+r}) ≥ 2c, else `last`.
        let (mut start, mut end) = (0, last);
        while start < end {
            let mid = start + (end - start) / 2;
            if vals[mid] + vals[mid + r] < two_c {
                start = mid + 1;
            } else {
                end = mid;
            }
        }
        let slack = 2.0 * window_cost_error_bound(n, self.abs_sum, r, c);

        let mut best = (start, f64::INFINITY);
        for lo in start..=last {
            let v = self.window_cost(lo, r, c, lb);
            if v < best.1 {
                best = (lo, v);
            } else if v - best.1 > slack {
                break;
            }
        }
        let zeros = vals.partition_point(|&v| v < 0.0)..vals.partition_point(|&v| v <= 0.0);
        let mut lo = start;
        while lo > 0 {
            lo -= 1;
            let v = self.window_cost(lo, r, c, lb);
            if lo > zeros.start && lo + r <= zeros.end {
                // Inside the zero run: every window down to its start costs
                // these same bits, so take the earliest of them.
                lo = zeros.start;
            }
            if v <= best.1 {
                best = (lo, v);
            } else if v - best.1 > slack {
                break;
            }
        }
        if best.1 == f64::INFINITY {
            // No window beat +∞: the scan keeps its initial `lo = 0`.
            best.0 = 0;
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn brute_abs_dev(vals: &[f64], c: f64) -> f64 {
        vals.iter().map(|v| (v - c).abs()).sum()
    }

    #[test]
    fn r_smallest_matches_sort() {
        let xs = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(sum_of_r_smallest(&xs, 3), Some(6.0));
        assert_eq!(sum_of_r_smallest(&xs, 0), Some(0.0));
        assert_eq!(sum_of_r_smallest(&xs, 6), None);
    }

    #[test]
    fn window_abs_dev_matches_brute_force() {
        let vals = vec![0.9, 0.1, 0.4, 0.4, 0.2, 0.75, 0.0];
        let sp = SortedPrefix::new(vals);
        let sorted = sp.values().to_vec();
        for lo in 0..sorted.len() {
            for hi in lo..=sorted.len() {
                for &c in &[0.0, 0.15, 0.4, 1.2] {
                    let got = sp.window_abs_dev(lo, hi, c);
                    let want = brute_abs_dev(&sorted[lo..hi], c);
                    assert!((got - want).abs() < 1e-12, "lo={lo} hi={hi} c={c}");
                }
            }
        }
    }

    /// The `O(n)` reference for [`SortedPrefix::best_window`]: every
    /// window, in order, keeping the earliest strict minimum.
    fn best_window_scan(sp: &SortedPrefix, r: usize, c: f64) -> Option<(usize, f64)> {
        if r == 0 || r > sp.len() {
            return None;
        }
        let lb = sp.vals.partition_point(|&v| v < c);
        let mut best = (0usize, f64::INFINITY);
        for lo in 0..=(sp.len() - r) {
            let v = sp.window_cost(lo, r, c, lb);
            if v < best.1 {
                best = (lo, v);
            }
        }
        Some(best)
    }

    /// `best_window` equals the reference scan: same `lo`, same bits.
    fn assert_matches_scan(sp: &SortedPrefix, r: usize, c: f64, what: &str) {
        let got = sp.best_window(r, c);
        let want = best_window_scan(sp, r, c);
        match (got, want) {
            (None, None) => {}
            (Some((gl, gv)), Some((wl, wv))) => {
                assert_eq!(gl, wl, "{what}: lo differs (r={r} c={c:e})");
                assert_eq!(gv.to_bits(), wv.to_bits(), "{what}: value differs (r={r} c={c:e})");
            }
            other => panic!("{what}: {other:?} (r={r} c={c:e})"),
        }
    }

    /// Widths to try on `n` values: every width for small `n`, otherwise a
    /// geometric grid like the oracle's plus the edges.
    fn widths(n: usize) -> Vec<usize> {
        if n <= 64 {
            return (0..=n + 1).collect();
        }
        let mut rs = vec![0, 1, 2, n / 2, n - 1, n, n + 1];
        let mut r = (n / 8).max(1) as f64;
        while r < n as f64 {
            rs.push(r.ceil() as usize);
            r *= 1.0 + 1.0 / (8.0 * std::f64::consts::E);
        }
        rs
    }

    /// Check every width against the reference at `c = 1/r` and at a few
    /// centres off the grid.
    fn check_family(vals: Vec<f64>, what: &str) {
        let sp = SortedPrefix::new(vals);
        let n = sp.len();
        for r in widths(n) {
            let own = if r == 0 { 1.0 } else { 1.0 / r as f64 };
            for c in [own, 0.0, -0.0, own * 0.5, own * 3.0, 1e-300, -0.25] {
                assert_matches_scan(&sp, r, c, what);
            }
        }
    }

    fn rng(seed: u64) -> rand::rngs::SmallRng {
        crate::rng::fork(seed, 13)
    }

    #[test]
    fn best_window_matches_per_window_scan() {
        // best_window must agree with a literal window_abs_dev scan —
        // same earliest lo, same value bits.
        let sp = SortedPrefix::new(vec![0.0, 0.0, 0.1, 0.1, 0.1, 0.25, 0.3, 0.9]);
        for r in 1..=8 {
            for &c in &[0.0, 0.05, 0.1, 0.2, 0.5, 1.0] {
                let got = sp.best_window(r, c).unwrap();
                let mut want = (0usize, f64::INFINITY);
                for lo in 0..=(sp.len() - r) {
                    let v = sp.window_abs_dev(lo, lo + r, c);
                    if v < want.1 {
                        want = (lo, v);
                    }
                }
                assert_eq!(got.0, want.0, "r={r} c={c}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "r={r} c={c}");
            }
        }
    }

    #[test]
    fn bracketed_search_matches_scan_on_heavy_ties() {
        let mut rng = rng(1);
        let levels = [0.0, 0.0, 0.1, 0.25, 0.25, 0.3, 1.0 / 3.0];
        for n in [1usize, 2, 3, 7, 16, 40, 64, 300] {
            let vals = (0..n)
                .map(|_| levels[rng.gen_range(0..levels.len())])
                .collect();
            check_family(vals, "ties");
        }
    }

    #[test]
    fn bracketed_search_matches_scan_on_zero_plateaus() {
        // Sparse walk distributions: a long run of exact zeros and a small
        // support carrying all the mass, from a point mass up to n/2 nodes.
        let mut rng = rng(2);
        for (n, support) in [(64usize, 1usize), (64, 9), (1024, 1), (1024, 73), (4096, 600)] {
            let mut vals = vec![0.0; n];
            let mass: Vec<f64> = (0..support).map(|_| rng.gen::<f64>() + 0.01).collect();
            let total: f64 = mass.iter().sum();
            for (slot, m) in vals.iter_mut().zip(&mass) {
                *slot = m / total;
            }
            check_family(vals, "zero plateau");
        }
        // Zeros of both signs between negatives and positives.
        check_family(vec![-0.5, -0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.2, 0.7], "signed zeros");
    }

    #[test]
    fn bracketed_search_matches_scan_on_near_uniform_values() {
        // 1/n·(1 ± 1e-9): every window costs nearly the same, so the walk
        // leans on the error bound, not on cost gaps.
        let mut rng = rng(3);
        for n in [100usize, 1 << 12, 1 << 14] {
            let vals = (0..n)
                .map(|_| (1.0 + 1e-9 * (2.0 * rng.gen::<f64>() - 1.0)) / n as f64)
                .collect();
            check_family(vals, "near uniform");
        }
        // Exactly uniform: one long plateau of equal costs.
        check_family(vec![1.0 / 1000.0; 1000], "uniform");
    }

    #[test]
    fn bracketed_search_matches_scan_on_subnormals() {
        let tiny = f64::from_bits(1);
        let mut rng = rng(4);
        let vals: Vec<f64> = (0..200)
            .map(|_| tiny * rng.gen_range(0..8u32) as f64)
            .collect();
        let sp = SortedPrefix::new(vals.clone());
        for r in widths(sp.len()) {
            for c in [tiny, 3.0 * tiny, 2.5 * tiny, f64::MIN_POSITIVE, 0.0, 1.0 / r.max(1) as f64] {
                assert_matches_scan(&sp, r, c, "subnormal");
            }
        }
        check_family(vals, "subnormal");
    }

    #[test]
    fn bracketed_search_matches_scan_on_mixed_and_non_finite_values() {
        let mut rng = rng(5);
        let vals: Vec<f64> = (0..500).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
        check_family(vals, "mixed signs");
        // Infinite values make the bound infinite: the walk covers every
        // window and must still reproduce the scan's conventions.
        for vals in [
            vec![f64::NEG_INFINITY, 0.0, 1.0, f64::INFINITY],
            vec![f64::INFINITY; 5],
            vec![1e308, 1e308, 1e308, 0.0],
        ] {
            let sp = SortedPrefix::new(vals);
            for r in 0..=sp.len() + 1 {
                for c in [0.5, f64::INFINITY, f64::NAN, 1e308] {
                    assert_matches_scan(&sp, r, c, "non-finite");
                }
            }
        }
    }

    #[test]
    fn error_bound_covers_the_computed_cost() {
        // Δ bounds |F − f| for every window; f is summed here in exact
        // rational steps via a compensated (two-sum) accumulation.
        let mut rng = rng(6);
        let n = 2000;
        let mut vals: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() / n as f64).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let sp = SortedPrefix::new(vals.clone());
        for r in [1usize, 7, 250, 1999, 2000] {
            let c = 1.0 / r as f64;
            let bound = window_cost_error_bound(n, sp.abs_sum, r, c);
            let lb = sp.vals.partition_point(|&v| v < c);
            for lo in (0..=n - r).step_by(37) {
                let (mut hi_part, mut lo_part) = (0.0f64, 0.0f64);
                for &v in &vals[lo..lo + r] {
                    let x = (v - c).abs();
                    let s = hi_part + x;
                    lo_part += (hi_part - s) + x;
                    hi_part = s;
                }
                let exact = hi_part + lo_part;
                let got = sp.window_cost(lo, r, c, lb);
                assert!((got - exact).abs() <= bound, "r={r} lo={lo}");
            }
        }
        assert_eq!(window_cost_error_bound(4, f64::INFINITY, 2, 0.5), f64::INFINITY);
        assert_eq!(window_cost_error_bound(4, 1.0, 2, f64::NAN), f64::INFINITY);
    }

    #[test]
    fn order_key_is_monotone_on_every_non_nan_class() {
        let tiny = f64::from_bits(1);
        let ladder = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -tiny,
            0.0,
            tiny,
            2.0 * tiny,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for w in ladder.windows(2) {
            assert!(f64_order_key(w[0]) < f64_order_key(w[1]), "{} !< {}", w[0], w[1]);
        }
        assert_eq!(f64_order_key(-0.0), f64_order_key(0.0));
    }

    #[test]
    fn radix_sort_is_stable_and_matches_comparison_sort() {
        let mut rng = rng(7);
        let tiny = f64::from_bits(1);
        let specials = [-1.5, -tiny, -0.0, 0.0, tiny, f64::MIN_POSITIVE, 0.25, f64::INFINITY];
        for (m, kind) in [(0usize, 0), (1, 0), (2, 1), (50, 1), (3000, 0), (3000, 2), (5000, 3)] {
            let vals: Vec<f64> = (0..m)
                .map(|_| match kind {
                    // Spread over many binades: every digit varies.
                    0 => rng.gen::<f64>().powi(40) * if rng.gen_bool(0.2) { -1.0 } else { 1.0 },
                    // Few distinct values: heavy ties, including ±0.
                    1 => specials[rng.gen_range(0..specials.len())],
                    // One binade: the high digits are constant and skipped.
                    2 => 0.5 + rng.gen::<f64>() / 4.0,
                    _ => f64::from_bits(rng.gen::<u64>() >> 2),
                })
                .collect();
            let ids: Vec<u32> = (0..m as u32).collect();
            let mut want = ids.clone();
            want.sort_by(|&a, &b| {
                vals[a as usize]
                    .partial_cmp(&vals[b as usize])
                    .unwrap()
                    .then(a.cmp(&b))
            });
            let (mut v, mut i) = (vals.clone(), ids.clone());
            let (mut v_out, mut i_out) = (vec![0.0; m], vec![0u32; m]);
            radix_sort_f64_pairs(&mut v, &mut i, &mut v_out, &mut i_out);
            assert_eq!(i_out, want, "m={m} kind={kind}");
            let want_vals: Vec<u64> = want.iter().map(|&k| vals[k as usize].to_bits()).collect();
            let got_vals: Vec<u64> = v_out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_vals, want_vals, "m={m} kind={kind}");
        }
    }

    #[test]
    fn best_window_finds_minimum() {
        let sp = SortedPrefix::new(vec![0.0, 0.0, 0.24, 0.26, 0.25, 0.25]);
        // Width-4 window closest to c = 0.25 is the last four values.
        let (lo, v) = sp.best_window(4, 0.25).unwrap();
        assert_eq!(lo, 2);
        assert!(v < 0.03);
        assert!(sp.best_window(7, 0.25).is_none());
        assert!(sp.best_window(0, 0.25).is_none());
    }

    #[test]
    fn empty_prefix() {
        let sp = SortedPrefix::new(vec![]);
        assert!(sp.is_empty());
        assert_eq!(sp.len(), 0);
    }

    #[test]
    fn refill_sorted_matches_new_bitwise() {
        let rounds = [
            vec![0.1, 0.2, 0.2, 0.7],
            vec![0.0, 0.0, 0.5],
            vec![],
            vec![1.0 / 3.0, 2.0 / 3.0, 0.9, 1.1, 1.3],
        ];
        let mut sp = SortedPrefix::empty();
        for vals in rounds {
            sp.refill_sorted(vals.iter().copied());
            let fresh = SortedPrefix::new(vals.clone());
            assert_eq!(sp.values(), fresh.values());
            assert_eq!(sp.len(), fresh.len());
            for r in 0..=vals.len() {
                for &c in &[0.0, 0.3, 0.8] {
                    let a = sp.best_window(r, c);
                    let b = fresh.best_window(r, c);
                    match (a, b) {
                        (None, None) => {}
                        (Some((la, va)), Some((lb, vb))) => {
                            assert_eq!(la, lb);
                            assert_eq!(va.to_bits(), vb.to_bits(), "r={r} c={c}");
                        }
                        other => panic!("mismatch: {other:?}"),
                    }
                }
            }
        }
    }
}
