//! Ground-truth local mixing time `τ_s(β, ε)` (Definition 2 of the paper).
//!
//! `τ_s(β, ε) = min{ t : ∃ S ∋ s, |S| ≥ n/β, ‖p_tS − π_S‖₁ < ε }`.
//!
//! For a **d-regular** graph `π_S` is the flat vector `1/|S|`, so for a fixed
//! set size `R` the optimal set is the `R` nodes whose probabilities are
//! closest to `1/R` — and since "closest to a scalar" is an interval, those
//! nodes form a **contiguous window of the value-sorted distribution**. That
//! turns the per-step existence check into `O(n + |grid|·log n)` instead of
//! an exponential subset search ([`check_dist`]): an `O(n)` radix order of
//! the support, then a bracketed search per grid size
//! ([`SortedPrefix::best_window`]). Steps whose support is too small for
//! any allowed size to mix skip both.
//!
//! The oracle supports:
//! * every set size (`SizeGrid::All`) — the exact Definition 2 quantity — or
//!   the paper's geometric `(1+ε)` grid (`SizeGrid::Geometric`), which is
//!   what Algorithm 2 actually inspects;
//! * optional enforcement of the `s ∈ S` constraint (the paper's Algorithm 2
//!   drops it, collecting the `R` smallest `x_u` globally; we support both so
//!   experiment T2 can quantify the difference);
//! * an exponential-time brute force ([`brute_force_local_mixing_time`]) for
//!   arbitrary (even non-regular) tiny graphs, used to validate the window
//!   oracle in tests.
//!
//! The oracle's power iteration runs on the frontier-sparse evolution
//! engine ([`crate::engine`]) — on the paper's clique-chain calibration
//! families the support stays near the source for the whole `τ_s = O(1)`
//! horizon, so each step costs `O(vol(support))`, not `O(2m)` — and
//! [`graph_local_mixing_time`] advances its sources in blocks through one
//! shared CSR sweep per step. Per-step order/prefix buffers are reused
//! across steps and sources. All results are bit-for-bit identical to the
//! historical dense per-source iteration.

use crate::engine::{BlockEvolution, Evolution};
use crate::mixing::SWEEP_BLOCK;
use crate::step::{step, WalkKind};
use crate::Dist;
use lmt_graph::WalkGraph;
use lmt_util::order::{radix_sort_f64_pairs, window_cost_error_bound, SortedPrefix};

/// Which set sizes the existence check inspects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SizeGrid {
    /// Every integer size in `[⌈n/β⌉, n]` — exact Definition 2.
    All,
    /// The paper's grid: `⌈n/β⌉, ⌈(1+ε)n/β⌉, ⌈(1+ε)²n/β⌉, …, n`.
    Geometric,
}

/// How strictly to enforce the paper's §3 regularity assumption.
///
/// On weighted graphs "regular" means **weight-regular** — equal walk
/// degrees `W(u)`, which is what makes the stationary distribution flat
/// (checked via [`WalkGraph::flat_stationary`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlatPolicy {
    /// Reject non-regular graphs ([`LocalMixError::NotRegular`]).
    RequireRegular,
    /// Use the flat `1/|S|` target regardless of degrees. This matches the
    /// paper's own loose treatment of its Figure 1 β-barbell (whose bridge
    /// ports have degree `k`, not `k−1`); sensible only for *near*-regular
    /// graphs, where the target error is `O(1/(kn))` per port.
    AssumeFlat,
}

/// Options for the oracle.
#[derive(Clone, Copy, Debug)]
pub struct LocalMixOptions {
    /// Set-size parameter `β ≥ 1`: candidate sets have `|S| ≥ n/β`.
    pub beta: f64,
    /// Accuracy `ε ∈ (0,1)`; acceptance is `‖p_tS − π_S‖₁ < ε`.
    pub eps: f64,
    /// Walk kind (lazy recommended on bipartite families).
    pub kind: WalkKind,
    /// Upper bound on steps before giving up.
    pub max_t: usize,
    /// Which set sizes to inspect.
    pub grid: SizeGrid,
    /// Enforce `s ∈ S` (Definition 2) or allow any set (Algorithm 2's view).
    pub require_source: bool,
    /// Regularity handling (see [`FlatPolicy`]).
    pub flat_policy: FlatPolicy,
}

impl LocalMixOptions {
    /// Reasonable defaults: the paper's `ε = 1/8e`, geometric grid, simple
    /// walk, source not enforced (matching Algorithm 2's check).
    pub fn new(beta: f64) -> Self {
        LocalMixOptions {
            beta,
            eps: 1.0 / (8.0 * std::f64::consts::E),
            kind: WalkKind::Simple,
            max_t: 1 << 20,
            grid: SizeGrid::Geometric,
            require_source: false,
            flat_policy: FlatPolicy::RequireRegular,
        }
    }

    /// Assert the option invariants the oracle entry points enforce
    /// (`β ≥ 1`, `ε ∈ (0,1)`, non-empty graph, and a geometric grid that
    /// [`size_grid`] can build in at most [`MAX_GEOMETRIC_STEPS`] steps).
    /// Public so front ends (`lmt-service`) reject invalid queries with the
    /// oracle's exact messages.
    ///
    /// # Panics
    /// Panics on any violated invariant.
    pub fn validate(&self, n: usize) {
        assert!(self.beta >= 1.0, "β must be ≥ 1 (got {})", self.beta);
        assert!(
            self.eps > 0.0 && self.eps < 1.0,
            "ε must lie in (0,1) (got {})",
            self.eps
        );
        assert!(n >= 1, "empty graph");
        if self.grid == SizeGrid::Geometric {
            // Count size_grid's own loop, which never ends once 1+ε rounds
            // to 1. (A bound via ln β / ln_1p(ε) would link libm into every
            // oracle binary: ~0.3 MiB more resident memory.)
            let steps = geometric_sizes(n, self)
                .take(MAX_GEOMETRIC_STEPS + 1)
                .count();
            assert!(
                steps <= MAX_GEOMETRIC_STEPS,
                "ε = {} is too small for the geometric size grid: covering β = {} \
                 takes more than {MAX_GEOMETRIC_STEPS} steps",
                self.eps,
                self.beta
            );
        }
    }
}

/// A set witnessing local mixing at some step.
#[derive(Clone, Debug)]
pub struct Witness {
    /// Set size `|S|`.
    pub size: usize,
    /// Achieved restricted L1 distance `Σ_{u∈S} |p(u) − 1/|S||`.
    pub l1: f64,
    /// The member node ids.
    pub nodes: Vec<usize>,
}

/// Result of the oracle.
#[derive(Clone, Debug)]
pub struct LocalMixResult {
    /// The local mixing time `τ_s(β, ε)` (w.r.t. the chosen size grid).
    pub tau: usize,
    /// A witnessing set at step `tau`.
    pub witness: Witness,
}

/// Errors from the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocalMixError {
    /// No witnessing set found within `max_t` steps.
    NotMixedWithin(usize),
    /// The window oracle requires a regular graph (the paper's §3 setting).
    NotRegular,
}

impl std::fmt::Display for LocalMixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocalMixError::NotMixedWithin(t) => {
                write!(f, "no local-mixing set found within {t} steps")
            }
            LocalMixError::NotRegular => {
                write!(f, "window oracle requires a regular graph (paper §3 assumption)")
            }
        }
    }
}

impl std::error::Error for LocalMixError {}

/// The most steps [`LocalMixOptions::validate`] lets the geometric grid's
/// loop take: about `ln β / ln(1+ε)` (at most `ln n / ln(1+ε)`). At the
/// paper's `ε = 1/8e` a `β = 2⁶⁴` grid takes under a thousand, and
/// `ε = 10⁻⁴` still fits any `β`; the cap rejects an `ε` so small that
/// [`size_grid`] would run for seconds, or forever once `1 + ε` rounds to
/// `1` (`ε ≤ 2⁻⁵³`).
pub const MAX_GEOMETRIC_STEPS: usize = 1 << 20;

fn min_size(n: usize, beta: f64) -> usize {
    ((n as f64 / beta).ceil() as usize).clamp(1, n)
}

/// The geometric grid's loop: `⌈⌈n/β⌉·(1+ε)^k⌉` capped at `n`, for
/// `k = 0, 1, …` up to the first that reaches `n` (consecutive values may
/// repeat).
fn geometric_sizes(n: usize, opts: &LocalMixOptions) -> impl Iterator<Item = usize> {
    let mut r = min_size(n, opts.beta) as f64;
    let growth = 1.0 + opts.eps;
    let mut done = false;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        let ri = (r.ceil() as usize).min(n);
        done = ri >= n;
        r *= growth;
        Some(ri)
    })
}

/// Build the list of candidate set sizes for `n` nodes under `opts`
/// (validated: [`LocalMixOptions::validate`] bounds the geometric loop).
pub fn size_grid(n: usize, opts: &LocalMixOptions) -> Vec<usize> {
    match opts.grid {
        SizeGrid::All => (min_size(n, opts.beta)..=n).collect(),
        SizeGrid::Geometric => {
            let mut sizes: Vec<usize> = geometric_sizes(n, opts).collect();
            sizes.dedup();
            sizes
        }
    }
}

/// Reusable buffers for the per-step witness check: the id permutation,
/// the radix-sort buffers, the prefix-sum structure, and the `s ∈ S` side
/// buffers, all filled in place on every walk step. The radix sort's
/// second buffer pair (the support's values and ids, `12·n` bytes) is the
/// only addition over the order itself: its output buffers are `ids` and
/// the prefix structure's own value array.
///
/// A check costs `O(n + |grid|·log n)`: [`load`](Self::load) orders the
/// distribution in `O(n)`, and each grid size then costs one bracketed
/// window search ([`SortedPrefix::best_window`]) instead of a pass over
/// every window.
///
/// This is *the* witness evaluator of the repo: the solo oracle
/// ([`local_mixing_time`]), the blocked sweep ([`graph_local_mixing_time`]),
/// and the service cache replay (`lmt-service`, via
/// [`crate::profile::SourceCurve`]) all run the same [`scan`](Self::check)
/// over a `(value, id)`-sorted view of a distribution. The split entry
/// points exist so the cached path can skip the sort: [`load`](Self::load)
/// sorts a live distribution and exposes the sorted snapshot
/// ([`sorted_ids`](Self::sorted_ids) / [`sorted_vals`](Self::sorted_vals));
/// [`check_sorted`](Self::check_sorted) replays a stored snapshot through
/// the identical scan — bit-for-bit the witness `check` on the original
/// distribution returns, because the sorted view is a pure function of the
/// distribution.
pub struct WitnessScratch {
    /// Node ids, value-sorted as of the last check.
    ids: Vec<u32>,
    /// The support's values and ids in id order: the radix sort's input.
    support_vals: Vec<f64>,
    support_ids: Vec<u32>,
    sp: SortedPrefix,
    rest_ids: Vec<u32>,
    rest_sp: SortedPrefix,
}

impl WitnessScratch {
    /// Fresh buffers for `n`-node distributions.
    pub fn new(n: usize) -> Self {
        WitnessScratch {
            ids: Vec::with_capacity(n),
            support_vals: Vec::new(),
            support_ids: Vec::new(),
            sp: SortedPrefix::empty(),
            rest_ids: Vec::with_capacity(n),
            rest_sp: SortedPrefix::empty(),
        }
    }

    /// Order the node ids by `(value, id)` and refill the prefix sums, in
    /// `O(n)`.
    ///
    /// The zero-mass ids come first, in ascending id order. The support
    /// follows, sorted by a stable LSD radix sort
    /// ([`radix_sort_f64_pairs`]) whose input is in ascending id order, so
    /// equal values keep id order. Negative values (never produced by a
    /// walk) are rotated in front of the zeros. The order is therefore a
    /// pure function of `p`, identical to a stable comparison sort by
    /// `(value, id)`.
    ///
    /// # Panics
    /// Panics with "NaN probability" if `p` holds a NaN.
    pub fn load(&mut self, p: &[f64]) {
        let n = p.len();
        // Branch-free split into zeros and support: a step's support
        // pattern is as unpredictable as a coin.
        self.ids.resize(n, 0);
        self.support_vals.resize(n, 0.0);
        self.support_ids.resize(n, 0);
        let (mut zeros, mut support, mut negatives, mut nan) = (0, 0, 0, false);
        for (i, &v) in p.iter().enumerate() {
            let zero = v == 0.0;
            self.ids[zeros] = i as u32;
            self.support_vals[support] = v;
            self.support_ids[support] = i as u32;
            zeros += usize::from(zero);
            support += usize::from(!zero);
            negatives += usize::from(v < 0.0);
            nan |= v.is_nan();
        }
        assert!(!nan, "NaN probability");
        self.support_vals.truncate(support);
        self.support_ids.truncate(support);
        let head = zeros + negatives;
        let ids = &mut self.ids;
        let (support_vals, support_ids) = (&mut self.support_vals, &mut self.support_ids);
        self.sp.refill_with(|vals| {
            // The zeros keep their own bits (±0.0).
            vals.extend(ids[..zeros].iter().map(|&i| p[i as usize]));
            vals.resize(n, 0.0);
            radix_sort_f64_pairs(support_vals, support_ids, &mut vals[zeros..], &mut ids[zeros..]);
            vals[..head].rotate_left(zeros);
        });
        self.ids[..head].rotate_left(zeros);
    }

    /// Load a stored `(value, id)`-sorted snapshot (as produced by
    /// [`load`](Self::load) and read back via [`sorted_ids`](Self::sorted_ids)
    /// / [`sorted_vals`](Self::sorted_vals)) without re-sorting.
    ///
    /// # Panics
    /// Panics if the slices disagree in length; debug builds also verify
    /// `vals` is ascending.
    pub fn load_sorted(&mut self, ids: &[u32], vals: &[f64]) {
        assert_eq!(ids.len(), vals.len(), "snapshot ids/vals length mismatch");
        self.ids.clear();
        self.ids.extend_from_slice(ids);
        self.sp.refill_sorted(vals.iter().copied());
    }

    /// Node ids of the last loaded distribution, sorted by `(value, id)`.
    pub fn sorted_ids(&self) -> &[u32] {
        &self.ids
    }

    /// Values aligned with [`sorted_ids`](Self::sorted_ids)
    /// (`sorted_vals()[k] == p[sorted_ids()[k]]`, ascending).
    pub fn sorted_vals(&self) -> &[f64] {
        self.sp.values()
    }

    /// The existence check behind [`check_dist`], on borrowed buffers.
    ///
    /// A step whose support is too small for any grid size to mix returns
    /// `None` before the sort: a set of size `r` then holds at least
    /// `r − |supp|` zero-mass nodes, which alone put it `ε` away from flat.
    pub fn check(
        &mut self,
        p: &[f64],
        sizes: &[usize],
        eps: f64,
        src: Option<usize>,
    ) -> Option<Witness> {
        if let Some(s) = src {
            assert!(s < p.len(), "require_source: source missing from distribution");
        }
        if too_sparse_to_mix(p, sizes, eps) {
            return None;
        }
        self.load(p);
        self.scan(sizes, eps, src)
    }

    /// [`check`](Self::check) on a stored sorted snapshot: `load_sorted` +
    /// the same scan. Bit-for-bit equal to `check` on the distribution the
    /// snapshot was taken from.
    pub fn check_sorted(
        &mut self,
        ids: &[u32],
        vals: &[f64],
        sizes: &[usize],
        eps: f64,
        src: Option<usize>,
    ) -> Option<Witness> {
        self.load_sorted(ids, vals);
        self.scan(sizes, eps, src)
    }

    /// The grid scan over the currently loaded sorted view. Reads values
    /// only through the sorted buffers, so the live-distribution and
    /// snapshot entry points share every instruction of the scan.
    fn scan(&mut self, sizes: &[usize], eps: f64, src: Option<usize>) -> Option<Witness> {
        match src {
            None => {
                for &r in sizes {
                    let c = 1.0 / r as f64;
                    if let Some((lo, sum)) = self.sp.best_window(r, c) {
                        if sum < eps {
                            let nodes =
                                self.ids[lo..lo + r].iter().map(|&i| i as usize).collect();
                            return Some(Witness {
                                size: r,
                                l1: sum,
                                nodes,
                            });
                        }
                    }
                }
                None
            }
            Some(s) => {
                // Optimal set containing s = {s} ∪ best (R−1)-window of the
                // rest. `sorted_vals[k] == p[ids[k]]` exactly, so filtering
                // the aligned pairs reproduces the historical
                // `p[i as usize]` reads bit-for-bit.
                let pos = self
                    .ids
                    .iter()
                    .position(|&i| i as usize == s)
                    .expect("require_source: source missing from distribution");
                let ps = self.sp.values()[pos];
                self.rest_ids.clear();
                self.rest_ids
                    .extend(self.ids.iter().copied().filter(|&i| i as usize != s));
                self.rest_sp.refill_sorted(
                    self.ids
                        .iter()
                        .zip(self.sp.values())
                        .filter(|&(&i, _)| i as usize != s)
                        .map(|(_, &v)| v),
                );
                for &r in sizes {
                    let c = 1.0 / r as f64;
                    let own = (ps - c).abs();
                    let (lo, sum) = if r == 1 {
                        (0, 0.0)
                    } else {
                        match self.rest_sp.best_window(r - 1, c) {
                            Some(w) => w,
                            None => continue,
                        }
                    };
                    let total = own + sum;
                    if total < eps {
                        let mut nodes: Vec<usize> = self.rest_ids[lo..lo + (r - 1)]
                            .iter()
                            .map(|&i| i as usize)
                            .collect();
                        nodes.push(s);
                        return Some(Witness {
                            size: r,
                            l1: total,
                            nodes,
                        });
                    }
                }
                None
            }
        }
    }

    /// Best restricted distance over the grid, irrespective of `eps` (the
    /// [`local_profile`] kernel).
    pub fn best_over_sizes(&mut self, p: &[f64], sizes: &[usize]) -> f64 {
        self.load(p);
        sizes
            .iter()
            .filter_map(|&r| self.sp.best_window(r, 1.0 / r as f64).map(|w| w.1))
            .fold(f64::INFINITY, f64::min)
    }
}

/// True iff no set of any size in `sizes` can witness mixing on `p`, judged
/// from the support alone — so the check can skip the sort and the scan.
///
/// A set of size `r` holds at least `r − |supp(p)|` zero-mass nodes, each
/// `c = fl(1/r)` away from the flat target, so its exact restricted
/// distance is at least `(r − |supp|)·c`; with or without the `s ∈ S`
/// constraint, the computed one is within `Δ_r`
/// ([`window_cost_error_bound`]) of it. When `(r − |supp|)·c ≥ ε + Δ_r`
/// for every `r`, the scan returns `None` for every size, so returning
/// `None` here is bit-identical. A NaN in `p` makes `Δ_r` infinite, so the
/// sort still sees (and rejects) it.
fn too_sparse_to_mix(p: &[f64], sizes: &[usize], eps: f64) -> bool {
    let (mut support, mut abs_sum) = (0usize, 0.0);
    for &v in p {
        support += usize::from(v != 0.0);
        abs_sum += v.abs();
    }
    sizes.iter().all(|&r| {
        let c = 1.0 / r as f64;
        (r as f64 - support as f64) * c >= eps + window_cost_error_bound(p.len(), abs_sum, r, c)
    })
}

/// Existence check for one distribution: is there a set of an allowed size
/// whose restricted distance to flat is `< eps`? Returns the first witness
/// (smallest grid size) if so.
///
/// `src` is `Some(s)` to enforce `s ∈ S`.
///
/// One-shot convenience: allocates its working buffers per call. The
/// per-step loops in this module share one scratch across all steps (and,
/// in the graph-wide sweep, across all sources) instead.
pub fn check_dist(p: &Dist, sizes: &[usize], eps: f64, src: Option<usize>) -> Option<Witness> {
    WitnessScratch::new(p.n()).check(p.as_slice(), sizes, eps, src)
}

/// Ground-truth local mixing time for a **regular** graph (weight-regular
/// in the weighted case — see [`FlatPolicy`]).
///
/// Steps the exact `f64` distribution from the point mass at `src` on the
/// frontier-sparse engine ([`crate::engine`]) and runs the witness check
/// each step until one appears. Bit-for-bit the historical dense result.
///
/// # Panics
/// Panics on invalid options, an out-of-range source, or an isolated
/// source (the walk could never leave it).
pub fn local_mixing_time<G: WalkGraph + ?Sized>(
    g: &G,
    src: usize,
    opts: &LocalMixOptions,
) -> Result<LocalMixResult, LocalMixError> {
    opts.validate(g.n());
    crate::step::assert_source(g, src, "local_mixing_time");
    if opts.flat_policy == FlatPolicy::RequireRegular && g.flat_stationary().is_none() {
        return Err(LocalMixError::NotRegular);
    }
    let sizes = size_grid(g.n(), opts);
    let src_opt = opts.require_source.then_some(src);
    let mut ev = Evolution::from_point(g, src, opts.kind);
    let mut scratch = WitnessScratch::new(g.n());
    for t in 0..=opts.max_t {
        if let Some(w) = scratch.check(ev.current(), &sizes, opts.eps, src_opt) {
            return Ok(LocalMixResult { tau: t, witness: w });
        }
        if t < opts.max_t {
            ev.step();
        }
    }
    Err(LocalMixError::NotMixedWithin(opts.max_t))
}

/// The local mixing time of the graph, `τ(β,ε) = max_v τ_v(β,ε)`
/// (Definition 2), by running every source — the quantity §1 footnote 6
/// prices at an O(n)-factor overhead.
///
/// Sources advance in blocks of [`SWEEP_BLOCK`] columns through one shared
/// CSR sweep per step ([`BlockEvolution`]); the size grid and the check
/// scratch are computed once and shared across all sources. Each source's
/// `τ` is bit-for-bit what a solo [`local_mixing_time`] call returns (its
/// column is retired the step its witness appears).
pub fn graph_local_mixing_time<G: WalkGraph + ?Sized>(
    g: &G,
    opts: &LocalMixOptions,
) -> Result<usize, LocalMixError> {
    let n = g.n();
    if n == 0 {
        return Ok(0);
    }
    opts.validate(n);
    crate::step::assert_source(g, 0, "local_mixing_time");
    if opts.flat_policy == FlatPolicy::RequireRegular && g.flat_stationary().is_none() {
        return Err(LocalMixError::NotRegular);
    }
    for s in 1..n {
        crate::step::assert_source(g, s, "local_mixing_time");
    }
    let sizes = size_grid(n, opts);
    let mut scratch = WitnessScratch::new(n);
    let mut lane = vec![0.0; n];
    let mut worst = 0;
    let all: Vec<usize> = (0..n).collect();
    for chunk in all.chunks(SWEEP_BLOCK) {
        let mut block = BlockEvolution::new(g, chunk, opts.kind);
        let mut lane_src: Vec<usize> = chunk.to_vec();
        for t in 0..=opts.max_t {
            let mut j = 0;
            while j < block.width() {
                block.copy_lane(j, &mut lane);
                let src_opt = opts.require_source.then_some(lane_src[j]);
                if scratch.check(&lane, &sizes, opts.eps, src_opt).is_some() {
                    worst = worst.max(t);
                    block.retire(j);
                    lane_src.swap_remove(j);
                } else {
                    j += 1;
                }
            }
            if block.width() == 0 {
                break;
            }
            if t == opts.max_t {
                return Err(LocalMixError::NotMixedWithin(opts.max_t));
            }
            block.step();
        }
    }
    Ok(worst)
}

/// Per-step profile `t ↦ min over grid sizes of the best restricted distance`
/// for `t = 0..=t_max`. **Not monotone** in general — the basis of experiment
/// T9 (the paper's remark that Lemma 1 fails for restricted distances and why
/// binary search over `ℓ` is unsound).
pub fn local_profile<G: WalkGraph + ?Sized>(
    g: &G,
    src: usize,
    opts: &LocalMixOptions,
    t_max: usize,
) -> Vec<f64> {
    opts.validate(g.n());
    crate::step::assert_source(g, src, "local_profile");
    let sizes = size_grid(g.n(), opts);
    let mut out = Vec::with_capacity(t_max + 1);
    let mut ev = Evolution::from_point(g, src, opts.kind);
    let mut scratch = WitnessScratch::new(g.n());
    for t in 0..=t_max {
        out.push(scratch.best_over_sizes(ev.current(), &sizes));
        if t < t_max {
            ev.step();
        }
    }
    out
}

/// The restricted-distance trace `t ↦ ‖p_tS − π_S‖₁` for a **fixed** set `S`
/// on a regular graph (flat target `1/|S|`).
pub fn restricted_trace<G: WalkGraph + ?Sized>(
    g: &G,
    src: usize,
    set: &[usize],
    kind: WalkKind,
    t_max: usize,
) -> Vec<f64> {
    assert!(!set.is_empty(), "restricted trace needs a non-empty set");
    crate::step::assert_source(g, src, "restricted_trace");
    let target = 1.0 / set.len() as f64;
    let mut out = Vec::with_capacity(t_max + 1);
    let mut ev = Evolution::from_point(g, src, kind);
    for t in 0..=t_max {
        let p = ev.current();
        let d: f64 = set.iter().map(|&u| (p[u] - target).abs()).sum();
        out.push(d);
        if t < t_max {
            ev.step();
        }
    }
    out
}

/// Exponential brute force over **all** subsets of allowed sizes, valid for
/// arbitrary (including non-regular, weighted) graphs with `n ≤ 20`: the
/// acceptance test uses the true `π_S(v) = W(v)/µ(S)` target (unweighted:
/// `d(v)/µ(S)`).
///
/// Only the `s ∈ S` semantics of Definition 2 is offered (`require_source`
/// equivalent); used to validate the window oracle.
pub fn brute_force_local_mixing_time<G: WalkGraph + ?Sized>(
    g: &G,
    src: usize,
    beta: f64,
    eps: f64,
    kind: WalkKind,
    max_t: usize,
) -> Option<(usize, Vec<usize>)> {
    let n = g.n();
    assert!(n <= 20, "brute force limited to n ≤ 20");
    let r_min = ((n as f64 / beta).ceil() as usize).clamp(1, n);
    let mut p = Dist::point(n, src);
    for t in 0..=max_t {
        for mask in 0u32..(1 << n) {
            if mask >> src & 1 == 0 {
                continue;
            }
            let size = mask.count_ones() as usize;
            if size < r_min {
                continue;
            }
            let members: Vec<usize> = (0..n).filter(|&b| mask >> b & 1 == 1).collect();
            let mu: f64 = members.iter().map(|&u| g.walk_degree(u)).sum();
            if mu == 0.0 {
                continue;
            }
            let dist: f64 = members
                .iter()
                .map(|&u| (p.get(u) - g.walk_degree(u) / mu).abs())
                .sum();
            if dist < eps {
                return Some((t, members));
            }
        }
        if t < max_t {
            p = step(g, &p, kind);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmt_graph::gen;

    const EPS: f64 = 1.0 / (8.0 * std::f64::consts::E);

    fn opts(beta: f64) -> LocalMixOptions {
        LocalMixOptions::new(beta)
    }

    #[test]
    fn complete_graph_local_equals_global() {
        // §2.3(a): both are 1.
        let g = gen::complete(32);
        let r = local_mixing_time(&g, 0, &opts(4.0)).unwrap();
        assert_eq!(r.tau, 1);
    }

    #[test]
    fn barbell_locally_mixes_fast() {
        // §2.3(d): τ_s = O(1) on the β-barbell — the walk flattens inside the
        // source clique almost immediately, while global mixing needs Ω(β²).
        let (rg, _) = gen::ring_of_cliques_regular(4, 16);
        assert_eq!(lmt_graph::props::regularity(&rg), Some(15));
        let r = local_mixing_time(&rg, 3, &opts(4.0)).unwrap();
        assert!(r.tau <= 4, "expected O(1) local mixing, got {}", r.tau);
        assert!(r.witness.size >= 16);
    }

    #[test]
    fn nearly_regular_barbell_via_assume_flat() {
        // The paper's own Figure 1 graph: ports have degree k, interiors k−1.
        // AssumeFlat mirrors the paper's treatment and still finds O(1) τ_s.
        let (g, _) = gen::barbell(4, 16);
        let mut o = opts(4.0);
        o.flat_policy = FlatPolicy::AssumeFlat;
        let r = local_mixing_time(&g, 3, &o).unwrap();
        assert!(r.tau <= 4, "expected O(1) local mixing, got {}", r.tau);
    }

    #[test]
    fn beta_one_equals_global_mixing_time() {
        // §2.2: τ_s(1, ε) = τ_mix_s(ε).
        let g = gen::complete(16);
        let local = local_mixing_time(&g, 0, &opts(1.0)).unwrap().tau;
        let global = crate::mixing::mixing_time(&g, 0, EPS, WalkKind::Simple, 1000)
            .unwrap()
            .tau;
        assert_eq!(local, global);
    }

    #[test]
    fn monotone_in_beta() {
        // §2.3: β₁ ≥ β₂ ⇒ τ_s(β₁) ≤ τ_s(β₂). Strict monotonicity is a
        // property of the exact Definition 2 (all set sizes); the geometric
        // grid can violate it by a step (see tests/properties.rs).
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let all = |beta: f64| {
            let mut o = opts(beta);
            o.grid = SizeGrid::All;
            local_mixing_time(&g, 0, &o).unwrap().tau
        };
        let (t_beta4, t_beta2) = (all(4.0), all(2.0));
        assert!(t_beta4 <= t_beta2, "τ(β=4)={t_beta4} > τ(β=2)={t_beta2}");
    }

    #[test]
    fn oracle_matches_brute_force_on_small_regular_graph() {
        let g = gen::cycle(8);
        let mut o = opts(2.0);
        o.kind = WalkKind::Lazy;
        o.grid = SizeGrid::All;
        o.require_source = true;
        let fast = local_mixing_time(&g, 0, &o).unwrap().tau;
        let (brute, _) =
            brute_force_local_mixing_time(&g, 0, 2.0, o.eps, WalkKind::Lazy, 1000).unwrap();
        assert_eq!(fast, brute);
    }

    #[test]
    fn oracle_matches_brute_force_complete() {
        let g = gen::complete(8);
        let mut o = opts(2.0);
        o.grid = SizeGrid::All;
        o.require_source = true;
        let fast = local_mixing_time(&g, 3, &o).unwrap().tau;
        let (brute, _) =
            brute_force_local_mixing_time(&g, 3, 2.0, o.eps, WalkKind::Simple, 100).unwrap();
        assert_eq!(fast, brute);
    }

    #[test]
    fn geometric_grid_contains_bounds() {
        let o = opts(8.0);
        let sizes = size_grid(256, &o);
        assert_eq!(*sizes.first().unwrap(), 32);
        assert_eq!(*sizes.last().unwrap(), 256);
        for w in sizes.windows(2) {
            assert!(w[0] < w[1]);
        }
        let all = size_grid(16, &LocalMixOptions {
            grid: SizeGrid::All,
            ..opts(4.0)
        });
        assert_eq!(all, (4..=16).collect::<Vec<_>>());
    }

    #[test]
    fn non_regular_rejected_by_window_oracle() {
        let g = gen::star(8);
        let err = local_mixing_time(&g, 0, &opts(2.0)).unwrap_err();
        assert_eq!(err, LocalMixError::NotRegular);
    }

    #[test]
    fn witness_nodes_are_distinct_and_sized() {
        let (g, _) = gen::ring_of_cliques_regular(3, 8);
        let r = local_mixing_time(&g, 0, &opts(3.0)).unwrap();
        let mut nodes = r.witness.nodes.clone();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), r.witness.size);
    }

    #[test]
    fn require_source_never_smaller_tau() {
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let free = local_mixing_time(&g, 5, &opts(4.0)).unwrap().tau;
        let mut o = opts(4.0);
        o.require_source = true;
        let constrained = local_mixing_time(&g, 5, &o).unwrap().tau;
        assert!(constrained >= free);
    }

    #[test]
    fn restricted_trace_hits_zero_distance_region() {
        let (g, spec) = gen::ring_of_cliques(4, 8);
        let set: Vec<usize> = spec.clique_nodes(0).collect();
        let trace = restricted_trace(&g, 1, &set, WalkKind::Simple, 20);
        // Initially far from flat (all mass on source).
        assert!(trace[0] > 1.0);
        // Quickly becomes small inside the source clique.
        let min = trace.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min < 0.3, "min restricted distance {min}");
    }

    #[test]
    fn local_profile_length() {
        let g = gen::complete(8);
        let prof = local_profile(&g, 0, &opts(2.0), 5);
        assert_eq!(prof.len(), 6);
        assert!(prof[1] < prof[0]);
    }

    #[test]
    fn weight_regular_graph_accepted_by_window_oracle() {
        // Uniform weights keep transition probabilities — and τ_s — exactly
        // equal to the unweighted graph's (the walk only sees ratios).
        let (topo, _) = gen::ring_of_cliques_regular(4, 8);
        let wg = gen::weighted::uniform_weights(topo.clone(), 2.5);
        let a = local_mixing_time(&topo, 0, &opts(4.0)).unwrap();
        let b = local_mixing_time(&wg, 0, &opts(4.0)).unwrap();
        assert_eq!(a.tau, b.tau);
        assert_eq!(a.witness.size, b.witness.size);
    }

    #[test]
    fn weight_irregular_rejected_without_assume_flat() {
        // A 1.25-weight bridge on k=16 cliques leaves walk degrees within
        // ~2% of flat: RequireRegular must reject (weight-regularity is
        // exact), AssumeFlat must still find the O(1) local mixing — the
        // same treatment the paper gives its nearly-regular Figure 1 graph.
        let (wg, _) = gen::weighted_ring_of_cliques_regular(4, 16, 1.25);
        let err = local_mixing_time(&wg, 3, &opts(4.0)).unwrap_err();
        assert_eq!(err, LocalMixError::NotRegular);
        let mut o = opts(4.0);
        o.flat_policy = FlatPolicy::AssumeFlat;
        let r = local_mixing_time(&wg, 3, &o).unwrap();
        assert!(r.tau <= 6, "expected fast local mixing, got {}", r.tau);
    }

    #[test]
    fn weighted_oracle_matches_brute_force() {
        // Weight-regular weighted cycle: window oracle (flat target) must
        // agree with the exponential brute force (true π_S target).
        let wg = gen::weighted::uniform_weights(gen::cycle(8), 3.0);
        let mut o = opts(2.0);
        o.kind = WalkKind::Lazy;
        o.grid = SizeGrid::All;
        o.require_source = true;
        let fast = local_mixing_time(&wg, 0, &o).unwrap().tau;
        let (brute, _) =
            brute_force_local_mixing_time(&wg, 0, 2.0, o.eps, WalkKind::Lazy, 1000).unwrap();
        assert_eq!(fast, brute);
    }

    #[test]
    #[should_panic(expected = "isolated node")]
    fn isolated_source_rejected() {
        let mut b = lmt_graph::GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let _ = local_mixing_time(&g, 3, &opts(2.0));
    }

    #[test]
    fn graph_sweep_equals_per_source_sweep() {
        // n = 24 = 3 full blocks of 8; also run with require_source on so
        // the blocked sweep exercises the per-lane `s ∈ S` constraint.
        let (g, _) = gen::ring_of_cliques_regular(3, 8);
        for require_source in [false, true] {
            let mut o = opts(3.0);
            o.require_source = require_source;
            let blocked = graph_local_mixing_time(&g, &o).unwrap();
            let mut per_source = 0;
            for s in 0..g.n() {
                per_source = per_source.max(local_mixing_time(&g, s, &o).unwrap().tau);
            }
            assert_eq!(blocked, per_source, "require_source={require_source}");
        }
    }

    #[test]
    fn graph_sweep_propagates_not_regular() {
        let g = gen::star(8);
        let err = graph_local_mixing_time(&g, &opts(2.0)).unwrap_err();
        assert_eq!(err, LocalMixError::NotRegular);
    }

    #[test]
    fn scratch_reuse_matches_one_shot_check() {
        // Drive one scratch through several successive distributions and
        // compare against the allocating one-shot `check_dist` (which is
        // the historical per-step behavior): taus, witness sizes, l1s, and
        // node sets must all agree — including tie-heavy early steps where
        // most probabilities are exactly 0.0.
        let (g, _) = gen::ring_of_cliques_regular(4, 8);
        let o = opts(4.0);
        let sizes = size_grid(g.n(), &o);
        let mut scratch = WitnessScratch::new(g.n());
        for src in [0usize, 13] {
            let mut p = Dist::point(g.n(), src);
            for _ in 0..6 {
                for src_opt in [None, Some(src)] {
                    let a = scratch.check(p.as_slice(), &sizes, o.eps, src_opt);
                    let b = check_dist(&p, &sizes, o.eps, src_opt);
                    match (a, b) {
                        (None, None) => {}
                        (Some(x), Some(y)) => {
                            assert_eq!(x.size, y.size);
                            assert_eq!(x.l1.to_bits(), y.l1.to_bits());
                            assert_eq!(x.nodes, y.nodes);
                        }
                        other => panic!("scratch/one-shot mismatch: {other:?}"),
                    }
                }
                p = step(&g, &p, o.kind);
            }
        }
    }

    /// The comparison sort `load` replaced: ids in ascending order, then a
    /// stable sort by value (ties by id), values read back from `p`.
    fn reference_order(p: &[f64]) -> (Vec<u32>, Vec<f64>) {
        let mut ids: Vec<u32> = (0..p.len() as u32).collect();
        ids.sort_by(|&a, &b| {
            p[a as usize]
                .partial_cmp(&p[b as usize])
                .expect("NaN probability")
                .then(a.cmp(&b))
        });
        let vals = ids.iter().map(|&i| p[i as usize]).collect();
        (ids, vals)
    }

    /// Walk distributions of the first steps on a few regular graphs: the
    /// tie-heavy early steps, the dense later ones.
    fn walk_dists() -> Vec<Vec<f64>> {
        let (roc, _) = gen::ring_of_cliques_regular(4, 8);
        let mut out = Vec::new();
        for (g, src) in [(roc, 0usize), (gen::random_regular(256, 6, 3), 17), (gen::cycle(40), 3)] {
            let mut p = Dist::point(g.n(), src);
            for _ in 0..12 {
                out.push(p.as_slice().to_vec());
                p = step(&g, &p, WalkKind::Lazy);
            }
        }
        out
    }

    fn assert_load_matches_reference(p: &[f64], what: &str) {
        let mut scratch = WitnessScratch::new(p.len());
        scratch.load(p);
        let (ids, vals) = reference_order(p);
        assert_eq!(scratch.sorted_ids(), &ids[..], "{what}: permutation");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(scratch.sorted_vals()), bits(&vals), "{what}: values");
    }

    #[test]
    fn radix_load_matches_comparison_sort() {
        for (k, p) in walk_dists().iter().enumerate() {
            assert_load_matches_reference(p, &format!("walk dist {k}"));
        }
        let tiny = f64::from_bits(1);
        let crafted: Vec<Vec<f64>> = vec![
            vec![],
            vec![0.0],
            vec![-0.0, 0.0, -0.0, 0.5, 0.0],
            // Negatives rotate in front of the zeros (both signs).
            vec![0.25, -1.0, 0.0, -0.0, -3.5, 0.25, -1.0, 1e-300, -1e-300],
            // Subnormals, their negatives and the smallest normal.
            vec![2.0 * tiny, tiny, 0.0, -tiny, f64::MIN_POSITIVE, tiny, -0.0, 3.0 * tiny],
            // Values spread over every binade plus infinities.
            vec![f64::INFINITY, 1e300, 1.0, 1e-10, f64::NEG_INFINITY, 7.0, 1e-10, 0.0],
        ];
        for (k, p) in crafted.iter().enumerate() {
            assert_load_matches_reference(p, &format!("crafted {k}"));
        }
        // A reused scratch across sizes and contents.
        let mut scratch = WitnessScratch::new(4);
        for p in walk_dists().iter().chain(&crafted) {
            scratch.load(p);
            assert_eq!(scratch.sorted_ids(), &reference_order(p).0[..]);
        }
    }

    #[test]
    #[should_panic(expected = "NaN probability")]
    fn load_rejects_nan() {
        WitnessScratch::new(3).load(&[0.5, f64::NAN, 0.0]);
    }

    /// Sizes at which a witness exists, by a literal scan of every window
    /// of the reference order (per-window binary search, no bracketing).
    fn reference_witness_sizes(p: &[f64], sizes: &[usize], eps: f64, src: Option<usize>) -> Vec<usize> {
        let (ids, vals) = reference_order(p);
        let min_window = |vals: Vec<f64>, r: usize, c: f64| {
            let sp = SortedPrefix::new(vals);
            (0..=sp.len().checked_sub(r)?)
                .map(|lo| sp.window_abs_dev(lo, lo + r, c))
                .fold(None, |best: Option<f64>, v| Some(best.map_or(v, |b| b.min(v))))
        };
        sizes
            .iter()
            .copied()
            .filter(|&r| {
                let c = 1.0 / r as f64;
                match src {
                    None => min_window(vals.clone(), r, c).is_some_and(|v| v < eps),
                    Some(s) => {
                        let rest: Vec<f64> = ids
                            .iter()
                            .zip(&vals)
                            .filter(|&(&i, _)| i as usize != s)
                            .map(|(_, &v)| v)
                            .collect();
                        let window = if r == 1 { Some(0.0) } else { min_window(rest, r - 1, c) };
                        window.is_some_and(|w| (p[s] - c).abs() + w < eps)
                    }
                }
            })
            .collect()
    }

    #[test]
    fn sparse_skip_fires_only_where_no_size_can_mix() {
        let mut fired = 0;
        let mut cases = 0;
        for p in walk_dists() {
            let n = p.len();
            for beta in [1.0, 2.0, 4.0, 8.0] {
                for eps in [0.05, EPS, 0.3, 0.9] {
                    let o = LocalMixOptions { eps, ..opts(beta) };
                    let sizes = size_grid(n, &o);
                    for src in [None, Some(0), Some(n / 2)] {
                        cases += 1;
                        if too_sparse_to_mix(&p, &sizes, eps) {
                            fired += 1;
                            let found = reference_witness_sizes(&p, &sizes, eps, src);
                            assert!(found.is_empty(), "skip fired but sizes {found:?} mix");
                        }
                    }
                }
            }
        }
        assert!(fired > 0 && fired < cases, "skip fired on {fired} of {cases}");
    }

    #[test]
    fn sparse_skip_is_tight_at_its_boundary() {
        // m support nodes at exactly c = 1/r: the best window costs
        // (r − m)·c, up to rounding. Sweep ε across that value; the skip
        // must never hide a witness the reference scan finds, and must
        // fire once ε sits a few Δ below it.
        let (n, r, m) = (1000usize, 400usize, 300usize);
        let c = 1.0 / r as f64;
        let mut p = vec![0.0; n];
        for slot in p.iter_mut().step_by(3).take(m) {
            *slot = c;
        }
        let floor = (r - m) as f64 * c;
        let mut fired = false;
        for k in -64i32..=64 {
            let eps = floor * (1.0 + k as f64 * 4e-13);
            for src in [None, Some(0), Some(1)] {
                let skip = too_sparse_to_mix(&p, &[r], eps);
                let found = reference_witness_sizes(&p, &[r], eps, src);
                assert!(!skip || found.is_empty(), "k={k} src={src:?}");
                fired |= skip;
                let got = WitnessScratch::new(n).check(&p, &[r], eps, src);
                assert_eq!(got.is_some(), !found.is_empty(), "k={k} src={src:?}");
            }
        }
        assert!(fired, "skip never fired below the boundary");
    }

    #[test]
    fn check_matches_reference_scan_on_walk_distributions() {
        // The whole check (skip, radix order, bracketed search) against
        // the reference order and a literal scan: same first size.
        for p in walk_dists() {
            let n = p.len();
            for beta in [2.0, 4.0] {
                let o = opts(beta);
                let sizes = size_grid(n, &o);
                for src in [None, Some(1)] {
                    let got = WitnessScratch::new(n).check(&p, &sizes, o.eps, src);
                    let want = reference_witness_sizes(&p, &sizes, o.eps, src);
                    assert_eq!(got.map(|w| w.size), want.first().copied());
                }
            }
        }
    }

    /// Run `f` on its own thread and return its panic message; fail if it
    /// neither panics nor returns within a few seconds (a hang).
    fn panic_message_within(f: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let _ = tx.send(out.err().map(|e| {
                e.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            }));
        });
        // On a hang the worker is left detached: the test fails here.
        let msg = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("hung instead of rejecting the options");
        worker.join().expect("the worker catches its own panic");
        msg.expect("expected a panic")
    }

    #[test]
    fn tiny_geometric_eps_is_rejected_not_hung() {
        // 1 + 1e-17 rounds to 1: size_grid's loop used to never end.
        for eps in [1e-17, f64::EPSILON / 4.0, 1e-12] {
            let msg = panic_message_within(move || {
                let g = gen::complete(64);
                let o = LocalMixOptions { eps, ..opts(4.0) };
                let _ = local_mixing_time(&g, 0, &o);
            });
            assert!(msg.contains("too small for the geometric size grid"), "{msg}");
        }
        // The exact grid has no loop to bound, and a tiny ε is fine there.
        let all = LocalMixOptions {
            eps: 1e-17,
            grid: SizeGrid::All,
            ..opts(4.0)
        };
        all.validate(64);
        // Every ε the specs and experiments use stays accepted.
        for eps in [0.01, EPS, 0.05, 0.3, 0.9] {
            LocalMixOptions { eps, ..opts(1e12) }.validate(1 << 24);
        }
    }
}
