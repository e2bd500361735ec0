//! `oracle`: repeated `local_mixing_time` queries, each from a distinct
//! source (the order repeats only after all 2¹⁴ have run), on a 2¹⁴-node
//! 8-regular random expander with β = 8 and ε = 1/8e.
//!
//! Untraced, each operation is one black-box query. Every witness is then
//! verified, outside the timed loop, by code that shares nothing with the
//! oracle's witness scan. Traced, each operation is the oracle loop rebuilt
//! from `Evolution::step`, `WitnessScratch::load` and `check_sorted`, with
//! a span around each call; it must return the black-box τ and witness.

use std::time::Instant;

use lmt_graph::{gen, Graph};
use lmt_walks::engine::Evolution;
use lmt_walks::local::{
    local_mixing_time, size_grid, LocalMixError, LocalMixOptions, LocalMixResult, WitnessScratch,
};

use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{mean, median, Timings, GATED_Q};
use crate::trace::Tracer;
use crate::{timed, Budget, RunArgs, SetupClock};

/// 2¹⁴ nodes keep a query's working set (graph, walk vectors, sort and
/// prefix buffers: about 1.1 MiB) inside a core's private L2. At 2¹⁶ it is
/// about 4.5 MiB and spills into the shared L3, where a neighbour's load
/// slowed even the fastest queries of a 30 s window by half.
const NODES: usize = 1 << 14;
const DEGREE: usize = 8;
const BETA: f64 = 8.0;
/// The graph is one fixed instance, so counts repeat across seeds; the
/// workload seed picks the operations run on it.
const GRAPH_SEED: u64 = 1;
/// Set-ups before the timed loop, and spread over an untraced loop.
const SETUP_REPS: usize = 3;
const SETUP_IN_LOOP: usize = 24;

type Answer = Result<LocalMixResult, LocalMixError>;

pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let opts = LocalMixOptions::new(BETA);
    // Distinct sources until all have run, then the same order again.
    let order = Rng::new(args.seed, 1).permutation(NODES);
    let warmup_source = order[0];
    let mut sources = order.into_iter().cycle().skip(1);

    // Set-up: graph generation plus one warm-up query.
    let build = || {
        let (g, gen_time) = timed(|| gen::random_regular(NODES, DEGREE, GRAPH_SEED));
        local_mixing_time(&g, warmup_source, &opts).expect("warm-up query mixes");
        (g, gen_time)
    };
    let mut clock = SetupClock::default();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up before building the next one.
        drop(kept.take());
        kept = Some(clock.time(build));
    }
    let g = kept.expect("at least one set-up");
    report.note(format!(
        "graph: random {DEGREE}-regular, n={NODES}, m={}; beta={BETA} eps={:.6}; grid sizes {}",
        g.m(),
        opts.eps,
        size_grid(NODES, &opts).len()
    ));

    let budget = Budget::start(args);
    let mut checker = Checker::default();
    if args.trace {
        traced_loop(
            &g,
            &opts,
            &mut sources,
            &budget,
            &mut checker,
            &mut report,
            args,
        );
    } else {
        let mut times = Timings::default();
        let mut taus = Vec::new();
        clock.spread(SETUP_IN_LOOP, budget.main_end);
        while Instant::now() < budget.main_end {
            clock.run_due(build);
            let s = sources.next().expect("cycled sources never end");
            let (ans, d) = timed(|| local_mixing_time(&g, s, &opts));
            times.push(d);
            if let Ok(r) = &ans {
                taus.push(r.tau as f64);
            }
            checker.check(&g, s, &ans, &opts);
        }
        report.note(times.summary("op = one local_mixing_time query"));
        report.set("op_ms_p2", times.q(GATED_Q));
        report.set("steps_per_op", mean(&taus));
        report.set("state_mib", g.memory_bytes() as f64 / (1 << 20) as f64);
    }
    clock.report(&mut report);
    report.tally(checker.checked, checker.failed);
    report.note(format!(
        "verified {} witnesses independently of the witness scan; {} failed",
        checker.checked, checker.failed
    ));
    report
}

/// Verifies each answer right after its (timed) query, so no answer is
/// kept and memory does not grow with the number of queries.
#[derive(Default)]
struct Checker {
    checked: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, g: &Graph, s: usize, ans: &Answer, opts: &LocalMixOptions) -> bool {
        let ok = ans
            .as_ref()
            .is_ok_and(|r| verify_witness(g, s, r, opts).is_ok());
        self.checked += 1;
        self.failed += u64::from(!ok);
        ok
    }
}

fn traced_loop(
    g: &Graph,
    opts: &LocalMixOptions,
    sources: &mut impl Iterator<Item = usize>,
    budget: &Budget,
    checker: &mut Checker,
    report: &mut Report,
    args: &RunArgs,
) {
    let mut tracer = Tracer::new();
    let (mut steps, mut sparse) = (Vec::new(), Vec::new());
    let mut mismatches = 0u64;
    let mut op = 0u64;
    while Instant::now() < budget.main_end {
        let s = sources.next().expect("cycled sources never end");
        tracer.set_op(op);
        let (rebuilt, sparse_steps) =
            tracer.span("oracle.query", |tr| rebuilt_query(tr, g, s, opts));
        let black_box = local_mixing_time(g, s, opts);
        if !same_answer(&rebuilt, &black_box) {
            mismatches += 1;
        }
        if let Ok(r) = &black_box {
            steps.push(r.tau as f64);
            sparse.push(sparse_steps as f64);
        }
        checker.check(g, s, &black_box, opts);
        op += 1;
    }
    report.tally(0, mismatches);
    report.note(format!(
        "rebuilt oracle loop vs black-box local_mixing_time: {mismatches} mismatches in {op} queries"
    ));
    let self_ms = tracer.self_ms_per_op();
    for (span, metric) in [
        ("walks.evolve", "walks.evolve_ms"),
        ("walks.order", "walks.order_ms"),
        ("walks.scan", "walks.scan_ms"),
    ] {
        if let Some(v) = self_ms.get(span) {
            report.set(metric, median(v));
        }
    }
    report.set("walks.steps", mean(&steps));
    report.set("walks.sparse_steps", mean(&sparse));
    report.set("walks.grid_sizes", size_grid(g.n(), opts).len() as f64);
    crate::note_self_times(report, &tracer);

    let mut probe_checker = Checker::default();
    let (w1, w2) = crate::width_probe(budget.end, report, || {
        let s = sources.next().expect("cycled sources never end");
        let (ans, d) = timed(|| local_mixing_time(g, s, opts));
        (d, probe_checker.check(g, s, &ans, opts))
    });
    crate::probe_ratios(report, &tracer.durations_ms("oracle.query"), &w1, &w2);
    crate::write_trace(report, &tracer, args);
}

/// The oracle loop of `local_mixing_time`, rebuilt from its public parts
/// with a span around each layer call. Also counts the steps whose support
/// is at most `(1 − ε)` times the smallest grid size: no set of an allowed
/// size can mix on them, so they bound what skipping such scans can save.
fn rebuilt_query(tr: &mut Tracer, g: &Graph, s: usize, opts: &LocalMixOptions) -> (Answer, usize) {
    let sizes = size_grid(g.n(), opts);
    let sparse_ceiling = (1.0 - opts.eps) * sizes[0] as f64;
    let mut ev = Evolution::from_point(g, s, opts.kind);
    let mut scratch = WitnessScratch::new(g.n());
    let (mut ids, mut vals) = (Vec::new(), Vec::new());
    let mut sparse = 0;
    for t in 0..=opts.max_t {
        let support = ev.current().iter().filter(|&&p| p != 0.0).count();
        if support as f64 <= sparse_ceiling {
            sparse += 1;
        }
        tr.span("walks.order", |_| scratch.load(ev.current()));
        ids.clear();
        ids.extend_from_slice(scratch.sorted_ids());
        vals.clear();
        vals.extend_from_slice(scratch.sorted_vals());
        let found = tr.span("walks.scan", |_| {
            scratch.check_sorted(&ids, &vals, &sizes, opts.eps, None)
        });
        if let Some(witness) = found {
            return (Ok(LocalMixResult { tau: t, witness }), sparse);
        }
        if t < opts.max_t {
            tr.span("walks.evolve", |_| ev.step());
        }
    }
    (Err(LocalMixError::NotMixedWithin(opts.max_t)), sparse)
}

/// Bit-for-bit equality of two answers: τ, witness size, L1 and members.
pub fn same_answer(a: &Answer, b: &Answer) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            x.tau == y.tau
                && x.witness.size == y.witness.size
                && x.witness.l1.to_bits() == y.witness.l1.to_bits()
                && x.witness.nodes == y.witness.nodes
        }
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// Check a witness with code that shares nothing with the oracle: a dense
/// power iteration from the point mass at `src` to `p_τ`, then
/// `|S| ≥ n/β`, distinct in-range members, and
/// `Σ_{v∈S} |p_τ(v) − 1/|S|| < ε` (summed here in member order).
pub fn verify_witness(
    g: &Graph,
    src: usize,
    r: &LocalMixResult,
    opts: &LocalMixOptions,
) -> Result<(), String> {
    let n = g.n();
    let mut p = vec![0.0f64; n];
    let mut next = vec![0.0f64; n];
    p[src] = 1.0;
    for _ in 0..r.tau {
        for (v, slot) in next.iter_mut().enumerate() {
            *slot = g.neighbors(v).map(|u| p[u] / g.degree(u) as f64).sum();
        }
        std::mem::swap(&mut p, &mut next);
    }
    let w = &r.witness;
    if w.size != w.nodes.len() {
        return Err(format!("size {} but {} members", w.size, w.nodes.len()));
    }
    if (w.size as f64) < n as f64 / opts.beta {
        return Err(format!("|S| = {} < n/β", w.size));
    }
    let mut seen = vec![false; n];
    for &v in &w.nodes {
        if v >= n || std::mem::replace(&mut seen[v], true) {
            return Err(format!("member {v} out of range or repeated"));
        }
    }
    let target = 1.0 / w.size as f64;
    let l1: f64 = w.nodes.iter().map(|&v| (p[v] - target).abs()).sum();
    if l1.is_nan() || l1 >= opts.eps {
        return Err(format!("recomputed L1 {l1} is not below ε = {}", opts.eps));
    }
    if (l1 - w.l1).abs() > 1e-9 {
        return Err(format!("recomputed L1 {l1} differs from reported {}", w.l1));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifier_accepts_oracle_witnesses_and_rejects_tampered_ones() {
        let g = gen::random_regular(256, 6, 3);
        let opts = LocalMixOptions::new(4.0);
        let r = local_mixing_time(&g, 5, &opts).unwrap();
        verify_witness(&g, 5, &r, &opts).unwrap();

        let mut short = r.clone();
        short.witness.nodes.truncate(10);
        short.witness.size = 10;
        assert!(verify_witness(&g, 5, &short, &opts).is_err());

        let mut repeated = r.clone();
        repeated.witness.nodes[1] = repeated.witness.nodes[0];
        assert!(verify_witness(&g, 5, &repeated, &opts).is_err());

        let mut early = r.clone();
        early.tau = 0;
        assert!(verify_witness(&g, 5, &early, &opts).is_err());
    }

    #[test]
    fn rebuilt_loop_matches_black_box() {
        let g = gen::random_regular(512, 8, 11);
        let opts = LocalMixOptions::new(8.0);
        let mut tr = Tracer::new();
        for s in [0, 77, 300] {
            let (rebuilt, sparse) = rebuilt_query(&mut tr, &g, s, &opts);
            assert!(same_answer(&rebuilt, &local_mixing_time(&g, s, &opts)));
            // The point mass and its first neighbourhoods are far smaller
            // than n/β = 64 nodes.
            assert!(sparse >= 2, "sparse = {sparse}");
        }
    }
}
