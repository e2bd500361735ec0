//! `distributed`: Algorithm 2 (`local_mixing_time_approx`, sequential
//! CONGEST engine) from a seeded order of sources on a 128-node 8-regular
//! random expander with β = 8 and ε = 1/8e. Sources repeat once all 128
//! have run, and a repeat must reproduce ℓ, rounds and messages exactly.
//!
//! Traced, each run is followed by a replay of its accepted iteration
//! through the public phase calls — `build_bfs_tree`,
//! `FloodGraph::estimate_flood` and `sum_of_r_smallest` over the size grid
//! — with a span around each phase; the replay must reproduce the
//! iteration's rounds and the accepted size and sum.

use std::collections::HashMap;
use std::time::Instant;

use lmt_congest::bfs::build_bfs_tree;
use lmt_congest::binsearch::{sum_of_r_smallest, Outside};
use lmt_congest::flood::FloodGraph;
use lmt_congest::RunError;
use lmt_core::approx::{local_mixing_time_approx, ApproxResult};
use lmt_core::AlgoConfig;
use lmt_graph::{gen, Graph};

use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{mean, median, Timings, GATED_Q};
use crate::trace::Tracer;
use crate::{timed, timed_in, Budget, RunArgs, SetupClock};

const NODES: usize = 128;
const DEGREE: usize = 8;
const BETA: f64 = 8.0;
/// The graph is one fixed instance, so counts repeat across seeds; the
/// workload seed picks the operations run on it. On this instance every
/// source accepts at ℓ = 8 after four doubling iterations, so every run is
/// the same kind of operation (on instance 1, one source accepts at ℓ = 2
/// in a quarter of the time and would set the low quantile alone).
const GRAPH_SEED: u64 = 2;
/// Set-ups before the timed loop, and spread over an untraced loop.
const SETUP_REPS: usize = 3;
const SETUP_IN_LOOP: usize = 14;

/// What a repeated source must reproduce exactly: ℓ, rounds, messages.
type Fingerprint = (u64, u64, u64);

struct Runs {
    seen: HashMap<usize, Fingerprint>,
    results: Vec<ApproxResult>,
    failed: u64,
}

impl Runs {
    /// Check one run: `Ok`, accepted sum below 4ε, and a repeated source
    /// reproduces its first run exactly.
    fn check(
        &mut self,
        s: usize,
        r: Result<ApproxResult, lmt_core::approx::AlgoError>,
        cfg: &AlgoConfig,
    ) -> bool {
        let Ok(r) = r else {
            self.failed += 1;
            return false;
        };
        let fp = (r.ell, r.metrics.rounds, r.metrics.messages);
        let ok = r.accepted_sum < 4.0 * cfg.eps && *self.seen.entry(s).or_insert(fp) == fp;
        self.failed += u64::from(!ok);
        self.results.push(r);
        ok
    }
}

pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let cfg = AlgoConfig::new(BETA);
    let order = Rng::new(args.seed, 1).permutation(NODES);
    let mut sources = order.iter().copied().cycle();

    // Set-up: graph generation plus one warm-up run.
    let build = || {
        let (g, gen_time) = timed(|| gen::random_regular(NODES, DEGREE, GRAPH_SEED));
        local_mixing_time_approx(&g, order[0], &cfg).expect("warm-up run accepts");
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
        "graph: random {DEGREE}-regular, n={NODES}, m={}; beta={BETA} eps={:.6}; engine {:?}; budget {} bits/edge",
        g.m(),
        cfg.eps,
        cfg.engine,
        cfg.budget_bits(NODES)
    ));

    let budget = Budget::start(args);
    let mut runs = Runs {
        seen: HashMap::new(),
        results: Vec::new(),
        failed: 0,
    };
    let mut times = Timings::default();
    let mut tracer = Tracer::new();
    let (mut phase_rounds, mut replay_bad) = (Vec::new(), 0u64);
    if !args.trace {
        clock.spread(SETUP_IN_LOOP, budget.main_end);
    }
    while Instant::now() < budget.main_end {
        clock.run_due(build);
        let s = sources.next().expect("cycled sources never end");
        tracer.set_op(times.len() as u64);
        let (r, d) = timed_in(args.trace.then_some(&mut tracer), "core.approx", || {
            local_mixing_time_approx(&g, s, &cfg)
        });
        times.push(d);
        if runs.check(s, r, &cfg) && args.trace {
            let last = runs.results.last().expect("just pushed");
            match replay_accepted(&mut tracer, &g, s, last, &cfg) {
                Ok(rounds) => phase_rounds.push(rounds),
                Err(_) => replay_bad += 1,
            }
        }
    }
    let attempted = times.len() as u64;
    report.note(times.summary("op = one Algorithm 2 run"));
    let rounds: Vec<f64> = runs
        .results
        .iter()
        .map(|r| r.metrics.rounds as f64)
        .collect();
    let messages: Vec<f64> = runs
        .results
        .iter()
        .map(|r| r.metrics.messages as f64)
        .collect();
    let repeats = attempted as usize - runs.seen.len();
    report.note(format!(
        "rounds_per_op={:.1} messages_per_op={:.1} (exact per source); {repeats} repeated sources checked for identical ell, rounds and messages",
        mean(&rounds),
        mean(&messages)
    ));

    if args.trace {
        report.tally(attempted, runs.failed + replay_bad);
        report.note(format!(
            "accepted-iteration replays: {replay_bad} disagreed with the black-box run"
        ));
        traced_metrics(&mut report, &tracer, &runs.results, &phase_rounds);
        let mut probe_runs = Runs {
            seen: runs.seen.clone(),
            results: Vec::new(),
            failed: 0,
        };
        let (w1, w2) = crate::width_probe(budget.end, &mut report, || {
            let s = sources.next().expect("cycled sources never end");
            let (r, d) = timed(|| local_mixing_time_approx(&g, s, &cfg));
            (d, probe_runs.check(s, r, &cfg))
        });
        crate::probe_ratios(&mut report, &tracer.durations_ms("core.approx"), &w1, &w2);
        crate::write_trace(&mut report, &tracer, args);
    } else {
        report.tally(attempted, runs.failed);
        report.set("op_ms_p2", times.q(GATED_Q));
        report.set("steps_per_op", mean(&rounds));
        report.set("state_mib", g.memory_bytes() as f64 / (1 << 20) as f64);
    }
    clock.report(&mut report);
    report
}

/// Rounds of the replayed BFS, flood and binary-search phases.
type PhaseRounds = [u64; 3];

/// Replay the accepted iteration of `r` (length `r.ell`) through the public
/// phase calls, with the seeds Algorithm 2 derives for that iteration, and
/// check it reproduces the iteration's rounds and the accepted size and sum.
fn replay_accepted(
    tr: &mut Tracer,
    g: &Graph,
    src: usize,
    r: &ApproxResult,
    cfg: &AlgoConfig,
) -> Result<PhaseRounds, String> {
    let ell = r.ell;
    let n = g.n();
    let budget = cfg.budget_bits(n);
    let err = |e: RunError| format!("{e:?}");
    tr.span("core.replay", |tr| {
        let depth = u32::try_from(ell).unwrap_or(u32::MAX);
        let (tree, m_bfs) = tr
            .span("congest.bfs", |_| {
                build_bfs_tree(
                    g,
                    src,
                    depth,
                    budget,
                    cfg.engine,
                    cfg.seed.wrapping_add(ell),
                )
            })
            .map_err(err)?;
        let (weights, scale, m_flood) = tr
            .span("congest.flood", |_| {
                g.estimate_flood(
                    src,
                    ell,
                    cfg.c,
                    cfg.kind,
                    budget,
                    cfg.engine,
                    cfg.seed.wrapping_add(0x1000 + ell),
                )
            })
            .map_err(err)?;
        let (accepted, search_rounds) = tr.span("congest.binsearch", |_| {
            let four_eps = scale.from_f64(4.0 * cfg.eps).numerator();
            let outside_count = (n - tree.reached()) as u128;
            let seed = cfg.seed.wrapping_add(0x2000 + ell * 0x100);
            let mut rounds = 0;
            for (gi, &size) in cfg.size_grid(n).iter().enumerate() {
                let target = scale.recip(size);
                let xs: Vec<u128> = weights
                    .iter()
                    .map(|&w| scale.abs_diff(w, target).numerator())
                    .collect();
                let outside = (outside_count > 0).then_some(Outside {
                    count: outside_count,
                    value: target.numerator(),
                });
                let (res, m) = sum_of_r_smallest(
                    g,
                    &tree,
                    &xs,
                    size,
                    scale.payload_bits(),
                    cfg.tie,
                    outside,
                    budget,
                    cfg.engine,
                    seed.wrapping_add(gi as u64),
                )
                .map_err(err)?;
                rounds += m.rounds;
                if res.sum < four_eps {
                    let sum = res.sum as f64 / scale.denominator() as f64;
                    return Ok((Some((size, sum)), rounds));
                }
            }
            Ok::<_, String>((None, rounds))
        })?;
        let phases = [m_bfs.rounds, m_flood.rounds, search_rounds];
        let want_rounds = r.iterations.last().map_or(0, |it| it.rounds);
        if phases.iter().sum::<u64>() != want_rounds {
            return Err(format!(
                "replayed rounds {phases:?} do not sum to {want_rounds}"
            ));
        }
        match accepted {
            Some((size, sum))
                if size == r.accepted_size && sum.to_bits() == r.accepted_sum.to_bits() =>
            {
                Ok(phases)
            }
            other => Err(format!(
                "replay accepted {other:?}, run accepted ({}, {})",
                r.accepted_size, r.accepted_sum
            )),
        }
    })
}

fn traced_metrics(
    report: &mut Report,
    tracer: &Tracer,
    results: &[ApproxResult],
    phases: &[PhaseRounds],
) {
    let self_ms = tracer.self_ms_per_op();
    for (span, metric) in [
        ("congest.bfs", "congest.bfs_ms"),
        ("congest.flood", "congest.flood_ms"),
        ("congest.binsearch", "congest.binsearch_ms"),
    ] {
        if let Some(v) = self_ms.get(span) {
            report.set(metric, median(v));
        }
    }
    for (i, metric) in [
        "congest.bfs_rounds",
        "congest.flood_rounds",
        "congest.binsearch_rounds",
    ]
    .into_iter()
    .enumerate()
    {
        let v: Vec<f64> = phases.iter().map(|p| p[i] as f64).collect();
        report.set(metric, mean(&v));
    }
    let per = |f: fn(&ApproxResult) -> f64| mean(&results.iter().map(f).collect::<Vec<_>>());
    report.set("core.iterations", per(|r| r.iterations.len() as f64));
    report.set(
        "core.sizes_checked",
        per(|r| r.iterations.iter().map(|it| it.sizes_checked as f64).sum()),
    );
    report.set(
        "congest.messages_per_op",
        per(|r| r.metrics.messages as f64),
    );
    report.set("congest.bits_per_op", per(|r| r.metrics.bits as f64));
    report.set(
        "congest.max_edge_bits",
        results
            .iter()
            .map(|r| r.metrics.max_edge_bits)
            .max()
            .unwrap_or(0) as f64,
    );
    let us_per_round: Vec<f64> = tracer
        .durations_ms("core.approx")
        .iter()
        .zip(results)
        .map(|(ms, r)| ms * 1e3 / r.metrics.rounds as f64)
        .collect();
    report.set("congest.us_per_round", median(&us_per_round));
    crate::note_self_times(report, tracer);
}
