//! `service`: a `TauService<ChurnGraph>` over a ring of 16 random 8-regular
//! expanders of 512 nodes each (the §2.3(d) shape), queried with β = 16
//! so that each local mixing set is one cluster (`FlatPolicy::AssumeFlat`:
//! the bridge ports have degree 9).
//!
//! Queries draw on a fixed pool of four sources in each of every fourth
//! cluster, so the cache settles at a steady size. One operation is one
//! cycle of three kinds, each also timed on its own:
//!
//! * **churn** — `apply_churn` with a degree-preserving swap of two edges
//!   inside one pool cluster, so τ and the clusters do not drift;
//! * **warm** — a batch of new (β, ε) pairs on pool sources of the other
//!   pool clusters, whose cached support avoided the edit, answered by
//!   replay;
//! * **cold** — a batch on the churned cluster's pool sources, which the
//!   edit invalidated, answered by evolution plus snapshot recording.
//!
//! The benchmark predicts which curves an edit invalidates: a cached
//! curve's support is exactly the ball of radius τ_max around its source,
//! so it is dropped iff an edited endpoint lies in that ball. Pool clusters
//! are three clusters apart, so an edit reaches the churned cluster's
//! sources only: every cycle drops and re-caches the same number of
//! curves, and every warm batch finds the same number of survivors. A
//! service that invalidates more coarsely answers some warm queries by
//! evolution, and the warm and cycle latencies show it.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use lmt_graph::{gen, ChurnGraph, EdgeEdit, Graph, WalkGraph};
use lmt_service::{ServiceConfig, ServiceStats, TauAnswer, TauQuery, TauService};
use lmt_walks::engine::Evolution;
use lmt_walks::local::{local_mixing_time, size_grid, FlatPolicy, WitnessScratch};
use lmt_walks::profile::SourceCurve;

use crate::oracle::same_answer;
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{mean, median, Timings, GATED_Q};
use crate::trace::Tracer;
use crate::{timed, timed_in, Budget, RunArgs, SetupClock};

const CLUSTERS: usize = 16;
const CLUSTER_NODES: usize = 512;
const DEGREE: usize = 8;
/// Pool sources sit in clusters 0, 4, 8 and 12. A walk from one of them
/// must cross three whole clusters to reach the next pool cluster, which
/// takes more steps than any pool query's τ.
const POOL_STRIDE: usize = 4;
const POOL_PER_CLUSTER: usize = 4;
const WARM_QUERIES: usize = 8;
/// The graph is one fixed instance, so counts repeat across seeds; the
/// workload seed picks the operations run on it.
const GRAPH_SEED: u64 = 1;
/// Set-ups before the timed loop, and spread over an untraced loop.
const SETUP_REPS: usize = 3;
const SETUP_IN_LOOP: usize = 14;

fn eps0() -> f64 {
    1.0 / (8.0 * std::f64::consts::E)
}

/// Steps after which a query gives up. Pool queries mix in about ten; the
/// cap turns a query that would wait for global mixing into a failure.
const MAX_T: usize = 64;

fn config() -> ServiceConfig {
    ServiceConfig {
        flat_policy: FlatPolicy::AssumeFlat,
        max_t: MAX_T,
        ..ServiceConfig::default()
    }
}

/// The query a cold batch asks: one cluster is the smallest allowed set.
fn cold_query(source: usize) -> TauQuery {
    TauQuery {
        source,
        beta: CLUSTERS as f64,
        eps: eps0(),
    }
}

/// A fresh (β, ε) pair no looser than the cold query's reach: β within
/// 0.2% above the cluster count (sets of ≥ 511 of 512 nodes) and ε between
/// 1.2 and 2 times ε₀, so the recorded horizon already holds its τ.
fn warm_query(source: usize, rng: &mut Rng) -> TauQuery {
    TauQuery {
        source,
        beta: CLUSTERS as f64 * (1.0 + 0.002 * rng.unit()),
        eps: eps0() * (1.2 + 0.8 * rng.unit()),
    }
}

/// The benchmark's view of the pool: which sources it believes cached, and
/// each cached curve's horizon (the largest τ answered since it was cached).
struct Pool {
    sources: Vec<usize>,
    cached: Vec<bool>,
    horizon: Vec<usize>,
}

impl Pool {
    /// Record answers for pool members `idx` (aligned with `answers`).
    fn absorb(&mut self, idx: &[usize], answers: &[TauAnswer]) -> u64 {
        let mut bad = 0;
        for (&i, a) in idx.iter().zip(answers) {
            match &a.result {
                Ok(r) => {
                    self.horizon[i] = if self.cached[i] {
                        self.horizon[i].max(r.tau)
                    } else {
                        r.tau
                    };
                    self.cached[i] = true;
                }
                Err(_) => bad += 1,
            }
        }
        bad
    }

    /// Pool members whose cached support (the ball of radius `horizon`
    /// around the source, on the pre-edit graph) holds an edited endpoint.
    fn predict_drops(&self, g: &Graph, endpoints: &[usize]) -> Vec<usize> {
        let reach = self.horizon.iter().copied().max().unwrap_or(0);
        let dist = bfs_depths(g, endpoints, reach);
        (0..self.sources.len())
            .filter(|&i| self.cached[i] && dist[self.sources[i]] <= self.horizon[i])
            .collect()
    }
}

/// Hop distance from the nearest of `roots`, explored to `limit` hops
/// (`usize::MAX` beyond).
fn bfs_depths(g: &Graph, roots: &[usize], limit: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n()];
    let mut queue = VecDeque::new();
    for &r in roots {
        dist[r] = 0;
        queue.push_back(r);
    }
    while let Some(u) = queue.pop_front() {
        if dist[u] == limit {
            continue;
        }
        for v in g.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The two bridge ports of cluster `c`: its first node links to the next
/// cluster, its last node to the previous one.
fn bridges(c: usize) -> [usize; 2] {
    [c * CLUSTER_NODES, (c + 1) * CLUSTER_NODES - 1]
}

/// Pool sources: `POOL_PER_CLUSTER` random nodes in every pool cluster, at
/// least three hops from the cluster's bridge ports. A source next to a port
/// leaks so much mass in its first steps that no one-cluster set ever
/// mixes; swaps never touch a port's closed neighbourhood, so these
/// distances hold for the whole run.
fn pick_pool(g: &Graph, rng: &mut Rng) -> Vec<usize> {
    (0..CLUSTERS)
        .step_by(POOL_STRIDE)
        .flat_map(|c| {
            let dist = bfs_depths(g, &bridges(c), 3);
            let base = c * CLUSTER_NODES;
            let mut picks: Vec<usize> = rng
                .permutation(CLUSTER_NODES)
                .into_iter()
                .map(|v| base + v)
                .filter(|&v| dist[v] >= 3)
                .take(POOL_PER_CLUSTER)
                .collect();
            picks.sort_unstable();
            picks
        })
        .collect()
}

/// A degree-preserving swap inside cluster `c`: delete `{a,b}` and `{x,y}`,
/// insert `{a,y}` and `{x,b}`. No endpoint is a bridge port or adjacent to
/// one, so the ports' neighbourhoods never change.
fn pick_swap(g: &Graph, c: usize, rng: &mut Rng) -> [EdgeEdit; 4] {
    let base = c * CLUSTER_NODES;
    let ports = bridges(c);
    let in_cluster = |v: usize| {
        (base..base + CLUSTER_NODES).contains(&v)
            && ports.iter().all(|&p| v != p && !g.has_edge(v, p))
    };
    let edge = |rng: &mut Rng| loop {
        let a = base + rng.below(CLUSTER_NODES);
        let b = g
            .neighbors(a)
            .nth(rng.below(g.degree(a)))
            .expect("degree ≥ 1");
        if in_cluster(a) && in_cluster(b) {
            return (a, b);
        }
    };
    loop {
        let (a, b) = edge(rng);
        let (x, y) = edge(rng);
        let distinct = a != x && a != y && b != x && b != y;
        if distinct && !g.has_edge(a, y) && !g.has_edge(x, b) {
            return [
                EdgeEdit::delete(a, b),
                EdgeEdit::delete(x, y),
                EdgeEdit::insert(a, y),
                EdgeEdit::insert(x, b),
            ];
        }
    }
}

struct Cycle {
    churn: Duration,
    warm: Duration,
    cold: Duration,
    /// The mirror's own `apply` of the same edits.
    mirror_apply: Duration,
    predicted_drops: usize,
    /// The warm batch was not `WARM_QUERIES` queries, or the cold batch was
    /// not exactly the churned cluster's `POOL_PER_CLUSTER` sources; such a
    /// cycle does other work than the rest and counts as failed.
    uneven: bool,
    dropped: usize,
    retained: usize,
    warm_stats: (ServiceStats, ServiceStats),
    cold_stats: (ServiceStats, ServiceStats),
    failed: u64,
}

/// A label and the part of a cycle it times.
type CycleKind = (String, fn(&Cycle) -> Duration);

impl Cycle {
    fn total(&self) -> Duration {
        self.churn + self.warm + self.cold
    }
}

struct Bench {
    svc: TauService<ChurnGraph>,
    mirror: ChurnGraph,
    pool: Pool,
    rng: Rng,
    cycles: u64,
}

impl Bench {
    /// One churn → warm → cold cycle. With a tracer, each operation runs
    /// in a span under `service.cycle`, and the first cold source's curve
    /// is rebuilt with the public `SourceCurve` calls.
    fn cycle(&mut self, mut tracer: Option<&mut Tracer>) -> Cycle {
        let c = POOL_STRIDE * self.rng.below(CLUSTERS / POOL_STRIDE);
        let edits = pick_swap(self.mirror.topology(), c, &mut self.rng);
        let endpoints: Vec<usize> = edits
            .iter()
            .flat_map(|e| {
                let (u, v) = e.endpoints();
                [u, v]
            })
            .collect();
        let predicted = self.pool.predict_drops(self.mirror.topology(), &endpoints);

        let warm_idx: Vec<usize> = {
            let mut cand: Vec<usize> = (0..self.pool.sources.len())
                .filter(|&i| self.pool.cached[i] && !predicted.contains(&i))
                .collect();
            for k in 0..WARM_QUERIES.min(cand.len()) {
                let j = k + self.rng.below(cand.len() - k);
                cand.swap(k, j);
            }
            cand.truncate(WARM_QUERIES);
            cand
        };
        let warm_q: Vec<TauQuery> = warm_idx
            .iter()
            .map(|&i| warm_query(self.pool.sources[i], &mut self.rng))
            .collect();
        // Every pool source is cached when a cycle starts, so the cold batch
        // re-caches exactly the curves this edit drops.
        let cold_idx = predicted.clone();
        let uneven = warm_idx.len() != WARM_QUERIES
            || cold_idx.len() != POOL_PER_CLUSTER
            || cold_idx
                .iter()
                .any(|&i| self.pool.sources[i] / CLUSTER_NODES != c);
        let cold_q: Vec<TauQuery> = cold_idx
            .iter()
            .map(|&i| cold_query(self.pool.sources[i]))
            .collect();

        let svc = &self.svc;
        let before = svc.stats();
        // The stats read between the batches is outside both op timings.
        let ops = |mut tr: Option<&mut Tracer>| {
            let churn = timed_in(tr.as_deref_mut(), "service.apply_churn", || {
                svc.apply_churn(&edits)
            });
            let warm = timed_in(tr.as_deref_mut(), "service.warm_batch", || {
                svc.submit_batch(&warm_q)
            });
            let between = svc.stats();
            let cold = timed_in(tr, "service.cold_batch", || svc.submit_batch(&cold_q));
            (churn, warm, between, cold)
        };
        let ((outcome, churn), (warm_a, warm), between, (cold_a, cold)) =
            match tracer.as_deref_mut() {
                Some(t) => t.span("service.cycle", |t| ops(Some(t))),
                None => ops(None),
            };
        let after = svc.stats();

        let mut failed = u64::from(uneven);
        let (dropped, retained) = match outcome {
            Ok(o) => (o.dropped, o.retained),
            Err(_) => {
                failed += 1;
                (0, 0)
            }
        };
        let (applied, mirror_apply) = timed_in(tracer.as_deref_mut(), "graph.churn_apply", || {
            self.mirror.apply(&edits)
        });
        failed += u64::from(applied.is_err());
        for &i in &predicted {
            self.pool.cached[i] = false;
        }
        failed += self.pool.absorb(&warm_idx, &warm_a);
        failed += self.pool.absorb(&cold_idx, &cold_a);

        // Outside the timed operations: one answer, alternately warm and
        // cold, against a fresh oracle call on the post-churn mirror.
        let sample = if self.cycles.is_multiple_of(2) && !warm_a.is_empty() {
            &warm_a
        } else {
            &cold_a
        };
        if let Some(a) = sample.get(self.rng.below(sample.len().max(1))) {
            let want = local_mixing_time(&self.mirror, a.query.source, &config().opts(&a.query));
            if !same_answer(&a.result, &want) {
                failed += 1;
            }
        }
        if let (Some(t), Some(a)) = (tracer, cold_a.first()) {
            if !curve_probe(t, &self.mirror, a) {
                failed += 1;
            }
        }
        self.cycles += 1;
        Cycle {
            churn,
            warm,
            cold,
            mirror_apply,
            predicted_drops: predicted.len(),
            uneven,
            dropped,
            retained,
            warm_stats: (before, between),
            cold_stats: (between, after),
            failed,
        }
    }
}

/// Rebuild `answer`'s curve on the mirror with `SourceCurve::record` (a
/// span per step) and replay its query with `first_witness` (one span);
/// the replay must equal the service's answer bit for bit.
fn curve_probe(tr: &mut Tracer, g: &ChurnGraph, answer: &TauAnswer) -> bool {
    let Ok(r) = &answer.result else { return false };
    let q = answer.query;
    let opts = config().opts(&q);
    let sizes = size_grid(g.n(), &opts);
    let mut scratch = WitnessScratch::new(g.n());
    let mut curve = SourceCurve::new();
    let mut ev = Evolution::from_point(g, q.source, opts.kind);
    for t in 0..=r.tau {
        if t > 0 {
            ev.step();
        }
        tr.span("service.record", |_| {
            curve.record(ev.current(), &mut scratch)
        });
    }
    let replay = tr.span("service.replay", |_| {
        curve.first_witness(0, &sizes, q.eps, None, &mut scratch)
    });
    replay.is_some_and(|(tau, witness)| {
        same_answer(
            &Ok(lmt_walks::local::LocalMixResult { tau, witness }),
            &answer.result,
        )
    })
}

/// Build the graph, the service and its cache of every pool source;
/// returns them with the graph generation time.
fn setup(pool_sources: &[usize]) -> ((TauService<ChurnGraph>, Graph, Vec<TauAnswer>), Duration) {
    let (g, gen_time) =
        timed(|| gen::ring_of_expanders(CLUSTERS, CLUSTER_NODES, DEGREE, GRAPH_SEED, true));
    let svc = TauService::with_config(ChurnGraph::new(g.clone()), config());
    let queries: Vec<TauQuery> = pool_sources.iter().map(|&s| cold_query(s)).collect();
    let answers = svc.submit_batch(&queries);
    ((svc, g, answers), gen_time)
}

pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(args.seed, 1);
    let sources = pick_pool(
        &gen::ring_of_expanders(CLUSTERS, CLUSTER_NODES, DEGREE, GRAPH_SEED, true),
        &mut rng,
    );

    let mut clock = SetupClock::default();
    let setup_sources = sources.clone();
    let build = || setup(&setup_sources);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up before building the next one.
        drop(kept.take());
        kept = Some(clock.time(build));
    }
    let (svc, g, fill) = kept.expect("at least one set-up");
    let n_pool = sources.len();
    let mut pool = Pool {
        sources,
        cached: vec![false; n_pool],
        horizon: vec![0; n_pool],
    };
    let all: Vec<usize> = (0..n_pool).collect();
    let fill_bad = pool.absorb(&all, &fill);
    report.tally(1, u64::from(fill_bad > 0));
    report.note(format!(
        "graph: ring of {CLUSTERS} random {DEGREE}-regular clusters x {CLUSTER_NODES} nodes, n={}; pool {n_pool} sources; cache after set-up {:.1} MiB",
        g.n(),
        svc.cache_bytes() as f64 / (1 << 20) as f64
    ));
    let mut bench = Bench {
        svc,
        mirror: ChurnGraph::new(g),
        pool,
        rng: Rng::new(args.seed, 2),
        cycles: 0,
    };

    let budget = Budget::start(args);
    let stats0 = bench.svc.stats();
    let mut tracer = Tracer::new();
    let mut log: Vec<Cycle> = Vec::new();
    if !args.trace {
        clock.spread(SETUP_IN_LOOP, budget.main_end);
    }
    while Instant::now() < budget.main_end {
        clock.run_due(build);
        tracer.set_op(bench.cycles);
        let cy = bench.cycle(args.trace.then_some(&mut tracer));
        report.tally(3, cy.failed.min(3));
        log.push(cy);
    }
    let stats1 = bench.svc.stats();

    let kinds: [CycleKind; 4] = [
        (
            "op = one cycle (churn + warm batch + cold batch)".into(),
            Cycle::total,
        ),
        ("churn = one apply_churn (4-edit swap)".into(), |c| c.churn),
        (
            format!("warm = one batch of {WARM_QUERIES} new (beta, eps) pairs"),
            |c| c.warm,
        ),
        (
            format!("cold = one batch of the churned cluster's {POOL_PER_CLUSTER} sources"),
            |c| c.cold,
        ),
    ];
    let timings: Vec<Timings> = kinds
        .iter()
        .map(|(label, f)| {
            let mut t = Timings::default();
            for c in &log {
                t.push(f(c));
            }
            report.note(t.summary(label));
            t
        })
        .collect();
    let uneven = log.iter().filter(|c| c.uneven).count();
    report.note(format!(
        "batch sizes: {uneven} of {} cycles had a warm batch other than {WARM_QUERIES} queries or a cold batch other than the churned cluster's {POOL_PER_CLUSTER} sources (counted as failed)",
        log.len()
    ));
    let mismatched = log
        .iter()
        .filter(|c| c.predicted_drops != c.dropped)
        .count();
    let hits = stats1.cache_hits - stats0.cache_hits;
    let queries = stats1.queries - stats0.queries;
    report.note(format!(
        "cache: {hits} hits of {queries} queries; resumes {}; engine steps {}; blocks {}; curves retained {} dropped {}; predicted drops differed in {mismatched} of {} cycles",
        stats1.resumes - stats0.resumes,
        stats1.engine_steps - stats0.engine_steps,
        stats1.blocks - stats0.blocks,
        stats1.curves_retained - stats0.curves_retained,
        stats1.curves_dropped - stats0.curves_dropped,
        log.len()
    ));

    if args.trace {
        traced_metrics(&mut report, &tracer, &log);
        let (w1, w2) = crate::width_probe(budget.end, &mut report, || {
            let cy = bench.cycle(None);
            (cy.total(), cy.failed == 0)
        });
        crate::probe_ratios(&mut report, &tracer.durations_ms("service.cycle"), &w1, &w2);
        crate::write_trace(&mut report, &tracer, args);
    } else {
        report.set("op_ms_p2", timings[0].q(GATED_Q));
        let steps = (stats1.engine_steps - stats0.engine_steps) as f64 / log.len().max(1) as f64;
        report.set("steps_per_op", steps);
    }

    // Ask the whole pool again (outside the timed loop): a curve the
    // service dropped beyond the prediction is re-cached, so the state
    // measured is the full pool's. One of these answers is checked too.
    let q: Vec<TauQuery> = bench.pool.sources.iter().map(|&s| cold_query(s)).collect();
    let answers = bench.svc.submit_batch(&q);
    let mut bad = bench.pool.absorb(&all, &answers);
    if let Some(a) = answers.get(bench.rng.below(answers.len())) {
        let want = local_mixing_time(&bench.mirror, a.query.source, &config().opts(&a.query));
        bad += u64::from(!same_answer(&a.result, &want));
    }
    report.tally(1, u64::from(bad > 0));
    let cache = bench.svc.cache_bytes();
    report.note(format!(
        "cache_mib={:.3} over {} cached sources after the run",
        cache as f64 / (1 << 20) as f64,
        bench.svc.cached_sources()
    ));
    report.set(
        "state_mib",
        (cache + bench.mirror.memory_bytes()) as f64 / (1 << 20) as f64,
    );
    if args.trace {
        report.set(
            "service.bytes_per_source",
            cache as f64 / bench.svc.cached_sources().max(1) as f64,
        );
    }
    clock.report(&mut report);
    report
}

fn traced_metrics(report: &mut Report, tracer: &Tracer, log: &[Cycle]) {
    for (span, metric) in [
        ("service.warm_batch", "service.warm_batch_ms"),
        ("service.cold_batch", "service.cold_batch_ms"),
        ("service.apply_churn", "service.apply_churn_ms"),
        ("service.record", "service.record_ms"),
        ("service.replay", "service.replay_ms"),
    ] {
        let d = tracer.durations_ms(span);
        if !d.is_empty() {
            report.set(metric, median(&d));
        }
    }
    let mirror: Vec<f64> = log
        .iter()
        .map(|c| c.mirror_apply.as_secs_f64() * 1e3)
        .collect();
    report.set("graph.churn_apply_ms", median(&mirror));
    let delta = |(a, b): (ServiceStats, ServiceStats)| {
        (
            b.cache_hits - a.cache_hits,
            b.queries - a.queries,
            b.engine_steps - a.engine_steps,
            b.blocks - a.blocks,
        )
    };
    let (mut hits, mut queries) = (0, 0);
    let (mut steps, mut blocks) = (Vec::new(), Vec::new());
    for c in log {
        let (wh, wq, _, wb) = delta(c.warm_stats);
        let (ch, cq, cs, cb) = delta(c.cold_stats);
        hits += wh + ch;
        queries += wq + cq;
        steps.push(cs as f64);
        blocks.push((wb + cb) as f64);
    }
    report.set("service.hit_ratio", hits as f64 / queries.max(1) as f64);
    report.set("service.engine_steps", mean(&steps));
    report.set("service.blocks", mean(&blocks));
    let retained: usize = log.iter().map(|c| c.retained).sum();
    let dropped: usize = log.iter().map(|c| c.dropped).sum();
    report.set(
        "service.retained_ratio",
        retained as f64 / (retained + dropped).max(1) as f64,
    );
    crate::note_self_times(report, tracer);
}
