//! The sweep runner: execute every cell of a [`SweepSpec`] and produce one
//! [`BenchRecord`].
//!
//! Per cell, the runner builds the graph, decorates it with the cell's
//! weighting, pins `LMT_THREADS` to the cell's pool width (restoring the
//! prior value afterwards — the rayon shim reads the variable on every
//! dispatch, so mid-process pinning takes effect immediately), computes
//! `τ_s(β,ε)` once for the record, then wall-clocks `reps` repetitions and
//! stores the median/min/max.
//!
//! Dense-reference cells are cross-checked: the engine computes τ first
//! (its no-witness path is non-panicking), the dense path is only timed
//! when a witness exists, and the two τ values are asserted equal — the
//! record's τ column is simultaneously a correctness regression net.
//!
//! Application cells (`elect`, `spread`) run the gossip applications under
//! the cell's fault plan and store **completion rounds** in the τ column
//! (`null` = the cap was exhausted — under faults a legitimate outcome,
//! not an error). Fault-free cells keep the pre-fault-dimension scenario
//! keys (no `|fault=` segment), so existing golden records still match.
//!
//! Service cells (`service_cold`, `service_warm`) time a
//! [`TauService`] batch over `service_sources` sources spread across the
//! graph — cold builds a fresh service per rep (every rep pays the
//! evolutions), warm replays a pre-warmed cache. Warm answers are asserted
//! bit-equal to a cold run's before timing, so both cells record the same
//! τ column (max over the sampled sources) and the diff gate sees
//! cache-correctness regressions as τ mismatches.
//!
//! Churned service cells (a non-`"none"` churn dimension value) warm the
//! service, land the spec's seeded edit schedule through
//! [`TauService::apply_churn`], and record the **post-churn** batch — after
//! asserting every post-churn answer bit-identical to a fresh oracle on
//! the post-churn topology. Churn-free cells keep the pre-churn-dimension
//! scenario keys (no `|churn=` segment), so existing goldens still match.

use lmt_gossip::apps::{elect_leader, rounds_to_full_spread};
use lmt_gossip::GossipMode;
use lmt_graph::props::bipartition;
use lmt_graph::{ChurnGraph, EdgeEdit, Graph, WalkGraph};
use lmt_service::{ServiceConfig, TauAnswer, TauQuery, TauService};
use lmt_walks::local::{FlatPolicy, LocalMixOptions, SizeGrid};
use lmt_walks::WalkKind;

use crate::record::{BenchRecord, Cell};
use crate::spec::{AnyGraph, EngineChoice, FaultSpec, SweepSpec};
use crate::{dense_reference, timing};

/// Pin `LMT_THREADS` for the guard's lifetime, restoring the prior value
/// (or its absence) on drop.
struct ThreadsGuard(Option<std::ffi::OsString>);

impl ThreadsGuard {
    fn pin(width: usize) -> ThreadsGuard {
        let prior = std::env::var_os("LMT_THREADS");
        std::env::set_var("LMT_THREADS", width.to_string());
        ThreadsGuard(prior)
    }
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        match self.0.take() {
            Some(prior) => std::env::set_var("LMT_THREADS", prior),
            None => std::env::remove_var("LMT_THREADS"),
        }
    }
}

fn engine_tau(g: &AnyGraph, src: usize, opts: &LocalMixOptions) -> Option<u64> {
    match g {
        AnyGraph::Unweighted(g) => lmt_walks::local::local_mixing_time(g, src, opts),
        AnyGraph::Weighted(g) => lmt_walks::local::local_mixing_time(g, src, opts),
    }
    .ok()
    .map(|r| r.tau as u64)
}

fn dense_tau(g: &AnyGraph, src: usize, opts: &LocalMixOptions) -> u64 {
    (match g {
        AnyGraph::Unweighted(g) => dense_reference::local_mixing_time(g, src, opts),
        AnyGraph::Weighted(g) => dense_reference::local_mixing_time(g, src, opts),
    }) as u64
}

/// The τ column of a service cell: `Some(max τ)` iff every sampled source
/// mixed within the cap.
fn service_taus(answers: &[TauAnswer]) -> Option<u64> {
    answers
        .iter()
        .map(|a| a.result.as_ref().ok().map(|r| r.tau as u64))
        .collect::<Option<Vec<u64>>>()
        .and_then(|taus| taus.into_iter().max())
}

/// Assert `replay` carries the same answers as `cold`, witness bits
/// included — the warm cell's correctness net.
fn assert_service_replay(replay: &[TauAnswer], cold: &[TauAnswer], what: &str) {
    assert_eq!(replay.len(), cold.len(), "{what}: answer count changed");
    for (r, c) in replay.iter().zip(cold) {
        match (&r.result, &c.result) {
            (Ok(r), Ok(c)) => {
                assert_eq!(r.tau, c.tau, "{what}: warm/cold τ disagree");
                assert_eq!(
                    r.witness.nodes, c.witness.nodes,
                    "{what}: warm/cold witness sets disagree"
                );
            }
            (Err(_), Err(_)) => {}
            _ => panic!("{what}: warm/cold verdicts disagree"),
        }
    }
}

/// Run one service cell: build the query batch (`sources` sources spread
/// evenly across the graph, all at the cell's `(β, ε)`), compute the cold
/// reference answers, then time either fresh-service batches (cold) or
/// pre-warmed cache replays (warm).
fn service_cell<G: WalkGraph + Clone>(
    g: &G,
    engine: EngineChoice,
    opts: &LocalMixOptions,
    sources: usize,
    reps: usize,
) -> (Option<u64>, Vec<f64>) {
    let n = g.n();
    let q = sources.min(n);
    let queries: Vec<TauQuery> = (0..q)
        .map(|i| TauQuery {
            source: i * n / q,
            beta: opts.beta,
            eps: opts.eps,
        })
        .collect();
    let config = ServiceConfig {
        kind: opts.kind,
        max_t: opts.max_t,
        grid: opts.grid,
        flat_policy: opts.flat_policy,
        ..ServiceConfig::default()
    };
    let cold = TauService::with_config(g.clone(), config).submit_batch(&queries);
    let tau = service_taus(&cold);
    let timing = match engine {
        EngineChoice::ServiceCold => timing::time_reps_ms(reps, || {
            TauService::with_config(g.clone(), config).submit_batch(&queries);
        }),
        EngineChoice::ServiceWarm => {
            let service = TauService::with_config(g.clone(), config);
            assert_service_replay(&service.submit_batch(&queries), &cold, "warm-up");
            assert_service_replay(&service.submit_batch(&queries), &cold, "replay");
            timing::time_reps_ms(reps, || {
                service.submit_batch(&queries);
            })
        }
        _ => unreachable!("service_cell called for a non-service engine"),
    };
    (tau, timing)
}

/// Run one **churned** service cell: warm a [`TauService`] over a
/// [`ChurnGraph`], drive the cell's edit schedule through
/// [`TauService::apply_churn`], and re-answer the same batch on the churned
/// topology. Before anything is timed, every post-churn answer is asserted
/// bit-identical (τ, witness set, witness L1) to a fresh oracle run on the
/// post-churn topology — the record's τ column doubles as a correctness
/// net for support-aware cache invalidation, exactly like the dense
/// cross-check does for the engine.
///
/// Cold times the whole episode per rep (fresh service, warm-up batch,
/// churn, post-churn batch); warm times post-churn replays of the
/// already-churned service, so the cold/warm gap shows what the surviving
/// cache is worth after churn.
fn churned_service_cell(
    g: &Graph,
    engine: EngineChoice,
    opts: &LocalMixOptions,
    sources: usize,
    reps: usize,
    schedule: &[Vec<EdgeEdit>],
) -> (Option<u64>, Vec<f64>) {
    let n = g.n();
    let q = sources.min(n);
    let queries: Vec<TauQuery> = (0..q)
        .map(|i| TauQuery {
            source: i * n / q,
            beta: opts.beta,
            eps: opts.eps,
        })
        .collect();
    let config = ServiceConfig {
        kind: opts.kind,
        max_t: opts.max_t,
        grid: opts.grid,
        flat_policy: opts.flat_policy,
        ..ServiceConfig::default()
    };
    // One churn episode: warm on the base topology, land every edit batch,
    // re-answer the same queries on the churned topology.
    let episode = || {
        let service = TauService::with_config(ChurnGraph::new(g.clone()), config);
        service.submit_batch(&queries);
        for batch in schedule {
            service
                .apply_churn(batch)
                .expect("scheduled batches are valid in application order");
        }
        let post = service.submit_batch(&queries);
        (service, post)
    };
    let (service, post) = episode();

    // Differential net: an independent mirror of the schedule yields the
    // post-churn topology; every answer the churned service just gave must
    // be bit-identical to a fresh oracle run on it.
    let mut mirror = ChurnGraph::new(g.clone());
    for batch in schedule {
        mirror
            .apply(batch)
            .expect("mirror replays the exact batches the service accepted");
    }
    let post_topology = mirror.topology().clone();
    for a in &post {
        let fresh = lmt_walks::local::local_mixing_time(&post_topology, a.query.source, opts);
        match (&a.result, &fresh) {
            (Ok(got), Ok(want)) => {
                assert_eq!(
                    got.tau, want.tau,
                    "churned service τ diverged from the post-churn oracle (src {})",
                    a.query.source
                );
                assert_eq!(
                    got.witness.nodes, want.witness.nodes,
                    "churned service witness set diverged (src {})",
                    a.query.source
                );
                assert_eq!(
                    got.witness.l1.to_bits(),
                    want.witness.l1.to_bits(),
                    "churned service witness L1 diverged (src {})",
                    a.query.source
                );
            }
            (Err(e), Err(w)) => assert_eq!(e, w, "churned service error diverged"),
            _ => panic!(
                "churned service verdict diverged from the post-churn oracle (src {})",
                a.query.source
            ),
        }
    }

    let tau = service_taus(&post);
    let timing = match engine {
        EngineChoice::ServiceCold => timing::time_reps_ms(reps, || {
            episode();
        }),
        EngineChoice::ServiceWarm => {
            assert_service_replay(&service.submit_batch(&queries), &post, "churned replay");
            timing::time_reps_ms(reps, || {
                service.submit_batch(&queries);
            })
        }
        _ => unreachable!("churned_service_cell called for a non-service engine"),
    };
    (tau, timing)
}

/// Completion rounds of an application cell (`None` = cap exhausted).
fn app_rounds(engine: EngineChoice, g: &Graph, fault: &FaultSpec, cap: u64) -> Option<u64> {
    let seed = fault.seed();
    let mode = GossipMode::Local;
    let faults = fault.plan(g.n());
    match engine {
        EngineChoice::Elect => elect_leader(g, mode, seed, cap, faults).map(|(_, r)| r),
        EngineChoice::Spread => rounds_to_full_spread(g, mode, seed, cap, faults),
        _ => unreachable!("app_rounds called for a τ engine"),
    }
}

/// Run every cell of `spec` and return the record (cells in spec order:
/// graphs × weightings × betas × epsilons × faults × engines × threads).
pub fn run_sweep(spec: &SweepSpec) -> BenchRecord {
    let mut record = BenchRecord::new(spec.tag.clone());
    record.cells.reserve(spec.cell_count());

    for graph_spec in &spec.graphs {
        let workload = graph_spec.build();
        // Walk kind depends only on the topology: lazy iff bipartite.
        let kind = if bipartition(&workload.graph).is_some() {
            WalkKind::Lazy
        } else {
            WalkKind::Simple
        };
        for weighting in &spec.weightings {
            let g = weighting.apply(workload.graph.clone());
            for &beta in &spec.betas {
                for &eps in &spec.epsilons {
                    let mut opts = LocalMixOptions::new(beta);
                    opts.eps = eps;
                    opts.grid = SizeGrid::Geometric;
                    opts.kind = kind;
                    opts.max_t = spec.max_t;
                    // Paths and weighted decorations are not regular; use
                    // the paper's loose flat treatment (as `oracle_tau`).
                    opts.flat_policy = FlatPolicy::AssumeFlat;

                    // faults × churns, flattened: churn is one more spec
                    // dimension, ordered inside the fault dimension.
                    let fault_churn = spec
                        .faults
                        .iter()
                        .flat_map(|f| spec.churns.iter().map(move |c| (f, c)));
                    for (fault, churn) in fault_churn {
                        // Materialized once per (graph, churn): every
                        // engine × width cell replays the same batches.
                        let schedule = churn.schedule(&workload.graph);
                        for &engine in &spec.engines {
                            assert!(
                                schedule.is_empty() || engine.is_service(),
                                "non-trivial churn reached a non-service engine — \
                                 the spec parser should have rejected this"
                            );
                            for &width in &spec.threads {
                                let _pin = ThreadsGuard::pin(width);
                                let (tau, timing) = if engine.is_app() {
                                    let topo = match &g {
                                        AnyGraph::Unweighted(g) => g,
                                        AnyGraph::Weighted(_) => unreachable!(
                                            "spec parse enforces unit weighting for app engines"
                                        ),
                                    };
                                    let cap = spec.max_t as u64;
                                    let tau = app_rounds(engine, topo, fault, cap);
                                    let timing = Some(timing::time_reps_ms(spec.reps, || {
                                        app_rounds(engine, topo, fault, cap);
                                    }));
                                    (tau, timing)
                                } else if engine.is_service() {
                                    let (tau, timing) = if !schedule.is_empty() {
                                        let AnyGraph::Unweighted(base) = &g else {
                                            unreachable!(
                                                "spec parse enforces unit weighting for churn"
                                            )
                                        };
                                        churned_service_cell(
                                            base,
                                            engine,
                                            &opts,
                                            spec.service_sources,
                                            spec.reps,
                                            &schedule,
                                        )
                                    } else {
                                        match &g {
                                            AnyGraph::Unweighted(g) => service_cell(
                                                g,
                                                engine,
                                                &opts,
                                                spec.service_sources,
                                                spec.reps,
                                            ),
                                            AnyGraph::Weighted(g) => service_cell(
                                                g,
                                                engine,
                                                &opts,
                                                spec.service_sources,
                                                spec.reps,
                                            ),
                                        }
                                    };
                                    (tau, Some(timing))
                                } else {
                                    let tau = engine_tau(&g, workload.source, &opts);
                                    let timing = match (engine, tau) {
                                        (EngineChoice::Engine, _) => {
                                            Some(timing::time_reps_ms(spec.reps, || {
                                                engine_tau(&g, workload.source, &opts);
                                            }))
                                        }
                                        (EngineChoice::Dense, Some(tau)) => {
                                            let dense = dense_tau(&g, workload.source, &opts);
                                            assert_eq!(
                                                dense, tau,
                                                "dense/engine τ disagree on {} — bit-compat broken",
                                                workload.name
                                            );
                                            Some(timing::time_reps_ms(spec.reps, || {
                                                dense_tau(&g, workload.source, &opts);
                                            }))
                                        }
                                        (EngineChoice::Dense, None) => {
                                            // The dense reference panics on a
                                            // missed cap; record the cell
                                            // untimed instead.
                                            eprintln!(
                                                "warning: {}: no witness within max_t={}, dense cell untimed",
                                                workload.name, spec.max_t
                                            );
                                            None
                                        }
                                        _ => unreachable!("app engines handled above"),
                                    };
                                    (tau, timing)
                                };
                                let fault_label = fault.label();
                                // Fault-free keys stay in the pre-fault
                                // format so older records keep matching.
                                let fault_key = if fault_label == "none" {
                                    String::new()
                                } else {
                                    format!("|fault={fault_label}")
                                };
                                let churn_label = churn.label();
                                // Churn-free keys likewise stay in the
                                // pre-churn format.
                                let churn_key = if churn_label == "none" {
                                    String::new()
                                } else {
                                    format!("|churn={churn_label}")
                                };
                                record.cells.push(Cell {
                                    scenario: format!(
                                        "g={}|w={}|beta={beta}|eps={eps}|engine={}{fault_key}{churn_key}|threads={width}",
                                        workload.name,
                                        weighting.label(),
                                        engine.label(),
                                    ),
                                    graph: workload.name.clone(),
                                    weighting: weighting.label(),
                                    beta,
                                    eps,
                                    engine: engine.label().to_string(),
                                    fault: fault_label,
                                    churn: churn_label,
                                    threads: width,
                                    tau,
                                    mem_bytes: Some(g.memory_bytes()),
                                    timing: timing.as_deref().and_then(timing::summarize),
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    record
}

/// Render a record's cells as the repo's standard table (what `bench_sweep`
/// prints after a run).
pub fn render_table(record: &BenchRecord) -> String {
    let mut t = lmt_util::table::Table::new(
        format!("sweep {} ({} cells)", record.tag, record.cells.len()),
        &["graph", "w", "β", "ε", "engine", "fault", "churn", "thr", "τ", "mem MiB", "median ms", "min..max"],
    );
    for c in &record.cells {
        t.row(&[
            c.graph.clone(),
            c.weighting.clone(),
            format!("{}", c.beta),
            format!("{:.4}", c.eps),
            c.engine.clone(),
            c.fault.clone(),
            c.churn.clone(),
            c.threads.to_string(),
            crate::fmt_opt(c.tau),
            c.mem_bytes
                .map_or("-".into(), |b| format!("{:.2}", b as f64 / (1 << 20) as f64)),
            c.timing
                .map_or("-".into(), |s| format!("{:.3}", s.median_ms)),
            c.timing
                .map_or("-".into(), |s| format!("{:.3}..{:.3}", s.min_ms, s.max_ms)),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChurnSpec, GraphSpec, Weighting};

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            tag: "unit-e2e".into(),
            reps: 2,
            max_t: 10_000,
            graphs: vec![
                GraphSpec::Complete { n: 16 },
                GraphSpec::CliqueRing { beta: 4, k: 8 },
            ],
            weightings: vec![Weighting::Unit, Weighting::Uniform(2.0)],
            betas: vec![4.0],
            epsilons: vec![crate::EPS],
            faults: vec![FaultSpec::None],
            churns: vec![ChurnSpec::None],
            engines: vec![EngineChoice::Engine, EngineChoice::Dense],
            threads: vec![1],
            service_sources: 16,
        }
    }

    #[test]
    fn end_to_end_tiny_sweep() {
        let spec = tiny_spec();
        let record = run_sweep(&spec);
        assert_eq!(record.cells.len(), spec.cell_count());
        assert_eq!(record.tag, "unit-e2e");

        // Every cell measured: witness found, timing recorded, engine/dense
        // agree on τ within each (graph, weighting) pair.
        for cell in &record.cells {
            assert!(cell.tau.is_some(), "{} missed its witness", cell.scenario);
            let t = cell.timing.expect("timed");
            assert_eq!(t.reps, spec.reps);
            assert!(t.min_ms <= t.median_ms && t.median_ms <= t.max_ms);
        }
        for pair in record.cells.chunks(2) {
            assert_eq!(
                pair[0].tau, pair[1].tau,
                "engine/dense disagree: {} vs {}",
                pair[0].scenario, pair[1].scenario
            );
        }

        // Scenario keys are unique (the diff tool matches on them).
        let mut keys: Vec<&str> = record.cells.iter().map(|c| c.scenario.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), record.cells.len());

        // Weighted uniform cells agree with their unweighted twins (the
        // WalkGraph seam's bit-compat contract, surfaced in the record).
        let tau_of = |w: &str, e: &str| {
            record
                .cells
                .iter()
                .find(|c| c.graph.starts_with("complete") && c.weighting == w && c.engine == e)
                .unwrap()
                .tau
        };
        assert_eq!(tau_of("unit", "engine"), tau_of("uniform(2)", "engine"));

        // The record round-trips through the JSON layer.
        let text = record.to_json().render();
        assert_eq!(crate::record::BenchRecord::parse(&text).unwrap(), record);

        // And renders as a table without panicking.
        assert!(render_table(&record).contains("complete(n=16)"));
    }

    #[test]
    fn app_engine_cells_record_completion_rounds() {
        let spec = SweepSpec {
            tag: "apps".into(),
            reps: 1,
            max_t: 100_000,
            graphs: vec![GraphSpec::Barbell { beta: 2, k: 6 }],
            weightings: vec![Weighting::Unit],
            betas: vec![2.0],
            epsilons: vec![0.1],
            faults: vec![
                FaultSpec::None,
                FaultSpec::Drop { p: 0.3, seed: 7 },
                FaultSpec::Crash { count: 2, round: 1, seed: 7 },
            ],
            churns: vec![ChurnSpec::None],
            engines: vec![EngineChoice::Elect, EngineChoice::Spread],
            threads: vec![1],
            service_sources: 16,
        };
        let record = run_sweep(&spec);
        assert_eq!(record.cells.len(), spec.cell_count());
        for cell in &record.cells {
            let rounds = cell.tau.unwrap_or_else(|| panic!("{} hit the cap", cell.scenario));
            assert!(rounds > 0, "{}", cell.scenario);
            assert!(cell.timing.is_some(), "{}", cell.scenario);
        }
        // Fault-free cells keep the legacy key shape; faulty cells carry
        // the fault label between the engine and threads segments.
        assert!(!record.cells[0].scenario.contains("fault="));
        assert_eq!(record.cells[0].fault, "none");
        assert!(record.cells[2]
            .scenario
            .contains("|engine=elect|fault=drop(p=0.3,seed=7)|threads=1"));
        // The whole sweep is deterministic: same spec, same τ column.
        let again = run_sweep(&spec);
        let taus = |r: &BenchRecord| r.cells.iter().map(|c| c.tau).collect::<Vec<_>>();
        assert_eq!(taus(&record), taus(&again));
    }

    #[test]
    fn service_cells_record_cold_and_warm() {
        let spec = SweepSpec {
            tag: "svc-e2e".into(),
            reps: 2,
            max_t: 10_000,
            graphs: vec![GraphSpec::CliqueRing { beta: 4, k: 8 }],
            weightings: vec![Weighting::Unit, Weighting::Uniform(2.0)],
            betas: vec![4.0],
            epsilons: vec![crate::EPS],
            faults: vec![FaultSpec::None],
            churns: vec![ChurnSpec::None],
            engines: vec![EngineChoice::ServiceCold, EngineChoice::ServiceWarm],
            threads: vec![1],
            service_sources: 5,
        };
        let record = run_sweep(&spec);
        assert_eq!(record.cells.len(), spec.cell_count());
        for pair in record.cells.chunks(2) {
            let (cold, warm) = (&pair[0], &pair[1]);
            assert_eq!(cold.engine, "service_cold", "{}", cold.scenario);
            assert_eq!(warm.engine, "service_warm", "{}", warm.scenario);
            // Both cells answer the same batch, so the τ column (max over
            // the sampled sources) must match — the diff gate's handle on
            // cache correctness.
            assert!(cold.tau.is_some(), "{}", cold.scenario);
            assert_eq!(cold.tau, warm.tau, "{}", warm.scenario);
            assert!(cold.timing.is_some() && warm.timing.is_some());
        }
        // Weighted uniform service cells agree with the unweighted twins.
        assert_eq!(record.cells[0].tau, record.cells[2].tau);
    }

    #[test]
    fn churned_service_cells_survive_the_oracle_net() {
        let spec = SweepSpec {
            tag: "churn-e2e".into(),
            reps: 1,
            max_t: 20_000,
            graphs: vec![GraphSpec::CliqueRing { beta: 4, k: 8 }],
            weightings: vec![Weighting::Unit],
            betas: vec![4.0],
            epsilons: vec![crate::EPS],
            faults: vec![FaultSpec::None],
            churns: vec![ChurnSpec::None, ChurnSpec::Swap { batches: 2, seed: 23 }],
            engines: vec![EngineChoice::ServiceCold, EngineChoice::ServiceWarm],
            threads: vec![1],
            service_sources: 4,
        };
        let record = run_sweep(&spec);
        assert_eq!(record.cells.len(), spec.cell_count());
        // Cells in spec order: churn inside faults, engines inside churn.
        let (static_pair, churned_pair) = record.cells.split_at(2);
        for cell in static_pair {
            assert_eq!(cell.churn, "none");
            assert!(!cell.scenario.contains("churn="), "{}", cell.scenario);
        }
        for cell in churned_pair {
            assert_eq!(cell.churn, "swap(batches=2,seed=23)");
            assert!(
                cell.scenario
                    .contains("|churn=swap(batches=2,seed=23)|threads=1"),
                "{}",
                cell.scenario
            );
            // run_sweep already asserted every post-churn answer against a
            // fresh oracle on the post-churn topology; the cell records
            // that batch's τ.
            assert!(cell.tau.is_some(), "{}", cell.scenario);
            assert!(cell.timing.is_some(), "{}", cell.scenario);
        }
        // Cold and warm churned cells answer the same post-churn batch.
        assert_eq!(churned_pair[0].tau, churned_pair[1].tau);
        // The whole sweep is deterministic: same spec, same τ column.
        let again = run_sweep(&spec);
        let taus = |r: &BenchRecord| r.cells.iter().map(|c| c.tau).collect::<Vec<_>>();
        assert_eq!(taus(&record), taus(&again));
    }

    #[test]
    fn threads_guard_restores_prior_value() {
        // Serialize against other tests touching the variable via the
        // guard itself: pin an outer value first.
        let _outer = ThreadsGuard::pin(1);
        {
            let _inner = ThreadsGuard::pin(2);
            assert_eq!(std::env::var("LMT_THREADS").unwrap(), "2");
        }
        assert_eq!(std::env::var("LMT_THREADS").unwrap(), "1");
    }

    #[test]
    fn unreachable_tau_records_null_and_untimed_dense() {
        // ε so small the path never flattens within the cap.
        let spec = SweepSpec {
            tag: "unreached".into(),
            reps: 1,
            max_t: 4,
            graphs: vec![GraphSpec::Path { n: 16 }],
            weightings: vec![Weighting::Unit],
            betas: vec![2.0],
            epsilons: vec![0.001],
            faults: vec![FaultSpec::None],
            churns: vec![ChurnSpec::None],
            engines: vec![EngineChoice::Engine, EngineChoice::Dense],
            threads: vec![1],
            service_sources: 16,
        };
        let record = run_sweep(&spec);
        assert_eq!(record.cells.len(), 2);
        assert_eq!(record.cells[0].tau, None);
        // Engine cells still time the (failed) search; dense cells must
        // not run at all (the reference panics on a missed cap).
        assert!(record.cells[0].timing.is_some());
        assert_eq!(record.cells[1].tau, None);
        assert!(record.cells[1].timing.is_none());
    }
}
