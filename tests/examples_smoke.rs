//! Smoke tests mirroring the five examples' core paths on tiny graphs, so
//! example rot is caught by tier-1 (`cargo test`) instead of first being
//! noticed when someone runs `cargo run --example …`.
//!
//! Each test is the skeleton of one `examples/*.rs` file with the workload
//! shrunk until the whole file runs in milliseconds; the assertions are the
//! same invariants the examples assert (or print as their takeaway).

use local_mixing_repro::prelude::*;

/// `examples/quickstart.rs`: oracle, Algorithm 2, and the exact distributed
/// variant agree on a small regularized clique ring.
#[test]
fn quickstart_core_path() {
    let (graph, spec) = gen::ring_of_cliques_regular(3, 8);
    assert_eq!(graph.n(), spec.n());
    assert!(props::regularity(&graph).is_some(), "workload must be regular");
    let source = 1;
    let beta = 3.0;

    let opts = LocalMixOptions::new(beta);
    let oracle = local_mixing_time(&graph, source, &opts).expect("oracle");
    assert!(oracle.witness.size >= 1);

    let tau_mix = mixing_time(&graph, source, opts.eps, WalkKind::Simple, 1 << 20)
        .expect("mixing time")
        .tau;
    assert!(
        oracle.tau <= tau_mix,
        "local mixing ({}) must not exceed global ({tau_mix})",
        oracle.tau
    );

    let cfg = AlgoConfig::new(beta);
    let approx = local_mixing_time_approx(&graph, source, &cfg).expect("algorithm 2");
    let exact = local_mixing_time_exact_distributed(&graph, source, &cfg).expect("exact variant");
    assert!(exact.ell >= 1 && approx.ell >= 1);
    assert!(
        exact.ell <= approx.ell,
        "doubling search (ℓ = {}) cannot stop below the exact variant (ℓ = {})",
        approx.ell,
        exact.ell
    );
    assert!(approx.metrics.rounds > 0 && approx.metrics.messages > 0);
}

/// `examples/barbell_gap.rs`: the τ_s ≪ τ_mix separation direction holds on
/// clique rings at every β.
#[test]
fn barbell_gap_core_path() {
    for beta in [3usize, 4] {
        let (g, _) = gen::ring_of_cliques_regular(beta, 8);
        let src = 1;
        let opts = LocalMixOptions::new(beta as f64);
        let tau_s = local_mixing_time(&g, src, &opts).expect("oracle").tau;
        let tau_mix = mixing_time(&g, src, opts.eps, WalkKind::Simple, 1 << 22)
            .expect("mixing")
            .tau;
        assert!(
            tau_s <= tau_mix,
            "β = {beta}: τ_s = {tau_s} exceeds τ_mix = {tau_mix}"
        );
    }
    let (g, _) = gen::ring_of_cliques_regular(4, 8);
    let r = local_mixing_time_approx(&g, 1, &AlgoConfig::new(4.0)).expect("algorithm 2");
    assert!(r.metrics.rounds > 0);
}

/// `examples/estimator_comparison.rs`: all three estimators produce answers
/// with their advertised cost/accuracy structure.
#[test]
fn estimator_comparison_core_path() {
    // An expander keeps τ_mix (and with it the flood estimator's round
    // count, which the simulator pays in wall-clock) small; the example's
    // clique ring takes minutes in debug builds.
    let graph = gen::random_regular(16, 4, 5);
    let src = 0;
    let cfg = AlgoConfig::new(4.0);

    let flood = estimate_global_mixing_time(&graph, src, &cfg).expect("flood estimator");
    assert!(flood.tau >= 1);
    assert!(flood.metrics.rounds > 0);

    // Mirror the example's first-class probe budget: in the grey-area
    // regime (accuracy floor > ε) the sampling estimator bails out before
    // charging a probe instead of doubling ℓ to max_len at K·ℓ walk-steps
    // per probe.
    let mut samp_cfg = cfg;
    samp_cfg.probe_budget = Some(100_000);
    for walks in [50usize, 500] {
        let samp = das_sarma_style_estimate(&graph, src, &samp_cfg, walks);
        assert!(samp.accuracy_floor > 0.0);
        if samp.in_grey_area(samp_cfg.eps) {
            assert!(samp.bailed_out);
            assert_eq!(samp.rounds_charged, 0);
        } else {
            assert!(samp.rounds_charged > 0);
        }
        if let Some(tau) = samp.tau {
            assert!(tau >= 1);
        }
    }

    let local = local_mixing_time_approx(&graph, src, &cfg).expect("algorithm 2");
    assert!(local.ell >= 1);
}

/// `examples/partial_spreading.rs`: the τ-based budget achieves
/// (δ,β)-spreading, and the two applications run.
#[test]
fn partial_spreading_core_path() {
    let beta = 3usize;
    let (graph, _) = gen::ring_of_cliques_regular(beta, 8);
    let n = graph.n();

    let cfg = AlgoConfig::new(beta as f64);
    let tau_hat = local_mixing_time_approx(&graph, 0, &cfg)
        .expect("algorithm 2")
        .ell;
    let budget = (tau_hat as f64 * (n as f64).ln()).ceil() as u64 * 4;

    let mut gossip = Gossip::new(&graph, GossipMode::Local, 99);
    gossip.run(budget);
    let st = coverage_stats(&gossip);
    assert!(st.min_token_reach >= 1);
    assert!(
        is_beta_spread(&gossip, beta as f64),
        "τ-based budget ({budget} rounds) must achieve (δ,β)-spreading"
    );

    let (leader, rounds) = elect_leader(&graph, GossipMode::Local, 5, 1 << 16, None).expect("leader");
    let ranks = election_ranks(n, 5);
    let expected = (0..n).min_by_key(|&v| ranks[v]).unwrap();
    assert_eq!(leader, expected, "rank-based election elects the min-rank holder");
    assert!(rounds > 0);

    let inst = CoverageInstance::random(n, 64, 8, 7);
    let covered = distributed_max_coverage(&graph, &inst, 3, budget, 13);
    assert_eq!(covered.len(), n);
    assert!(covered.iter().all(|&c| c <= 64));
    assert!(covered.iter().all(|&c| c > 0));
}

/// `examples/network_doctor.rs`: the triage pipeline (degrees, diameter,
/// λ₂, sweep cut + Cheeger interval, mixing times, weak conductance) runs
/// on each topology archetype.
#[test]
fn network_doctor_core_path() {
    use lmt_spectral::cheeger::conductance_bounds;
    use lmt_spectral::power::lambda2;
    use lmt_spectral::sweep::best_sweep_cut;
    use lmt_spectral::weak::weak_conductance_heuristic;

    let eps = 1.0 / (8.0 * std::f64::consts::E);
    for graph in [
        gen::random_regular(16, 4, 21),
        gen::dumbbell(6, 2),
        gen::path(12),
    ] {
        let (lo, hi) = props::degree_extremes(&graph);
        assert!(1 <= lo && lo <= hi);
        assert!(props::diameter(&graph).is_some(), "archetypes are connected");

        let est = lambda2(&graph, WalkKind::Lazy, 1e-8, 50_000, 7);
        assert!(est.gap > 0.0, "connected lazy chains have a spectral gap");

        let mut p = Dist::point(graph.n(), 0);
        for _ in 0..4 {
            p = lmt_walks::step::step(&graph, &p, WalkKind::Lazy);
        }
        if let Some((cut, phi)) = best_sweep_cut(&graph, p.as_slice(), 2) {
            assert!(!cut.is_empty() && cut.len() < graph.n());
            let chk = conductance_bounds(est.lambda2, phi);
            assert!(chk.lo <= chk.hi);
        }

        let tau_mix = mixing_time(&graph, 0, eps, WalkKind::Lazy, 1 << 20).expect("lazy mixes");
        assert!(tau_mix.tau >= 1);
        if let Some(r) = local_mixing_time_general(&graph, 0, 4.0, eps, WalkKind::Lazy, 1 << 20) {
            assert!(r.set_size >= 1);
            assert!(r.tau <= 1 << 20);
        }

        let sources: Vec<usize> = (0..graph.n()).step_by((graph.n() / 4).max(1)).collect();
        let phi_weak = weak_conductance_heuristic(&graph, 4.0, &sources, 8);
        assert!(phi_weak > 0.0, "connected graphs have positive weak conductance");
    }
}
