//! §4 end-to-end: partial information spreading with a τ-based termination
//! rule (Theorem 3), plus the downstream applications the paper cites —
//! leader election and distributed maximum coverage.
//!
//! Run: `cargo run --release --example partial_spreading`

use local_mixing_repro::prelude::*;

fn main() {
    let beta = 8usize;
    let (graph, spec) = gen::ring_of_cliques_regular(beta, 32);
    let n = graph.n();
    println!(
        "workload: ring of {} cliques of {}, n = {n}; target: every token at ≥ n/β = {} nodes,\nevery node with ≥ {} tokens (Definition 3)\n",
        spec.beta,
        spec.clique_size,
        n / beta,
        n / beta
    );

    // Theorem 3's termination rule: τ(β,ε)·ln n rounds of push-pull.
    // Estimate τ_s from one source with Algorithm 2 (2-approximation).
    let cfg = AlgoConfig::new(beta as f64);
    let tau_hat = local_mixing_time_approx(&graph, 0, &cfg).expect("algorithm 2").ell;
    let budget = (tau_hat as f64 * (n as f64).ln()).ceil() as u64 * 4;
    println!("τ̂ from Algorithm 2: {tau_hat}; termination budget 4·τ̂·ln n = {budget} rounds");

    let mut gossip = Gossip::new(&graph, GossipMode::Local, 99);
    gossip.run(budget);
    let st = coverage_stats(&gossip);
    println!(
        "after {budget} rounds: min token reach = {}, min tokens/node = {}, mean = {:.1}",
        st.min_token_reach, st.min_node_tokens, st.mean_node_tokens
    );
    assert!(
        is_beta_spread(&gossip, beta as f64),
        "Theorem 3 budget must achieve (δ,β)-spreading"
    );
    println!("✓ (δ,β)-partial spreading achieved within the τ-based budget\n");

    // Application 1: leader election (seeded random ranks, min-rank dissemination).
    let (leader, rounds) = elect_leader(&graph, GossipMode::Local, 5, 1 << 20, None).expect("leader");
    println!("leader election: node {leader} elected after {rounds} rounds");

    // Application 2: distributed maximum coverage over gossiped sets.
    let inst = CoverageInstance::random(n, 512, 24, 7);
    let covered = distributed_max_coverage(&graph, &inst, 4, budget, 13);
    let min = covered.iter().min().unwrap();
    let max = covered.iter().max().unwrap();
    println!(
        "max-coverage (k = 4 sets, universe 512): per-node greedy coverage in [{min}, {max}]"
    );
}
