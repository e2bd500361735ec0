//! # lmt-gossip
//!
//! The push–pull gossip process and **partial information spreading**
//! (§4 of Molla & Pandurangan, IPDPS 2018).
//!
//! Theorem 3: running push–pull for `O(τ(β,ε)·log n)` rounds achieves
//! `(δ, β)`-partial information spreading whp — every token reaches at least
//! `n/β` nodes and every node collects at least `n/β` distinct tokens
//! (Definition 3). The analysis views each token's trajectory as a random
//! walk that locally mixes (doubling the number of sources each phase), and
//! the paper's punchline is that the *computable* local mixing time supplies
//! a concrete **termination rule** for push–pull, which the weak-conductance
//! bound of \[4\] cannot (Φ_c is not known to be efficiently computable).
//!
//! Modules:
//! * [`pushpull`] — the process in the LOCAL model (unbounded tokens per
//!   edge per round, as in the §4 analysis) and a CONGEST-limited variant
//!   (one token per edge direction per round, footnote 10's
//!   `O(τ log n + n/β)` regime).
//! * [`coverage`] — Definition 3 checkers and the rounds-to-spread measurement.
//! * [`apps`] — downstream uses cited by the paper: full information
//!   spreading, leader election (random-rank dissemination), and
//!   distributed maximum coverage \[4, 5\].
//! * [`consensus`] — Ben-Or-style randomized binary consensus on the
//!   CONGEST substrate, runnable under its fault plane.
//!
//! ## Faults
//!
//! The gossip process shares the substrate's
//! [`FaultPlan`](lmt_congest::fault::FaultPlan): [`Gossip::with_faults`]
//! applies crash-stop schedules and per-direction drop decisions to the
//! exchange contacts with the same seeded-stream discipline the routing
//! plane uses, so faulty runs stay deterministic and a trivial plan is
//! bit-identical to a fault-free one. [`apps::elect_leader`] and
//! [`apps::rounds_to_full_spread`] take an optional plan and measure the
//! applications' completion under those schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod consensus;
pub mod coverage;
pub mod pushpull;

pub use consensus::{run_consensus, ConsensusOutcome};
pub use coverage::{coverage_stats, CoverageStats};
pub use pushpull::{Gossip, GossipMode};
