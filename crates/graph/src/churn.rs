//! Dynamic (edge-churn) graphs: one CSR, rebuilt by each accepted batch of
//! edge inserts and deletes.
//!
//! [`ChurnGraph`] is the substrate for the ROADMAP's dynamic-network
//! workload — P2P overlays with continual joins/leaves, the scenario the
//! paper's CONGEST model abstracts away. It implements [`WalkGraph`], so the
//! walk engine, Algorithm 2, and the CONGEST flood run unmodified over a
//! churning topology, and every topology-shaped consumer (BFS trees,
//! frontier scans, the dense-crossover volume test) reads the post-edit
//! CSR through [`WalkGraph::topology`].
//!
//! # Bit-for-bit contract
//!
//! The graph holds exactly one [`Graph`]: the current topology, in the
//! same sorted-row CSR a static build of that edge set produces. Every
//! [`WalkGraph`] method delegates to that CSR, so a churned graph's
//! results are bit-identical to a [`Graph`] built from scratch on the
//! post-edit edge set, and zero churn is the static graph itself — the
//! properties `tests/determinism.rs`'s churn layer pins. Memory is one
//! CSR whatever the edit history.
//!
//! # Edit semantics
//!
//! Edits arrive in batches via [`ChurnGraph::apply`]. A batch is **atomic**:
//! it either applies entirely or returns a typed [`ChurnError`] leaving the
//! graph untouched. Node count is fixed (edge churn only); inserts reuse the
//! compact-offset capacity guards of [`crate::GraphError`], so a churned
//! graph can never outgrow the `u32` CSR layout.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;

use crate::builder::{check_edge_slots, GraphError};
use crate::csr::EdgeIndex;
use crate::{Graph, WalkGraph};

/// One undirected edge edit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeEdit {
    /// Insert the currently absent edge `{u, v}`.
    Insert {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// Delete the currently present edge `{u, v}`.
    Delete {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
}

impl EdgeEdit {
    /// Shorthand for [`EdgeEdit::Insert`].
    pub fn insert(u: usize, v: usize) -> Self {
        EdgeEdit::Insert { u, v }
    }

    /// Shorthand for [`EdgeEdit::Delete`].
    pub fn delete(u: usize, v: usize) -> Self {
        EdgeEdit::Delete { u, v }
    }

    /// The edited endpoints `(u, v)` — what support-aware cache
    /// invalidation tests curves against.
    pub fn endpoints(&self) -> (usize, usize) {
        match *self {
            EdgeEdit::Insert { u, v } | EdgeEdit::Delete { u, v } => (u, v),
        }
    }
}

/// Typed rejection of an edit batch. Batches are atomic: any error leaves
/// the graph exactly as it was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnError {
    /// The edit would overflow the compact CSR layout (the same
    /// [`GraphError`] slot guards the builders enforce).
    Graph(GraphError),
    /// An endpoint is not a node of the graph.
    EndpointOutOfRange {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
        /// The (fixed) node count.
        n: usize,
    },
    /// Both endpoints are the same node (simple graphs only).
    SelfLoop {
        /// The offending node.
        u: usize,
    },
    /// Insert of an edge that already exists at that point of the batch.
    DuplicateInsert {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// Delete of an edge that does not exist at that point of the batch.
    MissingDelete {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::Graph(e) => write!(f, "churn rejected: {e}"),
            ChurnError::EndpointOutOfRange { u, v, n } => {
                write!(f, "edit ({u},{v}) out of range n={n}")
            }
            ChurnError::SelfLoop { u } => {
                write!(f, "self-loop edit at {u} rejected (simple graphs only)")
            }
            ChurnError::DuplicateInsert { u, v } => {
                write!(f, "insert of existing edge ({u},{v})")
            }
            ChurnError::MissingDelete { u, v } => {
                write!(f, "delete of absent edge ({u},{v})")
            }
        }
    }
}

impl std::error::Error for ChurnError {}

impl From<GraphError> for ChurnError {
    fn from(e: GraphError) -> Self {
        ChurnError::Graph(e)
    }
}

/// One batch's pending change to a node's row of the current CSR.
/// Invariants: both lists sorted ascending and duplicate-free,
/// `del ⊆ row`, `ins ∩ row = ∅` (re-inserting a deleted edge cancels the
/// deletion instead).
#[derive(Clone, Debug, Default)]
struct NodeDelta {
    ins: Vec<u32>,
    del: Vec<u32>,
}

/// Insert `v` into the sorted list `list` (must be absent).
fn sorted_insert(list: &mut Vec<u32>, v: u32) {
    let at = list.binary_search(&v).unwrap_err();
    list.insert(at, v);
}

/// Remove `v` from the sorted list `list`; returns whether it was present.
fn sorted_remove(list: &mut Vec<u32>, v: u32) -> bool {
    match list.binary_search(&v) {
        Ok(at) => {
            list.remove(at);
            true
        }
        Err(_) => false,
    }
}

/// Ascending merge of `row \ del ∪ ins` (see [`NodeDelta`]'s invariants:
/// the two result streams are disjoint, so the merge is a plain two-way
/// interleave with deleted row entries skipped).
struct MergedRow<'a> {
    row: &'a [u32],
    ins: &'a [u32],
    del: &'a [u32],
    r: usize,
    i: usize,
    d: usize,
}

impl Iterator for MergedRow<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        loop {
            if self.r < self.row.len() {
                let x = self.row[self.r];
                if self.d < self.del.len() && self.del[self.d] == x {
                    self.r += 1;
                    self.d += 1;
                    continue;
                }
                if self.i < self.ins.len() && self.ins[self.i] < x {
                    self.i += 1;
                    return Some(self.ins[self.i - 1]);
                }
                self.r += 1;
                return Some(x);
            }
            if self.i < self.ins.len() {
                self.i += 1;
                return Some(self.ins[self.i - 1]);
            }
            return None;
        }
    }
}

/// Does `{u, v}` exist once `delta` is merged into `graph`?
fn lives(graph: &Graph, delta: &BTreeMap<u32, NodeDelta>, u: usize, v: usize) -> bool {
    if let Some(nd) = delta.get(&(u as u32)) {
        if nd.ins.binary_search(&(v as u32)).is_ok() {
            return true;
        }
        if nd.del.binary_search(&(v as u32)).is_ok() {
            return false;
        }
    }
    graph.has_edge(u, v)
}

/// Merge `delta` into a fresh copy of `graph`.
fn rebuild(graph: &Graph, delta: &BTreeMap<u32, NodeDelta>, half_edges: usize) -> Graph {
    let n = graph.n();
    let mut offsets: Vec<EdgeIndex> = Vec::with_capacity(n + 1);
    let mut neighbors: Vec<u32> = Vec::with_capacity(half_edges);
    offsets.push(0);
    for u in 0..n {
        match delta.get(&(u as u32)) {
            None => neighbors.extend_from_slice(graph.neighbors_raw(u)),
            Some(nd) => neighbors.extend(MergedRow {
                row: graph.neighbors_raw(u),
                ins: &nd.ins,
                del: &nd.del,
                r: 0,
                i: 0,
                d: 0,
            }),
        }
        // Fits: half_edges stayed under the slot guard at every insert.
        offsets.push(neighbors.len() as EdgeIndex);
    }
    debug_assert_eq!(neighbors.len(), half_edges);
    Graph::from_raw(offsets, neighbors)
}

/// A dynamic graph: the current topology as one CSR, replaced by each
/// accepted edit batch (see the [module docs](self) for the bit-for-bit
/// contract).
#[derive(Clone, Debug)]
pub struct ChurnGraph {
    graph: Graph,
}

impl ChurnGraph {
    /// A churn graph starting at `graph`.
    pub fn new(graph: Graph) -> Self {
        ChurnGraph { graph }
    }

    /// Number of nodes (fixed; churn is edge-only).
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of undirected edges of the current topology.
    pub fn m(&self) -> usize {
        self.graph.m()
    }

    /// Adjacency test on the current topology.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.graph.has_edge(u, v)
    }

    /// Heap bytes of the CSR — the same as a static build of the current
    /// topology, whatever the edit history.
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
    }

    /// Apply one batch of edits **atomically**: on any [`ChurnError`] the
    /// graph is left exactly as it was. Within the batch, edits apply in
    /// order (so a batch may delete an edge it inserted). The batch is
    /// validated against a delta local to it, and on success the CSR is
    /// rebuilt by merging that delta into the touched rows — a cost of
    /// `O(n + m)` plus the batch, independent of earlier batches.
    pub fn apply(&mut self, edits: &[EdgeEdit]) -> Result<(), ChurnError> {
        if edits.is_empty() {
            return Ok(());
        }
        let n = self.n();
        let mut delta: BTreeMap<u32, NodeDelta> = BTreeMap::new();
        let mut half_edges = self.graph.total_volume();
        for &e in edits {
            let (u, v) = e.endpoints();
            if u >= n || v >= n {
                return Err(ChurnError::EndpointOutOfRange { u, v, n });
            }
            if u == v {
                return Err(ChurnError::SelfLoop { u });
            }
            match e {
                EdgeEdit::Insert { .. } => {
                    if lives(&self.graph, &delta, u, v) {
                        return Err(ChurnError::DuplicateInsert { u, v });
                    }
                    check_edge_slots(half_edges + 2, n)?;
                    for (a, b) in [(u, v), (v, u)] {
                        let nd = delta.entry(a as u32).or_default();
                        // Re-inserting an edge this batch deleted cancels
                        // the deletion; otherwise it is a fresh insert.
                        if !sorted_remove(&mut nd.del, b as u32) {
                            sorted_insert(&mut nd.ins, b as u32);
                        }
                    }
                    half_edges += 2;
                }
                EdgeEdit::Delete { .. } => {
                    if !lives(&self.graph, &delta, u, v) {
                        return Err(ChurnError::MissingDelete { u, v });
                    }
                    for (a, b) in [(u, v), (v, u)] {
                        let nd = delta.entry(a as u32).or_default();
                        // Deleting a same-batch insert cancels it;
                        // otherwise mark the existing edge deleted.
                        if !sorted_remove(&mut nd.ins, b as u32) {
                            sorted_insert(&mut nd.del, b as u32);
                        }
                    }
                    half_edges -= 2;
                }
            }
        }
        self.graph = rebuild(&self.graph, &delta, half_edges);
        Ok(())
    }
}

impl WalkGraph for ChurnGraph {
    #[inline]
    fn topology(&self) -> &Graph {
        &self.graph
    }

    #[inline]
    fn walk_degree(&self, u: usize) -> f64 {
        self.graph.walk_degree(u)
    }

    #[inline]
    fn total_walk_weight(&self) -> f64 {
        self.graph.total_walk_weight()
    }

    #[inline]
    fn loop_weight(&self, u: usize) -> f64 {
        self.graph.loop_weight(u)
    }

    #[inline]
    fn pull(&self, v: usize, p: &[f64]) -> f64 {
        self.graph.pull(v, p)
    }

    #[inline]
    fn pull_block(&self, v: usize, p: &[f64], width: usize, out: &mut [f64]) {
        self.graph.pull_block(v, p, width, out)
    }

    #[inline]
    fn flat_stationary(&self) -> Option<f64> {
        self.graph.flat_stationary()
    }

    #[inline]
    fn sample_step(&self, at: usize, rng: &mut SmallRng) -> usize {
        self.graph.sample_step(at, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::Rng;

    fn dist(n: usize, salt: usize) -> Vec<f64> {
        (0..n).map(|v| ((v * 7 + salt + 1) as f64).recip()).collect()
    }

    /// A static CSR built from scratch on `cg`'s current edge set.
    fn static_rebuild(cg: &ChurnGraph) -> Graph {
        let mut b = crate::GraphBuilder::new(cg.n());
        b.extend_edges(cg.topology().edges());
        b.build()
    }

    /// Apply `batches` seeded degree-preserving 2-swaps `{a,b},{c,d} →
    /// {a,c},{b,d}`, each drawn from the topology as edited so far.
    fn churn_swaps(cg: &mut ChurnGraph, batches: usize, seed: u64) {
        let mut rng = lmt_util::rng::fork(seed, 0);
        let mut applied = 0;
        while applied < batches {
            let edges: Vec<(usize, usize)> = cg.topology().edges().collect();
            let (a, b) = edges[rng.gen_range(0..edges.len())];
            let (c, d) = edges[rng.gen_range(0..edges.len())];
            if a != c && a != d && b != c && b != d && !cg.has_edge(a, c) && !cg.has_edge(b, d) {
                cg.apply(&[
                    EdgeEdit::delete(a, b),
                    EdgeEdit::delete(c, d),
                    EdgeEdit::insert(a, c),
                    EdgeEdit::insert(b, d),
                ])
                .unwrap();
                applied += 1;
            }
        }
    }

    #[test]
    fn zero_churn_pull_is_bit_identical_to_static() {
        let (g, _) = gen::ring_of_cliques_regular(4, 6);
        let cg = ChurnGraph::new(g.clone());
        let p = dist(g.n(), 3);
        for v in 0..g.n() {
            assert_eq!(cg.pull(v, &p).to_bits(), g.pull(v, &p).to_bits(), "node {v}");
        }
        assert_eq!(cg.topology(), &g);
    }

    #[test]
    fn edited_rows_match_rebuilt_static_graph_bitwise() {
        // After edits, pull/pull_block must match a from-scratch static
        // graph of the same topology: after one hand-written batch, and
        // after a long swap schedule.
        let g = gen::grid(4, 5);
        let mut short = ChurnGraph::new(g.clone());
        short
            .apply(&[
                EdgeEdit::delete(0, 1),
                EdgeEdit::insert(0, 6),
                EdgeEdit::insert(2, 13),
            ])
            .unwrap();
        let mut long = ChurnGraph::new(gen::random_regular(40, 4, 5));
        churn_swaps(&mut long, 600, 17);
        for cg in [short, long] {
            let fresh = static_rebuild(&cg);
            assert_eq!(cg.topology(), &fresh);
            let n = cg.n();
            let p = dist(n, 11);
            for width in [1usize, 2, 3, 8] {
                let mut interleaved = vec![0.0; n * width];
                for j in 0..width {
                    for v in 0..n {
                        interleaved[v * width + j] = p[v] * (j + 1) as f64;
                    }
                }
                let mut got = vec![f64::NAN; width];
                let mut want = vec![f64::NAN; width];
                for v in 0..n {
                    cg.pull_block(v, &interleaved, width, &mut got);
                    fresh.pull_block(v, &interleaved, width, &mut want);
                    for j in 0..width {
                        assert_eq!(got[j].to_bits(), want[j].to_bits(), "w={width} v={v} lane {j}");
                    }
                }
                for v in 0..n {
                    assert_eq!(cg.pull(v, &p).to_bits(), fresh.pull(v, &p).to_bits());
                }
            }
        }
    }

    #[test]
    fn memory_stays_one_csr_over_long_churn() {
        // However long the edit history, a churned graph costs exactly one
        // CSR of its current topology.
        let mut cg = ChurnGraph::new(gen::ring_of_expanders(4, 16, 4, 3, true));
        churn_swaps(&mut cg, 1000, 29);
        assert_eq!(cg.memory_bytes(), cg.topology().memory_bytes());
        assert_eq!(cg.memory_bytes(), static_rebuild(&cg).memory_bytes());
    }

    #[test]
    fn insert_delete_roundtrip_cancels_in_the_delta() {
        let g = gen::cycle(8);
        let mut cg = ChurnGraph::new(g.clone());
        cg.apply(&[EdgeEdit::delete(0, 1), EdgeEdit::insert(0, 1)]).unwrap();
        assert_eq!(cg.topology(), &g);
        // Same within one batch for a fresh edge.
        cg.apply(&[EdgeEdit::insert(0, 4), EdgeEdit::delete(0, 4)]).unwrap();
        assert_eq!(cg.topology(), &g);
    }

    #[test]
    fn rejected_batches_are_atomic() {
        let cases: Vec<(Vec<EdgeEdit>, &str)> = vec![
            (vec![EdgeEdit::insert(0, 9)], "out of range"),
            (vec![EdgeEdit::insert(2, 2)], "self-loop"),
            (vec![EdgeEdit::insert(0, 1)], "existing edge"),
            (vec![EdgeEdit::delete(0, 4)], "absent edge"),
            // Valid head, invalid tail: the head must not stick.
            (vec![EdgeEdit::insert(0, 2), EdgeEdit::delete(3, 0)], "absent edge"),
            (vec![EdgeEdit::insert(0, 2), EdgeEdit::insert(0, 2)], "existing edge"),
        ];
        // On the fresh path 0-1-2-3-4, and after accepted batches that
        // leave every case above still invalid.
        let fresh = ChurnGraph::new(gen::path(5));
        let mut edited = fresh.clone();
        edited.apply(&[EdgeEdit::insert(1, 3)]).unwrap();
        edited.apply(&[EdgeEdit::delete(1, 3), EdgeEdit::insert(2, 4)]).unwrap();
        edited.apply(&[EdgeEdit::insert(1, 4)]).unwrap();
        for mut cg in [fresh, edited] {
            let before = cg.topology().clone();
            for (batch, needle) in &cases {
                let err = cg.apply(batch).unwrap_err();
                assert!(err.to_string().contains(needle), "{batch:?} → {err}");
                assert_eq!(cg.topology(), &before, "{batch:?} must leave the graph unchanged");
            }
        }
    }

    #[test]
    fn capacity_guard_is_the_builders() {
        // The wrapped GraphError keeps the builders' message.
        let e = ChurnError::from(GraphError::TooManyEdgeSlots { slots: 42 });
        assert!(e.to_string().contains("2m + n"));
    }

    #[test]
    fn walk_graph_surface_tracks_current_topology() {
        let g = gen::path(4); // 0-1-2-3
        let mut cg = ChurnGraph::new(g);
        cg.apply(&[EdgeEdit::insert(0, 3)]).unwrap(); // now a 4-cycle
        assert_eq!(cg.walk_degree(0), 2.0);
        assert_eq!(cg.total_walk_weight(), 8.0);
        assert_eq!(cg.loop_weight(1), 0.0);
        assert_eq!(cg.flat_stationary(), Some(0.25));
        assert!(cg.has_edge(0, 3));
        assert_eq!(cg.m(), 4);
        let mut rng = lmt_util::rng::fork(3, 1);
        let step = cg.sample_step(0, &mut rng);
        assert!(step == 1 || step == 3);
        assert_eq!(cg.memory_bytes(), cg.topology().memory_bytes());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let g = gen::complete(4);
        let mut cg = ChurnGraph::new(g.clone());
        cg.apply(&[]).unwrap();
        assert_eq!(cg.topology(), &g);
    }
}
