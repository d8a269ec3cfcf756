//! Workload definitions: the data graph, the query pools, the standing
//! queries, and the seeded generator of the operation stream.
//!
//! The query pools are fixed, like the query files of the paper's evaluation:
//! they are cut by seeded random walks with a constant walk seed, so every run
//! measures the same queries and the per-layer counters repeat exactly. The
//! run seed (`--seed`) drives everything else: the order of the queries in
//! each pass, the delta batches, the reads of each serve round, and the
//! samples the output checks take.

use crate::reference::{first_embedding, Mirror};
use gup_graph::delta::GraphDelta;
use gup_graph::Graph;
use gup_workloads::{coarsen_labels, generate_query_set, Dataset, QueryClass, QuerySetSpec};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Walk seed of the fixed query pools.
const WALK_SEED: u64 = 0x6775_7062;
/// Queries requested per paper set on the Yeast analogue: sparse sets, and
/// dense sets (which yield fewer at this size). A large pool keeps the latency
/// tail smooth: the ~1 % of queries that reach the cap are many queries, not
/// a handful whose exact rank decides p99.
const YEAST_SPARSE_PER_SET: usize = 400;
const YEAST_DENSE_PER_SET: usize = 100;
/// Of those, the first this many per set form the coarse pool (the same
/// walks, so the same shapes; a coarse query costs ~40x a labelled one).
const COARSE_PER_SET: usize = 50;
/// Labels left after folding on `yeast-coarse`.
const COARSE_LABELS: u32 = 5;
/// Distinct reads per `serve-stream` round.
const SERVE_READS: usize = 6;
/// Embedding cap of every query (the paper's 10^5).
pub const CAP: u64 = 100_000;

/// One timed operation.
#[derive(Clone, Debug)]
pub enum Op {
    /// `query count` of pool entry `i`.
    Query(usize),
    /// One delta batch.
    Delta(Vec<GraphDelta>),
}

/// How the delta stream mutates the graph.
#[derive(Clone, Copy, Debug)]
pub enum Policy {
    /// In-process workloads: before every `every`-th query of a pass, a batch
    /// that deletes `deletes` existing edges and inserts `inserts` random
    /// ones, then the exact inverse batch. Queries therefore always see the
    /// base graph. With standing queries, one delete is an edge of a standing
    /// query's embedding, so every inverse batch re-creates a match.
    Revert {
        every: usize,
        inserts: usize,
        deletes: usize,
    },
    /// `serve-stream`: each round deletes the edges the previous round
    /// inserted and inserts `inserts` fresh random edges, so the graph keeps
    /// its size and original edges are never deleted. Then `reads` distinct
    /// pool queries, then the first `repeats` of them again (cache hits).
    /// The reads walk a fresh shuffle of the pool in each of the block's
    /// `cycles`, so every query is read equally often: with random picks the
    /// few heaviest queries' share, and with it p99, changed from run to run.
    Churn {
        inserts: usize,
        reads: usize,
        repeats: usize,
        cycles: usize,
    },
}

pub struct Workload {
    pub name: &'static str,
    pub data: Graph,
    /// Query pool, each with its paper-set name.
    pub queries: Vec<(String, Graph)>,
    pub standing: Vec<Graph>,
    pub policy: Policy,
    /// Result-cache capacity of the session or server (0 disables it).
    pub cache: usize,
    /// Served over the wire by a `gup-serve` process.
    pub wire: bool,
}

pub const NAMES: [&str; 3] = ["yeast-labeled", "yeast-coarse", "serve-stream"];

pub fn build(name: &str) -> Option<Workload> {
    match name {
        "yeast-labeled" | "yeast-coarse" => {
            let coarse = name == "yeast-coarse";
            let labeled = Dataset::Yeast.generate(1.0).graph;
            let fold = |g: &Graph| {
                if coarse {
                    coarsen_labels(g, COARSE_LABELS)
                } else {
                    g.clone()
                }
            };
            let mut queries = Vec::new();
            for spec in QuerySetSpec::PAPER_SETS {
                let requested = match spec.class {
                    QueryClass::Sparse => YEAST_SPARSE_PER_SET,
                    QueryClass::Dense => YEAST_DENSE_PER_SET,
                };
                let kept = if coarse { COARSE_PER_SET } else { requested };
                // The coarse pool is a prefix of the labelled one: the same
                // walks, so the same query shapes.
                for q in generate_query_set(&labeled, spec, requested, WALK_SEED)
                    .into_iter()
                    .take(kept)
                {
                    queries.push((spec.name(), fold(&q)));
                }
            }
            // On five labels one re-inserted edge completes millions of
            // standing 8S matches, so the coarse deltas maintain the index only.
            let standing = if coarse {
                Vec::new()
            } else {
                queries.iter().take(4).map(|(_, q)| q.clone()).collect()
            };
            Some(Workload {
                name: if coarse {
                    "yeast-coarse"
                } else {
                    "yeast-labeled"
                },
                data: fold(&labeled),
                queries,
                standing,
                policy: Policy::Revert {
                    every: if coarse { 2 } else { 32 },
                    inserts: 16,
                    deletes: 16,
                },
                cache: 0,
                wire: false,
            })
        }
        "serve-stream" => {
            let data = Dataset::Patents.generate(0.01).graph;
            let sparse = |vertices, count, seed| {
                let spec = QuerySetSpec {
                    vertices,
                    class: QueryClass::Sparse,
                };
                generate_query_set(&data, spec, count, seed)
                    .into_iter()
                    .map(move |q| (spec.name(), q))
            };
            let standing = sparse(8, 8, WALK_SEED ^ 1).map(|(_, q)| q).collect();
            let mut seen = HashSet::new();
            // 8S reads only: with 16S reads mixed in, the median read fell in
            // the gap between the two sets' latencies and jumped between runs.
            // Many of them: with 80, the heaviest query alone was 1 % of the
            // reads, and p99 flipped between it and the next heaviest.
            let mut queries: Vec<(String, Graph)> = sparse(8, 300, WALK_SEED)
                // Distinct graphs only, so cache hits are exactly the repeats.
                .filter(|(_, q)| seen.insert((q.labels().to_vec(), q.edges().collect::<Vec<_>>())))
                .collect();
            // Whole rounds per cycle through the pool.
            queries.truncate(queries.len() / SERVE_READS * SERVE_READS);
            Some(Workload {
                name: "serve-stream",
                data,
                queries,
                standing,
                policy: Policy::Churn {
                    inserts: 32,
                    reads: SERVE_READS,
                    repeats: 2,
                    cycles: 1,
                },
                cache: 1024,
                wire: true,
            })
        }
        _ => None,
    }
}

/// Seeded generator of the operation stream, in blocks: one pass over the
/// pool for `Revert`, `cycles` passes over the pool for `Churn`.
pub struct Stream {
    policy: Policy,
    pool: usize,
    rng: SmallRng,
    mirror: Mirror,
    /// Endpoints of base edges: sampling from it picks vertices in proportion
    /// to their degree, as the preferential-attachment generator does.
    endpoints: Vec<u32>,
    /// Edges of the standing queries' embeddings in the base graph.
    anchors: Vec<(u32, u32)>,
    next_anchor: usize,
    pending: Vec<(u32, u32)>,
}

impl Stream {
    pub fn new(w: &Workload, seed: u64) -> Self {
        let mirror = Mirror::new(&w.data);
        let endpoints = w.data.edges().flat_map(|(a, b)| [a, b]).collect();
        let mut anchors = Vec::new();
        let standing = match w.policy {
            Policy::Revert { .. } => &w.standing[..],
            Policy::Churn { .. } => &[],
        };
        for q in standing {
            let emb = first_embedding(&mirror, q).expect("walk-cut queries embed in their graph");
            let (a, b) = q.edges().next().expect("standing queries have edges");
            let (x, y) = (emb[a as usize], emb[b as usize]);
            anchors.push((x.min(y), x.max(y)));
        }
        Stream {
            policy: w.policy,
            pool: w.queries.len(),
            rng: SmallRng::seed_from_u64(seed),
            mirror,
            endpoints,
            anchors,
            next_anchor: 0,
            pending: Vec::new(),
        }
    }

    fn random_non_edge(&mut self, taken: &HashSet<(u32, u32)>) -> (u32, u32) {
        loop {
            let a = self.endpoints[self.rng.gen_range(0..self.endpoints.len())];
            let b = self.endpoints[self.rng.gen_range(0..self.endpoints.len())];
            let key = (a.min(b), a.max(b));
            if a != b && !self.mirror.has_edge(a, b) && !taken.contains(&key) {
                return key;
            }
        }
    }

    fn random_edge(&mut self, taken: &HashSet<(u32, u32)>) -> (u32, u32) {
        loop {
            let a = self.endpoints[self.rng.gen_range(0..self.endpoints.len())];
            let nbrs = self.mirror.neighbors(a);
            let b = nbrs[self.rng.gen_range(0..nbrs.len())];
            let key = (a.min(b), a.max(b));
            if !taken.contains(&key) {
                return key;
            }
        }
    }

    fn push(&mut self, ops: &mut Vec<Op>, batch: Vec<GraphDelta>) {
        self.mirror
            .apply(&batch)
            .expect("generated batches are valid");
        ops.push(Op::Delta(batch));
    }

    pub fn next_block(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        match self.policy {
            Policy::Revert {
                every,
                inserts,
                deletes,
            } => {
                let mut order: Vec<usize> = (0..self.pool).collect();
                order.shuffle(&mut self.rng);
                for (i, q) in order.into_iter().enumerate() {
                    if i % every == 0 {
                        let anchor = (!self.anchors.is_empty())
                            .then(|| self.anchors[self.next_anchor % self.anchors.len()]);
                        self.next_anchor += 1;
                        let mut gone: Vec<(u32, u32)> = anchor.into_iter().collect();
                        let mut taken: HashSet<(u32, u32)> = gone.iter().copied().collect();
                        while gone.len() < deletes {
                            let e = self.random_edge(&taken);
                            taken.insert(e);
                            gone.push(e);
                        }
                        let mut added = Vec::new();
                        while added.len() < inserts {
                            let e = self.random_non_edge(&taken);
                            taken.insert(e);
                            added.push(e);
                        }
                        let forward = gone
                            .iter()
                            .map(|&(a, b)| GraphDelta::RemoveEdge { a, b })
                            .chain(added.iter().map(|&(a, b)| GraphDelta::AddEdge { a, b }))
                            .collect();
                        let inverse = added
                            .iter()
                            .map(|&(a, b)| GraphDelta::RemoveEdge { a, b })
                            .chain(gone.iter().map(|&(a, b)| GraphDelta::AddEdge { a, b }))
                            .collect();
                        self.push(&mut ops, forward);
                        self.push(&mut ops, inverse);
                    }
                    ops.push(Op::Query(q));
                }
            }
            Policy::Churn {
                inserts,
                reads,
                repeats,
                cycles,
            } => {
                let mut picks: Vec<usize> = Vec::new();
                for _ in 0..cycles {
                    let mut order: Vec<usize> = (0..self.pool).collect();
                    order.shuffle(&mut self.rng);
                    picks.extend(order);
                }
                for round in picks.chunks(reads) {
                    let gone = std::mem::take(&mut self.pending);
                    let mut taken: HashSet<(u32, u32)> = gone.iter().copied().collect();
                    let mut batch: Vec<GraphDelta> = gone
                        .iter()
                        .map(|&(a, b)| GraphDelta::RemoveEdge { a, b })
                        .collect();
                    // Deletes go first in the batch, so the mirror must see
                    // them before fresh inserts are drawn.
                    self.mirror.apply(&batch).expect("deletes of live edges");
                    for _ in 0..inserts {
                        let e = self.random_non_edge(&taken);
                        taken.insert(e);
                        self.pending.push(e);
                    }
                    let adds: Vec<GraphDelta> = self
                        .pending
                        .iter()
                        .map(|&(a, b)| GraphDelta::AddEdge { a, b })
                        .collect();
                    self.mirror.apply(&adds).expect("inserts of absent edges");
                    batch.extend(adds);
                    ops.push(Op::Delta(batch));
                    for &q in round.iter().chain(round.iter().take(repeats)) {
                        ops.push(Op::Query(q));
                    }
                }
            }
        }
        ops
    }
}
