//! The benchmark's own view of a data graph, independent of the program under
//! test: a mutable mirror that follows the generated deltas, a plain
//! backtracking enumerator, and an embedding validator. Output checks compare
//! the program's answers against these, never against stored answers.

use gup_graph::delta::GraphDelta;
use gup_graph::Graph;
use std::collections::{HashMap, HashSet};

const UNMAPPED: u32 = u32::MAX;

/// Labelled adjacency with sorted neighbour lists.
#[derive(Clone)]
pub struct Mirror {
    labels: Vec<u32>,
    adj: Vec<Vec<u32>>,
    edges: usize,
}

/// Net effect of one batch: edges present after but not before, and the
/// reverse, both as sorted `(lo, hi)` pairs.
pub struct NetEffect {
    pub inserted: Vec<(u32, u32)>,
    pub removed: Vec<(u32, u32)>,
}

impl Mirror {
    pub fn new(g: &Graph) -> Self {
        Mirror {
            labels: g.labels().to_vec(),
            adj: g.vertices().map(|v| g.neighbors(v).to_vec()).collect(),
            edges: g.edge_count(),
        }
    }

    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    pub fn edge_count(&self) -> usize {
        self.edges
    }

    pub fn label(&self, v: u32) -> u32 {
        self.labels[v as usize]
    }

    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        (a as usize) < self.adj.len() && self.adj[a as usize].binary_search(&b).is_ok()
    }

    fn link(&mut self, a: u32, b: u32) {
        let list = &mut self.adj[a as usize];
        if let Err(at) = list.binary_search(&b) {
            list.insert(at, b);
        }
    }

    fn unlink(&mut self, a: u32, b: u32) {
        let list = &mut self.adj[a as usize];
        if let Ok(at) = list.binary_search(&b) {
            list.remove(at);
        }
    }

    /// Applies `batch` in order with the semantics the wire protocol documents
    /// (an insert of a present edge or a delete of an absent one rejects the
    /// batch) and returns its net effect.
    pub fn apply(&mut self, batch: &[GraphDelta]) -> Result<NetEffect, String> {
        let mut before: HashMap<(u32, u32), bool> = HashMap::new();
        for (i, d) in batch.iter().enumerate() {
            match *d {
                GraphDelta::AddVertex { label } => {
                    self.labels.push(label);
                    self.adj.push(Vec::new());
                }
                GraphDelta::AddEdge { a, b } | GraphDelta::RemoveEdge { a, b } => {
                    let n = self.vertex_count() as u32;
                    if a == b || a >= n || b >= n {
                        return Err(format!("delta {i}: bad endpoints ({a}, {b})"));
                    }
                    let key = (a.min(b), a.max(b));
                    let present = self.has_edge(a, b);
                    before.entry(key).or_insert(present);
                    let insert = matches!(d, GraphDelta::AddEdge { .. });
                    if insert == present {
                        return Err(format!("delta {i}: invalid for edge ({a}, {b})"));
                    }
                    if insert {
                        self.link(a, b);
                        self.link(b, a);
                        self.edges += 1;
                    } else {
                        self.unlink(a, b);
                        self.unlink(b, a);
                        self.edges -= 1;
                    }
                }
            }
        }
        let mut inserted = Vec::new();
        let mut removed = Vec::new();
        for (&(a, b), &was) in &before {
            match (was, self.has_edge(a, b)) {
                (false, true) => inserted.push((a, b)),
                (true, false) => removed.push((a, b)),
                _ => {}
            }
        }
        inserted.sort_unstable();
        removed.sort_unstable();
        Ok(NetEffect { inserted, removed })
    }
}

/// A connected matching order with, per position, the earlier-placed query
/// neighbours that the candidate must be adjacent to.
struct Plan {
    order: Vec<u32>,
    earlier: Vec<Vec<u32>>,
}

impl Plan {
    /// Greedy order from `prefix`: next is the vertex with the most placed
    /// neighbours, then the higher degree, then the lower id.
    fn new(q: &Graph, prefix: &[u32]) -> Plan {
        let n = q.vertex_count();
        let mut placed = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for &u in prefix {
            placed[u as usize] = true;
            order.push(u);
        }
        while order.len() < n {
            let next = (0..n as u32)
                .filter(|&u| !placed[u as usize])
                .max_by_key(|&u| {
                    let back = q
                        .neighbors(u)
                        .iter()
                        .filter(|&&w| placed[w as usize])
                        .count();
                    (back, q.degree(u), std::cmp::Reverse(u))
                })
                .expect("an unplaced vertex remains");
            placed[next as usize] = true;
            order.push(next);
        }
        let pos: HashMap<u32, usize> = order.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        let earlier = order
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                q.neighbors(u)
                    .iter()
                    .copied()
                    .filter(|w| pos[w] < i)
                    .collect()
            })
            .collect();
        Plan { order, earlier }
    }
}

/// Plain backtracking over a [`Mirror`]: label, degree, injectivity and
/// adjacency checks, nothing else.
struct Enumerator<'a> {
    m: &'a Mirror,
    q: &'a Graph,
    plan: &'a Plan,
    mapping: Vec<u32>,
    cap: u64,
    found: u64,
    out: Option<&'a mut HashSet<Vec<u32>>>,
    /// Calls to `extend` left; the search gives up when it runs out.
    steps: u64,
}

impl Enumerator<'_> {
    fn admissible(&self, u: u32, v: u32) -> bool {
        self.m.label(v) == self.q.label(u)
            && self.m.neighbors(v).len() >= self.q.degree(u)
            && !self.mapping.contains(&v)
    }

    fn extend(&mut self, pos: usize) {
        if self.steps == 0 {
            return;
        }
        self.steps -= 1;
        if pos == self.plan.order.len() {
            self.found += 1;
            if let Some(out) = self.out.as_deref_mut() {
                out.insert(self.mapping.clone());
            }
            return;
        }
        let m = self.m;
        let plan = self.plan;
        let u = plan.order[pos];
        let back = &plan.earlier[pos];
        let all: Vec<u32>;
        let candidates: &[u32] = match back.first() {
            Some(&w) => m.neighbors(self.mapping[w as usize]),
            None => {
                all = (0..m.vertex_count() as u32).collect();
                &all
            }
        };
        for &v in candidates {
            if !self.admissible(u, v)
                || !back
                    .iter()
                    .skip(1)
                    .all(|&w| m.has_edge(self.mapping[w as usize], v))
            {
                continue;
            }
            self.mapping[u as usize] = v;
            self.extend(pos + 1);
            self.mapping[u as usize] = UNMAPPED;
            if self.found >= self.cap || self.steps == 0 {
                return;
            }
        }
    }
}

/// Counts the embeddings of `q` in `m`, stopping at `cap`. Gives up (`None`)
/// after `steps` search nodes: plain backtracking has no guards, and on five
/// labels some queries below the cap have search trees it cannot exhaust.
pub fn count(m: &Mirror, q: &Graph, cap: u64, steps: u64) -> Option<u64> {
    let mut freq: HashMap<u32, usize> = HashMap::new();
    for v in 0..m.vertex_count() as u32 {
        *freq.entry(m.label(v)).or_default() += 1;
    }
    let root = (0..q.vertex_count() as u32)
        .min_by_key(|&u| {
            let f = freq.get(&q.label(u)).copied().unwrap_or(0);
            (f / (q.degree(u) + 1), u)
        })
        .expect("queries are non-empty");
    let plan = Plan::new(q, &[root]);
    let mut e = Enumerator {
        m,
        q,
        plan: &plan,
        mapping: vec![UNMAPPED; q.vertex_count()],
        cap,
        found: 0,
        out: None,
        steps,
    };
    e.extend(0);
    (e.steps > 0 || e.found >= cap).then_some(e.found)
}

/// One embedding of `q` in `m` (original query ids), if there is one.
pub fn first_embedding(m: &Mirror, q: &Graph) -> Option<Vec<u32>> {
    let plan = Plan::new(q, &[0]);
    let mut out = HashSet::new();
    let mut e = Enumerator {
        m,
        q,
        plan: &plan,
        mapping: vec![UNMAPPED; q.vertex_count()],
        cap: 1,
        found: 0,
        out: Some(&mut out),
        steps: u64::MAX,
    };
    e.extend(0);
    out.into_iter().next()
}

/// A standing query with one plan per (query edge, orientation), for
/// enumerating the embeddings that use a given data edge.
pub struct Standing {
    q: Graph,
    seeds: Vec<Plan>,
}

impl Standing {
    pub fn new(q: &Graph) -> Self {
        let seeds = q
            .edges()
            .flat_map(|(a, b)| [Plan::new(q, &[a, b]), Plan::new(q, &[b, a])])
            .collect();
        Standing {
            q: q.clone(),
            seeds,
        }
    }

    pub fn query(&self) -> &Graph {
        &self.q
    }

    /// Every embedding in `m` (the graph after a batch) that maps some query
    /// edge onto one of `inserted`: the set a batch must report as new.
    pub fn new_matches(&self, m: &Mirror, inserted: &[(u32, u32)]) -> HashSet<Vec<u32>> {
        let mut out = HashSet::new();
        for &(a, b) in inserted {
            for plan in &self.seeds {
                let mut e = Enumerator {
                    m,
                    q: &self.q,
                    plan,
                    mapping: vec![UNMAPPED; self.q.vertex_count()],
                    cap: u64::MAX,
                    found: 0,
                    out: Some(&mut out),
                    steps: u64::MAX,
                };
                let (u0, u1) = (plan.order[0], plan.order[1]);
                if e.admissible(u0, a) {
                    e.mapping[u0 as usize] = a;
                    if e.admissible(u1, b) {
                        e.mapping[u1 as usize] = b;
                        e.extend(2);
                    }
                }
            }
        }
        out
    }
}

/// Checks that `emb` (indexed by query vertex) is injective, preserves labels
/// and maps every query edge onto a data edge of `m`.
pub fn validate(m: &Mirror, q: &Graph, emb: &[u32]) -> Result<(), String> {
    if emb.len() != q.vertex_count() {
        return Err(format!(
            "embedding has {} vertices, query has {}",
            emb.len(),
            q.vertex_count()
        ));
    }
    let mut seen = HashSet::new();
    for (u, &v) in emb.iter().enumerate() {
        if (v as usize) >= m.vertex_count() {
            return Err(format!("vertex {v} out of range"));
        }
        if !seen.insert(v) {
            return Err(format!("vertex {v} used twice"));
        }
        if m.label(v) != q.label(u as u32) {
            return Err(format!(
                "query vertex {u} mapped to a vertex of another label"
            ));
        }
    }
    for (a, b) in q.edges() {
        if !m.has_edge(emb[a as usize], emb[b as usize]) {
            return Err(format!("query edge ({a}, {b}) maps to a non-edge"));
        }
    }
    Ok(())
}

/// `true` if `emb` maps some query edge onto one of `edges` (sorted pairs).
pub fn uses_any(q: &Graph, emb: &[u32], edges: &[(u32, u32)]) -> bool {
    q.edges().any(|(a, b)| {
        let (x, y) = (emb[a as usize], emb[b as usize]);
        edges.binary_search(&(x.min(y), x.max(y))).is_ok()
    })
}
