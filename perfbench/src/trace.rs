//! The traced run: per-layer metrics, taken by timing calls into each layer's
//! public functions from here, around the same operations the untraced run
//! sends.
//!
//! 1. Set-up layers: `io` parse and `prepared` build, repeated.
//! 2. Wire phase: a `gup-serve` process over the workload's data file runs a
//!    slice of the operation stream; its log is checked like an untraced run.
//! 3. Replays of that same slice in-process, alternating an untraced replay
//!    (through `Session` and `gup_stream`, as the untraced run does) with a
//!    traced one that calls filter, order, GCS assembly, search, delta apply
//!    and delta matching separately. Wire minus untraced replay gives the wire
//!    cost; traced minus untraced replay gives the tracing overhead.

use crate::target::{delta_body, fields, spawn_server, InProc, Reply, Target, Wire};
use crate::workload::{Op, Stream, Workload};
use crate::{drive, median, ms, sample_embeddings, server_binary, Checks, Output};
use gup::reservation::{generate_reservation_guards, reservation_heap_bytes};
use gup::session::Session;
use gup::{GupConfig, GupMatcher, SearchStats};
use gup_candidate::CandidateSpace;
use gup_graph::io::load_graph;
use gup_graph::sink::{CollectAll, CountOnly};
use gup_graph::{PreparedData, QueryGraph};
use gup_serve::protocol::parse_delta_body;
use gup_stream::{collect_new_matches, QueryPlan};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const SETUPS: usize = 11;

/// Per-layer sums over one traced replay.
#[derive(Default)]
struct Layers {
    queries: usize,
    filter_us: f64,
    order_us: f64,
    assemble_us: f64,
    search_us: f64,
    /// Per query: a `Session` query minus matcher build and search.
    overhead_us: Vec<f64>,
    deltas: usize,
    parse_delta_us: f64,
    apply_ms: f64,
    match_ms: f64,
    new_matches: u64,
    /// Over each distinct query once (first occurrence in the replay).
    distinct: usize,
    candidates_per_qv: f64,
    candidate_edges: f64,
    candidate_bytes: f64,
    reservation_bytes: f64,
    search: SearchStats,
    capped: u64,
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Replays `ops` from `base`, timing each layer call separately.
fn traced_replay(base: &Arc<PreparedData>, w: &Workload, ops: &[Op]) -> Layers {
    let config = GupConfig::default();
    let plans: Vec<QueryPlan> = w
        .standing
        .iter()
        .map(|q| QueryPlan::new(q).expect("standing queries are valid"))
        .collect();
    let mut prepared = Arc::clone(base);
    let mut session = Session::from_prepared(Arc::clone(&prepared));
    let mut seen = HashSet::new();
    let mut l = Layers::default();
    for op in ops {
        match op {
            Op::Query(i) => {
                let q = &w.queries[*i].1;
                let t = Instant::now();
                let space = CandidateSpace::build_prepared(q, &prepared, &config.filter);
                let filter = us(t);
                let validated = QueryGraph::new(q.clone()).expect("walk-cut queries are valid");
                // What `Gcs::build_prepared` does after the filter: order,
                // re-index into the order, reservation guards.
                let t = Instant::now();
                let order = gup_order::compute_order(q, &space.candidate_sizes(), config.ordering)
                    .expect("walk-cut queries are connected");
                l.order_us += us(t);
                let ordered = validated.with_order::<1>(&order).expect("connected order");
                let guards = generate_reservation_guards(
                    &ordered,
                    &space.permuted(&order),
                    prepared.graph().vertex_count(),
                    config.reservation_size_limit,
                );
                l.assemble_us += us(t);
                let t = Instant::now();
                let matcher =
                    GupMatcher::<1>::with_prepared(q, &prepared, config.clone()).expect("valid");
                let build = us(t);
                let t = Instant::now();
                let stats = matcher.run_with_sink(&mut CountOnly::new());
                let search = us(t);
                let t = Instant::now();
                let via_session = session.query(q).count_stats().expect("valid query");
                let whole = us(t);
                assert_eq!(via_session.embeddings, stats.embeddings);
                l.queries += 1;
                l.filter_us += filter;
                l.search_us += search;
                l.overhead_us.push(whole - build - search);
                if seen.insert(*i) {
                    l.distinct += 1;
                    l.candidates_per_qv +=
                        space.total_candidates() as f64 / q.vertex_count() as f64;
                    l.candidate_edges += space.total_candidate_edges() as f64;
                    l.candidate_bytes += space.heap_bytes() as f64;
                    l.reservation_bytes += reservation_heap_bytes(&guards) as f64;
                    l.capped += u64::from(stats.hit_embedding_limit);
                    l.search.merge(&stats);
                }
            }
            Op::Delta(batch) => {
                let body = delta_body(batch);
                let t = Instant::now();
                let parsed = parse_delta_body(&body).expect("generated bodies parse");
                l.parse_delta_us += us(t);
                assert_eq!(&parsed, batch);
                let t = Instant::now();
                let (next, effects) = prepared.apply_with_effects(batch).expect("valid batch");
                l.apply_ms += us(t) / 1e3;
                let t = Instant::now();
                for plan in &plans {
                    l.new_matches +=
                        collect_new_matches(&next, &effects, plan, &mut CollectAll::new());
                }
                l.match_ms += us(t) / 1e3;
                l.deltas += 1;
                prepared = Arc::new(next);
                session = Session::from_prepared(Arc::clone(&prepared));
            }
        }
    }
    l
}

/// Replays `ops` through `target`, returning per-op latencies (ms) split by
/// kind and the whole replay's duration (s).
fn replay(target: &mut dyn Target, ops: &[Op]) -> (Vec<f64>, Vec<f64>, f64) {
    let (mut q, mut d) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for op in ops {
        let t = Instant::now();
        let reply = target.exec(op);
        let took = ms(t.elapsed());
        match (op, reply) {
            (_, Reply::Failed(e)) => panic!("in-process replay failed: {e}"),
            (Op::Query(_), _) => q.push(took),
            (Op::Delta(_), _) => d.push(took),
        }
    }
    (q, d, start.elapsed().as_secs_f64())
}

fn per(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64, data: &Path) -> Result<Output, String> {
    // 1. Set-up layers.
    let (mut parse_ms, mut build_ms) = (Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let graph = load_graph(data).map_err(|e| e.to_string())?;
        parse_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        prepared = Some(PreparedData::new(graph));
        build_ms.push(ms(t.elapsed()));
    }
    let base = Arc::new(prepared.expect("at least one set-up"));

    // 2. Wire phase.
    let (child, addr, _) = spawn_server(&server_binary(), data, w.cache)?;
    let mut wire = Wire::connect(child, &addr, w)?;
    let mut stream = Stream::new(w, seed);
    let checks = Checks::new(w, seed);
    let mut checker = checks.checker(w);
    let (wired, log, verdict) = drive(
        &mut wire,
        &mut stream,
        seconds / 8.0,
        &mut checker,
        usize::MAX,
        &mut || Ok(()),
    );
    let stats = wire.request("stats\n");
    let delta_bytes = wire.delta_bytes;
    wire.close();
    let stats = stats?;
    let f = fields(&stats);
    let count = |k: &str| f.get(k).copied().unwrap_or(0) as f64;
    let (hits, misses) = (count("cache-hits"), count("cache-misses"));
    let embeddings = sample_embeddings(&Session::from_prepared(Arc::clone(&base)), w, seed);
    let verdict =
        verdict.and_then(|()| checks.finish(w, &mut checker, &log, &embeddings, Some(&stats)));
    if let Err(e) = &verdict {
        eprintln!("CHECK FAILED: {e}");
    }
    let ops: Vec<Op> = log.into_iter().map(|(op, _)| op).collect();

    // 3. In-process replays of the same operations.
    let cached = Session::from_prepared(Arc::clone(&base)).with_result_cache(w.cache);
    let (inproc_q, inproc_d, _) = replay(&mut InProc::new(cached, w), &ops);
    let (mut plain_s, mut traced_s, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while runs.is_empty() || start.elapsed().as_secs_f64() < seconds / 2.0 {
        let session = Session::from_prepared(Arc::clone(&base));
        plain_s.push(replay(&mut InProc::new(session, w), &ops).2);
        let t = Instant::now();
        runs.push(traced_replay(&base, w, &ops));
        traced_s.push(t.elapsed().as_secs_f64());
    }
    let m = |f: &dyn Fn(&Layers) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let l = &runs[0];
    let s = &l.search;
    let deltas = l.deltas;
    eprintln!(
        "{}: traced {} ops over the wire and {} replays in-process",
        w.name,
        ops.len(),
        runs.len()
    );
    let metrics = vec![
        ("io.parse_ms", median(&parse_ms), "ms"),
        ("prepared.build_ms", median(&build_ms), "ms"),
        ("prepared.index_bytes", base.index_bytes() as f64, "bytes"),
        (
            "candidate.filter_us",
            m(&|l| per(l.filter_us, l.queries)),
            "us",
        ),
        (
            "candidate.candidates_per_qv",
            per(l.candidates_per_qv, l.distinct),
            "count",
        ),
        (
            "candidate.candidate_edges",
            per(l.candidate_edges, l.distinct),
            "count",
        ),
        (
            "candidate.bytes",
            per(l.candidate_bytes, l.distinct),
            "bytes",
        ),
        ("order.us", m(&|l| per(l.order_us, l.queries)), "us"),
        (
            "gcs.assemble_us",
            m(&|l| per(l.assemble_us, l.queries)),
            "us",
        ),
        (
            "gcs.reservation_bytes",
            per(l.reservation_bytes, l.distinct),
            "bytes",
        ),
        ("search.us", m(&|l| per(l.search_us, l.queries)), "us"),
        ("search.recursions", s.recursions as f64, "count"),
        (
            "search.futile_recursions",
            s.futile_recursions as f64,
            "count",
        ),
        (
            "search.useful_ratio",
            1.0 - per(s.futile_recursions as f64, s.recursions as usize),
            "ratio",
        ),
        ("search.guard_prune_rate", s.guard_prune_rate(), "ratio"),
        (
            "search.pruned_by_reservation",
            s.pruned_by_reservation as f64,
            "count",
        ),
        (
            "search.pruned_by_nogood_vertex",
            s.pruned_by_nogood_vertex as f64,
            "count",
        ),
        (
            "search.pruned_by_nogood_edge",
            s.pruned_by_nogood_edge as f64,
            "count",
        ),
        ("search.backjumps", s.backjumps as f64, "count"),
        ("search.capped_queries", l.capped as f64, "count"),
        ("search.embeddings", s.embeddings as f64, "count"),
        ("session.overhead_us", m(&|l| median(&l.overhead_us)), "us"),
        (
            "session.cache_hit_ratio",
            per(hits, (hits + misses) as usize),
            "ratio",
        ),
        ("delta.apply_ms", m(&|l| per(l.apply_ms, l.deltas)), "ms"),
        ("stream.match_ms", m(&|l| per(l.match_ms, l.deltas)), "ms"),
        (
            "stream.new_matches",
            per(l.new_matches as f64, deltas),
            "count",
        ),
        (
            "serve.parse_delta_us",
            m(&|l| per(l.parse_delta_us, l.deltas)),
            "us",
        ),
        (
            "serve.query_wire_us",
            (median(&wired.query_ms.values()) - median(&inproc_q)) * 1e3,
            "us",
        ),
        (
            "serve.delta_wire_ms",
            median(&wired.delta_ms.values()) - median(&inproc_d),
            "ms",
        ),
        (
            "serve.bytes_per_delta",
            per(delta_bytes as f64, deltas),
            "bytes",
        ),
        (
            "trace.overhead_pct",
            (median(&traced_s) / median(&plain_s) - 1.0) * 100.0,
            "%",
        ),
    ];
    Ok(Output {
        correct: verdict.is_ok(),
        attempted: wired.attempted,
        failed: wired.failed,
        metrics,
    })
}
