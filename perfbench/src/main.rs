//! Benchmark driver. One run measures one workload for `--seconds`, checks the
//! program's outputs, and prints one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod check;
mod reference;
mod target;
mod trace;
mod workload;

use check::{Checker, Summary};
use gup::session::Session;
use gup_graph::io::{graph_to_string, load_graph};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use reference::Standing;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use target::{fields, spawn_server, stop, InProc, Reply, Target, Wire};
use workload::{Op, Stream, Workload};

/// Set-ups before the timed loop. After every block more follow, until the
/// loop has had one per second, so the reported median spans the same stretch
/// of time as the other metrics and rests on about as many set-ups on every
/// workload, whatever its block length.
const FIRST_SETUPS: usize = 5;

/// Set-ups owed once the timed loop that began at `began` has run a while.
fn setups_due(began: Instant) -> usize {
    FIRST_SETUPS + began.elapsed().as_secs() as usize
}

/// Reads per run recounted by the reference enumerator; it tries reads of the
/// first block in a seeded order until this many are settled.
pub const REFERENCE_SAMPLES: usize = 8;
/// Queries per run whose embeddings are sampled and validated.
const EMBEDDING_SAMPLES: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Where build output lives: generated data graphs and the `gup-serve` binary.
pub fn build_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
}

pub fn server_binary() -> PathBuf {
    build_dir().join("release").join("gup-serve")
}

/// Writes the workload's data graph to disk; set-up starts from this file.
pub fn write_data(w: &Workload) -> Result<PathBuf, String> {
    let dir = build_dir().join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.graph", w.name, std::process::id()));
    std::fs::write(&path, graph_to_string(&w.data))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64) * p).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of a process, MiB (`VmHWM`).
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latency samples in a buffer that is allocated and touched up front, so the
/// benchmark's resident memory does not depend on how many operations the
/// program completes. Beyond its capacity it keeps the latest samples.
pub struct Samples {
    buf: Vec<f64>,
    /// Samples with the same key time the same operation: one pool query in
    /// one role (first read, or a repeat within its block).
    keys: Vec<u32>,
    n: usize,
    /// Sample count at the end of each block.
    ends: Vec<usize>,
}

impl Samples {
    const CAPACITY: usize = 1 << 18;

    fn new() -> Self {
        Samples {
            // Not zero: zeroed allocations stay untouched until written.
            buf: vec![-1.0; Self::CAPACITY],
            keys: vec![u32::MAX; Self::CAPACITY],
            n: 0,
            ends: Vec::new(),
        }
    }

    fn push(&mut self, v: f64, key: u32) {
        self.buf[self.n % Self::CAPACITY] = v;
        self.keys[self.n % Self::CAPACITY] = key;
        self.n += 1;
    }

    fn end_block(&mut self) {
        self.ends.push(self.n);
    }

    pub fn count(&self) -> usize {
        self.n
    }

    pub fn values(&self) -> Vec<f64> {
        self.buf[..self.n.min(Self::CAPACITY)].to_vec()
    }

    /// Percentile `p` over all samples, each taken as the median of the
    /// samples that share its key: the latency tail of the operations
    /// themselves (the heavy queries of a pool), without the host stalls
    /// that hit a random one in a hundred of them.
    pub fn keyed_percentile(&self, p: f64) -> f64 {
        let mut held: Vec<(u32, f64)> = (0..self.n.min(Self::CAPACITY))
            .map(|i| (self.keys[i], self.buf[i]))
            .collect();
        held.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut typical = Vec::with_capacity(held.len());
        let mut start = 0;
        while start < held.len() {
            let end = start + held[start..].partition_point(|e| e.0 == held[start].0);
            // Sorted by value within the key: its nearest-rank median.
            let m = held[start + (end - start).div_ceil(2) - 1].1;
            typical.resize(typical.len() + end - start, m);
            start = end;
        }
        percentile(&typical, p)
    }

    /// Median over blocks of each block's percentile `p`. A stall of the host
    /// moves the blocks it falls in, not the run's figure; a tail the program
    /// shows in every block stays in it. Blocks without samples, or whose
    /// samples the buffer no longer holds, are left out.
    pub fn block_percentile(&self, p: f64) -> f64 {
        let oldest = self.n.saturating_sub(Self::CAPACITY);
        let mut start = 0;
        let mut per_block = Vec::with_capacity(self.ends.len());
        for &end in &self.ends {
            if start >= oldest && end > start {
                let block: Vec<f64> = (start..end).map(|i| self.buf[i % Self::CAPACITY]).collect();
                per_block.push(percentile(&block, p));
            }
            start = end;
        }
        median(&per_block)
    }
}

/// What one timed loop measured.
pub struct Timings {
    pub query_ms: Samples,
    pub delta_ms: Samples,
    pub block_ops_per_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs whole blocks of the stream against `target` until `seconds` have
/// passed. Between blocks, outside the timed span, `checker` checks the
/// block's replies and `between` runs. The first `keep` blocks' operations
/// and replies are returned with the timings.
pub fn drive(
    target: &mut dyn Target,
    stream: &mut Stream,
    seconds: f64,
    checker: &mut Checker<'_>,
    keep: usize,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> (Timings, Vec<(Op, Reply)>, Result<(), String>) {
    let mut t = Timings {
        query_ms: Samples::new(),
        delta_ms: Samples::new(),
        block_ops_per_s: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut kept = Vec::new();
    let mut verdict = Ok(());
    // Per pool query, the last block that read it: a second read of it in
    // the same block is a repeat (a cache hit on a server with a cache).
    let mut last_read: Vec<usize> = Vec::new();
    let start = Instant::now();
    loop {
        let block = t.block_ops_per_s.len();
        let ops = stream.next_block();
        let mut log = Vec::with_capacity(ops.len());
        let began = Instant::now();
        for op in ops {
            let at = Instant::now();
            let reply = target.exec(&op);
            let took = ms(at.elapsed());
            match (&op, &reply) {
                (_, Reply::Failed(_)) => t.failed += 1,
                (&Op::Query(q), _) => {
                    if q >= last_read.len() {
                        last_read.resize(q + 1, usize::MAX);
                    }
                    let repeat = last_read[q] == block;
                    last_read[q] = block;
                    t.query_ms.push(took, 2 * q as u32 + u32::from(repeat));
                }
                (Op::Delta(_), _) => t.delta_ms.push(took, 0),
            }
            log.push((op, reply));
        }
        t.block_ops_per_s
            .push(log.len() as f64 / began.elapsed().as_secs_f64());
        t.query_ms.end_block();
        t.delta_ms.end_block();
        t.attempted += log.len() as u64;
        if verdict.is_ok() {
            verdict = checker.check(&log).and_then(|()| between());
        }
        if t.block_ops_per_s.len() <= keep {
            kept.extend(log);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            return (t, kept, verdict);
        }
    }
}

/// Seeded positions of reads in the first block for the reference
/// enumerator: the stream is deterministic, so a copy generates that block.
pub fn sample_reads(w: &Workload, seed: u64) -> HashSet<usize> {
    let block = Stream::new(w, seed).next_block();
    let mut reads: Vec<usize> = (0..block.len())
        .filter(|&i| matches!(block[i], Op::Query(_)))
        .collect();
    reads.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0x5eed));
    reads.into_iter().take(4 * REFERENCE_SAMPLES).collect()
}

/// Embeddings of a seeded sample of queries, from the session.
pub fn sample_embeddings(session: &Session, w: &Workload, seed: u64) -> Vec<(usize, Vec<u32>)> {
    let mut picks: Vec<usize> = (0..w.queries.len()).collect();
    picks.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0xe4b));
    let mut out = Vec::new();
    for i in picks.into_iter().take(EMBEDDING_SAMPLES) {
        if let Ok(o) = session.query(&w.queries[i].1).first_k(10).run() {
            out.extend(o.embeddings.into_iter().map(|e| (i, e)));
        }
    }
    out
}

/// Everything a timed loop needs to check its replies.
pub struct Checks {
    pub standing: Vec<Standing>,
    pub sampled: HashSet<usize>,
}

impl Checks {
    pub fn new(w: &Workload, seed: u64) -> Self {
        Checks {
            standing: w.standing.iter().map(Standing::new).collect(),
            sampled: sample_reads(w, seed),
        }
    }

    pub fn checker<'a>(&'a self, w: &'a Workload) -> Checker<'a> {
        Checker::new(w, &self.standing, &self.sampled)
    }

    /// Finishes a run's checks: sampled embeddings, the self-test on the
    /// first block, and (for a server) its `stats` line.
    pub fn finish(
        &self,
        w: &Workload,
        checker: &mut Checker<'_>,
        first: &[(Op, Reply)],
        embeddings: &[(usize, Vec<u32>)],
        stats: Option<&str>,
    ) -> Result<(), String> {
        checker.embeddings(embeddings)?;
        if let Some(line) = stats {
            reconcile(line, w, &checker.summary)?;
        }
        let s = &checker.summary;
        let wanted = REFERENCE_SAMPLES.min(self.sampled.len());
        if s.recounted.len() < wanted {
            return Err(format!(
                "the reference settled {} of {wanted} sampled reads",
                s.recounted.len()
            ));
        }
        check::self_test(
            w,
            &self.standing,
            &self.sampled,
            &s.recounted,
            first,
            embeddings,
        )?;
        eprintln!(
            "checks: {} reads ({} recounted by the reference, {} too large for it), {} deltas, \
             {} match lines, {} sampled embeddings; self-test ok",
            s.reads,
            s.recounted.len(),
            s.unsettled,
            s.deltas,
            s.matches,
            s.embeddings_validated
        );
        Ok(())
    }
}

/// Checks the server's `stats` line against what the client sent.
pub fn reconcile(line: &str, w: &Workload, s: &Summary) -> Result<(), String> {
    let f = fields(line);
    let (hits, misses) = if w.cache > 0 {
        (s.repeats, s.reads - s.repeats)
    } else {
        // A server without a cache counts neither.
        (0, 0)
    };
    let expected = [
        ("queries", s.reads),
        ("completed", s.reads),
        ("failed", 0),
        ("timed-out", 0),
        ("embeddings", s.embeddings),
        ("cache-hits", hits),
        ("cache-misses", misses),
        ("deltas", s.deltas),
        ("incremental-matches", s.matches),
        ("watchers", w.standing.len() as u64),
    ];
    for (key, want) in expected {
        if f.get(key) != Some(&want) {
            return Err(format!(
                "stats {key}={:?}, client expects {want}: {line}",
                f.get(key)
            ));
        }
    }
    Ok(())
}

pub struct Output {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Output {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The untraced run: set-up, the timed loop, checks, end-to-end metrics.
fn run(w: &Workload, seed: u64, seconds: f64, data: &Path) -> Result<Output, String> {
    let mut stream = Stream::new(w, seed);
    let checks = Checks::new(w, seed);
    let mut checker = checks.checker(w);
    let mut setups = Vec::new();
    let (timings, rss, verdict) = if w.wire {
        // Set-up: spawn to the `listening on` line.
        let bin = server_binary();
        let launch = |setups: &mut Vec<f64>| {
            let (child, addr, took) = spawn_server(&bin, data, w.cache)?;
            setups.push(took.as_secs_f64());
            Ok::<_, String>((child, addr))
        };
        for _ in 1..FIRST_SETUPS {
            stop(&mut launch(&mut setups)?.0);
        }
        let (child, addr) = launch(&mut setups)?;
        let mut wire = Wire::connect(child, &addr, w)?;
        let began = Instant::now();
        let mut again = || {
            while setups.len() < setups_due(began) {
                stop(&mut launch(&mut setups)?.0);
            }
            Ok(())
        };
        let (timings, first, verdict) =
            drive(&mut wire, &mut stream, seconds, &mut checker, 1, &mut again);
        let stats = wire.request("stats\n");
        let rss = peak_rss_mb(&wire.pid().to_string());
        wire.close();
        let verdict =
            verdict.and_then(|()| checks.finish(w, &mut checker, &first, &[], Some(&stats?)));
        (timings, rss, verdict)
    } else {
        // Set-up: parse the data file and prepare the session.
        let prepare = |setups: &mut Vec<f64>| {
            let start = Instant::now();
            let graph = load_graph(data).map_err(|e| e.to_string())?;
            let session = Session::new(graph).with_result_cache(w.cache);
            setups.push(start.elapsed().as_secs_f64());
            Ok::<_, String>(session)
        };
        for _ in 1..FIRST_SETUPS {
            prepare(&mut setups)?;
        }
        let session = prepare(&mut setups)?;
        let mut target = InProc::new(session.clone(), w);
        let began = Instant::now();
        let mut again = || {
            while setups.len() < setups_due(began) {
                prepare(&mut setups)?;
            }
            Ok(())
        };
        let (timings, first, verdict) = drive(
            &mut target,
            &mut stream,
            seconds,
            &mut checker,
            1,
            &mut again,
        );
        let rss = peak_rss_mb("self");
        let embeddings = sample_embeddings(&session, w, seed);
        let verdict =
            verdict.and_then(|()| checks.finish(w, &mut checker, &first, &embeddings, None));
        (timings, rss, verdict)
    };
    if let Err(e) = &verdict {
        eprintln!("CHECK FAILED: {e}");
    }
    let blocks = &timings.block_ops_per_s;
    let (queries, deltas) = (&timings.query_ms, &timings.delta_ms);
    eprintln!(
        "{}: {} ops ({} failed), {} queries, {} deltas, {} set-ups; ops/s per block over {} \
         blocks: min {:.1}, median {:.1}, max {:.1}",
        w.name,
        timings.attempted,
        timings.failed,
        queries.count(),
        deltas.count(),
        setups.len(),
        blocks.len(),
        percentile(blocks, 0.0),
        median(blocks),
        percentile(blocks, 1.0),
    );
    Ok(Output {
        correct: verdict.is_ok(),
        attempted: timings.attempted,
        failed: timings.failed,
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("ops_per_s", median(blocks), "1/s"),
            ("query_p50_ms", queries.keyed_percentile(0.5), "ms"),
            ("query_p99_ms", queries.keyed_percentile(0.99), "ms"),
            ("delta_p50_ms", deltas.block_percentile(0.5), "ms"),
            ("delta_p99_ms", deltas.block_percentile(0.99), "ms"),
            ("peak_rss_mb", rss, "MiB"),
        ],
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::build(&args.workload) else {
        eprintln!(
            "error: unknown workload '{}' (expected one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let mut sets: Vec<(String, usize)> = Vec::new();
    for (set, _) in &w.queries {
        match sets.last_mut() {
            Some((name, n)) if name == set => *n += 1,
            _ => sets.push((set.clone(), 1)),
        }
    }
    eprintln!(
        "{}: data graph {} vertices, {} edges, {} labels; {} standing queries; pool {}",
        w.name,
        w.data.vertex_count(),
        w.data.edge_count(),
        w.data.label_count(),
        w.standing.len(),
        sets.iter()
            .map(|(s, n)| format!("{s}x{n}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let result = write_data(&w).and_then(|data| {
        let out = if args.trace {
            trace::run(&w, args.seed, args.seconds as f64, &data)
        } else {
            run(&w, args.seed, args.seconds as f64, &data)
        };
        let _ = std::fs::remove_file(&data);
        out
    });
    match result {
        Ok(out) => {
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
