//! The two ways an operation reaches the program: in-process through
//! `Session` and `gup_stream`, or over one TCP connection to a `gup-serve`
//! process. Both return the same [`Reply`], so one checker reads both.

use crate::workload::{Op, Workload, CAP};
use gup::session::Session;
use gup_graph::delta::GraphDelta;
use gup_graph::sink::CollectAll;
use gup_graph::Graph;
use gup_serve::graph_body;
use gup_stream::{collect_new_matches, QueryPlan};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaReply {
    pub applied: usize,
    pub vertices: usize,
    pub edges: usize,
    pub inserted: usize,
    pub removed: usize,
    pub new_matches: u64,
    /// `(standing query index, embedding over its original ids)`.
    pub matches: Vec<(usize, Vec<u32>)>,
}

#[derive(Clone, Debug)]
pub enum Reply {
    Query {
        count: u64,
    },
    Delta(DeltaReply),
    /// `busy`, `err …` or a session error.
    Failed(String),
}

pub trait Target {
    fn exec(&mut self, op: &Op) -> Reply;
}

pub struct InProc {
    session: Session,
    queries: Vec<Graph>,
    plans: Vec<QueryPlan>,
}

impl InProc {
    pub fn new(session: Session, w: &Workload) -> Self {
        InProc {
            session,
            queries: w.queries.iter().map(|(_, q)| q.clone()).collect(),
            plans: w
                .standing
                .iter()
                .map(|q| QueryPlan::new(q).expect("standing queries are valid"))
                .collect(),
        }
    }
}

impl Target for InProc {
    fn exec(&mut self, op: &Op) -> Reply {
        match op {
            Op::Query(i) => match self.session.query(&self.queries[*i]).count_stats() {
                Ok(stats) => Reply::Query {
                    count: stats.embeddings,
                },
                Err(e) => Reply::Failed(e.to_string()),
            },
            Op::Delta(batch) => {
                let (next, effects) = match self.session.apply_deltas(batch) {
                    Ok(applied) => applied,
                    Err(e) => return Reply::Failed(e.to_string()),
                };
                let mut reply = DeltaReply {
                    applied: batch.len(),
                    vertices: next.data().vertex_count(),
                    edges: next.data().edge_count(),
                    inserted: effects.inserted_edges.len(),
                    removed: effects.removed_edges.len(),
                    ..DeltaReply::default()
                };
                for (k, plan) in self.plans.iter().enumerate() {
                    let mut sink = CollectAll::new();
                    reply.new_matches +=
                        collect_new_matches(next.prepared(), &effects, plan, &mut sink);
                    reply
                        .matches
                        .extend(sink.into_embeddings().into_iter().map(|e| (k, e)));
                }
                next.counters()
                    .record_incremental_matches(reply.new_matches);
                self.session = next;
                Reply::Delta(reply)
            }
        }
    }
}

/// Wire form of a delta batch.
pub fn delta_body(batch: &[GraphDelta]) -> String {
    let mut s = String::new();
    for d in batch {
        match *d {
            GraphDelta::AddVertex { label } => s.push_str(&format!("av {label}\n")),
            GraphDelta::AddEdge { a, b } => s.push_str(&format!("ae {a} {b}\n")),
            GraphDelta::RemoveEdge { a, b } => s.push_str(&format!("de {a} {b}\n")),
        }
    }
    s
}

/// A `gup-serve` child process and one client connection to it.
pub struct Wire {
    child: Child,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    requests: Vec<String>,
    /// Server watch id → standing query index.
    watches: HashMap<u64, usize>,
    /// Bytes sent and received by delta operations.
    pub delta_bytes: u64,
    line: String,
}

/// Starts `gup-serve` on `data` and waits for its `listening on` line.
/// Returns the child, its address, and the time from spawn to that line.
pub fn spawn_server(
    bin: &Path,
    data: &Path,
    cache: usize,
) -> Result<(Child, String, Duration), String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let start = Instant::now();
    let mut child = Command::new(bin)
        .arg("--data")
        .arg(data)
        .args(["--listen", "127.0.0.1:0", "--workers"])
        .arg(workers.to_string())
        .arg("--cache")
        .arg(cache.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut line = String::new();
    let stdout = child.stdout.take().expect("stdout is piped");
    let read = BufReader::new(stdout).read_line(&mut line);
    let elapsed = start.elapsed();
    match (read, line.trim().strip_prefix("listening on ")) {
        (Ok(_), Some(addr)) => Ok((child, addr.to_string(), elapsed)),
        _ => {
            stop(&mut child);
            Err(format!(
                "gup-serve did not report its address (got {line:?})"
            ))
        }
    }
}

pub fn stop(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// However a run ends, its server process ends with it.
impl Drop for Wire {
    fn drop(&mut self) {
        stop(&mut self.child);
    }
}

impl Wire {
    pub fn connect(mut child: Child, addr: &str, w: &Workload) -> Result<Wire, String> {
        let stream = match TcpStream::connect(addr).and_then(|s| s.set_nodelay(true).map(|()| s)) {
            Ok(s) => s,
            Err(e) => {
                stop(&mut child);
                return Err(format!("cannot connect to {addr}: {e}"));
            }
        };
        let reader = match stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(e) => {
                stop(&mut child);
                return Err(e.to_string());
            }
        };
        let mut wire = Wire {
            child,
            reader,
            writer: stream,
            requests: w
                .queries
                .iter()
                .map(|(_, q)| format!("query count\n{}", graph_body(q)))
                .collect(),
            watches: HashMap::new(),
            delta_bytes: 0,
            line: String::new(),
        };
        for (k, q) in w.standing.iter().enumerate() {
            let reply = wire.request(&format!("watch\n{}", graph_body(q)))?;
            let id = reply
                .strip_prefix("ok watch id=")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("watch refused: {reply}"))?;
            wire.watches.insert(id, k);
        }
        Ok(wire)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn send(&mut self, text: &str) -> Result<(), String> {
        self.writer
            .write_all(text.as_bytes())
            .map_err(|e| format!("send failed: {e}"))
    }

    fn read_line(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    /// Sends one request and returns its one-line reply.
    pub fn request(&mut self, text: &str) -> Result<String, String> {
        self.send(text)?;
        self.read_line().map(str::to_string)
    }

    /// Asks for `shutdown` and waits up to 10 s for the process to end; the
    /// drop then kills it if it has not.
    pub fn close(mut self) {
        let _ = self.request("shutdown\n");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline && !matches!(self.child.try_wait(), Ok(Some(_))) {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn delta(&mut self, batch: &[GraphDelta]) -> Result<Reply, String> {
        let body = format!("delta\n{}end\n", delta_body(batch));
        self.delta_bytes += body.len() as u64;
        self.send(&body)?;
        let mut matches = Vec::new();
        loop {
            let line = self.read_line()?.to_string();
            self.delta_bytes += line.len() as u64 + 1;
            if let Some(rest) = line.strip_prefix("match id=") {
                let mut words = rest.split(' ');
                let id: u64 = words
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(u64::MAX);
                let k = *self
                    .watches
                    .get(&id)
                    .ok_or_else(|| format!("match for unknown watch: {line}"))?;
                let emb = words
                    .map(|s| s.parse().map_err(|_| format!("bad match line: {line}")))
                    .collect::<Result<Vec<u32>, String>>()?;
                matches.push((k, emb));
                continue;
            }
            let Some(rest) = line.strip_prefix("ok delta ") else {
                return Ok(Reply::Failed(line));
            };
            let f = fields(rest);
            let get = |k: &str| {
                f.get(k)
                    .copied()
                    .ok_or_else(|| format!("no {k}= in {line}"))
            };
            return Ok(Reply::Delta(DeltaReply {
                applied: get("applied")? as usize,
                vertices: get("vertices")? as usize,
                edges: get("edges")? as usize,
                inserted: get("inserted")? as usize,
                removed: get("removed")? as usize,
                new_matches: get("new-matches")?,
                matches,
            }));
        }
    }
}

/// Parses the numeric `key=value` words of a reply line.
pub fn fields(line: &str) -> HashMap<&str, u64> {
    line.split(' ')
        .filter_map(|w| w.split_once('='))
        .filter_map(|(k, v)| v.parse().ok().map(|v| (k, v)))
        .collect()
}

impl Target for Wire {
    fn exec(&mut self, op: &Op) -> Reply {
        let result = match op {
            Op::Query(i) => {
                let text = std::mem::take(&mut self.requests[*i]);
                let reply = self.request(&text);
                self.requests[*i] = text;
                reply.map(|line| match fields(&line).get("embeddings") {
                    Some(&count) if line.starts_with("ok ") && count <= CAP => {
                        Reply::Query { count }
                    }
                    _ => Reply::Failed(line),
                })
            }
            Op::Delta(batch) => self.delta(batch),
        };
        result.unwrap_or_else(Reply::Failed)
    }
}
