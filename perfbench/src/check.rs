//! Output checks against the benchmark's own mirror, enumerator and
//! validator, and the self-test that proves each check can fail.
//!
//! The checker runs online, one block at a time, between the timed blocks:
//! the run keeps no transcript beyond its first block, so the benchmark's own
//! memory does not grow with the program's throughput.

use crate::reference::{self, uses_any, validate, Mirror, Standing};
use crate::target::Reply;
use crate::workload::{Op, Workload, CAP};
use crate::REFERENCE_SAMPLES;
use std::collections::{HashMap, HashSet};

/// Search nodes the reference may spend on one recount.
const REFERENCE_STEPS: u64 = 2_000_000;

/// Totals over everything checked so far.
#[derive(Debug, Default)]
pub struct Summary {
    pub reads: u64,
    /// Reads that repeat an earlier read since the last delta: with a result
    /// cache these are exactly the cache hits.
    pub repeats: u64,
    pub embeddings: u64,
    /// Positions of the reads the reference recounted to the end.
    pub recounted: Vec<usize>,
    /// Sampled reads the reference gave up on.
    pub unsettled: u64,
    pub deltas: u64,
    pub matches: u64,
    pub embeddings_validated: u64,
}

pub struct Checker<'a> {
    w: &'a Workload,
    standing: &'a [Standing],
    /// Positions (in operation order) of reads the reference tries to
    /// recount, until it has settled `REFERENCE_SAMPLES` of them.
    sampled: &'a HashSet<usize>,
    /// Reads always see the base graph (the `Revert` policy), so a query's
    /// count must be the same in every pass.
    static_reads: bool,
    mirror: Mirror,
    at: usize,
    counts: HashMap<usize, u64>,
    pub summary: Summary,
}

impl<'a> Checker<'a> {
    pub fn new(w: &'a Workload, standing: &'a [Standing], sampled: &'a HashSet<usize>) -> Self {
        Checker {
            w,
            standing,
            sampled,
            static_reads: !w.wire,
            mirror: Mirror::new(&w.data),
            at: 0,
            counts: HashMap::new(),
            summary: Summary::default(),
        }
    }

    /// Validates embeddings of pool queries in the base graph.
    pub fn embeddings(&mut self, embeddings: &[(usize, Vec<u32>)]) -> Result<(), String> {
        let base = Mirror::new(&self.w.data);
        for (i, emb) in embeddings {
            validate(&base, &self.w.queries[*i].1, emb)
                .map_err(|e| format!("sampled embedding of query {i}: {e}"))?;
            self.summary.embeddings_validated += 1;
        }
        Ok(())
    }

    /// Checks the next operations of the run, in order.
    pub fn check(&mut self, log: &[(Op, Reply)]) -> Result<(), String> {
        for (op, reply) in log {
            let at = self.at;
            self.at += 1;
            self.one(op, reply)
                .map_err(|e| format!("operation {at}: {e}"))?;
        }
        Ok(())
    }

    fn one(&mut self, op: &Op, reply: &Reply) -> Result<(), String> {
        let s = &mut self.summary;
        match (op, reply) {
            (_, Reply::Failed(_)) => {}
            (Op::Query(i), Reply::Query { count }) => {
                s.reads += 1;
                s.embeddings += count;
                let (set, q) = &self.w.queries[*i];
                if *count == 0 || *count > CAP {
                    return Err(format!("{set} query {i} reported {count} embeddings"));
                }
                match self.counts.insert(*i, *count) {
                    Some(seen) if seen != *count => {
                        return Err(format!("query {i} reported {count}, earlier {seen}"))
                    }
                    Some(_) => s.repeats += 1,
                    None => {}
                }
                if self.sampled.contains(&(self.at - 1)) && s.recounted.len() < REFERENCE_SAMPLES {
                    match reference::count(&self.mirror, q, CAP, REFERENCE_STEPS) {
                        Some(expected) if expected != *count => {
                            return Err(format!(
                                "{set} query {i}: program counted {count}, reference {expected}"
                            ))
                        }
                        Some(_) => s.recounted.push(self.at - 1),
                        None => s.unsettled += 1,
                    }
                }
            }
            (Op::Delta(batch), Reply::Delta(r)) => {
                s.deltas += 1;
                if !self.static_reads {
                    self.counts.clear();
                }
                let m = &mut self.mirror;
                let net = m.apply(batch)?;
                let expect = (batch.len(), m.vertex_count(), m.edge_count());
                let got = (r.applied, r.vertices, r.edges);
                if got != expect {
                    return Err(format!(
                        "delta reply (applied, vertices, edges) = {got:?}, mirror {expect:?}"
                    ));
                }
                if (r.inserted, r.removed) != (net.inserted.len(), net.removed.len()) {
                    return Err("delta reply inserted/removed disagree".to_string());
                }
                if r.new_matches != r.matches.len() as u64 {
                    return Err(format!(
                        "new-matches={} but {} match lines",
                        r.new_matches,
                        r.matches.len()
                    ));
                }
                let mut got: Vec<HashSet<&[u32]>> = vec![HashSet::new(); self.standing.len()];
                for (k, emb) in &r.matches {
                    let q = self.standing[*k].query();
                    validate(m, q, emb).map_err(|e| format!("match line: {e}"))?;
                    if !uses_any(q, emb, &net.inserted) {
                        return Err("match uses no inserted edge".to_string());
                    }
                    if !got[*k].insert(emb) {
                        return Err("match reported twice".to_string());
                    }
                }
                for (k, st) in self.standing.iter().enumerate() {
                    let want = st.new_matches(m, &net.inserted);
                    if want.len() != got[k].len() || got[k].iter().any(|e| !want.contains(*e)) {
                        return Err(format!(
                            "standing query {k}: {} new matches reported, reference finds {}",
                            got[k].len(),
                            want.len()
                        ));
                    }
                }
                s.matches += r.matches.len() as u64;
            }
            _ => return Err("reply does not fit the operation".to_string()),
        }
        Ok(())
    }
}

/// Seeds wrong answers into copies of a passing first block and requires
/// each to fail the checks: a corrupted embedding, a count off by one, and a
/// dropped `match` line. Each copy is cut just after the seeded fault.
pub fn self_test(
    w: &Workload,
    standing: &[Standing],
    sampled: &HashSet<usize>,
    recounted: &[usize],
    log: &[(Op, Reply)],
    embeddings: &[(usize, Vec<u32>)],
) -> Result<(), String> {
    let expect_fail = |name: &str, log: &[(Op, Reply)], embs: &[(usize, Vec<u32>)]| {
        let mut c = Checker::new(w, standing, sampled);
        match c.embeddings(embs).and_then(|()| c.check(log)) {
            Ok(()) => Err(format!("self-test: a {name} passed the checks")),
            Err(_) => Ok(()),
        }
    };
    let first_match = log.iter().position(
        |(_, r)| matches!(r, Reply::Delta(d) if d.matches.iter().any(|(_, e)| e.len() > 1)),
    );
    if let Some(at) = first_match {
        let mut bad = log[..=at].to_vec();
        if let (_, Reply::Delta(d)) = &mut bad[at] {
            let (_, e) = d
                .matches
                .iter_mut()
                .find(|(_, e)| e.len() > 1)
                .expect("found above");
            e[0] = e[1];
        }
        expect_fail("corrupted match line", &bad, &[])?;
        let mut dropped = log[..=at].to_vec();
        if let (_, Reply::Delta(d)) = &mut dropped[at] {
            d.matches.pop();
            d.new_matches -= 1;
        }
        expect_fail("dropped match line", &dropped, &[])?;
    } else if !standing.is_empty() {
        return Err("self-test: the first block has no match line to drop".to_string());
    }
    if let Some((i, e)) = embeddings.iter().find(|(_, e)| e.len() > 1) {
        let mut e = e.clone();
        e[0] = e[1];
        expect_fail("corrupted sampled embedding", &[], &[(*i, e)])?;
    } else if first_match.is_none() {
        return Err("self-test: no embedding to corrupt".to_string());
    }
    let at = *recounted
        .first()
        .ok_or("self-test: no read recounted by the reference")?;
    let mut off = log[..=at].to_vec();
    if let (_, Reply::Query { count }) = &mut off[at] {
        *count += 1;
    }
    expect_fail("count off by one", &off, &[])
}
