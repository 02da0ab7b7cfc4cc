//! The closed-loop client: each connection sends its next request only
//! after the previous reply arrived, timing every request on the
//! benchmark's own clock.

use std::time::{Duration, Instant};

use exactsim_graph::DiGraph;
use exactsim_router::scenario::Op;
use exactsim_service::net::LineClient;

use crate::plan::{Mix, OpStream};
use crate::trace::Tracer;
use crate::wire;

/// Every read asks for the top 10.
pub const TOP_K: usize = 10;

/// The kind of one operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `topk`.
    Read,
    /// `addedge` / `deledge`.
    Write,
    /// `commit`.
    Commit,
}

/// One completed (or failed) request.
#[derive(Clone, Debug)]
pub struct Record {
    /// What was sent.
    pub kind: Kind,
    /// The read's source (0 for writes and commits).
    pub source: u32,
    /// Client-measured latency, ms.
    pub latency_ms: f64,
    /// `false` for an error reply or a transport failure.
    pub ok: bool,
    /// The reply's `epoch`, when it has one.
    pub epoch: Option<u64>,
    /// The reply's `query_time_us` (reads only).
    pub query_time_us: Option<u64>,
    /// The raw reply line (empty after a transport failure).
    pub reply: String,
}

/// When each connection stops.
#[derive(Clone, Debug)]
pub enum Stop {
    /// Stop issuing at this instant.
    At(Instant),
    /// Issue exactly this many operations on each connection.
    Ops(Vec<usize>),
}

/// The outcome of one closed-loop run.
pub struct LoadResult {
    /// Every request, per connection, in send order.
    pub per_conn: Vec<Vec<Record>>,
    /// Wall time from the first send to the last reply.
    pub elapsed: Duration,
}

impl LoadResult {
    /// All records of all connections.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.per_conn.iter().flatten()
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.records().count() as u64
    }

    /// Operations that failed or were refused.
    pub fn failed(&self) -> u64 {
        self.records().filter(|r| !r.ok).count() as u64
    }

    /// Completed operations per second.
    pub fn qps(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.elapsed.as_secs_f64()
    }

    /// Latencies (ms) of the successful operations of `kind`.
    pub fn latencies(&self, kind: Kind) -> Vec<f64> {
        self.records()
            .filter(|r| r.kind == kind && r.ok)
            .map(|r| r.latency_ms)
            .collect()
    }
}

/// Classifies one reply (or transport error) into a [`Record`].
pub fn classify(op: &Op, latency: Duration, reply: std::io::Result<String>) -> Record {
    let (kind, source) = match op {
        Op::Read { source, .. } => (Kind::Read, *source),
        Op::Write { .. } => (Kind::Write, 0),
        Op::Commit => (Kind::Commit, 0),
    };
    let latency_ms = latency.as_secs_f64() * 1e3;
    match reply {
        Ok(reply) => {
            let ok = wire::error_code(&reply).is_none() && !reply.contains("\"error\"");
            Record {
                kind,
                source,
                latency_ms,
                ok,
                epoch: wire::u64_field(&reply, "epoch"),
                query_time_us: wire::u64_field(&reply, "query_time_us"),
                reply,
            }
        }
        Err(_) => Record {
            kind,
            source,
            latency_ms,
            ok: false,
            epoch: None,
            query_time_us: None,
            reply: String::new(),
        },
    }
}

/// Runs `conns` closed-loop connections against `addr`, connection `c`
/// drawing from `OpStream::new(mix, graph, seed, c)`, until `stop`.
pub fn run(
    addr: &str,
    mix: &Mix,
    graph: &DiGraph,
    seed: u64,
    conns: usize,
    stop: &Stop,
    tracer: &Tracer,
) -> Result<LoadResult, String> {
    let mut clients = Vec::with_capacity(conns);
    for _ in 0..conns {
        clients.push(LineClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?);
    }
    let start = Instant::now();
    let per_conn = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let stream = OpStream::new(mix, graph, seed, c as u64);
                scope.spawn(move || {
                    let mut records = Vec::new();
                    for (i, op) in stream.enumerate() {
                        let done = match stop {
                            Stop::At(deadline) => Instant::now() >= *deadline,
                            Stop::Ops(counts) => i >= counts[c],
                        };
                        if done {
                            break;
                        }
                        let request = ((c as u64) << 40) | i as u64;
                        let root = tracer.reserve_id();
                        let t0 = Instant::now();
                        let line =
                            tracer.span("router.scenario.op_to_line", Some(root), request, || {
                                op.to_line(TOP_K)
                            });
                        let reply =
                            tracer.span("service.net.round_trip", Some(root), request, || {
                                client.round_trip(&line)
                            });
                        let transport_failed = reply.is_err();
                        let record =
                            tracer.span("bench.classify_reply", Some(root), request, || {
                                classify(&op, t0.elapsed(), reply)
                            });
                        tracer.record(root, "bench.request", t0, Instant::now(), None, request);
                        records.push(record);
                        if transport_failed {
                            break;
                        }
                    }
                    records
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    Ok(LoadResult {
        per_conn,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read() -> Op {
        Op::Read {
            source: 3,
            algo: None,
        }
    }

    #[test]
    fn error_and_refused_replies_count_as_failed() {
        let ok = classify(
            &read(),
            Duration::from_millis(2),
            Ok("{\"algorithm\":\"exactsim\",\"epoch\":4,\"source\":3,\"k\":10,\"query_time_us\":812,\"results\":[]}".into()),
        );
        assert!(ok.ok);
        assert_eq!((ok.epoch, ok.query_time_us), (Some(4), Some(812)));
        let refused = classify(
            &Op::Commit,
            Duration::from_millis(1),
            Ok("{\"error\":\"server at capacity\",\"code\":\"capacity\"}".into()),
        );
        assert!(!refused.ok);
        let out_of_range = classify(
            &read(),
            Duration::from_millis(1),
            Ok("{\"error\":\"source node 9 out of range\",\"code\":\"out_of_range\"}".into()),
        );
        assert!(!out_of_range.ok);
        let dropped = classify(
            &read(),
            Duration::from_millis(1),
            Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "closed",
            )),
        );
        assert!(!dropped.ok);

        let result = LoadResult {
            per_conn: vec![vec![ok, refused], vec![out_of_range, dropped]],
            elapsed: Duration::from_secs(1),
        };
        assert_eq!(result.attempted(), 4);
        assert_eq!(result.failed(), 3);
        assert_eq!(result.qps(), 1.0);
        assert_eq!(result.latencies(Kind::Read), vec![2.0]);
    }
}
