//! Deterministic request plans for the serving workloads.
//!
//! Every connection of a closed-loop workload draws its operations from its
//! own [`OpStream`], seeded from the benchmark seed and the connection index,
//! so the operations each connection sends, and their order, are a pure
//! function of `--seed`. The server only ever sees the generated lines.

use exactsim_graph::{DiGraph, NodeId};
use exactsim_router::scenario::{Op, ZipfSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a workload picks the source of a read.
#[derive(Clone, Debug)]
pub enum SourcePick {
    /// Zipf-distributed over a fixed hot set (rank 0 is the hottest).
    Zipf {
        /// The hot sources, in rank order.
        hot: Vec<NodeId>,
        /// The Zipf exponent.
        exponent: f64,
    },
    /// Uniform over every node id below `n`.
    Uniform {
        /// The graph's node count.
        n: u32,
    },
}

/// The traffic mix of one workload.
#[derive(Clone, Debug)]
pub struct Mix {
    /// Where read sources come from.
    pub sources: SourcePick,
    /// Share of operations that are `topk` reads; the rest are edge writes.
    pub read_share: f64,
    /// A `commit` follows every `commit_every`-th write of a connection.
    pub commit_every: u32,
}

/// The seeded operation sequence of one connection.
pub struct OpStream {
    rng: StdRng,
    zipf: Option<ZipfSampler>,
    mix: Mix,
    /// Existing arcs of the served graph, the candidates for `deledge`.
    arcs: Vec<(NodeId, NodeId)>,
    n: u32,
    writes_since_commit: u32,
}

impl OpStream {
    /// The stream of connection `conn` under benchmark seed `seed`.
    pub fn new(mix: &Mix, graph: &DiGraph, seed: u64, conn: u64) -> OpStream {
        let zipf = match &mix.sources {
            SourcePick::Zipf { hot, exponent } => {
                Some(ZipfSampler::new(hot.len() as u32, *exponent))
            }
            SourcePick::Uniform { .. } => None,
        };
        let arcs = if mix.read_share < 1.0 {
            graph.iter_edges().collect()
        } else {
            Vec::new()
        };
        OpStream {
            rng: StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(conn + 1)),
            zipf,
            mix: mix.clone(),
            arcs,
            n: graph.num_nodes() as u32,
            writes_since_commit: 0,
        }
    }

    fn read_source(&mut self) -> NodeId {
        match (&self.mix.sources, &self.zipf) {
            (SourcePick::Zipf { hot, .. }, Some(zipf)) => hot[zipf.sample(&mut self.rng) as usize],
            (SourcePick::Uniform { n }, _) => self.rng.gen_range(0..*n),
            (SourcePick::Zipf { .. }, None) => unreachable!("zipf sampler built in new"),
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.writes_since_commit >= self.mix.commit_every {
            self.writes_since_commit = 0;
            return Some(Op::Commit);
        }
        if self.rng.gen::<f64>() < self.mix.read_share {
            let source = self.read_source();
            return Some(Op::Read { source, algo: None });
        }
        self.writes_since_commit += 1;
        // Half the writes delete an arc of the original graph, half insert a
        // random arc; either may be a no-op against the current epoch, which
        // the server answers as `noop`, never as an error.
        if self.rng.gen::<bool>() && !self.arcs.is_empty() {
            let (u, v) = self.arcs[self.rng.gen_range(0..self.arcs.len())];
            Some(Op::Write {
                insert: false,
                u,
                v,
            })
        } else {
            let u = self.rng.gen_range(0..self.n);
            let mut v = self.rng.gen_range(0..self.n);
            if v == u {
                v = (v + 1) % self.n;
            }
            Some(Op::Write { insert: true, u, v })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exactsim_graph::generators::barabasi_albert;

    fn mix(graph: &DiGraph) -> Mix {
        Mix {
            sources: SourcePick::Zipf {
                hot: exactsim_datasets::query_sources(graph, 50, 7),
                exponent: 1.0,
            },
            read_share: 0.5,
            commit_every: 4,
        }
    }

    #[test]
    fn plan_and_arrival_order_repeat_for_a_seed() {
        let graph = barabasi_albert(300, 3, true, 1).unwrap();
        let mix = mix(&graph);
        for conn in 0..2 {
            let a: Vec<Op> = OpStream::new(&mix, &graph, 11, conn).take(500).collect();
            let b: Vec<Op> = OpStream::new(&mix, &graph, 11, conn).take(500).collect();
            assert_eq!(a, b, "connection {conn} must replay the same sequence");
        }
        let other: Vec<Op> = OpStream::new(&mix, &graph, 12, 0).take(500).collect();
        let first: Vec<Op> = OpStream::new(&mix, &graph, 11, 0).take(500).collect();
        assert_ne!(first, other, "another seed must give another plan");
        let conn1: Vec<Op> = OpStream::new(&mix, &graph, 11, 1).take(500).collect();
        assert_ne!(first, conn1, "connections must not send identical streams");
    }

    #[test]
    fn commits_follow_every_nth_write_and_ids_stay_in_range() {
        let graph = barabasi_albert(300, 3, true, 1).unwrap();
        let mix = mix(&graph);
        let mut writes = 0;
        for op in OpStream::new(&mix, &graph, 3, 0).take(2000) {
            match op {
                Op::Commit => {
                    assert_eq!(writes, 4);
                    writes = 0;
                }
                Op::Write { u, v, .. } => {
                    writes += 1;
                    assert!(u < 300 && v < 300 && u != v);
                }
                Op::Read { source, .. } => assert!(source < 300),
            }
        }
    }

    #[test]
    fn uniform_reads_cover_the_id_space() {
        let graph = barabasi_albert(64, 2, true, 1).unwrap();
        let mix = Mix {
            sources: SourcePick::Uniform { n: 64 },
            read_share: 1.0,
            commit_every: u32::MAX,
        };
        let mut seen = [false; 64];
        for op in OpStream::new(&mix, &graph, 5, 0).take(5000) {
            let Op::Read { source, .. } = op else {
                panic!("read-only mix produced {op:?}");
            };
            seen[source as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
