//! Probes of single layers, each a span around calls into one crate's
//! public functions: the graph kernel, the store (paged reads and durable
//! commits), the service (cache hit, parse, serialize) and the router merge.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use exactsim::exactsim::{ExactSim, ExactSimConfig};
use exactsim::topk::{merge_top_k, top_k, TopKEntry};
use exactsim_graph::{DiGraph, NodeId};
use exactsim_service::protocol::parse_line;
use exactsim_service::{AlgorithmKind, ServiceConfig, SimRankService};
use exactsim_store::{GraphStore, PagedOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// Buffer-pool frames of `simrank-serve --paged` by default.
pub const SERVER_POOL_PAGES: usize = 4096;

/// Median per-call time in µs of `f`, over `rounds` batches of `calls`
/// calls, each batch recorded as one span.
fn per_call_us<T>(
    tracer: &Tracer,
    name: &'static str,
    rounds: usize,
    calls: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let mut batches = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let start = Instant::now();
        for _ in 0..calls {
            std::hint::black_box(f());
        }
        let end = Instant::now();
        tracer.record(tracer.reserve_id(), name, start, end, None, round as u64);
        batches.push((end - start).as_secs_f64() * 1e6 / calls as f64);
    }
    median(&batches)
}

/// The number of pages the paged store images `graph` into.
pub fn page_count(graph: &DiGraph, dir: &Path) -> Result<usize, String> {
    let store = GraphStore::new(Arc::new(graph.clone()))
        .with_paging(dir, PagedOptions::default())
        .map_err(|e| format!("paging probe: {e}"))?;
    let pages = store
        .graph()
        .as_paged()
        .map(|p| p.num_pages())
        .ok_or("paging probe: store is not paged")?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(pages)
}

/// `graph.pt_multiply_us`: one dense `Pᵀ·x`.
pub fn graph_probe(graph: &DiGraph, tracer: &Tracer, report: &mut Report) {
    let n = graph.num_nodes();
    let x: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
    let mut y = vec![0.0; n];
    let us = per_call_us(tracer, "graph.pt_multiply", 15, 20, || {
        exactsim_graph::linalg::pt_multiply(graph, &x, &mut y);
        y[0]
    });
    report.metric("graph.pt_multiply_us", us, "us");
}

/// `store.paged_query_ratio` and pool counters: the same sources through the
/// paged `GraphHandle` (pool as large as the server's) and the in-memory
/// `DiGraph`, answers checked bit for bit.
pub fn paged_probe(
    graph: &DiGraph,
    cfg: &ExactSimConfig,
    sources: &[NodeId],
    dir: &Path,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let store = GraphStore::new(Arc::new(graph.clone()))
        .with_paging(
            dir,
            PagedOptions {
                pool_pages: SERVER_POOL_PAGES,
                ..PagedOptions::default()
            },
        )
        .map_err(|e| format!("paged probe: {e}"))?;
    let handle = store.graph();
    let paged = ExactSim::new(handle.clone(), cfg.clone()).map_err(|e| e.to_string())?;
    let mem = ExactSim::new(graph, cfg.clone()).map_err(|e| e.to_string())?;
    let before = store.pool_stats().ok_or("paged probe: no pool")?;
    for (i, &s) in sources.iter().enumerate() {
        let request = (2 << 50) | i as u64;
        let a = tracer.span("store.paged_query", None, request, || paged.query(s));
        let b = tracer.span("store.mem_query", None, request, || mem.query(s));
        let (a, b) = (a.map_err(|e| e.to_string())?, b.map_err(|e| e.to_string())?);
        if a.scores
            .iter()
            .zip(&b.scores)
            .any(|(x, y)| x.to_bits() != y.to_bits())
        {
            report.fail(format!(
                "store: paged answer for {s} differs from in-memory"
            ));
        }
    }
    let after = store.pool_stats().ok_or("paged probe: no pool")?;
    let (paged_ms, mem_ms) = (
        tracer.mean_ms("store.paged_query"),
        tracer.mean_ms("store.mem_query"),
    );
    let per_query = |v: u64| v as f64 / sources.len() as f64;
    report.metric("store.paged_query_ratio", paged_ms / mem_ms, "ratio");
    report.metric("store.paged_query_ms", paged_ms, "ms");
    report.metric("store.mem_query_ms", mem_ms, "ms");
    report.metric(
        "store.pool_hits",
        per_query(after.hits - before.hits),
        "count",
    );
    report.metric(
        "store.pool_misses",
        per_query(after.misses - before.misses),
        "count",
    );
    report.metric(
        "store.pool_evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    );
    drop(paged);
    drop(handle);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// `store.commit_ms` and its `CommitReport.timings` stages: `commits`
/// durable commits of four seeded edge updates each.
pub fn commit_probe(
    graph: &DiGraph,
    seed: u64,
    dir: &Path,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    const COMMITS: usize = 20;
    let store = GraphStore::create(dir, Arc::new(graph.clone()))
        .map_err(|e| format!("commit probe: {e}"))?;
    let n = graph.num_nodes() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00C0_AA17);
    let mut stages: [Vec<f64>; 4] = Default::default();
    for i in 0..COMMITS {
        for _ in 0..4 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                store
                    .stage_insert(u, v)
                    .map_err(|e| format!("commit probe: {e}"))?;
            }
        }
        let commit = tracer.span("store.commit", None, (3 << 50) | i as u64, || {
            store.commit()
        });
        let t = commit.map_err(|e| format!("commit probe: {e}"))?.timings;
        for (acc, d) in stages
            .iter_mut()
            .zip([t.csr_merge, t.wal_append, t.fsync, t.publish])
        {
            acc.push(d.as_secs_f64() * 1e3);
        }
    }
    report.metric("store.commit_ms", tracer.mean_ms("store.commit"), "ms");
    for (name, values) in [
        "store.commit.csr_merge_ms",
        "store.commit.wal_append_ms",
        "store.commit.fsync_ms",
        "store.commit.publish_ms",
    ]
    .into_iter()
    .zip(&stages)
    {
        report.metric(name, crate::stats::mean(values), "ms");
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// `service.hit_us`, `service.parse_us`, `service.serialize_us` and
/// `router.merge_us`, on an in-process service configured like the server.
pub fn service_probe(
    graph: &DiGraph,
    cfg: &ExactSimConfig,
    source: NodeId,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let service = SimRankService::new(
        Arc::new(graph.clone()),
        ServiceConfig {
            workers: 2,
            exactsim: cfg.clone(),
            ..ServiceConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let kind = AlgorithmKind::ExactSim;
    let response = service
        .top_k(kind, source, crate::load::TOP_K)
        .map_err(|e| e.to_string())?;
    let hit_us = per_call_us(tracer, "service.top_k_hit", 15, 50, || {
        service.top_k(kind, source, crate::load::TOP_K)
    });
    report.metric("service.hit_us", hit_us, "us");
    let line = format!("topk {source} {}", crate::load::TOP_K);
    let parse_us = per_call_us(tracer, "service.protocol.parse_line", 15, 2000, || {
        parse_line(&line)
    });
    report.metric("service.parse_us", parse_us, "us");
    let serialize_us = per_call_us(tracer, "service.topk_to_json", 15, 2000, || {
        response.to_json()
    });
    report.metric("service.serialize_us", serialize_us, "us");

    // Two disjoint halves of a real top-20, as two shards would return them.
    let column = service.query(kind, source).map_err(|e| e.to_string())?;
    let entries = top_k(&column.scores, source, 2 * crate::load::TOP_K);
    let (even, odd): (Vec<TopKEntry>, Vec<TopKEntry>) =
        entries.iter().partition(|e| e.node % 2 == 0);
    let merge_us = per_call_us(tracer, "router.merge_top_k", 15, 2000, || {
        merge_top_k(vec![even.clone(), odd.clone()], crate::load::TOP_K)
    });
    report.metric("router.merge_us", merge_us, "us");
    Ok(())
}
