//! The four workloads.
//!
//! * `exact_batch`: in-process `ExactSim` (optimized) at ε = 1e-3 with no
//!   walk budget and two kernel threads; one sequential caller. The paper's
//!   guarantee regime, with no serving layer.
//! * `serve_hot_mixed`: one `simrank-serve` over TCP; Zipf(1.0) reads over
//!   100 hot sources and 5% writes. The response cache and in-flight dedup
//!   answer many reads, so the net/protocol/cache path sets the median.
//! * `serve_paged_uniform`: the same server with `--paged`; read-only,
//!   uniform over all nodes, so nearly every read misses the cache and runs
//!   the kernel through the buffer pool.
//! * `routed_write_heavy`: a `--shard-of` router over two shard processes;
//!   Zipf(0.8) reads and 50% writes, so commits fan out and sweep caches.
//!
//! All serve on the GQ (ca-GrQc) stand-in at scale 1, from closed loops.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::wire;
use exactsim::exactsim::{DiagonalMode, ExactSim, ExactSimConfig};
use exactsim::topk::top_k;
use exactsim_graph::DiGraph;
use exactsim_service::net::LineClient;

use crate::load::{self, Kind, LoadResult, Stop};
use crate::plan::{Mix, SourcePick};
use crate::report::Report;
use crate::server::{probe_num_nodes, Server};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::{kernel, layers};

/// The workloads, by their `--workload` names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// In-process exact batch.
    ExactBatch,
    /// One server, hot Zipf reads with some writes.
    ServeHotMixed,
    /// One paged server, uniform reads.
    ServePagedUniform,
    /// A router over two shard servers, half writes.
    RoutedWriteHeavy,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ExactBatch,
        Workload::ServeHotMixed,
        Workload::ServePagedUniform,
        Workload::RoutedWriteHeavy,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExactBatch => "exact_batch",
            Workload::ServeHotMixed => "serve_hot_mixed",
            Workload::ServePagedUniform => "serve_paged_uniform",
            Workload::RoutedWriteHeavy => "routed_write_heavy",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Error target of `exact_batch` (the paper's guarantee regime).
pub const EXACT_EPSILON: f64 = 1e-3;
/// Kernel threads of `exact_batch`.
pub const EXACT_THREADS: usize = 2;
/// Error target of the reference columns `max_abs_err` is measured against.
const REFERENCE_EPSILON: f64 = 1e-6;
/// The serving configuration: `simrank-serve`'s defaults, passed explicitly.
pub const SERVE_EPSILON: f64 = 1e-2;
/// Walk budget of the serving configuration.
pub const SERVE_WALK_BUDGET: u64 = 2_000_000;
/// Client connections of every serve workload.
const CONNECTIONS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Served answers checked bit for bit against the in-process solver.
const CHECKED_ANSWERS: usize = 12;
/// Sources of the per-layer probes (the core probe at ε = 1e-3 uses two).
const PROBE_SOURCES: usize = 8;

/// What one run needs besides the workload.
pub struct Ctx {
    /// Which workload.
    pub workload: Workload,
    /// The benchmark seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
    /// The `simrank-serve` binary.
    pub server_bin: PathBuf,
}

/// The GQ stand-in at scale 1.
pub fn gq() -> Result<DiGraph, String> {
    let spec = exactsim_datasets::dataset_by_key("GQ").ok_or("no GQ dataset")?;
    Ok(spec.generate_scaled(1.0).map_err(|e| e.to_string())?.graph)
}

/// The serving configuration as an in-process solver configuration.
pub fn serve_config() -> ExactSimConfig {
    kernel::config(SERVE_EPSILON, Some(SERVE_WALK_BUDGET), 1)
}

/// Runs `ctx.workload` and fills `report`.
pub fn run(ctx: &Ctx, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    match ctx.workload {
        Workload::ExactBatch => exact_batch(ctx, tracer, report),
        w => serve(ctx, w, tracer, report),
    }
}

/// Reports the end-to-end latency lines shared by every workload.
fn report_latencies(report: &mut Report, label: &str, samples: &[f64]) {
    match Summary::of(samples) {
        Some(s) => {
            report.note(format!("{label}: {}", s.describe("ms")));
            if let Some((q, v)) = s.tail {
                let name = format!("{label}_{}_ms", crate::stats::percentile_label(q));
                report.note(format!("metric {name} = {v:.4} ms (samples = {})", s.count));
            }
        }
        None => report.note(format!("{label}: no samples")),
    }
}

/// The in-process system: the GQ graph and a solver ready to answer.
pub fn exact_setup() -> Result<(DiGraph, ExactSimConfig), String> {
    let cfg = kernel::config(EXACT_EPSILON, None, EXACT_THREADS);
    let graph = gq()?;
    ExactSim::new(&graph, cfg.clone()).map_err(|e| e.to_string())?;
    Ok((graph, cfg))
}

/// Time from starting a fresh process that runs [`exact_setup`] until it
/// reports ready. A fresh process per set-up, like the servers of the serve
/// workloads, so that per-process effects (heap and CPU placement) are
/// sampled `SETUPS` times per run instead of once.
fn exact_setup_seconds() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut child = std::process::Command::new(exe)
        .arg(crate::SETUP_PROBE_FLAG)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let mut line = String::new();
    let stdout = child.stdout.take().expect("stdout was piped");
    std::io::BufRead::read_line(&mut std::io::BufReader::new(stdout), &mut line)
        .map_err(|e| format!("set-up probe: {e}"))?;
    let elapsed = start.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("set-up probe: {e}"))?;
    if line.trim() != "ready" || !status.success() {
        return Err(format!("set-up probe failed ({status}): {line}"));
    }
    Ok(elapsed)
}

fn exact_batch(ctx: &Ctx, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let setups = (0..SETUPS)
        .map(|_| exact_setup_seconds())
        .collect::<Result<Vec<_>, _>>()?;
    let (graph, cfg) = exact_setup()?;
    let solver = ExactSim::new(&graph, cfg.clone()).map_err(|e| e.to_string())?;
    let sources = exactsim_datasets::query_sources(&graph, 1000, ctx.seed);

    // One sequential caller; the last query may overrun the window.
    let pass = |stop: ExactStop, tracer: &Tracer| {
        let start = Instant::now();
        let mut answers = Vec::new();
        let mut latencies = Vec::new();
        for (i, &s) in sources.iter().enumerate() {
            let done = match stop {
                ExactStop::After(d) => start.elapsed() >= d,
                ExactStop::Count(c) => i >= c,
            };
            if done {
                break;
            }
            let root = tracer.reserve_id();
            let t0 = Instant::now();
            let out = tracer.span("core.exactsim_query", Some(root), i as u64, || {
                solver.query(s)
            });
            let end = Instant::now();
            tracer.record(root, "bench.request", t0, end, None, i as u64);
            latencies.push((end - t0).as_secs_f64() * 1e3);
            answers.push((s, out));
        }
        (answers, latencies, start.elapsed())
    };
    let window = Duration::from_secs_f64(ctx.seconds);
    let (answers, latencies, elapsed) = if ctx.trace {
        let untraced = Tracer::new(false);
        let (first, _, untraced_elapsed) = pass(ExactStop::After(window / 4), &untraced);
        let traced = pass(ExactStop::Count(first.len()), tracer);
        report_overhead(report, traced.2, untraced_elapsed, first.len());
        traced
    } else {
        pass(ExactStop::After(window), tracer)
    };

    let attempted = answers.len() as u64;
    let mut failed = 0;
    let reference_cfg = ExactSimConfig {
        epsilon: REFERENCE_EPSILON,
        diagonal: DiagonalMode::Exact(crate::load_diagonal(graph.num_nodes())?),
        ..cfg.clone()
    };
    let reference = ExactSim::new(&graph, reference_cfg).map_err(|e| e.to_string())?;
    let mut max_abs_err: f64 = 0.0;
    for (s, out) in &answers {
        match out {
            Ok(out) => {
                let truth = reference.query(*s).map_err(|e| e.to_string())?.scores;
                for (a, b) in out.scores.iter().zip(&truth) {
                    max_abs_err = max_abs_err.max((a - b).abs());
                }
            }
            Err(e) => {
                failed += 1;
                report.fail(format!("exact_batch: query {s} failed: {e}"));
            }
        }
    }
    if max_abs_err > EXACT_EPSILON {
        report.fail(format!(
            "exact_batch: max_abs_err {max_abs_err:e} exceeds epsilon {EXACT_EPSILON:e}"
        ));
    }
    report.attempted = attempted;
    report.failed = failed;
    report.metric("setup_s", median(&setups), "s");
    report.metric(
        "qps",
        (attempted - failed) as f64 / elapsed.as_secs_f64(),
        "1/s",
    );
    report.metric("query_p50_ms", median(&latencies), "ms");
    report_latencies(report, "query", &latencies);
    report.note(format!(
        "metric max_abs_err = {max_abs_err:e} abs (epsilon = {EXACT_EPSILON:e}, over {attempted} \
         sources x {} nodes, reference: exact D at epsilon {REFERENCE_EPSILON:e})",
        graph.num_nodes()
    ));
    report.note(format!(
        "config: epsilon = {EXACT_EPSILON:e}, walk budget = none, kernel threads = {EXACT_THREADS}"
    ));

    if ctx.trace {
        kernel::probe(&graph, &cfg, &sources[..2], tracer, report);
        layer_probes(ctx, &graph, tracer, report)?;
    }
    Ok(())
}

#[derive(Clone, Copy)]
enum ExactStop {
    After(Duration),
    Count(usize),
}

fn report_overhead(report: &mut Report, traced: Duration, untraced: Duration, ops: usize) {
    let ms = (traced.as_secs_f64() - untraced.as_secs_f64()) * 1e3;
    report.metric("trace.overhead_ms", ms, "ms");
    report.note(format!(
        "tracing overhead: traced {:.1} ms - untraced {:.1} ms over the same {ops} operations",
        traced.as_secs_f64() * 1e3,
        untraced.as_secs_f64() * 1e3
    ));
}

/// The probes every traced run reports, whatever its workload.
fn layer_probes(
    ctx: &Ctx,
    graph: &DiGraph,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let sources = exactsim_datasets::query_sources(graph, PROBE_SOURCES, ctx.seed ^ 0x9E0B);
    let serve = serve_config();
    layers::graph_probe(graph, tracer, report);
    layers::paged_probe(
        graph,
        &serve,
        &sources,
        &ctx.work.join("probe-pages"),
        tracer,
        report,
    )?;
    layers::commit_probe(
        graph,
        ctx.seed,
        &ctx.work.join("probe-store"),
        tracer,
        report,
    )?;
    layers::service_probe(graph, &serve, sources[0], tracer, report)
}

/// The processes of one serve deployment; the front end is the last.
struct Deployment {
    servers: Vec<Server>,
}

impl Deployment {
    fn front(&self) -> &str {
        &self.servers.last().expect("a front end").addr
    }

    /// Shard servers (the single server itself when there is no router).
    fn shards(&self) -> &[Server] {
        match self.servers.len() {
            1 => &self.servers,
            n => &self.servers[..n - 1],
        }
    }

    /// Drains the front end first, then the shards.
    fn shutdown(mut self) -> Result<(), String> {
        let mut result = Ok(());
        while let Some(server) = self.servers.pop() {
            if let Err(e) = server.shutdown() {
                result = result.and(Err(e));
            }
        }
        result
    }
}

fn server_args(data_dir: &Path, workers: usize, paged: bool) -> Vec<String> {
    let mut args: Vec<String> = [
        "--dataset",
        "GQ",
        "--scale",
        "1",
        "--epsilon",
        "0.01",
        "--walk-budget",
        "2000000",
        "--cache-capacity",
        "1024",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.extend(["--workers".to_string(), workers.to_string()]);
    args.extend(["--data-dir".to_string(), data_dir.display().to_string()]);
    if paged {
        args.push("--paged".to_string());
    }
    args
}

/// Starts the deployment of `workload` in `dir` and returns it, with the
/// time from the first process start to the first answered request and
/// the node count the front end reports.
fn boot(ctx: &Ctx, workload: Workload, dir: &Path) -> Result<(Deployment, f64, usize), String> {
    let bin = &ctx.server_bin;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let start = Instant::now();
    let mut servers = Vec::new();
    match workload {
        Workload::RoutedWriteHeavy => {
            for i in 0..2 {
                let args = server_args(&dir.join(format!("shard-{i}")), 1, false);
                servers.push(Server::spawn(
                    bin,
                    &args,
                    &dir.join(format!("shard-{i}.log")),
                )?);
            }
            let addrs = format!("{},{}", servers[0].addr, servers[1].addr);
            let args = vec!["--shard-of".to_string(), addrs];
            servers.push(Server::spawn(bin, &args, &dir.join("router.log"))?);
        }
        w => {
            let paged = w == Workload::ServePagedUniform;
            let args = server_args(&dir.join("data"), 2, paged);
            servers.push(Server::spawn(bin, &args, &dir.join("server.log"))?);
        }
    }
    let deployment = Deployment { servers };
    let mut client =
        LineClient::connect(deployment.front()).map_err(|e| format!("connect: {e}"))?;
    let n = probe_num_nodes(&mut client)?;
    Ok((deployment, start.elapsed().as_secs_f64(), n))
}

fn mix(workload: Workload, graph: &DiGraph, n: usize, seed: u64) -> Mix {
    match workload {
        // 100 hot sources, not 500: with a commit every 8 writes, 500 put the
        // cache hit share near one half, so the median read latency jumped
        // between the hit and the miss mode from seed to seed.
        Workload::ServeHotMixed => Mix {
            sources: SourcePick::Zipf {
                hot: exactsim_datasets::query_sources(graph, 100, seed),
                exponent: 1.0,
            },
            read_share: 0.95,
            commit_every: 8,
        },
        Workload::ServePagedUniform => Mix {
            sources: SourcePick::Uniform { n: n as u32 },
            read_share: 1.0,
            commit_every: u32::MAX,
        },
        Workload::RoutedWriteHeavy => Mix {
            sources: SourcePick::Zipf {
                hot: exactsim_datasets::query_sources(graph, 500, seed),
                exponent: 0.8,
            },
            read_share: 0.5,
            commit_every: 4,
        },
        Workload::ExactBatch => unreachable!("exact_batch runs in process"),
    }
}

fn serve(
    ctx: &Ctx,
    workload: Workload,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let graph = gq()?;
    let mut setups = Vec::new();
    let mut booted = None;
    for i in 0..SETUPS {
        let dir = ctx.work.join(format!("boot-{i}"));
        let (deployment, secs, n) = boot(ctx, workload, &dir)?;
        setups.push(secs);
        if n != graph.num_nodes() {
            deployment.shutdown()?;
            return Err(format!(
                "server reports {n} nodes but GQ at scale 1 has {}; refusing to plan",
                graph.num_nodes()
            ));
        }
        if i + 1 < SETUPS {
            deployment.shutdown()?;
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            booted = Some((deployment, n));
        }
    }
    // Every planned source and edge comes from `graph`, whose node count the
    // server has just confirmed, so every planned id is below `n`.
    let (mut deployment, n) = booted.expect("at least one set-up");
    let mix = mix(workload, &graph, n, ctx.seed);

    let window = Duration::from_secs_f64(ctx.seconds);
    let result = if ctx.trace {
        // The same operations twice on fresh deployments: untraced, then
        // traced; the difference is the tracing overhead.
        let untraced = load::run(
            deployment.front(),
            &mix,
            &graph,
            ctx.seed,
            CONNECTIONS,
            &Stop::At(Instant::now() + window / 4),
            &Tracer::new(false),
        )?;
        deployment.shutdown()?;
        let counts = untraced.per_conn.iter().map(Vec::len).collect();
        deployment = boot(ctx, workload, &ctx.work.join("boot-traced"))?.0;
        let traced = load::run(
            deployment.front(),
            &mix,
            &graph,
            ctx.seed,
            CONNECTIONS,
            &Stop::Ops(counts),
            tracer,
        )?;
        report_overhead(
            report,
            traced.elapsed,
            untraced.elapsed,
            traced.attempted() as usize,
        );
        traced
    } else {
        load::run(
            deployment.front(),
            &mix,
            &graph,
            ctx.seed,
            CONNECTIONS,
            &Stop::At(Instant::now() + window),
            tracer,
        )?
    };

    report.attempted = result.attempted();
    report.failed = result.failed();
    if report.failed > 0 {
        let first = result.records().find(|r| !r.ok).map(|r| r.reply.clone());
        report.fail(format!(
            "{} of {} operations failed; first reply: {first:?}",
            report.failed, report.attempted
        ));
    }
    let reads = result.latencies(Kind::Read);
    report.metric("setup_s", median(&setups), "s");
    report.metric("qps", result.qps(), "1/s");
    report.metric(
        "query_p50_ms",
        if reads.is_empty() {
            f64::NAN
        } else {
            median(&reads)
        },
        "ms",
    );
    report_latencies(report, "query", &reads);
    let commits = result.latencies(Kind::Commit);
    if !commits.is_empty() {
        report.note(format!(
            "metric commit_p50_ms = {:.4} ms (samples = {})",
            median(&commits),
            commits.len()
        ));
    }
    let workers = match workload {
        Workload::RoutedWriteHeavy => "2 shards x 1 worker",
        _ => "2 workers",
    };
    report.note(format!(
        "config: epsilon = {SERVE_EPSILON:e}, walk budget = {SERVE_WALK_BUDGET}, {workers}, \
         kernel threads = 1, connections = {CONNECTIONS}, closed loop, reads = topk {}",
        load::TOP_K
    ));

    check_epoch0_answers(&graph, &result, mix.read_share >= 1.0, report)?;
    if ctx.trace {
        service_counters(&deployment, &result, report)?;
    }
    if workload == Workload::RoutedWriteHeavy {
        router_checks(ctx, &deployment, &graph, tracer, report)?;
    }
    if ctx.trace {
        let sources = exactsim_datasets::query_sources(&graph, PROBE_SOURCES, ctx.seed);
        kernel::probe(&graph, &serve_config(), &sources, tracer, report);
        layer_probes(ctx, &graph, tracer, report)?;
    }
    deployment.shutdown()
}

/// Sampled `topk` answers served at epoch 0 (the unmodified graph) must be
/// bit-identical to the in-process solver's top-k on the in-memory graph.
fn check_epoch0_answers(
    graph: &DiGraph,
    result: &LoadResult,
    read_only: bool,
    report: &mut Report,
) -> Result<(), String> {
    let at_epoch0: Vec<_> = result
        .records()
        .filter(|r| r.kind == Kind::Read && r.ok && r.epoch == Some(0))
        .collect();
    if at_epoch0.is_empty() {
        // A write-heavy mix can commit before any read; a read-only one
        // serves every read at epoch 0.
        if read_only {
            report.fail("no read was answered at epoch 0 to check");
        } else {
            report.note("no read was answered at epoch 0 to check");
        }
        return Ok(());
    }
    let solver = ExactSim::new(graph, serve_config()).map_err(|e| e.to_string())?;
    let step = at_epoch0.len().div_ceil(CHECKED_ANSWERS);
    let mut checked = 0;
    for record in at_epoch0.iter().step_by(step) {
        let served = wire::results(&record.reply);
        let scores = solver
            .query(record.source)
            .map_err(|e| e.to_string())?
            .scores;
        let want = top_k(&scores, record.source, load::TOP_K);
        let same = served.as_ref().is_some_and(|got| {
            got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.node == b.node && a.score.to_bits() == b.score.to_bits())
        });
        if !same {
            report.fail(format!(
                "served topk for {} differs from the in-memory solver: {}",
                record.source, record.reply
            ));
        }
        checked += 1;
    }
    report.note(format!(
        "checked {checked} served epoch-0 answers bit for bit against in-memory ExactSim"
    ));
    Ok(())
}

/// Routed `topk` against a direct shard `topk` at the same epoch (bit
/// identity), and in traced runs the router's read overhead and fan-out.
fn router_checks(
    ctx: &Ctx,
    deployment: &Deployment,
    graph: &DiGraph,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let connect = |addr: &str| LineClient::connect(addr).map_err(|e| format!("{addr}: {e}"));
    let mut routed = connect(deployment.front())?;
    let mut direct = connect(&deployment.shards()[0].addr)?;
    let ask = |c: &mut LineClient, line: &str| c.round_trip(line).map_err(|e| e.to_string());
    let sources = exactsim_datasets::query_sources(graph, PROBE_SOURCES, ctx.seed ^ 0x7011);
    for &s in &sources {
        let line = format!("topk {s} {}", load::TOP_K);
        let a = ask(&mut routed, &line)?;
        let b = ask(&mut direct, &line)?;
        let same_epoch = wire::u64_field(&a, "epoch") == wire::u64_field(&b, "epoch");
        let (ra, rb) = (wire::results(&a), wire::results(&b));
        if !same_epoch || ra.is_none() || ra != rb {
            report.fail(format!("routed topk {s} differs from shard 0: {a} vs {b}"));
        }
    }
    report.note(format!(
        "checked {} routed answers bit for bit against a direct shard topk at the same epoch",
        sources.len()
    ));
    if !ctx.trace {
        return Ok(());
    }
    // Cold reads: a routed read and a direct read of the same source, each
    // after a commit that swept every cache.
    let fresh = exactsim_datasets::query_sources(graph, 2 * PROBE_SOURCES, ctx.seed ^ 0xF2E5);
    let invalidate = |routed: &mut LineClient, i: usize| -> Result<(), String> {
        let (u, v) = (
            fresh[i] as usize,
            (fresh[i] as usize + 1) % graph.num_nodes(),
        );
        ask(routed, &format!("addedge {u} {v}"))?;
        ask(routed, "commit").map(|_| ())
    };
    let mut routed_ms = Vec::new();
    let mut direct_ms = Vec::new();
    for (i, &s) in fresh.iter().enumerate().skip(PROBE_SOURCES) {
        let line = format!("topk {s} {}", load::TOP_K);
        invalidate(&mut routed, i)?;
        let t = Instant::now();
        tracer
            .span("router.routed_topk", None, (4 << 50) | i as u64, || {
                routed.round_trip(&line)
            })
            .map_err(|e| e.to_string())?;
        routed_ms.push(t.elapsed().as_secs_f64() * 1e3);
        invalidate(&mut routed, i - PROBE_SOURCES)?;
        let t = Instant::now();
        tracer
            .span("router.direct_topk", None, (4 << 50) | i as u64, || {
                direct.round_trip(&line)
            })
            .map_err(|e| e.to_string())?;
        direct_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let (r, d) = (
        crate::stats::mean(&routed_ms),
        crate::stats::mean(&direct_ms),
    );
    report.metric("router.read_overhead_ratio", r / d, "ratio");
    report.metric("router.routed_read_ms", r, "ms");
    report.metric("router.direct_read_ms", d, "ms");
    Ok(())
}

/// The service counters of the traced pass, from the servers' `stats`, and
/// the client-side wire-and-queue time of cache misses.
fn service_counters(
    deployment: &Deployment,
    result: &LoadResult,
    report: &mut Report,
) -> Result<(), String> {
    let stats = |addr: &str| {
        LineClient::connect(addr)
            .and_then(|mut c| c.round_trip("stats"))
            .map_err(|e| format!("stats of {addr}: {e}"))
    };
    let (mut queries, mut hits, mut joins, mut invalidations) = (0, 0, 0, 0);
    for shard in deployment.shards() {
        let s = stats(&shard.addr)?;
        let field = |f: &str| wire::u64_field(&s, f).unwrap_or(0);
        queries += field("queries");
        hits += field("cache_hits");
        joins += field("dedup_joins");
        invalidations += field("invalidations");
    }
    let share = |v: u64| v as f64 / queries.max(1) as f64;
    report.metric("service.cache_hit_share", share(hits), "ratio");
    report.metric("service.dedup_share", share(joins), "ratio");
    report.metric("service.invalidations", invalidations as f64, "count");

    // A miss is the first reply for its (source, epoch).
    let mut seen = BTreeSet::new();
    let mut wire_queue = Vec::new();
    for r in result.records().filter(|r| r.kind == Kind::Read && r.ok) {
        if let (Some(epoch), Some(us)) = (r.epoch, r.query_time_us) {
            if seen.insert((r.source, epoch)) {
                wire_queue.push(r.latency_ms - us as f64 / 1e3);
            }
        }
    }
    if !wire_queue.is_empty() {
        report.metric("service.wire_queue_ms", median(&wire_queue), "ms");
    }

    if deployment.servers.len() > 1 {
        let s = stats(deployment.front())?;
        // `"topk"` first occurs inside the `fanout` object.
        let fanout = wire::u64_field(&s, "topk").unwrap_or(0);
        let reads = result.records().filter(|r| r.kind == Kind::Read).count();
        report.metric(
            "router.shard_requests_per_read",
            fanout as f64 / reads.max(1) as f64,
            "ratio",
        );
    }
    Ok(())
}
