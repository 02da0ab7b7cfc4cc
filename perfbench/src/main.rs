//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <exact_batch|serve_hot_mixed|serve_paged_uniform|routed_write_heavy> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --regen-diagonal
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object `{"correct","attempted","failed","metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! exit code is non-zero when any answer is wrong or any operation failed.
//! See `perfbench/README.md` for the workloads and the layer-to-metric map.

mod kernel;
mod layers;
mod load;
mod plan;
mod report;
mod server;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use exactsim::power_method::{PowerMethod, PowerMethodConfig};

use report::Report;
use trace::Tracer;
use workloads::{Ctx, Workload};

/// Runs only the `exact_batch` set-up and prints `ready`; the benchmark
/// starts itself with it to time set-up in fresh processes.
pub const SETUP_PROBE_FLAG: &str = "--setup-probe";

/// The end-to-end metrics of `--trace 0`, as listed in `BENCHMARK.json`.
const END_TO_END: [&str; 3] = ["setup_s", "qps", "query_p50_ms"];

/// The per-layer metrics of `--trace 1`, as listed in `BENCHMARK.json`.
/// A workload whose path does not reach a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 38] = [
    ("core.hop_vectors_ms", "ms"),
    ("core.diagonal_ms", "ms"),
    ("core.recurrence_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.query_ms", "ms"),
    ("core.walk_pairs", "count"),
    ("core.explore_edges", "count"),
    ("core.tails_skipped", "count"),
    ("core.hop_nnz", "count"),
    ("core.thread_speedup", "ratio"),
    ("core.t1_query_ms", "ms"),
    ("core.t2_query_ms", "ms"),
    ("graph.pt_multiply_us", "us"),
    ("store.paged_query_ratio", "ratio"),
    ("store.paged_query_ms", "ms"),
    ("store.mem_query_ms", "ms"),
    ("store.pool_hits", "count"),
    ("store.pool_misses", "count"),
    ("store.pool_evictions", "count"),
    ("store.commit_ms", "ms"),
    ("store.commit.csr_merge_ms", "ms"),
    ("store.commit.wal_append_ms", "ms"),
    ("store.commit.fsync_ms", "ms"),
    ("store.commit.publish_ms", "ms"),
    ("service.cache_hit_share", "ratio"),
    ("service.dedup_share", "ratio"),
    ("service.invalidations", "count"),
    ("service.hit_us", "us"),
    ("service.parse_us", "us"),
    ("service.serialize_us", "us"),
    ("service.wire_queue_ms", "ms"),
    ("router.shard_requests_per_read", "ratio"),
    ("router.merge_us", "us"),
    ("router.read_overhead_ratio", "ratio"),
    ("router.routed_read_ms", "ms"),
    ("router.direct_read_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// The repository root (the parent of this package).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

fn diagonal_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("data/gq_diagonal.txt")
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <exact_batch|serve_hot_mixed|\
serve_paged_uniform|routed_write_heavy> --seed <n> --seconds <s> --trace <0|1>\n       \
perfbench --regen-diagonal";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Recomputes GQ's exact diagonal with the all-pairs power method (minutes
/// of CPU and `n²` doubles of memory) and rewrites the stored file.
fn regen_diagonal() -> Result<(), String> {
    let graph = workloads::gq()?;
    let pm =
        PowerMethod::compute(&graph, PowerMethodConfig::default()).map_err(|e| e.to_string())?;
    let d = pm.exact_diagonal(&graph);
    let mut text = format!(
        "# Exact diagonal D of the GQ stand-in at scale 1 ({} nodes), one value per line,\n\
         # from PowerMethod::exact_diagonal (tolerance 1e-10). Regenerate with --regen-diagonal.\n",
        d.len()
    );
    for v in &d {
        text.push_str(&format!("{v:?}\n"));
    }
    std::fs::write(diagonal_path(), text).map_err(|e| e.to_string())
}

/// GQ's stored exact diagonal `D`.
pub fn load_diagonal(n: usize) -> Result<Vec<f64>, String> {
    let path = diagonal_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let values: Vec<f64> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.trim().parse::<f64>().map_err(|e| format!("{l}: {e}")))
        .collect::<Result<_, _>>()?;
    if values.len() != n {
        return Err(format!(
            "{} holds {} values but GQ has {n} nodes; run --regen-diagonal",
            path.display(),
            values.len()
        ));
    }
    Ok(values)
}

fn run(args: &Args) -> Result<Report, String> {
    let work = Path::new("perfbench").join("out").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    // Built by every workload, so that the first run in a checkout builds
    // everything whichever workload it is.
    let server_bin = server::build_server(&repo_root())?;
    let graph = workloads::gq()?;
    let mut report = Report::default();
    let pages = layers::page_count(&graph, &work.join("pages"))?;
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
        server_bin,
    };
    report.note(format!(
        "workload = {}, seed = {}, seconds = {}, trace = {}, available_parallelism = {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        nproc()
    ));
    report.note(format!(
        "graph: GQ stand-in at scale 1, n = {}, m = {} arcs, {pages} pages of {} bytes",
        graph.num_nodes(),
        graph.num_edges(),
        exactsim_store::DEFAULT_PAGE_BYTES
    ));
    let tracer = Tracer::new(args.trace);
    let outcome = workloads::run(&ctx, &tracer, &mut report);
    if args.trace {
        let path = work.parent().expect("work dir has a parent").join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.note(format!(
            "spans written to {} ({} spans)",
            path.display(),
            tracer.spans().len()
        ));
        report.metric("trace.spans", tracer.spans().len() as f64, "count");
    }
    let _ = std::fs::remove_dir_all(&work);
    outcome.map(|()| report)
}

/// Keeps the metrics of the run's mode, in `BENCHMARK.json` order, and
/// prints every metric measured as a line.
fn select_metrics(report: &mut Report, trace: bool) {
    let measured = std::mem::take(&mut report.metrics);
    for m in &measured {
        report
            .lines
            .push(format!("metric {} = {} {}", m.name, m.value, m.unit));
    }
    let find = |name: &str| measured.iter().find(|m| m.name == name).cloned();
    if trace {
        for (name, unit) in PER_LAYER {
            match find(name) {
                Some(m) => report.metrics.push(m),
                None => {
                    report
                        .lines
                        .push(format!("metric {name} = 0 {unit} (layer not on this path)"));
                    report.metric(name, 0.0, unit);
                }
            }
        }
    } else {
        for name in END_TO_END {
            match find(name) {
                Some(m) if m.value.is_finite() && m.value > 0.0 => report.metrics.push(m),
                _ => report.fail(format!("end-to-end metric {name} was not measured")),
            }
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some(SETUP_PROBE_FLAG) {
        return match workloads::exact_setup() {
            Ok(_) => {
                println!("ready");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if raw.first().map(String::as_str) == Some("--regen-diagonal") {
        return match regen_diagonal() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.attempted == 0 {
        report.fail("no operation was attempted");
    }
    select_metrics(&mut report, args.trace);
    for line in &report.lines {
        println!("{line}");
    }
    for problem in &report.problems {
        println!("INCORRECT: {problem}");
    }
    println!(
        "fail_share = {} ({} of {} operations)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_run_flags() {
        let a = parse_args(&args(&[
            "--workload",
            "serve_hot_mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeHotMixed);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&args(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&args(&["--workload", "exact_batch"])).is_err());
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }

    #[test]
    fn an_untraced_run_without_a_metric_is_incorrect() {
        let mut r = Report {
            attempted: 1,
            ..Default::default()
        };
        r.metric("qps", 3.0, "1/s");
        select_metrics(&mut r, false);
        assert!(!r.correct());
        assert_eq!(r.metrics.len(), 1);
    }
}
