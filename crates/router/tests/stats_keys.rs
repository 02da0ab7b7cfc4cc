//! Pins the full ordered key list of both `stats` replies: the single
//! server's (in-memory, durable, and paged) and the router's.
//!
//! Consumers read these lines with first-match field scanners
//! (`wire::u64_field`), so key order is part of the contract: the bench's
//! `router.shard_requests_per_read` and `simrank-client`'s `router` object
//! read the router's first `"topk"`, which must be the one inside `fanout`.

use std::path::PathBuf;
use std::sync::Arc;

use exactsim_graph::generators::barabasi_albert;
use exactsim_router::{LocalShard, ShardBackend, ShardRouter};
use exactsim_service::{AlgorithmKind, GraphStore, PagedOptions, ServiceConfig, SimRankService};

/// Every object key of a one-line JSON reply, in order, as a dotted path
/// (`fanout.topk`); keys of objects inside an array get a `[]` segment.
fn key_paths(json: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut open: Vec<String> = Vec::new();
    let mut chars = json.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let mut text = String::new();
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => {
                            chars.next();
                        }
                        '"' => break,
                        c => text.push(c),
                    }
                }
                if chars.next_if_eq(&':').is_none() {
                    continue; // a string value, not a key
                }
                let path: Vec<&str> = open
                    .iter()
                    .map(String::as_str)
                    .filter(|s| !s.is_empty())
                    .chain([text.as_str()])
                    .collect();
                keys.push(path.join("."));
                match chars.peek() {
                    Some('{') => {
                        chars.next();
                        open.push(text);
                    }
                    Some('[') => {
                        chars.next();
                        open.push(format!("{text}[]"));
                    }
                    _ => {}
                }
            }
            '{' | '[' => open.push(String::new()),
            '}' | ']' => {
                open.pop();
            }
            _ => {}
        }
    }
    keys
}

fn graph() -> Arc<exactsim_graph::DiGraph> {
    Arc::new(barabasi_albert(80, 3, true, 5).unwrap())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("exactsim-stats-keys-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The single-server key order; `POOL` keys appear only on paged stores.
const SERVICE_KEYS: &str = "epoch shards workers kernel_threads queries cache_hits dedup_joins \
    computations index_builds errors epoch_refreshes updates_staged commit_requests evictions \
    invalidations cached_entries hit_rate memory_bytes memory_bytes.exactsim memory_bytes.prsim \
    memory_bytes.mc p50_us p99_us latency_saturated connections_accepted connections_closed \
    connections_rejected shed_rate net_requests bytes_in bytes_out requests_per_conn_p50 pool \
    POOL data_dir wal_len last_snapshot_epoch";
const POOL_KEYS: &str =
    "pool.pages pool.resident pool.pinned pool.hits pool.misses pool.evictions pool.pool_hit_rate";

fn expected_service_keys(paged: bool) -> Vec<String> {
    let pool = if paged { POOL_KEYS } else { "" };
    SERVICE_KEYS
        .replace("POOL", pool)
        .split_whitespace()
        .map(String::from)
        .collect()
}

fn served_stats(store: GraphStore) -> String {
    let service = SimRankService::with_store(Arc::new(store), ServiceConfig::fast_demo()).unwrap();
    service.query(AlgorithmKind::ExactSim, 3).unwrap();
    service.stats().to_json()
}

#[test]
fn in_memory_stats_keys_are_pinned_in_order() {
    let json = served_stats(GraphStore::new(graph()));
    assert_eq!(key_paths(&json), expected_service_keys(false), "{json}");
    assert!(json.contains("\"pool\":null,\"data_dir\":null,\"wal_len\":null"));
}

#[test]
fn durable_stats_keys_are_pinned_in_order() {
    let dir = temp_dir("durable");
    let json = served_stats(GraphStore::create(&dir, graph()).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(key_paths(&json), expected_service_keys(false), "{json}");
    assert!(!json.contains("\"data_dir\":null"), "{json}");
    assert!(json.contains("\"wal_len\":0,"), "{json}");
}

#[test]
fn paged_stats_keys_are_pinned_in_order() {
    let dir = temp_dir("paged");
    let store = GraphStore::new(graph())
        .with_paging(
            &dir,
            PagedOptions {
                pool_pages: 4,
                page_bytes: 64,
            },
        )
        .unwrap();
    let json = served_stats(store);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(key_paths(&json), expected_service_keys(true), "{json}");
    assert!(json.contains("\"pool\":{\"pages\":4,"), "{json}");
}

#[test]
fn router_stats_keys_are_pinned_in_order() {
    let graph = graph();
    let shards: Vec<Box<dyn ShardBackend>> = (0..2)
        .map(|_| {
            let service =
                SimRankService::new(Arc::clone(&graph), ServiceConfig::fast_demo()).unwrap();
            Box::new(LocalShard::new(service)) as Box<dyn ShardBackend>
        })
        .collect();
    let router = ShardRouter::new(shards).unwrap();
    let json = router.stats_json();

    let mut expected: Vec<String> = "epoch shards queries errors degraded fanout fanout.query \
        fanout.topk fanout.update fanout.commit fanout.epoch fanout.save mixed_epoch_retries \
        barrier_wait_p50_us barrier_wait_p99_us net_requests connections_accepted \
        connections_closed connections_rejected bytes_in bytes_out per_shard"
        .split_whitespace()
        .map(String::from)
        .collect();
    for _ in 0..2 {
        let shard = "shard backend requests errors health fastfail probes p50_us p99_us";
        expected.extend(
            shard
                .split_whitespace()
                .map(|key| format!("per_shard[].{key}")),
        );
    }
    let keys = key_paths(&json);
    assert_eq!(keys, expected, "{json}");
    let first_topk = keys.iter().find(|k| k.rsplit('.').next() == Some("topk"));
    assert_eq!(first_topk.map(String::as_str), Some("fanout.topk"));
}
