//! The `stats` reply: a point-in-time [`StatsSnapshot`] of one service.
//!
//! Every counter in it is read from the service's metrics registry (the
//! `metrics` module), so `stats` and `metrics` always agree. Latency
//! quantiles come from the power-of-two bucketed
//! [`exactsim_obs::metrics::Histogram`]: p50/p99 are bucket upper bounds,
//! within a factor of two of the true quantile.

use std::time::Duration;

use exactsim_obs::json::escape_json;
use exactsim_store::PoolStats;

/// `part / whole`, or 0 when `whole` is 0 (the `hit_rate` and `shed_rate`
/// of an idle service).
pub(crate) fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// A point-in-time copy of the service counters.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsSnapshot {
    /// The graph epoch the service is currently serving.
    pub epoch: u64,
    /// Batch-executor worker threads (resolved, not the `0 = per-core` flag).
    pub workers: usize,
    /// ExactSim kernel threads per query (`SimRankConfig::threads`).
    pub kernel_threads: usize,
    /// Buffer-pool counters of the paged storage backend (`None` when the
    /// store serves from the in-memory CSR). `hits`/`misses`/`evictions` are
    /// monotonic across epochs — the pool outlives page files.
    pub pool: Option<PoolStats>,
    /// Data directory of the backing store (`None` for in-memory stores).
    pub data_dir: Option<String>,
    /// Delta records currently in the write-ahead log (`None` when not
    /// durable). Together with `last_snapshot_epoch` this tells an operator
    /// how much replay a restart would do.
    pub wal_len: Option<u64>,
    /// Epoch of the newest on-disk snapshot file (`None` when not durable).
    pub last_snapshot_epoch: Option<u64>,
    /// Queries finished: the sum of `simrank_queries_total` over every
    /// outcome, so it equals hits + joins + computations + errors.
    pub queries: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that joined an in-flight computation instead of recomputing.
    pub dedup_joins: u64,
    /// Underlying single-source computations that succeeded (the `miss`
    /// outcome).
    pub computations: u64,
    /// Algorithm indices built (lazily, at most one per algorithm).
    pub index_builds: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Times the service rebuilt its per-epoch state after a store commit.
    pub epoch_refreshes: u64,
    /// `addedge`/`deledge` requests that reached the store's staging area
    /// (including cancels and no-ops) — the write half of a workload mix.
    pub updates_staged: u64,
    /// `commit` requests accepted, whether or not each advanced the epoch.
    pub commit_requests: u64,
    /// Cache entries evicted under capacity pressure.
    pub evictions: u64,
    /// Cache entries swept by epoch-generation invalidations.
    pub invalidations: u64,
    /// Entries currently resident in the cache.
    pub cached_entries: usize,
    /// `(cache_hits + dedup_joins) / queries` — the fraction of queries that
    /// did *not* pay for a computation.
    pub hit_rate: f64,
    /// Per-algorithm index heap footprint for the serving epoch, in
    /// `[exactsim, prsim, mc]` order ([`AlgorithmKind::ALL`] of the response
    /// module). `None` until that algorithm's index has been built this
    /// epoch; ExactSim is index-free and reports `Some(0)` once constructed.
    ///
    /// [`AlgorithmKind::ALL`]: crate::response::AlgorithmKind::ALL
    pub index_memory_bytes: [Option<u64>; 3],
    /// Median serve latency (bucket upper bound), if any query was served.
    pub p50: Option<Duration>,
    /// 99th-percentile serve latency (bucket upper bound).
    pub p99: Option<Duration>,
    /// Observations past the histogram's top bucket (`≥ 2^39 µs`). When this
    /// is nonzero, a reported quantile of `2^39 µs` is a *lower* bound.
    pub latency_saturated: u64,
    /// TCP connections accepted by the network listener (0 without one).
    pub connections_accepted: u64,
    /// TCP connections that have finished (EOF, `quit`, error, or drain);
    /// `connections_accepted - connections_closed` is the live gauge.
    pub connections_closed: u64,
    /// TCP connections turned away because `--max-conns` handlers were busy.
    pub connections_rejected: u64,
    /// `connections_rejected / (connections_accepted + connections_rejected)`
    /// — the fraction of offered connections the listener load-shed. Zero
    /// before any connection attempt (and always zero without a listener).
    pub shed_rate: f64,
    /// Protocol requests served over TCP connections (updates, `stats` and
    /// the like count here too, not only queries).
    pub net_requests: u64,
    /// Payload bytes read from TCP connections (request lines, newlines
    /// included). Zero without a network listener.
    pub bytes_in: u64,
    /// Payload bytes written to TCP connections (reply lines, newlines
    /// included).
    pub bytes_out: u64,
    /// Median requests served per finished TCP connection (bucket upper
    /// bound, like every quantile here), `None` before any connection
    /// closed. A median of 1 means clients are not reusing connections.
    pub requests_per_conn_p50: Option<u64>,
}

impl StatsSnapshot {
    /// Serializes to one line of JSON for the `stats` protocol command
    /// (hand-rolled like [`crate::response`]; the offline build has no
    /// serde). Latencies are microsecond bucket upper bounds, `null` before
    /// the first served query. A single service always reports
    /// `"shards":1`; only a router reports a real width, in its own reply.
    /// Consumers scan the line by first match, so the key order is part of
    /// the contract.
    pub fn to_json(&self) -> String {
        let us = |d: Option<Duration>| match d {
            Some(d) => d.as_micros().to_string(),
            None => "null".to_string(),
        };
        let opt_u64 = |v: Option<u64>| match v {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        };
        let data_dir = match &self.data_dir {
            Some(dir) => format!("\"{}\"", escape_json(dir)),
            None => "null".to_string(),
        };
        let pool = match &self.pool {
            Some(p) => format!(
                concat!(
                    "{{\"pages\":{},\"resident\":{},\"pinned\":{},",
                    "\"hits\":{},\"misses\":{},\"evictions\":{},",
                    "\"pool_hit_rate\":{:.4}}}"
                ),
                p.capacity,
                p.resident,
                p.pinned,
                p.hits,
                p.misses,
                p.evictions,
                p.hit_rate(),
            ),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"epoch\":{},\"shards\":1,\"workers\":{},\"kernel_threads\":{},",
                "\"queries\":{},\"cache_hits\":{},\"dedup_joins\":{},",
                "\"computations\":{},\"index_builds\":{},\"errors\":{},",
                "\"epoch_refreshes\":{},\"updates_staged\":{},\"commit_requests\":{},",
                "\"evictions\":{},\"invalidations\":{},",
                "\"cached_entries\":{},\"hit_rate\":{:.4},",
                "\"memory_bytes\":{{\"exactsim\":{},\"prsim\":{},\"mc\":{}}},",
                "\"p50_us\":{},\"p99_us\":{},",
                "\"latency_saturated\":{},",
                "\"connections_accepted\":{},\"connections_closed\":{},",
                "\"connections_rejected\":{},\"shed_rate\":{:.4},\"net_requests\":{},",
                "\"bytes_in\":{},\"bytes_out\":{},\"requests_per_conn_p50\":{},",
                "\"pool\":{},",
                "\"data_dir\":{},\"wal_len\":{},\"last_snapshot_epoch\":{}}}"
            ),
            self.epoch,
            self.workers,
            self.kernel_threads,
            self.queries,
            self.cache_hits,
            self.dedup_joins,
            self.computations,
            self.index_builds,
            self.errors,
            self.epoch_refreshes,
            self.updates_staged,
            self.commit_requests,
            self.evictions,
            self.invalidations,
            self.cached_entries,
            self.hit_rate,
            opt_u64(self.index_memory_bytes[0]),
            opt_u64(self.index_memory_bytes[1]),
            opt_u64(self.index_memory_bytes[2]),
            us(self.p50),
            us(self.p99),
            self.latency_saturated,
            self.connections_accepted,
            self.connections_closed,
            self.connections_rejected,
            self.shed_rate,
            self.net_requests,
            self.bytes_in,
            self.bytes_out,
            opt_u64(self.requests_per_conn_p50),
            pool,
            data_dir,
            opt_u64(self.wal_len),
            opt_u64(self.last_snapshot_epoch),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exactsim_obs::metrics::Histogram;

    /// A snapshot with every optional field set and distinct values, so the
    /// rendered line pins each key, its position, and its formatting.
    fn busy() -> StatsSnapshot {
        StatsSnapshot {
            epoch: 7,
            workers: 4,
            kernel_threads: 2,
            pool: Some(PoolStats {
                capacity: 64,
                resident: 64,
                pinned: 2,
                hits: 900,
                misses: 100,
                evictions: 36,
            }),
            data_dir: Some("/var/lib/simrank \"x\"".to_string()),
            wal_len: Some(12),
            last_snapshot_epoch: Some(3),
            queries: 10,
            cache_hits: 6,
            dedup_joins: 3,
            computations: 1,
            index_builds: 2,
            errors: 0,
            epoch_refreshes: 2,
            updates_staged: 12,
            commit_requests: 3,
            evictions: 5,
            invalidations: 4,
            cached_entries: 5,
            hit_rate: share(6 + 3, 10),
            index_memory_bytes: [Some(0), Some(4096), None],
            p50: Some(Duration::from_micros(128)),
            p99: Some(Duration::from_micros(1024)),
            latency_saturated: 1,
            connections_accepted: 5,
            connections_closed: 3,
            connections_rejected: 2,
            shed_rate: share(2, 5 + 2),
            net_requests: 40,
            bytes_in: 120,
            bytes_out: 4096,
            requests_per_conn_p50: Some(4),
        }
    }

    /// The same snapshot with every optional value absent: idle, in-memory,
    /// unpaged, before any query or finished connection.
    fn idle() -> StatsSnapshot {
        StatsSnapshot {
            pool: None,
            data_dir: None,
            wal_len: None,
            last_snapshot_epoch: None,
            index_memory_bytes: [None; 3],
            p50: None,
            p99: None,
            requests_per_conn_p50: None,
            hit_rate: share(0, 0),
            shed_rate: share(0, 0),
            ..busy()
        }
    }

    fn assert_contains(json: &str, fragments: &[&str]) {
        for fragment in fragments {
            assert!(json.contains(fragment), "{fragment} missing from {json}");
        }
    }

    #[test]
    fn json_snapshot_is_wire_shaped() {
        assert_eq!(
            busy().to_json(),
            concat!(
                "{\"epoch\":7,\"shards\":1,\"workers\":4,\"kernel_threads\":2,",
                "\"queries\":10,\"cache_hits\":6,\"dedup_joins\":3,",
                "\"computations\":1,\"index_builds\":2,\"errors\":0,",
                "\"epoch_refreshes\":2,\"updates_staged\":12,\"commit_requests\":3,",
                "\"evictions\":5,\"invalidations\":4,",
                "\"cached_entries\":5,\"hit_rate\":0.9000,",
                "\"memory_bytes\":{\"exactsim\":0,\"prsim\":4096,\"mc\":null},",
                "\"p50_us\":128,\"p99_us\":1024,",
                "\"latency_saturated\":1,",
                "\"connections_accepted\":5,\"connections_closed\":3,",
                "\"connections_rejected\":2,\"shed_rate\":0.2857,\"net_requests\":40,",
                "\"bytes_in\":120,\"bytes_out\":4096,\"requests_per_conn_p50\":4,",
                "\"pool\":{\"pages\":64,\"resident\":64,\"pinned\":2,",
                "\"hits\":900,\"misses\":100,\"evictions\":36,",
                "\"pool_hit_rate\":0.9000},",
                "\"data_dir\":\"/var/lib/simrank \\\"x\\\"\",\"wal_len\":12,",
                "\"last_snapshot_epoch\":3}"
            )
        );
        // Before any query, quantiles serialize as null.
        assert_contains(&idle().to_json(), &["\"p50_us\":null,\"p99_us\":null,"]);
    }

    #[test]
    fn latencies_past_the_top_bucket_saturate_instead_of_clamping() {
        let latency = Histogram::new();
        latency.record(Duration::from_micros(10));
        latency.record(Duration::from_micros(u64::MAX));
        assert_eq!(latency.saturated(), 1);
        let snap = StatsSnapshot {
            latency_saturated: latency.saturated(),
            ..idle()
        };
        assert_contains(&snap.to_json(), &["\"latency_saturated\":1,"]);
    }

    #[test]
    fn connection_counters_surface_in_json_and_display() {
        // 2 of 7 offered connections were shed.
        assert!((share(2, 5 + 2) - 2.0 / 7.0).abs() < 1e-12);
        assert_contains(
            &busy().to_json(),
            &[
                "\"connections_accepted\":5,",
                "\"connections_rejected\":2,",
                "\"shed_rate\":0.2857,",
                "\"net_requests\":40,",
            ],
        );
    }

    #[test]
    fn byte_and_per_connection_counters_surface_in_json_and_display() {
        assert_contains(
            &busy().to_json(),
            &[
                "\"bytes_in\":120,",
                "\"bytes_out\":4096,",
                "\"requests_per_conn_p50\":4,",
            ],
        );
        // Before any connection finishes, the quantile serializes as null.
        assert_contains(&idle().to_json(), &["\"requests_per_conn_p50\":null,"]);
    }

    #[test]
    fn write_counters_and_shed_rate_surface_in_json_and_display() {
        assert_contains(
            &busy().to_json(),
            &["\"updates_staged\":12,", "\"commit_requests\":3,"],
        );
        // A server without offered connections sheds nothing.
        assert_eq!(share(0, 0), 0.0);
        assert_contains(&idle().to_json(), &["\"shed_rate\":0.0000,"]);
    }

    #[test]
    fn index_memory_surfaces_in_json_and_display() {
        assert_contains(
            &busy().to_json(),
            &["\"memory_bytes\":{\"exactsim\":0,\"prsim\":4096,\"mc\":null},"],
        );
        assert_contains(
            &idle().to_json(),
            &["\"memory_bytes\":{\"exactsim\":null,\"prsim\":null,\"mc\":null},"],
        );
    }

    #[test]
    fn snapshot_hit_rate_counts_hits_and_joins() {
        // 6 hits and 3 joins of 10 queries: 9 did not pay for a computation.
        assert!((share(6 + 3, 10) - 0.9).abs() < 1e-12);
        assert_contains(&busy().to_json(), &["\"hit_rate\":0.9000,"]);
    }

    #[test]
    fn zero_queries_mean_zero_hit_rate() {
        assert_eq!(share(0, 0), 0.0);
        assert_contains(&idle().to_json(), &["\"hit_rate\":0.0000,"]);
    }

    #[test]
    fn serving_shape_surfaces_in_json_and_display() {
        // The topology rides immediately after the epoch so scrapers that
        // read a prefix still see it; a single service is always one shard.
        assert!(busy()
            .to_json()
            .starts_with("{\"epoch\":7,\"shards\":1,\"workers\":4,\"kernel_threads\":2,"));
    }

    #[test]
    fn pool_stats_surface_in_json_and_display() {
        assert_contains(
            &busy().to_json(),
            &[concat!(
                "\"pool\":{\"pages\":64,\"resident\":64,\"pinned\":2,",
                "\"hits\":900,\"misses\":100,\"evictions\":36,",
                "\"pool_hit_rate\":0.9000}"
            )],
        );
        // An in-memory (unpaged) store reports no pool at all — scrapers can
        // key backend detection on the null.
        assert_contains(&idle().to_json(), &["\"pool\":null,"]);
    }

    #[test]
    fn durable_stats_surface_the_data_dir_wal_and_snapshot_epoch() {
        assert_contains(
            &busy().to_json(),
            &[
                // Path quotes are escaped so the reply stays valid JSON.
                "\"data_dir\":\"/var/lib/simrank \\\"x\\\"\",",
                "\"wal_len\":12,",
                "\"last_snapshot_epoch\":3}",
            ],
        );
        // Not durable: the operator fields serialize as null.
        assert_contains(
            &idle().to_json(),
            &["\"data_dir\":null,\"wal_len\":null,\"last_snapshot_epoch\":null}"],
        );
    }
}
