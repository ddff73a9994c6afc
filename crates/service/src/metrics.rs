//! Service-level accounting: throughput, latency percentiles, cache
//! effectiveness, and the engine work re-exported from each
//! [`dsa_core::dist::SpannerRun`].
//!
//! Counter semantics — every call to [`crate::Service::submit`] is
//! classified exactly once:
//!
//! * **cache hit** — served without an engine run, either from the
//!   in-memory LRU or from the persistent disk store (`disk_hits`
//!   counts the disk-served subset, so `disk_hits <= cache_hits`);
//! * **cache miss** — a fresh engine run was scheduled;
//! * **coalesced** — an identical job was already in flight, the
//!   submission joined it;
//! * **shed** — admission control rejected the job (queue depth or
//!   byte budget exhausted); the caller was told to retry later, no
//!   engine work was scheduled.
//!
//! So `submitted == cache_hits + cache_misses + coalesced + shed`
//! always — and not just eventually: every counter lives in one
//! [`MetricsSnapshot`] behind one lock, and [`ServiceMetrics::snapshot`]
//! copies it whole, so the identity holds at every observation point
//! (the `/v1/metrics` HTTP endpoint and the TCP `stats` command both
//! serve such coherent snapshots). With coalescing and shedding idle
//! the identity reads `jobs == hits + misses`. Latency percentile math
//! reuses [`dsa_runtime::LatencyRecorder`] rather than duplicating it.
//!
//! Every metric is declared once, as a row of `REGISTRY`: the JSON
//! body and the Prometheus exposition both walk that one table.

use std::time::{Duration, Instant};

use dsa_runtime::sync::OrderedMutex;
use dsa_runtime::LatencyRecorder;

/// Interior-mutable counters shared by the service, its workers, and
/// the wire/HTTP frontends.
#[derive(Debug)]
pub(crate) struct ServiceMetrics {
    started: Instant,
    /// Every counter and histogram bucket, advanced and copied as one
    /// unit. The derived rates and the gauges other owners sample stay
    /// at their defaults here.
    counters: OrderedMutex<MetricsSnapshot>,
    latency: OrderedMutex<LatencyRecorder>,
}

/// Upper bounds (µs) of the fixed engine-run latency buckets; the
/// overflow (`+Inf`) bucket is implicit. Fixed bounds make scraped
/// histograms comparable across processes and restarts, unlike the
/// sliding p50/p95 window next to them.
pub const LATENCY_BUCKETS_US: [u64; 8] = [100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000];

/// Latency samples retained for percentile queries. Bounding the
/// window keeps a serve-until-killed daemon's memory and per-snapshot
/// cost independent of lifetime job count; 4096 recent engine runs is
/// plenty for stable p50/p95.
const LATENCY_WINDOW: usize = 4096;

fn micros(elapsed: Duration) -> u64 {
    elapsed.as_micros() as u64
}

impl ServiceMetrics {
    pub fn new() -> Self {
        ServiceMetrics {
            started: Instant::now(),
            counters: OrderedMutex::new("metrics_classified", 90, MetricsSnapshot::default()),
            latency: OrderedMutex::new(
                "metrics_latency",
                92,
                LatencyRecorder::bounded(LATENCY_WINDOW),
            ),
        }
    }

    /// Classifying a submission counts it: `jobs_submitted` and the
    /// class advance under one lock, so the `submitted == hits +
    /// misses + coalesced + shed` identity holds at every instant a
    /// snapshot can observe.
    pub fn on_cache_hit(&self) {
        let mut c = self.counters.lock();
        c.jobs_submitted += 1;
        c.cache_hits += 1;
    }

    pub fn on_cache_miss(&self) {
        let mut c = self.counters.lock();
        c.jobs_submitted += 1;
        c.cache_misses += 1;
    }

    /// A disk hit is a cache hit (no engine run) that was answered
    /// from the persistent store: `jobs_submitted`, `cache_hits`, and
    /// `disk_hits` advance as one unit, so the classification
    /// invariant extends coherently (`disk_hits` is a subset counter,
    /// not a fifth class).
    pub fn on_disk_hit(&self) {
        let mut c = self.counters.lock();
        c.jobs_submitted += 1;
        c.cache_hits += 1;
        c.disk_hits += 1;
    }

    pub fn on_coalesced(&self) {
        let mut c = self.counters.lock();
        c.jobs_submitted += 1;
        c.coalesced += 1;
    }

    /// Admission control rejected the job: it still counts as
    /// submitted (the caller's request was valid and classified), with
    /// class `shed`, so the classification identity extends to
    /// `submitted == hits + misses + coalesced + shed`.
    pub fn on_shed(&self) {
        let mut c = self.counters.lock();
        c.jobs_submitted += 1;
        c.shed += 1;
    }

    /// A connection was closed because a request/frame read exceeded
    /// its deadline (slow-loris defense).
    pub fn on_connection_timed_out(&self) {
        self.counters.lock().connections_timed_out += 1;
    }

    /// The current 95th-percentile engine-run latency in microseconds
    /// (0 with no samples yet) — the basis of `Retry-After` hints on
    /// shed jobs.
    pub fn p95_us(&self) -> u64 {
        self.latency.lock().p95().unwrap_or(0)
    }

    /// Updates the persistent-store size gauge (records currently
    /// servable from disk).
    pub fn set_store_records(&self, records: u64) {
        self.counters.lock().store_records = records;
    }

    /// Records how many corrupt records open-time recovery of the
    /// cache directory's logs dropped — a scrapeable counter so silent
    /// data loss shows up on dashboards, not only in a startup log
    /// line.
    pub fn set_store_dropped(&self, dropped: u64) {
        self.counters.lock().store_records_dropped = dropped;
    }

    /// Wall time of the store open (log recovery walk + warm decode).
    pub fn set_store_recovery(&self, elapsed: Duration) {
        self.counters.lock().store_recovery_us = micros(elapsed);
    }

    /// Adds one store read (verified disk-hit lookup) to the
    /// cumulative read-time counter.
    pub fn on_store_read(&self, elapsed: Duration) {
        self.counters.lock().store_read_us += micros(elapsed);
    }

    /// Adds one store append to the cumulative write-time counter.
    pub fn on_store_write(&self, elapsed: Duration) {
        self.counters.lock().store_write_us += micros(elapsed);
    }

    /// Adds one PATCH's worth of delta classifications: ops that
    /// commuted with the maintained cover, ops repaired locally, and
    /// ops that forced a full-recompute path.
    pub fn on_graph_deltas(&self, commuted: u64, repaired: u64, recomputed: u64) {
        let mut c = self.counters.lock();
        c.graph_deltas_commuted += commuted;
        c.graph_deltas_repaired += repaired;
        c.graph_deltas_recomputed += recomputed;
    }

    /// A response actually reached a waiting caller — the only place
    /// `jobs_completed` advances, so waiters that cancel or time out
    /// are never counted as answered.
    pub fn on_delivered(&self) {
        self.counters.lock().jobs_completed += 1;
    }

    pub fn on_invalid(&self) {
        self.counters.lock().invalid += 1;
    }

    pub fn on_cancelled(&self) {
        self.counters.lock().cancelled += 1;
    }

    pub fn on_timed_out(&self) {
        self.counters.lock().timed_out += 1;
    }

    pub fn on_skipped(&self) {
        self.counters.lock().skipped += 1;
    }

    /// An engine run that had already started was abandoned mid-flight
    /// via the in-engine cancellation flag (every waiter cancelled).
    pub fn on_aborted(&self) {
        self.counters.lock().aborted += 1;
    }

    pub fn on_executed(&self, iterations: u64, local_rounds: u64, latency: Duration) {
        let us = micros(latency);
        let bucket = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        {
            let mut c = self.counters.lock();
            c.engine_iterations += iterations;
            c.engine_local_rounds += local_rounds;
            c.latency_bucket_counts[bucket] += 1;
            c.latency_hist_sum_us += us;
            c.latency_hist_count += 1;
        }
        self.latency.lock().record_micros(us);
    }

    /// A point-in-time view. Every counter is copied under their one
    /// shared lock, so `jobs_submitted == cache_hits + cache_misses +
    /// coalesced + shed` (and `disk_hits <= cache_hits`, and the
    /// histogram buckets summing to its count) holds in *every*
    /// snapshot, including ones taken while updates race. The gauges
    /// the service owns (`queue_depth`, `in_flight`, `graphs_live`,
    /// `store_degraded`) stay 0 for [`crate::Service::metrics`] to
    /// sample.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let latency = self.latency.lock().clone();
        let mut s = self.counters.lock().clone();
        s.uptime = self.started.elapsed();
        let classified = s.cache_hits + s.cache_misses;
        if classified > 0 {
            s.cache_hit_rate = s.cache_hits as f64 / classified as f64;
        }
        if s.uptime.as_secs_f64() > 0.0 {
            s.throughput_jobs_per_sec = s.jobs_completed as f64 / s.uptime.as_secs_f64();
        }
        s.p50_latency_us = latency.p50().unwrap_or(0);
        s.p95_latency_us = latency.p95().unwrap_or(0);
        s.mean_latency_us = latency.mean_micros();
        s
    }
}

/// A point-in-time copy of the service counters, plus derived rates.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Jobs submitted (accepted specs; invalid ones don't count).
    pub jobs_submitted: u64,
    /// Responses actually delivered to waiting callers. Waiters that
    /// cancelled or timed out never count, so this can trail
    /// `jobs_submitted` even when every engine run finished.
    pub jobs_completed: u64,
    /// Submissions served straight from the result cache.
    pub cache_hits: u64,
    /// Submissions that scheduled a fresh engine run.
    pub cache_misses: u64,
    /// Submissions that joined an identical in-flight run.
    pub coalesced: u64,
    /// Submissions rejected by admission control (queue depth or byte
    /// budget exhausted); `jobs_submitted == cache_hits + cache_misses
    /// + coalesced + shed` in every snapshot.
    pub shed: u64,
    /// Subset of `cache_hits` served from the persistent disk store
    /// (verified against the canonical instance, then promoted into
    /// the in-memory LRU). Always 0 without a configured store.
    pub disk_hits: u64,
    /// Distinct results currently servable from the persistent store
    /// (a gauge, not a counter); 0 without a configured store.
    pub store_records: u64,
    /// Corrupt records dropped by the open-time recovery scan of the
    /// cache directory's logs (`results.log` and `graphs.log`).
    /// Non-zero means the log was damaged and silently healed — the
    /// dashboards should see that, not just the startup stderr.
    pub store_records_dropped: u64,
    /// 1 once the persistent store or the graph delta log was demoted
    /// to memory-only after an append failure; 0 while healthy (or
    /// with no store). A gauge sampled at snapshot time.
    pub store_degraded: u64,
    /// Connections closed because a request/frame read exceeded its
    /// deadline (slow-loris defense).
    pub connections_timed_out: u64,
    /// Cumulative wall time spent reading results from the store, µs.
    pub store_read_us: u64,
    /// Cumulative wall time spent appending results to the store, µs.
    pub store_write_us: u64,
    /// Wall time of the open-time recovery scan (log walk + warm
    /// decode), µs.
    pub store_recovery_us: u64,
    /// Named graphs currently registered (created minus deleted,
    /// including those replayed from the graph log at open). A gauge
    /// sampled at snapshot time.
    pub graphs_live: u64,
    /// Graph PATCH ops whose edges were already covered by the
    /// maintained spanner — classified with zero engine work.
    pub graph_deltas_commuted: u64,
    /// Graph PATCH ops absorbed by a local repair pass over the
    /// maintained cover.
    pub graph_deltas_repaired: u64,
    /// Graph PATCH ops that invalidated the cover (deletes, stale or
    /// debt-saturated covers) and deferred to a full recompute.
    pub graph_deltas_recomputed: u64,
    /// Jobs waiting in the worker-pool queue (a gauge sampled at
    /// snapshot time).
    pub queue_depth: u64,
    /// Jobs currently executing or awaiting pickup in the in-flight
    /// table (a gauge sampled at snapshot time).
    pub in_flight: u64,
    /// Engine-run latency counts per fixed bucket
    /// ([`LATENCY_BUCKETS_US`]); the last slot is the `+Inf` overflow.
    /// Non-cumulative; the Prometheus rendering accumulates.
    pub latency_bucket_counts: [u64; LATENCY_BUCKETS_US.len() + 1],
    /// Sum of all engine-run latencies ever recorded, µs (unlike the
    /// windowed mean, this never forgets).
    pub latency_hist_sum_us: u64,
    /// Engine runs recorded into the histogram.
    pub latency_hist_count: u64,
    /// Scheduled runs skipped because every waiter left (cancelled or
    /// timed out) before the run started.
    pub skipped: u64,
    /// Started engine runs abandoned mid-flight after every waiter
    /// cancelled (cooperative in-engine cancellation; nothing is
    /// cached).
    pub aborted: u64,
    /// Handle cancellations.
    pub cancelled: u64,
    /// Waits that hit their deadline.
    pub timed_out: u64,
    /// Specs rejected by validation.
    pub invalid: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 when nothing was
    /// classified yet.
    pub cache_hit_rate: f64,
    /// `jobs_completed / uptime`.
    pub throughput_jobs_per_sec: f64,
    /// Median engine-run latency over the most recent window (cache
    /// hits don't contribute).
    pub p50_latency_us: u64,
    /// 95th-percentile engine-run latency over the most recent window.
    pub p95_latency_us: u64,
    /// Mean engine-run latency over the most recent window.
    pub mean_latency_us: f64,
    /// Total engine iterations across executed runs.
    pub engine_iterations: u64,
    /// Total LOCAL rounds across executed runs
    /// ([`dsa_core::dist::SpannerRun::local_rounds`]).
    pub engine_local_rounds: u64,
    /// Time since the service started.
    pub uptime: Duration,
}

/// How a series reads its value off a snapshot and formats it.
#[derive(Clone, Copy)]
enum Value {
    /// An integer, rendered the same in both formats.
    Count(fn(&MetricsSnapshot) -> u64),
    /// A µs total: an integer in JSON, seconds in Prometheus.
    Micros(fn(&MetricsSnapshot) -> u64),
    /// A float at a fixed number of decimals in both formats.
    Float(fn(&MetricsSnapshot) -> f64, usize),
    /// The engine-run histogram buckets: the per-bucket counts as a
    /// JSON array, cumulative `le` buckets ending in `+Inf` in
    /// Prometheus.
    Buckets,
}

use Value::{Buckets, Count, Float, Micros};

/// One JSON key and the Prometheus sample line(s) carrying its value.
struct Series {
    /// `None` for a Prometheus-only series.
    json: Option<&'static str>,
    /// What follows the metric name on the sample line: a histogram
    /// suffix and/or a label set.
    labels: &'static str,
    value: Value,
}

/// One metric family: its Prometheus name (after the `spanner_`
/// prefix; `None` for a JSON-only row), type and help, plus its series.
struct Family {
    name: Option<&'static str>,
    kind: &'static str,
    help: &'static str,
    series: &'static [Series],
}

const fn counter(name: &'static str, help: &'static str, series: &'static [Series]) -> Family {
    Family {
        name: Some(name),
        kind: "counter",
        help,
        series,
    }
}

const fn gauge(name: &'static str, help: &'static str, series: &'static [Series]) -> Family {
    Family {
        name: Some(name),
        kind: "gauge",
        help,
        series,
    }
}

/// A row rendered only into the JSON body (it has no Prometheus type).
const fn json_only(help: &'static str, series: &'static [Series]) -> Family {
    Family {
        name: None,
        kind: "",
        help,
        series,
    }
}

/// A series with a JSON key; `labels` as in [`Series::labels`].
const fn keyed(json: &'static str, labels: &'static str, value: Value) -> Series {
    Series {
        json: Some(json),
        labels,
        value,
    }
}

/// An unlabeled series with a JSON key.
const fn plain(json: &'static str, value: Value) -> Series {
    keyed(json, "", value)
}

/// `spanner_build_info`'s label set. Both values are compile-time
/// constants, and Cargo's semver grammar admits no `\`, `"` or
/// newline, so neither needs escaping.
const BUILD_INFO_LABELS: &str = concat!(
    "{crate=\"dsa-service\",version=\"",
    env!("CARGO_PKG_VERSION"),
    "\"}"
);

/// Every served metric, in exposition order; JSON keys follow the same
/// order. A new signal is one row.
#[rustfmt::skip]
const REGISTRY: &[Family] = &[
    gauge("build_info", "Constant 1, labeled with the serving crate and version.",
        &[Series { json: None, labels: BUILD_INFO_LABELS, value: Count(|_| 1) }]),
    counter("jobs_total", "Jobs accepted by the service (invalid specs excluded).",
        &[plain("jobs_submitted", Count(|s| s.jobs_submitted))]),
    counter("jobs_by_class_total",
        "Accepted jobs by cache classification; the classes sum to spanner_jobs_total.", &[
        keyed("cache_hits", "{class=\"cache_hit\"}", Count(|s| s.cache_hits)),
        keyed("cache_misses", "{class=\"cache_miss\"}", Count(|s| s.cache_misses)),
        keyed("coalesced", "{class=\"coalesced\"}", Count(|s| s.coalesced)),
        keyed("jobs_shed", "{class=\"shed\"}", Count(|s| s.shed)),
    ]),
    counter("disk_hits_total",
        "Cache hits served from the persistent store (subset of class cache_hit).",
        &[plain("disk_hits", Count(|s| s.disk_hits))]),
    counter("jobs_completed_total", "Responses delivered to waiting callers.",
        &[plain("jobs_completed", Count(|s| s.jobs_completed))]),
    json_only("Delivered responses per second of uptime.",
        &[plain("throughput_jobs_per_sec", Float(|s| s.throughput_jobs_per_sec, 3))]),
    counter("jobs_skipped_total", "Scheduled runs skipped because every waiter left first.",
        &[plain("skipped", Count(|s| s.skipped))]),
    counter("jobs_aborted_total",
        "Started engine runs abandoned mid-flight after every waiter cancelled.",
        &[plain("aborted", Count(|s| s.aborted))]),
    counter("jobs_cancelled_total", "Handle cancellations.",
        &[plain("cancelled", Count(|s| s.cancelled))]),
    counter("jobs_timed_out_total", "Waits that hit their deadline.",
        &[plain("timed_out", Count(|s| s.timed_out))]),
    counter("jobs_invalid_total", "Specs rejected by validation.",
        &[plain("invalid", Count(|s| s.invalid))]),
    gauge("cache_hit_ratio", "cache_hits / (cache_hits + cache_misses).",
        &[plain("cache_hit_rate", Float(|s| s.cache_hit_rate, 6))]),
    gauge("queue_depth", "Jobs waiting in the worker-pool queue.",
        &[plain("queue_depth", Count(|s| s.queue_depth))]),
    gauge("inflight_jobs", "Jobs executing or awaiting pickup in the in-flight table.",
        &[plain("in_flight", Count(|s| s.in_flight))]),
    counter("connections_timed_out_total",
        "Connections closed because a request read exceeded its deadline.",
        &[plain("connections_timed_out", Count(|s| s.connections_timed_out))]),
    gauge("store_records", "Distinct results currently servable from the persistent store.",
        &[plain("store_records", Count(|s| s.store_records))]),
    counter("store_records_dropped_total",
        "Corrupt records dropped by the cache directory's open-time recovery.",
        &[plain("store_records_dropped", Count(|s| s.store_records_dropped))]),
    gauge("store_degraded",
        "Set once the store is demoted to memory-only caching after an append failure.",
        &[plain("store_degraded", Count(|s| s.store_degraded))]),
    counter("store_read_seconds_total", "Cumulative wall time reading results from the store.",
        &[plain("store_read_us", Micros(|s| s.store_read_us))]),
    counter("store_write_seconds_total", "Cumulative wall time appending results to the store.",
        &[plain("store_write_us", Micros(|s| s.store_write_us))]),
    counter("store_recovery_seconds_total", "Wall time of the store's open-time recovery scan.",
        &[plain("store_recovery_us", Micros(|s| s.store_recovery_us))]),
    gauge("graphs_live", "Named graphs currently registered (created minus deleted).",
        &[plain("graphs_live", Count(|s| s.graphs_live))]),
    counter("graph_deltas_by_class_total",
        "Graph PATCH ops by maintenance class (commuted, repaired, recomputed).", &[
        keyed("graph_deltas_commuted", "{class=\"commuted\"}", Count(|s| s.graph_deltas_commuted)),
        keyed("graph_deltas_repaired", "{class=\"repaired\"}", Count(|s| s.graph_deltas_repaired)),
        keyed("graph_deltas_recomputed", "{class=\"recomputed\"}",
            Count(|s| s.graph_deltas_recomputed)),
    ]),
    counter("engine_iterations_total", "Engine iterations across executed runs.",
        &[plain("engine_iterations", Count(|s| s.engine_iterations))]),
    counter("engine_local_rounds_total", "LOCAL rounds across executed runs.",
        &[plain("engine_local_rounds", Count(|s| s.engine_local_rounds))]),
    Family { name: Some("engine_run_seconds"), kind: "histogram",
        help: "Engine-run latency over fixed buckets (cache hits excluded).", series: &[
        keyed("latency_bucket_counts", "_bucket", Buckets),
        keyed("latency_hist_sum_us", "_sum", Micros(|s| s.latency_hist_sum_us)),
        keyed("latency_hist_count", "_count", Count(|s| s.latency_hist_count)),
    ]},
    gauge("engine_run_p50_seconds", "Median engine-run latency over the recent window.",
        &[plain("p50_latency_us", Micros(|s| s.p50_latency_us))]),
    gauge("engine_run_p95_seconds", "95th-percentile engine-run latency over the recent window.",
        &[plain("p95_latency_us", Micros(|s| s.p95_latency_us))]),
    json_only("Mean engine-run latency over the recent window, µs.",
        &[plain("mean_latency_us", Float(|s| s.mean_latency_us, 1))]),
    gauge("uptime_seconds", "Time since the service started.",
        &[plain("uptime_secs", Float(|s| s.uptime.as_secs_f64(), 3))]),
];

impl Value {
    fn json(self, s: &MetricsSnapshot) -> String {
        match self {
            Count(f) | Micros(f) => f(s).to_string(),
            Float(f, decimals) => format!("{:.*}", decimals, f(s)),
            Buckets => format!(
                "[{}]",
                s.latency_bucket_counts.map(|c| c.to_string()).join(",")
            ),
        }
    }

    /// The sample line(s) of `metric` (its name plus labels).
    fn prometheus(self, s: &MetricsSnapshot, metric: &str) -> String {
        match self {
            Count(f) => format!("{metric} {}\n", f(s)),
            Micros(f) => format!("{metric} {:.6}\n", f(s) as f64 / 1e6),
            Float(f, decimals) => format!("{metric} {:.*}\n", decimals, f(s)),
            Buckets => {
                let bounds = LATENCY_BUCKETS_US.map(|us| (us as f64 / 1e6).to_string());
                let mut cumulative = 0;
                bounds
                    .into_iter()
                    .chain(["+Inf".to_string()])
                    .zip(s.latency_bucket_counts)
                    .map(|(le, count)| {
                        cumulative += count;
                        format!("{metric}{{le=\"{le}\"}} {cumulative}\n")
                    })
                    .collect()
            }
        }
    }
}

impl MetricsSnapshot {
    /// One-line JSON rendering (keys stable, no external dependency).
    pub fn to_json(&self) -> String {
        let keyed = REGISTRY.iter().flat_map(|family| family.series);
        let pairs: Vec<String> = keyed
            .filter_map(|series| Some(format!("\"{}\":{}", series.json?, series.value.json(self))))
            .collect();
        format!("{{{}}}", pairs.join(","))
    }

    /// Prometheus text exposition (format version 0.0.4).
    ///
    /// The rendering is a pure function of the snapshot — metric
    /// order, label order, and number formatting are all fixed — so a
    /// fixed metrics state always serializes to the same bytes
    /// (scrapers and the golden test both rely on that).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for family in REGISTRY {
            let Some(name) = family.name else { continue };
            out += &format!("# HELP spanner_{name} {}\n", family.help);
            out += &format!("# TYPE spanner_{name} {}\n", family.kind);
            for series in family.series {
                out += &series
                    .value
                    .prometheus(self, &format!("spanner_{name}{}", series.labels));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_up() {
        let m = ServiceMetrics::new();
        m.on_cache_miss();
        m.on_executed(10, 70, Duration::from_micros(1_000));
        m.on_cache_hit();
        m.on_disk_hit();
        m.on_coalesced();
        m.on_cache_miss();
        m.on_executed(6, 42, Duration::from_micros(3_000));
        m.on_shed();
        m.set_store_records(2);
        // Four of the five admitted waiters collected their response;
        // the fifth (say the coalesced one) timed out first, and the
        // shed submission never got a handle at all.
        for _ in 0..4 {
            m.on_delivered();
        }
        m.on_timed_out();
        let s = m.snapshot();
        assert_eq!(s.jobs_submitted, 6);
        assert_eq!(
            s.jobs_submitted,
            s.cache_hits + s.cache_misses + s.coalesced + s.shed,
            "a disk hit is a cache hit, not a fifth class"
        );
        assert_eq!(s.shed, 1);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.disk_hits, 1);
        assert_eq!(s.store_records, 2);
        assert_eq!(s.jobs_completed, 4);
        assert_eq!(s.timed_out, 1);
        assert_eq!(s.cache_hit_rate, 0.5);
        assert_eq!(s.engine_iterations, 16);
        assert_eq!(s.engine_local_rounds, 112);
        assert_eq!(s.p50_latency_us, 1_000);
        assert_eq!(s.p95_latency_us, 3_000);
    }

    #[test]
    fn snapshot_is_coherent_under_concurrent_classification() {
        // Regression test for the snapshot race: before classification
        // moved under one lock, a snapshot could land between the
        // submitted increment and the class increment and observe
        // `jobs != hits + misses + coalesced`. Hammer the three
        // classification paths from three threads while a reader
        // asserts the identity on every snapshot.
        let m = ServiceMetrics::new();
        std::thread::scope(|scope| {
            scope.spawn(|| (0..2_000).for_each(|_| m.on_cache_hit()));
            scope.spawn(|| (0..2_000).for_each(|_| m.on_cache_miss()));
            scope.spawn(|| (0..2_000).for_each(|_| m.on_coalesced()));
            scope.spawn(|| (0..2_000).for_each(|_| m.on_disk_hit()));
            scope.spawn(|| (0..2_000).for_each(|_| m.on_shed()));
            for _ in 0..500 {
                let s = m.snapshot();
                assert_eq!(
                    s.jobs_submitted,
                    s.cache_hits + s.cache_misses + s.coalesced + s.shed,
                    "snapshot observed a mid-update classification"
                );
                assert!(
                    s.disk_hits <= s.cache_hits,
                    "snapshot observed a mid-update disk hit"
                );
            }
        });
        let s = m.snapshot();
        assert_eq!(s.jobs_submitted, 10_000);
        assert_eq!(s.cache_hits + s.cache_misses + s.coalesced + s.shed, 10_000);
        assert_eq!(s.disk_hits, 2_000);
        assert_eq!(s.shed, 2_000);
    }

    #[test]
    fn json_snapshot_is_wellformed_enough() {
        let m = ServiceMetrics::new();
        let json = m.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cache_hit_rate\":0.000000"));
        assert!(json.contains("\"jobs_submitted\":0"));
    }

    #[test]
    fn latency_histogram_buckets_count_correctly() {
        let m = ServiceMetrics::new();
        // One sample inside the first bucket, one on a bucket boundary
        // (le is inclusive), one past every bound (the +Inf slot).
        m.on_executed(1, 1, Duration::from_micros(50));
        m.on_executed(1, 1, Duration::from_micros(500));
        m.on_executed(1, 1, Duration::from_micros(900_000));
        let s = m.snapshot();
        assert_eq!(s.latency_hist_count, 3);
        assert_eq!(s.latency_hist_sum_us, 50 + 500 + 900_000);
        assert_eq!(s.latency_bucket_counts[0], 1, "50us <= 100us");
        assert_eq!(
            s.latency_bucket_counts[1], 1,
            "500us lands ON the 500us bound"
        );
        assert_eq!(
            s.latency_bucket_counts[LATENCY_BUCKETS_US.len()],
            1,
            "900ms overflows to +Inf"
        );
        assert_eq!(s.latency_bucket_counts.iter().sum::<u64>(), 3);
    }

    /// A snapshot with every counter at a distinct non-zero value, the
    /// sampled gauges set, and histogram samples inside the first
    /// bucket, on a bound, and past the last bound (`+Inf`); the
    /// wall-clock fields are pinned.
    fn populated_snapshot() -> MetricsSnapshot {
        let m = ServiceMetrics::new();
        let times = |n: usize, f: &dyn Fn()| (0..n).for_each(|_| f());
        times(3, &|| m.on_cache_hit());
        times(2, &|| m.on_disk_hit());
        times(4, &|| m.on_cache_miss());
        times(6, &|| m.on_coalesced());
        times(7, &|| m.on_shed());
        times(8, &|| m.on_delivered());
        times(9, &|| m.on_skipped());
        times(10, &|| m.on_aborted());
        times(11, &|| m.on_cancelled());
        times(12, &|| m.on_timed_out());
        times(13, &|| m.on_invalid());
        times(14, &|| m.on_connection_timed_out());
        m.set_store_records(15);
        m.set_store_dropped(16);
        m.on_store_read(Duration::from_micros(1_700));
        m.on_store_read(Duration::from_micros(100));
        m.on_store_write(Duration::from_micros(2_345_678));
        m.set_store_recovery(Duration::from_micros(19));
        m.on_graph_deltas(27, 28, 29);
        m.on_graph_deltas(1, 1, 1);
        m.on_executed(30, 210, Duration::from_micros(50));
        m.on_executed(31, 217, Duration::from_micros(500));
        m.on_executed(32, 224, Duration::from_micros(7_000));
        m.on_executed(33, 231, Duration::from_micros(900_000));
        let mut snap = m.snapshot();
        snap.store_degraded = 1;
        snap.graphs_live = 24;
        snap.queue_depth = 25;
        snap.in_flight = 26;
        snap.uptime = Duration::from_millis(1_500);
        snap.throughput_jobs_per_sec = 5.333;
        snap
    }

    /// Splits a flat JSON object into its `"key":value` tokens (commas
    /// inside an array value do not split).
    fn json_tokens(json: &str) -> Vec<String> {
        let body = json
            .strip_prefix('{')
            .and_then(|b| b.strip_suffix('}'))
            .expect("a JSON object");
        let (mut tokens, mut depth, mut start) = (Vec::new(), 0, 0);
        for (i, c) in body.char_indices() {
            match c {
                '[' => depth += 1,
                ']' => depth -= 1,
                ',' if depth == 0 => {
                    tokens.push(body[start..i].to_string());
                    start = i + 1;
                }
                _ => {}
            }
        }
        tokens.push(body[start..].to_string());
        tokens
    }

    /// Both renderings of one fully populated snapshot, byte for byte.
    /// The Prometheus text is pinned whole; the JSON is pinned as its
    /// set of `"key":value` tokens, so only key order may change.
    #[test]
    fn renderings_are_pinned_byte_for_byte() {
        let snap = populated_snapshot();
        assert_eq!(snap.to_prometheus(), PINNED_PROMETHEUS);
        let mut got = json_tokens(&snap.to_json());
        let mut want: Vec<String> = PINNED_JSON.iter().map(|t| t.to_string()).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    const PINNED_PROMETHEUS: &str = "\
# HELP spanner_build_info Constant 1, labeled with the serving crate and version.\n\
# TYPE spanner_build_info gauge\n\
spanner_build_info{crate=\"dsa-service\",version=\"0.1.0\"} 1\n\
# HELP spanner_jobs_total Jobs accepted by the service (invalid specs excluded).\n\
# TYPE spanner_jobs_total counter\n\
spanner_jobs_total 22\n\
# HELP spanner_jobs_by_class_total Accepted jobs by cache classification; the classes sum to spanner_jobs_total.\n\
# TYPE spanner_jobs_by_class_total counter\n\
spanner_jobs_by_class_total{class=\"cache_hit\"} 5\n\
spanner_jobs_by_class_total{class=\"cache_miss\"} 4\n\
spanner_jobs_by_class_total{class=\"coalesced\"} 6\n\
spanner_jobs_by_class_total{class=\"shed\"} 7\n\
# HELP spanner_disk_hits_total Cache hits served from the persistent store (subset of class cache_hit).\n\
# TYPE spanner_disk_hits_total counter\n\
spanner_disk_hits_total 2\n\
# HELP spanner_jobs_completed_total Responses delivered to waiting callers.\n\
# TYPE spanner_jobs_completed_total counter\n\
spanner_jobs_completed_total 8\n\
# HELP spanner_jobs_skipped_total Scheduled runs skipped because every waiter left first.\n\
# TYPE spanner_jobs_skipped_total counter\n\
spanner_jobs_skipped_total 9\n\
# HELP spanner_jobs_aborted_total Started engine runs abandoned mid-flight after every waiter cancelled.\n\
# TYPE spanner_jobs_aborted_total counter\n\
spanner_jobs_aborted_total 10\n\
# HELP spanner_jobs_cancelled_total Handle cancellations.\n\
# TYPE spanner_jobs_cancelled_total counter\n\
spanner_jobs_cancelled_total 11\n\
# HELP spanner_jobs_timed_out_total Waits that hit their deadline.\n\
# TYPE spanner_jobs_timed_out_total counter\n\
spanner_jobs_timed_out_total 12\n\
# HELP spanner_jobs_invalid_total Specs rejected by validation.\n\
# TYPE spanner_jobs_invalid_total counter\n\
spanner_jobs_invalid_total 13\n\
# HELP spanner_cache_hit_ratio cache_hits / (cache_hits + cache_misses).\n\
# TYPE spanner_cache_hit_ratio gauge\n\
spanner_cache_hit_ratio 0.555556\n\
# HELP spanner_queue_depth Jobs waiting in the worker-pool queue.\n\
# TYPE spanner_queue_depth gauge\n\
spanner_queue_depth 25\n\
# HELP spanner_inflight_jobs Jobs executing or awaiting pickup in the in-flight table.\n\
# TYPE spanner_inflight_jobs gauge\n\
spanner_inflight_jobs 26\n\
# HELP spanner_connections_timed_out_total Connections closed because a request read exceeded its deadline.\n\
# TYPE spanner_connections_timed_out_total counter\n\
spanner_connections_timed_out_total 14\n\
# HELP spanner_store_records Distinct results currently servable from the persistent store.\n\
# TYPE spanner_store_records gauge\n\
spanner_store_records 15\n\
# HELP spanner_store_records_dropped_total Corrupt records dropped by the cache directory's open-time recovery.\n\
# TYPE spanner_store_records_dropped_total counter\n\
spanner_store_records_dropped_total 16\n\
# HELP spanner_store_degraded Set once the store is demoted to memory-only caching after an append failure.\n\
# TYPE spanner_store_degraded gauge\n\
spanner_store_degraded 1\n\
# HELP spanner_store_read_seconds_total Cumulative wall time reading results from the store.\n\
# TYPE spanner_store_read_seconds_total counter\n\
spanner_store_read_seconds_total 0.001800\n\
# HELP spanner_store_write_seconds_total Cumulative wall time appending results to the store.\n\
# TYPE spanner_store_write_seconds_total counter\n\
spanner_store_write_seconds_total 2.345678\n\
# HELP spanner_store_recovery_seconds_total Wall time of the store's open-time recovery scan.\n\
# TYPE spanner_store_recovery_seconds_total counter\n\
spanner_store_recovery_seconds_total 0.000019\n\
# HELP spanner_graphs_live Named graphs currently registered (created minus deleted).\n\
# TYPE spanner_graphs_live gauge\n\
spanner_graphs_live 24\n\
# HELP spanner_graph_deltas_by_class_total Graph PATCH ops by maintenance class (commuted, repaired, recomputed).\n\
# TYPE spanner_graph_deltas_by_class_total counter\n\
spanner_graph_deltas_by_class_total{class=\"commuted\"} 28\n\
spanner_graph_deltas_by_class_total{class=\"repaired\"} 29\n\
spanner_graph_deltas_by_class_total{class=\"recomputed\"} 30\n\
# HELP spanner_engine_iterations_total Engine iterations across executed runs.\n\
# TYPE spanner_engine_iterations_total counter\n\
spanner_engine_iterations_total 126\n\
# HELP spanner_engine_local_rounds_total LOCAL rounds across executed runs.\n\
# TYPE spanner_engine_local_rounds_total counter\n\
spanner_engine_local_rounds_total 882\n\
# HELP spanner_engine_run_seconds Engine-run latency over fixed buckets (cache hits excluded).\n\
# TYPE spanner_engine_run_seconds histogram\n\
spanner_engine_run_seconds_bucket{le=\"0.0001\"} 1\n\
spanner_engine_run_seconds_bucket{le=\"0.0005\"} 2\n\
spanner_engine_run_seconds_bucket{le=\"0.001\"} 2\n\
spanner_engine_run_seconds_bucket{le=\"0.005\"} 2\n\
spanner_engine_run_seconds_bucket{le=\"0.01\"} 3\n\
spanner_engine_run_seconds_bucket{le=\"0.05\"} 3\n\
spanner_engine_run_seconds_bucket{le=\"0.1\"} 3\n\
spanner_engine_run_seconds_bucket{le=\"0.5\"} 3\n\
spanner_engine_run_seconds_bucket{le=\"+Inf\"} 4\n\
spanner_engine_run_seconds_sum 0.907550\n\
spanner_engine_run_seconds_count 4\n\
# HELP spanner_engine_run_p50_seconds Median engine-run latency over the recent window.\n\
# TYPE spanner_engine_run_p50_seconds gauge\n\
spanner_engine_run_p50_seconds 0.000500\n\
# HELP spanner_engine_run_p95_seconds 95th-percentile engine-run latency over the recent window.\n\
# TYPE spanner_engine_run_p95_seconds gauge\n\
spanner_engine_run_p95_seconds 0.900000\n\
# HELP spanner_uptime_seconds Time since the service started.\n\
# TYPE spanner_uptime_seconds gauge\n\
spanner_uptime_seconds 1.500\n\
";

    const PINNED_JSON: &[&str] = &[
        r#""jobs_submitted":22"#,
        r#""jobs_completed":8"#,
        r#""cache_hits":5"#,
        r#""cache_misses":4"#,
        r#""coalesced":6"#,
        r#""jobs_shed":7"#,
        r#""disk_hits":2"#,
        r#""store_records":15"#,
        r#""store_records_dropped":16"#,
        r#""store_degraded":1"#,
        r#""connections_timed_out":14"#,
        r#""skipped":9"#,
        r#""aborted":10"#,
        r#""cancelled":11"#,
        r#""timed_out":12"#,
        r#""invalid":13"#,
        r#""cache_hit_rate":0.555556"#,
        r#""throughput_jobs_per_sec":5.333"#,
        r#""p50_latency_us":500"#,
        r#""p95_latency_us":900000"#,
        r#""mean_latency_us":226887.5"#,
        r#""latency_bucket_counts":[1,1,0,0,1,0,0,0,1]"#,
        r#""latency_hist_sum_us":907550"#,
        r#""latency_hist_count":4"#,
        r#""queue_depth":25"#,
        r#""in_flight":26"#,
        r#""store_read_us":1800"#,
        r#""store_write_us":2345678"#,
        r#""store_recovery_us":19"#,
        r#""graphs_live":24"#,
        r#""graph_deltas_commuted":28"#,
        r#""graph_deltas_repaired":29"#,
        r#""graph_deltas_recomputed":30"#,
        r#""engine_iterations":126"#,
        r#""engine_local_rounds":882"#,
        r#""uptime_secs":1.500"#,
    ];

    /// The README's metric inventory: one row per registry family.
    fn metrics_table_markdown() -> String {
        let mut out = String::from("| Metric | Type | JSON keys | Meaning |\n|---|---|---|---|\n");
        for family in REGISTRY {
            let (metric, kind) = match family.name {
                Some(name) => {
                    // `{class="shed"}` -> `{class}`; suffixes such as
                    // `_bucket` carry no label names.
                    let names = family.series[0].labels.strip_prefix('{').map(|l| {
                        let names: Vec<&str> =
                            l.split(',').filter_map(|kv| kv.split('=').next()).collect();
                        names.join(",")
                    });
                    let labels = names.map_or(String::new(), |n| format!("{{{n}}}"));
                    (format!("`spanner_{name}{labels}`"), family.kind)
                }
                None => ("— (JSON only)".to_string(), "—"),
            };
            let keys: Vec<String> = family
                .series
                .iter()
                .filter_map(|s| s.json)
                .map(|key| format!("`{key}`"))
                .collect();
            let keys = if keys.is_empty() {
                "—".to_string()
            } else {
                keys.join(", ")
            };
            out += &format!("| {metric} | {kind} | {keys} | {} |\n", family.help);
        }
        out
    }

    #[test]
    fn readme_metrics_table_matches_the_registry() {
        assert_eq!(
            crate::readme_section("metrics-table"),
            metrics_table_markdown().trim_end_matches('\n'),
            "README metric inventory is stale; paste the right-hand side \
             (metrics_table_markdown() in metrics.rs) between the markers"
        );
    }

    /// The golden-format test: structure, ordering, escaping, and
    /// byte-determinism of the Prometheus exposition.
    #[test]
    fn prometheus_exposition_is_wellformed_and_deterministic() {
        let m = ServiceMetrics::new();
        m.on_cache_miss();
        m.on_executed(10, 70, Duration::from_micros(1_000));
        m.on_cache_hit();
        m.on_coalesced();
        m.on_shed();
        m.on_delivered();
        m.on_connection_timed_out();
        m.set_store_records(1);
        m.set_store_dropped(2);
        m.on_graph_deltas(5, 2, 1);
        m.on_graph_deltas(1, 0, 0);
        let mut snap = m.snapshot();
        // Gauges the service samples at snapshot time.
        snap.store_degraded = 1;
        snap.graphs_live = 3;
        // Pin the wall-clock-dependent fields so repeated renderings
        // must agree byte-for-byte.
        snap.uptime = Duration::from_millis(1_500);
        snap.throughput_jobs_per_sec = 0.0;
        let text = snap.to_prometheus();
        assert_eq!(
            text,
            snap.to_prometheus(),
            "exposition must be deterministic"
        );

        // Every sample line's metric has HELP and TYPE lines, and they
        // precede it.
        for line in text.lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                continue;
            }
            let name = line
                .split(['{', ' '])
                .next()
                .unwrap()
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            let help_at = text.find(&format!("# HELP {name} "));
            let type_at = text.find(&format!("# TYPE {name} "));
            let sample_at = text.find(line).unwrap();
            assert!(
                help_at.is_some_and(|h| h < sample_at),
                "no HELP before {line}"
            );
            assert!(
                type_at.is_some_and(|t| t < sample_at),
                "no TYPE before {line}"
            );
        }

        // Fixed emission order: jobs total before class split, class
        // labels in hit/miss/coalesced order, histogram before p50.
        let pos = |needle: &str| {
            text.find(needle)
                .unwrap_or_else(|| panic!("missing {needle}"))
        };
        assert!(pos("spanner_jobs_total ") < pos("class=\"cache_hit\""));
        assert!(pos("class=\"cache_hit\"") < pos("class=\"cache_miss\""));
        assert!(pos("class=\"cache_miss\"") < pos("class=\"coalesced\""));
        assert!(pos("class=\"coalesced\"") < pos("class=\"shed\""));
        assert!(pos("spanner_engine_run_seconds_bucket") < pos("spanner_engine_run_p50_seconds"));
        assert!(text.contains("spanner_store_records_dropped_total 2\n"));
        assert!(text.contains("spanner_store_degraded 1\n"));
        assert!(text.contains("spanner_connections_timed_out_total 1\n"));
        assert!(text.contains("le=\"+Inf\""));

        // Graph metrics: the live gauge precedes the per-class delta
        // counter, whose labels land in commuted/repaired/recomputed
        // order between the store section and the engine totals.
        assert!(text.contains("spanner_graphs_live 3\n"));
        assert!(pos("spanner_graphs_live 3") < pos("class=\"commuted\""));
        assert!(pos("spanner_store_recovery_seconds_total") < pos("spanner_graphs_live 3"));
        assert!(pos("class=\"commuted\"") < pos("class=\"repaired\""));
        assert!(pos("class=\"repaired\"") < pos("class=\"recomputed\""));
        assert!(pos("class=\"recomputed\"") < pos("spanner_engine_iterations_total"));
        assert!(text.contains("spanner_graph_deltas_by_class_total{class=\"commuted\"} 6\n"));
        assert!(text.contains("spanner_graph_deltas_by_class_total{class=\"repaired\"} 2\n"));
        assert!(text.contains("spanner_graph_deltas_by_class_total{class=\"recomputed\"} 1\n"));

        // The class series sum back to the total — the same invariant
        // the JSON body guarantees.
        let value = |prefix: &str| -> u64 {
            text.lines()
                .find(|l| l.starts_with(prefix))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no sample for {prefix}"))
        };
        let class_sum: u64 = ["cache_hit", "cache_miss", "coalesced", "shed"]
            .iter()
            .map(|c| value(&format!("spanner_jobs_by_class_total{{class=\"{c}\"}}")))
            .sum();
        assert_eq!(value("spanner_jobs_total "), class_sum);

        // Histogram buckets are cumulative and end at the count.
        let bucket_values: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("spanner_engine_run_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(bucket_values.len(), LATENCY_BUCKETS_US.len() + 1);
        assert!(bucket_values.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            *bucket_values.last().unwrap(),
            value("spanner_engine_run_seconds_count")
        );
    }
}
