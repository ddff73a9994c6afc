//! The per-layer metrics of the traced run.
//!
//! Times come from spans the benchmark takes around its own calls into
//! each layer's public functions (see [`crate::jobs::serve_in_process`]),
//! as median self times, and from the engine's `run_variant_timed`
//! phase accounting of the from-scratch replays, as means per run (the
//! large jobs that set throughput and the tail count fully); counters
//! come from `Service::metrics()` deltas. Metrics a workload cannot
//! exercise read 0 (the engine on warm-hits, the graph layer outside
//! graph-churn, the open-loop figures outside warm-hits). The `flow`
//! layer has no public seam inside a solve, so flow calls and Dinic
//! phases are not reported.

use std::collections::{BTreeMap, HashMap};

use dsa_core::dist::VariantKind;

use crate::common::{summary, Counters, Op, Sample, Surface};
use crate::reference::EngineWork;
use crate::stats;
use crate::trace::{self, Span};

const ENGINE_PHASES: [&str; 5] = [
    "solve_ms",
    "step1_ms",
    "step3_ms",
    "step4_ms",
    "coverage_ms",
];

const OTHER: [(&str, &str); 44] = [
    ("engine.runs", "count"),
    ("engine.iterations", "count"),
    ("engine.candidates", "count"),
    ("engine.accepted", "count"),
    ("wire.decode_ms", "ms"),
    ("wire.encode_ms", "ms"),
    ("wire.request_bytes", "bytes"),
    ("http.decode_ms", "ms"),
    ("http.encode_ms", "ms"),
    ("http.request_bytes", "bytes"),
    ("canon.ms", "ms"),
    ("service.submit_ms", "ms"),
    ("pool.queue_wait_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.coalesced", "count"),
    ("cache.shed", "count"),
    ("store.write_ms", "ms"),
    ("store.recovery_ms", "ms"),
    ("store.records", "count"),
    ("graphs.patch_ms", "ms"),
    ("graphs.spanner_ms", "ms"),
    ("graphs.commuted_frac", "ratio"),
    ("graphs.commuted", "count"),
    ("graphs.repaired", "count"),
    ("graphs.recomputed", "count"),
    ("graphs.replay_ms", "ms"),
    ("net.tcp_self_ms", "ms"),
    ("net.http_self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("client.error_rate", "ratio"),
    ("client.write_ms.p50", "ms"),
    ("client.read_ms.p50", "ms"),
    ("client.tcp_ms.p50", "ms"),
    ("client.http_ms.p50", "ms"),
    ("openloop.max_rps", "1/s"),
    ("openloop.late_sends", "count"),
    ("openloop.max_late_ms", "ms"),
    ("openloop.backlog_rungs", "count"),
    ("counts.spanner_edges", "count"),
    ("counts.repeat_ok", "count"),
];

fn engine_name(phase: &str, kind: VariantKind) -> String {
    format!("engine.{phase}.{}", kind.as_str())
}

/// Every per-layer metric, in output order, with its unit.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for kind in VariantKind::ALL {
        for phase in ENGINE_PHASES {
            out.push((engine_name(phase, kind), "ms"));
        }
    }
    out.extend(OTHER.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

/// What the traced run measured, for [`compute`].
pub struct Traced<'a> {
    /// The untraced timed pass.
    pub a: &'a [Sample],
    /// The traced timed pass (client spans), per client in send order;
    /// its first requests are the ones pass C serves.
    pub b: &'a [Vec<Sample>],
    pub b_spans: usize,
    /// The in-process layer pass: its spans and service counters.
    pub c_spans: &'a [Span],
    pub c_counters: Counters,
    /// From-scratch replays of the engine runs pass C's requests caused.
    pub engine: &'a [EngineWork],
    /// Request bytes pass C sent per surface.
    pub request_bytes: [u64; 2],
}

/// The layer metrics every workload computes the same way; the
/// workload adds the store, replay and open-loop ones.
pub fn compute(t: &Traced) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = names().into_iter().map(|(n, _)| (n, 0.0)).collect();
    let mut set = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };

    for kind in VariantKind::ALL {
        let runs: Vec<&EngineWork> = t.engine.iter().filter(|w| w.kind == Some(kind)).collect();
        let mean = |f: &dyn Fn(&EngineWork) -> f64| {
            runs.iter().map(|w| f(w)).sum::<f64>() / runs.len().max(1) as f64
        };
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let values = [
            mean(&|w| w.solve_ms),
            mean(&|w| ms(w.phases.step1)),
            mean(&|w| ms(w.phases.step3)),
            mean(&|w| ms(w.phases.step4)),
            mean(&|w| ms(w.phases.coverage)),
        ];
        for (phase, v) in ENGINE_PHASES.into_iter().zip(values) {
            set(&engine_name(phase, kind), v);
        }
    }
    set("engine.runs", t.c_counters.engine_runs as f64);
    set(
        "engine.iterations",
        t.engine.iter().map(|w| w.iterations).sum::<u64>() as f64,
    );
    set(
        "engine.candidates",
        t.engine.iter().map(|w| w.candidates).sum::<u64>() as f64,
    );
    set(
        "engine.accepted",
        t.engine.iter().map(|w| w.accepted).sum::<u64>() as f64,
    );

    let self_ms = trace::self_times_ms(t.c_spans);
    let med = |name: &str| trace::median_self_ms(&self_ms, name);
    set("wire.decode_ms", med("wire.decode"));
    set("wire.encode_ms", med("wire.encode"));
    set("wire.request_bytes", t.request_bytes[0] as f64);
    set("http.decode_ms", med("http.decode"));
    set("http.encode_ms", med("http.encode"));
    set("http.request_bytes", t.request_bytes[1] as f64);
    set("canon.ms", med("canon"));
    set("graphs.patch_ms", med("graphs.patch"));
    set("graphs.spanner_ms", med("graphs.spanner"));

    // Per request of pass C: span durations by name.
    let mut per_request: HashMap<u64, HashMap<&str, f64>> = HashMap::new();
    for s in t.c_spans {
        *per_request
            .entry(s.request)
            .or_default()
            .entry(s.name)
            .or_default() += s.dur_ms();
    }
    let submit_self: Vec<f64> = per_request
        .values()
        .filter_map(|m| Some(m.get("service.submit")? - m.get("canon").copied().unwrap_or(0.0)))
        .collect();
    set("service.submit_ms", stats::median(&submit_self));
    let waits: Vec<f64> = per_request
        .values()
        .filter_map(|m| m.get("service.wait").copied())
        .collect();
    if !waits.is_empty() {
        let engine_ms = t.c_counters.engine_us as f64 / 1e3;
        set(
            "pool.queue_wait_ms",
            (waits.iter().sum::<f64>() - engine_ms).max(0.0) / waits.len() as f64,
        );
    }
    let c = &t.c_counters;
    set("cache.hits", c.hits as f64);
    set("cache.misses", c.misses as f64);
    set("cache.coalesced", c.coalesced as f64);
    set("cache.shed", c.shed as f64);
    if c.hits + c.misses > 0 {
        set(
            "cache.hit_ratio",
            c.hits as f64 / (c.hits + c.misses) as f64,
        );
    }
    set("store.write_ms", c.store_write_us as f64 / 1e3);
    let deltas = c.commuted + c.repaired + c.recomputed;
    set("graphs.commuted", c.commuted as f64);
    set("graphs.repaired", c.repaired as f64);
    set("graphs.recomputed", c.recomputed as f64);
    if deltas > 0 {
        set("graphs.commuted_frac", c.commuted as f64 / deltas as f64);
    }

    // Per request: the client-observed latency in pass B minus the
    // server-side stage time of the same request in pass C (everything
    // inside its request span but the extra canonicalization).
    for (c, name) in ["net.tcp_self_ms", "net.http_self_ms"]
        .into_iter()
        .enumerate()
    {
        let Some(b) = t.b.get(c) else { continue };
        let net: Vec<f64> = b
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let m = per_request.get(&(((16 + c) as u64) << 32 | i as u64))?;
                Some(s.latency_ms() - (m.get("request")? - m.get("canon").copied().unwrap_or(0.0)))
            })
            .collect();
        if !net.is_empty() {
            set(name, stats::median(&net));
        }
    }

    let a = summary(t.a, |_| true);
    let b_all: Vec<Sample> = t.b.iter().flatten().cloned().collect();
    let b = summary(&b_all, |_| true);
    set("trace.overhead_ms", b.p50 - a.p50);
    if a.p50 > 0.0 {
        set("trace.overhead_frac", (b.p50 - a.p50) / a.p50);
    }
    set("trace.spans", (t.b_spans + t.c_spans.len()) as f64);
    let failed = t.a.iter().filter(|s| !s.ok).count();
    set("client.error_rate", failed as f64 / t.a.len().max(1) as f64);
    set(
        "client.write_ms.p50",
        summary(t.a, |s| s.op == Op::Write).p50,
    );
    set("client.read_ms.p50", summary(t.a, |s| s.op == Op::Read).p50);
    set(
        "client.tcp_ms.p50",
        summary(t.a, |s| s.surface == Surface::Tcp).p50,
    );
    set(
        "client.http_ms.p50",
        summary(t.a, |s| s.surface == Surface::Http).p50,
    );
    out
}

/// Sets the exact-count metrics (the layer pass's served spanner edges,
/// and whether the measured pass served the same counts) and returns
/// the digest of every exact count of the traced run, which two runs of
/// one seed must repeat.
pub fn counts(
    out: &mut BTreeMap<String, f64>,
    exact: &[u64],
    spanner_edges: u64,
    repeat_ok: bool,
    c: &Counters,
) -> u64 {
    let mut all = exact.to_vec();
    all.extend([
        c.hits,
        c.misses,
        c.coalesced,
        c.shed,
        c.engine_runs,
        c.commuted,
        c.repaired,
        c.recomputed,
        out["engine.iterations"] as u64,
        out["engine.candidates"] as u64,
        out["engine.accepted"] as u64,
    ]);
    out.insert("counts.spanner_edges".into(), spanner_edges as f64);
    out.insert("counts.repeat_ok".into(), f64::from(u8::from(repeat_ok)));
    crate::common::digest(&all)
}
