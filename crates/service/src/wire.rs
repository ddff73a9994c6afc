//! The length-prefixed request/response wire protocol of
//! `spanner-serve`.
//!
//! Every message is one *frame*: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 text. Frames larger than
//! [`MAX_FRAME`] are rejected. A connection carries any number of
//! request frames, each answered by exactly one response frame, until
//! the client closes it.
//!
//! A payload is a command line followed by `key value` lines; every
//! frame shape is declared once in the message schema, which the
//! README's "Message reference" lists. A `run` response is a pure
//! function of the job spec — no timing, no cached/coalesced flag — so
//! a cache hit is byte-identical to the cold computation of the same
//! spec. `shards` requests parallel in-engine execution; it cannot
//! change the response bytes (the engine is shard-count-deterministic),
//! is not part of the job's cache identity, and may be overridden by
//! the server's `--shards` flag.

use std::io::{Read, Write};

use crate::graphs::{
    DeltaOp, GraphCreated, GraphMeta, GraphPatched, GraphSpannerResult, GraphSpec,
};
use crate::job::{JobError, JobResponse, JobSpec};
use crate::schema::{self, Message};
pub use crate::schema::{parse_delta_ops, parse_instance};

/// Upper bound on a frame payload (64 MiB): a million-edge graph fits
/// with a wide margin, while a corrupt length prefix cannot trigger an
/// absurd allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// The protocol version this build speaks. Version 2 adds the `hello`
/// handshake and the `graph-*` named-graph frames; every v1 command is
/// unchanged byte-for-byte, so v1 clients are served without
/// negotiation.
pub const PROTO_VERSION: u64 = 2;

/// Writes one frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    assert!(payload.len() <= MAX_FRAME, "frame exceeds MAX_FRAME");
    w.write_all(&(payload.len() as u32).to_be_bytes())?; // dsa-lint: allow(DSA-C001, reason="asserted payload.len() <= MAX_FRAME, far below u32::MAX, above")
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF before the first length
/// byte.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A decoded request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Run one spanner job (boxed: a spec carries a whole graph, far
    /// larger than the other variants).
    Run(Box<JobSpec>),
    /// Report the service metrics snapshot as JSON.
    Stats,
    /// Liveness probe.
    Ping,
    /// Protocol negotiation (`hello vN`, v2+). The server answers with
    /// `min(N, PROTO_VERSION)` and its feature list. Optional: a
    /// client may skip the handshake and speak v1 directly.
    Hello {
        /// The highest protocol version the client speaks.
        proto: u64,
    },
    /// Create a named graph (v2).
    GraphCreate(Box<GraphSpec>),
    /// Apply edge deltas to a named graph (v2).
    GraphPatch {
        /// The graph id.
        id: String,
        /// The deltas, applied in order.
        ops: Vec<DeltaOp>,
    },
    /// Read a named graph's metadata/stats (v2).
    GraphGet {
        /// The graph id.
        id: String,
    },
    /// Read a named graph's maintained spanner (v2).
    GraphSpanner {
        /// The graph id.
        id: String,
    },
    /// Retire a named graph (v2).
    GraphDelete {
        /// The graph id.
        id: String,
    },
}

/// A decoded response.
#[derive(Clone, Debug)]
pub enum Response {
    /// The job's result.
    Run(JobResponse),
    /// The metrics snapshot, as one JSON line.
    Stats(String),
    /// Answer to [`Request::Ping`].
    Pong,
    /// The server shed the request at admission (overload). The job
    /// was not started; retrying after the hinted delay is safe.
    Busy {
        /// Suggested client wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The server rejected or failed the request.
    Error(String),
    /// Answer to [`Request::Hello`].
    Hello {
        /// The negotiated protocol version.
        proto: u64,
        /// Feature tokens the server advertises (e.g. `graphs`).
        features: Vec<String>,
    },
    /// Answer to [`Request::GraphCreate`].
    GraphCreated(GraphCreated),
    /// Answer to [`Request::GraphPatch`].
    GraphPatched(GraphPatched),
    /// Answer to [`Request::GraphGet`].
    GraphMeta(GraphMeta),
    /// Answer to [`Request::GraphSpanner`].
    GraphSpanner(GraphSpannerResult),
    /// Answer to [`Request::GraphDelete`].
    GraphDeleted {
        /// The retired graph's id.
        id: String,
    },
}

/// Encodes a job spec as a `run v1` request payload. These bytes are
/// also the result store's on-disk identity of the job.
pub fn encode_request(spec: &JobSpec) -> String {
    schema::RUN.text(spec)
}

/// Encodes the `stats v1` request payload.
pub(crate) fn encode_stats_request() -> String {
    schema::STATS.text(&())
}

/// Encodes the `ping v1` request payload.
pub(crate) fn encode_ping_request() -> String {
    schema::PING.text(&())
}

/// Encodes a `hello vN` handshake request.
pub fn encode_hello_request(proto: u64) -> String {
    schema::HELLO.text(&proto)
}

/// Encodes a named-graph create as a `graph-create v2` payload: an `id`
/// line, then a `run v1` body without execution policy (shards,
/// timeout), which applies per read, never to a graph's definition.
/// The delta log stores these bytes.
pub(crate) fn encode_graph_create(spec: &GraphSpec) -> String {
    schema::GRAPH_CREATE.text_for(&spec.id, &schema::graph_job(spec))
}

/// Encodes a delta batch as a `graph-patch v2` payload.
pub fn encode_graph_patch(id: &str, ops: &[DeltaOp]) -> String {
    schema::GRAPH_PATCH.text_for(id, ops)
}

/// Encodes a `graph-get v2` metadata request.
pub(crate) fn encode_graph_get(id: &str) -> String {
    schema::GRAPH_GET.text_for(id, &())
}

/// Encodes a `graph-spanner v2` read request.
pub fn encode_graph_spanner_request(id: &str) -> String {
    schema::GRAPH_SPANNER.text_for(id, &())
}

/// Encodes a `graph-delete v2` request.
pub(crate) fn encode_graph_delete(id: &str) -> String {
    schema::GRAPH_DELETE.text_for(id, &())
}

/// Decodes `payload` as message `m`, mapping its graph id and value to
/// the result; `None` when the payload is another message.
fn decode_as<T: ?Sized, D: Default, R>(
    payload: &str,
    m: &Message<T, D>,
    into: impl Fn(String, D) -> Result<R, JobError>,
) -> Option<Result<R, JobError>> {
    m.decode_text(payload)
        .map(|decoded| decoded.and_then(|(id, d)| into(id, d)))
}

/// One way a payload may decode, tried in turn.
type Decoder<'a, R> = &'a dyn Fn() -> Option<Result<R, JobError>>;

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, JobError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| JobError::Protocol("request is not UTF-8".into()))?;
    let create = |id, d| Ok(Request::GraphCreate(Box::new(schema::graph_spec(id, d)?)));
    let hello = |_, proto| match proto {
        0 => Err(JobError::Protocol("protocol versions start at 1".into())),
        proto => Ok(Request::Hello { proto }),
    };
    #[rustfmt::skip]
    let decoders: [Decoder<Request>; 9] = [
        &|| decode_as(text, &schema::RUN, |_, d| Ok(Request::Run(Box::new(d.spec)))),
        &|| decode_as(text, &schema::GRAPH_CREATE, create),
        &|| decode_as(text, &schema::GRAPH_PATCH, |id, ops| Ok(Request::GraphPatch { id, ops })),
        &|| decode_as(text, &schema::GRAPH_GET, |id, ()| Ok(Request::GraphGet { id })),
        &|| decode_as(text, &schema::GRAPH_SPANNER, |id, ()| Ok(Request::GraphSpanner { id })),
        &|| decode_as(text, &schema::GRAPH_DELETE, |id, ()| Ok(Request::GraphDelete { id })),
        &|| decode_as(text, &schema::STATS, |_, ()| Ok(Request::Stats)),
        &|| decode_as(text, &schema::PING, |_, ()| Ok(Request::Ping)),
        &|| decode_as(text, &schema::HELLO, hello),
    ];
    decoders
        .iter()
        .find_map(|decode| decode())
        .unwrap_or_else(|| Err(unknown("command", text)))
}

fn unknown(what: &str, payload: &str) -> JobError {
    let head = payload.split('\n').next().unwrap_or("").trim_end();
    JobError::Protocol(format!(
        "unknown {what} `{head}` (see the README's message reference)"
    ))
}

/// Encodes a job result as an `ok run` response payload. Deterministic
/// in the response: the serving path (cold, cached, coalesced) leaves
/// no trace in the bytes.
pub fn encode_run_response(resp: &JobResponse) -> String {
    schema::RUN_OK.text(resp)
}

/// Encodes a metrics snapshot as an `ok stats` response payload.
pub(crate) fn encode_stats_response(json: &str) -> String {
    schema::STATS_OK.text(json)
}

/// Encodes the `ok ping` response payload.
pub(crate) fn encode_pong_response() -> String {
    schema::PONG.text(&())
}

/// Encodes an error response payload (one line: newlines flatten to
/// spaces).
pub(crate) fn encode_error_response(message: &str) -> String {
    schema::ERR.text(&(message.to_string(), String::new()))
}

/// Encodes a `busy` response payload: the server shed the request at
/// admission and the client should retry after `retry_after_ms`.
pub(crate) fn encode_busy_response(retry_after_ms: u64) -> String {
    schema::BUSY.text(&retry_after_ms)
}

/// Encodes an `ok hello` handshake response.
pub fn encode_hello_response(proto: u64, features: &[&str]) -> String {
    schema::HELLO_OK.text(&(proto, features.join(" ")))
}

/// Encodes an `ok graph-create` response.
pub(crate) fn encode_graph_created(r: &GraphCreated) -> String {
    schema::GRAPH_CREATED.text(r)
}

/// Encodes an `ok graph-patch` response.
pub fn encode_graph_patched(r: &GraphPatched) -> String {
    schema::GRAPH_PATCHED.text(r)
}

/// Encodes an `ok graph-get` metadata response.
pub(crate) fn encode_graph_meta(r: &GraphMeta) -> String {
    schema::GRAPH_META.text(r)
}

/// Encodes an `ok graph-spanner` response: the header, then one `u v`
/// line per spanner edge. Deterministic for a given delta history.
pub fn encode_graph_spanner_response(r: &GraphSpannerResult) -> String {
    schema::GRAPH_SPANNER_OK.text(r)
}

/// Encodes an `ok graph-delete` response.
pub(crate) fn encode_graph_deleted(id: &str) -> String {
    schema::GRAPH_DELETED.text(id)
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, JobError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| JobError::Protocol("response is not UTF-8".into()))?;
    let hello = |_, (proto, features): (u64, String)| {
        let features = features.split_whitespace().map(String::from).collect();
        Ok(Response::Hello { proto, features })
    };
    #[rustfmt::skip]
    let decoders: [Decoder<Response>; 11] = [
        &|| decode_as(text, &schema::RUN_OK, |_, r| Ok(Response::Run(r))),
        &|| decode_as(text, &schema::ERR, |_, (m, _)| Ok(Response::Error(m))),
        &|| decode_as(text, &schema::BUSY, |_, ms| Ok(Response::Busy { retry_after_ms: ms })),
        &|| decode_as(text, &schema::GRAPH_PATCHED, |_, r| Ok(Response::GraphPatched(r))),
        &|| decode_as(text, &schema::GRAPH_SPANNER_OK, |_, r| Ok(Response::GraphSpanner(r))),
        &|| decode_as(text, &schema::GRAPH_CREATED, |_, r| Ok(Response::GraphCreated(r))),
        &|| decode_as(text, &schema::GRAPH_META, |_, r| Ok(Response::GraphMeta(r))),
        &|| decode_as(text, &schema::GRAPH_DELETED, |_, id| Ok(Response::GraphDeleted { id })),
        &|| decode_as(text, &schema::STATS_OK, |_, json| Ok(Response::Stats(json))),
        &|| decode_as(text, &schema::PONG, |_, ()| Ok(Response::Pong)),
        &|| decode_as(text, &schema::HELLO_OK, hello),
    ];
    decoders
        .iter()
        .find_map(|decode| decode())
        .unwrap_or_else(|| Err(unknown("response head", text)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::EdgeRole;
    use crate::schema::{MAX_SHARDS, MIN_VERTEX_ALLOWANCE};
    use dsa_core::dist::{EngineConfig, VariantInstance, VariantKind};
    use dsa_graphs::{EdgeSet, EdgeWeights, Graph};
    use std::time::Duration;

    fn roundtrip_spec(spec: &JobSpec) -> JobSpec {
        let encoded = encode_request(spec);
        match decode_request(encoded.as_bytes()).unwrap() {
            Request::Run(spec) => *spec,
            other => panic!("expected run request, got {other:?}"),
        }
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn run_request_roundtrips_all_variants() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)]);
        let d = dsa_graphs::DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let specs = [
            JobSpec::new(VariantInstance::Undirected { graph: g.clone() }, 3),
            JobSpec::new(VariantInstance::Directed { graph: d }, 4),
            JobSpec::new(
                VariantInstance::Weighted {
                    graph: g.clone(),
                    weights: EdgeWeights::from_vec(vec![2, 0, 5, 7]),
                },
                5,
            ),
            JobSpec::new(
                VariantInstance::ClientServer {
                    graph: g.clone(),
                    clients: EdgeSet::from_iter(4, [0, 1, 3]),
                    servers: EdgeSet::from_iter(4, [1, 2, 3]),
                },
                6,
            ),
        ];
        for spec in &specs {
            let back = roundtrip_spec(spec);
            assert_eq!(back.instance.kind(), spec.instance.kind());
            assert_eq!(back.config.seed, spec.config.seed);
            // The canonical keys agree, which is the identity the
            // service cares about.
            assert_eq!(
                crate::job::canonicalize_job(&back).unwrap().key,
                crate::job::canonicalize_job(spec).unwrap().key,
            );
        }
    }

    #[test]
    fn run_request_carries_config_and_timeout() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut spec = JobSpec::new(VariantInstance::Undirected { graph: g }, 9);
        spec.config.accept_denominator = 16;
        spec.config.monotone_stars = false;
        spec.config.round_densities = false;
        spec.config.max_iterations = 12_345;
        spec.config.num_shards = 4;
        spec.timeout = Some(Duration::from_millis(1500));
        let back = roundtrip_spec(&spec);
        assert_eq!(back.config.accept_denominator, 16);
        assert!(!back.config.monotone_stars);
        assert!(!back.config.round_densities);
        assert_eq!(back.config.max_iterations, 12_345);
        assert_eq!(back.config.num_shards, 4);
        assert_eq!(back.timeout, Some(Duration::from_millis(1500)));
    }

    #[test]
    fn shards_header_is_optional_and_roundtrips_auto() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        // Default (1) is omitted from the encoding and decodes back.
        let spec = JobSpec::new(VariantInstance::Undirected { graph: g.clone() }, 1);
        assert!(!encode_request(&spec).contains("shards"));
        assert_eq!(roundtrip_spec(&spec).config.num_shards, 1);
        // Explicit 0 ("one shard per core") survives the roundtrip.
        let mut auto = spec.clone();
        auto.config.num_shards = 0;
        assert!(encode_request(&auto).contains("shards 0\n"));
        assert_eq!(roundtrip_spec(&auto).config.num_shards, 0);
    }

    #[test]
    fn absurd_shard_counts_are_capped_at_decode() {
        // A hostile `shards 2^63` must not truncate through `as usize`
        // on 32-bit targets; it is capped (the engine clamps further).
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut spec = JobSpec::new(VariantInstance::Undirected { graph: g }, 1);
        spec.config.num_shards = usize::MAX;
        let back = roundtrip_spec(&spec);
        assert_eq!(back.config.num_shards as u64, MAX_SHARDS);
        let explicit =
            "run v1\nvariant undirected\nseed 1\nshards 9223372036854775808\ngraph\n# n 3\n0 1\n1 2\n";
        match decode_request(explicit.as_bytes()).unwrap() {
            Request::Run(spec) => assert_eq!(spec.config.num_shards as u64, MAX_SHARDS),
            other => panic!("expected run request, got {other:?}"),
        }
        // Everything at or below the cap passes through untouched.
        for shards in [0, 8, MAX_SHARDS as usize] {
            spec.config.num_shards = shards;
            assert_eq!(roundtrip_spec(&spec).config.num_shards, shards);
        }
    }

    #[test]
    fn pathological_timeouts_saturate_not_wrap() {
        // Duration::MAX.as_millis() far exceeds u64; the encoder must
        // saturate (previously the HTTP encoder wrapped via `as u64`
        // and the wire encoder emitted an unparseable u128).
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut spec = JobSpec::new(VariantInstance::Undirected { graph: g }, 1);
        spec.timeout = Some(Duration::MAX);
        let encoded = encode_request(&spec);
        assert!(
            encoded.contains(&format!("timeout-ms {}\n", u64::MAX)),
            "expected saturated timeout in {encoded:?}"
        );
        let back = roundtrip_spec(&spec);
        assert_eq!(back.timeout, Some(Duration::from_millis(u64::MAX)));
        // And the saturated form is a fixed point of the roundtrip.
        assert_eq!(roundtrip_spec(&back).timeout, back.timeout);
    }

    #[test]
    fn run_response_roundtrips() {
        let resp = JobResponse {
            key: 0xdead_beef_0123_4567,
            kind: VariantKind::ClientServer,
            spanner: vec![0, 3, 9],
            iterations: 7,
            local_rounds: 49,
            converged: true,
            star_fallbacks: 0,
        };
        let encoded = encode_run_response(&resp);
        match decode_response(encoded.as_bytes()).unwrap() {
            Response::Run(back) => assert_eq!(back, resp),
            other => panic!("expected run response, got {other:?}"),
        }
        // Empty spanners survive too.
        let empty = JobResponse {
            spanner: vec![],
            ..resp
        };
        match decode_response(encode_run_response(&empty).as_bytes()).unwrap() {
            Response::Run(back) => assert_eq!(back, empty),
            other => panic!("expected run response, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_error_cleanly() {
        for bad in [
            "bogus v1\n",
            "run v1\nseed 1\ngraph\n# n 2\n0 1\n", // missing variant
            "run v1\nvariant undirected\ngraph\n# n 2\n0 1\n", // missing seed
            "run v1\nvariant undirected\nseed 1\n", // missing graph
            "run v1\nvariant undirected\nseed 1\ngraph\n0 1\n", // headerless graph
            "run v1\nvariant weighted\nseed 1\ngraph\n# n 2\n0 1\n", // weights missing
            "run v1\nvariant client-server\nseed 1\nclients 9\nservers 0\ngraph\n# n 2\n0 1\n",
        ] {
            assert!(
                matches!(decode_request(bad.as_bytes()), Err(JobError::Protocol(_))),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn absurd_vertex_counts_are_rejected_before_allocation() {
        let bad = "run v1\nvariant undirected\nseed 1\ngraph\n# n 9999999999999\n0 1\n";
        match decode_request(bad.as_bytes()) {
            Err(JobError::Protocol(m)) => assert!(m.contains("vertex count"), "{m}"),
            other => panic!("accepted absurd n: {other:?}"),
        }
        // A realistic header passes, including sparse graphs over a
        // large id space (isolated vertices up to the allowance).
        let ok = "run v1\nvariant undirected\nseed 1\ngraph\n# n 500\n0 1\n";
        assert!(decode_request(ok.as_bytes()).is_ok());
        let sparse = format!(
            "run v1\nvariant undirected\nseed 1\ngraph\n# n {}\n0 1\n",
            MIN_VERTEX_ALLOWANCE
        );
        assert!(decode_request(sparse.as_bytes()).is_ok());
    }

    #[test]
    fn busy_responses_roundtrip() {
        let enc = encode_busy_response(1_250);
        match decode_response(enc.as_bytes()).unwrap() {
            Response::Busy { retry_after_ms } => assert_eq!(retry_after_ms, 1_250),
            other => panic!("expected busy, got {other:?}"),
        }
        // A garbled hint is a protocol error, not a panic.
        assert!(matches!(
            decode_response(b"busy soon\n"),
            Err(JobError::Protocol(_))
        ));
    }

    #[test]
    fn hello_handshake_roundtrips() {
        match decode_request(encode_hello_request(2).as_bytes()).unwrap() {
            Request::Hello { proto } => assert_eq!(proto, 2),
            other => panic!("expected hello, got {other:?}"),
        }
        // Future clients may announce higher versions; v0 is nonsense.
        assert!(matches!(
            decode_request(b"hello v17\n"),
            Ok(Request::Hello { proto: 17 })
        ));
        assert!(matches!(
            decode_request(b"hello v0\n"),
            Err(JobError::Protocol(_))
        ));
        let enc = encode_hello_response(PROTO_VERSION, &["graphs"]);
        match decode_response(enc.as_bytes()).unwrap() {
            Response::Hello { proto, features } => {
                assert_eq!(proto, PROTO_VERSION);
                assert_eq!(features, vec!["graphs".to_string()]);
            }
            other => panic!("expected hello, got {other:?}"),
        }
        // A v1-style empty feature list survives too.
        match decode_response(encode_hello_response(1, &[]).as_bytes()).unwrap() {
            Response::Hello { proto, features } => {
                assert_eq!(proto, 1);
                assert!(features.is_empty());
            }
            other => panic!("expected hello, got {other:?}"),
        }
    }

    #[test]
    fn graph_create_roundtrips_and_shares_run_normalization() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let spec = GraphSpec {
            id: "prod.web-1".to_string(),
            instance: VariantInstance::Undirected { graph: g },
            config: EngineConfig::seeded(9),
        };
        let enc = encode_graph_create(&spec);
        assert!(enc.starts_with("graph-create v2\nid prod.web-1\nvariant undirected\n"));
        match decode_request(enc.as_bytes()).unwrap() {
            Request::GraphCreate(back) => {
                assert_eq!(back.id, spec.id);
                assert_eq!(back.instance, spec.instance);
                assert_eq!(back.config.seed, 9);
            }
            other => panic!("expected graph-create, got {other:?}"),
        }
        // Execution policy is stripped at encode and rejected at
        // decode; the vertex-count bound applies as for `run v1`.
        let mut wide = spec.clone();
        wide.config.num_shards = 8;
        assert!(!encode_graph_create(&wide).contains("shards"));
        for bad in [
            "graph-create v2\nid g\nvariant undirected\nseed 1\nshards 4\ngraph\n# n 2\n0 1\n",
            "graph-create v2\nid g\nvariant undirected\nseed 1\ntimeout-ms 5\ngraph\n# n 2\n0 1\n",
            "graph-create v2\nid bad/id\nvariant undirected\nseed 1\ngraph\n# n 2\n0 1\n",
            "graph-create v2\nid g\nvariant undirected\nseed 1\ngraph\n# n 9999999999999\n0 1\n",
        ] {
            assert!(
                matches!(decode_request(bad.as_bytes()), Err(JobError::Protocol(_))),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn graph_patch_roundtrips_all_op_shapes() {
        let ops = vec![
            DeltaOp::Insert {
                u: 0,
                v: 1,
                weight: None,
                role: None,
            },
            DeltaOp::Insert {
                u: 1,
                v: 2,
                weight: Some(9),
                role: None,
            },
            DeltaOp::Insert {
                u: 2,
                v: 3,
                weight: None,
                role: Some(EdgeRole::Server),
            },
            DeltaOp::Delete { u: 0, v: 1 },
        ];
        let enc = encode_graph_patch("g", &ops);
        assert_eq!(
            enc,
            "graph-patch v2\nid g\nops\n+ 0 1\n+ 1 2 9\n+ 2 3 server\n- 0 1\n"
        );
        match decode_request(enc.as_bytes()).unwrap() {
            Request::GraphPatch { id, ops: back } => {
                assert_eq!(id, "g");
                assert_eq!(back, ops);
            }
            other => panic!("expected graph-patch, got {other:?}"),
        }
        for bad in [
            "graph-patch v2\nid g\nops\n* 0 1\n",
            "graph-patch v2\nid g\nops\n+ 0\n",
            "graph-patch v2\nid g\nops\n+ 0 1 maybe\n",
            "graph-patch v2\nid g\nops\n- 0 1 2\n",
            "graph-patch v2\nid g\n+ 0 1\n",
        ] {
            assert!(
                matches!(decode_request(bad.as_bytes()), Err(JobError::Protocol(_))),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn graph_reads_and_delete_roundtrip() {
        match decode_request(encode_graph_get("a.b").as_bytes()).unwrap() {
            Request::GraphGet { id } => assert_eq!(id, "a.b"),
            other => panic!("expected graph-get, got {other:?}"),
        }
        match decode_request(encode_graph_spanner_request("a.b").as_bytes()).unwrap() {
            Request::GraphSpanner { id } => assert_eq!(id, "a.b"),
            other => panic!("expected graph-spanner, got {other:?}"),
        }
        match decode_request(encode_graph_delete("a.b").as_bytes()).unwrap() {
            Request::GraphDelete { id } => assert_eq!(id, "a.b"),
            other => panic!("expected graph-delete, got {other:?}"),
        }
    }

    #[test]
    fn graph_responses_roundtrip() {
        use crate::graphs::DeltaClasses;
        let created = GraphCreated {
            id: "g".into(),
            version: 3,
            edges: 17,
            spanner_size: 9,
            existed: true,
        };
        match decode_response(encode_graph_created(&created).as_bytes()).unwrap() {
            Response::GraphCreated(back) => assert_eq!(back, created),
            other => panic!("expected graph-created, got {other:?}"),
        }
        let patched = GraphPatched {
            id: "g".into(),
            version: 12,
            applied: 4,
            classes: DeltaClasses {
                commuted: 2,
                repaired: 1,
                recomputed: 1,
            },
            edges: 20,
        };
        match decode_response(encode_graph_patched(&patched).as_bytes()).unwrap() {
            Response::GraphPatched(back) => assert_eq!(back, patched),
            other => panic!("expected graph-patched, got {other:?}"),
        }
        for cover_size in [Some(7), None] {
            let meta = GraphMeta {
                id: "g".into(),
                kind: VariantKind::Weighted,
                version: 5,
                vertices: 40,
                edges: 21,
                seed: 8,
                cover_size,
                debt: 3,
                classes: DeltaClasses {
                    commuted: 9,
                    repaired: 3,
                    recomputed: 2,
                },
            };
            match decode_response(encode_graph_meta(&meta).as_bytes()).unwrap() {
                Response::GraphMeta(back) => assert_eq!(back, meta),
                other => panic!("expected graph-meta, got {other:?}"),
            }
        }
        for edges in [vec![(0, 1), (2, 3)], vec![]] {
            let spanner = GraphSpannerResult {
                id: "g".into(),
                version: 6,
                key: 0xabc_def,
                kind: VariantKind::Undirected,
                converged: true,
                iterations: 4,
                local_rounds: 28,
                star_fallbacks: 0,
                edges,
            };
            match decode_response(encode_graph_spanner_response(&spanner).as_bytes()).unwrap() {
                Response::GraphSpanner(back) => assert_eq!(back, spanner),
                other => panic!("expected graph-spanner, got {other:?}"),
            }
        }
        match decode_response(encode_graph_deleted("g").as_bytes()).unwrap() {
            Response::GraphDeleted { id } => assert_eq!(id, "g"),
            other => panic!("expected graph-deleted, got {other:?}"),
        }
    }

    #[test]
    fn error_responses_roundtrip() {
        let enc = encode_error_response("multi\nline gets flattened");
        match decode_response(enc.as_bytes()).unwrap() {
            Response::Error(m) => assert_eq!(m, "multi line gets flattened"),
            other => panic!("expected error, got {other:?}"),
        }
        match decode_response(encode_pong_response().as_bytes()).unwrap() {
            Response::Pong => {}
            other => panic!("expected pong, got {other:?}"),
        }
        match decode_response(encode_stats_response("{\"a\":1}").as_bytes()).unwrap() {
            Response::Stats(json) => assert_eq!(json, "{\"a\":1}"),
            other => panic!("expected stats, got {other:?}"),
        }
    }
}
