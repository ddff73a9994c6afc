//! Byte-for-byte pins of one populated instance of every message, in
//! both renderings: the TCP text frame and the HTTP JSON body.
//!
//! Text request bytes are on-disk identity (`results.log` keys its
//! verification bytes by the run-request rendering; `graphs.log` stores
//! the create, patch and delete frames), and every served byte is part
//! of the byte-identity contract, so a codec change must leave all of
//! these strings untouched. Each pinned string is also decoded and
//! re-encoded: the decoder must read back everything the encoder wrote.

use std::time::Duration;

use dsa_core::dist::{EngineConfig, VariantInstance, VariantKind};
use dsa_graphs::{DiGraph, EdgeSet, EdgeWeights, Graph};

use crate::graphs::{
    DeltaClasses, DeltaOp, EdgeRole, GraphCreated, GraphMeta, GraphPatched, GraphSpannerResult,
    GraphSpec,
};
use crate::http;
use crate::job::{JobResponse, JobSpec};
use crate::wire::{self, Request, Response};

fn graph() -> Graph {
    Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
}

/// Every run-request variant, each with some non-default setting.
fn run_specs() -> Vec<JobSpec> {
    let mut undirected = JobSpec::new(VariantInstance::Undirected { graph: graph() }, 7);
    undirected.config.accept_denominator = 16;
    undirected.config.monotone_stars = false;
    undirected.config.round_densities = false;
    undirected.config.max_iterations = 12_345;
    undirected.config.num_shards = 4;
    undirected.timeout = Some(Duration::from_millis(1500));
    let mut weighted = JobSpec::new(
        VariantInstance::Weighted {
            graph: graph(),
            weights: EdgeWeights::from_vec(vec![2, 0, 5, 7]),
        },
        5,
    );
    weighted.config.num_shards = 0;
    let mut directed = JobSpec::new(
        VariantInstance::Directed {
            graph: DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]),
        },
        4,
    );
    directed.timeout = Some(Duration::MAX);
    let mut client_server = JobSpec::new(
        VariantInstance::ClientServer {
            graph: graph(),
            clients: EdgeSet::from_iter(4, [0, 1, 3]),
            servers: EdgeSet::new(4),
        },
        u64::MAX,
    );
    client_server.config.max_iterations = 9;
    vec![undirected, weighted, directed, client_server]
}

fn graph_spec() -> GraphSpec {
    let mut config = EngineConfig::seeded(9);
    config.accept_denominator = 4;
    GraphSpec {
        id: "prod.web-1".to_string(),
        instance: VariantInstance::Weighted {
            graph: graph(),
            weights: EdgeWeights::from_vec(vec![3, 1, 4, 1]),
        },
        config,
    }
}

/// Inserts before deletes: the order both renderings keep.
fn ops() -> Vec<DeltaOp> {
    vec![
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
    ]
}

fn run_responses() -> Vec<JobResponse> {
    let full = JobResponse {
        key: 0xdead_beef_0123_4567,
        kind: VariantKind::ClientServer,
        spanner: vec![0, 3, 9],
        iterations: 7,
        local_rounds: 49,
        converged: true,
        star_fallbacks: 0,
    };
    let empty = JobResponse {
        key: 0x42,
        kind: VariantKind::Directed,
        spanner: vec![],
        converged: false,
        star_fallbacks: 2,
        ..full.clone()
    };
    vec![full, empty]
}

fn created() -> GraphCreated {
    GraphCreated {
        id: "g".into(),
        version: 3,
        edges: 17,
        spanner_size: 9,
        existed: true,
    }
}

fn patched() -> GraphPatched {
    GraphPatched {
        id: "g".into(),
        version: 12,
        applied: 4,
        classes: DeltaClasses {
            commuted: 2,
            repaired: 1,
            recomputed: 1,
        },
        edges: 20,
    }
}

/// Both `cover_size` cases.
fn metas() -> Vec<GraphMeta> {
    [Some(7), None]
        .into_iter()
        .map(|cover_size| GraphMeta {
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
        })
        .collect()
}

/// A populated and an empty spanner.
fn spanners() -> Vec<GraphSpannerResult> {
    [vec![(0, 1), (2, 3)], vec![]]
        .into_iter()
        .map(|edges| GraphSpannerResult {
            id: "g".into(),
            version: 6,
            key: 0xabc_def,
            kind: VariantKind::Undirected,
            converged: true,
            iterations: 4,
            local_rounds: 28,
            star_fallbacks: 0,
            edges,
        })
        .collect()
}

fn encode_request(r: &Request) -> String {
    match r {
        Request::Run(spec) => wire::encode_request(spec),
        Request::Stats => wire::encode_stats_request(),
        Request::Ping => wire::encode_ping_request(),
        Request::Hello { proto } => wire::encode_hello_request(*proto),
        Request::GraphCreate(spec) => wire::encode_graph_create(spec),
        Request::GraphPatch { id, ops } => wire::encode_graph_patch(id, ops),
        Request::GraphGet { id } => wire::encode_graph_get(id),
        Request::GraphSpanner { id } => wire::encode_graph_spanner_request(id),
        Request::GraphDelete { id } => wire::encode_graph_delete(id),
    }
}

fn encode_response(r: &Response) -> String {
    match r {
        Response::Run(resp) => wire::encode_run_response(resp),
        Response::Stats(json) => wire::encode_stats_response(json),
        Response::Pong => wire::encode_pong_response(),
        Response::Busy { retry_after_ms } => wire::encode_busy_response(*retry_after_ms),
        Response::Error(message) => wire::encode_error_response(message),
        Response::Hello { proto, features } => {
            let features: Vec<&str> = features.iter().map(String::as_str).collect();
            wire::encode_hello_response(*proto, &features)
        }
        Response::GraphCreated(r) => wire::encode_graph_created(r),
        Response::GraphPatched(r) => wire::encode_graph_patched(r),
        Response::GraphMeta(r) => wire::encode_graph_meta(r),
        Response::GraphSpanner(r) => wire::encode_graph_spanner_response(r),
        Response::GraphDeleted { id } => wire::encode_graph_deleted(id),
    }
}

#[test]
fn text_frames_are_pinned_byte_for_byte() {
    let mut requests: Vec<String> = run_specs().iter().map(wire::encode_request).collect();
    requests.extend([
        wire::encode_graph_create(&graph_spec()),
        wire::encode_graph_patch("g", &ops()),
        wire::encode_graph_get("a.b"),
        wire::encode_graph_spanner_request("a.b"),
        wire::encode_graph_delete("a.b"),
        wire::encode_hello_request(2),
        wire::encode_stats_request(),
        wire::encode_ping_request(),
    ]);
    assert_eq!(requests, PINNED_TEXT_REQUESTS);
    for pinned in PINNED_TEXT_REQUESTS {
        let decoded = wire::decode_request(pinned.as_bytes())
            .unwrap_or_else(|e| panic!("{pinned:?} does not decode: {e}"));
        assert_eq!(encode_request(&decoded), pinned);
    }

    let mut responses: Vec<String> = run_responses()
        .iter()
        .map(wire::encode_run_response)
        .collect();
    responses.extend([
        wire::encode_stats_response("{\"jobs_submitted\":1}"),
        wire::encode_pong_response(),
        wire::encode_busy_response(1_250),
        wire::encode_error_response("multi\nline gets flattened"),
        wire::encode_hello_response(2, &["graphs"]),
        wire::encode_hello_response(1, &[]),
        wire::encode_graph_created(&created()),
        wire::encode_graph_patched(&patched()),
    ]);
    responses.extend(metas().iter().map(wire::encode_graph_meta));
    responses.extend(spanners().iter().map(wire::encode_graph_spanner_response));
    responses.push(wire::encode_graph_deleted("g"));
    assert_eq!(responses, PINNED_TEXT_RESPONSES);
    for pinned in PINNED_TEXT_RESPONSES {
        let decoded = wire::decode_response(pinned.as_bytes())
            .unwrap_or_else(|e| panic!("{pinned:?} does not decode: {e}"));
        assert_eq!(encode_response(&decoded), pinned);
    }
}

#[test]
fn json_bodies_are_pinned_byte_for_byte() {
    let specs: Vec<String> = run_specs().iter().map(http::encode_job_spec).collect();
    assert_eq!(specs, PINNED_JSON_JOB_SPECS);
    for pinned in PINNED_JSON_JOB_SPECS {
        let back = http::decode_job_spec(pinned.as_bytes()).expect("job spec decodes");
        assert_eq!(http::encode_job_spec(&back), pinned);
    }
    let spec = graph_spec();
    let create = http::encode_graph_create_body(&spec);
    assert_eq!(create, PINNED_JSON_GRAPH_CREATE);
    let back = http::decode_graph_create_body(&spec.id, create.as_bytes()).expect("create");
    assert_eq!(http::encode_graph_create_body(&back), create);
    let patch = http::encode_graph_patch_body(&ops());
    assert_eq!(patch, PINNED_JSON_GRAPH_PATCH);
    let back = http::decode_graph_patch_body(patch.as_bytes()).expect("patch decodes");
    assert_eq!(http::encode_graph_patch_body(&back), patch);

    let mut responses: Vec<String> = run_responses()
        .iter()
        .map(http::encode_job_response)
        .collect();
    responses.push(http::encode_graph_created_body(&created()));
    responses.push(http::encode_graph_patched_body(&patched()));
    responses.extend(metas().iter().map(http::encode_graph_meta_body));
    responses.extend(spanners().iter().map(http::encode_graph_spanner_body));
    responses.push(http::encode_graph_deleted_body("g"));
    assert_eq!(responses, PINNED_JSON_RESPONSES);
    // Decode each body with its own decoder and re-encode it (the
    // delete body has no decoder: clients only read its status).
    type Reencode = fn(&[u8]) -> String;
    let job: Reencode = |b| http::encode_job_response(&http::decode_job_response(b).unwrap());
    let created: Reencode =
        |b| http::encode_graph_created_body(&http::decode_graph_created_body(b).unwrap());
    let patched: Reencode =
        |b| http::encode_graph_patched_body(&http::decode_graph_patched_body(b).unwrap());
    let meta: Reencode =
        |b| http::encode_graph_meta_body(&http::decode_graph_meta_body(b).unwrap());
    let spanner: Reencode =
        |b| http::encode_graph_spanner_body(&http::decode_graph_spanner_body(b).unwrap());
    let decoders = [job, job, created, patched, meta, meta, spanner, spanner];
    for (pinned, reencode) in PINNED_JSON_RESPONSES.iter().zip(decoders) {
        assert_eq!(reencode(pinned.as_bytes()), *pinned);
    }

    // The error body, as the facade serves it.
    let server =
        http::HttpServer::start("127.0.0.1:0", &crate::ServiceConfig::default()).expect("bind");
    let mut client = http::HttpClient::connect(server.addr()).expect("connect");
    let (status, body) = client.request("GET", "/v1/jobs", None).expect("request");
    assert_eq!(status, 405);
    assert_eq!(String::from_utf8(body).expect("UTF-8"), PINNED_JSON_ERROR);
    server.shutdown();
}

const PINNED_TEXT_REQUESTS: [&str; 12] = [
    "run v1\nvariant undirected\nseed 7\naccept-denominator 16\nmonotone 0\nround-densities 0\nmax-iterations 12345\nshards 4\ntimeout-ms 1500\ngraph\n# n 4\n0 1\n1 2\n2 3\n0 2\n",
    "run v1\nvariant weighted\nseed 5\naccept-denominator 8\nmonotone 1\nround-densities 1\nmax-iterations 1000000\nshards 0\ngraph\n# n 4\n0 1 2\n1 2 0\n2 3 5\n0 2 7\n",
    "run v1\nvariant directed\nseed 4\naccept-denominator 8\nmonotone 1\nround-densities 1\nmax-iterations 1000000\ntimeout-ms 18446744073709551615\ngraph\n# n 3\n0 1\n1 2\n2 0\n",
    "run v1\nvariant client-server\nseed 18446744073709551615\naccept-denominator 8\nmonotone 1\nround-densities 1\nmax-iterations 9\nclients 0 1 3\nservers \ngraph\n# n 4\n0 1\n1 2\n2 3\n0 2\n",
    "graph-create v2\nid prod.web-1\nvariant weighted\nseed 9\naccept-denominator 4\nmonotone 1\nround-densities 1\nmax-iterations 1000000\ngraph\n# n 4\n0 1 3\n1 2 1\n2 3 4\n0 2 1\n",
    "graph-patch v2\nid g\nops\n+ 0 1\n+ 1 2 9\n+ 2 3 server\n- 0 1\n",
    "graph-get v2\nid a.b\n",
    "graph-spanner v2\nid a.b\n",
    "graph-delete v2\nid a.b\n",
    "hello v2\n",
    "stats v1\n",
    "ping v1\n",
];
const PINNED_TEXT_RESPONSES: [&str; 15] = [
    "ok run\nkey deadbeef01234567\nvariant client-server\nconverged 1\niterations 7\nlocal-rounds 49\nstar-fallbacks 0\nspanner-size 3\nspanner 0 3 9\n",
    "ok run\nkey 0000000000000042\nvariant directed\nconverged 0\niterations 7\nlocal-rounds 49\nstar-fallbacks 2\nspanner-size 0\nspanner \n",
    "ok stats\n{\"jobs_submitted\":1}\n",
    "ok ping\n",
    "busy 1250\n",
    "err multi line gets flattened\n",
    "ok hello\nproto 2\nfeatures graphs\n",
    "ok hello\nproto 1\nfeatures\n",
    "ok graph-create\nid g\nversion 3\nedges 17\nspanner-size 9\nexisted 1\n",
    "ok graph-patch\nid g\nversion 12\napplied 4\ncommuted 2\nrepaired 1\nrecomputed 1\nedges 20\n",
    "ok graph-get\nid g\nvariant weighted\nversion 5\nvertices 40\nedges 21\nseed 8\ncover-size 7\ndebt 3\ncommuted 9\nrepaired 3\nrecomputed 2\n",
    "ok graph-get\nid g\nvariant weighted\nversion 5\nvertices 40\nedges 21\nseed 8\ncover-size none\ndebt 3\ncommuted 9\nrepaired 3\nrecomputed 2\n",
    "ok graph-spanner\nid g\nversion 6\nkey 0000000000abcdef\nvariant undirected\nconverged 1\niterations 4\nlocal-rounds 28\nstar-fallbacks 0\nspanner-size 2\nspanner\n0 1\n2 3\n",
    "ok graph-spanner\nid g\nversion 6\nkey 0000000000abcdef\nvariant undirected\nconverged 1\niterations 4\nlocal-rounds 28\nstar-fallbacks 0\nspanner-size 0\nspanner\n",
    "ok graph-delete\nid g\n",
];
const PINNED_JSON_JOB_SPECS: [&str; 4] = [
    r#"{"variant":"undirected","seed":7,"graph":{"n":4,"edges":[[0,1],[1,2],[2,3],[0,2]]},"accept_denominator":16,"monotone":false,"round_densities":false,"max_iterations":12345,"shards":4,"timeout_ms":1500}"#,
    r#"{"variant":"weighted","seed":5,"graph":{"n":4,"edges":[[0,1,2],[1,2,0],[2,3,5],[0,2,7]]},"accept_denominator":8,"monotone":true,"round_densities":true,"max_iterations":1000000,"shards":0}"#,
    r#"{"variant":"directed","seed":4,"graph":{"n":3,"edges":[[0,1],[1,2],[2,0]]},"accept_denominator":8,"monotone":true,"round_densities":true,"max_iterations":1000000,"timeout_ms":18446744073709551615}"#,
    r#"{"variant":"client-server","seed":18446744073709551615,"graph":{"n":4,"edges":[[0,1],[1,2],[2,3],[0,2]]},"clients":[0,1,3],"servers":[],"accept_denominator":8,"monotone":true,"round_densities":true,"max_iterations":9}"#,
];
const PINNED_JSON_GRAPH_CREATE: &str = r#"{"variant":"weighted","seed":9,"graph":{"n":4,"edges":[[0,1,3],[1,2,1],[2,3,4],[0,2,1]]},"accept_denominator":4,"monotone":true,"round_densities":true,"max_iterations":1000000}"#;
const PINNED_JSON_GRAPH_PATCH: &str =
    r#"{"insert":[[0,1],[1,2,9],[2,3,"server"]],"delete":[[0,1]]}"#;
const PINNED_JSON_RESPONSES: [&str; 9] = [
    r#"{"key":"deadbeef01234567","variant":"client-server","converged":true,"iterations":7,"local_rounds":49,"star_fallbacks":0,"spanner_size":3,"spanner":[0,3,9]}"#,
    r#"{"key":"0000000000000042","variant":"directed","converged":false,"iterations":7,"local_rounds":49,"star_fallbacks":2,"spanner_size":0,"spanner":[]}"#,
    r#"{"id":"g","version":3,"edges":17,"spanner_size":9,"existed":true}"#,
    r#"{"id":"g","version":12,"applied":4,"commuted":2,"repaired":1,"recomputed":1,"edges":20}"#,
    r#"{"id":"g","variant":"weighted","version":5,"vertices":40,"edges":21,"seed":8,"cover_size":7,"debt":3,"commuted":9,"repaired":3,"recomputed":2}"#,
    r#"{"id":"g","variant":"weighted","version":5,"vertices":40,"edges":21,"seed":8,"cover_size":null,"debt":3,"commuted":9,"repaired":3,"recomputed":2}"#,
    r#"{"id":"g","version":6,"key":"0000000000abcdef","variant":"undirected","converged":true,"iterations":4,"local_rounds":28,"star_fallbacks":0,"spanner_size":2,"spanner":[[0,1],[2,3]]}"#,
    r#"{"id":"g","version":6,"key":"0000000000abcdef","variant":"undirected","converged":true,"iterations":4,"local_rounds":28,"star_fallbacks":0,"spanner_size":0,"spanner":[]}"#,
    r#"{"id":"g","deleted":true}"#,
];
const PINNED_JSON_ERROR: &str = r#"{"error":"use POST for /v1/jobs","code":"method_not_allowed"}"#;
