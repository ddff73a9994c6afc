//! Seeded problem instances, their pre-encoded requests, the served
//! body check, and the in-process request path the traced run spans.

use std::collections::HashSet;

use dsa_core::dist::{VariantInstance, VariantKind};
use dsa_graphs::{gen, DiGraph, Graph};
use dsa_service::wire::{self, Request, Response};
use dsa_service::{http, JobResponse, JobSpec, Service};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::common::{Req, Surface};
use crate::reference;
use crate::trace::SpanLog;

/// A connected random instance of `kind` with exactly `m` edges on `n`
/// vertices: a random Hamiltonian path plus uniformly drawn further
/// edges (arcs for the directed variant), in a seeded random order, so
/// the service's canonicalization does real work. A fixed edge count
/// keeps instances of one shape close in cost. Weighted instances draw
/// costs from 0..=9; client-server instances split 60/60.
pub fn instance(kind: VariantKind, n: usize, m: usize, seed: u64) -> VariantInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let directed = kind == VariantKind::Directed;
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let norm = |u: usize, v: usize| if directed || u < v { (u, v) } else { (v, u) };
    let mut seen = HashSet::new();
    let mut pairs: Vec<(usize, usize)> = order.windows(2).map(|w| norm(w[0], w[1])).collect();
    seen.extend(pairs.iter().copied());
    while pairs.len() < m {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v && seen.insert(norm(u, v)) {
            pairs.push(norm(u, v));
        }
    }
    pairs.shuffle(&mut rng);
    if directed {
        return VariantInstance::Directed {
            graph: DiGraph::from_edges(n, pairs),
        };
    }
    let graph = Graph::from_edges(n, pairs);
    match kind {
        VariantKind::Weighted => {
            let weights = gen::random_weights(graph.num_edges(), 0, 9, &mut rng);
            VariantInstance::Weighted { graph, weights }
        }
        VariantKind::ClientServer => {
            let (clients, servers) = gen::client_server_split(&graph, 0.6, 0.6, &mut rng);
            VariantInstance::ClientServer {
                graph,
                clients,
                servers,
            }
        }
        _ => VariantInstance::Undirected { graph },
    }
}

/// `spec` as a request on `surface`.
pub fn job_request(spec: &JobSpec, surface: Surface) -> Req {
    match surface {
        Surface::Tcp => Req::Tcp(wire::encode_request(spec)),
        Surface::Http => Req::Http {
            method: "POST",
            path: "/v1/jobs".into(),
            body: Some(http::encode_job_spec(spec)),
        },
    }
}

/// The key a served job body carries.
pub fn served_job_key(surface: Surface, body: &[u8]) -> Result<u64, String> {
    match surface {
        Surface::Tcp => match wire::decode_response(body) {
            Ok(Response::Run(r)) => Ok(r.key),
            other => Err(format!("not a run response: {other:?}")),
        },
        Surface::Http => http::decode_job_response(body)
            .map(|r| r.key)
            .map_err(|e| e.to_string()),
    }
}

/// `resp` encoded as `surface` encodes it.
pub fn encode_job(surface: Surface, resp: &JobResponse) -> String {
    match surface {
        Surface::Tcp => wire::encode_run_response(resp),
        Surface::Http => http::encode_job_response(resp),
    }
}

/// Checks a served job body byte-for-byte against the from-scratch
/// reference (keyed with the served key). Returns the served key.
pub fn check_job_body(
    surface: Surface,
    body: &[u8],
    reference: &JobResponse,
) -> Result<u64, String> {
    let key = served_job_key(surface, body)?;
    let expected = encode_job(
        surface,
        &JobResponse {
            key,
            ..reference.clone()
        },
    );
    if expected.as_bytes() == body {
        Ok(key)
    } else {
        Err(format!(
            "served {surface:?} body differs from the from-scratch solve (key {key:016x})"
        ))
    }
}

/// Serves `req` in-process through the same public calls the frontend
/// makes for its surface, with a span around each: decode, canon (an
/// extra canonicalization of the decoded instance, timed separately
/// because `Service::submit` canonicalizes internally), submit, wait
/// and encode for jobs; decode, the graph call and encode for graph
/// ops. Returns the body the frontend would have sent.
pub fn serve_in_process(
    service: &Service,
    req: &Req,
    log: &mut SpanLog,
    request: u64,
    root: u64,
) -> Result<Vec<u8>, String> {
    let parent = Some(root);
    let err = |e: &dyn std::fmt::Display| e.to_string();
    match req {
        Req::Tcp(payload) => {
            let decoded = log.span("wire.decode", request, parent, |_, _| {
                wire::decode_request(payload.as_bytes())
            });
            let body = match decoded.map_err(|e| err(&e))? {
                Request::Run(spec) => {
                    let resp = job_in_process(service, &spec, log, request, parent)?;
                    log.span("wire.encode", request, parent, |_, _| {
                        wire::encode_run_response(&resp)
                    })
                }
                Request::GraphPatch { id, ops } => {
                    let r = log
                        .span("graphs.patch", request, parent, |_, _| {
                            service.graph_patch(&id, &ops)
                        })
                        .map_err(|e| err(&e))?;
                    log.span("wire.encode", request, parent, |_, _| {
                        wire::encode_graph_patched(&r)
                    })
                }
                Request::GraphSpanner { id } => {
                    let r = log
                        .span("graphs.spanner", request, parent, |_, _| {
                            service.graph_spanner(&id)
                        })
                        .map_err(|e| err(&e))?;
                    log.span("wire.encode", request, parent, |_, _| {
                        wire::encode_graph_spanner_response(&r)
                    })
                }
                other => return Err(format!("unexpected request {other:?}")),
            };
            Ok(body.into_bytes())
        }
        Req::Http { method, path, body } => {
            let bytes = body.as_deref().unwrap_or("").as_bytes();
            let graph = path.strip_prefix("/v1/graphs/");
            let out = match (*method, graph) {
                ("POST", None) => {
                    let spec = log
                        .span("http.decode", request, parent, |_, _| {
                            http::decode_job_spec(bytes)
                        })
                        .map_err(|e| err(&e))?;
                    let resp = job_in_process(service, &spec, log, request, parent)?;
                    log.span("http.encode", request, parent, |_, _| {
                        http::encode_job_response(&resp)
                    })
                }
                ("PATCH", Some(id)) => {
                    let ops = log
                        .span("http.decode", request, parent, |_, _| {
                            http::decode_graph_patch_body(bytes)
                        })
                        .map_err(|e| err(&e))?;
                    let r = log
                        .span("graphs.patch", request, parent, |_, _| {
                            service.graph_patch(id, &ops)
                        })
                        .map_err(|e| err(&e))?;
                    log.span("http.encode", request, parent, |_, _| {
                        http::encode_graph_patched_body(&r)
                    })
                }
                ("GET", Some(rest)) => {
                    let id = rest
                        .strip_suffix("/spanner")
                        .ok_or("unexpected graph path")?;
                    let r = log
                        .span("graphs.spanner", request, parent, |_, _| {
                            service.graph_spanner(id)
                        })
                        .map_err(|e| err(&e))?;
                    log.span("http.encode", request, parent, |_, _| {
                        http::encode_graph_spanner_body(&r)
                    })
                }
                _ => return Err(format!("unexpected request {method} {path}")),
            };
            Ok(out.into_bytes())
        }
    }
}

fn job_in_process(
    service: &Service,
    spec: &JobSpec,
    log: &mut SpanLog,
    request: u64,
    parent: Option<u64>,
) -> Result<JobResponse, String> {
    log.span("canon", request, parent, |_, _| {
        reference::canonicalize(&spec.instance)
    });
    let handle = log
        .span("service.submit", request, parent, |_, _| {
            service.submit(spec)
        })
        .map_err(|e| e.to_string())?;
    log.span("service.wait", request, parent, |_, _| handle.wait())
        .map_err(|e| e.to_string())
}
