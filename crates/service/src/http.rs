//! The HTTP/JSON facade over [`Service`] — same cache, worker pool,
//! and coalescing map as the TCP wire frontend, reachable by browsers,
//! `curl`, and standard load-testing tools.
//!
//! Like [`crate::wire`], the protocol layer is hand-rolled (the build
//! environment is offline): a deliberately small HTTP/1.1 subset —
//! request line + headers + `Content-Length` bodies, keep-alive,
//! `Expect: 100-continue` — with every request and response body in
//! JSON via [`dsa_runtime::json`].
//!
//! # Routes
//!
//! | Method & path                  | Body              | Response                     |
//! |--------------------------------|-------------------|------------------------------|
//! | `POST /v1/jobs`                | job spec (JSON)   | job result (JSON)            |
//! | `PUT /v1/graphs/{id}`          | graph spec (JSON) | created graph (201/200)      |
//! | `PATCH /v1/graphs/{id}`        | edge deltas (JSON)| applied patch + classes      |
//! | `GET /v1/graphs/{id}`          | —                 | metadata + maintenance stats |
//! | `GET /v1/graphs/{id}/spanner`  | —                 | the maintained spanner       |
//! | `DELETE /v1/graphs/{id}`       | —                 | `{"id":...,"deleted":true}`  |
//! | `GET /v1/metrics`              | —                 | coherent counters + p50/p95  |
//! | `GET /healthz`                 | —                 | `{"status":"ok"}`            |
//!
//! Every request and response body is declared once in the message
//! schema, next to the TCP frame carrying the same message; the
//! README's "Message reference" lists both renderings. The graph routes
//! are the resource-oriented face of [`crate::graphs`]: the id travels
//! in the path, a `PATCH` body applies its inserts before its deletes,
//! and `GET .../spanner` returns the maintained spanner as `[u, v]`
//! endpoint pairs — byte-deterministic for a given create + delta
//! history, equal to a from-scratch solve of the live edge set. A JSON
//! job and a text job over the same edge set map to the same canonical
//! job and share one cache entry, and a result carries no serving
//! incidentals, so repeated submissions of one spec return
//! **byte-identical** bodies whether computed cold, coalesced, or
//! served from cache.
//!
//! `GET /v1/metrics` additionally accepts `?format=prometheus`, which
//! returns the same snapshot in the Prometheus text exposition format
//! (version 0.0.4, `Content-Type: text/plain`) with a fixed metric and
//! label order — see [`crate::metrics::MetricsSnapshot::to_prometheus`].
//! `?format=json` (and no query at all) select the JSON body; any
//! other `format` value is a 400.
//!
//! # Status codes
//!
//! The status/code table lives in [`STATUS_TABLE`] — one source of
//! truth rendered into the README by [`status_table_markdown`] and
//! into every error body's `code` field. A 429 carries a
//! `Retry-After` header (integer seconds, rounded up from the
//! service's millisecond hint) derived from the observed p95 engine
//! latency and the queue backlog; [`HttpClient::run_with_retry`]
//! honors it.
//!
//! Every error response body is
//! `{"error": "<message>", "code": "<slug>"}` — `error` is
//! human-readable prose that may change between releases, `code` is a
//! stable machine-readable slug (mirroring the [`JobError`] variants
//! for job routes). Clients written against the pre-`code` bodies
//! keep working: the `error` field is unchanged. Errors that
//! leave the byte stream well-defined (routing, JSON, validation) keep
//! the connection open; errors that desynchronize it (oversized or
//! truncated requests) close it. A request whose bytes stall mid-flight
//! longer than the read budget ([`ServiceConfig::read_budget`]) also
//! closes the connection (slow-loris defense, counted in
//! `connections_timed_out`).

use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use crate::graphs::{
    DeltaOp, GraphCreated, GraphError, GraphMeta, GraphPatched, GraphSpannerResult, GraphSpec,
};
use crate::job::{JobError, JobResponse, JobSpec};
use crate::net::{ListenerHandle, ShutdownReader, IDLE_POLL};
use crate::retry::{Attempt, RetryPolicy};
use crate::schema;
use crate::service::{Service, ServiceConfig};

/// Upper bound on a request body (matches [`crate::wire::MAX_FRAME`]):
/// a million-edge graph as JSON fits, while a hostile `Content-Length`
/// cannot trigger an absurd allocation.
pub const MAX_BODY: usize = 64 << 20;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD: usize = 32 << 10;

/// A running HTTP frontend. Dropping it (or calling
/// [`HttpServer::shutdown`]) stops the accept loop and joins the
/// connection threads.
pub struct HttpServer {
    listener: ListenerHandle,
    service: Arc<Service>,
}

impl HttpServer {
    /// Binds `addr` (port 0 for ephemeral) and serves a fresh
    /// [`Service`] built from `cfg`.
    pub fn start<A: ToSocketAddrs>(addr: A, cfg: &ServiceConfig) -> std::io::Result<HttpServer> {
        HttpServer::with_service(addr, Arc::new(Service::new(cfg)))
    }

    /// Like [`HttpServer::start`], over an existing service — the way
    /// `spanner-serve` runs it, so HTTP and TCP clients share one
    /// cache, worker pool, and coalescing map.
    pub fn with_service<A: ToSocketAddrs>(
        addr: A,
        service: Arc<Service>,
    ) -> std::io::Result<HttpServer> {
        let listener = {
            let service = Arc::clone(&service);
            ListenerHandle::start(
                addr,
                "spanner-http-accept",
                "spanner-http-conn",
                move |stream, stop| serve_http_connection(stream, &service, stop),
            )?
        };
        Ok(HttpServer { listener, service })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The shared service behind this frontend.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Stops accepting, waits for live connections to finish their
    /// current request, and joins the accept loop.
    pub fn shutdown(mut self) {
        self.listener.shutdown();
    }
}

/// One parsed request head.
struct Head {
    method: String,
    path: String,
    /// Raw query string (without the `?`), empty when absent.
    query: String,
    keep_alive: bool,
    content_length: usize,
    expect_continue: bool,
}

/// What became of an attempt to read one request.
enum ReadOutcome {
    /// A complete request (head + body).
    Request(Head, Vec<u8>),
    /// Clean EOF, shutdown, or a truncated request: close silently.
    Close,
    /// Protocol-level rejection: respond with this status and close.
    Reject(u16, String),
}

fn serve_http_connection(stream: TcpStream, service: &Arc<Service>, stop: &AtomicBool) {
    // Same idle-poll pattern as the wire frontend: a read timeout
    // turns a blocked read into a periodic shutdown-flag check, and
    // `ShutdownReader` retries so in-flight requests are unaffected —
    // while a per-request deadline armed by the first byte defends
    // against slow-loris reads.
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    let mut reader = ShutdownReader::new(&stream, stop, service.read_budget());
    let mut writer = &stream;
    let mut pending: Vec<u8> = Vec::new();
    loop {
        match read_request(&mut pending, &mut reader, &stream) {
            ReadOutcome::Close => {
                if reader.timed_out() {
                    service.on_connection_timed_out();
                }
                break;
            }
            ReadOutcome::Reject(status, message) => {
                // The byte stream is no longer trustworthy after a
                // rejected head: answer and close.
                let _ = write_response(
                    &mut writer,
                    status,
                    None,
                    None,
                    CT_JSON,
                    &error_body(reject_code(status), &message),
                    false,
                );
                break;
            }
            ReadOutcome::Request(head, body) => {
                reader.finish_message();
                let (status, allow, retry_after_ms, content_type, resp_body) =
                    route(&head.method, &head.path, &head.query, &body, service);
                // Chaos hook: the connection drops mid-response — head
                // promising a full body, only half of it written. A
                // retrying client reconnects and resubmits.
                if service.fault().fire("conn.drop") {
                    use std::io::Write;
                    let head_text = format!(
                        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
                        status_reason(status),
                        resp_body.len(),
                    );
                    let _ = writer.write_all(head_text.as_bytes());
                    let _ = writer.write_all(&resp_body.as_bytes()[..resp_body.len() / 2]);
                    let _ = writer.flush();
                    break;
                }
                if write_response(
                    &mut writer,
                    status,
                    allow,
                    retry_after_ms,
                    content_type,
                    &resp_body,
                    head.keep_alive,
                )
                .is_err()
                {
                    break;
                }
                if !head.keep_alive {
                    break;
                }
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads one full request (head + body) from `pending` + `reader`.
/// `stream` is borrowed only to emit `100 Continue` interim responses.
fn read_request(
    pending: &mut Vec<u8>,
    reader: &mut ShutdownReader<'_>,
    mut stream: &TcpStream,
) -> ReadOutcome {
    use std::io::{Read, Write};
    // 1. Accumulate bytes until the head terminator (CRLFCRLF, or
    //    bare LFLF from lenient clients) is in the buffer.
    let (head_len, term_len) = loop {
        if let Some(found) = head_end(pending) {
            break found;
        }
        if pending.len() > MAX_HEAD {
            return ReadOutcome::Reject(431, "request head too large".into());
        }
        let mut chunk = [0u8; 4096];
        match reader.read(&mut chunk) {
            // EOF with a partial head is a truncated request; EOF on
            // an empty buffer is a clean close. Either way: close.
            Ok(0) => return ReadOutcome::Close,
            Ok(k) => pending.extend_from_slice(&chunk[..k]),
            Err(_) => return ReadOutcome::Close,
        }
    };
    let head_bytes: Vec<u8> = pending.drain(..head_len + term_len).collect();
    let head = match parse_head(&head_bytes[..head_len]) {
        Ok(head) => head,
        Err(reject) => return reject,
    };
    if head.content_length > MAX_BODY {
        return ReadOutcome::Reject(
            413,
            format!(
                "body of {} bytes exceeds limit {MAX_BODY}",
                head.content_length
            ),
        );
    }
    // 2. `curl` sends bodies above ~1 KiB only after the server
    //    acknowledges the Expect header.
    if head.expect_continue && head.content_length > 0 {
        let _ = stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
        let _ = stream.flush();
    }
    // 3. Read the body (some of it may already be buffered).
    while pending.len() < head.content_length {
        let mut chunk = [0u8; 4096];
        match reader.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Close, // truncated body
            Ok(k) => pending.extend_from_slice(&chunk[..k]),
            Err(_) => return ReadOutcome::Close,
        }
    }
    let body: Vec<u8> = pending.drain(..head.content_length).collect();
    ReadOutcome::Request(head, body)
}

/// Finds the end of the request head: returns (head length, terminator
/// length). Accepts `\r\n\r\n` and the bare-`\n\n` form.
fn head_end(buf: &[u8]) -> Option<(usize, usize)> {
    for i in 0..buf.len() {
        if buf[i..].starts_with(b"\r\n\r\n") {
            return Some((i, 4));
        }
        if buf[i..].starts_with(b"\n\n") {
            return Some((i, 2));
        }
    }
    None
}

fn parse_head(bytes: &[u8]) -> Result<Head, ReadOutcome> {
    let reject = |status: u16, msg: &str| Err(ReadOutcome::Reject(status, msg.to_string()));
    let Ok(text) = std::str::from_utf8(bytes) else {
        return reject(400, "request head is not UTF-8");
    };
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return reject(400, "malformed request line");
    };
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return reject(505, "only HTTP/1.0 and HTTP/1.1 are supported"),
    };
    // Routes are matched on the path alone so `/healthz?probe=1`
    // still resolves; the query is kept for handlers that accept
    // options (e.g. `/v1/metrics?format=prometheus`).
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut head = Head {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        keep_alive: keep_alive_default,
        content_length: 0,
        expect_continue: false,
    };
    let mut seen_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return reject(400, "malformed header line");
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let Ok(len) = value.parse::<usize>() else {
                    return reject(400, "invalid Content-Length");
                };
                if seen_length.is_some_and(|prev| prev != len) {
                    return reject(400, "conflicting Content-Length headers");
                }
                seen_length = Some(len);
                head.content_length = len;
            }
            "transfer-encoding" => {
                return reject(
                    501,
                    "Transfer-Encoding is not supported; send Content-Length",
                );
            }
            "connection" => {
                if value.eq_ignore_ascii_case("close") {
                    head.keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    head.keep_alive = true;
                }
            }
            "expect" => {
                if value.eq_ignore_ascii_case("100-continue") {
                    head.expect_continue = true;
                } else {
                    return reject(400, "unsupported Expect header");
                }
            }
            // Every other header (Host, User-Agent, Accept, ...) is
            // irrelevant to the facade and ignored.
            _ => {}
        }
    }
    Ok(head)
}

/// Content type of every JSON response body.
const CT_JSON: &str = "application/json";
/// Content type of the Prometheus text exposition format.
const CT_PROMETHEUS: &str = "text/plain; version=0.0.4";

/// Dispatches one request: returns (status, Allow header for 405,
/// Retry-After hint in ms for 429, Content-Type, response body).
fn route(
    method: &str,
    path: &str,
    query: &str,
    body: &[u8],
    service: &Service,
) -> (u16, Option<&'static str>, Option<u64>, &'static str, String) {
    // Every route except the Prometheus exposition answers JSON; fold
    // the shorter tuple shape back in so the match arms stay readable.
    let json = |(status, allow, retry, body): (u16, Option<&'static str>, Option<u64>, String)| {
        (status, allow, retry, CT_JSON, body)
    };
    if (path, method) == ("/v1/metrics", "GET") {
        // `format` selects the representation; anything else in the
        // query is ignored, mirroring how unknown headers are ignored.
        return match query_param(query, "format") {
            None | Some("json") => (200, None, None, CT_JSON, service.metrics().to_json()),
            Some("prometheus") => (
                200,
                None,
                None,
                CT_PROMETHEUS,
                service.metrics().to_prometheus(),
            ),
            Some(other) => json((
                400,
                None,
                None,
                error_body(
                    "bad_request",
                    &format!("unknown metrics format `{other}` (expected `json` or `prometheus`)"),
                ),
            )),
        };
    }
    if let Some(rest) = path.strip_prefix("/v1/graphs/") {
        return json(route_graph(method, rest, body, service));
    }
    json(match (path, method) {
        ("/v1/jobs", "POST") => match decode_job_spec(body) {
            Err(e) => (400, None, None, error_body("bad_request", &e.to_string())),
            Ok(spec) => match service.run(&spec) {
                Ok(resp) => (200, None, None, encode_job_response(&resp)),
                Err(e @ JobError::Busy { retry_after_ms }) => {
                    let (status, code) = job_error_status_code(&e);
                    (
                        status,
                        None,
                        Some(retry_after_ms),
                        error_body(code, &e.to_string()),
                    )
                }
                Err(e) => {
                    let (status, code) = job_error_status_code(&e);
                    (status, None, None, error_body(code, &e.to_string()))
                }
            },
        },
        ("/v1/jobs", _) => (
            405,
            Some("POST"),
            None,
            error_body("method_not_allowed", "use POST for /v1/jobs"),
        ),
        ("/v1/metrics", _) => (
            405,
            Some("GET"),
            None,
            error_body("method_not_allowed", "use GET for /v1/metrics"),
        ),
        ("/healthz", "GET") => (200, None, None, schema::PONG.json(&())),
        ("/healthz", _) => (
            405,
            Some("GET"),
            None,
            error_body("method_not_allowed", "use GET for /healthz"),
        ),
        _ => (
            404,
            None,
            None,
            error_body(
                "not_found",
                &format!(
                    "no route for `{path}` (try POST /v1/jobs, PUT /v1/graphs/{{id}}, \
                     GET /v1/metrics, GET /healthz)"
                ),
            ),
        ),
    })
}

/// Dispatches one `/v1/graphs/{id}[/spanner]` request; `rest` is the
/// path after the prefix.
fn route_graph(
    method: &str,
    rest: &str,
    body: &[u8],
    service: &Service,
) -> (u16, Option<&'static str>, Option<u64>, String) {
    let graph_err = |e: GraphError| {
        let (status, code) = graph_error_status_code(&e);
        let retry = match &e {
            GraphError::Job(JobError::Busy { retry_after_ms }) => Some(*retry_after_ms),
            _ => None,
        };
        (status, None, retry, error_body(code, &e.to_string()))
    };
    let (id, sub) = match rest.split_once('/') {
        None => (rest, None),
        Some((id, "spanner")) => (id, Some("spanner")),
        Some((_, other)) => {
            return (
                404,
                None,
                None,
                error_body(
                    "not_found",
                    &format!("no graph subresource `{other}` (try /spanner)"),
                ),
            )
        }
    };
    match (sub, method) {
        (None, "PUT") => match decode_graph_create_body(id, body) {
            Err(e) => (400, None, None, error_body("bad_request", &e.to_string())),
            Ok(spec) => match service.graph_create(spec) {
                Ok(created) => {
                    let status = if created.existed { 200 } else { 201 };
                    (status, None, None, encode_graph_created_body(&created))
                }
                Err(e) => graph_err(e),
            },
        },
        (None, "PATCH") => match decode_graph_patch_body(body) {
            Err(e) => (400, None, None, error_body("bad_request", &e.to_string())),
            Ok(ops) => match service.graph_patch(id, &ops) {
                Ok(patched) => (200, None, None, encode_graph_patched_body(&patched)),
                Err(e) => graph_err(e),
            },
        },
        (None, "GET") => match service.graph_meta(id) {
            Ok(meta) => (200, None, None, encode_graph_meta_body(&meta)),
            Err(e) => graph_err(e),
        },
        (None, "DELETE") => match service.graph_delete(id) {
            Ok(()) => (200, None, None, encode_graph_deleted_body(id)),
            Err(e) => graph_err(e),
        },
        (None, _) => (
            405,
            Some("GET, PUT, PATCH, DELETE"),
            None,
            error_body(
                "method_not_allowed",
                "use PUT/PATCH/GET/DELETE for /v1/graphs/{id}",
            ),
        ),
        (Some(_), "GET") => match service.graph_spanner(id) {
            Ok(spanner) => (200, None, None, encode_graph_spanner_body(&spanner)),
            Err(e) => graph_err(e),
        },
        (Some(_), _) => (
            405,
            Some("GET"),
            None,
            error_body("method_not_allowed", "use GET for /v1/graphs/{id}/spanner"),
        ),
    }
}

/// The HTTP status and stable machine-readable `code` slug for a
/// [`JobError`] — the single mapping behind `POST /v1/jobs` error
/// bodies (and, via [`graph_error_status_code`], the graph routes).
pub fn job_error_status_code(e: &JobError) -> (u16, &'static str) {
    match e {
        JobError::Invalid(_) => (422, "invalid"),
        JobError::Cancelled => (503, "cancelled"),
        JobError::TimedOut => (504, "timed_out"),
        JobError::Busy { .. } => (429, "busy"),
        JobError::Protocol(_) => (400, "bad_request"),
        JobError::Io(_) => (500, "io"),
        JobError::Remote(_) => (500, "internal"),
    }
}

/// The HTTP status and `code` slug for a [`GraphError`].
pub fn graph_error_status_code(e: &GraphError) -> (u16, &'static str) {
    match e {
        GraphError::NotFound(_) => (404, "not_found"),
        GraphError::Conflict(_) => (409, "conflict"),
        GraphError::Invalid(_) => (422, "invalid"),
        GraphError::Job(job) => job_error_status_code(job),
    }
}

/// The `code` slug of a protocol-level rejection emitted before
/// routing (the [`ReadOutcome::Reject`] path).
fn reject_code(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        413 => "payload_too_large",
        431 => "head_too_large",
        501 => "not_implemented",
        505 => "http_version",
        _ => "error",
    }
}

/// The status/code table — the one source of truth behind error-body
/// `code` fields and the README's status table
/// ([`status_table_markdown`]). Rows: status, `code` slug(s) the
/// facade emits with it (`—` for successes), meaning.
pub const STATUS_TABLE: &[(u16, &str, &str)] = &[
    (
        200,
        "—",
        "request served (job ran, was cached, or the graph op applied)",
    ),
    (201, "—", "`PUT /v1/graphs/{id}` created a new named graph"),
    (
        400,
        "`bad_request`",
        "body is not valid JSON / schema violation / bad graph / malformed head",
    ),
    (
        404,
        "`not_found`",
        "unknown route, or no graph with that id",
    ),
    (
        405,
        "`method_not_allowed`",
        "wrong method for a known route (`Allow` header set)",
    ),
    (
        409,
        "`conflict`",
        "`PUT /v1/graphs/{id}` with a different definition than the live graph",
    ),
    (
        413,
        "`payload_too_large`",
        "body larger than the request-body bound",
    ),
    (
        422,
        "`invalid`",
        "well-formed spec or delta rejected by validation",
    ),
    (
        429,
        "`busy`",
        "shed by admission control; `Retry-After` set",
    ),
    (
        431,
        "`head_too_large`",
        "header section larger than the request-head bound",
    ),
    (500, "`internal`, `io`", "unexpected server-side failure"),
    (
        501,
        "`not_implemented`",
        "`Transfer-Encoding` (chunked bodies are not supported)",
    ),
    (
        503,
        "`cancelled`",
        "job cancelled before a result was available",
    ),
    (504, "`timed_out`", "job deadline passed"),
    (505, "`http_version`", "HTTP version other than 1.0/1.1"),
];

/// Renders [`STATUS_TABLE`] as the GitHub-flavored markdown table the
/// README embeds between its `status-table` markers — regenerating the
/// docs from the same constant the server answers with.
pub fn status_table_markdown() -> String {
    let mut out = String::from("| Status | Code | Meaning |\n|--------|------|---------|\n");
    for (status, code, meaning) in STATUS_TABLE {
        out.push_str(&format!("| {status} | {code} | {meaning} |\n"));
    }
    out
}

/// Looks up one `key=value` pair in a raw query string. No percent
/// decoding: the only recognised values (`json`, `prometheus`) need
/// none, and undecodable inputs fall through to the 400 path.
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Encodes one error body: `error` (prose, first for pre-`code`
/// consumers that pattern-match the prefix) then `code` (stable slug).
fn error_body(code: &str, message: &str) -> String {
    schema::ERR.json(&(message.to_string(), code.to_string()))
}

fn status_reason(status: u16) -> &'static str {
    match status {
        100 => "Continue",
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

fn write_response(
    w: &mut impl std::io::Write,
    status: u16,
    allow: Option<&str>,
    retry_after_ms: Option<u64>,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status_reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(allow) = allow {
        out.push_str("Allow: ");
        out.push_str(allow);
        out.push_str("\r\n");
    }
    if let Some(ms) = retry_after_ms {
        // Retry-After is integer seconds; round the millisecond hint
        // up so "retry after 50ms" never becomes "retry immediately".
        out.push_str(&format!("Retry-After: {}\r\n", ms.div_ceil(1000).max(1)));
    }
    out.push_str("\r\n");
    out.push_str(body);
    w.write_all(out.as_bytes())?;
    w.flush()
}

// ---------------------------------------------------------------------
// JSON bodies
// ---------------------------------------------------------------------

/// Encodes a job spec as the `POST /v1/jobs` body.
pub fn encode_job_spec(spec: &JobSpec) -> String {
    schema::RUN.json(spec)
}

/// Decodes a `POST /v1/jobs` body into a job spec. Errors are
/// [`JobError::Protocol`] and map to HTTP 400; semantic validation
/// (e.g. a zero accept denominator) stays with the service and maps
/// to 422.
pub fn decode_job_spec(body: &[u8]) -> Result<JobSpec, JobError> {
    schema::RUN.decode_json(body).map(|d| d.spec)
}

/// Encodes a job result as the `POST /v1/jobs` 200 body.
pub fn encode_job_response(resp: &JobResponse) -> String {
    schema::RUN_OK.json(resp)
}

/// Decodes a `POST /v1/jobs` 200 body back into a [`JobResponse`].
pub fn decode_job_response(body: &[u8]) -> Result<JobResponse, JobError> {
    schema::RUN_OK.decode_json(body)
}

/// Encodes the `PUT /v1/graphs/{id}` body for `spec`: the job-spec
/// body without execution policy, exactly as the `graph-create` frame
/// carries it (the id travels in the path).
pub(crate) fn encode_graph_create_body(spec: &GraphSpec) -> String {
    schema::GRAPH_CREATE.json(&schema::graph_job(spec))
}

/// Decodes a `PUT /v1/graphs/{id}` body; execution policy is rejected.
pub(crate) fn decode_graph_create_body(id: &str, body: &[u8]) -> Result<GraphSpec, JobError> {
    schema::graph_spec(id.to_string(), schema::GRAPH_CREATE.decode_json(body)?)
}

/// Encodes a `PATCH /v1/graphs/{id}` body: the inserts, then the
/// deletes, each list in order.
pub fn encode_graph_patch_body(ops: &[DeltaOp]) -> String {
    schema::GRAPH_PATCH.json(ops)
}

/// Decodes a `PATCH /v1/graphs/{id}` body into delta ops (inserts
/// first, then deletes, each list in order).
pub fn decode_graph_patch_body(body: &[u8]) -> Result<Vec<DeltaOp>, JobError> {
    schema::GRAPH_PATCH.decode_json(body)
}

/// Encodes the `PUT /v1/graphs/{id}` success body.
pub(crate) fn encode_graph_created_body(r: &GraphCreated) -> String {
    schema::GRAPH_CREATED.json(r)
}

/// Decodes the `PUT /v1/graphs/{id}` success body.
pub(crate) fn decode_graph_created_body(body: &[u8]) -> Result<GraphCreated, JobError> {
    schema::GRAPH_CREATED.decode_json(body)
}

/// Encodes the `PATCH /v1/graphs/{id}` success body.
pub fn encode_graph_patched_body(r: &GraphPatched) -> String {
    schema::GRAPH_PATCHED.json(r)
}

/// Decodes the `PATCH /v1/graphs/{id}` success body.
pub fn decode_graph_patched_body(body: &[u8]) -> Result<GraphPatched, JobError> {
    schema::GRAPH_PATCHED.decode_json(body)
}

/// Encodes the `GET /v1/graphs/{id}` success body.
pub(crate) fn encode_graph_meta_body(r: &GraphMeta) -> String {
    schema::GRAPH_META.json(r)
}

/// Decodes the `GET /v1/graphs/{id}` success body.
pub(crate) fn decode_graph_meta_body(body: &[u8]) -> Result<GraphMeta, JobError> {
    schema::GRAPH_META.decode_json(body)
}

/// Encodes the `GET /v1/graphs/{id}/spanner` success body — the JSON
/// face of the per-graph byte-identity guarantee.
pub fn encode_graph_spanner_body(r: &GraphSpannerResult) -> String {
    schema::GRAPH_SPANNER_OK.json(r)
}

/// Decodes the `GET /v1/graphs/{id}/spanner` success body.
pub fn decode_graph_spanner_body(body: &[u8]) -> Result<GraphSpannerResult, JobError> {
    schema::GRAPH_SPANNER_OK.decode_json(body)
}

/// Encodes the `DELETE /v1/graphs/{id}` success body.
pub(crate) fn encode_graph_deleted_body(id: &str) -> String {
    schema::GRAPH_DELETED.json(id)
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A blocking keep-alive client for the HTTP facade, used by
/// `spanner-cli --http`, the `exp_http` bench, and the integration
/// tests.
pub struct HttpClient {
    stream: TcpStream,
    /// The resolved peer address, kept so retries can reconnect after
    /// the server (or a chaos hook) drops the connection mid-response.
    addr: SocketAddr,
    pending: Vec<u8>,
    /// The `Retry-After` header of the most recent response, converted
    /// to milliseconds; `None` when the response carried none.
    last_retry_after_ms: Option<u64>,
}

impl HttpClient {
    /// Connects to a running [`HttpServer`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let addr = stream.peer_addr()?;
        Ok(HttpClient {
            stream,
            addr,
            pending: Vec::new(),
            last_retry_after_ms: None,
        })
    }

    /// Drops the current connection and dials the same peer again,
    /// discarding any half-read response bytes.
    fn reconnect(&mut self) -> Result<(), JobError> {
        let stream = TcpStream::connect(self.addr).map_err(|e| JobError::Io(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        self.stream = stream;
        self.pending.clear();
        Ok(())
    }

    /// Sends one request and returns `(status, body)`. The connection
    /// is reused across calls (keep-alive).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, Vec<u8>), JobError> {
        use std::io::Write;
        let io_err = |e: std::io::Error| JobError::Io(e.to_string());
        let mut req = format!("{method} {path} HTTP/1.1\r\nHost: spanner-serve\r\n");
        if let Some(body) = body {
            req.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        req.push_str("\r\n");
        if let Some(body) = body {
            req.push_str(body);
        }
        self.stream.write_all(req.as_bytes()).map_err(io_err)?;
        self.stream.flush().map_err(io_err)?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<(u16, Vec<u8>), JobError> {
        use std::io::Read;
        let io_err = |e: std::io::Error| JobError::Io(e.to_string());
        loop {
            let (head_len, term_len) = loop {
                if let Some(found) = head_end(&self.pending) {
                    break found;
                }
                if self.pending.len() > MAX_HEAD {
                    return Err(proto("response head too large"));
                }
                let mut chunk = [0u8; 4096];
                match self.stream.read(&mut chunk).map_err(io_err)? {
                    0 => return Err(JobError::Io("server closed the connection".into())),
                    k => self.pending.extend_from_slice(&chunk[..k]),
                }
            };
            let head_bytes: Vec<u8> = self.pending.drain(..head_len + term_len).collect();
            let head =
                String::from_utf8(head_bytes).map_err(|_| proto("response head is not UTF-8"))?;
            let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
            let status_line = lines.next().unwrap_or("");
            let status: u16 = status_line
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| proto(format!("malformed status line `{status_line}`")))?;
            // Interim responses (100 Continue) carry no body; wait for
            // the final response.
            if status == 100 {
                continue;
            }
            let mut content_length = 0usize;
            self.last_retry_after_ms = None;
            for line in lines {
                if let Some((name, value)) = line.split_once(':') {
                    if name.trim().eq_ignore_ascii_case("content-length") {
                        content_length = value
                            .trim()
                            .parse()
                            .map_err(|_| proto("invalid Content-Length in response"))?;
                    } else if name.trim().eq_ignore_ascii_case("retry-after") {
                        // Integer seconds on the wire (the only form
                        // the facade emits); unparseable values are
                        // treated as absent, not as errors.
                        self.last_retry_after_ms =
                            value.trim().parse::<u64>().ok().map(|s| s * 1000);
                    }
                }
            }
            if content_length > MAX_BODY {
                return Err(proto("response body exceeds limit"));
            }
            while self.pending.len() < content_length {
                let mut chunk = [0u8; 4096];
                match self.stream.read(&mut chunk).map_err(io_err)? {
                    0 => return Err(JobError::Io("server closed mid-response".into())),
                    k => self.pending.extend_from_slice(&chunk[..k]),
                }
            }
            let body: Vec<u8> = self.pending.drain(..content_length).collect();
            return Ok((status, body));
        }
    }

    /// Sends one request and returns the body of a 2xx response; any
    /// other status becomes [`JobError::Remote`].
    fn call(&mut self, method: &str, path: &str, body: Option<&str>) -> Result<Vec<u8>, JobError> {
        match self.request(method, path, body)? {
            (200..=299, body) => Ok(body),
            (status, body) => Err(remote_status(status, &body)),
        }
    }

    /// Runs one job via `POST /v1/jobs` and decodes the response.
    pub fn run(&mut self, spec: &JobSpec) -> Result<JobResponse, JobError> {
        decode_job_response(&self.call("POST", "/v1/jobs", Some(&encode_job_spec(spec)))?)
    }

    /// Runs one job and returns the raw `(status, body bytes)` — what
    /// the facade's byte-identity guarantee is stated over.
    pub fn run_raw(&mut self, spec: &JobSpec) -> Result<(u16, Vec<u8>), JobError> {
        self.request("POST", "/v1/jobs", Some(&encode_job_spec(spec)))
    }

    /// Like [`HttpClient::run`], but retries shed (429, honoring the
    /// server's `Retry-After`), cancelled (503), and transport-level
    /// failures (reconnecting first) under `policy`'s capped jittered
    /// exponential backoff. Safe because a job response is a pure
    /// function of the spec: a resubmission can only return the same
    /// bytes.
    pub fn run_with_retry(
        &mut self,
        spec: &JobSpec,
        policy: &RetryPolicy,
    ) -> Result<JobResponse, JobError> {
        policy.run(|| match self.run_raw(spec) {
            Ok((200, body)) => Attempt::Done(decode_job_response(&body)),
            Ok((status @ (429 | 503), body)) => {
                Attempt::Retry(remote_status(status, &body), self.last_retry_after_ms)
            }
            // Validation and routing errors (4xx/5xx outside the two
            // transient codes) repeat identically on resubmission.
            Ok((status, body)) => Attempt::Done(Err(remote_status(status, &body))),
            // The connection is gone or desynchronized (e.g. a
            // mid-response drop); replace it before retrying. A failed
            // reconnect (server restarting) is itself retried.
            Err(e @ JobError::Io(_)) => Attempt::Retry(self.reconnect().err().unwrap_or(e), None),
            Err(e) => Attempt::Done(Err(e)),
        })
    }

    /// Fetches `/v1/metrics` as one JSON line.
    pub fn metrics_json(&mut self) -> Result<String, JobError> {
        let body = self.call("GET", "/v1/metrics", None)?;
        String::from_utf8(body).map_err(|_| proto("metrics body is not UTF-8"))
    }

    /// Fetches `/v1/metrics?format=prometheus` as text exposition.
    pub fn metrics_prometheus(&mut self) -> Result<String, JobError> {
        let body = self.call("GET", "/v1/metrics?format=prometheus", None)?;
        String::from_utf8(body).map_err(|_| proto("metrics body is not UTF-8"))
    }

    /// Liveness probe via `GET /healthz`.
    pub fn healthz(&mut self) -> Result<(), JobError> {
        self.call("GET", "/healthz", None).map(drop)
    }

    /// Creates (or idempotently re-creates) a named graph via
    /// `PUT /v1/graphs/{id}`.
    pub fn graph_create(&mut self, spec: &GraphSpec) -> Result<GraphCreated, JobError> {
        let body = encode_graph_create_body(spec);
        let path = format!("/v1/graphs/{}", spec.id);
        decode_graph_created_body(&self.call("PUT", &path, Some(&body))?)
    }

    /// Applies edge deltas via `PATCH /v1/graphs/{id}`. The body lists
    /// inserts before deletes, so a batch with an insert after a delete
    /// is refused: send it as two patches.
    pub fn graph_patch(&mut self, id: &str, ops: &[DeltaOp]) -> Result<GraphPatched, JobError> {
        schema::check_json_patch_order(ops)?;
        let body = encode_graph_patch_body(ops);
        decode_graph_patched_body(&self.call("PATCH", &format!("/v1/graphs/{id}"), Some(&body))?)
    }

    /// Fetches graph metadata via `GET /v1/graphs/{id}`.
    pub fn graph_get(&mut self, id: &str) -> Result<GraphMeta, JobError> {
        decode_graph_meta_body(&self.call("GET", &format!("/v1/graphs/{id}"), None)?)
    }

    /// Fetches the maintained spanner via `GET /v1/graphs/{id}/spanner`.
    pub fn graph_spanner(&mut self, id: &str) -> Result<GraphSpannerResult, JobError> {
        decode_graph_spanner_body(&self.call("GET", &format!("/v1/graphs/{id}/spanner"), None)?)
    }

    /// Fetches the maintained spanner as raw `(status, body bytes)` —
    /// what the per-graph byte-identity guarantee is stated over.
    pub fn graph_spanner_raw(&mut self, id: &str) -> Result<(u16, Vec<u8>), JobError> {
        self.request("GET", &format!("/v1/graphs/{id}/spanner"), None)
    }

    /// Deletes a named graph via `DELETE /v1/graphs/{id}`.
    pub fn graph_delete(&mut self, id: &str) -> Result<(), JobError> {
        self.call("DELETE", &format!("/v1/graphs/{id}"), None)
            .map(drop)
    }
}

fn proto(message: impl Into<String>) -> JobError {
    JobError::Protocol(message.into())
}

/// A non-2xx response folded into [`JobError::Remote`].
fn remote_status(status: u16, body: &[u8]) -> JobError {
    JobError::Remote(format!("HTTP {status}: {}", error_message(body)))
}

/// Extracts the `error` field of an error body, or shows the raw body.
fn error_message(body: &[u8]) -> String {
    schema::ERR
        .decode_json(body)
        .map(|(message, _)| message)
        .unwrap_or_else(|_| String::from_utf8_lossy(body).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::EdgeRole;
    use crate::job::canonicalize_job;
    use dsa_core::dist::{EngineConfig, VariantInstance, VariantKind};
    use dsa_graphs::{EdgeSet, EdgeWeights, Graph};
    use std::time::Duration;

    fn roundtrip(spec: &JobSpec) -> JobSpec {
        decode_job_spec(encode_job_spec(spec).as_bytes()).unwrap()
    }

    #[test]
    fn spec_roundtrips_all_variants() {
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
            let back = roundtrip(spec);
            assert_eq!(back.instance.kind(), spec.instance.kind());
            assert_eq!(back.config.seed, spec.config.seed);
            // Canonical-key agreement is the identity the cache uses —
            // and it also proves a JSON submission shares the cache
            // entry of the equivalent wire submission.
            assert_eq!(
                canonicalize_job(&back).unwrap().key,
                canonicalize_job(spec).unwrap().key,
            );
        }
    }

    #[test]
    fn spec_carries_config_and_timeout() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut spec = JobSpec::new(VariantInstance::Undirected { graph: g }, u64::MAX);
        spec.config.accept_denominator = 16;
        spec.config.monotone_stars = false;
        spec.config.round_densities = false;
        spec.config.max_iterations = 12_345;
        spec.config.num_shards = 4;
        spec.timeout = Some(Duration::from_millis(1500));
        let back = roundtrip(&spec);
        assert_eq!(back.config.seed, u64::MAX, "u64 seeds stay exact");
        assert_eq!(back.config.accept_denominator, 16);
        assert!(!back.config.monotone_stars);
        assert!(!back.config.round_densities);
        assert_eq!(back.config.max_iterations, 12_345);
        assert_eq!(back.config.num_shards, 4);
        assert_eq!(back.timeout, Some(Duration::from_millis(1500)));
    }

    #[test]
    fn absurd_shards_and_timeouts_are_defanged() {
        // `"shards": 2^63` is capped at decode (never truncated), and
        // a pathological timeout saturates instead of wrapping.
        let spec = decode_job_spec(
            br#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,1]]},"shards":9223372036854775808}"#,
        )
        .unwrap();
        assert_eq!(spec.config.num_shards as u64, crate::schema::MAX_SHARDS);
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut pathological = JobSpec::new(VariantInstance::Undirected { graph: g }, 1);
        pathological.timeout = Some(Duration::MAX);
        let encoded = encode_job_spec(&pathological);
        assert!(
            encoded.contains(&format!("\"timeout_ms\":{}", u64::MAX)),
            "expected saturated timeout in {encoded}"
        );
        let back = roundtrip(&pathological);
        assert_eq!(back.timeout, Some(Duration::from_millis(u64::MAX)));
        assert_eq!(roundtrip(&back).timeout, back.timeout);
    }

    #[test]
    fn malformed_specs_error_cleanly() {
        for bad in [
            "not json at all",
            "[1,2,3]",
            r#"{"variant":"undirected"}"#,
            r#"{"variant":"undirected","seed":1}"#,
            r#"{"variant":"bogus","seed":1,"graph":{"n":2,"edges":[[0,1]]}}"#,
            r#"{"variant":"undirected","seed":-1,"graph":{"n":2,"edges":[[0,1]]}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,1]]},"bogus":1}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,1]],"x":1}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,1,2,3]]}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,5]]}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,1,7]]}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[0,1]}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[["a","b"]]}}"#,
            r#"{"variant":"weighted","seed":1,"graph":{"n":2,"edges":[[0,1]]}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,1]]},"clients":[0]}"#,
            r#"{"variant":"client-server","seed":1,"graph":{"n":2,"edges":[[0,1]]},"clients":[9],"servers":[0]}"#,
            r#"{"variant":"client-server","seed":1,"graph":{"n":2,"edges":[[0,1]]}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":99999999999999,"edges":[[0,1]]}}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,1]]},"shards":true}"#,
            r#"{"variant":"undirected","seed":1,"graph":{"n":2,"edges":[[0,1]]},"monotone":1}"#,
        ] {
            assert!(
                matches!(decode_job_spec(bad.as_bytes()), Err(JobError::Protocol(_))),
                "accepted: {bad}"
            );
        }
    }

    #[test]
    fn json_and_wire_submissions_share_a_cache_key() {
        // The same edge set through the JSON decoder and the wire
        // decoder canonicalizes to the same job key, including when
        // the JSON spelling carries self-loops and duplicates.
        let via_json = decode_job_spec(
            br#"{"variant":"undirected","seed":9,"graph":{"n":3,"edges":[[0,1],[1,1],[1,0],[1,2]]}}"#,
        )
        .unwrap();
        let via_wire = match crate::wire::decode_request(
            b"run v1\nvariant undirected\nseed 9\ngraph\n# n 3\n1 2\n0 1\n",
        )
        .unwrap()
        {
            crate::wire::Request::Run(spec) => *spec,
            other => panic!("expected run request, got {other:?}"),
        };
        assert_eq!(
            canonicalize_job(&via_json).unwrap().key,
            canonicalize_job(&via_wire).unwrap().key
        );
    }

    #[test]
    fn response_roundtrips() {
        let resp = JobResponse {
            key: 0xdead_beef_0123_4567,
            kind: VariantKind::ClientServer,
            spanner: vec![0, 3, 9],
            iterations: 7,
            local_rounds: 49,
            converged: true,
            star_fallbacks: 0,
        };
        let encoded = encode_job_response(&resp);
        assert_eq!(decode_job_response(encoded.as_bytes()).unwrap(), resp);
        let empty = JobResponse {
            spanner: vec![],
            ..resp
        };
        assert_eq!(
            decode_job_response(encode_job_response(&empty).as_bytes()).unwrap(),
            empty
        );
        // A size/list mismatch is rejected like the wire decoder does.
        let lying = encoded.replace("\"spanner_size\":3", "\"spanner_size\":2");
        assert!(decode_job_response(lying.as_bytes()).is_err());
    }

    #[test]
    fn head_parsing_basics() {
        let head = parse_head(
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\nExpect: 100-continue\r\n",
        )
        .unwrap_or_else(|_| panic!("valid head rejected"));
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/v1/jobs");
        assert_eq!(head.query, "");
        assert_eq!(head.content_length, 12);
        assert!(head.keep_alive);
        assert!(head.expect_continue);
        let head = parse_head(b"GET /healthz?probe=1 HTTP/1.0\r\n")
            .unwrap_or_else(|_| panic!("valid head rejected"));
        assert_eq!(head.path, "/healthz", "query is not part of the path");
        assert_eq!(head.query, "probe=1");
        assert!(!head.keep_alive, "HTTP/1.0 defaults to close");
        for bad in [
            &b"GARBAGE\r\n"[..],
            b"GET /x HTTP/2\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n",
            b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n",
            b"GET /x HTTP/1.1\r\nnocolon\r\n",
        ] {
            assert!(parse_head(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn head_end_finds_both_terminators() {
        assert_eq!(head_end(b"a\r\n\r\nbody"), Some((1, 4)));
        assert_eq!(head_end(b"a\n\nbody"), Some((1, 2)));
        assert_eq!(head_end(b"a\r\nb"), None);
        assert_eq!(head_end(b""), None);
    }

    #[test]
    fn patch_body_roundtrips_all_op_shapes() {
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
        let body = encode_graph_patch_body(&ops);
        assert_eq!(
            body, r#"{"insert":[[0,1],[1,2,9],[2,3,"server"]],"delete":[[0,1]]}"#,
            "the PATCH body encoding is part of the API"
        );
        assert_eq!(decode_graph_patch_body(body.as_bytes()).unwrap(), ops);
        for bad in [
            "nope",
            "[1]",
            r#"{"bogus":[]}"#,
            r#"{"insert":[[0]]}"#,
            r#"{"insert":[[0,1,2,3]]}"#,
            r#"{"insert":[[0,1,"maybe"]]}"#,
            r#"{"insert":[[0,1,true]]}"#,
            r#"{"delete":[[0,1,2]]}"#,
            r#"{"delete":[0,1]}"#,
        ] {
            assert!(
                decode_graph_patch_body(bad.as_bytes()).is_err(),
                "accepted: {bad}"
            );
        }
    }

    #[test]
    fn graph_create_body_reuses_the_job_spec_schema() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let spec = GraphSpec {
            id: "prod.web-1".to_string(),
            instance: VariantInstance::Undirected { graph: g },
            config: EngineConfig::seeded(42),
        };
        let body = encode_graph_create_body(&spec);
        let back = decode_graph_create_body("prod.web-1", body.as_bytes()).unwrap();
        assert_eq!(back.id, "prod.web-1");
        assert_eq!(back.config.seed, 42);
        assert_eq!(back.instance.kind(), VariantKind::Undirected);
        // Execution policy is definitionally absent: a deadline or a
        // shard count would make the graph's bytes depend on how it
        // was served, not what it is.
        let with_timeout = body.trim_end_matches('}').to_string() + r#","timeout_ms":100}"#;
        assert!(decode_graph_create_body("g", with_timeout.as_bytes()).is_err());
        let with_shards = body.trim_end_matches('}').to_string() + r#","shards":4}"#;
        assert!(decode_graph_create_body("g", with_shards.as_bytes()).is_err());
    }

    #[test]
    fn graph_response_bodies_roundtrip() {
        let created = GraphCreated {
            id: "g".to_string(),
            version: 3,
            edges: 17,
            spanner_size: 9,
            existed: true,
        };
        assert_eq!(
            decode_graph_created_body(encode_graph_created_body(&created).as_bytes()).unwrap(),
            created
        );
        let patched = GraphPatched {
            id: "g".to_string(),
            version: 4,
            applied: 2,
            classes: crate::graphs::DeltaClasses {
                commuted: 1,
                repaired: 1,
                recomputed: 0,
            },
            edges: 19,
        };
        assert_eq!(
            decode_graph_patched_body(encode_graph_patched_body(&patched).as_bytes()).unwrap(),
            patched
        );
        for cover_size in [Some(9), None] {
            let meta = GraphMeta {
                id: "g".to_string(),
                kind: VariantKind::Weighted,
                version: 4,
                vertices: 10,
                edges: 19,
                seed: 7,
                cover_size,
                debt: 3,
                classes: crate::graphs::DeltaClasses::default(),
            };
            let body = encode_graph_meta_body(&meta);
            assert_eq!(decode_graph_meta_body(body.as_bytes()).unwrap(), meta);
            if cover_size.is_none() {
                assert!(body.contains("\"cover_size\":null"));
            }
        }
        let spanner = GraphSpannerResult {
            id: "g".to_string(),
            version: 4,
            key: 0xdead_beef,
            kind: VariantKind::Undirected,
            converged: true,
            iterations: 6,
            local_rounds: 42,
            star_fallbacks: 0,
            edges: vec![(0, 1), (2, 5)],
        };
        let body = encode_graph_spanner_body(&spanner);
        assert_eq!(decode_graph_spanner_body(body.as_bytes()).unwrap(), spanner);
        let lying = body.replace("\"spanner_size\":2", "\"spanner_size\":1");
        assert!(decode_graph_spanner_body(lying.as_bytes()).is_err());
    }

    #[test]
    fn error_bodies_carry_stable_codes_and_stay_backward_compatible() {
        // New bodies: `error` first (pre-`code` consumers often
        // pattern-match the prefix), `code` second.
        assert_eq!(
            error_body("busy", "try later"),
            r#"{"error":"try later","code":"busy"}"#
        );
        // The client-side reader accepts old-style bodies (no `code`)
        // for one release: decommissioning them must not break
        // deployed clients mid-upgrade.
        assert_eq!(error_message(br#"{"error":"old style"}"#), "old style");
        assert_eq!(
            error_message(br#"{"error":"new style","code":"busy"}"#),
            "new style"
        );
        // Every JobError variant maps to a status in the table and a
        // code listed on that status's row.
        let variants = [
            JobError::Invalid("x".into()),
            JobError::Cancelled,
            JobError::TimedOut,
            JobError::Busy { retry_after_ms: 1 },
            JobError::Protocol("x".into()),
            JobError::Io("x".into()),
            JobError::Remote("x".into()),
        ];
        for e in &variants {
            let (status, code) = job_error_status_code(e);
            let row = STATUS_TABLE
                .iter()
                .find(|(s, _, _)| *s == status)
                .unwrap_or_else(|| panic!("status {status} missing from STATUS_TABLE"));
            assert!(
                row.1.contains(&format!("`{code}`")),
                "row for {status} does not list code `{code}`"
            );
            assert_ne!(status_reason(status), "Unknown");
        }
        for e in [
            GraphError::NotFound("g".into()),
            GraphError::Conflict("g".into()),
            GraphError::Invalid("x".into()),
            GraphError::Job(JobError::Busy { retry_after_ms: 1 }),
        ] {
            let (status, code) = graph_error_status_code(&e);
            let row = STATUS_TABLE.iter().find(|(s, _, _)| *s == status).unwrap();
            assert!(row.1.contains(&format!("`{code}`")));
            assert_ne!(status_reason(status), "Unknown");
        }
    }

    #[test]
    fn readme_status_table_matches_the_source_of_truth() {
        // The README embeds `status_table_markdown()` between markers;
        // regenerating from [`STATUS_TABLE`] keeps docs and server
        // answers from drifting.
        assert_eq!(
            crate::readme_section("status-table"),
            status_table_markdown().trim_end_matches('\n'),
            "README status table is stale; paste the output of \
             dsa_service::http::status_table_markdown() between the markers"
        );
    }
}
