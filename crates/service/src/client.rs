//! A blocking client for the `spanner-serve` wire protocol, used by
//! `spanner-cli`, the load bench, and the integration tests.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

use crate::graphs::{
    DeltaOp, GraphCreated, GraphMeta, GraphPatched, GraphSpannerResult, GraphSpec,
};
use crate::job::{JobError, JobResponse, JobSpec};
use crate::retry::{Attempt, RetryPolicy};
use crate::wire::{
    decode_response, encode_graph_create, encode_graph_delete, encode_graph_get,
    encode_graph_patch, encode_graph_spanner_request, encode_hello_request, encode_ping_request,
    encode_request, encode_stats_request, read_frame, write_frame, Response, PROTO_VERSION,
};

/// One connection to a `spanner-serve` instance. Requests are
/// submitted synchronously, one frame in, one frame out.
pub struct Client {
    stream: TcpStream,
    /// The resolved peer address, kept so retries can reconnect after
    /// the server (or a chaos hook) drops the connection mid-frame.
    addr: SocketAddr,
}

impl Client {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let addr = stream.peer_addr()?;
        Ok(Client { stream, addr })
    }

    /// Drops the current connection and dials the same peer again.
    fn reconnect(&mut self) -> Result<(), JobError> {
        let stream = TcpStream::connect(self.addr).map_err(|e| JobError::Io(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        self.stream = stream;
        Ok(())
    }

    /// Sends one request frame and returns the raw response frame.
    fn raw(&mut self, payload: &str) -> Result<Vec<u8>, JobError> {
        let io = |e: std::io::Error| JobError::Io(e.to_string());
        write_frame(&mut self.stream, payload.as_bytes()).map_err(io)?;
        read_frame(&mut self.stream)
            .map_err(io)?
            .ok_or_else(|| JobError::Io("server closed the connection".into()))
    }

    /// Sends one request and extracts its answer: a `busy` frame becomes
    /// [`JobError::Busy`], an error frame [`JobError::Remote`], and any
    /// other unexpected frame a protocol error.
    fn call<T>(
        &mut self,
        payload: &str,
        extract: impl FnOnce(Response) -> Option<T>,
    ) -> Result<T, JobError> {
        match decode_response(&self.raw(payload)?)? {
            Response::Busy { retry_after_ms } => Err(JobError::Busy { retry_after_ms }),
            Response::Error(m) => Err(JobError::Remote(m)),
            other => extract(other).ok_or_else(|| JobError::Protocol("unexpected response".into())),
        }
    }

    /// Runs one job and decodes the response. A shed job (`busy`
    /// frame) surfaces as [`JobError::Busy`]; see
    /// [`Client::run_with_retry`] for the retrying flavor.
    pub fn run(&mut self, spec: &JobSpec) -> Result<JobResponse, JobError> {
        self.call(&encode_request(spec), |r| match r {
            Response::Run(resp) => Some(resp),
            _ => None,
        })
    }

    /// Like [`Client::run`], but retries shed jobs (honoring the
    /// server's retry hint), cancelled runs, and transport failures
    /// (reconnecting first) under `policy`'s capped jittered
    /// exponential backoff. Safe because a job response is a pure
    /// function of the spec: a resubmission can only return the same
    /// bytes.
    pub fn run_with_retry(
        &mut self,
        spec: &JobSpec,
        policy: &RetryPolicy,
    ) -> Result<JobResponse, JobError> {
        policy.run(|| match self.run(spec) {
            Err(e @ JobError::Busy { retry_after_ms }) => Attempt::Retry(e, Some(retry_after_ms)),
            // A cancelled run crosses the wire as a generic error frame
            // carrying [`JobError::Cancelled`]'s message — transient (an
            // aborted engine run), so retryable.
            Err(JobError::Remote(m)) if m == JobError::Cancelled.to_string() => {
                Attempt::Retry(JobError::Remote(m), None)
            }
            // The connection is gone or desynchronized (e.g. a mid-frame
            // drop); replace it before retrying. A failed reconnect
            // (server restarting) is itself retried.
            Err(e @ JobError::Io(_)) => Attempt::Retry(self.reconnect().err().unwrap_or(e), None),
            // Everything else repeats identically on resubmission.
            done => Attempt::Done(done),
        })
    }

    /// Runs one job and returns the *raw response payload bytes* —
    /// what the byte-identity guarantee of the protocol is stated
    /// over.
    pub fn run_raw(&mut self, spec: &JobSpec) -> Result<Vec<u8>, JobError> {
        self.raw(&encode_request(spec))
    }

    /// Fetches the service metrics snapshot as one JSON line.
    pub fn stats_json(&mut self) -> Result<String, JobError> {
        self.call(&encode_stats_request(), |r| match r {
            Response::Stats(json) => Some(json),
            _ => None,
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), JobError> {
        self.call(&encode_ping_request(), |r| {
            matches!(r, Response::Pong).then_some(())
        })
    }

    /// Negotiates the protocol version: offers this crate's
    /// [`PROTO_VERSION`], returns the version the server settled on
    /// plus its advertised feature tokens (`graphs` at v2). A v1
    /// server answers the offer with an error frame — mapped here to
    /// `(1, [])`, because every server speaks v1.
    pub fn hello(&mut self) -> Result<(u64, Vec<String>), JobError> {
        match self.call(&encode_hello_request(PROTO_VERSION), |r| match r {
            Response::Hello { proto, features } => Some((proto, features)),
            _ => None,
        }) {
            Err(JobError::Remote(_)) => Ok((1, Vec::new())),
            answer => answer,
        }
    }

    /// Creates (or idempotently re-creates) a named graph.
    pub fn graph_create(&mut self, spec: &GraphSpec) -> Result<GraphCreated, JobError> {
        self.call(&encode_graph_create(spec), |r| match r {
            Response::GraphCreated(c) => Some(c),
            _ => None,
        })
    }

    /// Applies a batch of edge deltas to a named graph.
    pub fn graph_patch(&mut self, id: &str, ops: &[DeltaOp]) -> Result<GraphPatched, JobError> {
        self.call(&encode_graph_patch(id, ops), |r| match r {
            Response::GraphPatched(p) => Some(p),
            _ => None,
        })
    }

    /// Fetches a named graph's metadata and maintenance counters.
    pub fn graph_get(&mut self, id: &str) -> Result<GraphMeta, JobError> {
        self.call(&encode_graph_get(id), |r| match r {
            Response::GraphMeta(m) => Some(m),
            _ => None,
        })
    }

    /// Fetches the maintained spanner of a named graph.
    pub fn graph_spanner(&mut self, id: &str) -> Result<GraphSpannerResult, JobError> {
        self.call(&encode_graph_spanner_request(id), |r| match r {
            Response::GraphSpanner(s) => Some(s),
            _ => None,
        })
    }

    /// Fetches the maintained spanner as *raw response payload bytes*
    /// — what the per-graph byte-identity guarantee is stated over.
    pub fn graph_spanner_raw(&mut self, id: &str) -> Result<Vec<u8>, JobError> {
        self.raw(&encode_graph_spanner_request(id))
    }

    /// Deletes a named graph.
    pub fn graph_delete(&mut self, id: &str) -> Result<(), JobError> {
        self.call(&encode_graph_delete(id), |r| {
            matches!(r, Response::GraphDeleted { .. }).then_some(())
        })
    }
}
