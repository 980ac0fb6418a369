//! The worker's HTTP API (§3.1).
//!
//! "Clients/users invoke functions using an HTTP or RPC API, with the main
//! operations being `register, invoke, async_invoke, and prewarm`", plus
//! the status endpoint the load balancer polls. The server shares the
//! minimal HTTP substrate with the in-container agent; [`WorkerApiClient`]
//! is the typed client used by remote load balancers and load generators.
//!
//! Routes:
//!
//! | method & path            | body                     | response |
//! |--------------------------|--------------------------|----------|
//! | `POST /register`         | `FunctionSpec` JSON      | `{"fqdn":…}` |
//! | `POST /invoke`           | `{"fqdn":…, "args":…}`   | `InvocationResult` JSON |
//! | `POST /async_invoke`     | `{"fqdn":…, "args":…}`   | `{"cookie":…}` |
//! | `GET  /result/<cookie>`  |                          | result JSON or 404-pending |
//! | `POST /prewarm`          | `{"fqdn":…}`             | `{}` |
//! | `GET  /status`           |                          | `WorkerStatus` JSON |
//! | `GET  /metrics`          |                          | Prometheus text |
//! | `GET  /spans`            |                          | `[SpanExport]` JSON |
//! | `GET  /trace/<id>`       |                          | `TraceRecord` JSON or 404 |
//! | `GET  /traces?last=N`    |                          | `[TraceRecord]` JSON, newest first |
//! | `GET  /breakdown`        |                          | `BreakdownReport` JSON |
//! | `GET  /debug/flightrecorder` |                      | `FlightDump` JSON |
//!
//! Invocation responses (`/invoke`, `/async_invoke`, `/result/<cookie>`)
//! carry the worker's latest canonical-telemetry sequence number in the
//! `X-Iluvatar-Seq` header, so a caller can order its observation against
//! the worker's event stream.
//!
//! This module is also the one home of the invoke wire contract shared by
//! the worker routes, the balancer routes, [`WorkerApiClient`] and the
//! balancer's `RemoteWorker`: [`InvokeBody`] with its tenant precedence
//! ([`tenant_of`]), the `InvokeError` ↔ HTTP status table
//! ([`InvokeError::http_status`] / [`InvokeError::from_http`]), and the JSON
//! response helpers ([`json_resp`], [`error_json`], [`error_resp`],
//! [`parse_body`]).

use crate::breakdown::BreakdownReport;
use crate::exposition;
use crate::invocation::{InvocationHandle, InvocationResult, InvokeError};
use crate::journal::TraceRecord;
use crate::spans::SpanExport;
use crate::worker::{Worker, WorkerStatus};
use iluvatar_admission::DEFAULT_TENANT;
use iluvatar_cache::CacheStatus;
use iluvatar_containers::FunctionSpec;
use iluvatar_http::server::{Handler, ServerHandle};
use iluvatar_http::{
    HttpServer, Method, PooledClient, Request, Response, Status, CACHE_HEADER, SEQ_HEADER,
    TENANT_HEADER,
};
use iluvatar_sync::ShardedMap;
use iluvatar_telemetry::FlightDump;
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Body of `POST /invoke` and `POST /async_invoke`, on the worker and the
/// balancer alike.
#[derive(Serialize, Deserialize)]
pub struct InvokeBody {
    pub fqdn: String,
    #[serde(default)]
    pub args: String,
    /// Tenant label for admission control; the `X-Iluvatar-Tenant` header
    /// takes precedence when both are present (see [`tenant_of`]).
    #[serde(default)]
    pub tenant: Option<String>,
}

impl InvokeBody {
    /// The request a client sends for this invocation: the label rides both
    /// the body and the `X-Iluvatar-Tenant` header (so proxies that only
    /// forward headers still attribute correctly).
    fn request(path: &str, fqdn: &str, args: &str, tenant: Option<&str>) -> Request {
        let body = serde_json::to_vec(&InvokeBody {
            fqdn: fqdn.into(),
            args: args.into(),
            tenant: tenant.map(str::to_string),
        })
        .expect("InvokeBody encodes");
        let req = Request::new(Method::Post, path).with_body(body);
        match tenant {
            Some(t) => req.with_header(TENANT_HEADER, t.to_string()),
            None => req,
        }
    }
}

/// The tenant an invoke request is accounted to: the `X-Iluvatar-Tenant`
/// header beats the body's `tenant` field.
pub fn tenant_of<'a>(req: &'a Request, body: &'a InvokeBody) -> Option<&'a str> {
    req.header(TENANT_HEADER).or(body.tenant.as_deref())
}

#[derive(Serialize, Deserialize)]
struct PrewarmBody {
    fqdn: String,
}

/// Wire form of an invocation result.
#[derive(Debug, Serialize, Deserialize)]
pub struct WireResult {
    pub body: String,
    pub exec_ms: u64,
    pub e2e_ms: u64,
    pub cold: bool,
    pub queue_ms: u64,
    /// End-to-end trace id; redeem via `GET /trace/{id}` on the worker.
    #[serde(default)]
    pub trace_id: u64,
    /// Tenant the invocation was accounted to.
    #[serde(default)]
    pub tenant: Option<String>,
}

impl WireResult {
    /// The result this wire form carries, with the cache verdict its
    /// response travelled with.
    pub fn into_result(self, cache: CacheStatus) -> InvocationResult {
        InvocationResult {
            body: self.body,
            exec_ms: self.exec_ms,
            e2e_ms: self.e2e_ms,
            cold: self.cold,
            queue_ms: self.queue_ms,
            arrived_at: 0,
            trace_id: self.trace_id,
            tenant: self.tenant,
            cache,
        }
    }
}

impl From<InvocationResult> for WireResult {
    fn from(r: InvocationResult) -> Self {
        Self {
            body: r.body,
            exec_ms: r.exec_ms,
            e2e_ms: r.e2e_ms,
            cold: r.cold,
            queue_ms: r.queue_ms,
            trace_id: r.trace_id,
            tenant: r.tenant,
        }
    }
}

/// One function's warm-pool residency, as reported on `/status`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireWarm {
    pub fqdn: String,
    pub gb_s: f64,
}

pub fn json_resp(status: Status, body: String) -> Response {
    Response::new(status)
        .with_header("Content-Type", "application/json")
        .with_body(body)
}

/// `{"error": msg}` under `status` — the shape of every error body.
pub fn error_json(status: Status, msg: &str) -> Response {
    json_resp(status, format!("{{\"error\":{msg:?}}}"))
}

/// Parse a request's JSON body, or the 400 every route answers a bad one
/// with.
pub fn parse_body<T: Deserialize>(req: &Request) -> Result<T, Response> {
    serde_json::from_str(std::str::from_utf8(&req.body).unwrap_or(""))
        .map_err(|e| error_json(Status::BAD_REQUEST, &e.to_string()))
}

impl InvokeError {
    /// The status an invocation failure travels as.
    pub fn http_status(&self) -> Status {
        match self {
            InvokeError::NotRegistered(_) => Status::NOT_FOUND,
            // Admission rejections are backpressure, like a full queue.
            InvokeError::QueueFull
            | InvokeError::NoResources
            | InvokeError::Throttled(_)
            | InvokeError::Shed(_) => Status::TOO_MANY_REQUESTS,
            InvokeError::Backend(_) => Status::INTERNAL_ERROR,
            // A stalling or erroring disk is a worker-local condition: 503
            // (same as draining) so the LB routes around it.
            InvokeError::ShuttingDown | InvokeError::WalUnavailable => Status::SERVICE_UNAVAILABLE,
        }
    }

    /// The return trip of [`InvokeError::http_status`], as far as a status
    /// and an error body allow: 404 → `NotRegistered(fqdn)`; 503 →
    /// `ShuttingDown` (draining, stopped and disk-stall all mean "route
    /// around me"); 429 → `Throttled` / `Shed` when the body says so, with
    /// the caller's tenant restored — admission verdicts are policy, which
    /// the balancer must not reroute — else `QueueFull`; anything else →
    /// `Backend`.
    pub fn from_http(status: u16, body: &str, fqdn: &str, tenant: Option<&str>) -> Self {
        let tenant = || tenant.unwrap_or(DEFAULT_TENANT).to_string();
        match status {
            404 => InvokeError::NotRegistered(fqdn.to_string()),
            503 => InvokeError::ShuttingDown,
            429 if body.contains("throttled") => InvokeError::Throttled(tenant()),
            429 if body.contains("shed") => InvokeError::Shed(tenant()),
            429 => InvokeError::QueueFull,
            _ => InvokeError::Backend(format!("status {status}: {body}")),
        }
    }
}

/// The response an invocation failure travels as. A 503 carries
/// `Retry-After` when the server has a hint (the worker's drain/disk-stall
/// hint; the balancer has none), telling well-behaved clients when to come
/// back.
pub fn error_resp(e: &InvokeError, retry_after_secs: Option<u64>) -> Response {
    let status = e.http_status();
    let resp = error_json(status, &e.to_string());
    match retry_after_secs {
        Some(secs) if status == Status::SERVICE_UNAVAILABLE => {
            resp.with_header("Retry-After", secs.to_string())
        }
        _ => resp,
    }
}

/// A completed invocation as its `WireResult` JSON response, with the
/// cache verdict in `X-Iluvatar-Cache`.
pub fn result_resp(r: InvocationResult) -> Response {
    let cache = r.cache.as_str();
    let wire: WireResult = r.into();
    json_resp(Status::OK, serde_json::to_string(&wire).unwrap()).with_header(CACHE_HEADER, cache)
}

/// `Retry-After` seconds advertised on the worker's 503s (draining,
/// stopped, or a stalled WAL disk).
const RETRY_AFTER_SECS: u64 = 1;

/// `/async_invoke` handles awaiting their `/result/<cookie>` poll. Cookies
/// are minted in sequence and minting one retires the cookie `queue.max_len`
/// behind it, so a client that never polls cannot grow the map.
type PendingResults = ShardedMap<u64, InvocationHandle>;

/// The HTTP front-end of one worker.
pub struct WorkerApi {
    server: HttpServer,
    pending: Arc<PendingResults>,
}

impl WorkerApi {
    /// Serve `worker` on an ephemeral loopback port.
    pub fn serve(worker: Arc<Worker>) -> std::io::Result<Self> {
        let pending: Arc<PendingResults> = Arc::new(ShardedMap::new());
        let cookie_seq = Arc::new(AtomicU64::new(1));
        // The handler closure exists before the server it runs in, so the
        // served-request counter arrives through a slot filled after start.
        let own_handle: Arc<OnceLock<ServerHandle>> = Arc::new(OnceLock::new());
        let slot = Arc::clone(&own_handle);
        let routed = Arc::clone(&pending);
        let handler: Handler =
            Arc::new(move |req: Request| route(&worker, &routed, &cookie_seq, &slot, req));
        let server = HttpServer::start(handler)?;
        let _ = own_handle.set(server.handle());
        Ok(Self { server, pending })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Requests served by this API server so far.
    pub fn served(&self) -> u64 {
        self.server.handle().served()
    }

    /// `/async_invoke` results not yet redeemed; at most `queue.max_len`.
    pub fn pending_results(&self) -> usize {
        self.pending.len()
    }
}

fn route(
    worker: &Arc<Worker>,
    pending: &PendingResults,
    cookie_seq: &Arc<AtomicU64>,
    own_handle: &Arc<OnceLock<ServerHandle>>,
    req: Request,
) -> Response {
    // Strip the query string; only /traces uses one.
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.path.as_str(), ""),
    };
    let served = || own_handle.get().map(|h| h.served()).unwrap_or(0);
    let invoke_err = |e: &InvokeError| error_resp(e, Some(RETRY_AFTER_SECS));
    let resp = match (req.method, path) {
        (Method::Get, "/status") => {
            let mut wire = worker.status();
            wire.http_requests = served();
            wire.tenants = worker.tenant_stats();
            json_resp(Status::OK, serde_json::to_string(&wire).unwrap())
        }
        (Method::Get, "/metrics") => Response::ok(exposition::render_worker(worker, served()))
            .with_header("Content-Type", "text/plain; version=0.0.4"),
        (Method::Get, "/spans") => json_resp(
            Status::OK,
            serde_json::to_string(&worker.spans().export()).unwrap(),
        ),
        (Method::Get, p) if p.starts_with("/trace/") => match p["/trace/".len()..].parse::<u64>() {
            Ok(id) => match worker.trace(id) {
                Some(r) => json_resp(Status::OK, serde_json::to_string(&r).unwrap()),
                None => error_json(Status::NOT_FOUND, "unknown trace"),
            },
            Err(_) => error_json(Status::BAD_REQUEST, "bad trace id"),
        },
        (Method::Get, "/traces") => {
            let last = query
                .split('&')
                .find_map(|kv| kv.strip_prefix("last="))
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(20);
            json_resp(
                Status::OK,
                serde_json::to_string(&worker.recent_traces(last)).unwrap(),
            )
        }
        (Method::Get, "/breakdown") => json_resp(
            Status::OK,
            serde_json::to_string(&worker.breakdown()).unwrap(),
        ),
        (Method::Get, "/debug/flightrecorder") => json_resp(
            Status::OK,
            serde_json::to_string(&worker.flight_recorder().wire_dump()).unwrap(),
        ),
        (Method::Post, "/register") => match parse_body::<FunctionSpec>(&req) {
            Ok(spec) => match worker.register(spec) {
                Ok(reg) => json_resp(Status::OK, format!("{{\"fqdn\":{:?}}}", reg.spec.fqdn)),
                Err(e) => error_json(Status::BAD_REQUEST, &e.to_string()),
            },
            Err(bad) => bad,
        },
        (Method::Post, "/invoke") => match parse_body::<InvokeBody>(&req) {
            Ok(b) => match worker.invoke_tenant(&b.fqdn, &b.args, tenant_of(&req, &b)) {
                Ok(r) => result_resp(r),
                Err(e) => invoke_err(&e),
            },
            Err(bad) => bad,
        },
        (Method::Post, "/async_invoke") => match parse_body::<InvokeBody>(&req) {
            Ok(b) => match worker.async_invoke_tenant(&b.fqdn, &b.args, tenant_of(&req, &b)) {
                Ok(handle) => {
                    let cookie = cookie_seq.fetch_add(1, Ordering::Relaxed);
                    pending.insert(cookie, handle);
                    let cap = (worker.config().queue.max_len as u64).max(1);
                    if let Some(aged_out) = cookie.checked_sub(cap) {
                        pending.remove(&aged_out);
                    }
                    json_resp(Status::OK, format!("{{\"cookie\":{cookie}}}"))
                }
                Err(e) => invoke_err(&e),
            },
            Err(bad) => bad,
        },
        (Method::Get, path) if path.starts_with("/result/") => {
            match path["/result/".len()..].parse::<u64>() {
                // Polled in place: an entry only ever leaves the map, so
                // the age-out above bounds it.
                Ok(cookie) => match pending.update(&cookie, |h| h.poll()) {
                    Some(Some(outcome)) => {
                        pending.remove(&cookie);
                        match outcome {
                            Ok(r) => result_resp(r),
                            Err(e) => invoke_err(&e),
                        }
                    }
                    Some(None) => json_resp(Status::NOT_FOUND, "{\"pending\":true}".into()),
                    None => error_json(Status::NOT_FOUND, "unknown cookie"),
                },
                Err(_) => error_json(Status::BAD_REQUEST, "bad cookie"),
            }
        }
        (Method::Post, "/drain") => {
            // Idempotent: repeated drains just report current progress.
            worker.drain();
            let s = worker.status();
            json_resp(
                Status::OK,
                format!(
                    "{{\"lifecycle\":{:?},\"drain_pending\":{}}}",
                    s.lifecycle, s.drain_pending
                ),
            )
        }
        (Method::Post, "/prewarm") => match parse_body::<PrewarmBody>(&req) {
            Ok(b) => match worker.prewarm(&b.fqdn) {
                Ok(()) => json_resp(Status::OK, "{}".into()),
                Err(e) => invoke_err(&e),
            },
            Err(bad) => bad,
        },
        _ => Response::new(Status::NOT_FOUND),
    };
    // Invocation responses carry the worker's latest canonical-telemetry
    // seqno: "everything this call caused has seq ≤ this".
    if path == "/invoke" || path == "/async_invoke" || path.starts_with("/result/") {
        resp.with_header(SEQ_HEADER, worker.telemetry().latest_seq().to_string())
    } else {
        resp
    }
}

/// Typed client for a remote worker's HTTP API, with pooled connections.
pub struct WorkerApiClient {
    addr: SocketAddr,
    client: PooledClient,
    /// Highest `X-Iluvatar-Seq` seen on any response from this worker.
    last_seq: AtomicU64,
}

/// Client-side failures.
#[derive(Debug)]
pub enum ApiError {
    /// Transport failure.
    Http(String),
    /// Server answered with a non-success status.
    Status(u16, String),
    /// Server answered 503 (draining or stopped), with the parsed
    /// `Retry-After` hint — 0 when the server sent none. Callers routing
    /// around the worker should suppress re-probing until the hint expires.
    Unavailable { retry_after_secs: u64, body: String },
    /// Response body did not parse.
    Decode(String),
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::Http(m) => write!(f, "http: {m}"),
            ApiError::Status(c, m) => write!(f, "status {c}: {m}"),
            ApiError::Unavailable {
                retry_after_secs,
                body,
            } => {
                write!(f, "status 503 (retry after {retry_after_secs}s): {body}")
            }
            ApiError::Decode(m) => write!(f, "decode: {m}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl WorkerApiClient {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            client: PooledClient::new(Duration::from_secs(120)),
            last_seq: AtomicU64::new(0),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The highest telemetry sequence number the worker has reported on
    /// any response so far (via `X-Iluvatar-Seq`); 0 before the first
    /// stamped response.
    pub fn last_telemetry_seq(&self) -> u64 {
        self.last_seq.load(Ordering::Relaxed)
    }

    /// Send a raw request to the worker API (escape hatch for routes
    /// without a typed helper and for header-level assertions in tests).
    pub fn call(&self, req: Request) -> Result<Response, ApiError> {
        let resp = self
            .client
            .send(self.addr, &req)
            .map_err(|e| ApiError::Http(e.to_string()))?;
        if let Some(seq) = resp.header(SEQ_HEADER).and_then(|v| v.trim().parse().ok()) {
            self.last_seq.fetch_max(seq, Ordering::Relaxed);
        }
        Ok(resp)
    }

    fn expect_ok(resp: Response) -> Result<Response, ApiError> {
        if resp.status.is_success() {
            Ok(resp)
        } else if resp.status == Status::SERVICE_UNAVAILABLE {
            // Surface the drain hint: the balancer uses it to stop
            // re-probing the worker until the hint expires.
            let retry_after_secs = resp
                .header("Retry-After")
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            Err(ApiError::Unavailable {
                retry_after_secs,
                body: resp.body_str().to_string(),
            })
        } else {
            Err(ApiError::Status(resp.status.0, resp.body_str().to_string()))
        }
    }

    /// Send `req`, require a success status, decode the JSON body.
    fn fetch<T: Deserialize>(&self, req: Request) -> Result<T, ApiError> {
        decode(&Self::expect_ok(self.call(req)?)?)
    }

    /// A successful invoke response as the result it carries, with the
    /// worker's cache verdict from `X-Iluvatar-Cache`.
    fn invocation_result(resp: Response) -> Result<InvocationResult, ApiError> {
        let resp = Self::expect_ok(resp)?;
        let cache = resp
            .header(CACHE_HEADER)
            .and_then(CacheStatus::parse)
            .unwrap_or(CacheStatus::Bypass);
        decode::<WireResult>(&resp).map(|w| w.into_result(cache))
    }

    fn get<T: Deserialize>(&self, path: impl Into<String>) -> Result<T, ApiError> {
        self.fetch(Request::new(Method::Get, path))
    }

    pub fn register(&self, spec: &FunctionSpec) -> Result<(), ApiError> {
        let req = Request::new(Method::Post, "/register")
            .with_body(serde_json::to_vec(spec).map_err(|e| ApiError::Decode(e.to_string()))?);
        Self::expect_ok(self.call(req)?).map(|_| ())
    }

    /// Invoke and wait for the result; `tenant` labels it for admission.
    /// The result carries the worker's cache verdict.
    pub fn invoke_tenant(
        &self,
        fqdn: &str,
        args: &str,
        tenant: Option<&str>,
    ) -> Result<InvocationResult, ApiError> {
        Self::invocation_result(self.call(InvokeBody::request("/invoke", fqdn, args, tenant))?)
    }

    /// Submit without waiting; redeem with [`WorkerApiClient::result`].
    pub fn async_invoke_tenant(
        &self,
        fqdn: &str,
        args: &str,
        tenant: Option<&str>,
    ) -> Result<u64, ApiError> {
        #[derive(Deserialize)]
        struct Cookie {
            cookie: u64,
        }
        self.fetch::<Cookie>(InvokeBody::request("/async_invoke", fqdn, args, tenant))
            .map(|c| c.cookie)
    }

    /// Poll for an async result; `Ok(None)` while still pending.
    pub fn result(&self, cookie: u64) -> Result<Option<InvocationResult>, ApiError> {
        let resp = self.call(Request::new(Method::Get, format!("/result/{cookie}")))?;
        if resp.status == Status::NOT_FOUND && resp.body_str().contains("pending") {
            return Ok(None);
        }
        Self::invocation_result(resp).map(Some)
    }

    /// Ask the worker to stop accepting work and finish what it has.
    /// Returns the number of invocations still pending at request time.
    pub fn drain(&self) -> Result<u64, ApiError> {
        #[derive(Deserialize)]
        struct DrainResp {
            drain_pending: u64,
        }
        self.fetch::<DrainResp>(Request::new(Method::Post, "/drain"))
            .map(|d| d.drain_pending)
    }

    pub fn prewarm(&self, fqdn: &str) -> Result<(), ApiError> {
        let body = serde_json::to_vec(&PrewarmBody { fqdn: fqdn.into() })
            .map_err(|e| ApiError::Decode(e.to_string()))?;
        Self::expect_ok(self.call(Request::new(Method::Post, "/prewarm").with_body(body))?)
            .map(|_| ())
    }

    pub fn status(&self) -> Result<WorkerStatus, ApiError> {
        self.get("/status")
    }

    /// The worker's Prometheus `/metrics` payload, verbatim.
    pub fn metrics_text(&self) -> Result<String, ApiError> {
        let resp = Self::expect_ok(self.call(Request::new(Method::Get, "/metrics"))?)?;
        Ok(resp.body_str().to_string())
    }

    /// Span distributions for cluster aggregation.
    pub fn spans(&self) -> Result<Vec<SpanExport>, ApiError> {
        self.get("/spans")
    }

    /// One invocation's trace timeline; `Ok(None)` if it aged out.
    pub fn trace(&self, id: u64) -> Result<Option<TraceRecord>, ApiError> {
        let resp = self.call(Request::new(Method::Get, format!("/trace/{id}")))?;
        if resp.status == Status::NOT_FOUND {
            return Ok(None);
        }
        decode(&Self::expect_ok(resp)?).map(Some)
    }

    /// The `last` most recent traces, newest first.
    pub fn traces(&self, last: usize) -> Result<Vec<TraceRecord>, ApiError> {
        self.get(format!("/traces?last={last}"))
    }

    /// The worker's critical-path breakdown report.
    pub fn breakdown(&self) -> Result<BreakdownReport, ApiError> {
        self.get("/breakdown")
    }

    /// The worker's flight-recorder dump (recent events + frozen snapshots).
    pub fn flight_recorder(&self) -> Result<FlightDump, ApiError> {
        self.get("/debug/flightrecorder")
    }
}

/// A response's JSON body as a `T`.
fn decode<T: Deserialize>(resp: &Response) -> Result<T, ApiError> {
    serde_json::from_str(resp.body_str()).map_err(|e| ApiError::Decode(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkerConfig;
    use iluvatar_containers::simulated::{SimBackend, SimBackendConfig};
    use iluvatar_sync::SystemClock;

    fn served_worker() -> (Arc<Worker>, WorkerApi, WorkerApiClient) {
        let clock = SystemClock::shared();
        let backend = Arc::new(SimBackend::new(
            Arc::clone(&clock),
            SimBackendConfig {
                time_scale: 0.02,
                ..Default::default()
            },
        ));
        let worker = Arc::new(Worker::new(WorkerConfig::for_testing(), backend, clock));
        let api = WorkerApi::serve(Arc::clone(&worker)).unwrap();
        let client = WorkerApiClient::new(api.addr());
        (worker, api, client)
    }

    #[test]
    fn register_invoke_over_http() {
        let (_w, _api, client) = served_worker();
        client
            .register(&FunctionSpec::new("f", "1").with_timing(100, 400))
            .unwrap();
        let r = client.invoke_tenant("f-1", "{}", None).unwrap();
        assert!(r.cold);
        let r2 = client.invoke_tenant("f-1", "{}", None).unwrap();
        assert!(!r2.cold);
        assert!(r2.exec_ms > 0);
    }

    #[test]
    fn invoke_unregistered_is_404() {
        let (_w, _api, client) = served_worker();
        match client.invoke_tenant("ghost-1", "{}", None) {
            Err(ApiError::Status(404, _)) => {}
            other => panic!("expected 404, got {other:?}"),
        }
    }

    #[test]
    fn async_invoke_and_poll() {
        let (_w, _api, client) = served_worker();
        client
            .register(&FunctionSpec::new("slow", "1").with_timing(500, 0))
            .unwrap();
        let cookie = client.async_invoke_tenant("slow-1", "{}", None).unwrap();
        // Poll until done.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match client.result(cookie).unwrap() {
                Some(r) => {
                    assert!(r.exec_ms >= 5);
                    break;
                }
                None => {
                    assert!(std::time::Instant::now() < deadline, "timed out");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        // The cookie is consumed.
        match client.result(cookie) {
            Err(ApiError::Status(404, _)) => {}
            other => panic!("consumed cookie should 404, got {other:?}"),
        }
    }

    #[test]
    fn unpolled_async_results_age_out_at_the_queue_bound() {
        let clock = SystemClock::shared();
        let backend = Arc::new(SimBackend::new(
            Arc::clone(&clock),
            SimBackendConfig {
                time_scale: 0.02,
                ..Default::default()
            },
        ));
        let mut cfg = WorkerConfig::for_testing();
        cfg.queue.max_len = 8;
        let worker = Arc::new(Worker::new(cfg, backend, clock));
        let api = WorkerApi::serve(Arc::clone(&worker)).unwrap();
        let client = WorkerApiClient::new(api.addr());
        client
            .register(&FunctionSpec::new("f", "1").with_timing(50, 0))
            .unwrap();
        // A client that submits and never polls. One at a time, so the
        // queue bound itself never rejects a submission.
        let mut cookies = Vec::new();
        for _ in 0..8 + 5 {
            cookies.push(client.async_invoke_tenant("f-1", "{}", None).unwrap());
            while worker.status().completed < cookies.len() as u64 {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(api.pending_results() <= 8, "{}", api.pending_results());
        }
        assert_eq!(api.pending_results(), 8);
        // An aged-out cookie is as unknown as one never issued...
        match client.result(cookies[0]) {
            Err(ApiError::Status(404, body)) => assert!(body.contains("unknown cookie"), "{body}"),
            other => panic!("aged-out cookie should 404, got {other:?}"),
        }
        // ...and the newest still resolves (its result lands just after
        // the completion is counted; poll).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while client.result(*cookies.last().unwrap()).unwrap().is_none() {
            assert!(
                std::time::Instant::now() < deadline,
                "newest never resolved"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(api.pending_results(), 7, "a redeemed cookie leaves the map");
    }

    #[test]
    fn prewarm_and_status_over_http() {
        let (_w, _api, client) = served_worker();
        client
            .register(&FunctionSpec::new("p", "1").with_timing(50, 1000))
            .unwrap();
        client.prewarm("p-1").unwrap();
        let r = client.invoke_tenant("p-1", "{}", None).unwrap();
        assert!(!r.cold, "prewarmed over HTTP");
        let st = client.status().unwrap();
        assert_eq!(st.name, "test-worker");
        assert_eq!(st.completed, 1);
        assert!(st.used_mem_mb > 0);
    }

    #[test]
    fn bad_register_body_is_400() {
        let (_w, _api, client) = served_worker();
        let resp = client
            .call(Request::new(Method::Post, "/register").with_body(&b"not json"[..]))
            .unwrap();
        assert_eq!(resp.status.0, 400);
    }

    #[test]
    fn unknown_route_is_404() {
        let (_w, _api, client) = served_worker();
        let resp = client.call(Request::new(Method::Get, "/nope")).unwrap();
        assert_eq!(resp.status.0, 404);
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let (_w, api, client) = served_worker();
        client
            .register(&FunctionSpec::new("f", "1").with_timing(100, 400))
            .unwrap();
        client.invoke_tenant("f-1", "{}", None).unwrap();
        let text = client.metrics_text().unwrap();
        assert!(
            text.contains("# TYPE iluvatar_queue_depth gauge"),
            "text:\n{text}"
        );
        assert!(text.contains("iluvatar_invocations_completed_total{worker=\"test-worker\"} 1"));
        assert!(
            text.contains("iluvatar_span_seconds_bucket"),
            "span histograms exported"
        );
        // The served counter is live: /register + /invoke + this scrape.
        assert!(
            text.contains("iluvatar_http_requests_total"),
            "text:\n{text}"
        );
        assert!(api.served() >= 3);
        let st = client.status().unwrap();
        assert!(st.http_requests >= 3, "status carries the served count");
        assert_eq!(st.failed, 0);
    }

    #[test]
    fn trace_endpoints_roundtrip() {
        let (_w, _api, client) = served_worker();
        client
            .register(&FunctionSpec::new("f", "1").with_timing(100, 400))
            .unwrap();
        let r = client.invoke_tenant("f-1", "{}", None).unwrap();
        assert_ne!(r.trace_id, 0, "results carry their trace id");
        // `result_returned` lands just after the result is delivered; poll.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let tr = loop {
            let tr = client.trace(r.trace_id).unwrap().expect("trace journaled");
            if tr.completed() || std::time::Instant::now() > deadline {
                break tr;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        assert_eq!(tr.trace_id, r.trace_id);
        assert_eq!(tr.fqdn, "f-1");
        assert_eq!(tr.cold(), Some(true));
        assert!(tr.completed());
        // Unknown ids are a clean None, bad ids a 400.
        assert!(client.trace(u64::MAX).unwrap().is_none());
        let resp = client
            .call(Request::new(Method::Get, "/trace/xyz"))
            .unwrap();
        assert_eq!(resp.status.0, 400);
        // /traces lists newest-first and honors last=N.
        client.invoke_tenant("f-1", "{}", None).unwrap();
        let recent = client.traces(1).unwrap();
        assert_eq!(recent.len(), 1);
        assert!(recent[0].trace_id > r.trace_id);
    }

    #[test]
    fn tenant_label_and_429_over_http() {
        use iluvatar_admission::{AdmissionConfig, TenantSpec};
        let clock = SystemClock::shared();
        let backend = Arc::new(SimBackend::new(
            Arc::clone(&clock),
            SimBackendConfig {
                time_scale: 0.02,
                ..Default::default()
            },
        ));
        let mut cfg = WorkerConfig::for_testing();
        cfg.admission =
            AdmissionConfig::enabled_with(vec![TenantSpec::new("free").with_rate(0.001, 1.0)]);
        let worker = Arc::new(Worker::new(cfg, backend, clock));
        let api = WorkerApi::serve(Arc::clone(&worker)).unwrap();
        let client = WorkerApiClient::new(api.addr());
        client
            .register(&FunctionSpec::new("f", "1").with_timing(100, 400))
            .unwrap();
        let r = client.invoke_tenant("f-1", "{}", Some("free")).unwrap();
        assert_eq!(r.tenant.as_deref(), Some("free"));
        match client.invoke_tenant("f-1", "{}", Some("free")) {
            Err(ApiError::Status(429, body)) => assert!(body.contains("throttled"), "{body}"),
            other => panic!("expected 429, got {other:?}"),
        }
        // The header alone is enough — no body field needed.
        let body = serde_json::to_vec(&InvokeBody {
            fqdn: "f-1".into(),
            args: String::new(),
            tenant: None,
        })
        .unwrap();
        let req = Request::new(Method::Post, "/invoke")
            .with_body(body)
            .with_header(iluvatar_http::TENANT_HEADER, "paid");
        let resp = client.call(req).unwrap();
        assert_eq!(resp.status.0, 200);
        let wire: WireResult = serde_json::from_str(resp.body_str()).unwrap();
        assert_eq!(wire.tenant.as_deref(), Some("paid"));
        // Status carries the per-tenant rollup and the drop counter.
        let st = client.status().unwrap();
        assert_eq!(st.dropped_admission, 1);
        let free = st.tenants.iter().find(|t| t.tenant == "free").unwrap();
        assert_eq!(free.throttled, 1);
        assert!(st
            .tenants
            .iter()
            .any(|t| t.tenant == "paid" && t.served == 1));
    }

    #[test]
    fn breakdown_and_flightrecorder_over_http() {
        let (w, _api, client) = served_worker();
        client
            .register(&FunctionSpec::new("f", "1").with_timing(100, 400))
            .unwrap();
        assert_eq!(client.last_telemetry_seq(), 0, "no stamped response yet");
        client.invoke_tenant("f-1", "{}", None).unwrap();
        client.invoke_tenant("f-1", "{}", None).unwrap();
        assert!(
            client.last_telemetry_seq() > 0,
            "/invoke responses carry X-Iluvatar-Seq"
        );
        // `result_returned` lands just after the result is delivered; poll
        // until both invocations are in the breakdown.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let bd = loop {
            let bd = client.breakdown().unwrap();
            if bd.invocations >= 2 || std::time::Instant::now() > deadline {
                break bd;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        assert_eq!(bd.source, "test-worker");
        assert_eq!((bd.cold, bd.warm), (1, 1));
        let e2e = bd.stage(crate::breakdown::stages::E2E).unwrap();
        assert_eq!(e2e.count, 2);
        let ops = bd.group("Container Operations").unwrap();
        assert!(ops.count > 0, "span groups populated");
        // Drain freezes a flight-recorder snapshot; the dump carries it
        // along with the recent-event ring.
        w.drain();
        let dump = client.flight_recorder().unwrap();
        assert!(!dump.events.is_empty(), "ring holds recent events");
        assert!(
            dump.snapshots.iter().any(|s| s.reason == "drain"),
            "drain froze a snapshot"
        );
        assert!(dump
            .events
            .iter()
            .any(|e| e.kind.label() == "lifecycle:draining"));
    }

    #[test]
    fn spans_endpoint_returns_distributions() {
        let (_w, _api, client) = served_worker();
        client
            .register(&FunctionSpec::new("f", "1").with_timing(100, 400))
            .unwrap();
        client.invoke_tenant("f-1", "{}", None).unwrap();
        let spans = client.spans().unwrap();
        assert!(!spans.is_empty());
        let call = spans.iter().find(|s| s.name == "call_container").unwrap();
        assert_eq!(call.count, 1);
        assert_eq!(call.hist.count(), 1);
    }
}
