//! A from-scratch HTTP/1.1 implementation for the agent protocol.
//!
//! Each function container runs "a simple Python HTTP server" agent with two
//! endpoints — `GET /` for status and `POST /invoke` to run an invocation
//! (§3.2). The worker keeps **one pooled client per container** with
//! connection reuse, which the paper reports saves up to 3 ms per invocation
//! (§3.3, "HTTP Clients").
//!
//! This crate provides exactly what that protocol needs and nothing more:
//! request/response types, an incremental parser, a threaded server, and a
//! keep-alive client pool. Bodies are byte buffers sized by
//! `Content-Length`; chunked encoding is intentionally unsupported (the
//! agent never emits it).

pub mod client;
pub mod message;
pub mod parse;
pub mod server;

pub use client::{HttpClient, PooledClient};
pub use message::{Method, Request, Response, Status};
pub use parse::{parse_request, parse_response, ParseError, ParseOutcome};
pub use server::{HttpServer, ServerHandle};

/// Header carrying the invocation trace id across the worker → agent hop,
/// so agent-side time is attributed to the same end-to-end trace.
pub const TRACE_HEADER: &str = "X-Iluvatar-Trace";

/// Header carrying the tenant label for multi-tenant admission control and
/// fair scheduling; propagated alongside [`TRACE_HEADER`] on every hop
/// (client → worker → agent).
pub const TENANT_HEADER: &str = "X-Iluvatar-Tenant";

/// Header carrying the emitting source's latest canonical-telemetry
/// sequence number on API responses (worker and balancer). A caller that
/// records this value can order its own observation against the source's
/// event stream — "everything I caused has seq ≤ this".
pub const SEQ_HEADER: &str = "X-Iluvatar-Seq";

/// Header reporting what the result cache did for an invoke response:
/// `hit` (served from cache, no worker touched), `miss` (dispatched and
/// cached on return), or `bypass` (cache disabled or the function is not
/// registered idempotent).
pub const CACHE_HEADER: &str = "X-Iluvatar-Cache";

/// Errors surfaced by the client and server.
#[derive(Debug)]
pub enum HttpError {
    /// Underlying socket failure.
    Io(std::io::Error),
    /// Malformed wire data.
    Parse(ParseError),
    /// The peer closed the connection before a complete message arrived.
    ConnectionClosed,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "io error: {e}"),
            HttpError::Parse(e) => write!(f, "parse error: {e}"),
            HttpError::ConnectionClosed => write!(f, "connection closed mid-message"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl From<ParseError> for HttpError {
    fn from(e: ParseError) -> Self {
        HttpError::Parse(e)
    }
}
