//! HTTP client with per-address connection pooling.
//!
//! §3.3 ("HTTP Clients"): "Instead of creating a new HTTP client for every
//! invocation, we cache a client per container and use connection pooling.
//! This affects all invocations (even warm starts), and reduces the
//! control-plane overhead latency by up to 3 ms."
//!
//! [`HttpClient`] issues one request over a fresh connection;
//! [`PooledClient`] keeps idle connections per target address and reuses
//! them, transparently reconnecting when the server closed a pooled socket
//! while it sat idle.

use crate::message::{Request, Response};
use crate::parse::{parse_response, ParseOutcome};
use crate::HttpError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A round trip that failed, and whether any response byte had arrived.
struct RoundtripError {
    error: HttpError,
    response_started: bool,
}

impl RoundtripError {
    /// The peer closed this (pooled, idle) connection before our request
    /// reached a handler: the write or the first read found the socket
    /// gone. Anything else — a timeout above all — may mean the request is
    /// executing, so re-sending it would run it twice.
    fn socket_was_gone(&self) -> bool {
        use std::io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset};
        if self.response_started {
            return false;
        }
        match &self.error {
            HttpError::ConnectionClosed => true,
            HttpError::Io(e) => {
                matches!(e.kind(), BrokenPipe | ConnectionReset | ConnectionAborted)
            }
            HttpError::Parse(_) => false,
        }
    }
}

/// Issue `req` over `stream` and block for the full response.
fn roundtrip(stream: &mut TcpStream, req: &Request) -> Result<Response, RoundtripError> {
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let fail = |error: HttpError, buf: &[u8]| RoundtripError {
        error,
        response_started: !buf.is_empty(),
    };
    stream
        .write_all(&req.encode())
        .map_err(|e| fail(e.into(), &buf))?;
    let mut tmp = [0u8; 16 * 1024];
    loop {
        match parse_response(&buf).map_err(|e| fail(e.into(), &buf))? {
            ParseOutcome::Complete(resp, _used) => return Ok(resp),
            ParseOutcome::Incomplete => {}
        }
        match stream.read(&mut tmp) {
            Ok(0) => return Err(fail(HttpError::ConnectionClosed, &buf)),
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) => return Err(fail(e.into(), &buf)),
        }
    }
}

/// A one-shot client: connect, send, receive, drop.
pub struct HttpClient;

impl HttpClient {
    /// Send `req` to `addr` over a new connection.
    pub fn send(addr: SocketAddr, req: &Request, timeout: Duration) -> Result<Response, HttpError> {
        let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        roundtrip(&mut stream, req).map_err(|e| e.error)
    }
}

/// A connection-pooling client.
///
/// Idle connections are keyed by target address. `send` checks a connection
/// out of the pool (or dials), performs the round trip, and returns the
/// connection on success. A pooled connection that the server closed while
/// it sat idle is detected by the failed round trip and retried once on a
/// fresh connection; any other failure (a read timeout, a reset mid-body)
/// surfaces, because the request may already be executing.
pub struct PooledClient {
    idle: Mutex<HashMap<SocketAddr, Vec<TcpStream>>>,
    timeout: Duration,
    max_idle_per_addr: usize,
}

impl PooledClient {
    pub fn new(timeout: Duration) -> Self {
        Self {
            idle: Mutex::new(HashMap::new()),
            timeout,
            max_idle_per_addr: 4,
        }
    }

    fn checkout(&self, addr: SocketAddr) -> Option<TcpStream> {
        self.idle.lock().get_mut(&addr)?.pop()
    }

    fn checkin(&self, addr: SocketAddr, stream: TcpStream) {
        let mut idle = self.idle.lock();
        let slot = idle.entry(addr).or_default();
        if slot.len() < self.max_idle_per_addr {
            slot.push(stream);
        }
    }

    fn dial(&self, addr: SocketAddr) -> Result<TcpStream, HttpError> {
        let stream = TcpStream::connect_timeout(&addr, self.timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        Ok(stream)
    }

    /// Send `req`, reusing a pooled connection when possible.
    pub fn send(&self, addr: SocketAddr, req: &Request) -> Result<Response, HttpError> {
        if let Some(mut stream) = self.checkout(addr) {
            match roundtrip(&mut stream, req) {
                Ok(resp) => {
                    self.checkin(addr, stream);
                    return Ok(resp);
                }
                // Pooled socket had gone away; fall through to redial.
                Err(stale) if stale.socket_was_gone() => {}
                Err(other) => return Err(other.error),
            }
        }
        let mut stream = self.dial(addr)?;
        let resp = roundtrip(&mut stream, req).map_err(|e| e.error)?;
        self.checkin(addr, stream);
        Ok(resp)
    }

    /// Number of idle pooled connections to `addr`.
    pub fn idle_count(&self, addr: SocketAddr) -> usize {
        self.idle.lock().get(&addr).map(|v| v.len()).unwrap_or(0)
    }

    /// Drop all idle connections to `addr` (container destroyed).
    pub fn evict(&self, addr: SocketAddr) {
        self.idle.lock().remove(&addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Method, Response as Resp};
    use crate::server::HttpServer;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn server() -> (HttpServer, Arc<AtomicU64>) {
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = Arc::clone(&hits);
        let s = HttpServer::start(Arc::new(move |req| {
            h2.fetch_add(1, Ordering::SeqCst);
            Resp::ok(req.body.clone())
        }))
        .unwrap();
        (s, hits)
    }

    #[test]
    fn one_shot_client() {
        let (s, _) = server();
        let resp = HttpClient::send(
            s.addr(),
            &Request::new(Method::Post, "/invoke").with_body(&b"x"[..]),
            Duration::from_secs(2),
        )
        .unwrap();
        assert!(resp.status.is_success());
        assert_eq!(resp.body_str(), "x");
    }

    #[test]
    fn pooled_client_reuses_connection() {
        let (s, hits) = server();
        let pc = PooledClient::new(Duration::from_secs(2));
        for i in 0..5 {
            let resp = pc
                .send(
                    s.addr(),
                    &Request::new(Method::Get, "/").with_body(i.to_string()),
                )
                .unwrap();
            assert_eq!(resp.body_str(), i.to_string());
        }
        assert_eq!(hits.load(Ordering::SeqCst), 5);
        assert_eq!(pc.idle_count(s.addr()), 1, "one idle pooled connection");
    }

    #[test]
    fn pooled_client_redials_after_server_restart() {
        let (s, _) = server();
        let addr = s.addr();
        let pc = PooledClient::new(Duration::from_secs(2));
        pc.send(addr, &Request::new(Method::Get, "/")).unwrap();
        drop(s); // signal shutdown; connection threads exit within ~200ms
        std::thread::sleep(Duration::from_millis(400));
        // Pooled socket is dead and nothing listens on the port anymore:
        // the retry path must surface an error rather than hang.
        assert!(pc.send(addr, &Request::new(Method::Get, "/")).is_err());
    }

    #[test]
    fn timeout_on_a_reused_connection_surfaces_without_a_resend() {
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = Arc::clone(&hits);
        let s = HttpServer::start(Arc::new(move |req| {
            h2.fetch_add(1, Ordering::SeqCst);
            if req.path == "/slow" {
                std::thread::sleep(Duration::from_millis(400));
            }
            Resp::ok(req.body.clone())
        }))
        .unwrap();
        let pc = PooledClient::new(Duration::from_millis(100));
        pc.send(s.addr(), &Request::new(Method::Get, "/")).unwrap();
        assert_eq!(pc.idle_count(s.addr()), 1, "the next send reuses it");
        match pc.send(s.addr(), &Request::new(Method::Post, "/slow")) {
            Err(HttpError::Io(e)) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "expected the read timeout, got {e}"
            ),
            other => panic!("expected the read timeout, got {other:?}"),
        }
        // Let the slow handler finish: a re-sent request would have been
        // counted by now.
        std::thread::sleep(Duration::from_millis(500));
        assert_eq!(hits.load(Ordering::SeqCst), 2, "/ once, /slow once");
        assert_eq!(
            pc.idle_count(s.addr()),
            0,
            "the timed-out socket is dropped"
        );
    }

    #[test]
    fn evict_clears_pool() {
        let (s, _) = server();
        let pc = PooledClient::new(Duration::from_secs(2));
        pc.send(s.addr(), &Request::new(Method::Get, "/")).unwrap();
        assert_eq!(pc.idle_count(s.addr()), 1);
        pc.evict(s.addr());
        assert_eq!(pc.idle_count(s.addr()), 0);
    }

    #[test]
    fn pool_caps_idle_connections() {
        let (s, _) = server();
        let pc = PooledClient::new(Duration::from_secs(2));
        // Sequential sends only ever park one connection, so force several.
        let streams: Vec<_> = (0..8).map(|_| pc.dial(s.addr()).unwrap()).collect();
        for st in streams {
            pc.checkin(s.addr(), st);
        }
        assert_eq!(pc.idle_count(s.addr()), pc.max_idle_per_addr);
    }
}
