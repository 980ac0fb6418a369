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

use crate::buf::ReadBuf;
use crate::message::{Request, Response};
use crate::parse::{parse_response, ParseOutcome};
use crate::HttpError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
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

/// A connection with the buffers its round trips reuse: pooled together,
/// so a warm call allocates none.
struct Conn {
    stream: TcpStream,
    buf: ReadBuf,
    out: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr, timeout: Duration) -> Result<Self, HttpError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self {
            stream,
            buf: ReadBuf::new(),
            out: Vec::with_capacity(1024),
        })
    }

    /// Issue `req` and block for the full response.
    fn roundtrip(&mut self, req: &Request) -> Result<Response, RoundtripError> {
        self.buf.clear();
        self.out.clear();
        req.encode_into(&mut self.out);
        let written = self.stream.write_all(&self.out);
        if self.out.capacity() > 64 * 1024 {
            self.out = Vec::with_capacity(1024);
        }
        written.map_err(|e| RoundtripError {
            error: e.into(),
            response_started: false,
        })?;
        loop {
            let response_started = !self.buf.filled().is_empty();
            let fail = |error| RoundtripError {
                error,
                response_started,
            };
            match parse_response(self.buf.filled()).map_err(|e| fail(e.into()))? {
                ParseOutcome::Complete(resp, used) => {
                    self.buf.consume(used);
                    return Ok(resp);
                }
                ParseOutcome::Incomplete => {}
            }
            match self.buf.read_from(&mut self.stream) {
                Ok(0) => return Err(fail(HttpError::ConnectionClosed)),
                Ok(_) => {}
                Err(e) => return Err(fail(e.into())),
            }
        }
    }
}

/// A one-shot client: connect, send, receive, drop.
pub struct HttpClient;

impl HttpClient {
    /// Send `req` to `addr` over a new connection.
    pub fn send(addr: SocketAddr, req: &Request, timeout: Duration) -> Result<Response, HttpError> {
        Conn::open(addr, timeout)?
            .roundtrip(req)
            .map_err(|e| e.error)
    }
}

/// One target address's connections.
#[derive(Default)]
struct AddrPool {
    idle: Vec<Conn>,
    /// Sends to this address in progress.
    busy: usize,
    /// The most sends ever in progress at once: the idle cap. Parking more
    /// than that could never be used; parking fewer makes a caller that
    /// runs that many sends dial (and the server spawn a connection
    /// thread) on every burst.
    peak: usize,
}

/// A connection-pooling client.
///
/// Idle connections are keyed by target address. `send` checks a connection
/// out of the pool (or dials), performs the round trip, and returns the
/// connection on success; each address parks at most as many idle
/// connections as it has seen sends in flight at once. A pooled connection
/// that the server closed while it sat idle is detected by the failed round
/// trip and retried once on a fresh connection; any other failure (a read
/// timeout, a reset mid-body) surfaces, because the request may already be
/// executing.
pub struct PooledClient {
    pools: Mutex<HashMap<SocketAddr, AddrPool>>,
    timeout: Duration,
}

impl PooledClient {
    pub fn new(timeout: Duration) -> Self {
        Self {
            pools: Mutex::new(HashMap::new()),
            timeout,
        }
    }

    fn checkout(&self, addr: SocketAddr) -> Option<Conn> {
        let mut pools = self.pools.lock();
        let pool = pools.entry(addr).or_default();
        pool.busy += 1;
        pool.peak = pool.peak.max(pool.busy);
        pool.idle.pop()
    }

    /// End a checkout, parking `conn` for reuse when the send succeeded.
    fn checkin(&self, addr: SocketAddr, conn: Option<Conn>) {
        let mut pools = self.pools.lock();
        let pool = pools.entry(addr).or_default();
        pool.busy = pool.busy.saturating_sub(1);
        if let Some(conn) = conn {
            if pool.idle.len() < pool.peak {
                pool.idle.push(conn);
            }
        }
    }

    /// Send `req`, reusing a pooled connection when possible.
    pub fn send(&self, addr: SocketAddr, req: &Request) -> Result<Response, HttpError> {
        let pooled = self.checkout(addr);
        match self.send_on(addr, pooled, req) {
            Ok((resp, conn)) => {
                self.checkin(addr, Some(conn));
                Ok(resp)
            }
            Err(e) => {
                self.checkin(addr, None);
                Err(e)
            }
        }
    }

    fn send_on(
        &self,
        addr: SocketAddr,
        pooled: Option<Conn>,
        req: &Request,
    ) -> Result<(Response, Conn), HttpError> {
        if let Some(mut conn) = pooled {
            match conn.roundtrip(req) {
                Ok(resp) => return Ok((resp, conn)),
                // Pooled socket had gone away; fall through to redial.
                Err(stale) if stale.socket_was_gone() => {}
                Err(other) => return Err(other.error),
            }
        }
        let mut conn = Conn::open(addr, self.timeout)?;
        let resp = conn.roundtrip(req).map_err(|e| e.error)?;
        Ok((resp, conn))
    }

    /// Number of idle pooled connections to `addr`.
    pub fn idle_count(&self, addr: SocketAddr) -> usize {
        self.pools
            .lock()
            .get(&addr)
            .map(|p| p.idle.len())
            .unwrap_or(0)
    }

    /// Drop all idle connections to `addr` (container destroyed).
    pub fn evict(&self, addr: SocketAddr) {
        if let Some(pool) = self.pools.lock().get_mut(&addr) {
            pool.idle.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Method, Response as Resp};
    use crate::server::HttpServer;
    use std::collections::HashSet;
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
    fn idle_cap_follows_peak_concurrency() {
        let (s, _) = server();
        let pc = PooledClient::new(Duration::from_secs(2));
        // Three sends in flight at once: three connections may park.
        let conns: Vec<_> = (0..3)
            .map(|_| {
                assert!(pc.checkout(s.addr()).is_none());
                Conn::open(s.addr(), pc.timeout).unwrap()
            })
            .collect();
        for c in conns {
            pc.checkin(s.addr(), Some(c));
        }
        assert_eq!(pc.idle_count(s.addr()), 3);
        // A fourth could never be used by the concurrency seen so far.
        let extra = Conn::open(s.addr(), pc.timeout).unwrap();
        pc.checkin(s.addr(), Some(extra));
        assert_eq!(pc.idle_count(s.addr()), 3);
    }

    #[test]
    fn concurrent_senders_reuse_at_most_their_own_number_of_connections() {
        // The handler runs on the server's per-connection thread, so
        // distinct handler threads are distinct connections.
        let threads_seen = Arc::new(Mutex::new(HashSet::new()));
        let seen = Arc::clone(&threads_seen);
        let s = HttpServer::start(Arc::new(move |req: Request| {
            seen.lock().insert(std::thread::current().id());
            Resp::ok(req.body.clone())
        }))
        .unwrap();
        let pc = Arc::new(PooledClient::new(Duration::from_secs(5)));
        let senders: Vec<_> = (0..8)
            .map(|t| {
                let pc = Arc::clone(&pc);
                let addr = s.addr();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let body = format!("{t}/{i}");
                        let resp = pc
                            .send(
                                addr,
                                &Request::new(Method::Post, "/").with_body(body.clone()),
                            )
                            .unwrap();
                        assert_eq!(resp.body_str(), body);
                    }
                })
            })
            .collect();
        for t in senders {
            t.join().unwrap();
        }
        let conns = threads_seen.lock().len();
        assert!(conns <= 8, "8 senders used {conns} connections");
        assert!(pc.idle_count(s.addr()) <= 8);
    }
}
