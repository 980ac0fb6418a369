//! A small threaded HTTP/1.1 server with keep-alive connections.
//!
//! This is the transport under both the in-container agent (§3.2) and the
//! worker's HTTP API (§3.1). One thread per connection is plenty: an agent
//! serves exactly one pooled client (the worker), and test deployments see
//! tens of connections at most.

use crate::message::{Request, Response, Status};
use crate::parse::{parse_request, ParseOutcome};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Request handler: maps a request to a response. Must be cheap to share.
pub type Handler = Arc<dyn Fn(Request) -> Response + Send + Sync>;

/// A running HTTP server bound to a local port.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    served: Arc<AtomicU64>,
}

/// A cheap handle carrying the server address and live counters.
#[derive(Clone)]
pub struct ServerHandle {
    pub addr: SocketAddr,
    served: Arc<AtomicU64>,
}

impl ServerHandle {
    /// Total requests served so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }
}

impl HttpServer {
    /// Bind to `127.0.0.1:0` (ephemeral port) and start serving `handler`.
    pub fn start(handler: Handler) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let stop2 = Arc::clone(&stop);
        let served2 = Arc::clone(&served);
        let accept_thread = std::thread::Builder::new()
            .name(format!("http-accept-{}", addr.port()))
            .spawn(move || accept_loop(listener, handler, stop2, served2))?;
        Ok(Self {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            served,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            served: Arc::clone(&self.served),
        }
    }

    /// Signal shutdown and join the accept loop. In-flight connection
    /// threads finish their current request and exit on next read timeout.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            // The acceptor blocks in `accept()`; one loopback dial wakes it
            // to see `stop`. A refused dial means it is already gone.
            let _ = TcpStream::connect(self.addr);
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    handler: Handler,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
) {
    // A blocking accept: a new connection is served the moment it lands,
    // and an idle server sleeps. `shutdown()` sets `stop`, then dials once.
    while let Ok((stream, _peer)) = listener.accept() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let handler = Arc::clone(&handler);
        let stop = Arc::clone(&stop);
        let served = Arc::clone(&served);
        let _ = std::thread::Builder::new()
            .name("http-conn".into())
            .spawn(move || connection_loop(stream, handler, stop, served));
    }
}

fn connection_loop(
    stream: TcpStream,
    handler: Handler,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
) {
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut tmp = [0u8; 16 * 1024];
    loop {
        // Parse whatever is already buffered (pipelining / keep-alive).
        match parse_request(&buf) {
            Ok(ParseOutcome::Complete(req, used)) => {
                buf.drain(..used);
                let close = req
                    .header("connection")
                    .map(|v| v.eq_ignore_ascii_case("close"))
                    .unwrap_or(false);
                let resp = handler(req);
                served.fetch_add(1, Ordering::Relaxed);
                if stream.write_all(&resp.encode()).is_err() {
                    return;
                }
                if close {
                    return;
                }
                continue;
            }
            Ok(ParseOutcome::Incomplete) => {}
            Err(_) => {
                let resp = Response::new(Status::BAD_REQUEST);
                let _ = stream.write_all(&resp.encode());
                return;
            }
        }
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match stream.read(&mut tmp) {
            Ok(0) => return, // peer closed
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Keep-alive idle; poll the stop flag and wait again.
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Method;

    fn echo_server() -> HttpServer {
        HttpServer::start(Arc::new(|req: Request| {
            Response::ok(req.body.clone()).with_header("X-Path", req.path)
        }))
        .unwrap()
    }

    fn raw_roundtrip(addr: SocketAddr, wire: &[u8]) -> Vec<u8> {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(wire).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut out = Vec::new();
        let mut tmp = [0u8; 4096];
        loop {
            if let Ok(ParseOutcome::Complete(..)) = crate::parse::parse_response(&out) {
                break;
            }
            match s.read(&mut tmp) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&tmp[..n]),
                Err(_) => break,
            }
        }
        out
    }

    #[test]
    fn serves_echo() {
        let server = echo_server();
        let req = Request::new(Method::Post, "/invoke").with_body(&b"ping"[..]);
        let raw = raw_roundtrip(server.addr(), &req.encode());
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK"));
        assert!(text.contains("X-Path: /invoke"));
        assert!(text.ends_with("ping"));
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let server = echo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut buf = Vec::new();
        let mut tmp = [0u8; 4096];
        for i in 0..3 {
            let req = Request::new(Method::Post, "/n").with_body(format!("req{i}"));
            s.write_all(&req.encode()).unwrap();
            loop {
                if let Ok(ParseOutcome::Complete(resp, used)) = crate::parse::parse_response(&buf) {
                    assert_eq!(resp.body_str(), format!("req{i}"));
                    buf.drain(..used);
                    break;
                }
                let n = s.read(&mut tmp).unwrap();
                assert!(n > 0, "server closed keep-alive connection");
                buf.extend_from_slice(&tmp[..n]);
            }
        }
        assert_eq!(server.handle().served(), 3);
    }

    #[test]
    fn malformed_request_gets_400() {
        let server = echo_server();
        let raw = raw_roundtrip(server.addr(), b"NOTHTTP / HTTP/1.1\r\n\r\n");
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"), "got: {text}");
    }

    #[test]
    fn connection_close_honored() {
        let server = echo_server();
        let req = Request::new(Method::Get, "/").with_header("Connection", "close");
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(&req.encode()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut all = Vec::new();
        let _ = s.read_to_end(&mut all); // server must close, ending the read
        assert!(String::from_utf8_lossy(&all).starts_with("HTTP/1.1 200"));
    }

    #[test]
    fn fresh_connection_is_served_and_idle_shutdown_is_prompt() {
        let mut server = echo_server();
        // No connection has ever been made: the acceptor is blocked in
        // `accept()`, and the first dial must be served all the same.
        let req = Request::new(Method::Post, "/first").with_body(&b"hello"[..]);
        let text = String::from_utf8(raw_roundtrip(server.addr(), &req.encode())).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK"), "got: {text}");
        assert!(text.ends_with("hello"));
        // Idle again (the one connection closed with `raw_roundtrip`'s
        // stream): shutdown must wake the blocked acceptor by itself.
        let started = std::time::Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "shutdown took {:?} with an idle acceptor",
            started.elapsed()
        );
    }

    #[test]
    fn shutdown_stops_accepting() {
        let mut server = echo_server();
        let addr = server.addr();
        server.shutdown();
        // Connection may be accepted by OS backlog, but a request must not
        // be served; allow either failure mode.
        let res = TcpStream::connect(addr);
        if let Ok(mut s) = res {
            let _ = s.write_all(&Request::new(Method::Get, "/").encode());
            let mut out = Vec::new();
            s.set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            let _ = s.read_to_end(&mut out);
            assert!(out.is_empty(), "shutdown server must not answer");
        }
    }
}
