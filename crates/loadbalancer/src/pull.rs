//! Worker side of the pull-dispatch plane over HTTP.
//!
//! The balancer owns the [`iluvatar_dispatch::PullPlane`]; workers reach
//! it through two routes ([`crate::LbApi`] serves both when a plane is
//! attached):
//!
//! | method & path         | body                                          | response |
//! |-----------------------|-----------------------------------------------|----------|
//! | `POST /pull`          | [`PullBody`] `{"worker":…, "max":…, "wait_ms":…}` | `Vec<Lease>` JSON |
//! | `POST /pull/complete` | [`CompleteBody`]                              | `{"accepted":bool}` |
//!
//! [`HttpLeaseSource`] adapts those routes to the
//! [`iluvatar_dispatch::LeaseSource`] trait, so a worker-side
//! [`iluvatar_dispatch::PullLoop`] drives a remote balancer exactly as it
//! would an in-process plane.

use iluvatar_dispatch::{Lease, LeaseSource};
use iluvatar_http::{Method, PooledClient, Request, Status};
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::time::Duration;

/// `POST /pull` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PullBody {
    /// The pulling worker's registered shard name.
    pub worker: String,
    /// Max leases to grant (0 = the plane's configured batch).
    #[serde(default)]
    pub max: usize,
    /// Long-poll budget, ms (0 = return immediately).
    #[serde(default)]
    pub wait_ms: u64,
}

/// `POST /pull/complete` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompleteBody {
    pub lease_id: u64,
    pub ok: bool,
    #[serde(default)]
    pub body: String,
    #[serde(default)]
    pub exec_ms: u64,
}

/// `POST /pull/complete` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompleteReply {
    /// False when the lease had already expired: the work ran, but the
    /// requeued incarnation owns the accounting.
    pub accepted: bool,
}

/// A [`LeaseSource`] that long-polls a remote balancer's `/pull` routes
/// over kept-alive connections. A request the pool re-sends after finding
/// its socket closed is safe: the lease TTL requeues a grant nobody heard
/// of, and a completion is idempotent per lease.
pub struct HttpLeaseSource {
    addr: SocketAddr,
    /// Long-poll budget sent with each pull.
    wait_ms: u64,
    /// Request timeout covers the long poll plus slack.
    client: PooledClient,
}

impl HttpLeaseSource {
    pub fn new(addr: SocketAddr, wait_ms: u64) -> Self {
        Self {
            addr,
            wait_ms,
            client: PooledClient::new(Duration::from_millis(wait_ms + 5_000)),
        }
    }
}

impl LeaseSource for HttpLeaseSource {
    fn pull(&self, worker: &str, max: usize) -> Vec<Lease> {
        let body = serde_json::to_vec(&PullBody {
            worker: worker.to_string(),
            max,
            wait_ms: self.wait_ms,
        })
        .expect("serialize pull body");
        let resp = self.client.send(
            self.addr,
            &Request::new(Method::Post, "/pull").with_body(body),
        );
        match resp {
            Ok(r) if r.status == Status::OK => {
                serde_json::from_str(r.body_str()).unwrap_or_default()
            }
            _ => Vec::new(),
        }
    }

    fn complete(&self, lease_id: u64, ok: bool, body: &str, exec_ms: u64) -> bool {
        let payload = serde_json::to_vec(&CompleteBody {
            lease_id,
            ok,
            body: body.to_string(),
            exec_ms,
        })
        .expect("serialize complete body");
        let resp = self.client.send(
            self.addr,
            &Request::new(Method::Post, "/pull/complete").with_body(payload),
        );
        match resp {
            Ok(r) if r.status == Status::OK => serde_json::from_str::<CompleteReply>(r.body_str())
                .map(|c| c.accepted)
                .unwrap_or(false),
            _ => false,
        }
    }
}
