//! Shared container and function description types.

use crate::netns::NamespaceLease;
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Globally unique container identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContainerId(pub u64);

static NEXT_CONTAINER_ID: AtomicU64 = AtomicU64::new(1);

impl ContainerId {
    /// Allocate the next process-unique id.
    pub fn next() -> Self {
        Self(NEXT_CONTAINER_ID.fetch_add(1, Ordering::Relaxed))
    }
}

impl std::fmt::Display for ContainerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ctr-{}", self.0)
    }
}

/// Per-container CPU/memory limits (cgroup quota equivalents).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceLimits {
    /// CPU shares in whole-core units (cgroup quota / period).
    pub cpus: f64,
    /// Memory limit in MB; also the keep-alive cache occupancy.
    pub memory_mb: u64,
}

impl Default for ResourceLimits {
    fn default() -> Self {
        Self {
            cpus: 1.0,
            memory_mb: 128,
        }
    }
}

/// Everything the backend needs to know about a registered function.
///
/// The timing fields parameterize the simulated backends; the in-process
/// backend ignores them and runs real code.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FunctionSpec {
    /// Fully qualified name (`name-version`), the registry key.
    pub fqdn: String,
    pub name: String,
    pub version: String,
    /// Container image reference, e.g. `docker.io/lib/pyaes:latest`.
    pub image: String,
    pub limits: ResourceLimits,
    /// Modelled warm execution time (function code only), ms.
    pub warm_exec_ms: u64,
    /// Modelled extra initialization on the first invocation in a fresh
    /// container (imports, model downloads, ...), ms.
    pub init_ms: u64,
    /// Owning tenant for multi-tenant admission control; `None` means the
    /// platform default tenant. An explicit per-invocation label overrides
    /// this registration-time default.
    #[serde(default)]
    pub tenant: Option<String>,
    /// Declared idempotent: repeated invocations with identical arguments
    /// may be served from the control-plane result cache. Strictly opt-in —
    /// only the function owner can know whether results are replayable.
    #[serde(default)]
    pub idempotent: bool,
}

impl FunctionSpec {
    pub fn new(name: impl Into<String>, version: impl Into<String>) -> Self {
        let name = name.into();
        let version = version.into();
        Self {
            fqdn: format!("{name}-{version}"),
            name,
            version,
            image: String::new(),
            limits: ResourceLimits::default(),
            warm_exec_ms: 10,
            init_ms: 100,
            tenant: None,
            idempotent: false,
        }
    }

    pub fn with_image(mut self, image: impl Into<String>) -> Self {
        self.image = image.into();
        self
    }

    pub fn with_limits(mut self, limits: ResourceLimits) -> Self {
        self.limits = limits;
        self
    }

    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    pub fn with_idempotent(mut self) -> Self {
        self.idempotent = true;
        self
    }

    pub fn with_timing(mut self, warm_exec_ms: u64, init_ms: u64) -> Self {
        self.warm_exec_ms = warm_exec_ms;
        self.init_ms = init_ms;
        self
    }

    /// Modelled cold execution: initialization plus the warm run.
    pub fn cold_exec_ms(&self) -> u64 {
        self.warm_exec_ms + self.init_ms
    }
}

/// A live container handle, as held in the worker's container pool.
pub struct Container {
    pub id: ContainerId,
    pub fqdn: String,
    pub limits: ResourceLimits,
    /// Agent endpoint for backends that run a real agent.
    pub agent_addr: Option<SocketAddr>,
    /// The leased pre-created network namespace.
    pub netns: Option<NamespaceLease>,
    /// Number of invocations this container has served.
    invocations: AtomicU64,
    /// Backend bookkeeping cookie (e.g. index into the in-process table).
    pub backend_cookie: u64,
}

impl Container {
    pub fn new(fqdn: impl Into<String>, limits: ResourceLimits) -> Self {
        Self {
            id: ContainerId::next(),
            fqdn: fqdn.into(),
            limits,
            agent_addr: None,
            netns: None,
            invocations: AtomicU64::new(0),
            backend_cookie: 0,
        }
    }

    pub fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    pub fn record_invocation(&self) -> u64 {
        self.invocations.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// True until the first invocation completes: the next invocation pays
    /// the function initialization cost.
    pub fn needs_init(&self) -> bool {
        self.invocations() == 0
    }
}

pub type SharedContainer = Arc<Container>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_ids_unique_and_ordered() {
        let a = ContainerId::next();
        let b = ContainerId::next();
        assert!(b > a);
        assert_ne!(a, b);
        assert!(a.to_string().starts_with("ctr-"));
    }

    #[test]
    fn spec_fqdn_composed() {
        let s = FunctionSpec::new("hello", "1");
        assert_eq!(s.fqdn, "hello-1");
        assert_eq!(s.cold_exec_ms(), s.warm_exec_ms + s.init_ms);
    }

    #[test]
    fn spec_builders() {
        let s = FunctionSpec::new("f", "2")
            .with_image("repo/f:2")
            .with_limits(ResourceLimits {
                cpus: 2.0,
                memory_mb: 512,
            })
            .with_timing(50, 900);
        assert_eq!(s.image, "repo/f:2");
        assert_eq!(s.limits.memory_mb, 512);
        assert_eq!(s.cold_exec_ms(), 950);
    }

    #[test]
    fn container_invocation_counter() {
        let c = Container::new("f-1", ResourceLimits::default());
        assert!(c.needs_init());
        assert_eq!(c.record_invocation(), 1);
        assert!(!c.needs_init());
        assert_eq!(c.invocations(), 1);
    }

    #[test]
    fn spec_serde_roundtrip() {
        let s = FunctionSpec::new("f", "1").with_timing(5, 7);
        let json = serde_json::to_string(&s).unwrap();
        let back: FunctionSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fqdn, s.fqdn);
        assert_eq!(back.warm_exec_ms, 5);
    }
}
