//! Containers as in-process agents over loopback TCP.
//!
//! Each "container" is a booted [`Agent`](crate::agent::Agent) — a real HTTP
//! server on an ephemeral port hosting a registered Rust closure. The worker
//! talks to it with the pooled HTTP client, so the complete §3.2 hot path
//! (acquire container → `prepare_invoke` → `call_container` →
//! `download_result`) runs against genuine sockets. This backend produces
//! the Table 1 latency breakdown.

use crate::agent::{Agent, FunctionBehavior};
use crate::backend::{BackendError, ContainerBackend, InvokeOutput};
use crate::netns::NamespacePool;
use crate::types::{Container, FunctionSpec};
use iluvatar_http::{Method, PooledClient, Request, TENANT_HEADER, TRACE_HEADER};
use iluvatar_sync::ShardedMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Backend that runs functions as threads inside this process.
pub struct InProcessBackend {
    behaviors: ShardedMap<String, FunctionBehavior>,
    agents: ShardedMap<u64, Arc<Agent>>,
    next_cookie: AtomicU64,
    client: PooledClient,
    netns: Arc<NamespacePool>,
}

impl InProcessBackend {
    pub fn new(netns: Arc<NamespacePool>) -> Self {
        Self {
            behaviors: ShardedMap::new(),
            agents: ShardedMap::new(),
            next_cookie: AtomicU64::new(1),
            client: PooledClient::new(Duration::from_secs(60)),
            netns,
        }
    }

    /// Register the code that will run inside containers of `fqdn`.
    pub fn register_behavior(&self, fqdn: impl Into<String>, behavior: FunctionBehavior) {
        self.behaviors.insert(fqdn.into(), behavior);
    }

    /// Number of live agents.
    pub fn live_containers(&self) -> usize {
        self.agents.len()
    }

    /// Trace ids observed by all live agents — the agent-side half of the
    /// end-to-end trace propagation check.
    pub fn observed_traces(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.agents.for_each(|_, agent| {
            out.extend(agent.observed_traces());
        });
        out
    }

    /// Tenant labels observed by all live agents — the agent-side half of
    /// the tenant propagation check.
    pub fn observed_tenants(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.agents.for_each(|_, agent| {
            out.extend(agent.observed_tenants());
        });
        out
    }
}

impl ContainerBackend for InProcessBackend {
    fn name(&self) -> &'static str {
        "inprocess"
    }

    fn create(&self, spec: &FunctionSpec) -> Result<Container, BackendError> {
        let behavior = self
            .behaviors
            .get(&spec.fqdn)
            .ok_or_else(|| BackendError::CreateFailed(format!("no behavior for {}", spec.fqdn)))?;
        let lease = self.netns.acquire();
        let agent = Agent::boot(behavior)
            .map_err(|e| BackendError::CreateFailed(format!("agent boot: {e}")))?;
        let mut container = Container::new(&spec.fqdn, spec.limits);
        container.agent_addr = Some(agent.addr());
        container.netns = Some(lease);
        let cookie = self.next_cookie.fetch_add(1, Ordering::Relaxed);
        container.backend_cookie = cookie;
        self.agents.insert(cookie, Arc::new(agent));
        Ok(container)
    }

    fn invoke(&self, container: &Container, args: &str) -> Result<InvokeOutput, BackendError> {
        self.invoke_traced(container, args, None)
    }

    fn invoke_traced(
        &self,
        container: &Container,
        args: &str,
        trace: Option<&str>,
    ) -> Result<InvokeOutput, BackendError> {
        self.invoke_ctx(container, args, trace, None)
    }

    fn invoke_ctx(
        &self,
        container: &Container,
        args: &str,
        trace: Option<&str>,
        tenant: Option<&str>,
    ) -> Result<InvokeOutput, BackendError> {
        let addr = container.agent_addr.ok_or(BackendError::UnknownContainer)?;
        if !self.agents.contains_key(&container.backend_cookie) {
            return Err(BackendError::UnknownContainer);
        }
        let mut req = Request::new(Method::Post, "/invoke")
            .with_header("Content-Type", "application/json")
            .with_body(args.as_bytes().to_vec());
        if let Some(t) = trace {
            req = req.with_header(TRACE_HEADER, t.to_string());
        }
        if let Some(t) = tenant {
            req = req.with_header(TENANT_HEADER, t.to_string());
        }
        let resp = self
            .client
            .send(addr, &req)
            .map_err(|e| BackendError::InvokeFailed(e.to_string()))?;
        if !resp.status.is_success() {
            return Err(BackendError::InvokeFailed(format!(
                "agent status {}",
                resp.status.0
            )));
        }
        let exec_ms = resp
            .header("x-duration-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        container.record_invocation();
        Ok(InvokeOutput {
            body: resp.body_str().to_string(),
            exec_ms,
        })
    }

    fn destroy(&self, container: &Container) -> Result<(), BackendError> {
        let agent = self
            .agents
            .remove(&container.backend_cookie)
            .ok_or(BackendError::UnknownContainer)?;
        if let Some(addr) = container.agent_addr {
            self.client.evict(addr);
        }
        drop(agent); // shuts the HTTP server down
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iluvatar_sync::SystemClock;

    fn backend() -> InProcessBackend {
        let netns = Arc::new(NamespacePool::new(2, 0, SystemClock::shared()));
        netns.prefill();
        InProcessBackend::new(netns)
    }

    fn spec() -> FunctionSpec {
        FunctionSpec::new("echo", "1")
    }

    #[test]
    fn create_invoke_destroy_roundtrip() {
        let b = backend();
        b.register_behavior(
            "echo-1",
            FunctionBehavior::from_body(|args| format!("[{args}]")),
        );
        let c = b.create(&spec()).unwrap();
        assert_eq!(b.live_containers(), 1);
        let out = b.invoke(&c, "7").unwrap();
        assert_eq!(out.body, "[7]");
        assert_eq!(c.invocations(), 1);
        b.destroy(&c).unwrap();
        assert_eq!(b.live_containers(), 0);
    }

    #[test]
    fn create_unregistered_fails() {
        let b = backend();
        assert!(matches!(
            b.create(&spec()),
            Err(BackendError::CreateFailed(_))
        ));
    }

    #[test]
    fn invoke_after_destroy_fails() {
        let b = backend();
        b.register_behavior("echo-1", FunctionBehavior::from_body(|_| "{}".into()));
        let c = b.create(&spec()).unwrap();
        b.destroy(&c).unwrap();
        assert!(matches!(
            b.invoke(&c, ""),
            Err(BackendError::UnknownContainer)
        ));
        assert!(matches!(b.destroy(&c), Err(BackendError::UnknownContainer)));
    }

    #[test]
    fn containers_are_isolated_per_function() {
        let b = backend();
        b.register_behavior("echo-1", FunctionBehavior::from_body(|_| "a".into()));
        b.register_behavior("other-1", FunctionBehavior::from_body(|_| "b".into()));
        let c1 = b.create(&spec()).unwrap();
        let c2 = b.create(&FunctionSpec::new("other", "1")).unwrap();
        assert_ne!(c1.agent_addr, c2.agent_addr, "distinct agents");
        assert_ne!(
            c1.netns.as_ref().unwrap().id(),
            c2.netns.as_ref().unwrap().id(),
            "distinct network namespaces"
        );
        assert_eq!(b.invoke(&c1, "").unwrap().body, "a");
        assert_eq!(b.invoke(&c2, "").unwrap().body, "b");
    }

    #[test]
    fn warm_invocations_reuse_container() {
        let b = backend();
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.register_behavior(
            "echo-1",
            FunctionBehavior::from_body(move |_| {
                h.fetch_add(1, Ordering::SeqCst);
                "{}".into()
            }),
        );
        let c = b.create(&spec()).unwrap();
        for _ in 0..5 {
            b.invoke(&c, "").unwrap();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 5);
        assert_eq!(c.invocations(), 5);
        assert_eq!(
            b.live_containers(),
            1,
            "same container served all warm hits"
        );
    }

    #[test]
    fn trace_header_reaches_agent() {
        let b = backend();
        b.register_behavior("echo-1", FunctionBehavior::from_body(|_| "{}".into()));
        let c = b.create(&spec()).unwrap();
        b.invoke_traced(&c, "{}", Some("00000000deadbeef")).unwrap();
        assert!(
            b.observed_traces()
                .contains(&"00000000deadbeef".to_string()),
            "agent must observe the propagated trace id"
        );
        // Untraced invocations add nothing.
        b.invoke(&c, "{}").unwrap();
        assert_eq!(b.observed_traces().len(), 1);
    }

    #[test]
    fn tenant_header_reaches_agent() {
        let b = backend();
        b.register_behavior("echo-1", FunctionBehavior::from_body(|_| "{}".into()));
        let c = b.create(&spec()).unwrap();
        b.invoke_ctx(&c, "{}", Some("00000000deadbeef"), Some("acme"))
            .unwrap();
        assert!(
            b.observed_tenants().contains(&"acme".to_string()),
            "agent must observe the propagated tenant label"
        );
        // Unlabelled invocations add nothing.
        b.invoke(&c, "{}").unwrap();
        assert_eq!(b.observed_tenants().len(), 1);
        assert_eq!(
            b.observed_traces().len(),
            1,
            "trace still propagated alongside tenant"
        );
    }

    #[test]
    fn exec_time_reported() {
        let b = backend();
        b.register_behavior("echo-1", FunctionBehavior::sleeper(0, 30));
        let c = b.create(&spec()).unwrap();
        let out = b.invoke(&c, "").unwrap();
        assert!(out.exec_ms >= 25, "agent-reported exec {}ms", out.exec_ms);
    }
}
