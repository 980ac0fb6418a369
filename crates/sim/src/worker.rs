//! A virtual-time worker behind the balancer's [`WorkerHandle`] seam.
//!
//! §3.4: "a large cluster can be simulated with multiple simulated
//! workers." The worker is a [`KeepaliveSim`] with invoker slots, read at
//! an injected [`Clock`]; everything above it — routing, health, drain,
//! scaling, victim choice, warm handoff — is the production `Cluster` and
//! `Fleet`, which see the fields `WorkerStatus` defines, computed the way
//! the real worker computes them. A driver steps a `ManualClock` through a
//! trace and calls `cluster.invoke` / `fleet.tick`; nothing here decides
//! where an invocation goes or how large the fleet is.
//!
//! An arrival is answered at once in virtual time, so the balancer never
//! has a hop outstanding to a `SimWorker`: between probe rounds its view
//! of one is simply the last probe. A driver that wants routing on fresh
//! loads calls `cluster.probe_round()` before each `invoke`.

use crate::keepalive::{Arrival, KeepaliveSim, SimConfig, SimOutcome};
use iluvatar_core::{CacheStatus, FunctionSpec, InvocationResult, InvokeError};
use iluvatar_lb::{HandleStats, ProbeResult, WorkerHandle};
use iluvatar_sync::Clock;
use iluvatar_trace::azure::FunctionProfile;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub struct SimWorker {
    name: String,
    clock: Arc<dyn Clock>,
    /// Invoker slots: the denominator of the normalized load.
    slots: usize,
    /// fqdn → (function index, warm ms, init ms).
    fns: HashMap<String, (u32, u64, u64)>,
    sim: Mutex<KeepaliveSim>,
    draining: AtomicBool,
}

impl SimWorker {
    /// `cfg.concurrency` must be set: without invoker slots the simulator
    /// tracks no executing set and every load would read 0.
    pub fn new(
        name: impl Into<String>,
        profiles: Vec<FunctionProfile>,
        cfg: SimConfig,
        clock: Arc<dyn Clock>,
    ) -> Arc<Self> {
        let slots = cfg
            .concurrency
            .expect("a SimWorker needs invoker slots (SimConfig::concurrency)");
        let entry =
            |(i, p): (usize, &FunctionProfile)| (p.fqdn.clone(), (i as u32, p.warm_ms, p.init_ms));
        Arc::new(Self {
            name: name.into(),
            clock,
            slots,
            fns: profiles.iter().enumerate().map(entry).collect(),
            sim: Mutex::new(KeepaliveSim::new(profiles, cfg)),
            draining: AtomicBool::new(false),
        })
    }

    /// The simulator, advanced to the clock's now.
    fn current(&self) -> MutexGuard<'_, KeepaliveSim> {
        let mut sim = self.sim.lock();
        sim.advance(self.clock.now_ms());
        sim
    }

    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Keep-alive cache occupancy as of the last call that advanced the
    /// worker, MB.
    pub fn used_mb(&self) -> u64 {
        self.sim.lock().used_mb()
    }

    /// Finish the backlog up to `end` and collect the run's counters; what
    /// is still waiting then counts as dropped.
    pub fn finish(&self, end: u64) -> SimOutcome {
        self.sim.lock().finish(end)
    }
}

impl WorkerHandle for SimWorker {
    fn name(&self) -> String {
        self.name.clone()
    }

    /// (executing + backlogged) / invoker slots: `Shared::normalized_load`.
    fn load(&self) -> f64 {
        let sim = self.current();
        (sim.in_flight() + sim.queue_len()) as f64 / self.slots.max(1) as f64
    }

    fn probe(&self) -> ProbeResult {
        ProbeResult {
            load: self.load(),
            draining: self.is_draining(),
            step: 1.0 / self.slots.max(1) as f64,
            tenants: Vec::new(),
        }
    }

    /// Functions are the profile set the worker was built over.
    fn register(&self, _spec: FunctionSpec) -> Result<(), String> {
        Ok(())
    }

    /// Accept one arrival at the clock's now. Virtual time cannot block, so
    /// an arrival that found every slot busy is answered at once with
    /// `exec_ms: 0`; whether it ran warm or cold lands in the counters
    /// ([`SimWorker::finish`]) when a slot frees.
    fn invoke(&self, fqdn: &str, _args: &str) -> Result<InvocationResult, InvokeError> {
        if self.is_draining() {
            return Err(InvokeError::ShuttingDown);
        }
        let &(func, warm_ms, init_ms) = self
            .fns
            .get(fqdn)
            .ok_or_else(|| InvokeError::NotRegistered(fqdn.to_string()))?;
        let now = self.clock.now_ms();
        let (exec_ms, init_ms) = match self.sim.lock().on_event(now, func) {
            Arrival::Warm => (warm_ms, 0),
            Arrival::Cold => (warm_ms, init_ms),
            Arrival::Backlogged => (0, 0),
            Arrival::Dropped => return Err(InvokeError::QueueFull),
        };
        Ok(InvocationResult {
            body: String::new(),
            exec_ms,
            e2e_ms: exec_ms + init_ms,
            cold: init_ms > 0,
            queue_ms: 0,
            arrived_at: now,
            trace_id: 0,
            tenant: None,
            cache: CacheStatus::Bypass,
        })
    }

    fn stats(&self) -> HandleStats {
        let sim = self.current();
        let (queue_len, running) = (sim.queue_len(), sim.in_flight());
        let lifecycle = if self.is_draining() {
            "draining"
        } else {
            "running"
        };
        let residency = sim.warm_residency(self.clock.now_ms());
        HandleStats {
            queue_len,
            running,
            concurrency_limit: self.slots,
            queue_delay_ms: sim.last_queue_delay_ms(),
            drain_pending: (queue_len + running) as u64,
            lifecycle: lifecycle.into(),
            warm_gb_s: residency.map(|(_, gb_s)| gb_s).sum(),
        }
    }

    /// Stop taking arrivals; the backlog keeps finishing as time advances.
    fn drain(&self) -> Result<u64, String> {
        self.draining.store(true, Ordering::SeqCst);
        Ok(self.stats().drain_pending)
    }

    fn prewarm(&self, fqdn: &str) -> Result<(), String> {
        let &(func, ..) = self.fns.get(fqdn).ok_or("no profile for the function")?;
        self.sim.lock().prewarm(self.clock.now_ms(), func);
        Ok(())
    }

    fn warm_profile(&self) -> Vec<(String, f64)> {
        let sim = self.current();
        let residency = sim.warm_residency(self.clock.now_ms());
        residency.map(|(f, gb_s)| (f.to_string(), gb_s)).collect()
    }
}
