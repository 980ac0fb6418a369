//! Harness wrappers around the program's own extension traits, installed
//! only in the traced run. Each one forwards every call unchanged; while
//! the [`Recorder`] is enabled it also records a span and bumps a count at
//! that layer boundary. Nothing inside the program is instrumented.

use crate::trace::{names, Recorder};
use iluvatar_containers::types::Container;
use iluvatar_containers::{BackendError, ContainerBackend, FunctionSpec, InvokeOutput};
use iluvatar_core::{
    BreakdownReport, InvocationResult, InvokeError, SpanExport, TelemetryEvent, TelemetrySink,
    TenantSnapshot,
};
use iluvatar_dispatch::{Lease, LeaseSource, PullTask, TaskExecutor};
use iluvatar_lb::{HandleStats, ProbeResult, WorkerHandle};
use iluvatar_sync::storage::{Storage, StorageFile};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts shared by every wrapper of one traced topology; all are totals
/// since the recorder was enabled.
#[derive(Default)]
pub struct Counts {
    pub container_invokes: AtomicU64,
    pub wal_writes: AtomicU64,
    pub wal_bytes: AtomicU64,
    pub wal_fsyncs: AtomicU64,
    pub pulls: AtomicU64,
    pub useful_pulls: AtomicU64,
    pub telemetry_events: AtomicU64,
}

/// What every wrapper holds: where spans go and where counts go.
#[derive(Clone)]
pub struct Tap {
    pub rec: Arc<Recorder>,
    pub counts: Arc<Counts>,
}

impl Tap {
    pub fn new() -> Self {
        Self {
            rec: Arc::new(Recorder::new()),
            counts: Arc::new(Counts::default()),
        }
    }

    /// Run `f`; when recording, time it as span `name`. `trace_id` sees the
    /// result, because most layers only learn the id on the way back.
    fn span<R>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> R,
        trace_id: impl Fn(&R) -> u64,
    ) -> R {
        if !self.rec.enabled() {
            return f();
        }
        let start = self.rec.now_ns();
        let out = f();
        self.rec
            .record(name, trace_id(&out), start, self.rec.now_ns());
        out
    }
}

impl Default for Tap {
    fn default() -> Self {
        Self::new()
    }
}

/// `containers` layer: a [`ContainerBackend`] around the real backend.
pub struct TracedBackend<B> {
    pub inner: B,
    pub tap: Tap,
}

impl<B: ContainerBackend> ContainerBackend for TracedBackend<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn create(&self, spec: &FunctionSpec) -> Result<Container, BackendError> {
        self.inner.create(spec)
    }

    fn invoke(&self, container: &Container, args: &str) -> Result<InvokeOutput, BackendError> {
        self.invoke_ctx(container, args, None, None)
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
        // The worker hands its trace id over as 16 hex digits.
        let id = trace
            .and_then(|t| u64::from_str_radix(t, 16).ok())
            .unwrap_or(0);
        if self.tap.rec.enabled() {
            self.tap
                .counts
                .container_invokes
                .fetch_add(1, Ordering::Relaxed);
        }
        self.tap.span(
            names::CONTAINERS_INVOKE,
            || self.inner.invoke_ctx(container, args, trace, tenant),
            |_| id,
        )
    }

    fn destroy(&self, container: &Container) -> Result<(), BackendError> {
        self.inner.destroy(container)
    }
}

/// `core` (WAL) layer: a [`Storage`] around the real filesystem that counts
/// writes, bytes and fsyncs and times each of them.
pub struct TracedStorage<S> {
    pub inner: S,
    pub tap: Tap,
}

struct TracedFile {
    inner: Box<dyn StorageFile>,
    tap: Tap,
}

impl StorageFile for TracedFile {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        if self.tap.rec.enabled() {
            self.tap.counts.wal_writes.fetch_add(1, Ordering::Relaxed);
            self.tap
                .counts
                .wal_bytes
                .fetch_add(buf.len() as u64, Ordering::Relaxed);
        }
        let inner = &mut self.inner;
        self.tap
            .span(names::WAL_WRITE, || inner.write_all(buf), |_| 0)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> std::io::Result<()> {
        if self.tap.rec.enabled() {
            self.tap.counts.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        let inner = &mut self.inner;
        self.tap.span(names::WAL_FSYNC, || inner.sync(), |_| 0)
    }
}

impl<S: Storage> Storage for TracedStorage<S> {
    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(TracedFile {
            inner: self.inner.open_append(path)?,
            tap: self.tap.clone(),
        }))
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }
}

/// `loadbalancer` layer: a [`WorkerHandle`] around `RemoteWorker`. The hop
/// span's parent is the balancer's invoke span, so that span's self time is
/// routing plus bookkeeping.
pub struct TracedHandle {
    pub inner: Arc<dyn WorkerHandle>,
    pub tap: Tap,
}

thread_local! {
    /// Load probes this thread made since its last hop. CH-BL probes every
    /// worker and then dispatches, all on the calling thread, so the probes
    /// belong to the invocation whose hop comes next — whose trace id is
    /// only known once that hop returns.
    static PENDING_PROBES: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A thread that probes but never dispatches (the balancer's background
/// scrape) files its probes under trace 0 once this many are pending.
const PENDING_PROBES_MAX: usize = 8;

impl TracedHandle {
    fn file_probes(&self, trace_id: u64) {
        PENDING_PROBES.with(|p| {
            for (start, end) in p.borrow_mut().drain(..) {
                self.tap.rec.record(names::LB_PROBE, trace_id, start, end);
            }
        });
    }
}

impl WorkerHandle for TracedHandle {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn load(&self) -> f64 {
        self.inner.load()
    }

    fn probe(&self) -> ProbeResult {
        if !self.tap.rec.enabled() {
            return self.inner.probe();
        }
        if PENDING_PROBES.with(|p| p.borrow().len()) >= PENDING_PROBES_MAX {
            self.file_probes(0);
        }
        let start = self.tap.rec.now_ns();
        let result = self.inner.probe();
        let end = self.tap.rec.now_ns();
        PENDING_PROBES.with(|p| p.borrow_mut().push((start, end)));
        result
    }

    fn register(&self, spec: FunctionSpec) -> Result<(), String> {
        self.inner.register(spec)
    }

    fn invoke(&self, fqdn: &str, args: &str) -> Result<InvocationResult, InvokeError> {
        self.invoke_tenant(fqdn, args, None)
    }

    fn invoke_tenant(
        &self,
        fqdn: &str,
        args: &str,
        tenant: Option<&str>,
    ) -> Result<InvocationResult, InvokeError> {
        let result = self.tap.span(
            names::LB_HOP,
            || self.inner.invoke_tenant(fqdn, args, tenant),
            |r| r.as_ref().map(|r| r.trace_id).unwrap_or(0),
        );
        if self.tap.rec.enabled() {
            self.file_probes(result.as_ref().map(|r| r.trace_id).unwrap_or(0));
        }
        result
    }

    fn span_export(&self) -> Vec<SpanExport> {
        self.inner.span_export()
    }

    fn tenant_stats(&self) -> Vec<TenantSnapshot> {
        self.inner.tenant_stats()
    }

    fn breakdown(&self) -> Option<BreakdownReport> {
        self.inner.breakdown()
    }

    fn stats(&self) -> HandleStats {
        self.inner.stats()
    }

    fn drain(&self) -> Result<u64, String> {
        self.inner.drain()
    }

    fn retry_after_hint_ms(&self) -> u64 {
        self.inner.retry_after_hint_ms()
    }

    fn prewarm(&self, fqdn: &str) -> Result<(), String> {
        self.inner.prewarm(fqdn)
    }

    fn warm_profile(&self) -> Vec<(String, f64)> {
        self.inner.warm_profile()
    }
}

/// `dispatch` layer: a [`LeaseSource`] around `HttpLeaseSource`. A pull
/// that grants `k` leases records one span per lease (same interval, each
/// under its own task id); an empty pull records one span under trace 0.
pub struct TracedLeaseSource {
    pub inner: Arc<dyn LeaseSource>,
    pub tap: Tap,
    /// lease id → task id, so the completion lands in the right trace.
    tasks: Mutex<HashMap<u64, u64>>,
}

impl TracedLeaseSource {
    pub fn new(inner: Arc<dyn LeaseSource>, tap: Tap) -> Self {
        Self {
            inner,
            tap,
            tasks: Mutex::new(HashMap::new()),
        }
    }
}

impl LeaseSource for TracedLeaseSource {
    fn pull(&self, worker: &str, max: usize) -> Vec<Lease> {
        if !self.tap.rec.enabled() {
            return self.inner.pull(worker, max);
        }
        let rec = &self.tap.rec;
        let start = rec.now_ns();
        let leases = self.inner.pull(worker, max);
        let end = rec.now_ns();
        self.tap.counts.pulls.fetch_add(1, Ordering::Relaxed);
        if leases.is_empty() {
            rec.record(names::DISPATCH_HTTP_PULL, 0, start, end);
        } else {
            self.tap.counts.useful_pulls.fetch_add(1, Ordering::Relaxed);
            let mut tasks = self.tasks.lock();
            for l in &leases {
                tasks.insert(l.lease_id, l.task.id);
                rec.record(names::DISPATCH_HTTP_PULL, l.task.id, start, end);
            }
        }
        leases
    }

    fn complete(&self, lease_id: u64, ok: bool, body: &str, exec_ms: u64) -> bool {
        let task = self.tasks.lock().remove(&lease_id).unwrap_or(0);
        self.tap.span(
            names::DISPATCH_HTTP_COMPLETE,
            || self.inner.complete(lease_id, ok, body, exec_ms),
            |_| task,
        )
    }
}

/// The pull loop's executor: run the leased task on `worker`. With a tap it
/// records the execution span under the balancer's task id and notes the
/// worker's own trace id as an alias of it.
pub fn pull_executor(worker: Arc<iluvatar_core::Worker>, tap: Option<Tap>) -> Arc<TaskExecutor> {
    Arc::new(move |t: &PullTask| {
        let call = || worker.invoke_tenant(&t.fqdn, &t.args, t.tenant.as_deref());
        let result = match &tap {
            Some(tap) => {
                let r = tap.span(names::DISPATCH_EXEC, call, |_| t.id);
                if let (true, Ok(r)) = (tap.rec.enabled(), &r) {
                    tap.rec.alias(r.trace_id, t.id);
                }
                r
            }
            None => call(),
        };
        match result {
            Ok(r) => (true, r.body, r.exec_ms),
            Err(e) => (false, e.to_string(), 0),
        }
    })
}

/// `telemetry` layer: counts the events a worker publishes.
pub struct CountingSink {
    pub tap: Tap,
}

impl TelemetrySink for CountingSink {
    fn emit(&self, _ev: &TelemetryEvent) {
        if self.tap.rec.enabled() {
            self.tap
                .counts
                .telemetry_events
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}
