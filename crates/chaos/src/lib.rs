//! Deterministic fault injection for the Ilúvatar control plane.
//!
//! Chaos testing a serverless control plane only pays off when a failing run
//! can be *replayed*: the same seed must produce the same faults at the same
//! injection sites regardless of thread interleaving. A [`FaultPlan`]
//! therefore decides each fault from `hash(seed, site, occurrence_index)` —
//! the per-site occurrence counter is atomic, so under a fixed (sequential)
//! workload the decision sequence is a pure function of the seed, never of
//! wall-clock timing.
//!
//! Two layers are covered:
//!
//! * [`FaultInjector`] wraps any [`ContainerBackend`] and injects the fault
//!   classes a worker must survive: cold-start (create) failures, agent-call
//!   errors, latency spikes, hung agents, and mid-invoke container deaths.
//! * [`FaultyStorage`] wraps any `Storage` under the WAL and injects the
//!   disk faults it must survive: torn and failed writes, failed and
//!   stalled fsyncs, bit-rot on read.
//!
//! Each fired fault increments a per-site counter exposed via
//! [`FaultPlan::stats`], so tests can assert exactly how many faults a run
//! absorbed.

use iluvatar_containers::{BackendError, Container, ContainerBackend, FunctionSpec, InvokeOutput};
use iluvatar_sync::{fnv1a64, splitmix64};
use iluvatar_telemetry::{FlightRecorder, TelemetryBus, TelemetryKind};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

pub mod storage;
pub use storage::{disk_sites, DiskFaultPlan, DiskFaultPlanConfig, FaultyStorage};

/// When a fault site fires.
///
/// A site fires on occurrence `i` (0-based, counted per site) when `i` is in
/// `schedule`, or — for sites not scheduled explicitly — when the seeded
/// hash of `(seed, site, i)` falls below `prob`. Schedules give tests exact
/// control ("fail the first three creates"); probabilities drive soak runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Probability in `[0, 1]` that an occurrence fires.
    #[serde(default)]
    pub prob: f64,
    /// Exact occurrence indices that fire (in addition to `prob`).
    #[serde(default)]
    pub schedule: Vec<u64>,
    /// Fire every `every`-th occurrence (indices `every-1`, `2*every-1`,
    /// …). 0 disables. Sweep tests use this to fault *each* k-th event
    /// without enumerating a schedule.
    #[serde(default)]
    pub every: u64,
}

impl FaultSpec {
    pub fn never() -> Self {
        Self::default()
    }

    pub fn with_prob(prob: f64) -> Self {
        Self {
            prob,
            ..Self::default()
        }
    }

    pub fn on_occurrences(schedule: Vec<u64>) -> Self {
        Self {
            schedule,
            ..Self::default()
        }
    }

    /// Fire on every `every`-th occurrence.
    pub fn every_nth(every: u64) -> Self {
        Self {
            every,
            ..Self::default()
        }
    }

    /// Does occurrence `idx` fire by schedule or period (not probability)?
    fn scheduled(&self, idx: u64) -> bool {
        self.schedule.contains(&idx) || (self.every > 0 && (idx + 1).is_multiple_of(self.every))
    }
}

/// The full seeded fault plan for one chaos run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlanConfig {
    /// Seed for all probabilistic decisions and injected jitter.
    pub seed: u64,
    /// Cold-start failures: `create` returns `CreateFailed`.
    #[serde(default)]
    pub create_fail: FaultSpec,
    /// Agent-call errors: `invoke` returns `InvokeFailed` immediately.
    #[serde(default)]
    pub invoke_error: FaultSpec,
    /// Hung agent: `invoke` stalls for `hang_ms` before erroring. A worker
    /// with an agent-call timeout should trip its deadline first.
    #[serde(default)]
    pub invoke_hang: FaultSpec,
    /// Added latency: `invoke` sleeps `spike_ms` then proceeds normally.
    #[serde(default)]
    pub latency_spike: FaultSpec,
    /// Mid-invoke container death: the invocation runs partially, then the
    /// container dies and `invoke` errors.
    #[serde(default)]
    pub container_death: FaultSpec,
    /// Whole-worker crash: the chaos harness kills the worker process
    /// outright (no drain, no final snapshot). The injector itself only
    /// counts the decision — the session owning the worker performs the
    /// kill, since the injector sits below the control plane it terminates.
    #[serde(default)]
    pub worker_kill: FaultSpec,
    /// Stall duration for `invoke_hang`, ms.
    #[serde(default)]
    pub hang_ms: u64,
    /// Added latency for `latency_spike`, ms.
    #[serde(default)]
    pub spike_ms: u64,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            create_fail: FaultSpec::never(),
            invoke_error: FaultSpec::never(),
            invoke_hang: FaultSpec::never(),
            latency_spike: FaultSpec::never(),
            container_death: FaultSpec::never(),
            worker_kill: FaultSpec::never(),
            hang_ms: 1_000,
            spike_ms: 50,
        }
    }
}

/// Injection sites, in stats order.
pub mod sites {
    pub const CREATE_FAIL: &str = "create_fail";
    pub const INVOKE_ERROR: &str = "invoke_error";
    pub const INVOKE_HANG: &str = "invoke_hang";
    pub const LATENCY_SPIKE: &str = "latency_spike";
    pub const CONTAINER_DEATH: &str = "container_death";
    pub const WORKER_KILL: &str = "worker_kill";

    pub const ALL: [&str; 6] = [
        CREATE_FAIL,
        INVOKE_ERROR,
        INVOKE_HANG,
        LATENCY_SPIKE,
        CONTAINER_DEATH,
        WORKER_KILL,
    ];
}

/// Injected-fault counts per site, plus total decisions taken.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// `(site, occurrences_seen, faults_fired)` in [`sites::ALL`] order.
    pub sites: Vec<(String, u64, u64)>,
}

impl FaultStats {
    /// Faults fired at `site` (0 for unknown sites).
    pub fn fired(&self, site: &str) -> u64 {
        self.sites
            .iter()
            .find(|(s, _, _)| s == site)
            .map(|&(_, _, f)| f)
            .unwrap_or(0)
    }

    pub fn total_fired(&self) -> u64 {
        self.sites.iter().map(|&(_, _, f)| f).sum()
    }
}

/// Uniform draw in `[0, 1)`, deterministic in `(seed, site, occurrence
/// index)` — the stateless hash every probabilistic fault decision uses.
pub(crate) fn decision_unit(seed: u64, site: &str, idx: u64) -> f64 {
    let h = splitmix64(seed ^ fnv1a64(site.as_bytes()) ^ idx.wrapping_mul(0xA076_1D64_78BD_642F));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

struct SiteState {
    name: &'static str,
    seen: AtomicU64,
    fired: AtomicU64,
}

/// Seeded fault decisions with per-site occurrence counters.
pub struct FaultPlan {
    cfg: FaultPlanConfig,
    states: Vec<SiteState>,
    /// Canonical telemetry stream: every fired fault emits a
    /// [`TelemetryKind::Fault`] once a bus is attached.
    telemetry: OnceLock<Arc<TelemetryBus>>,
    /// When attached, every fired fault freezes a flight-recorder snapshot
    /// (`fault:<site>`) so post-mortems capture the events leading up to it.
    recorder: OnceLock<Arc<FlightRecorder>>,
}

impl FaultPlan {
    pub fn new(cfg: FaultPlanConfig) -> Self {
        let states = sites::ALL
            .iter()
            .map(|&name| SiteState {
                name,
                seen: AtomicU64::new(0),
                fired: AtomicU64::new(0),
            })
            .collect();
        Self {
            cfg,
            states,
            telemetry: OnceLock::new(),
            recorder: OnceLock::new(),
        }
    }

    /// Attach the canonical telemetry bus. First call wins; faults fired
    /// before any bus is attached are only counted, not streamed.
    pub fn set_telemetry(&self, bus: Arc<TelemetryBus>) {
        let _ = self.telemetry.set(bus);
    }

    /// Attach a flight recorder to snapshot automatically on every fired
    /// fault. First call wins.
    pub fn set_flight_recorder(&self, recorder: Arc<FlightRecorder>) {
        let _ = self.recorder.set(recorder);
    }

    pub fn config(&self) -> &FaultPlanConfig {
        &self.cfg
    }

    fn spec_of(&self, site: &str) -> &FaultSpec {
        match site {
            sites::CREATE_FAIL => &self.cfg.create_fail,
            sites::INVOKE_ERROR => &self.cfg.invoke_error,
            sites::INVOKE_HANG => &self.cfg.invoke_hang,
            sites::LATENCY_SPIKE => &self.cfg.latency_spike,
            sites::CONTAINER_DEATH => &self.cfg.container_death,
            sites::WORKER_KILL => &self.cfg.worker_kill,
            _ => panic!("unknown fault site {site}"),
        }
    }

    /// Take the next occurrence at `site` and decide whether it faults.
    /// Deterministic in `(seed, site, occurrence index)`.
    pub fn decide(&self, site: &str) -> bool {
        let spec = self.spec_of(site);
        let state = self
            .states
            .iter()
            .find(|s| s.name == site)
            .expect("site registered");
        let idx = state.seen.fetch_add(1, Ordering::Relaxed);
        let fire = if spec.scheduled(idx) {
            true
        } else if spec.prob > 0.0 {
            decision_unit(self.cfg.seed, site, idx) < spec.prob
        } else {
            false
        };
        if fire {
            state.fired.fetch_add(1, Ordering::Relaxed);
            if let Some(bus) = self.telemetry.get() {
                bus.emit(None, None, TelemetryKind::Fault { site: site.into() });
                // Freeze the flight recorder at the fault: the snapshot holds
                // the events leading up to (and including) the injection.
                if let Some(rec) = self.recorder.get() {
                    let reason = format!("fault:{site}");
                    rec.snapshot(&reason);
                    bus.emit(None, None, TelemetryKind::RecorderSnapshot { reason });
                }
            }
        }
        fire
    }

    pub fn stats(&self) -> FaultStats {
        FaultStats {
            sites: self
                .states
                .iter()
                .map(|s| {
                    (
                        s.name.to_string(),
                        s.seen.load(Ordering::Relaxed),
                        s.fired.load(Ordering::Relaxed),
                    )
                })
                .collect(),
        }
    }
}

/// A [`ContainerBackend`] that injects the plan's faults around an inner
/// backend. Drop-in: thread it between the worker and its real backend.
pub struct FaultInjector {
    inner: Arc<dyn ContainerBackend>,
    plan: Arc<FaultPlan>,
}

impl FaultInjector {
    pub fn new(inner: Arc<dyn ContainerBackend>, cfg: FaultPlanConfig) -> Self {
        Self {
            inner,
            plan: Arc::new(FaultPlan::new(cfg)),
        }
    }

    /// Share the plan for assertions (fired-fault counts).
    pub fn plan(&self) -> Arc<FaultPlan> {
        Arc::clone(&self.plan)
    }

    fn fault_invoke(&self) -> Option<BackendError> {
        if self.plan.decide(sites::LATENCY_SPIKE) {
            std::thread::sleep(Duration::from_millis(self.plan.cfg.spike_ms));
        }
        if self.plan.decide(sites::INVOKE_ERROR) {
            return Some(BackendError::InvokeFailed("injected agent error".into()));
        }
        if self.plan.decide(sites::INVOKE_HANG) {
            std::thread::sleep(Duration::from_millis(self.plan.cfg.hang_ms));
            return Some(BackendError::InvokeFailed("injected agent hang".into()));
        }
        if self.plan.decide(sites::CONTAINER_DEATH) {
            // The container lives long enough to start the invocation, then
            // dies under it.
            std::thread::sleep(Duration::from_millis(self.plan.cfg.spike_ms.min(5)));
            return Some(BackendError::InvokeFailed(
                "injected container death".into(),
            ));
        }
        None
    }
}

impl ContainerBackend for FaultInjector {
    fn name(&self) -> &'static str {
        "fault-injector"
    }

    fn create(&self, spec: &FunctionSpec) -> Result<Container, BackendError> {
        if self.plan.decide(sites::CREATE_FAIL) {
            return Err(BackendError::CreateFailed(
                "injected cold-start failure".into(),
            ));
        }
        self.inner.create(spec)
    }

    fn invoke(&self, container: &Container, args: &str) -> Result<InvokeOutput, BackendError> {
        if let Some(e) = self.fault_invoke() {
            return Err(e);
        }
        self.inner.invoke(container, args)
    }

    fn invoke_traced(
        &self,
        container: &Container,
        args: &str,
        trace: Option<&str>,
    ) -> Result<InvokeOutput, BackendError> {
        if let Some(e) = self.fault_invoke() {
            return Err(e);
        }
        self.inner.invoke_traced(container, args, trace)
    }

    fn invoke_ctx(
        &self,
        container: &Container,
        args: &str,
        trace: Option<&str>,
        tenant: Option<&str>,
    ) -> Result<InvokeOutput, BackendError> {
        if let Some(e) = self.fault_invoke() {
            return Err(e);
        }
        self.inner.invoke_ctx(container, args, trace, tenant)
    }

    fn destroy(&self, container: &Container) -> Result<(), BackendError> {
        self.inner.destroy(container)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iluvatar_containers::simulated::{SimBackend, SimBackendConfig};
    use iluvatar_sync::SystemClock;

    fn sim() -> Arc<SimBackend> {
        Arc::new(SimBackend::new(
            SystemClock::shared(),
            SimBackendConfig {
                time_scale: 0.01,
                ..Default::default()
            },
        ))
    }

    fn spec() -> FunctionSpec {
        FunctionSpec::new("f", "1").with_timing(100, 200)
    }

    #[test]
    fn never_spec_injects_nothing() {
        let inj = FaultInjector::new(sim(), FaultPlanConfig::default());
        let c = inj.create(&spec()).unwrap();
        inj.invoke(&c, "{}").unwrap();
        inj.destroy(&c).unwrap();
        assert_eq!(inj.plan().stats().total_fired(), 0);
    }

    #[test]
    fn scheduled_create_failures_fire_exactly() {
        let cfg = FaultPlanConfig {
            create_fail: FaultSpec::on_occurrences(vec![0, 2]),
            ..Default::default()
        };
        let inj = FaultInjector::new(sim(), cfg);
        assert!(inj.create(&spec()).is_err(), "occurrence 0 scheduled");
        assert!(inj.create(&spec()).is_ok(), "occurrence 1 clean");
        assert!(inj.create(&spec()).is_err(), "occurrence 2 scheduled");
        assert!(inj.create(&spec()).is_ok());
        assert_eq!(inj.plan().stats().fired(sites::CREATE_FAIL), 2);
    }

    #[test]
    fn probabilistic_decisions_replay_with_seed() {
        let mk = |seed| {
            let plan = FaultPlan::new(FaultPlanConfig {
                seed,
                invoke_error: FaultSpec::with_prob(0.3),
                ..Default::default()
            });
            (0..256)
                .map(|_| plan.decide(sites::INVOKE_ERROR))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(7), mk(7), "same seed replays identically");
        assert_ne!(mk(7), mk(8), "different seeds diverge");
        let fired = mk(7).iter().filter(|&&f| f).count();
        assert!((30..=120).contains(&fired), "~30% of 256, got {fired}");
    }

    #[test]
    fn sites_decide_independently() {
        let plan = FaultPlan::new(FaultPlanConfig {
            seed: 1,
            create_fail: FaultSpec::with_prob(1.0),
            invoke_error: FaultSpec::never(),
            ..Default::default()
        });
        assert!(plan.decide(sites::CREATE_FAIL));
        assert!(!plan.decide(sites::INVOKE_ERROR));
        let st = plan.stats();
        assert_eq!(st.fired(sites::CREATE_FAIL), 1);
        assert_eq!(st.fired(sites::INVOKE_ERROR), 0);
    }

    #[test]
    fn injected_invoke_error_discards_nothing_downstream() {
        let cfg = FaultPlanConfig {
            invoke_error: FaultSpec::on_occurrences(vec![0]),
            ..Default::default()
        };
        let inj = FaultInjector::new(sim(), cfg);
        let c = inj.create(&spec()).unwrap();
        assert!(inj.invoke(&c, "{}").is_err(), "first invoke injected");
        assert!(inj.invoke(&c, "{}").is_ok(), "second passes through");
    }

    #[test]
    fn worker_kill_site_schedules_like_any_other() {
        let plan = FaultPlan::new(FaultPlanConfig {
            worker_kill: FaultSpec::on_occurrences(vec![1]),
            ..Default::default()
        });
        assert!(!plan.decide(sites::WORKER_KILL), "occurrence 0 clean");
        assert!(plan.decide(sites::WORKER_KILL), "occurrence 1 scheduled");
        assert_eq!(plan.stats().fired(sites::WORKER_KILL), 1);
    }

    #[test]
    fn fired_faults_stream_and_snapshot_the_recorder() {
        use iluvatar_sync::ManualClock;
        use iluvatar_telemetry::{TelemetrySink, VecSink};

        let cfg = FaultPlanConfig {
            invoke_error: FaultSpec::on_occurrences(vec![1]),
            ..Default::default()
        };
        let bus = TelemetryBus::new("chaos", Arc::new(ManualClock::starting_at(0)));
        let sink = Arc::new(VecSink::new());
        let recorder = Arc::new(FlightRecorder::new(64));
        bus.add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        bus.add_sink(Arc::clone(&recorder) as Arc<dyn TelemetrySink>);
        let inj = FaultInjector::new(sim(), cfg);
        inj.plan().set_telemetry(Arc::clone(&bus));
        inj.plan().set_flight_recorder(Arc::clone(&recorder));

        let c = inj.create(&spec()).unwrap();
        assert!(inj.invoke(&c, "{}").is_ok(), "occurrence 0 clean: no event");
        assert!(sink.events().is_empty());
        assert!(inj.invoke(&c, "{}").is_err(), "occurrence 1 fires");

        let labels: Vec<String> = sink.events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(labels, vec!["fault:invoke_error", "recorder_snapshot"]);
        // The auto-snapshot froze the ring at the fault: it contains the
        // fault event itself.
        let snaps = recorder.snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].reason, "fault:invoke_error");
        assert!(snaps[0]
            .events
            .iter()
            .any(|e| e.kind.label() == "fault:invoke_error"));
    }

    #[test]
    fn plan_config_serde_roundtrip() {
        let cfg = FaultPlanConfig {
            seed: 42,
            create_fail: FaultSpec::with_prob(0.05),
            invoke_hang: FaultSpec::with_prob(0.02),
            hang_ms: 500,
            ..Default::default()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FaultPlanConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
