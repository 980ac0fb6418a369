//! The fleet manager: applies scaling decisions to a live cluster.
//!
//! The [`iluvatar_autoscale`] policies are pure deciders — observation in,
//! decision out. The [`Fleet`] here owns everything stateful around them:
//! the live/draining/stopped worker registry, worker spawn on scale-up
//! (with every known [`FunctionSpec`] re-registered and admission through
//! the cluster's HalfOpen breaker probe), graceful drain on scale-down
//! (drain request, wait for in-flight work, then detach — never a kill),
//! the scale-event journal, and the counters behind
//! `iluvatar_fleet_size` / `iluvatar_scale_events_total{direction,reason}`.

use crate::cluster::{Cluster, WorkerHandle};
use iluvatar_autoscale::{
    AutoscaleConfig, FleetObservation, ScaleDirection, ScaleEvent, ScalingDecision, ScalingPolicy,
};
use iluvatar_containers::FunctionSpec;
use iluvatar_telemetry::{TelemetryBus, TelemetryKind};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Spawns workers for scale-up. `seq` is a monotonically increasing fleet
/// sequence number, for stable worker naming (`elastic-3`, …).
pub trait WorkerFactory: Send + Sync {
    fn spawn(&self, seq: usize) -> Result<Arc<dyn WorkerHandle>, String>;
}

impl<F> WorkerFactory for F
where
    F: Fn(usize) -> Result<Arc<dyn WorkerHandle>, String> + Send + Sync,
{
    fn spawn(&self, seq: usize) -> Result<Arc<dyn WorkerHandle>, String> {
        self(seq)
    }
}

/// Hottest functions handed off from a drain victim to survivors before
/// the reaper detaches it.
const HANDOFF_TOP_K: usize = 4;

/// Wire form of the fleet's state for `GET /fleet`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetStatus {
    pub policy: String,
    pub enabled: bool,
    /// Routable workers (attached, not draining).
    pub live: usize,
    /// Workers draining toward retirement.
    pub draining: usize,
    /// Workers retired so far (drained and detached).
    pub stopped: usize,
    /// Slot capacity (= `max_workers`).
    pub capacity: usize,
    pub min_workers: usize,
    pub max_workers: usize,
    /// Warm-pool handoffs: prewarm requests replayed from drain victims
    /// onto surviving workers.
    #[serde(default)]
    pub handoffs: u64,
    /// The applied-decision journal, oldest first.
    pub events: Vec<ScaleEvent>,
}

/// The elastic fleet: a cluster, a worker factory, and a scaling policy.
pub struct Fleet {
    cluster: Arc<Cluster>,
    factory: Box<dyn WorkerFactory>,
    policy: Mutex<Box<dyn ScalingPolicy>>,
    cfg: AutoscaleConfig,
    /// Every spec registered so far; scale-up replays them on the new
    /// worker before it joins the routable set.
    specs: Mutex<Vec<FunctionSpec>>,
    /// Monotonic spawn counter for worker naming.
    spawn_seq: AtomicU64,
    /// Slots whose drain was requested and not yet completed.
    draining: Mutex<Vec<usize>>,
    /// Workers fully retired (drained + detached).
    stopped: AtomicU64,
    /// Warm-pool handoffs issued so far (prewarms replayed onto survivors).
    handoffs: AtomicU64,
    /// Applied decisions, oldest first.
    journal: Mutex<Vec<ScaleEvent>>,
    /// `(direction, reason) → count`, the metric behind
    /// `iluvatar_scale_events_total`. BTreeMap for stable render order.
    event_counts: Mutex<BTreeMap<(String, String), u64>>,
    /// Per-function arrivals since the last observation (fed by the LB's
    /// invoke path, drained each tick into the observation).
    arrivals: Mutex<BTreeMap<String, u64>>,
    /// Canonical telemetry stream: every journaled scale event is mirrored
    /// here once a bus is attached.
    telemetry: OnceLock<Arc<TelemetryBus>>,
    /// Central pull-queue depth sampler, set when a dispatch plane is
    /// attached. Push-mode fleets never set this, so observations carry 0
    /// and existing policy traces are unchanged.
    pull_depth: OnceLock<Box<dyn Fn() -> u64 + Send + Sync>>,
}

impl Fleet {
    pub fn new(
        cluster: Arc<Cluster>,
        factory: Box<dyn WorkerFactory>,
        cfg: AutoscaleConfig,
    ) -> Self {
        let policy = cfg.build_policy();
        let live = cluster.live();
        Self {
            cluster,
            factory,
            policy: Mutex::new(policy),
            cfg,
            specs: Mutex::new(Vec::new()),
            spawn_seq: AtomicU64::new(live as u64),
            draining: Mutex::new(Vec::new()),
            stopped: AtomicU64::new(0),
            handoffs: AtomicU64::new(0),
            journal: Mutex::new(Vec::new()),
            event_counts: Mutex::new(BTreeMap::new()),
            arrivals: Mutex::new(BTreeMap::new()),
            telemetry: OnceLock::new(),
            pull_depth: OnceLock::new(),
        }
    }

    /// Attach a sampler for the central pull-queue depth (the dispatch
    /// plane's backlog). First call wins. Once set, every observation
    /// carries the sampled depth so scale-up sees pull-mode demand and
    /// scale-down waits for the central queue to drain.
    pub fn set_pull_depth_provider(&self, f: Box<dyn Fn() -> u64 + Send + Sync>) {
        let _ = self.pull_depth.set(f);
    }

    /// Attach the canonical telemetry bus. First call wins; scale events
    /// journaled before any bus is attached are not mirrored.
    pub fn set_telemetry(&self, bus: Arc<TelemetryBus>) {
        let _ = self.telemetry.set(bus);
    }

    pub fn config(&self) -> &AutoscaleConfig {
        &self.cfg
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Remember `spec` for replay onto future workers (the caller is
    /// expected to have registered it on the current fleet already).
    pub fn remember_spec(&self, spec: FunctionSpec) {
        let mut specs = self.specs.lock();
        if !specs.iter().any(|s| s.fqdn == spec.fqdn) {
            specs.push(spec);
        }
    }

    /// Count one arrival of `fqdn` toward the next observation.
    pub fn note_arrival(&self, fqdn: &str) {
        *self.arrivals.lock().entry(fqdn.to_string()).or_default() += 1;
    }

    /// Routable workers: attached and not draining.
    pub fn live(&self) -> usize {
        self.live_slots().len()
    }

    /// Indices of the attached, non-draining slots, cluster order.
    fn live_slots(&self) -> Vec<usize> {
        let slots = self.cluster.stats().slots;
        (0..slots.len()).filter(|&i| slots[i].live()).collect()
    }

    /// Workers currently draining toward retirement.
    pub fn draining(&self) -> usize {
        self.draining.lock().len()
    }

    /// Workers retired so far.
    pub fn stopped(&self) -> u64 {
        self.stopped.load(Ordering::Relaxed)
    }

    /// Warm-pool handoffs issued so far.
    pub fn handoffs(&self) -> u64 {
        self.handoffs.load(Ordering::Relaxed)
    }

    /// Build one observation from live worker stats plus the arrival
    /// counters accumulated since the previous call (which it drains).
    pub fn observe(&self, now_ms: u64) -> FleetObservation {
        let mut live = 0usize;
        let mut queued = 0u64;
        let mut running = 0u64;
        let mut delay_sum = 0f64;
        let mut max_delay = 0u64;
        let mut concurrency_limit = 0usize;
        for i in self.live_slots() {
            let Some(h) = self.cluster.handle(i) else {
                continue;
            };
            let s = h.stats();
            live += 1;
            queued += s.queue_len as u64;
            running += s.running as u64;
            delay_sum += s.queue_delay_ms as f64;
            max_delay = max_delay.max(s.queue_delay_ms);
            concurrency_limit = concurrency_limit.max(s.concurrency_limit);
        }
        let per_fn: Vec<(String, u64)> = std::mem::take(&mut *self.arrivals.lock())
            .into_iter()
            .collect();
        FleetObservation {
            now_ms,
            live,
            draining: self.draining.lock().len(),
            queued,
            running,
            mean_queue_delay_ms: if live > 0 {
                delay_sum / live as f64
            } else {
                0.0
            },
            max_queue_delay_ms: max_delay,
            concurrency_limit,
            arrivals: per_fn.iter().map(|(_, c)| c).sum(),
            per_fn_arrivals: per_fn,
            pull_queue_depth: self.pull_depth.get().map(|f| f()).unwrap_or(0),
        }
    }

    /// Run the configured policy over one observation.
    pub fn evaluate(&self, obs: &FleetObservation) -> ScalingDecision {
        self.policy.lock().evaluate(obs)
    }

    /// Apply one decision: spawn+attach on the way up, drain on the way
    /// down. Returns the journaled event, or `None` for holds and
    /// decisions that clamp to nothing (already at a bound).
    pub fn apply(
        &self,
        decision: &ScalingDecision,
        now_ms: u64,
    ) -> Result<Option<ScaleEvent>, String> {
        match *decision {
            ScalingDecision::Hold => Ok(None),
            ScalingDecision::ScaleUp { add, reason } => self.scale_up(add, reason, now_ms),
            ScalingDecision::ScaleDown { remove, reason } => {
                self.scale_down(remove, reason, now_ms)
            }
        }
    }

    fn journal_event(&self, e: ScaleEvent) {
        *self
            .event_counts
            .lock()
            .entry((e.direction.label().to_string(), e.reason.clone()))
            .or_default() += 1;
        if let Some(bus) = self.telemetry.get() {
            bus.emit(
                None,
                None,
                TelemetryKind::Scale {
                    direction: e.direction.label().to_string(),
                    reason: e.reason.clone(),
                    from: e.from as u64,
                    to: e.to as u64,
                },
            );
        }
        self.journal.lock().push(e);
    }

    fn scale_up(
        &self,
        add: usize,
        reason: &'static str,
        now_ms: u64,
    ) -> Result<Option<ScaleEvent>, String> {
        let before = self.live();
        // Clamp to the configured ceiling — draining workers do not count
        // against it, they are leaving — and to the cluster's free slots: a
        // draining worker keeps its slot until `reap` detaches it, so
        // nothing is spawned that cannot attach.
        let room = self.cfg.max_workers.saturating_sub(before);
        let free = self.cluster.len() - self.cluster.live();
        let add = add.min(room).min(free);
        let mut added = 0usize;
        let mut spawned = Ok(());
        while added < add && spawned.is_ok() {
            spawned = self.spawn_attached();
            added += usize::from(spawned.is_ok());
        }
        if added == 0 {
            return spawned.map(|()| None);
        }
        // New slots start unhealthy until their admission probe; run one
        // probe round now so the fleet change takes effect this interval.
        self.cluster.probe_round();
        // Journal exactly what was attached, also when a later spawn failed.
        let event = ScaleEvent {
            t_ms: now_ms,
            direction: ScaleDirection::Up,
            reason: reason.to_string(),
            from: before,
            to: before + added,
        };
        self.journal_event(event.clone());
        spawned.map(|()| Some(event))
    }

    /// Spawn one worker, replay every known function on it before it
    /// becomes routable (so its first dispatch never 404s), and attach it.
    fn spawn_attached(&self) -> Result<(), String> {
        let seq = self.spawn_seq.fetch_add(1, Ordering::Relaxed) as usize;
        let worker = self.factory.spawn(seq)?;
        for spec in self.specs.lock().iter() {
            worker.register(spec.clone())?;
        }
        self.cluster.attach(worker).map(|_| ())
    }

    fn scale_down(
        &self,
        remove: usize,
        reason: &'static str,
        now_ms: u64,
    ) -> Result<Option<ScaleEvent>, String> {
        let before = self.live();
        let floor = self.cfg.min_workers.max(1);
        let remove = remove.min(before.saturating_sub(floor));
        if remove == 0 {
            return Ok(None);
        }
        let victims = self.pick_victims(remove);
        let mut drained = 0usize;
        for &slot in &victims {
            let Some(h) = self.cluster.handle(slot) else {
                continue;
            };
            // Warm-pool handoff: replay the victim's hottest functions onto
            // survivors *before* the drain, so the keep-alive investment
            // the fleet is about to forfeit is rebuilt where routing will
            // actually land.
            self.handoff_warm(&victims, &h);
            // Graceful drain: the worker finishes queued + running work and
            // 503s new arrivals; the cluster routes around it immediately.
            h.drain()?;
            self.cluster.mark_draining(slot);
            self.draining.lock().push(slot);
            drained += 1;
        }
        if drained == 0 {
            return Ok(None);
        }
        let event = ScaleEvent {
            t_ms: now_ms,
            direction: ScaleDirection::Down,
            reason: reason.to_string(),
            from: before,
            to: before - drained,
        };
        self.journal_event(event.clone());
        Ok(Some(event))
    }

    /// Choose `remove` drain victims among the present, non-draining slots:
    /// the workers holding the least warm-container residency — the
    /// cheapest keep-alive investment to forfeit — with ties broken toward
    /// the highest slot index, so a fleet of residency-blind handles (every
    /// score zero) retires its newest workers first (LIFO).
    fn pick_victims(&self, remove: usize) -> Vec<usize> {
        let mut scored: Vec<(f64, usize)> = self
            .live_slots()
            .into_iter()
            .map(|i| {
                let gb_s: f64 = self
                    .cluster
                    .handle(i)
                    .map(|h| h.warm_profile().iter().map(|(_, g)| g).sum())
                    .unwrap_or(0.0);
                (if gb_s.is_finite() { gb_s } else { 0.0 }, i)
            })
            .collect();
        scored.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.1.cmp(&a.1))
        });
        scored.into_iter().map(|(_, i)| i).take(remove).collect()
    }

    /// Replay the drain victim's hottest warm functions (top
    /// [`HANDOFF_TOP_K`] by GB·s) as prewarms onto surviving workers.
    /// Targeting is residency-weighted: each prewarm lands on the survivor
    /// currently holding the least warm GB·s (ties → lowest slot index),
    /// and the handed-off function's weight is charged to its target, so a
    /// multi-function handoff spreads across a cold fleet instead of
    /// piling onto one slot. Best-effort: a failed prewarm is dropped, not
    /// retried — the survivor will cold-start as it would have anyway.
    fn handoff_warm(&self, victims: &[usize], victim: &Arc<dyn WorkerHandle>) {
        let mut survivors = self.live_slots();
        survivors.retain(|i| !victims.contains(i));
        if survivors.is_empty() {
            return;
        }
        let mut profile = victim.warm_profile();
        profile.retain(|(_, g)| g.is_finite());
        // Hottest first; ties broken by fqdn so the handoff order is
        // deterministic.
        profile.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let mut load: Vec<(usize, f64)> = survivors
            .iter()
            .map(|&i| {
                let gb_s: f64 = self
                    .cluster
                    .handle(i)
                    .map(|h| {
                        h.warm_profile()
                            .iter()
                            .map(|(_, g)| g)
                            .filter(|g| g.is_finite())
                            .sum()
                    })
                    .unwrap_or(0.0);
                (i, gb_s)
            })
            .collect();
        for (fqdn, gb_s) in profile.into_iter().take(HANDOFF_TOP_K) {
            // Unique minimum: (gb_s, slot) with strictly ordered slots, so
            // ties in residency resolve to the lowest slot index.
            let Some(target) = load.iter_mut().min_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            }) else {
                return;
            };
            if let Some(s) = self.cluster.handle(target.0) {
                if s.prewarm(&fqdn).is_ok() {
                    self.handoffs.fetch_add(1, Ordering::Relaxed);
                    target.1 += gb_s.max(0.0);
                }
            }
        }
    }

    /// Detach every draining worker whose in-flight work has finished.
    /// Returns how many retired this pass. Workers are never killed: a
    /// slot stays attached — and its queued work keeps running — until the
    /// worker itself reports empty.
    pub fn reap(&self) -> usize {
        let mut draining = self.draining.lock();
        let mut retired = 0usize;
        draining.retain(|&slot| {
            let Some(h) = self.cluster.handle(slot) else {
                // Slot already vacated (e.g. operator detach); drop it.
                return false;
            };
            let s = h.stats();
            let idle = s.drain_pending == 0 && s.queue_len == 0 && s.running == 0;
            if idle {
                self.cluster.detach(slot);
                self.stopped.fetch_add(1, Ordering::Relaxed);
                retired += 1;
                false
            } else {
                true
            }
        });
        retired
    }

    /// One control interval: reap finished drains, observe, evaluate,
    /// apply. Returns the applied event, if any.
    pub fn tick(&self, now_ms: u64) -> Result<Option<ScaleEvent>, String> {
        self.reap();
        let obs = self.observe(now_ms);
        let decision = self.evaluate(&obs);
        self.apply(&decision, now_ms)
    }

    /// The applied-decision journal, oldest first.
    pub fn events(&self) -> Vec<ScaleEvent> {
        self.journal.lock().clone()
    }

    /// `(direction, reason) → count` for the scale-events counter.
    pub fn event_counts(&self) -> Vec<(String, String, u64)> {
        self.event_counts
            .lock()
            .iter()
            .map(|((d, r), &c)| (d.clone(), r.clone(), c))
            .collect()
    }

    pub fn status(&self) -> FleetStatus {
        FleetStatus {
            policy: self.policy.lock().name().to_string(),
            enabled: self.cfg.enabled,
            live: self.live(),
            draining: self.draining(),
            stopped: self.stopped() as usize,
            capacity: self.cluster.len(),
            min_workers: self.cfg.min_workers,
            max_workers: self.cfg.max_workers,
            handoffs: self.handoffs(),
            events: self.events(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{BreakerConfig, HandleStats, LbPolicy, ProbeResult};
    use iluvatar_core::{CacheStatus, InvocationResult, InvokeError};
    use parking_lot::RwLock;
    use std::sync::atomic::AtomicBool;

    /// A stub elastic worker: tracks registered specs, drain state, and a
    /// settable "busy" flag that keeps the reaper waiting.
    struct ElasticStub {
        name: String,
        specs: Mutex<Vec<String>>,
        draining: AtomicBool,
        busy: AtomicU64,
        load: RwLock<f64>,
        /// Settable warm residency profile for victim-selection tests.
        warm: Mutex<Vec<(String, f64)>>,
        /// Prewarm requests received (the handoff landing zone).
        prewarmed: Mutex<Vec<String>>,
    }

    impl ElasticStub {
        fn new(name: String) -> Arc<Self> {
            Arc::new(Self {
                name,
                specs: Mutex::new(Vec::new()),
                draining: AtomicBool::new(false),
                busy: AtomicU64::new(0),
                load: RwLock::new(0.1),
                warm: Mutex::new(Vec::new()),
                prewarmed: Mutex::new(Vec::new()),
            })
        }
    }

    impl WorkerHandle for ElasticStub {
        fn name(&self) -> String {
            self.name.clone()
        }

        fn load(&self) -> f64 {
            *self.load.read()
        }

        fn probe(&self) -> ProbeResult {
            ProbeResult {
                load: self.load(),
                draining: self.draining.load(Ordering::SeqCst),
                step: 0.0,
                tenants: Vec::new(),
            }
        }

        fn register(&self, spec: FunctionSpec) -> Result<(), String> {
            self.specs.lock().push(spec.fqdn.clone());
            Ok(())
        }

        fn invoke(&self, _fqdn: &str, _args: &str) -> Result<InvocationResult, InvokeError> {
            if self.draining.load(Ordering::SeqCst) {
                return Err(InvokeError::ShuttingDown);
            }
            Ok(InvocationResult {
                body: String::new(),
                exec_ms: 1,
                e2e_ms: 1,
                cold: false,
                queue_ms: 0,
                arrived_at: 0,
                trace_id: 0,
                tenant: None,
                cache: CacheStatus::Bypass,
            })
        }

        fn stats(&self) -> HandleStats {
            HandleStats {
                running: self.busy.load(Ordering::SeqCst) as usize,
                drain_pending: self.busy.load(Ordering::SeqCst),
                lifecycle: if self.draining.load(Ordering::SeqCst) {
                    "draining".into()
                } else {
                    "running".into()
                },
                ..Default::default()
            }
        }

        fn drain(&self) -> Result<u64, String> {
            self.draining.store(true, Ordering::SeqCst);
            Ok(self.busy.load(Ordering::SeqCst))
        }

        fn warm_profile(&self) -> Vec<(String, f64)> {
            self.warm.lock().clone()
        }

        fn prewarm(&self, fqdn: &str) -> Result<(), String> {
            self.prewarmed.lock().push(fqdn.to_string());
            Ok(())
        }
    }

    type Spawned = Arc<Mutex<Vec<Arc<ElasticStub>>>>;

    fn fleet_of(cfg: AutoscaleConfig) -> (Arc<Cluster>, Fleet, Spawned) {
        let seed = ElasticStub::new("w0".into());
        let spawned: Spawned = Arc::new(Mutex::new(vec![Arc::clone(&seed)]));
        let cluster = Arc::new(Cluster::with_capacity(
            vec![seed as Arc<dyn WorkerHandle>],
            LbPolicy::RoundRobin,
            BreakerConfig::default(),
            cfg.max_workers,
        ));
        let record = Arc::clone(&spawned);
        let factory = move |seq: usize| {
            let w = ElasticStub::new(format!("elastic-{seq}"));
            record.lock().push(Arc::clone(&w));
            Ok(w as Arc<dyn WorkerHandle>)
        };
        let fleet = Fleet::new(Arc::clone(&cluster), Box::new(factory), cfg);
        (cluster, fleet, spawned)
    }

    fn cfg() -> AutoscaleConfig {
        let mut c = AutoscaleConfig::enabled_with(
            iluvatar_autoscale::ScalingPolicyKind::ReactiveQueueDelay,
        );
        c.max_workers = 4;
        c
    }

    #[test]
    fn scale_up_spawns_registers_and_admits() {
        let (cluster, fleet, spawned) = fleet_of(cfg());
        fleet.remember_spec(FunctionSpec::new("f", "1"));
        fleet.remember_spec(FunctionSpec::new("g", "1"));
        let e = fleet
            .apply(
                &ScalingDecision::ScaleUp {
                    add: 2,
                    reason: "test",
                },
                1_000,
            )
            .unwrap()
            .expect("event journaled");
        assert_eq!((e.from, e.to), (1, 3));
        assert_eq!(fleet.live(), 3);
        assert_eq!(cluster.live(), 3);
        // Every known spec was replayed on both new workers before attach.
        for w in spawned.lock().iter().skip(1) {
            assert_eq!(*w.specs.lock(), vec!["f-1".to_string(), "g-1".to_string()]);
        }
        // The admission probe ran inside apply: new workers are routable.
        let st = cluster.stats();
        assert!(st.slots[1].healthy && st.slots[2].healthy);
        assert_eq!(fleet.event_counts(), vec![("up".into(), "test".into(), 1)]);
    }

    #[test]
    fn scale_up_clamps_to_max_workers() {
        let (_cluster, fleet, _) = fleet_of(cfg());
        fleet
            .apply(
                &ScalingDecision::ScaleUp {
                    add: 10,
                    reason: "test",
                },
                0,
            )
            .unwrap()
            .unwrap();
        assert_eq!(fleet.live(), 4, "clamped to max_workers");
        let none = fleet
            .apply(
                &ScalingDecision::ScaleUp {
                    add: 1,
                    reason: "test",
                },
                1,
            )
            .unwrap();
        assert!(none.is_none(), "at the ceiling: nothing to journal");
    }

    #[test]
    fn scale_up_never_spawns_past_the_free_slots_draining_workers_still_hold() {
        // Capacity == max_workers (4), as every rig builds it.
        let (cluster, fleet, spawned) = fleet_of(cfg());
        let up = |add| ScalingDecision::ScaleUp {
            add,
            reason: "test",
        };
        let down = ScalingDecision::ScaleDown {
            remove: 2,
            reason: "test",
        };
        fleet.apply(&up(3), 0).unwrap();
        // Two busy workers drain: they leave the live count at once but
        // keep their slots until their work finishes.
        let workers = spawned.lock().clone();
        workers
            .iter()
            .for_each(|w| w.busy.store(1, Ordering::SeqCst));
        fleet.apply(&down, 100).unwrap();
        assert_eq!((fleet.live(), fleet.draining(), cluster.live()), (2, 2, 4));
        // Room under max_workers, but no free slot: nothing to spawn.
        assert_eq!(fleet.apply(&up(2), 200), Ok(None));
        assert_eq!(spawned.lock().len(), 4, "nothing spawned, nothing leaked");
        // One drain finishes: exactly one slot, one spawn, one attach, and
        // a journaled event that says so.
        workers[3].busy.store(0, Ordering::SeqCst);
        assert_eq!(fleet.reap(), 1);
        let e = fleet.apply(&up(2), 300).unwrap().expect("one slot is free");
        assert_eq!((e.from, e.to), (2, 3));
        assert_eq!(spawned.lock().len(), 5, "spawned == attached");
        assert_eq!((fleet.live(), cluster.live()), (3, 4));
        assert_eq!(fleet.events().last(), Some(&e));
    }

    #[test]
    fn scale_down_drains_waits_for_in_flight_then_detaches() {
        let (cluster, fleet, spawned) = fleet_of(cfg());
        fleet
            .apply(
                &ScalingDecision::ScaleUp {
                    add: 1,
                    reason: "test",
                },
                0,
            )
            .unwrap();
        assert_eq!(fleet.live(), 2);
        // The newest worker is mid-invocation when the drain lands.
        let victim = Arc::clone(spawned.lock().last().unwrap());
        victim.busy.store(3, Ordering::SeqCst);
        let e = fleet
            .apply(
                &ScalingDecision::ScaleDown {
                    remove: 1,
                    reason: "test",
                },
                5_000,
            )
            .unwrap()
            .unwrap();
        assert_eq!((e.from, e.to), (2, 1));
        assert!(
            victim.draining.load(Ordering::SeqCst),
            "drain requested, not kill"
        );
        assert_eq!(fleet.draining(), 1);
        // In-flight work still running: the reaper must wait.
        assert_eq!(fleet.reap(), 0);
        assert_eq!(cluster.live(), 2, "still attached while draining");
        // Work finishes; the next reap retires it.
        victim.busy.store(0, Ordering::SeqCst);
        assert_eq!(fleet.reap(), 1);
        assert_eq!(cluster.live(), 1);
        assert_eq!(fleet.stopped(), 1);
        assert_eq!(fleet.draining(), 0);
    }

    #[test]
    fn scale_down_never_below_min_workers() {
        let (_cluster, fleet, _) = fleet_of(cfg());
        let none = fleet
            .apply(
                &ScalingDecision::ScaleDown {
                    remove: 3,
                    reason: "test",
                },
                0,
            )
            .unwrap();
        assert!(none.is_none(), "one live worker, floor 1: no-op");
        assert_eq!(fleet.live(), 1);
    }

    #[test]
    fn observe_aggregates_and_drains_arrivals() {
        let (_cluster, fleet, spawned) = fleet_of(cfg());
        spawned.lock()[0].busy.store(2, Ordering::SeqCst);
        fleet.note_arrival("f-1");
        fleet.note_arrival("f-1");
        fleet.note_arrival("g-1");
        let obs = fleet.observe(1_234);
        assert_eq!(obs.now_ms, 1_234);
        assert_eq!(obs.live, 1);
        assert_eq!(obs.running, 2);
        assert_eq!(obs.arrivals, 3);
        assert_eq!(
            obs.per_fn_arrivals,
            vec![("f-1".to_string(), 2), ("g-1".to_string(), 1)],
            "sorted by fqdn"
        );
        // Arrivals reset after the observation consumed them.
        assert_eq!(fleet.observe(1_500).arrivals, 0);
    }

    #[test]
    fn status_reports_the_journal() {
        let (_cluster, fleet, _) = fleet_of(cfg());
        fleet
            .apply(
                &ScalingDecision::ScaleUp {
                    add: 1,
                    reason: "burst",
                },
                100,
            )
            .unwrap();
        let st = fleet.status();
        assert_eq!(st.policy, "reactive-queue-delay");
        assert_eq!(st.live, 2);
        assert_eq!(st.capacity, 4);
        assert_eq!(st.events.len(), 1);
        assert_eq!(st.events[0].reason, "burst");
        let json = serde_json::to_string(&st).unwrap();
        let back: FleetStatus = serde_json::from_str(&json).unwrap();
        assert_eq!(back.events.len(), 1);
    }

    #[test]
    fn residency_blind_fleet_drains_newest_first() {
        let (_cluster, fleet, spawned) = fleet_of(cfg());
        fleet
            .apply(
                &ScalingDecision::ScaleUp {
                    add: 2,
                    reason: "test",
                },
                0,
            )
            .unwrap();
        // No handle reports any residency: every score ties at zero and
        // the tie-break retires the newest worker, i.e. LIFO.
        let newest = Arc::clone(spawned.lock().last().unwrap());
        fleet
            .apply(
                &ScalingDecision::ScaleDown {
                    remove: 1,
                    reason: "test",
                },
                100,
            )
            .unwrap();
        assert!(
            newest.draining.load(Ordering::SeqCst),
            "an all-zero fleet drains its newest worker"
        );
        let drained = spawned
            .lock()
            .iter()
            .filter(|w| w.draining.load(Ordering::SeqCst))
            .count();
        assert_eq!(drained, 1);
    }

    #[test]
    fn least_warm_victim_preserves_hot_workers() {
        let (_cluster, fleet, spawned) = fleet_of(cfg());
        fleet
            .apply(
                &ScalingDecision::ScaleUp {
                    add: 2,
                    reason: "test",
                },
                0,
            )
            .unwrap();
        // Middle worker is stone cold; the newest is the warmest. LIFO
        // would kill the newest — least-warm must drain the middle one.
        let workers = spawned.lock().clone();
        *workers[0].warm.lock() = vec![("f-1".into(), 20.0)];
        *workers[2].warm.lock() = vec![("f-1".into(), 80.0)];
        fleet
            .apply(
                &ScalingDecision::ScaleDown {
                    remove: 1,
                    reason: "test",
                },
                100,
            )
            .unwrap();
        assert!(
            workers[1].draining.load(Ordering::SeqCst),
            "coldest worker drains first"
        );
        assert!(!workers[0].draining.load(Ordering::SeqCst));
        assert!(
            !workers[2].draining.load(Ordering::SeqCst),
            "warmest worker survives"
        );
    }

    #[test]
    fn scale_down_hands_warm_pool_to_survivors() {
        let (_cluster, fleet, spawned) = fleet_of(cfg());
        fleet
            .apply(
                &ScalingDecision::ScaleUp {
                    add: 1,
                    reason: "test",
                },
                0,
            )
            .unwrap();
        let workers = spawned.lock().clone();
        // Seed worker is far warmer, so the elastic worker is the victim;
        // its residency (hottest first) should land on the survivor.
        *workers[0].warm.lock() = vec![("big-1".into(), 100.0)];
        *workers[1].warm.lock() = vec![
            ("cold-1".into(), 1.0),
            ("hot-1".into(), 9.0),
            ("mid-1".into(), 4.0),
        ];
        fleet
            .apply(
                &ScalingDecision::ScaleDown {
                    remove: 1,
                    reason: "test",
                },
                100,
            )
            .unwrap();
        assert!(workers[1].draining.load(Ordering::SeqCst));
        assert_eq!(
            *workers[0].prewarmed.lock(),
            vec![
                "hot-1".to_string(),
                "mid-1".to_string(),
                "cold-1".to_string()
            ],
            "victim's residency prewarmed hottest-first on the survivor"
        );
        assert_eq!(fleet.handoffs(), 3);
        assert_eq!(fleet.status().handoffs, 3);
    }

    #[test]
    fn handoff_targets_are_residency_weighted() {
        let (_cluster, fleet, spawned) = fleet_of(cfg());
        fleet
            .apply(
                &ScalingDecision::ScaleUp {
                    add: 3,
                    reason: "test",
                },
                0,
            )
            .unwrap();
        let workers = spawned.lock().clone();
        // Slot 3 is the coldest in total → the drain victim. Slots 1 and 2
        // tie at 5 GB·s; slot 0 is far warmer and should receive nothing.
        *workers[0].warm.lock() = vec![("busy-1".into(), 50.0)];
        *workers[1].warm.lock() = vec![("busy-1".into(), 5.0)];
        *workers[2].warm.lock() = vec![("busy-1".into(), 5.0)];
        *workers[3].warm.lock() = vec![
            ("a-1".into(), 1.0),
            ("b-1".into(), 1.5),
            ("c-1".into(), 0.5),
        ];
        fleet
            .apply(
                &ScalingDecision::ScaleDown {
                    remove: 1,
                    reason: "test",
                },
                100,
            )
            .unwrap();
        assert!(workers[3].draining.load(Ordering::SeqCst));
        // Greedy argmin with per-assignment charging: b-1 (hottest) lands
        // on slot 1 (tie at 5 → lowest slot), a-1 on slot 2 (now the
        // least-loaded), c-1 on slot 2 again (6.0 < 6.5). Slot 0 never
        // receives — round-robin would have sent it the hottest function.
        assert_eq!(*workers[0].prewarmed.lock(), Vec::<String>::new());
        assert_eq!(*workers[1].prewarmed.lock(), vec!["b-1".to_string()]);
        assert_eq!(
            *workers[2].prewarmed.lock(),
            vec!["a-1".to_string(), "c-1".to_string()]
        );
        assert_eq!(fleet.handoffs(), 3);
    }

    #[test]
    fn scale_events_mirror_to_telemetry() {
        use iluvatar_sync::ManualClock;
        use iluvatar_telemetry::{TelemetrySink, VecSink};

        let (_cluster, fleet, _) = fleet_of(cfg());
        let bus = TelemetryBus::new("fleet", Arc::new(ManualClock::starting_at(7)));
        let sink = Arc::new(VecSink::new());
        bus.add_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        fleet.set_telemetry(bus);
        fleet
            .apply(
                &ScalingDecision::ScaleUp {
                    add: 2,
                    reason: "burst",
                },
                100,
            )
            .unwrap();
        fleet
            .apply(
                &ScalingDecision::ScaleDown {
                    remove: 1,
                    reason: "idle",
                },
                200,
            )
            .unwrap();
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind.label(), "scale:up");
        assert_eq!(events[0].at_ms, 7, "stamped by the bus clock");
        match &events[1].kind {
            TelemetryKind::Scale {
                direction,
                reason,
                from,
                to,
            } => {
                assert_eq!(direction, "down");
                assert_eq!(reason, "idle");
                assert_eq!((*from, *to), (3, 2));
            }
            other => panic!("expected scale event, got {other:?}"),
        }
    }
}
