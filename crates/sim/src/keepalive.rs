//! The discrete-event keep-alive cache simulator.
//!
//! Replays a trace of function invocations against a keep-alive policy and
//! a fixed (or dynamically resized) memory capacity, reporting the paper's
//! two metrics (§6): the **cold-start ratio** (Fig. 5) and the **increase
//! in execution time** due to cold starts (Fig. 4), plus the
//! warm/cold/dropped breakdowns of the litmus experiments (Figs. 6–7).
//!
//! Semantics:
//!
//! * A warm, idle container of the function (not still executing a
//!   previous invocation) serves a **warm start** costing `warm_ms`.
//! * Otherwise the invocation is a **cold start**: it needs `memory_mb` of
//!   cache, evicting idle containers in policy-priority order. Its added
//!   user-visible latency is `init_ms` (the paper's `max − avg` estimate).
//! * Concurrent invocations of one function need distinct containers — the
//!   "spawn start" effect (§4).
//! * If memory cannot be freed (everything is busy), the invocation either
//!   runs ephemerally without entering the cache (Fig. 4/5 semantics) or is
//!   **dropped** (`drop_on_full`, the OpenWhisk-comparison semantics of
//!   Figs. 6–7).
//! * Expiry sweeps run on a virtual-minute cadence, mirroring the worker's
//!   background eviction thread.
//! * With `enable_preload`, HIST's predicted invocations re-insert
//!   containers ahead of arrival (its "TTL + prefetching" behaviour).

use iluvatar_core::config::KeepalivePolicyKind;
use iluvatar_core::policies::{make_policy, EntryMeta, KeepalivePolicy};
use iluvatar_trace::azure::{FunctionProfile, TraceEvent};
use std::collections::BinaryHeap;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub policy: KeepalivePolicyKind,
    /// Keep-alive cache capacity, MB.
    pub cache_mb: u64,
    /// TTL for the TTL policy (default: 10 minutes).
    pub ttl_ms: u64,
    /// Drop requests that cannot be placed (Figs. 6–7) instead of running
    /// them ephemerally outside the cache (Figs. 4–5).
    pub drop_on_full: bool,
    /// Expiry sweep cadence, virtual ms.
    pub sweep_period_ms: u64,
    /// HIST prefetching.
    pub enable_preload: bool,
    /// Invoker concurrency limit: at most this many invocations execute
    /// simultaneously; excess arrivals wait in a FIFO backlog. `None` =
    /// unbounded (pure cache semantics, Figs. 4–5).
    pub concurrency: Option<usize>,
    /// Backlog bound; beyond it arrivals are dropped (the OpenWhisk
    /// buffer-overflow behaviour behind Figs. 6–7).
    pub backlog_cap: usize,
}

impl SimConfig {
    pub fn new(policy: KeepalivePolicyKind, cache_mb: u64) -> Self {
        Self {
            policy,
            cache_mb,
            ttl_ms: 10 * 60 * 1000,
            drop_on_full: false,
            sweep_period_ms: 60_000,
            enable_preload: policy == KeepalivePolicyKind::Hist,
            concurrency: None,
            backlog_cap: 64,
        }
    }
}

/// Per-function outcome counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FnOutcome {
    pub warm: u64,
    pub cold: u64,
    pub dropped: u64,
}

impl FnOutcome {
    pub fn served(&self) -> u64 {
        self.warm + self.cold
    }

    /// Warm-start (hit) ratio among served invocations.
    pub fn hit_ratio(&self) -> f64 {
        if self.served() == 0 {
            0.0
        } else {
            self.warm as f64 / self.served() as f64
        }
    }
}

/// Full-run results.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    pub policy: &'static str,
    pub cache_mb: u64,
    pub total: u64,
    pub warm: u64,
    pub cold: u64,
    pub dropped: u64,
    /// Background preload cold starts (HIST), not user-visible.
    pub preloads: u64,
    /// User-visible added latency from cold starts, ms.
    pub cold_penalty_ms: u64,
    /// Sum of warm execution times of served invocations, ms.
    pub base_exec_ms: u64,
    pub per_function: Vec<FnOutcome>,
    pub evictions: u64,
    pub expirations: u64,
    /// Time-weighted mean cache occupancy, MB.
    pub mean_used_mb: f64,
    pub peak_used_mb: u64,
}

impl SimOutcome {
    /// Fraction of served invocations that were cold (Fig. 5 y-axis).
    pub fn cold_ratio(&self) -> f64 {
        let served = self.warm + self.cold;
        if served == 0 {
            0.0
        } else {
            self.cold as f64 / served as f64
        }
    }

    /// Percent increase in execution time due to cold starts, averaged
    /// over all invocations (Fig. 4 y-axis).
    pub fn exec_increase_pct(&self) -> f64 {
        if self.base_exec_ms == 0 {
            0.0
        } else {
            self.cold_penalty_ms as f64 / self.base_exec_ms as f64 * 100.0
        }
    }
}

/// What became of one arrival at the instant it arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Started on an idle warm container.
    Warm,
    /// Started with a cold start (kept or ephemeral).
    Cold,
    /// Every invoker slot was busy: waiting in the backlog; its warm/cold
    /// outcome is decided when a slot frees.
    Backlogged,
    /// Backlog full, or no memory under `drop_on_full`.
    Dropped,
}

struct CacheItem {
    id: u64,
    meta: EntryMeta,
    /// The container is executing until this time; idle (evictable,
    /// warm-hit eligible) afterwards.
    busy_until: u64,
}

/// The stepwise simulator; drive with [`KeepaliveSim::on_event`] or use
/// [`KeepaliveSim::run`] for a whole trace.
pub struct KeepaliveSim {
    cfg: SimConfig,
    policy: Box<dyn KeepalivePolicy>,
    profiles: Vec<FunctionProfile>,
    /// Cache items per function index.
    items: Vec<Vec<CacheItem>>,
    freq: Vec<u64>,
    next_id: u64,
    used_mb: u64,
    next_sweep: u64,
    /// Scheduled HIST preloads: (fire_time, fn index), min-heap.
    preloads: BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
    // Counters.
    out: Vec<FnOutcome>,
    preload_count: u64,
    cold_penalty_ms: u64,
    base_exec_ms: u64,
    evictions: u64,
    expirations: u64,
    /// Misses since the last `take_misses` call (provisioning input).
    misses_window: u64,
    /// Invoker-slot model: finish times of executing invocations and the
    /// FIFO backlog of `(fn index, arrival time)` waiting for a slot.
    executing: BinaryHeap<std::cmp::Reverse<u64>>,
    backlog: std::collections::VecDeque<(u32, u64)>,
    backlogged: u64,
    /// Wait of the most recently started invocation, ms (0 when it found a
    /// free slot) — the worker's "most recently dequeued" queue delay.
    last_queue_delay_ms: u64,
    // Time-weighted occupancy.
    occ_acc: f64,
    occ_last_t: u64,
    peak_used_mb: u64,
}

impl KeepaliveSim {
    pub fn new(profiles: Vec<FunctionProfile>, cfg: SimConfig) -> Self {
        let n = profiles.len();
        let policy = make_policy(cfg.policy, cfg.ttl_ms);
        Self {
            policy,
            profiles,
            items: (0..n).map(|_| Vec::new()).collect(),
            freq: vec![0; n],
            next_id: 0,
            used_mb: 0,
            next_sweep: cfg.sweep_period_ms,
            preloads: BinaryHeap::new(),
            out: vec![FnOutcome::default(); n],
            preload_count: 0,
            cold_penalty_ms: 0,
            base_exec_ms: 0,
            evictions: 0,
            expirations: 0,
            misses_window: 0,
            executing: BinaryHeap::new(),
            backlog: std::collections::VecDeque::new(),
            backlogged: 0,
            last_queue_delay_ms: 0,
            occ_acc: 0.0,
            occ_last_t: 0,
            peak_used_mb: 0,
            cfg,
        }
    }

    /// Replay a full event stream.
    pub fn run(
        profiles: Vec<FunctionProfile>,
        events: &[TraceEvent],
        cfg: SimConfig,
    ) -> SimOutcome {
        let mut sim = Self::new(profiles, cfg);
        for e in events {
            sim.on_event(e.time_ms, e.func);
        }
        let end = events.last().map(|e| e.time_ms).unwrap_or(0);
        sim.finish(end)
    }

    fn occupancy_tick(&mut self, now: u64) {
        let dt = now.saturating_sub(self.occ_last_t);
        self.occ_acc += dt as f64 * self.used_mb as f64;
        self.occ_last_t = now;
        self.peak_used_mb = self.peak_used_mb.max(self.used_mb);
    }

    /// Resize the cache (dynamic provisioning); shrinking evicts idle
    /// containers immediately to fit.
    pub fn resize(&mut self, now: u64, new_mb: u64) {
        self.occupancy_tick(now);
        self.cfg.cache_mb = new_mb;
        if self.used_mb > new_mb {
            let over = self.used_mb - new_mb;
            self.evict_idle(now, over);
        }
    }

    pub fn cache_mb(&self) -> u64 {
        self.cfg.cache_mb
    }

    pub fn used_mb(&self) -> u64 {
        self.used_mb
    }

    /// Cold misses since the last call (the provisioning controller's
    /// miss-speed numerator).
    pub fn take_misses(&mut self) -> u64 {
        std::mem::take(&mut self.misses_window)
    }

    /// Process one arrival.
    pub fn on_event(&mut self, t: u64, func: u32) -> Arrival {
        // Housekeeping strictly before the arrival.
        self.advance(t);

        // Invoker concurrency (§2.2's overcommitted invoker slots): full
        // slots push the arrival into the backlog; a full backlog drops it.
        if let Some(limit) = self.cfg.concurrency {
            if self.executing.len() >= limit {
                if self.backlog.len() < self.cfg.backlog_cap {
                    self.backlog.push_back((func, t));
                    self.backlogged += 1;
                    return Arrival::Backlogged;
                }
                self.out[func as usize].dropped += 1;
                return Arrival::Dropped;
            }
        }
        self.last_queue_delay_ms = 0;
        self.start(t, func)
    }

    /// Process completions up to time `t`, starting backlogged work as
    /// slots free (at the exact completion instants).
    fn drain_completions(&mut self, t: u64) {
        while let Some(&std::cmp::Reverse(finish)) = self.executing.peek() {
            if finish > t {
                break;
            }
            self.executing.pop();
            if let Some((func, arrived)) = self.backlog.pop_front() {
                self.last_queue_delay_ms = finish - arrived;
                self.start(finish, func);
            }
        }
    }

    /// Total arrivals that waited in the backlog.
    pub fn backlogged(&self) -> u64 {
        self.backlogged
    }

    /// Arrivals currently waiting for an invoker slot.
    pub fn queue_len(&self) -> usize {
        self.backlog.len()
    }

    /// Invocations currently executing.
    pub fn in_flight(&self) -> usize {
        self.executing.len()
    }

    /// Wait of the most recently started invocation, ms, while anything is
    /// still backlogged; 0 on an empty backlog (the worker's
    /// `Shared::queue_delay_ms` rule — nobody is waiting).
    pub fn last_queue_delay_ms(&self) -> u64 {
        if self.backlog.is_empty() {
            0
        } else {
            self.last_queue_delay_ms
        }
    }

    /// Per-function warm residency at `now`: for each function with a
    /// resident container, `(fqdn, GB·s)` — memory × time since insertion
    /// summed over its containers (`ContainerPool::warm_residency`'s
    /// formula), in function-index order.
    pub fn warm_residency(&self, now: u64) -> impl Iterator<Item = (&str, f64)> + '_ {
        let gb_s = move |i: &CacheItem| {
            let held_s = now.saturating_sub(i.meta.inserted_ms) as f64 / 1000.0;
            i.meta.memory_mb as f64 / 1024.0 * held_s
        };
        let resident = self.items.iter().zip(&self.profiles);
        resident
            .filter(|(items, _)| !items.is_empty())
            .map(move |(items, p)| (p.fqdn.as_str(), items.iter().map(gb_s).sum()))
    }

    /// Insert a ready container for `func` at `t` ahead of demand (the
    /// fleet's warm handoff), through the preload path: a no-op when an
    /// idle one exists or free memory does not allow.
    pub fn prewarm(&mut self, t: u64, func: u32) {
        self.advance(t);
        self.preload(t, func);
    }

    /// Advance housekeeping (sweeps, preloads, occupancy, completions) to
    /// time `t` without an arrival, so queue and residency readings at `t`
    /// are current.
    pub fn advance(&mut self, t: u64) {
        self.run_sweeps(t);
        self.fire_preloads(t);
        self.occupancy_tick(t);
        self.drain_completions(t);
    }

    /// Begin executing one invocation at time `t` (a slot is available).
    fn start(&mut self, t: u64, func: u32) -> Arrival {
        let f = func as usize;
        let fqdn = self.profiles[f].fqdn.clone();
        self.policy.on_arrival(&fqdn, t);
        self.freq[f] += 1;
        let warm_ms = self.profiles[f].warm_ms;
        let init_ms = self.profiles[f].init_ms;
        let mem = self.profiles[f].memory_mb;

        // Warm hit: an idle container of this function.
        if let Some(item) = self.items[f].iter_mut().find(|i| i.busy_until <= t) {
            item.meta.freq = self.freq[f];
            self.policy.on_access(&mut item.meta, t);
            item.busy_until = t + warm_ms;
            self.out[f].warm += 1;
            self.base_exec_ms += warm_ms;
            if self.cfg.concurrency.is_some() {
                self.executing.push(std::cmp::Reverse(t + warm_ms));
            }
            return Arrival::Warm;
        }

        // Cold path: need memory for a new container.
        self.misses_window += 1;
        if self.used_mb + mem > self.cfg.cache_mb {
            let shortfall = self.used_mb + mem - self.cfg.cache_mb;
            let freed = self.evict_idle(t, shortfall);
            if freed < shortfall {
                if self.cfg.drop_on_full {
                    self.out[f].dropped += 1;
                    return Arrival::Dropped;
                }
                // Ephemeral run outside the cache: still user-visible
                // cold latency, but nothing is kept.
                self.out[f].cold += 1;
                self.cold_penalty_ms += init_ms;
                self.base_exec_ms += warm_ms;
                if self.cfg.concurrency.is_some() {
                    self.executing
                        .push(std::cmp::Reverse(t + warm_ms + init_ms));
                }
                return Arrival::Cold;
            }
        }
        self.used_mb += mem;
        let mut meta = EntryMeta::new(&fqdn, mem, init_ms as f64, t);
        meta.freq = self.freq[f];
        self.policy.on_insert(&mut meta, t);
        let id = self.next_id;
        self.next_id += 1;
        self.items[f].push(CacheItem {
            id,
            meta,
            busy_until: t + warm_ms + init_ms,
        });
        self.out[f].cold += 1;
        self.cold_penalty_ms += init_ms;
        self.base_exec_ms += warm_ms;
        if self.cfg.concurrency.is_some() {
            self.executing
                .push(std::cmp::Reverse(t + warm_ms + init_ms));
        }
        Arrival::Cold
    }

    /// Run pending expiry sweeps up to time `t`.
    fn run_sweeps(&mut self, t: u64) {
        while self.next_sweep <= t {
            let now = self.next_sweep;
            self.occupancy_tick(now);
            self.sweep(now);
            self.next_sweep += self.cfg.sweep_period_ms;
        }
    }

    fn sweep(&mut self, now: u64) {
        for f in 0..self.items.len() {
            let mut i = 0;
            while i < self.items[f].len() {
                let item = &self.items[f][i];
                if item.busy_until <= now && self.policy.expired(&item.meta, now) {
                    let item = self.items[f].swap_remove(i);
                    self.policy.on_evict(&item.meta, now);
                    self.used_mb -= item.meta.memory_mb;
                    self.expirations += 1;
                    // HIST prefetch: schedule a preload for the predicted
                    // next invocation of this function.
                    if self.cfg.enable_preload {
                        if let Some(at) = self.policy.predicted_next(&item.meta.fqdn, now) {
                            if at > now {
                                self.preloads.push(std::cmp::Reverse((at, f as u32)));
                            }
                        }
                    }
                } else {
                    i += 1;
                }
            }
        }
    }

    fn fire_preloads(&mut self, t: u64) {
        while let Some(&std::cmp::Reverse((at, func))) = self.preloads.peek() {
            if at > t {
                break;
            }
            self.preloads.pop();
            self.preload(at, func);
        }
    }

    /// Insert a ready container for `func` at `at` — only if nothing idle
    /// exists and free memory allows: preloading never evicts live entries.
    fn preload(&mut self, at: u64, func: u32) {
        let f = func as usize;
        let has_idle = self.items[f].iter().any(|i| i.busy_until <= at);
        let mem = self.profiles[f].memory_mb;
        if !has_idle && self.used_mb + mem <= self.cfg.cache_mb {
            self.used_mb += mem;
            let fqdn = self.profiles[f].fqdn.clone();
            let mut meta = EntryMeta::new(&fqdn, mem, self.profiles[f].init_ms as f64, at);
            meta.freq = self.freq[f];
            self.policy.on_insert(&mut meta, at);
            let id = self.next_id;
            self.next_id += 1;
            // Ready immediately: the background preload absorbed init.
            self.items[f].push(CacheItem {
                id,
                meta,
                busy_until: at,
            });
            self.preload_count += 1;
        }
    }

    /// Evict idle items in priority order until `target_mb` freed; returns
    /// the amount actually freed. Victims are drawn lazily from a min-heap:
    /// building it is O(n), and under memory pressure only a handful of
    /// pops are usually needed, against a full O(n log n) sort.
    fn evict_idle(&mut self, now: u64, target_mb: u64) -> u64 {
        struct Cand {
            prio: f64,
            f: usize,
            id: u64,
        }
        impl PartialEq for Cand {
            fn eq(&self, other: &Self) -> bool {
                self.prio == other.prio
            }
        }
        impl Eq for Cand {}
        impl Ord for Cand {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reverse: BinaryHeap is a max-heap, we want min-prio first.
                other.prio.total_cmp(&self.prio)
            }
        }
        impl PartialOrd for Cand {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut heap = BinaryHeap::new();
        for (f, items) in self.items.iter().enumerate() {
            for item in items {
                if item.busy_until <= now {
                    heap.push(Cand {
                        prio: self.policy.priority(&item.meta, now),
                        f,
                        id: item.id,
                    });
                }
            }
        }
        let mut freed = 0u64;
        while freed < target_mb {
            let Some(Cand { f, id, .. }) = heap.pop() else {
                break;
            };
            if let Some(pos) = self.items[f].iter().position(|i| i.id == id) {
                let item = self.items[f].swap_remove(pos);
                self.policy.on_evict(&item.meta, now);
                self.used_mb -= item.meta.memory_mb;
                freed += item.meta.memory_mb;
                self.evictions += 1;
            }
        }
        freed
    }

    /// Finalize and collect results. By reference, so a simulator shared
    /// behind a worker handle can be finished where it stands.
    pub fn finish(&mut self, end_time: u64) -> SimOutcome {
        self.drain_completions(end_time);
        // Backlogged work that never got a slot counts as dropped.
        while let Some((func, _)) = self.backlog.pop_front() {
            self.out[func as usize].dropped += 1;
        }
        self.occupancy_tick(end_time);
        let warm: u64 = self.out.iter().map(|o| o.warm).sum();
        let cold: u64 = self.out.iter().map(|o| o.cold).sum();
        let dropped: u64 = self.out.iter().map(|o| o.dropped).sum();
        SimOutcome {
            policy: self.policy.name(),
            cache_mb: self.cfg.cache_mb,
            total: warm + cold + dropped,
            warm,
            cold,
            dropped,
            preloads: self.preload_count,
            cold_penalty_ms: self.cold_penalty_ms,
            base_exec_ms: self.base_exec_ms,
            per_function: self.out.clone(),
            evictions: self.evictions,
            expirations: self.expirations,
            mean_used_mb: if end_time > 0 {
                self.occ_acc / end_time as f64
            } else {
                0.0
            },
            peak_used_mb: self.peak_used_mb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(fqdn: &str, warm: u64, init: u64, mem: u64) -> FunctionProfile {
        FunctionProfile {
            fqdn: fqdn.into(),
            app: 0,
            mean_iat_ms: 1000.0,
            warm_ms: warm,
            init_ms: init,
            memory_mb: mem,
            diurnal: false,
        }
    }

    fn events(specs: &[(u64, u32)]) -> Vec<TraceEvent> {
        specs
            .iter()
            .map(|&(t, f)| TraceEvent {
                time_ms: t,
                func: f,
            })
            .collect()
    }

    #[test]
    fn first_cold_then_warm() {
        let out = KeepaliveSim::run(
            vec![profile("f", 100, 900, 128)],
            &events(&[(0, 0), (5_000, 0), (10_000, 0)]),
            SimConfig::new(KeepalivePolicyKind::Lru, 1024),
        );
        assert_eq!((out.cold, out.warm, out.dropped), (1, 2, 0));
        assert_eq!(out.cold_penalty_ms, 900);
        assert_eq!(out.base_exec_ms, 300);
        assert!((out.cold_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert!((out.exec_increase_pct() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_invocations_spawn_start() {
        // Two arrivals while the first is still executing → both cold.
        let out = KeepaliveSim::run(
            vec![profile("f", 10_000, 500, 128)],
            &events(&[(0, 0), (1_000, 0)]),
            SimConfig::new(KeepalivePolicyKind::Lru, 1024),
        );
        assert_eq!(
            out.cold, 2,
            "spawn start: concurrent arrivals each cold-start"
        );
    }

    #[test]
    fn ttl_expires_but_lru_keeps() {
        let ev = events(&[(0, 0), (11 * 60_000, 0)]); // 11 min apart
        let ttl = KeepaliveSim::run(
            vec![profile("f", 100, 900, 128)],
            &ev,
            SimConfig::new(KeepalivePolicyKind::Ttl, 1024),
        );
        assert_eq!(ttl.cold, 2, "10-minute TTL expired the container");
        assert_eq!(ttl.expirations, 1);
        let lru = KeepaliveSim::run(
            vec![profile("f", 100, 900, 128)],
            &ev,
            SimConfig::new(KeepalivePolicyKind::Lru, 1024),
        );
        assert_eq!(lru.cold, 1, "work-conserving LRU kept it warm");
        assert_eq!(lru.warm, 1);
    }

    #[test]
    fn memory_pressure_evicts_by_policy() {
        // Cache fits exactly 2 × 128MB. Three functions round-robin.
        let profiles = vec![
            profile("a", 100, 1000, 128),
            profile("b", 100, 1000, 128),
            profile("c", 100, 1000, 128),
        ];
        let ev = events(&[(0, 0), (1_000, 1), (2_000, 2), (3_000, 0)]);
        let out = KeepaliveSim::run(profiles, &ev, SimConfig::new(KeepalivePolicyKind::Lru, 256));
        // a@0 cold (busy to 1100); b@1000 cold (a still busy, both fit);
        // c@2000 evicts idle a; a@3000 evicts idle b. Four colds, two
        // evictions.
        assert_eq!(out.cold, 4);
        assert_eq!(out.evictions, 2);
    }

    #[test]
    fn gdsf_protects_expensive_small() {
        // small+expensive (fp) vs big+cheap (ml); cache fits only one idle
        // at a time alongside the running one.
        let profiles = vec![profile("fp", 100, 1700, 128), profile("ml", 100, 100, 512)];
        // Prime both, then alternate; GD should keep fp warm, evict ml.
        let ev = events(&[
            (0, 0),
            (2_000, 1),
            (60_000, 0),
            (62_000, 1),
            (120_000, 0),
            (122_000, 1),
        ]);
        let gd = KeepaliveSim::run(
            profiles.clone(),
            &ev,
            SimConfig::new(KeepalivePolicyKind::Gdsf, 600),
        );
        let fp = gd.per_function[0];
        let ml = gd.per_function[1];
        assert!(
            fp.hit_ratio() >= ml.hit_ratio(),
            "GD favours high init-cost density: fp {:?} vs ml {:?}",
            fp,
            ml
        );
    }

    #[test]
    fn drop_on_full_drops_instead_of_ephemeral() {
        let profiles = vec![profile("a", 60_000, 100, 128), profile("b", 100, 100, 128)];
        // a occupies the only slot and runs for a minute; b arrives mid-run.
        let ev = events(&[(0, 0), (1_000, 1)]);
        let drop = KeepaliveSim::run(
            profiles.clone(),
            &ev,
            SimConfig {
                drop_on_full: true,
                ..SimConfig::new(KeepalivePolicyKind::Lru, 128)
            },
        );
        assert_eq!(drop.dropped, 1);
        assert_eq!(drop.cold, 1);
        let eph = KeepaliveSim::run(
            profiles,
            &ev,
            SimConfig {
                drop_on_full: false,
                ..SimConfig::new(KeepalivePolicyKind::Lru, 128)
            },
        );
        assert_eq!(eph.dropped, 0);
        assert_eq!(eph.cold, 2, "ephemeral run still counts cold");
    }

    #[test]
    fn hist_preload_produces_warm_hits() {
        // Strictly periodic function, 30-minute IAT: HIST should eagerly
        // evict and preload just before each arrival.
        let period = 30 * 60_000u64;
        let ev: Vec<TraceEvent> = (0..20)
            .map(|i| TraceEvent {
                time_ms: i * period,
                func: 0,
            })
            .collect();
        let hist = KeepaliveSim::run(
            vec![profile("periodic", 1_000, 5_000, 256)],
            &ev,
            SimConfig::new(KeepalivePolicyKind::Hist, 1024),
        );
        assert!(hist.preloads > 0, "HIST must prefetch");
        assert!(
            hist.warm >= 10,
            "preloads convert periodic arrivals to warm hits: {:?}",
            (hist.warm, hist.cold, hist.preloads)
        );
        // TTL(10min) would be cold every time.
        let ttl = KeepaliveSim::run(
            vec![profile("periodic", 1_000, 5_000, 256)],
            &ev,
            SimConfig::new(KeepalivePolicyKind::Ttl, 1024),
        );
        assert_eq!(ttl.warm, 0);
        assert!(hist.warm > ttl.warm);
    }

    #[test]
    fn occupancy_accounting() {
        let out = KeepaliveSim::run(
            vec![profile("f", 100, 100, 200)],
            &events(&[(0, 0), (10_000, 0)]),
            SimConfig::new(KeepalivePolicyKind::Lru, 1024),
        );
        assert_eq!(out.peak_used_mb, 200);
        assert!(out.mean_used_mb > 0.0 && out.mean_used_mb <= 200.0);
    }

    #[test]
    fn resize_shrink_evicts() {
        let mut sim = KeepaliveSim::new(
            vec![profile("a", 100, 100, 128), profile("b", 100, 100, 128)],
            SimConfig::new(KeepalivePolicyKind::Lru, 512),
        );
        sim.on_event(0, 0);
        sim.on_event(1_000, 1);
        assert_eq!(sim.used_mb(), 256);
        sim.resize(5_000, 128);
        assert_eq!(sim.used_mb(), 128, "shrink evicted one idle container");
        assert_eq!(sim.cache_mb(), 128);
    }

    #[test]
    fn take_misses_resets_window() {
        let mut sim = KeepaliveSim::new(
            vec![profile("a", 10, 10, 64)],
            SimConfig::new(KeepalivePolicyKind::Lru, 512),
        );
        sim.on_event(0, 0);
        assert_eq!(sim.take_misses(), 1);
        assert_eq!(sim.take_misses(), 0);
        sim.on_event(10_000, 0); // warm
        assert_eq!(sim.take_misses(), 0);
    }
}
