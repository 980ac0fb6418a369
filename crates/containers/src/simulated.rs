//! The "null" simulation backend.
//!
//! §3.4: "Our 'null' container backend does not run any actual function
//! code, but instead sleeps for the function's anticipated execution time.
//! The rest of the control plane operates exactly as with real containers."
//! Create costs are drawn from the configured runtime latency model; invoke
//! sleeps for the function's warm (or cold, on the first run) execution
//! time. Against a [`ManualClock`](iluvatar_sync::ManualClock) this gives
//! in-silico simulation; against the system clock (optionally time-scaled)
//! it gives in-situ emulation on real threads.

use crate::backend::{BackendError, ContainerBackend, InvokeOutput};
use crate::latency::{RuntimeKind, RuntimeLatencyModel};
use crate::types::{Container, FunctionSpec};
use iluvatar_sync::{Clock, ShardedMap};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Null backend configuration.
pub struct SimBackendConfig {
    /// Which runtime's launch cost to charge on create.
    pub runtime: RuntimeKind,
    /// Multiplier on all modelled durations (use e.g. 0.01 to run a
    /// minutes-long workload in seconds of wall time with `SystemClock`).
    pub time_scale: f64,
    /// RNG seed for latency sampling — fixed for reproducible experiments.
    pub seed: u64,
    /// Snapshot restore factor (§3.2: containers launch "from disk, or
    /// from a previous snapshot if available"). After a function's first
    /// container, later creates restore from its snapshot at this fraction
    /// of the full launch cost. 1.0 disables snapshots.
    pub snapshot_factor: f64,
}

impl Default for SimBackendConfig {
    fn default() -> Self {
        Self {
            runtime: RuntimeKind::Containerd,
            time_scale: 1.0,
            seed: 0xF445,
            snapshot_factor: 1.0,
        }
    }
}

/// The null container backend.
pub struct SimBackend {
    clock: Arc<dyn Clock>,
    model: RuntimeLatencyModel,
    time_scale: f64,
    snapshot_factor: f64,
    rng: Mutex<StdRng>,
    /// Per-function (warm, init) ms remembered from `create` specs.
    timing: ShardedMap<String, (u64, u64)>,
    live: ShardedMap<u64, ()>,
    next_cookie: AtomicU64,
    creates: AtomicU64,
    invokes: AtomicU64,
}

impl SimBackend {
    pub fn new(clock: Arc<dyn Clock>, cfg: SimBackendConfig) -> Self {
        Self {
            clock,
            model: RuntimeLatencyModel::new(cfg.runtime).scaled(cfg.time_scale),
            time_scale: cfg.time_scale,
            snapshot_factor: cfg.snapshot_factor.clamp(0.0, 1.0),
            rng: Mutex::new(StdRng::seed_from_u64(cfg.seed)),
            timing: ShardedMap::new(),
            live: ShardedMap::new(),
            next_cookie: AtomicU64::new(1),
            creates: AtomicU64::new(0),
            invokes: AtomicU64::new(0),
        }
    }

    fn scale(&self, ms: u64) -> u64 {
        (ms as f64 * self.time_scale).round() as u64
    }

    pub fn creates(&self) -> u64 {
        self.creates.load(Ordering::Relaxed)
    }

    pub fn invokes(&self) -> u64 {
        self.invokes.load(Ordering::Relaxed)
    }

    pub fn live_containers(&self) -> usize {
        self.live.len()
    }
}

impl ContainerBackend for SimBackend {
    fn name(&self) -> &'static str {
        "null-sim"
    }

    fn create(&self, spec: &FunctionSpec) -> Result<Container, BackendError> {
        let sample = {
            let mut rng = self.rng.lock();
            self.model.sample(&mut *rng)
        };
        // §3.2: containers launch "from disk, or from a previous snapshot
        // if available" — after the first launch of a function, a snapshot
        // cuts the boot cost.
        let had_snapshot = self.timing.contains_key(&spec.fqdn);
        self.timing
            .insert(spec.fqdn.clone(), (spec.warm_exec_ms, spec.init_ms));
        let create_ms = if had_snapshot {
            (sample.create_ms as f64 * self.snapshot_factor).round() as u64
        } else {
            sample.create_ms
        };
        self.clock.sleep_ms(create_ms + sample.rpc_ms);
        let mut container = Container::new(&spec.fqdn, spec.limits);
        let cookie = self.next_cookie.fetch_add(1, Ordering::Relaxed);
        container.backend_cookie = cookie;
        self.live.insert(cookie, ());
        self.creates.fetch_add(1, Ordering::Relaxed);
        Ok(container)
    }

    fn invoke(&self, container: &Container, args: &str) -> Result<InvokeOutput, BackendError> {
        if !self.live.contains_key(&container.backend_cookie) {
            return Err(BackendError::UnknownContainer);
        }
        // Timing comes from the spec seen at `create`; an explicit
        // `{"_sim_ms":N,"_sim_init_ms":M}` args envelope overrides it
        // (used by load generators replaying per-invocation durations).
        let (spec_warm, spec_init) = self.timing.get(&container.fqdn).unwrap_or((0, 0));
        let warm_ms = parse_sim_ms(args).unwrap_or(spec_warm);
        let exec_ms = if container.needs_init() {
            warm_ms + parse_sim_init_ms(args).unwrap_or(spec_init)
        } else {
            warm_ms
        };
        let scaled = self.scale(exec_ms);
        self.clock.sleep_ms(scaled);
        container.record_invocation();
        self.invokes.fetch_add(1, Ordering::Relaxed);
        // exec_ms reports the time actually charged (post-scaling) so that
        // end-to-end minus exec is a consistent overhead at any time scale;
        // the modelled (unscaled) duration rides in the body.
        Ok(InvokeOutput {
            body: format!("{{\"sim\":true,\"modelled_ms\":{exec_ms},\"charged_ms\":{scaled}}}"),
            exec_ms: scaled,
        })
    }

    fn destroy(&self, container: &Container) -> Result<(), BackendError> {
        if self.live.remove(&container.backend_cookie).is_none() {
            return Err(BackendError::UnknownContainer);
        }
        let sample = {
            let mut rng = self.rng.lock();
            self.model.sample(&mut *rng)
        };
        self.clock.sleep_ms(sample.destroy_ms);
        Ok(())
    }
}

/// Extract `"_sim_ms": N` from a JSON-ish args string without a full parser
/// (this is the only structured field the null backend reads).
fn parse_sim_field(args: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\"");
    let at = args.find(&pat)?;
    let rest = &args[at + pat.len()..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn parse_sim_ms(args: &str) -> Option<u64> {
    parse_sim_field(args, "_sim_ms")
}

fn parse_sim_init_ms(args: &str) -> Option<u64> {
    parse_sim_field(args, "_sim_init_ms")
}

/// Encode the simulated timing envelope the null backend understands.
pub fn sim_args(warm_ms: u64, init_ms: u64) -> String {
    format!("{{\"_sim_ms\":{warm_ms},\"_sim_init_ms\":{init_ms}}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use iluvatar_sync::ManualClock;

    fn backend() -> (Arc<ManualClock>, SimBackend) {
        let clock = Arc::new(ManualClock::new());
        let b = SimBackend::new(clock.clone(), SimBackendConfig::default());
        (clock, b)
    }

    #[test]
    fn create_consumes_virtual_time() {
        let (clock, b) = backend();
        let before = clock.now_ms();
        let _c = b.create(&FunctionSpec::new("f", "1")).unwrap();
        let dt = clock.now_ms() - before;
        assert!(dt > 100 && dt < 1500, "containerd-class create took {dt}ms");
        assert_eq!(b.creates(), 1);
    }

    #[test]
    fn first_invoke_pays_init_then_warm() {
        let (clock, b) = backend();
        let c = b.create(&FunctionSpec::new("f", "1")).unwrap();
        let args = sim_args(50, 200);
        let t0 = clock.now_ms();
        let out = b.invoke(&c, &args).unwrap();
        assert_eq!(out.exec_ms, 250, "cold = warm + init");
        assert_eq!(clock.now_ms() - t0, 250);
        let t1 = clock.now_ms();
        let out = b.invoke(&c, &args).unwrap();
        assert_eq!(out.exec_ms, 50, "warm run");
        assert_eq!(clock.now_ms() - t1, 50);
        assert_eq!(b.invokes(), 2);
    }

    #[test]
    fn destroy_releases_and_rejects_reuse() {
        let (_clock, b) = backend();
        let c = b.create(&FunctionSpec::new("f", "1")).unwrap();
        assert_eq!(b.live_containers(), 1);
        b.destroy(&c).unwrap();
        assert_eq!(b.live_containers(), 0);
        assert!(matches!(
            b.invoke(&c, ""),
            Err(BackendError::UnknownContainer)
        ));
    }

    #[test]
    fn time_scale_shrinks_latency() {
        let clock = Arc::new(ManualClock::new());
        let b = SimBackend::new(
            clock.clone(),
            SimBackendConfig {
                time_scale: 0.01,
                ..Default::default()
            },
        );
        let c = b.create(&FunctionSpec::new("f", "1")).unwrap();
        let t0 = clock.now_ms();
        b.invoke(&c, &sim_args(1000, 0)).unwrap();
        assert_eq!(clock.now_ms() - t0, 10, "1000ms scaled by 0.01");
    }

    #[test]
    fn spec_timing_used_without_args_envelope() {
        let (clock, b) = backend();
        let spec = FunctionSpec::new("f", "1").with_timing(40, 160);
        let c = b.create(&spec).unwrap();
        let t0 = clock.now_ms();
        let out = b.invoke(&c, "{}").unwrap();
        assert_eq!(out.exec_ms, 200, "cold from spec timing");
        assert_eq!(clock.now_ms() - t0, 200);
        let out = b.invoke(&c, "{}").unwrap();
        assert_eq!(out.exec_ms, 40, "warm from spec timing");
    }

    #[test]
    fn snapshot_accelerates_repeat_creates() {
        let clock = Arc::new(ManualClock::new());
        let b = SimBackend::new(
            clock.clone(),
            SimBackendConfig {
                snapshot_factor: 0.25,
                ..Default::default()
            },
        );
        let spec = FunctionSpec::new("f", "1");
        let t0 = clock.now_ms();
        let _c1 = b.create(&spec).unwrap();
        let first = clock.now_ms() - t0;
        let t1 = clock.now_ms();
        let _c2 = b.create(&spec).unwrap();
        let second = clock.now_ms() - t1;
        assert!(
            (second as f64) < first as f64 * 0.6,
            "snapshot restore ({second}ms) should undercut full boot ({first}ms)"
        );
        // A different function has no snapshot yet.
        let t2 = clock.now_ms();
        let _c3 = b.create(&FunctionSpec::new("g", "1")).unwrap();
        let third = clock.now_ms() - t2;
        assert!(third as f64 > second as f64 * 1.5, "g-1 pays a full boot");
    }

    #[test]
    fn sim_args_parse_roundtrip() {
        let s = sim_args(123, 456);
        assert_eq!(parse_sim_ms(&s), Some(123));
        assert_eq!(parse_sim_init_ms(&s), Some(456));
        assert_eq!(parse_sim_ms("{}"), None);
        assert_eq!(parse_sim_ms("{\"_sim_ms\": 77}"), Some(77));
    }
}
