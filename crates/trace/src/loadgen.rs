//! Open- and closed-loop load generation (§5).
//!
//! "It can do closed and open loop load generation, and be parameterized by
//! the number and mixture of functions, their IAT distributions, etc. The
//! open-loop generation produces a timeseries of function invocations, which
//! is helpful for repeatable experiments."
//!
//! Targets implement [`InvokerTarget`]; the generators are agnostic to
//! whether they drive an Ilúvatar worker, the OpenWhisk baseline model, or a
//! load balancer in front of a cluster.

use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of one fired invocation, as seen by the client.
#[derive(Debug, Clone)]
pub struct FireOutcome {
    pub fqdn: String,
    /// End-to-end client-observed latency, ms.
    pub e2e_ms: u64,
    /// The same latency in µs: a warm Ilúvatar invocation is far below the
    /// millisecond `e2e_ms` can resolve.
    pub e2e_us: u64,
    /// Function execution time reported by the platform, ms.
    pub exec_ms: u64,
    pub cold: bool,
    /// The platform rejected/dropped the request.
    pub dropped: bool,
    /// Client-side send timestamp, ms since generator start.
    pub sent_at_ms: u64,
    /// Tenant label the invocation was fired under, if any.
    pub tenant: Option<String>,
}

impl FireOutcome {
    /// What the client saw: `res` is the target's answer, `sent` the moment
    /// the request left.
    fn observed(
        fqdn: String,
        tenant: Option<String>,
        sent: Instant,
        sent_at_ms: u64,
        res: Result<(u64, bool), String>,
    ) -> Self {
        let e2e = sent.elapsed();
        let (exec_ms, cold) = *res.as_ref().unwrap_or(&(0, false));
        Self {
            fqdn,
            e2e_ms: e2e.as_millis() as u64,
            e2e_us: e2e.as_micros() as u64,
            exec_ms,
            cold,
            dropped: res.is_err(),
            sent_at_ms,
            tenant,
        }
    }

    /// Control-plane overhead: client latency minus function execution.
    pub fn overhead_ms(&self) -> u64 {
        self.e2e_ms.saturating_sub(self.exec_ms)
    }

    /// [`overhead_ms`](Self::overhead_ms) at µs resolution (the platform
    /// reports execution time in whole ms).
    pub fn overhead_us(&self) -> u64 {
        self.e2e_us.saturating_sub(self.exec_ms * 1000)
    }
}

/// Anything that can execute one blocking invocation.
pub trait InvokerTarget: Send + Sync + 'static {
    /// Fire `fqdn` synchronously. Returns (exec_ms, cold) or Err for a
    /// dropped/rejected request.
    fn fire(&self, fqdn: &str, args: &str) -> Result<(u64, bool), String>;

    /// Fire under a tenant label. Targets without multi-tenant support
    /// drop the label and dispatch as usual.
    fn fire_as(&self, fqdn: &str, args: &str, tenant: Option<&str>) -> Result<(u64, bool), String> {
        let _ = tenant;
        self.fire(fqdn, args)
    }
}

/// Closed-loop configuration: `clients` threads each invoking their
/// assigned function back-to-back (the Figure 1 methodology: "invoking the
/// function repeatedly in a closed loop ... concurrent invocations are
/// achieved by using multiple client threads").
#[derive(Debug, Clone)]
pub struct ClosedLoopConfig {
    pub clients: usize,
    pub invocations_per_client: usize,
    /// Warmup invocations per client, excluded from results.
    pub warmup_per_client: usize,
}

/// Run a closed loop where every client hammers `fqdn`.
pub fn closed_loop(
    target: Arc<dyn InvokerTarget>,
    fqdn: &str,
    cfg: &ClosedLoopConfig,
) -> Vec<FireOutcome> {
    let start = Instant::now();
    let threads: Vec<_> = (0..cfg.clients)
        .map(|_| {
            let target = Arc::clone(&target);
            let fqdn = fqdn.to_string();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let mut out = Vec::with_capacity(cfg.invocations_per_client);
                for i in 0..cfg.warmup_per_client + cfg.invocations_per_client {
                    let sent = Instant::now();
                    let sent_at_ms = start.elapsed().as_millis() as u64;
                    let res = target.fire(&fqdn, "{}");
                    let outcome = FireOutcome::observed(fqdn.clone(), None, sent, sent_at_ms, res);
                    if i >= cfg.warmup_per_client {
                        out.push(outcome);
                    }
                }
                out
            })
        })
        .collect();
    let mut all = Vec::new();
    for t in threads {
        all.extend(t.join().expect("client thread"));
    }
    all
}

/// One scheduled open-loop invocation.
#[derive(Debug, Clone)]
pub struct ScheduledInvocation {
    /// Fire time relative to run start, ms (already time-scaled).
    pub at_ms: u64,
    pub fqdn: String,
    pub args: String,
    /// Tenant label to fire under, if any.
    pub tenant: Option<String>,
}

/// Open-loop runner: fires a pre-computed schedule at (scaled) wall-clock
/// times, regardless of completion of earlier invocations.
pub struct OpenLoopRunner {
    schedule: Vec<ScheduledInvocation>,
}

impl OpenLoopRunner {
    /// `schedule` need not be sorted; it will be.
    pub fn new(mut schedule: Vec<ScheduledInvocation>) -> Self {
        schedule.sort_by_key(|s| s.at_ms);
        Self { schedule }
    }

    /// Build a schedule from (time, fqdn) pairs with a time-scale factor
    /// (<1 compresses the trace).
    pub fn from_events<'a>(events: impl Iterator<Item = (u64, &'a str)>, time_scale: f64) -> Self {
        let schedule = events
            .map(|(t, f)| ScheduledInvocation {
                at_ms: (t as f64 * time_scale) as u64,
                fqdn: f.to_string(),
                args: "{}".to_string(),
                tenant: None,
            })
            .collect();
        Self::new(schedule)
    }

    /// Assign tenants to the schedule round-robin, weighted by `share`
    /// (e.g. `[("gold", 3), ("free", 1)]` labels 3 of every 4 invocations
    /// "gold"). Deterministic: same schedule + shares → same labels.
    pub fn with_tenants(mut self, shares: &[(&str, u32)]) -> Self {
        let total: u32 = shares.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return self;
        }
        for (i, inv) in self.schedule.iter_mut().enumerate() {
            let mut slot = (i as u32) % total;
            for &(tenant, n) in shares {
                if slot < n {
                    inv.tenant = Some(tenant.to_string());
                    break;
                }
                slot -= n;
            }
        }
        self
    }

    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// Fire the whole schedule; blocks until every invocation returns.
    /// Each invocation runs on its own thread (they are open-loop —
    /// arrivals never wait for completions).
    pub fn run(&self, target: Arc<dyn InvokerTarget>) -> Vec<FireOutcome> {
        let start = Instant::now();
        let mut handles = Vec::with_capacity(self.schedule.len());
        for inv in &self.schedule {
            // Pace the arrival process.
            let due = Duration::from_millis(inv.at_ms);
            let now = start.elapsed();
            if due > now {
                std::thread::sleep(due - now);
            }
            let target = Arc::clone(&target);
            let fqdn = inv.fqdn.clone();
            let args = inv.args.clone();
            let tenant = inv.tenant.clone();
            let sent_at_ms = start.elapsed().as_millis() as u64;
            handles.push(std::thread::spawn(move || {
                let sent = Instant::now();
                let res = target.fire_as(&fqdn, &args, tenant.as_deref());
                FireOutcome::observed(fqdn, tenant, sent, sent_at_ms, res)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("invocation thread"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Target that sleeps a fixed time; drops every 5th request.
    struct FakeTarget {
        exec_ms: u64,
        calls: AtomicU64,
        drop_every: u64,
    }

    impl InvokerTarget for FakeTarget {
        fn fire(&self, _fqdn: &str, _args: &str) -> Result<(u64, bool), String> {
            let n = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
            if self.drop_every > 0 && n.is_multiple_of(self.drop_every) {
                return Err("dropped".into());
            }
            std::thread::sleep(Duration::from_millis(self.exec_ms));
            Ok((self.exec_ms, n == 1))
        }
    }

    #[test]
    fn closed_loop_counts() {
        let t = Arc::new(FakeTarget {
            exec_ms: 2,
            calls: AtomicU64::new(0),
            drop_every: 0,
        });
        let out = closed_loop(
            Arc::clone(&t) as Arc<dyn InvokerTarget>,
            "f-1",
            &ClosedLoopConfig {
                clients: 4,
                invocations_per_client: 10,
                warmup_per_client: 2,
            },
        );
        assert_eq!(out.len(), 40, "warmups excluded");
        assert_eq!(t.calls.load(Ordering::SeqCst), 48, "warmups still fired");
        assert!(out
            .iter()
            .all(|o| o.e2e_ms >= o.exec_ms || o.e2e_ms + 1 >= o.exec_ms));
    }

    #[test]
    fn closed_loop_records_drops() {
        let t = Arc::new(FakeTarget {
            exec_ms: 1,
            calls: AtomicU64::new(0),
            drop_every: 3,
        });
        let out = closed_loop(
            t as Arc<dyn InvokerTarget>,
            "f-1",
            &ClosedLoopConfig {
                clients: 1,
                invocations_per_client: 9,
                warmup_per_client: 0,
            },
        );
        let drops = out.iter().filter(|o| o.dropped).count();
        assert_eq!(drops, 3);
    }

    #[test]
    fn open_loop_paces_arrivals() {
        let t = Arc::new(FakeTarget {
            exec_ms: 1,
            calls: AtomicU64::new(0),
            drop_every: 0,
        });
        let runner = OpenLoopRunner::from_events(
            [(0u64, "a-1"), (30, "a-1"), (60, "a-1")]
                .iter()
                .map(|&(t, f)| (t, f)),
            1.0,
        );
        assert_eq!(runner.len(), 3);
        let start = Instant::now();
        let out = runner.run(t as Arc<dyn InvokerTarget>);
        let elapsed = start.elapsed();
        assert_eq!(out.len(), 3);
        assert!(
            elapsed >= Duration::from_millis(58),
            "paced to the schedule"
        );
        assert!(out[2].sent_at_ms >= 55, "third fired near t=60");
    }

    #[test]
    fn open_loop_time_scale_compresses() {
        let runner =
            OpenLoopRunner::from_events([(1000u64, "a-1")].iter().map(|&(t, f)| (t, f)), 0.01);
        assert_eq!(runner.schedule[0].at_ms, 10);
    }

    #[test]
    fn open_loop_sorts_schedule() {
        let runner = OpenLoopRunner::new(vec![
            ScheduledInvocation {
                at_ms: 50,
                fqdn: "b-1".into(),
                args: "{}".into(),
                tenant: None,
            },
            ScheduledInvocation {
                at_ms: 10,
                fqdn: "a-1".into(),
                args: "{}".into(),
                tenant: None,
            },
        ]);
        assert_eq!(runner.schedule[0].fqdn, "a-1");
    }

    #[test]
    fn with_tenants_assigns_weighted_shares() {
        let runner = OpenLoopRunner::from_events((0..8u64).map(|t| (t, "f-1")), 1.0)
            .with_tenants(&[("gold", 3), ("free", 1)]);
        let gold = runner
            .schedule
            .iter()
            .filter(|s| s.tenant.as_deref() == Some("gold"))
            .count();
        let free = runner
            .schedule
            .iter()
            .filter(|s| s.tenant.as_deref() == Some("free"))
            .count();
        assert_eq!((gold, free), (6, 2), "3:1 share over 8 invocations");
    }

    /// Target that records the tenant labels it saw.
    struct TenantTarget {
        seen: std::sync::Mutex<Vec<Option<String>>>,
    }

    impl InvokerTarget for TenantTarget {
        fn fire(&self, _fqdn: &str, _args: &str) -> Result<(u64, bool), String> {
            self.fire_as(_fqdn, _args, None)
        }

        fn fire_as(
            &self,
            _fqdn: &str,
            _args: &str,
            tenant: Option<&str>,
        ) -> Result<(u64, bool), String> {
            self.seen.lock().unwrap().push(tenant.map(str::to_string));
            Ok((1, false))
        }
    }

    #[test]
    fn open_loop_fires_under_tenant_labels() {
        let t = Arc::new(TenantTarget {
            seen: std::sync::Mutex::new(Vec::new()),
        });
        let runner = OpenLoopRunner::from_events((0..4u64).map(|i| (i, "f-1")), 1.0)
            .with_tenants(&[("acme", 1)]);
        let out = runner.run(Arc::clone(&t) as Arc<dyn InvokerTarget>);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|o| o.tenant.as_deref() == Some("acme")));
        assert!(t
            .seen
            .lock()
            .unwrap()
            .iter()
            .all(|s| s.as_deref() == Some("acme")));
    }

    #[test]
    fn overhead_computation() {
        let o = FireOutcome {
            fqdn: "f-1".into(),
            e2e_ms: 110,
            e2e_us: 110_400,
            exec_ms: 100,
            cold: false,
            dropped: false,
            sent_at_ms: 0,
            tenant: None,
        };
        assert_eq!(o.overhead_ms(), 10);
        assert_eq!(o.overhead_us(), 10_400);
    }
}
