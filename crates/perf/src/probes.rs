//! Layer probes: tight loops over one public function of one layer, at the
//! workloads' input sizes (64-byte arguments, the exact `/invoke` bytes,
//! the `WireResult` a worker returns). They give each layer a cost that
//! does not depend on the rest of the pipeline, so a per-layer change can
//! be seen even where it is a small share of an end-to-end number.
//!
//! Every probe reports the median of [`REPS`] repetitions; a repetition
//! runs for at least the budgeted time *and* at least its iteration floor.

use crate::inputs::{expected_body, fqdn, items, Item, FUNCTIONS};
use crate::stats::median;
use iluvatar_admission::{AdmissionConfig, AdmissionController, TenantSpec};
use iluvatar_cache::{CacheConfig, ResultCache};
use iluvatar_core::api::WireResult;
use iluvatar_core::config::{QueueConfig, QueuePolicyKind};
use iluvatar_core::queue::{InvocationQueue, QueuedInvocation};
use iluvatar_core::wal::{FsyncPolicy, PendingInvocation, Wal, WalOptions, WalRecord};
use iluvatar_core::{
    FlightRecorder, FunctionSpec, InvocationHandle, InvocationResult, InvokeError, TelemetryBus,
    TelemetryKind, TelemetrySink,
};
use iluvatar_dispatch::{DispatchConfig, PullPlane};
use iluvatar_http::{
    parse_request, HttpClient, HttpServer, Method, PooledClient, Request, Response, Status,
};
use iluvatar_lb::{ChBlConfig, Cluster, LbPolicy, WorkerHandle};
use iluvatar_sync::storage::RealStorage;
use iluvatar_sync::{LogHistogram, ShardedMap, SystemClock};
use iluvatar_telemetry::CounterBridge;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const REPS: usize = 5;
/// Iteration floor for in-memory probes, and for the ones that cross a
/// socket, an fsync or a timer (milliseconds each, so 10 000 would take
/// minutes).
const FAST_ITERS: u64 = 10_000;
const SLOW_ITERS: u64 = 100;

/// How long one repetition must last; `quick` shrinks the floors too.
#[derive(Clone, Copy)]
pub struct Budget {
    pub rep: Duration,
    pub quick: bool,
}

impl Budget {
    fn floor(&self, iters: u64) -> u64 {
        if self.quick {
            (iters / 100).max(3)
        } else {
            iters
        }
    }
}

/// Mean ns per call of `op`, median over the repetitions.
fn measure(b: Budget, floor: u64, mut op: impl FnMut()) -> f64 {
    let floor = b.floor(floor);
    let per_rep: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let mut n = 0u64;
            while n < floor || start.elapsed() < b.rep {
                // Amortise the clock read over a batch (of 1 for slow ops).
                let batch = (floor / 100).clamp(1, 64);
                for _ in 0..batch {
                    op();
                }
                n += batch;
            }
            start.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&per_rep)
}

fn wire_result(item: &Item) -> WireResult {
    WireResult {
        body: expected_body(item.func),
        exec_ms: 0,
        e2e_ms: 0,
        cold: false,
        queue_ms: 0,
        trace_id: 0x5EED_0000_0000_0001,
        tenant: None,
    }
}

fn queued(item: &Item, n: u64, tenant: Option<(&str, f64)>) -> QueuedInvocation {
    QueuedInvocation {
        fqdn: item.fqdn.clone(),
        args: item.args.clone(),
        trace_id: n,
        arrived_at: n,
        expected_exec_ms: 0.0,
        iat_ms: 0.0,
        expect_warm: true,
        tenant: tenant.map(|(t, _)| t.to_string()),
        tenant_weight: tenant.map(|(_, w)| w).unwrap_or(1.0),
        result_tx: InvocationHandle::pair().0,
    }
}

/// Pop the head and push it back as the newest arrival, at depth 64.
fn queue_cycle(b: Budget, policy: QueuePolicyKind, items: &[Item]) -> f64 {
    let q = InvocationQueue::new(QueueConfig {
        policy,
        ..Default::default()
    });
    let tenants = [("gold", 3.0), ("bronze", 1.0)];
    for n in 0..64u64 {
        let tenant = (policy == QueuePolicyKind::Drr).then_some(tenants[n as usize % 2]);
        q.push(queued(&items[n as usize], n, tenant)).expect("push");
    }
    let mut now = 64u64;
    measure(b, FAST_ITERS, || {
        let mut item = q.try_pop().expect("non-empty");
        now += 1;
        item.arrived_at = now;
        q.push(black_box(item)).expect("push");
    })
}

fn wal_records(item: &Item, id: u64) -> (WalRecord, WalRecord) {
    (
        WalRecord::Enqueued {
            inv: PendingInvocation {
                id,
                fqdn: item.fqdn.clone(),
                args: item.args.clone(),
                tenant: Some("gold".into()),
                tenant_weight: 3.0,
                arrived_at: id,
                expect_warm: true,
                ..Default::default()
            },
        },
        WalRecord::Completed {
            id,
            ok: true,
            tenant: Some("gold".into()),
        },
    )
}

/// One `Wal::append` (an `Enqueued` and its `Completed`, averaged), µs.
fn wal_append(b: Budget, scratch: &Path, tag: &str, fsync: FsyncPolicy, item: &Item) -> f64 {
    let dir = scratch.join(format!("probe-wal-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create probe wal dir");
    let opts = WalOptions {
        fsync,
        ..Default::default()
    };
    let wal = Wal::open_with(&dir.join("queue.wal"), opts, Arc::new(RealStorage)).expect("open");
    let floor = match fsync {
        FsyncPolicy::Never => FAST_ITERS,
        _ => SLOW_ITERS,
    };
    let mut id = 0u64;
    let ns = measure(b, floor, || {
        id += 1;
        let (enq, done) = wal_records(item, id);
        black_box(wal.append(&enq));
        black_box(wal.append(&done));
    });
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    ns / 2.0 / 1e3
}

/// A [`WorkerHandle`] that answers from memory, so `Cluster::pick` is
/// routing and bookkeeping only.
struct StubHandle(&'static str);

impl WorkerHandle for StubHandle {
    fn name(&self) -> String {
        self.0.to_string()
    }

    fn load(&self) -> f64 {
        0.25
    }

    fn register(&self, _spec: FunctionSpec) -> Result<(), String> {
        Ok(())
    }

    fn invoke(&self, _fqdn: &str, _args: &str) -> Result<InvocationResult, InvokeError> {
        Err(InvokeError::ShuttingDown)
    }
}

/// `(enqueue, pull, complete)` µs on an in-process [`PullPlane`].
fn dispatch_cycle(b: Budget, items: &[Item]) -> (f64, f64, f64) {
    let plane = PullPlane::new(DispatchConfig::pull(), SystemClock::shared());
    plane.register_worker("w0");
    plane.register_worker("w1");
    let body = expected_body(0);
    let floor = b.floor(FAST_ITERS);
    let mut reps = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (mut enq, mut pull, mut done) = (0u128, 0u128, 0u128);
        let start = Instant::now();
        let mut n = 0u64;
        while n < floor || start.elapsed() < b.rep {
            let item = &items[n as usize % items.len()];
            let t0 = Instant::now();
            let id = plane
                .enqueue(&item.fqdn, &item.args, None)
                .expect("enqueue");
            let t1 = Instant::now();
            let leases = plane.pull("w0", 1);
            let t2 = Instant::now();
            let accepted = plane.complete(leases[0].lease_id, true, &body, 0);
            let t3 = Instant::now();
            assert!(accepted && plane.wait(id, 1_000).is_some());
            enq += (t1 - t0).as_nanos();
            pull += (t2 - t1).as_nanos();
            done += (t3 - t2).as_nanos();
            n += 1;
        }
        reps.0.push(enq as f64 / n as f64 / 1e3);
        reps.1.push(pull as f64 / n as f64 / 1e3);
        reps.2.push(done as f64 / n as f64 / 1e3);
    }
    (median(&reps.0), median(&reps.1), median(&reps.2))
}

/// Run every probe; returns `(metric name, value)` in a fixed order.
pub fn run_all(seed: u64, b: Budget, scratch: &Path) -> Vec<(&'static str, f64)> {
    let items = items(seed, false);
    let item = &items[0];
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // --- http ------------------------------------------------------------
    let wire_request = Request::new(Method::Post, "/invoke")
        .with_body(item.http_body.clone())
        .encode();
    out.push((
        "http.parse_request_ns",
        measure(b, FAST_ITERS, || {
            black_box(parse_request(black_box(&wire_request)).expect("parses"));
        }),
    ));
    let wire_json = serde_json::to_string(&wire_result(item)).expect("encodes");
    let response = Response::new(Status::OK)
        .with_header("Content-Type", "application/json")
        .with_header(iluvatar_http::CACHE_HEADER, "bypass")
        .with_header(iluvatar_http::SEQ_HEADER, "123456")
        .with_body(wire_json.clone());
    out.push((
        "http.encode_response_ns",
        measure(b, FAST_ITERS, || {
            black_box(black_box(&response).encode());
        }),
    ));
    {
        let echo = wire_json.clone();
        let server = HttpServer::start(Arc::new(move |_req| Response::ok(echo.clone())))
            .expect("start echo server");
        let request = Request::new(Method::Post, "/invoke").with_body(item.http_body.clone());
        let pooled = PooledClient::new(Duration::from_secs(5));
        out.push((
            "http.roundtrip_us",
            measure(b, SLOW_ITERS, || {
                black_box(pooled.send(server.addr(), &request).expect("roundtrip"));
            }) / 1e3,
        ));
        out.push((
            "http.connect_roundtrip_us",
            measure(b, SLOW_ITERS, || {
                let r = HttpClient::send(server.addr(), &request, Duration::from_secs(5));
                black_box(r.expect("roundtrip"));
            }) / 1e3,
        ));
    }

    // --- core ------------------------------------------------------------
    out.push((
        "core.queue_push_pop_ns",
        queue_cycle(b, QueuePolicyKind::Eedf, &items),
    ));
    out.push((
        "core.queue_drr_push_pop_ns",
        queue_cycle(b, QueuePolicyKind::Drr, &items),
    ));
    out.push((
        "core.wal_append_never_us",
        wal_append(b, scratch, "never", FsyncPolicy::Never, item),
    ));
    out.push((
        "core.wal_append_group_us",
        wal_append(
            b,
            scratch,
            "group",
            FsyncPolicy::Group { interval_ms: 2 },
            item,
        ),
    ));

    // --- admission -------------------------------------------------------
    {
        let ctl = AdmissionController::new(
            AdmissionConfig::enabled_with(vec![
                TenantSpec::new("gold").with_weight(3.0),
                TenantSpec::new("bronze").with_weight(1.0),
            ]),
            SystemClock::shared(),
        );
        let mut flip = false;
        out.push((
            "admission.admit_ns",
            measure(b, FAST_ITERS, || {
                flip = !flip;
                black_box(ctl.admit(if flip { "gold" } else { "bronze" }, 0));
            }),
        ));
    }

    // --- cache -----------------------------------------------------------
    {
        let cache = ResultCache::new(CacheConfig::enabled_default(), SystemClock::shared());
        let name = fqdn(0);
        cache.note_spec(&FunctionSpec::new("fn", "0").with_idempotent());
        let body = expected_body(0);
        cache.fill(&name, None, &item.args, &body, 0, Some(1));
        out.push((
            "cache.lookup_hit_ns",
            measure(b, FAST_ITERS, || {
                black_box(cache.lookup(&name, None, black_box(&item.args)));
            }),
        ));
        let mut n = 0usize;
        out.push((
            "cache.fill_ns",
            measure(b, FAST_ITERS, || {
                n += 1;
                cache.fill(&name, None, &items[n % 512].args, &body, 0, Some(n as u64));
            }),
        ));
    }

    // --- loadbalancer / dispatch -----------------------------------------
    {
        let handles: Vec<Arc<dyn WorkerHandle>> =
            vec![Arc::new(StubHandle("w0")), Arc::new(StubHandle("w1"))];
        let cluster = Cluster::new(handles, LbPolicy::ChBl(ChBlConfig::default()));
        let names: Vec<String> = (0..FUNCTIONS).map(fqdn).collect();
        let mut n = 0usize;
        out.push((
            "lb.pick_ns",
            measure(b, FAST_ITERS, || {
                n += 1;
                black_box(cluster.pick(&names[n % FUNCTIONS]));
            }),
        ));
    }
    let (enqueue, pull, complete) = dispatch_cycle(b, &items);
    out.push(("dispatch.enqueue_us", enqueue));
    out.push(("dispatch.pull_us", pull));
    out.push(("dispatch.complete_us", complete));

    // --- telemetry / sync / vendored shims -------------------------------
    {
        let bus = TelemetryBus::new("probe", SystemClock::shared());
        bus.add_sink(Arc::new(FlightRecorder::new(256)) as Arc<dyn TelemetrySink>);
        bus.add_sink(Arc::new(CounterBridge::new()) as Arc<dyn TelemetrySink>);
        out.push((
            "telemetry.publish_ns",
            measure(b, FAST_ITERS, || {
                bus.emit(
                    Some(7),
                    None,
                    TelemetryKind::Trace {
                        stage: "enqueued".into(),
                    },
                );
            }),
        ));
    }
    {
        let mut hist = LogHistogram::new();
        let mut v = 1u64;
        out.push((
            "sync.loghist_record_ns",
            measure(b, FAST_ITERS, || {
                v = v % 5_000 + 37;
                hist.record(black_box(v));
            }),
        ));
        black_box(hist.count());
    }
    {
        let map: ShardedMap<String, u64> = ShardedMap::new();
        let names: Vec<String> = (0..FUNCTIONS).map(fqdn).collect();
        for (i, n) in names.iter().enumerate() {
            map.insert(n.clone(), i as u64);
        }
        let mut n = 0usize;
        out.push((
            "sync.shardmap_get_ns",
            measure(b, FAST_ITERS, || {
                n += 1;
                black_box(map.get(names[n % FUNCTIONS].as_str()));
            }),
        ));
    }
    {
        let wire = wire_result(item);
        out.push((
            "vendor.json_encode_wire_ns",
            measure(b, FAST_ITERS, || {
                black_box(serde_json::to_string(black_box(&wire)).expect("encodes"));
            }),
        ));
        out.push((
            "vendor.json_decode_wire_ns",
            measure(b, FAST_ITERS, || {
                let w: WireResult = serde_json::from_str(black_box(&wire_json)).expect("decodes");
                black_box(w);
            }),
        ));
    }
    out.push((
        "vendor.channel_send_recv_ns",
        measure(b, FAST_ITERS, || {
            let (tx, rx) = crossbeam::channel::bounded::<u64>(1);
            tx.send(black_box(1)).expect("send");
            black_box(rx.recv().expect("recv"));
        }),
    ));
    {
        let lock = parking_lot::Mutex::new(0u64);
        out.push((
            "vendor.mutex_lock_ns",
            measure(b, FAST_ITERS, || {
                *lock.lock() += 1;
            }),
        ));
        black_box(*lock.lock());
    }
    out
}
