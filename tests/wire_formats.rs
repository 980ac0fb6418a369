//! The JSON wire formats, pinned byte for byte.
//!
//! Every body on the HTTP hops, every WAL frame payload (its CRC32 covers
//! the JSON) and every pinned digest depends on the encoder's exact output:
//! key order is declaration order with flattened members inlined at their
//! position, `f64` prints in its `Display` form with non-finite values as
//! `null`, and strings escape only `"`, `\` and control characters. The
//! expected strings below were captured from the encoder these formats were
//! first written with; a codec change that moves one byte fails here.
//!
//! Decode is pinned the same way: escapes and surrogate pairs, unknown
//! fields ignored, the first duplicate key wins, a missing `Option` reads
//! `None`, trailing characters are an error — and a long string decodes in
//! linear time.

use iluvatar_core::api::{InvokeBody, WireResult};
use iluvatar_core::{
    BreakdownReport, PendingInvocation, TraceEvent, TraceEventKind, TraceRecord, WalRecord,
    WalSnapshot, WorkerStatus,
};
use iluvatar_lb::LbStatus;
use iluvatar_sync::LogHistogram;
use iluvatar_telemetry::{TelemetryEvent, TelemetryKind};
use std::time::{Duration, Instant};

fn enc<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap()
}

/// Decode `input` and encode it again: pins the encoder for types whose
/// values are easiest to write as JSON (and exercises `#[serde(default)]`
/// on the way in).
fn reenc<T: serde::Serialize + serde::Deserialize>(input: &str) -> String {
    enc(&serde_json::from_str::<T>(input).unwrap())
}

fn wire_result(tenant: Option<&str>) -> WireResult {
    WireResult {
        body: "{\"ok\":true,\"msg\":\"h\\u00e9llo\"}".into(),
        exec_ms: 12,
        e2e_ms: 15,
        cold: true,
        queue_ms: 1,
        trace_id: 42,
        tenant: tenant.map(str::to_string),
    }
}

#[test]
fn invoke_hop_bodies() {
    assert_eq!(
        enc(&wire_result(Some("paid"))),
        "{\"body\":\"{\\\"ok\\\":true,\\\"msg\\\":\\\"h\\\\u00e9llo\\\"}\",\"exec_ms\":12,\"e2e_ms\":15,\"cold\":true,\"queue_ms\":1,\"trace_id\":42,\"tenant\":\"paid\"}"
    );
    assert_eq!(
        enc(&wire_result(None)),
        "{\"body\":\"{\\\"ok\\\":true,\\\"msg\\\":\\\"h\\\\u00e9llo\\\"}\",\"exec_ms\":12,\"e2e_ms\":15,\"cold\":true,\"queue_ms\":1,\"trace_id\":42,\"tenant\":null}"
    );
    let body = |tenant: Option<&str>| InvokeBody {
        fqdn: "pyaes-1".into(),
        args: "{\"seq\":7}".into(),
        tenant: tenant.map(str::to_string),
    };
    assert_eq!(
        enc(&body(None)),
        "{\"fqdn\":\"pyaes-1\",\"args\":\"{\\\"seq\\\":7}\",\"tenant\":null}"
    );
    assert_eq!(
        enc(&body(Some("free"))),
        "{\"fqdn\":\"pyaes-1\",\"args\":\"{\\\"seq\\\":7}\",\"tenant\":\"free\"}"
    );
}

#[test]
fn status_bodies() {
    let worker = reenc::<WorkerStatus>(
        r#"{"name":"w0","queue_len":3,"running":2,"concurrency_limit":4,
            "used_mem_mb":512,"free_mem_mb":1536,"normalized_load":1.25,"cores":4,
            "completed":100,"dropped":1,"warm_hits":90,"cold_starts":10,
            "tenants":[{"tenant":"paid","weight":3.0,"class":"Guaranteed","admitted":7,"served":7}],
            "lifecycle":"running","warm_gb_s":0.5,
            "warm_residency":[{"fqdn":"f-1","gb_s":0.5}]}"#,
    );
    assert_eq!(
        worker,
        "{\"name\":\"w0\",\"queue_len\":3,\"running\":2,\"concurrency_limit\":4,\"used_mem_mb\":512,\"free_mem_mb\":1536,\"normalized_load\":1.25,\"cores\":4,\"completed\":100,\"dropped\":1,\"failed\":0,\"warm_hits\":90,\"cold_starts\":10,\"http_requests\":0,\"retries\":0,\"agent_timeouts\":0,\"quarantined\":0,\"dropped_retry_exhausted\":0,\"dropped_admission\":0,\"tenants\":[{\"tenant\":\"paid\",\"weight\":3,\"class\":\"Guaranteed\",\"admitted\":7,\"throttled\":0,\"shed\":0,\"served\":7}],\"lifecycle\":\"running\",\"drain_pending\":0,\"queue_delay_ms\":0,\"cache_hits\":0,\"cache_misses\":0,\"cache_evictions\":0,\"warm_gb_s\":0.5,\"warm_residency\":[{\"fqdn\":\"f-1\",\"gb_s\":0.5}],\"wal_degraded\":false,\"wal_non_durable\":0,\"wal_stall_sheds\":0,\"wal_rotations\":0,\"wal_quarantined\":0}"
    );
    let lb = reenc::<LbStatus>(
        r#"{"workers":[{"name":"w0","load":0.5,"dispatched":9,"healthy":true,"breaker":"closed","present":true},
                       {"name":"w1","load":-1,"dispatched":0,"breaker":"open"}],
            "forwarded":9,"rerouted":1,
            "tenants":[{"tenant":"paid","admitted":1,"throttled":0,"shed":0,"served":1,"lb_dispatched":1,"lb_rerouted":0}],
            "pull_queues":[{"class":"guaranteed","depth":2}],"live_leases":1}"#,
    );
    assert_eq!(
        lb,
        "{\"workers\":[{\"name\":\"w0\",\"load\":0.5,\"dispatched\":9,\"healthy\":true,\"breaker\":\"closed\",\"draining\":false,\"present\":true},{\"name\":\"w1\",\"load\":-1,\"dispatched\":0,\"healthy\":false,\"breaker\":\"open\",\"draining\":false,\"present\":false}],\"forwarded\":9,\"evictions\":0,\"rerouted\":1,\"tenants\":[{\"tenant\":\"paid\",\"admitted\":1,\"throttled\":0,\"shed\":0,\"served\":1,\"lb_dispatched\":1,\"lb_rerouted\":0}],\"pull_queues\":[{\"class\":\"guaranteed\",\"depth\":2}],\"live_leases\":1}"
    );
}

#[test]
fn wal_record_payloads() {
    let inv = PendingInvocation {
        id: 7,
        fqdn: "f-1".into(),
        args: "{\"k\":\"v\"}".into(),
        tenant: Some("paid".into()),
        tenant_weight: 3.0,
        arrived_at: 1_000,
        expected_exec_ms: 12.5,
        iat_ms: 0.1,
        expect_warm: true,
        dequeued: false,
    };
    let records = [
        WalRecord::Enqueued { inv: inv.clone() },
        WalRecord::Dequeued { id: 7 },
        WalRecord::Completed {
            id: 7,
            ok: true,
            tenant: None,
        },
        WalRecord::Shed {
            id: 8,
            tenant: Some("free".into()),
            throttled: true,
        },
        WalRecord::LeaseIssued {
            id: 9,
            worker: "w1".into(),
            expires_at_ms: 2_000,
        },
        WalRecord::LeaseRequeued { id: 9 },
        WalRecord::Snapshot {
            snap: WalSnapshot {
                pending: vec![inv],
                ..Default::default()
            },
        },
    ];
    let expected = [
        "{\"op\":\"enqueued\",\"inv\":{\"id\":7,\"fqdn\":\"f-1\",\"args\":\"{\\\"k\\\":\\\"v\\\"}\",\"tenant\":\"paid\",\"tenant_weight\":3,\"arrived_at\":1000,\"expected_exec_ms\":12.5,\"iat_ms\":0.1,\"expect_warm\":true,\"dequeued\":false}}",
        "{\"op\":\"dequeued\",\"id\":7}",
        "{\"op\":\"completed\",\"id\":7,\"ok\":true,\"tenant\":null}",
        "{\"op\":\"shed\",\"id\":8,\"tenant\":\"free\",\"throttled\":true}",
        "{\"op\":\"lease_issued\",\"id\":9,\"worker\":\"w1\",\"expires_at_ms\":2000}",
        "{\"op\":\"lease_requeued\",\"id\":9}",
        "{\"op\":\"snapshot\",\"snap\":{\"pending\":[{\"id\":7,\"fqdn\":\"f-1\",\"args\":\"{\\\"k\\\":\\\"v\\\"}\",\"tenant\":\"paid\",\"tenant_weight\":3,\"arrived_at\":1000,\"expected_exec_ms\":12.5,\"iat_ms\":0.1,\"expect_warm\":true,\"dequeued\":false}],\"counters\":{\"completed\":0,\"dropped\":0,\"failed\":0,\"cold_starts\":0,\"retries\":0,\"agent_timeouts\":0,\"quarantined\":0,\"dropped_retry_exhausted\":0},\"tenants\":[],\"bucket_levels\":[],\"drr_deficits\":[]}}",
    ];
    for (r, want) in records.iter().zip(expected) {
        assert_eq!(enc(r), want, "{}", r.op_label());
    }
    for (r, want) in records.iter().zip(expected) {
        let back: WalRecord = serde_json::from_str(want).unwrap();
        assert_eq!(&back, r, "{} decodes to itself", r.op_label());
    }
}

#[test]
fn flattened_tagged_events() {
    let event = |trace_id, kind| TelemetryEvent {
        seq: 3,
        at_ms: 1_500,
        source: "worker-0".into(),
        trace_id,
        tenant: None,
        kind,
    };
    let wal = TelemetryKind::Wal {
        op: "enqueued".into(),
        cost_ms: Some(2.5),
        weight: None,
        ok: None,
        throttled: Some(false),
    };
    assert_eq!(
        enc(&event(Some(11), wal)),
        "{\"seq\":3,\"at_ms\":1500,\"source\":\"worker-0\",\"trace_id\":11,\"tenant\":null,\"kind\":\"wal\",\"op\":\"enqueued\",\"cost_ms\":2.5,\"weight\":null,\"ok\":null,\"throttled\":false}"
    );
    assert_eq!(
        enc(&event(None, TelemetryKind::WalPoisoned)),
        "{\"seq\":3,\"at_ms\":1500,\"source\":\"worker-0\",\"trace_id\":null,\"tenant\":null,\"kind\":\"wal_poisoned\"}"
    );

    let record = TraceRecord {
        trace_id: 11,
        fqdn: "f-1".into(),
        ingest_ms: 1_000,
        events: vec![
            TraceEvent {
                at_ms: 1_000,
                kind: TraceEventKind::Ingested,
            },
            TraceEvent {
                at_ms: 1_001,
                kind: TraceEventKind::ContainerAcquired { cold: false },
            },
            TraceEvent {
                at_ms: 1_002,
                kind: TraceEventKind::RetryScheduled {
                    attempt: 1,
                    delay_ms: 5,
                },
            },
            TraceEvent {
                at_ms: 1_010,
                kind: TraceEventKind::ResultReturned { ok: true },
            },
        ],
    };
    assert_eq!(
        enc(&record),
        "{\"trace_id\":11,\"fqdn\":\"f-1\",\"ingest_ms\":1000,\"events\":[{\"at_ms\":1000,\"kind\":\"ingested\"},{\"at_ms\":1001,\"kind\":\"container_acquired\",\"cold\":false},{\"at_ms\":1002,\"kind\":\"retry_scheduled\",\"attempt\":1,\"delay_ms\":5},{\"at_ms\":1010,\"kind\":\"result_returned\",\"ok\":true}]}"
    );
}

#[test]
fn histograms_and_the_pretty_report() {
    let mut h = LogHistogram::new();
    for v in [0, 3, 3, 100, 5_000, 1 << 40] {
        h.record(v);
    }
    let hist = enc(&h);
    assert_eq!(
        hist,
        "{\"bins\":{\"0\":1,\"3\":2,\"100\":1,\"462\":1,\"2240\":1},\"sum\":1099511632882,\"min\":0,\"max\":1099511627776}"
    );
    let report: BreakdownReport = serde_json::from_str(&format!(
        r#"{{"source":"worker-0","invocations":2,"cold":1,"warm":1,
            "stages":[{{"stage":"queue","count":2,"hist_ms":{hist}}}],
            "groups":[],"tenants":[{{"tenant":"paid","completed":2}}]}}"#
    ))
    .unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        "{\n  \"source\": \"worker-0\",\n  \"invocations\": 2,\n  \"cold\": 1,\n  \"warm\": 1,\n  \"stages\": [\n    {\n      \"stage\": \"queue\",\n      \"count\": 2,\n      \"hist_ms\": {\n        \"bins\": {\n          \"0\": 1,\n          \"3\": 2,\n          \"100\": 1,\n          \"462\": 1,\n          \"2240\": 1\n        },\n        \"sum\": 1099511632882,\n        \"min\": 0,\n        \"max\": 1099511627776\n      }\n    }\n  ],\n  \"groups\": [],\n  \"tenants\": [\n    {\n      \"tenant\": \"paid\",\n      \"completed\": 2\n    }\n  ]\n}"
    );
}

#[test]
fn strings_and_floats() {
    let s = "q\"b\\s/\u{0}\u{1}\u{8}\u{9}\u{a}\u{c}\u{d}\u{1f} \u{7f}é💧";
    assert_eq!(
        enc(&s),
        "\"q\\\"b\\\\s/\\u0000\\u0001\\b\\t\\n\\f\\r\\u001f \u{7f}é💧\""
    );
    assert_eq!(
        enc(&vec![f64::NAN, f64::INFINITY, 1e300, -0.0, 0.1, 2.0]),
        format!("[null,null,1{},-0,0.1,2]", "0".repeat(300))
    );
}

#[test]
fn decode_escapes_and_surrogate_pairs() {
    let s: String = serde_json::from_str(r#""a\"\\\/\b\f\n\r\té\u0001💧z""#).unwrap();
    assert_eq!(s, "a\"\\/\u{8}\u{c}\n\r\t\u{e9}\u{1}💧z");
    assert!(
        serde_json::from_str::<String>(r#""\ud83d""#).is_err(),
        "lone high half"
    );
    assert!(
        serde_json::from_str::<String>(r#""\ud83dA""#).is_err(),
        "bad low half"
    );
    assert!(
        serde_json::from_str::<String>(r#""\q""#).is_err(),
        "unknown escape"
    );
}

#[test]
fn decode_ignores_unknown_fields_and_keeps_the_first_duplicate() {
    let b: InvokeBody = serde_json::from_str(
        r#"{"zzz":{"nested":[1,{"x":null}]},"fqdn":"a","args":"1","fqdn":"b","tenant":"t","tenant":7}"#,
    )
    .unwrap();
    assert_eq!((b.fqdn.as_str(), b.args.as_str()), ("a", "1"));
    assert_eq!(b.tenant.as_deref(), Some("t"));
}

#[test]
fn decode_missing_option_is_none_and_trailing_text_is_an_error() {
    let b: InvokeBody = serde_json::from_str(r#"{"fqdn":"f-1"}"#).unwrap();
    assert_eq!((b.args.as_str(), b.tenant), ("", None));
    let e: TelemetryEvent =
        serde_json::from_str(r#"{"seq":1,"at_ms":2,"source":"lb","kind":"wal_poisoned"}"#).unwrap();
    assert_eq!((e.trace_id, e.tenant), (None, None));
    assert!(serde_json::from_str::<InvokeBody>(r#"{"fqdn":"f-1"} x"#).is_err());
    assert!(serde_json::from_str::<InvokeBody>(r#"{"fqdn":"f-1"}}"#).is_err());
    assert!(
        serde_json::from_str::<InvokeBody>(r#"{"args":"x"}"#).is_err(),
        "fqdn is required"
    );
}

#[test]
fn a_long_string_field_decodes_in_linear_time() {
    let mut r = wire_result(None);
    r.body = "x".repeat(1 << 20);
    r.body.push_str("\\\"é");
    let wire = enc(&r);
    let started = Instant::now();
    let back: WireResult = serde_json::from_str(&wire).unwrap();
    let took = started.elapsed();
    assert_eq!(back.body, r.body);
    assert!(
        took < Duration::from_secs(1),
        "a 1 MiB string took {took:?} to decode"
    );
}
