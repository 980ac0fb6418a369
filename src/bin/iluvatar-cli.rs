//! Client CLI for a running Ilúvatar worker.
//!
//! ```text
//! iluvatar-cli <addr> status
//! iluvatar-cli <addr> register <name> <version> [warm_ms] [init_ms] [memory_mb]
//! iluvatar-cli <addr> invoke <fqdn> [args-json]
//! iluvatar-cli <addr> prewarm <fqdn>
//! ```

use iluvatar::prelude::*;
use iluvatar_core::api::WorkerApiClient;

fn usage() -> ! {
    eprintln!(
        "usage: iluvatar-cli <addr> <status|register|invoke|prewarm> [...]\n\
         \n\
         iluvatar-cli 127.0.0.1:8070 status\n\
         iluvatar-cli 127.0.0.1:8070 register hello 1 120 800 256\n\
         iluvatar-cli 127.0.0.1:8070 invoke hello-1 '{{\"k\":1}}'\n\
         iluvatar-cli 127.0.0.1:8070 prewarm hello-1"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let addr = args[0].parse().unwrap_or_else(|e| {
        eprintln!("bad address {:?}: {e}", args[0]);
        std::process::exit(2);
    });
    let client = WorkerApiClient::new(addr);
    match args[1].as_str() {
        "status" => match client.status() {
            Ok(st) => println!(
                "{}: running={} queued={} limit={} mem {}/{}MB load={:.2} completed={} warm={} cold={} dropped={}",
                st.name,
                st.running,
                st.queue_len,
                st.concurrency_limit,
                st.used_mem_mb,
                st.used_mem_mb + st.free_mem_mb,
                st.normalized_load,
                st.completed,
                st.warm_hits,
                st.cold_starts,
                st.dropped
            ),
            Err(e) => fail(e),
        },
        "register" => {
            if args.len() < 4 {
                usage();
            }
            let warm: u64 = args.get(4).and_then(|v| v.parse().ok()).unwrap_or(100);
            let init: u64 = args.get(5).and_then(|v| v.parse().ok()).unwrap_or(500);
            let mem: u64 = args.get(6).and_then(|v| v.parse().ok()).unwrap_or(128);
            let spec = FunctionSpec::new(&args[2], &args[3])
                .with_timing(warm, init)
                .with_limits(ResourceLimits { cpus: 1.0, memory_mb: mem });
            match client.register(&spec) {
                Ok(()) => println!("registered {}", spec.fqdn),
                Err(e) => fail(e),
            }
        }
        "invoke" => {
            if args.len() < 3 {
                usage();
            }
            let body = args.get(3).map(|s| s.as_str()).unwrap_or("{}");
            match client.invoke_tenant(&args[2], body, None) {
                Ok(r) => println!(
                    "{} ({}; exec {}ms, e2e {}ms, queued {}ms)",
                    r.body,
                    if r.cold { "cold" } else { "warm" },
                    r.exec_ms,
                    r.e2e_ms,
                    r.queue_ms
                ),
                Err(e) => fail(e),
            }
        }
        "prewarm" => {
            if args.len() < 3 {
                usage();
            }
            match client.prewarm(&args[2]) {
                Ok(()) => println!("prewarmed {}", args[2]),
                Err(e) => fail(e),
            }
        }
        _ => usage(),
    }
}

fn fail(e: iluvatar_core::api::ApiError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}
