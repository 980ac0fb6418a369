//! Ilúvatar — a fast control plane for serverless computing.
//!
//! This facade crate re-exports the full system and provides the glue
//! adapters between the load-generation framework and the two control
//! planes (Ilúvatar worker and the OpenWhisk baseline model).
//!
//! ```no_run
//! use iluvatar::prelude::*;
//! use std::sync::Arc;
//!
//! let clock = SystemClock::shared();
//! let backend = Arc::new(SimBackend::new(Arc::clone(&clock), Default::default()));
//! let worker = Worker::new(WorkerConfig::default(), backend, clock);
//! worker.register(FunctionSpec::new("hello", "1").with_timing(20, 100)).unwrap();
//! let result = worker.invoke_tenant("hello-1", "{}", None).unwrap();
//! println!("cold={} e2e={}ms overhead={}ms", result.cold, result.e2e_ms, result.overhead_ms());
//! ```

pub use iluvatar_autoscale as autoscale;
pub use iluvatar_baseline as baseline;
pub use iluvatar_cache as cache;
pub use iluvatar_chaos as chaos;
pub use iluvatar_containers as containers;
pub use iluvatar_core as core;
pub use iluvatar_http as http;
pub use iluvatar_lb as lb;
pub use iluvatar_sim as sim;
pub use iluvatar_sync as sync;
pub use iluvatar_trace as trace;

pub mod session;

use iluvatar_baseline::OpenWhiskModel;
use iluvatar_core::Worker;
use iluvatar_trace::loadgen::InvokerTarget;

/// Everything most users need.
pub mod prelude {
    pub use iluvatar_baseline::{OpenWhiskConfig, OpenWhiskModel};
    pub use iluvatar_cache::{CacheConfig, CacheStatus, ResultCache};
    pub use iluvatar_containers::agent::FunctionBehavior;
    pub use iluvatar_containers::simulated::{SimBackend, SimBackendConfig};
    pub use iluvatar_containers::{FunctionSpec, InProcessBackend, NamespacePool, ResourceLimits};
    pub use iluvatar_core::{
        InvocationResult, InvokeError, KeepalivePolicyKind, QueuePolicyKind, Worker, WorkerConfig,
    };
    pub use iluvatar_lb::{ChBlConfig, Cluster, LbPolicy};
    pub use iluvatar_sim::{KeepaliveSim, SimConfig, SimOutcome};
    pub use iluvatar_sync::{Clock, ManualClock, SystemClock};
    pub use iluvatar_trace::functionbench::FbApp;
    pub use iluvatar_trace::{AzureTraceConfig, SampleKind, SyntheticAzureTrace, TraceSample};

    pub use crate::{OpenWhiskTarget, WorkerTarget};
}

/// [`InvokerTarget`] adapter for the Ilúvatar worker.
pub struct WorkerTarget(pub std::sync::Arc<Worker>);

impl InvokerTarget for WorkerTarget {
    fn fire(&self, fqdn: &str, args: &str) -> Result<(u64, bool), String> {
        self.fire_as(fqdn, args, None)
    }

    fn fire_as(&self, fqdn: &str, args: &str, tenant: Option<&str>) -> Result<(u64, bool), String> {
        match self.0.invoke_tenant(fqdn, args, tenant) {
            Ok(r) => Ok((r.exec_ms, r.cold)),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// [`InvokerTarget`] adapter for the OpenWhisk baseline model.
pub struct OpenWhiskTarget(pub std::sync::Arc<OpenWhiskModel>);

impl InvokerTarget for OpenWhiskTarget {
    fn fire(&self, fqdn: &str, _args: &str) -> Result<(u64, bool), String> {
        let r = self.0.invoke(fqdn);
        if r.dropped {
            Err("dropped".into())
        } else {
            Ok((r.exec_ms, r.cold))
        }
    }
}
