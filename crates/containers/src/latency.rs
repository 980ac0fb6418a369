//! Container runtime latency models.
//!
//! §3.4 reports launch costs of the runtimes the original system evaluated:
//! "the crun library which is written in C takes about 150 ms to launch a
//! container, whereas containerd (written in Go) needs 300 ms, and Docker
//! needs 400 ms", plus RPC overhead for out-of-process services. The models
//! here sample from a right-skewed (log-normal) distribution around those
//! means — container launch latencies are famously long-tailed.

use rand::Rng;

/// Which container runtime a latency model emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeKind {
    /// Default backend; OCI, out-of-process RPC API.
    Containerd,
    /// Feature-rich, highest launch latency.
    Docker,
    /// Minimal C runtime, lowest launch latency.
    Crun,
}

impl RuntimeKind {
    pub fn name(&self) -> &'static str {
        match self {
            RuntimeKind::Containerd => "containerd",
            RuntimeKind::Docker => "docker",
            RuntimeKind::Crun => "crun",
        }
    }
}

/// One sampled set of per-operation latencies, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct LatencySample {
    pub create_ms: u64,
    pub destroy_ms: u64,
    /// Per-call RPC overhead for out-of-process runtimes.
    pub rpc_ms: u64,
}

/// Log-normal latency model for a container runtime.
#[derive(Debug, Clone)]
pub struct RuntimeLatencyModel {
    kind: RuntimeKind,
    create_median_ms: f64,
    /// Log-space sigma: dispersion of launch times.
    sigma: f64,
    destroy_median_ms: f64,
    rpc_median_ms: f64,
}

impl RuntimeLatencyModel {
    pub fn new(kind: RuntimeKind) -> Self {
        // Medians per §3.4; destroy and RPC costs are smaller, from the
        // component breakdown in Table 1.
        let (create, destroy, rpc) = match kind {
            RuntimeKind::Containerd => (300.0, 40.0, 2.0),
            RuntimeKind::Docker => (400.0, 60.0, 4.0),
            RuntimeKind::Crun => (150.0, 20.0, 0.0),
        };
        Self {
            kind,
            create_median_ms: create,
            sigma: 0.25,
            destroy_median_ms: destroy,
            rpc_median_ms: rpc,
        }
    }

    /// Scale every latency by `f` — used to shrink experiments in time
    /// without changing relative costs.
    pub fn scaled(mut self, f: f64) -> Self {
        assert!(f >= 0.0);
        self.create_median_ms *= f;
        self.destroy_median_ms *= f;
        self.rpc_median_ms *= f;
        self
    }

    pub fn kind(&self) -> RuntimeKind {
        self.kind
    }

    /// Draw a log-normal sample with the given median (log-space mean
    /// `ln(median)`) using the Box-Muller transform.
    fn lognormal(&self, rng: &mut impl Rng, median: f64) -> f64 {
        if median <= 0.0 {
            return 0.0;
        }
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (median.ln() + self.sigma * z).exp()
    }

    /// Sample the latencies of one container lifecycle.
    pub fn sample(&self, rng: &mut impl Rng) -> LatencySample {
        LatencySample {
            create_ms: self.lognormal(rng, self.create_median_ms).round() as u64,
            destroy_ms: self.lognormal(rng, self.destroy_median_ms).round() as u64,
            rpc_ms: self.lognormal(rng, self.rpc_median_ms).round() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ordering_matches_paper() {
        // crun < containerd < docker on median launch cost.
        let crun = RuntimeLatencyModel::new(RuntimeKind::Crun);
        let ctrd = RuntimeLatencyModel::new(RuntimeKind::Containerd);
        let dock = RuntimeLatencyModel::new(RuntimeKind::Docker);
        assert!(crun.create_median_ms < ctrd.create_median_ms);
        assert!(ctrd.create_median_ms < dock.create_median_ms);
    }

    #[test]
    fn samples_center_on_median() {
        let m = RuntimeLatencyModel::new(RuntimeKind::Containerd);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 4000;
        let mut creates: Vec<f64> = (0..n)
            .map(|_| m.sample(&mut rng).create_ms as f64)
            .collect();
        creates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = creates[n / 2];
        assert!(
            (median - 300.0).abs() < 30.0,
            "median {median} far from 300"
        );
        // Right skew: mean above median.
        let mean = creates.iter().sum::<f64>() / n as f64;
        assert!(mean > median * 0.99);
    }

    #[test]
    fn scaled_shrinks_everything() {
        let m = RuntimeLatencyModel::new(RuntimeKind::Docker).scaled(0.01);
        let mut rng = StdRng::seed_from_u64(7);
        let s = m.sample(&mut rng);
        assert!(s.create_ms < 50, "scaled create {} too large", s.create_ms);
    }

    #[test]
    fn zero_median_stays_zero() {
        let m = RuntimeLatencyModel::new(RuntimeKind::Crun); // rpc median 0
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..32 {
            assert_eq!(m.sample(&mut rng).rpc_ms, 0);
        }
    }

    #[test]
    fn samples_are_nonnegative_and_finite() {
        let m = RuntimeLatencyModel::new(RuntimeKind::Docker);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let s = m.sample(&mut rng);
            assert!(s.create_ms < 10_000, "implausible tail {}", s.create_ms);
        }
    }
}
