//! FunctionBench application models (Table 3) and real in-process bodies.
//!
//! The OpenWhisk evaluation runs seven FunctionBench applications whose
//! memory, end-to-end run time, and initialization time the paper tabulates.
//! [`FbApp::spec`] carries those numbers for the simulated backends;
//! [`FbApp::behavior`] provides genuine (small) computations for the
//! in-process backend so control-plane latency experiments exercise real
//! work.

use iluvatar_containers::agent::FunctionBehavior;
use iluvatar_containers::{FunctionSpec, ResourceLimits};

/// The Table 3 applications plus PyAES (Figure 1's workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FbApp {
    /// SqueezeNet CNN inference (TensorFlow).
    MlInference,
    /// mp4 → grayscale avi (cv2).
    VideoEncoding,
    /// `numpy.linalg.solve` on a random 20×20 matrix.
    MatrixMultiply,
    /// 1000 × 128k-block dd read/write.
    DiskBench,
    /// Chameleon HTML generation.
    WebServing,
    /// Trigonometric loop over the math library.
    FloatingPoint,
    /// PIL transforms (Table 3's "Image Manip").
    ImageManip,
    /// AES encrypt/decrypt loop — the Figure 1 overhead workload.
    PyAes,
}

impl FbApp {
    pub fn all() -> [FbApp; 8] {
        [
            FbApp::MlInference,
            FbApp::VideoEncoding,
            FbApp::MatrixMultiply,
            FbApp::DiskBench,
            FbApp::WebServing,
            FbApp::FloatingPoint,
            FbApp::ImageManip,
            FbApp::PyAes,
        ]
    }

    pub fn name(&self) -> &'static str {
        match self {
            FbApp::MlInference => "ml-inference",
            FbApp::VideoEncoding => "video-encoding",
            FbApp::MatrixMultiply => "matrix-multiply",
            FbApp::DiskBench => "disk-bench",
            FbApp::WebServing => "web-serving",
            FbApp::FloatingPoint => "floating-point",
            FbApp::ImageManip => "image-manip",
            FbApp::PyAes => "pyaes",
        }
    }

    /// (memory MB, total run ms, init ms) — Table 3. Run time *includes*
    /// initialization ("the floating point function has a very high
    /// initialization overhead — 1.7 of the total 2 seconds").
    pub fn table3(&self) -> (u64, u64, u64) {
        match self {
            FbApp::MlInference => (512, 6_500, 4_500),
            FbApp::VideoEncoding => (500, 56_000, 3_000),
            FbApp::MatrixMultiply => (256, 2_500, 2_200),
            FbApp::DiskBench => (256, 2_200, 1_800),
            FbApp::ImageManip => (300, 9_000, 6_000),
            FbApp::WebServing => (64, 2_400, 2_000),
            FbApp::FloatingPoint => (128, 2_000, 1_700),
            // Not in Table 3: a small sub-100ms function.
            FbApp::PyAes => (128, 60, 40),
        }
    }

    /// The modelled [`FunctionSpec`]: warm time = run − init.
    pub fn spec(&self) -> FunctionSpec {
        let (mem, run, init) = self.table3();
        FunctionSpec::new(self.name(), "1")
            .with_image(format!("functionbench/{}:1", self.name()))
            .with_limits(ResourceLimits {
                cpus: 1.0,
                memory_mb: mem,
            })
            .with_timing(run - init, init)
    }

    /// A genuine small computation standing in for the Python body, for the
    /// in-process backend. Durations are NOT meant to match Table 3 (that's
    /// the simulated backends' job); these exercise real CPU work on the
    /// real hot path.
    pub fn behavior(&self) -> FunctionBehavior {
        match self {
            FbApp::MatrixMultiply => FunctionBehavior::from_body(|_| {
                // 20×20 matmul, like the numpy workload.
                const N: usize = 20;
                let mut a = [[0.0f64; N]; N];
                let mut b = [[0.0f64; N]; N];
                for i in 0..N {
                    for j in 0..N {
                        a[i][j] = ((i * 31 + j * 17) % 97) as f64;
                        b[i][j] = ((i * 13 + j * 7) % 89) as f64;
                    }
                }
                let mut c = [[0.0f64; N]; N];
                for i in 0..N {
                    for k in 0..N {
                        let aik = a[i][k];
                        for j in 0..N {
                            c[i][j] += aik * b[k][j];
                        }
                    }
                }
                format!("{{\"trace\":{}}}", c[0][0] + c[N - 1][N - 1])
            }),
            FbApp::FloatingPoint => FunctionBehavior::from_body(|_| {
                let mut acc = 0.0f64;
                for i in 1..20_000u64 {
                    let x = i as f64;
                    acc += (x.sin() * x.cos()).atan() / x.sqrt();
                }
                format!("{{\"acc\":{acc}}}")
            }),
            FbApp::WebServing => FunctionBehavior::from_body(|args| {
                let mut page = String::with_capacity(4096);
                page.push_str("<html><body><ul>");
                for i in 0..100 {
                    page.push_str(&format!("<li>item {i}</li>"));
                }
                page.push_str("</ul></body></html>");
                format!("{{\"bytes\":{},\"args\":{}}}", page.len(), args.len())
            }),
            FbApp::PyAes => FunctionBehavior::from_body(|args| {
                // A toy block cipher round loop, standing in for pyaes.
                let mut state = [0u8; 16];
                for (i, b) in args.bytes().enumerate().take(16) {
                    state[i] = b;
                }
                for round in 0u8..64 {
                    for b in state.iter_mut() {
                        *b = b.rotate_left(3) ^ round.wrapping_mul(31);
                    }
                    state.rotate_left(1);
                }
                format!(
                    "{{\"ct\":{}}}",
                    state.iter().map(|&b| b as u64).sum::<u64>()
                )
            }),
            // The heavyweight apps use a deterministic CPU spin scaled down:
            // real work, bounded duration.
            _ => FunctionBehavior::from_body(|_| {
                let mut h = 0x9E3779B97F4A7C15u64;
                for i in 0..200_000u64 {
                    h = (h ^ i).wrapping_mul(0xBF58476D1CE4E5B9);
                    h ^= h >> 31;
                }
                format!("{{\"h\":{h}}}")
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper() {
        assert_eq!(FbApp::MlInference.table3(), (512, 6_500, 4_500));
        assert_eq!(FbApp::VideoEncoding.table3(), (500, 56_000, 3_000));
        assert_eq!(FbApp::WebServing.table3(), (64, 2_400, 2_000));
        assert_eq!(FbApp::FloatingPoint.table3(), (128, 2_000, 1_700));
    }

    #[test]
    fn spec_timing_decomposes_run_time() {
        let s = FbApp::FloatingPoint.spec();
        assert_eq!(s.warm_exec_ms, 300, "warm = run - init");
        assert_eq!(s.init_ms, 1700);
        assert_eq!(s.cold_exec_ms(), 2000, "cold = full Table 3 run time");
        assert_eq!(s.limits.memory_mb, 128);
    }

    #[test]
    fn behaviors_run_and_return_json() {
        for app in FbApp::all() {
            let b = app.behavior();
            let out = (b.body)("{\"x\":1}");
            assert!(out.starts_with('{'), "{}: {out}", app.name());
        }
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<_> = FbApp::all().iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }
}
