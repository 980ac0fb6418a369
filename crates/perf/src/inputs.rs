//! Seeded inputs: which function each invocation calls (Zipf), its
//! arguments and tenant, and the open-loop schedule (Poisson due times).
//! Everything here is a pure function of `--seed`; the program under test
//! only ever sees the generated values. The generator is the harness's own
//! SplitMix64 so a change to the vendored `rand` cannot move the inputs.

/// Functions registered in every workload: `fn-0` … `fn-7`.
pub const FUNCTIONS: usize = 8;
/// Every invocation carries exactly this many bytes of JSON arguments.
pub const ARGS_BYTES: usize = 64;
/// Distinct invocations generated per run; closed loops cycle through them.
pub const ITEMS: usize = 4096;

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

pub fn fqdn(func: usize) -> String {
    format!("fn-{func}")
}

/// The body `SimBackend` returns for `fn-<func>`: the function is
/// registered with a modelled warm time of `func` ms, which `time_scale =
/// 0.01` rounds to 0 ms charged — so execution costs nothing, yet the body
/// still says which function ran.
pub fn expected_body(func: usize) -> String {
    format!("{{\"sim\":true,\"modelled_ms\":{func},\"charged_ms\":0}}")
}

/// One generated invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    pub func: usize,
    pub fqdn: String,
    pub args: String,
    pub tenant: Option<&'static str>,
    /// The `POST /invoke` body, encoded once here so the load generator
    /// does no JSON work per request.
    pub http_body: Vec<u8>,
}

/// Draw a function index from Zipf(1.0) over [`FUNCTIONS`] ranks.
fn zipf(rng: &mut SplitMix64) -> usize {
    let total: f64 = (1..=FUNCTIONS).map(|r| 1.0 / r as f64).sum();
    let mut pick = rng.next_f64() * total;
    for r in 0..FUNCTIONS {
        let w = 1.0 / (r + 1) as f64;
        if pick < w {
            return r;
        }
        pick -= w;
    }
    FUNCTIONS - 1
}

fn args_of(n: u64) -> String {
    const HEAD: &str = "{\"seq\":";
    const MID: &str = ",\"pad\":\"";
    const TAIL: &str = "\"}";
    let pad = ARGS_BYTES - HEAD.len() - 10 - MID.len() - TAIL.len();
    format!(
        "{HEAD}{:010}{MID}{}{TAIL}",
        n % 10_000_000_000,
        "x".repeat(pad)
    )
}

/// [`ITEMS`] invocations drawn from `seed`. With `tenants`, each is
/// labelled `gold` or `bronze` with equal probability.
pub fn items(seed: u64, tenants: bool) -> Vec<Item> {
    let mut rng = SplitMix64::new(seed ^ 0x1735_11D5);
    (0..ITEMS)
        .map(|_| {
            let func = zipf(&mut rng);
            let args = args_of(rng.next_u64());
            let coin = rng.next_u64() & 1 == 0;
            let tenant = tenants.then_some(if coin { "gold" } else { "bronze" });
            let fqdn = fqdn(func);
            let http_body = format!(
                "{{\"fqdn\":\"{fqdn}\",\"args\":\"{}\"}}",
                args.replace('"', "\\\"")
            )
            .into_bytes();
            Item {
                func,
                fqdn,
                args,
                tenant,
                http_body,
            }
        })
        .collect()
}

/// Poisson arrivals at `rate_per_s` over `secs`: ascending due times in ns
/// from the phase start.
pub fn poisson_due_ns(seed: u64, rate_per_s: f64, secs: f64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x5C4E_D01E);
    let horizon = secs * 1e9;
    let mut t = 0.0f64;
    let mut due = Vec::with_capacity((rate_per_s * secs * 1.1) as usize + 16);
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate_per_s * 1e9;
        if t >= horizon {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = items(7, true);
        let b = items(7, true);
        assert_eq!(a, b, "items must be a pure function of the seed");
        assert_eq!(
            poisson_due_ns(7, 3000.0, 2.0),
            poisson_due_ns(7, 3000.0, 2.0)
        );
        let c = items(8, true);
        assert_ne!(
            a.iter().map(|i| i.func).collect::<Vec<_>>(),
            c.iter().map(|i| i.func).collect::<Vec<_>>(),
            "Zipf draws must differ across seeds"
        );
        assert_ne!(
            poisson_due_ns(7, 3000.0, 2.0),
            poisson_due_ns(8, 3000.0, 2.0)
        );
    }

    #[test]
    fn args_are_exactly_64_bytes_of_json() {
        for item in items(1, false).iter().take(64) {
            assert_eq!(item.args.len(), ARGS_BYTES, "{}", item.args);
            assert!(item.args.starts_with("{\"seq\":") && item.args.ends_with("\"}"));
            assert!(item.tenant.is_none());
            // The body must decode to exactly the invocation it stands for.
            #[derive(serde::Deserialize)]
            struct InvokeBody {
                fqdn: String,
                args: String,
            }
            let body: InvokeBody = serde_json::from_slice(&item.http_body).unwrap();
            assert_eq!(
                (body.fqdn, body.args),
                (item.fqdn.clone(), item.args.clone())
            );
        }
    }

    #[test]
    fn zipf_prefers_low_ranks_and_tenants_split_evenly() {
        let all = items(42, true);
        let mut counts = [0usize; FUNCTIONS];
        for i in &all {
            counts[i.func] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[3] && counts[3] > counts[7]);
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        let gold = all.iter().filter(|i| i.tenant == Some("gold")).count();
        assert!(
            (ITEMS * 45 / 100..ITEMS * 55 / 100).contains(&gold),
            "{gold}"
        );
    }

    #[test]
    fn poisson_schedule_is_ascending_at_the_requested_rate() {
        let due = poisson_due_ns(3, 1000.0, 4.0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 4_000_000_000);
        assert!((3600..4400).contains(&due.len()), "{}", due.len());
    }
}
