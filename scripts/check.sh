#!/usr/bin/env bash
# One-shot gate: build, test, lint. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo fmt ==="
cargo fmt --check

echo "=== cargo build (release) ==="
cargo build --workspace --release

echo "=== cargo test ==="
cargo test --workspace -q

echo "=== cargo clippy ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== duplication guard (one session harness, one FNV-1a) ==="
# The scaffolding lives in exactly one place: scenarios under src/session/
# behind the single `session` binary, and the FNV offset basis spelled out
# only by iluvatar_sync::hash (crates/perf is the benchmark's own island).
if compgen -G 'src/bin/*_session.rs' >/dev/null; then
    echo "per-scenario session bins are back: add a scenario to src/session/ instead" >&2
    exit 1
fi
fnv_files=$(grep -rl 'cbf2_9ce4_8422_2325' src/ crates/ | grep -v '^crates/perf/' || true)
if [[ $(wc -l <<<"$fnv_files") -gt 1 ]]; then
    echo "FNV-1a is spelled out in more than one file; use iluvatar_sync::fnv1a64:" >&2
    echo "$fnv_files" >&2
    exit 1
fi

echo "=== duplication guard (one invocation pipeline, one wire contract) ==="
# Each pipeline stage and the invoke wire contract have one home (DESIGN.md
# "Invocation pipeline"); these are the copies that used to exist.
worker_src=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/worker.rs)
if [[ $(grep -c 'QueuedInvocation {' <<<"$worker_src") -gt 1 ]]; then
    echo "worker.rs builds QueuedInvocation in more than one place; go through Shared::accept" >&2
    exit 1
fi
# The run stage is the executor pool: no thread per invocation, no
# dispatcher thread in front of it, and worker.rs spawns threads in three
# places only (DESIGN.md "Execution model").
if grep -rn -e 'iluvatar-bypass' -e 'iluvatar-invoke' -e 'fn monitor_loop' src/ crates/ |
    grep -v '^crates/perf/'; then
    echo "a per-invocation thread or the queue monitor is back; work reaches an executor through InvocationQueue::{push, hand_off}, or runs on its synchronous caller's own thread (Accepted::CallerRuns)" >&2
    exit 1
fi
spawned=$(grep -A1 'thread::Builder::new()' <<<"$worker_src" | grep -oE '"iluvatar-[a-z-]+' | sort | tr '\n' ' ')
if [[ "$spawned" != '"iluvatar-agent-call "iluvatar-destroyer "iluvatar-exec- ' ||
    $(grep -c 'thread::Builder' <<<"$worker_src") -ne 3 ]]; then
    echo "worker.rs spawns threads outside the constructor (destroyer), executor growth and the agent-call companion: $spawned" >&2
    exit 1
fi
bodies=$(grep -rl 'struct InvokeBody' crates/ | grep -v '^crates/perf/' || true)
if [[ $(wc -l <<<"$bodies") -gt 1 ]]; then
    echo "InvokeBody is defined more than once; use iluvatar_core::api::InvokeBody:" >&2
    echo "$bodies" >&2
    exit 1
fi
# An `InvokeError::X => Status::Y` arm (`-z`: the status may sit on the next
# line) outside the one table in core/src/api.rs.
tables=$(grep -rlzP 'InvokeError::\w+(\([^)]*\))?\s*=>\s*Status::' \
    --include='*.rs' src/ crates/ | tr '\0' '\n' |
    grep -v -e '^crates/perf/' -e '^crates/core/src/api.rs$' || true)
if [[ -n "$tables" ]]; then
    echo "InvokeError -> Status is mapped outside crates/core/src/api.rs; use InvokeError::http_status:" >&2
    echo "$tables" >&2
    exit 1
fi

echo "=== one invoke entry per tier (the cache consult lives inside it) ==="
# The worker's entries are `invoke_tenant` and `async_invoke_tenant`, one
# line each over the private `Worker::submit`; the balancer's is
# `Cluster::invoke_tenant`, the client's the `*_tenant` pair. The result
# cache is consulted inside `submit` and `Cluster::invoke_tenant`, so no
# caller can pick an uncached door (DESIGN.md "Invocation pipeline"). Test
# code is exempt; the `WorkerHandle` trait's `fn invoke` is not a `pub fn`.
for f in crates/core/src/worker.rs crates/core/src/api.rs crates/loadbalancer/src/cluster.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" |
        grep -nE '^\s*pub fn (invoke|async_invoke|invoke_tenant_cached|invoke_cached|recover_full)\b'; then
        echo "$f: a second invoke (or recover) entry is back; callers pass a None tenant to the *_tenant entry" >&2
        exit 1
    fi
done
# Which non-test functions of a tier's sources call `$1`.
callers_of() {
    local call=$1
    shift
    for f in "$@"; do
        sed '/^#\[cfg(test)\]/,$d' "$f" | awk -v f="$f" -v call=".$call(" '
            match($0, /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/) { fn = substr($0, RSTART, RLENGTH); sub(/.* /, "", fn) }
            /^ *\/\// { next }
            index($0, call) { print f ": " fn }'
    done | sort -u
}
consults=$(callers_of lookup crates/core/src/*.rs)
if [[ "$consults" != 'crates/core/src/worker.rs: submit' ]]; then
    echo "the worker's ResultCache::lookup is called from ${consults:-nowhere}; it belongs to Worker::submit alone" >&2
    exit 1
fi
consults=$(callers_of lookup_single_flight crates/loadbalancer/src/*.rs)
if [[ "$consults" != 'crates/loadbalancer/src/cluster.rs: invoke_tenant' ]]; then
    echo "the balancer's lookup_single_flight is called from ${consults:-nowhere}; it belongs to Cluster::invoke_tenant alone" >&2
    exit 1
fi

echo "=== duplication guard (one cluster, one fleet) ==="
# Routing and fleet sizing have one implementation each: `Cluster` builds
# the only CH-BL ring and `Fleet` drives the only `ScalingPolicy` (DESIGN.md
# "Elastic fleet & autoscaling", Evaluation); a simulation puts a
# `WorkerHandle` under them instead of re-deriving them. A trait method
# needs the trait in scope, so naming `ScalingPolicy` is the call-site test
# for `evaluate`. Test code (`tests/` directories, `#[cfg(test)]` to the
# end of a file) and comments are exempt; the allow-list names the one
# exception with its reason.
LB_TIER_ALLOW="
crates/bench/src/figures/abl_dispatch.rs  the push arm routes on a 250 ms-stale load vector with a private simulated pull plane beside it; moving both onto the real Cluster (probe rounds at the scrape period) and PullPlane is ROADMAP's abl_dispatch item
"
lb_tier_fail=0
while read -r f; do
    grep -q "^$f  " <<<"$LB_TIER_ALLOW" && continue
    hits=$(sed '/^#\[cfg(test)\]/,$d' "$f" |
        grep -nP 'ChBl::new|\.build_policy\(\)|\bScalingPolicy\b' | grep -vP '^\d+:\s*//' || true)
    if [[ -n "$hits" ]]; then
        sed "s|^|$f:|" <<<"$hits" >&2
        lb_tier_fail=1
    fi
done < <(find src crates -name '*.rs' -not -path '*/tests/*' -not -path 'crates/perf/*' \
    -not -path 'crates/loadbalancer/*' -not -path 'crates/autoscale/*' | sort)
if [[ $lb_tier_fail -ne 0 ]]; then
    echo "a CH-BL ring or a ScalingPolicy is driven outside crates/loadbalancer and crates/autoscale; build a Cluster / Fleet over WorkerHandles (iluvatar_sim::SimWorker in virtual time)" >&2
    exit 1
fi

echo "=== routing never probes (the probe round is the only prober) ==="
# `Cluster::pick`, `invoke_tenant` and `reroute` read per-slot estimates (last
# probe + the balancer's own hops in flight); a worker is asked for its load
# only by `probe_round`, which runs at construction, on the scrape tick and
# after a fleet scale-up (DESIGN.md "Dispatch modes"). Probing on every pick
# cost two GET /status per push invocation. Test code is exempt.
probe_sites=$(for f in crates/loadbalancer/src/*.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | awk -v f="$f" '
        match($0, /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/) { fn = substr($0, RSTART, RLENGTH); sub(/.* /, "", fn) }
        /^ *\/\// { next }
        /\.probe\(\)/ { print f ": " fn " calls .probe()" }
        /probe_round\(/ && !/fn probe_round\(/ { print f ": " fn " calls probe_round()" }'
done)
bad_probes=$(grep -v -e ': probe_round calls \.probe()$' \
    -e ': \(with_capacity\|scrape\|scale_up\) calls probe_round()$' <<<"$probe_sites" || true)
if [[ -n "$bad_probes" ]]; then
    echo "$bad_probes" >&2
    echo "a worker is probed outside Cluster::probe_round, or a round runs outside construction, scrape and Fleet::scale_up; pick / invoke_tenant / reroute route on the estimates" >&2
    exit 1
fi

echo "=== duplication guard (one bench harness, one micro-measurer, no env knobs) ==="
# Figures are entries of crates/bench/src/figures/FIGURES behind the single
# `bench` binary; `perf --trace 1` and `bench --figure micro` are the only
# micro-measurers; figure parameters are named constants, not ILU_* env vars.
extra_bins=$(find crates/bench/src/bin -name '*.rs' ! -name bench.rs)
if [[ -n "$extra_bins" ]]; then
    echo "per-figure bench bins are back: add an entry to crates/bench/src/figures/ instead:" >&2
    echo "$extra_bins" >&2
    exit 1
fi
if grep -n -e '^\[\[bench\]\]' -e criterion Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; then
    echo "a criterion bench is back; measure with perf --trace 1 or bench --figure micro" >&2
    exit 1
fi
if grep -rn '"ILU_' crates/bench; then
    echo "an ILU_* env knob is back under crates/bench; use a named constant next to its use" >&2
    exit 1
fi

echo "=== reachability guard (no unreachable module, no never-set knob) ==="
# What nothing can turn on is deleted, not parked (DESIGN.md "Keep-or-kill
# audit"). Two greps keep that honest; modules get no exception, and the
# allow-list below names every knob exception with its reason. crates/perf
# is the benchmark's own island.
REACH_ALLOW="
WorkerConfig.eviction_period_ms  set by for_testing (20 ms) against the 500 ms default: two values in use
WorkerConfig.netns_pool  read by src/bin/iluvatar-worker.rs for --backend inprocess; for_testing shrinks it
"
allowed() { grep -q "^$1  " <<<"$REACH_ALLOW"; }
reach_fail=0
# Rule 1: every `pub mod x;` exports a type (failing that, a function or
# constant) that some other file names. `pub use` re-exports do not count:
# they are how an unused module looks used.
reach_tmp=$(mktemp -d)
trap 'rm -rf "$reach_tmp"' EXIT
while read -r f; do
    mkdir -p "$reach_tmp/$(dirname "$f")"
    perl -0pe 's/^\s*pub use [^;]*;//mg' "$f" >"$reach_tmp/$f"
done < <(find crates src tests examples -name '*.rs' -not -path 'crates/perf/*')
while IFS=: read -r decl _ line; do
    mod=$(sed -E 's/^\s*pub mod (\w+);.*/\1/' <<<"$line")
    dir=$(dirname "$decl")
    base=$(basename "$decl" .rs)
    case "$base" in lib | mod | main) sub="$dir" ;; *) sub="$dir/$base" ;; esac
    file="$sub/$mod.rs"
    [[ -f "$file" ]] || file="$sub/$mod/mod.rs"
    names=$(grep -ohP '^pub (struct|enum|trait|type) \K\w+' "$file" || true)
    [[ -n "$names" ]] || names=$(grep -ohP '^pub (fn|const|static) \K\w+' "$file" || true)
    # shellcheck disable=SC2086  # one -e per exported name
    if ! grep -rlw $(printf -- '-e %s ' $names) "$reach_tmp" | grep -qvxF "$reach_tmp/$file"; then
        echo "unreachable module: nothing $file exports is named outside it" >&2
        reach_fail=1
    fi
done < <(grep -rn -E '^\s*pub mod \w+;' crates/*/src --include='*.rs' | grep -v '^crates/perf/')
# Rule 2: every field of the worker, dispatch and autoscale configs is
# assigned (`field: value` in a literal, or `.field = value`) in some file
# other than the one defining it — among the files that name a config of
# its family, so an unrelated struct's same-named field does not count.
worker_family='WorkerConfig|QueueConfig|ConcurrencyConfig|ResilienceConfig|LifecycleConfig|WalConfig|AdmissionConfig|CacheConfig'
while read -r family st file; do
    users=$(grep -rlE --include='*.rs' "\b($family)\b" crates src tests examples | grep -vxF "$file")
    fields=$(awk -v s="pub struct $st {" '$0==s{on=1;next} on&&/^}/{exit} on&&/^    pub [a-z_0-9]+:/{sub(/:.*/,"",$2);print $2}' "$file")
    [[ -n "$fields" ]] || { echo "reachability guard: no fields parsed for $st in $file" >&2; exit 1; }
    for f in $fields; do
        allowed "$st.$f" && continue
        # shellcheck disable=SC2086  # $users is a file list
        if ! grep -qP "(?<!pub )\b$f:\s|\.$f\s*[-+*]?=[^=]" $users; then
            echo "never-set knob: $st.$f is assigned in no file but $file; make it a constant next to its use" >&2
            reach_fail=1
        fi
    done
done <<EOF
$worker_family WorkerConfig crates/core/src/config.rs
$worker_family QueueConfig crates/core/src/config.rs
$worker_family ConcurrencyConfig crates/core/src/config.rs
$worker_family ResilienceConfig crates/core/src/config.rs
$worker_family LifecycleConfig crates/core/src/config.rs
$worker_family WalConfig crates/core/src/config.rs
$worker_family AdmissionConfig crates/admission/src/lib.rs
$worker_family CacheConfig crates/cache/src/lib.rs
DispatchConfig DispatchConfig crates/dispatch/src/lib.rs
AutoscaleConfig AutoscaleConfig crates/autoscale/src/lib.rs
EOF
[[ $reach_fail -eq 0 ]] || exit 1

echo "=== commit on demand (a durable accept waits for an fsync, never for a tick) ==="
# In group mode one routine decides who fsyncs (`Inner::commit`: lead, or
# follow the leader in flight), and the only clock on the must-wait path is
# the caller's own append deadline. The group interval belongs to the
# sweeper, which is just another caller of `commit` (DESIGN.md "Group
# commit"). A fixed-interval flusher cost 35x capacity for six PRs.
wal_src=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/wal.rs)
wal_fn() { awk -v f="    fn $1(" 'index($0, f) == 1 { on = 1 } on { print } on && /^    }$/ { exit }' <<<"$wal_src"; }
if [[ $(grep -c 'wait_for(' <<<"$wal_src") -ne 2 ||
    $(wal_fn commit | grep -c 'wait_for(') -ne 1 ||
    $(wal_fn sweep | grep -c 'wait_for(') -ne 1 ]]; then
    echo "wal.rs waits on a timer outside commit()'s deadline wait and the sweeper" >&2
    exit 1
fi
if wal_fn commit | grep -nE 'interval|sleep\('; then
    echo "commit() consults the group interval or sleeps: a waiter's fsync must not wait for a tick" >&2
    exit 1
fi
if [[ $(grep -c 'leading = true' <<<"$wal_src") -ne 1 || $(grep -c 'self\.sync_pass(' <<<"$wal_src") -ne 1 ]]; then
    echo "a group-commit leader is elected, or the group fsync run, outside commit()" >&2
    exit 1
fi

echo "=== an idle control plane sleeps (no sleep-polling in the control plane) ==="
# Periodic work is a task on its component's one TaskPool timer thread, and a
# waiter blocks on the thing it waits for: a condvar that the other side
# notifies, a channel `recv`, a deadline wait. A `sleep` in a loop wakes a
# thread for nothing: before the timer, an idle default worker woke 60 times
# a second (DESIGN.md "Execution model"). Test code is exempt; the allow-list
# names each remaining sleep, by file and function, with its reason.
SLEEP_ALLOW="
crates/sync/src/clock.rs: sleep_ms  SystemClock's wall-clock sleep: a caller that asks the clock to sleep gets one
crates/core/src/wal.rs: ladder_locked  the WAL retry backoff under the writer lock; ROADMAP's lock-shim item owns it
crates/core/src/worker.rs: execute  the invocation retry backoff before a fresh container is tried
crates/dispatch/src/lib.rs: spawn  the pull loop's back-off after an empty pull, on cluster_pull's measured path
"
sleeps=$(find crates/{core,loadbalancer,dispatch,cache,sync}/src -name '*.rs' | sort | while read -r f; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | awk -v f="$f" '
        match($0, /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/) { fn = substr($0, RSTART, RLENGTH); sub(/.* /, "", fn) }
        /^ *\/\// { next }
        /(^|[^A-Za-z0-9_])sleep\(/ && !/fn sleep\(/ { print f ": " fn }'
done)
bad_sleeps=$(while read -r site; do
    [[ -z $site ]] || grep -qF "$site  " <<<"$SLEEP_ALLOW" || echo "$site"
done <<<"$sleeps")
if [[ -n "$bad_sleeps" ]]; then
    echo "$bad_sleeps" >&2
    echo "a thread sleeps in control-plane code: schedule periodic work on the component's TaskPool, and wait on the condvar or channel the waker signals" >&2
    exit 1
fi

echo "=== session determinism (fixed seed, two fresh processes per scenario) ==="
# Every seeded scenario must replay bit-identically: same seed, same
# digest. --verify-determinism runs the scenario twice as fresh processes
# and fails on a mismatch, which means thread timing, crash timing or a
# wall clock leaked into digested state — the root cause of flaky tests.
# Each scenario also asserts its own contract (zero lost invocations, zero
# conformance violations, ...) and exits non-zero when it breaks.
for s in $(./target/release/session --list); do
    # Kill the worker at the same submission in both runs: the digest must
    # not depend on which moment each in-flight invocation died at.
    extra=""
    [[ "$s" == lifecycle ]] && extra="--kill-at 12"
    # shellcheck disable=SC2086  # $extra is zero or two words on purpose
    digest=$(./target/release/session --scenario "$s" --seed 42 $extra --verify-determinism)
    echo "$s digest stable: $digest"
done

echo "=== conformance mutation smoke (checker must catch seeded corruption) ==="
# Flips one event in known-good streams (duplicate completion, dropped
# append, reordered result, flipped ok-bit, illegal breaker edge, kill of
# a draining worker, double-attach, stale cache hit, double-lease,
# dropped requeue) plus two on-disk corruptions (bit-flipped WAL record,
# truncated segment) and requires the checker — or the frame scanner — to
# flag each with the expected rule. A silent pass here means the checker
# has gone blind and the replay gate above is vacuous.
./target/release/session --scenario conformance --mutate

echo "=== dispatch ablation (pull/hybrid p99 <= push p99) ==="
# One seeded heavy-tailed workload through push (CH-BL with a stale load
# signal), pull (the real PullPlane), and hybrid planes. The figure
# gates the tail-latency claim the pull plane exists for.
./target/release/bench --figure abl_dispatch

echo "=== overhead budget (p50/p99 per Table-1 group) ==="
# Replays a fixed warm trace over the real HTTP hot path and checks each
# Table-1 group's p50/p99 dispatch overhead (from GET /breakdown) against
# a fixed multiple of the value EXPERIMENTS.md records. Exits non-zero on
# any breach.
./target/release/bench --figure abl_overhead_budget

echo "=== cache ablation (hit p50 < dispatch p50, >=80% repeat hits) ==="
# Measures the real hot path with the result cache on: a hit must beat a
# warm dispatch at p50, the repeated phase must serve >=80% from cache,
# and interleaved tenants on identical fqdn+args must never cross.
./target/release/bench --figure abl_cache

echo "=== benchmark self-check (every reply decodes to the invocation sent) ==="
# The benchmark checks each invocation's reply field by field: JSON over two
# HTTP hops on cluster_push, JSON WAL frames on worker_durable. A codec or
# wire change that corrupts, drops or fails a call shows up here as a
# failed self-check, not as a fast number.
for w in cluster_push worker_durable; do
    out=$(cargo run --release --offline -p iluvatar-perf --bin perf -- --quick --workload "$w" 2>&1)
    if ! grep -Eq "^$w: attempted [0-9]+ failed 0 — self-check passed$" <<<"$out"; then
        grep -E "^$w:" <<<"$out" >&2 || true
        echo "perf $w: self-check did not pass with 0 failed" >&2
        exit 1
    fi
    grep -E "^$w:" <<<"$out"
done
# The durable record budget: a durable invocation writes `Enqueued` and
# `Completed`, one fsync each (DESIGN.md "Crash safety"). A third record on
# the hot path, as the worker's `Dequeued` was (3.07 appends and 2.07 fsyncs
# per invocation), reads over 2.2 here. A missing metric fails too.
result=$(cargo run --release --offline -p iluvatar-perf --bin perf -- --quick --trace 1 \
    --workload worker_durable 2>"$reach_tmp/durable.err" | tail -n 1)
records='.metrics | {appends: ."core.wal_appends_per_inv".value, fsyncs: ."core.wal_fsyncs_per_inv".value}'
if ! grep -Eq '^worker_durable: attempted [0-9]+ failed 0 — self-check passed$' "$reach_tmp/durable.err" ||
    ! jq -e "$records | all(type == \"number\" and . <= 2.2)" <<<"$result" >/dev/null; then
    grep -E '^worker_durable:' "$reach_tmp/durable.err" >&2 || true
    jq -c "$records" <<<"$result" >&2 || true
    echo "perf worker_durable --trace 1: over the durable record budget of 2.2 appends and 2.2 fsyncs per invocation" >&2
    exit 1
fi
echo "worker_durable records per invocation: $(jq -c "$records" <<<"$result")"
# The warm count budget: a warm invocation publishes six telemetry events
# (its journal milestones) and makes about 56 allocations. The allocation
# bound is the parent's maximum plus its spread over three quick seeds
# before the stamp timeline replaced the span guards (56.2305, 56.2463,
# 56.2295), so a timeline that adds an event or an allocation on the hot
# path fails here. A missing metric fails too.
result=$(cargo run --release --offline -p iluvatar-perf --bin perf -- --quick --trace 1 \
    --workload worker_warm 2>"$reach_tmp/warm.err" | tail -n 1)
counts='.metrics | {events: ."telemetry.events_per_inv".value, allocs: ."process.allocs_per_inv".value}'
if ! grep -Eq '^worker_warm: attempted [0-9]+ failed 0 — self-check passed$' "$reach_tmp/warm.err" ||
    ! jq -e "$counts | (.events | type == \"number\" and . <= 6) and (.allocs | type == \"number\" and . <= 56.263)" \
        <<<"$result" >/dev/null; then
    grep -E '^worker_warm:' "$reach_tmp/warm.err" >&2 || true
    jq -c "$counts" <<<"$result" >&2 || true
    echo "perf worker_warm --trace 1: over the warm budget of 6 telemetry events and 56.263 allocations per invocation" >&2
    exit 1
fi
echo "worker_warm counts per invocation: $(jq -c "$counts" <<<"$result")"

echo "all checks passed"
