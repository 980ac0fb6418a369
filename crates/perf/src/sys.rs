//! The handful of Linux calls the harness needs and `std` does not expose:
//! CPU affinity, per-process and per-thread CPU clocks, `getrusage`, timer
//! slack, and a counting global allocator. Declared `extern "C"` against
//! the libc `std` already links — no new dependency.

use std::alloc::{GlobalAlloc, Layout, System};
use std::os::raw::{c_int, c_long, c_ulong};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `struct rusage`: two `timeval`s followed by fourteen `long`s.
#[repr(C)]
struct Rusage {
    fields: [c_long; 18],
}

const RU_NVCSW: usize = 16;
const RU_NIVCSW: usize = 17;
const RUSAGE_SELF: c_int = 0;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const PR_SET_TIMERSLACK: c_int = 29;
const SCHED_IDLE: c_int = 5;
/// `cpu_set_t` is 1024 bits.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn pthread_getcpuclockid(thread: c_ulong, clock: *mut c_int) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const c_int) -> c_int;
}

/// The CPU [`pin_to_highest_cpu`] chose; `usize::MAX` while un-pinned.
static PINNED_CPU: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Pin the calling thread — and every thread it spawns afterwards — to the
/// highest-numbered CPU it is allowed to run on. Call before any thread is
/// spawned so the whole process is pinned. Returns the CPU, or `None` when
/// the kernel refused (the caller warns and runs un-pinned).
pub fn pin_to_highest_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return None;
    }
    PINNED_CPU.store(cpu, Ordering::Relaxed);
    Some(cpu)
}

fn clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the whole process (all threads, dead ones too), ns.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// A handle on another live thread's CPU clock, so a sampler can read the
/// load generators' CPU time at window boundaries without their help.
#[derive(Clone, Copy)]
pub struct ThreadCpuClock(c_int);

impl ThreadCpuClock {
    /// The clock of the thread behind `handle`; valid while it is unjoined.
    pub fn of<T>(handle: &std::thread::JoinHandle<T>) -> Option<Self> {
        use std::os::unix::thread::JoinHandleExt;
        let mut clock: c_int = 0;
        // SAFETY: the pthread id comes from a live, unjoined `JoinHandle`
        // and `clock` is a valid out-pointer.
        let rc = unsafe { pthread_getcpuclockid(handle.as_pthread_t() as c_ulong, &mut clock) };
        (rc == 0).then_some(Self(clock))
    }

    pub fn now_ns(&self) -> u64 {
        clock_ns(self.0)
    }
}

/// Voluntary + involuntary context switches of the process so far.
pub fn ctx_switches() -> u64 {
    let mut ru = Rusage { fields: [0; 18] };
    // SAFETY: `ru` is a valid, writable buffer of `struct rusage` size.
    if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
        return 0;
    }
    (ru.fields[RU_NVCSW] + ru.fields[RU_NIVCSW]) as u64
}

/// Forks + thread creations on the whole machine so far (`/proc/stat`
/// `processes`). System-wide, so only meaningful on a quiet host.
pub fn system_spawns() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("processes "))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Time the hypervisor ran something else while the pinned CPU wanted to
/// run (`/proc/stat` `steal`; all CPUs together while un-pinned), in clock
/// ticks (10 ms) since boot.
pub fn steal_ticks() -> u64 {
    let label = match PINNED_CPU.load(Ordering::Relaxed) {
        usize::MAX => "cpu ".to_string(),
        cpu => format!("cpu{cpu} "),
    };
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(label.as_str()))
                .and_then(|v| v.split_whitespace().nth(7))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Shrink the calling thread's timer slack from the default 50 µs to 1 ns,
/// so an open-loop generator's `sleep` wakes close to the due time.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // affects the calling thread's timers.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

/// Move the calling thread to `SCHED_IDLE`: it then runs only when nothing
/// else on its CPU wants to, and is preempted the moment something does.
/// Returns false when the kernel refused.
pub fn demote_to_sched_idle() -> bool {
    // `struct sched_param` is a single int, which must be 0 for SCHED_IDLE.
    let priority: c_int = 0;
    // SAFETY: `priority` is a valid `sched_param` for the calling thread
    // (pid 0); lowering one's own policy needs no privilege.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator. The `perf` binary
/// installs it as `#[global_allocator]`; the counters are statistics, so
/// `Relaxed` is enough.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only bumps two counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// (allocations, bytes requested) so far; both 0 when [`CountingAlloc`] is
/// not the global allocator (library tests).
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
