//! Shared by the tests that count threads; each of those is the only
//! `#[test]` of its file, because `/proc/self/task` lists every thread of
//! the process.

/// `comm` of every live thread of this process (the kernel cuts it to 15
/// bytes, so callers match prefixes).
pub fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|c| c.trim().to_string())
        .collect()
}

/// Voluntary context switches per thread name, summed over `window`: how
/// often the threads of this process blocked and were woken while the
/// caller slept. A thread counts only if it lived through both readings.
#[allow(dead_code)] // `bounded_execution` counts threads, not wake-ups
pub fn wakeups_over(window: std::time::Duration) -> std::collections::BTreeMap<String, u64> {
    let read = || -> std::collections::BTreeMap<String, (String, u64)> {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .filter_map(|t| {
                let t = t.ok()?;
                let comm = std::fs::read_to_string(t.path().join("comm")).ok()?;
                let status = std::fs::read_to_string(t.path().join("status")).ok()?;
                let switches = status
                    .lines()
                    .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
                    .trim()
                    .parse()
                    .ok()?;
                Some((
                    t.file_name().into_string().ok()?,
                    (comm.trim().to_string(), switches),
                ))
            })
            .collect()
    };
    let before = read();
    std::thread::sleep(window);
    let mut woke = std::collections::BTreeMap::new();
    for (tid, (name, after)) in read() {
        if let Some((_, was)) = before.get(&tid) {
            *woke.entry(name).or_insert(0) += after - was;
        }
    }
    woke
}
