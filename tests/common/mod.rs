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
