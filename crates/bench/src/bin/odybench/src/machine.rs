//! The machine block stamped on every result: a number means little
//! without the cores, SIMD tier, thread count and commit it came from.

use crate::json::Value;
use std::path::Path;

/// Program worker threads every workload uses (the submitting thread is
/// engine thread 0; cluster workloads run 2 nodes × 1 thread).
pub const WORKER_THREADS: usize = 2;

#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    pub simd: &'static str,
    pub worker_threads: usize,
    pub commit: String,
}

impl Machine {
    pub fn detect() -> Self {
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: odyssey_core::distance::simd::dispatch_name(),
            worker_threads: WORKER_THREADS,
            commit: commit(),
        }
    }

    /// With fewer cores than worker threads every timing would measure
    /// the scheduler, not the program.
    pub fn oversubscribed(&self) -> bool {
        self.nproc < self.worker_threads
    }

    pub fn json(&self) -> Value {
        Value::obj(vec![
            ("nproc", Value::Num(self.nproc as f64)),
            ("simd", Value::str(self.simd)),
            ("worker_threads", Value::Num(self.worker_threads as f64)),
            ("commit", Value::str(&self.commit)),
        ])
    }
}

/// The checked-out commit: `ODYBENCH_COMMIT` if set, else what `.git`
/// of the working directory (or a parent) names, else `unknown` (the
/// benchmark also runs from exported trees that are not repositories).
fn commit() -> String {
    if let Ok(c) = std::env::var("ODYBENCH_COMMIT") {
        return c;
    }
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".to_string();
    };
    loop {
        if let Some(c) = read_head(&dir.join(".git")) {
            return c;
        }
        if !dir.pop() {
            return "unknown".to_string();
        }
    }
}

fn read_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)
            .map(|hash| hash.trim().to_string())
    })
}
