//! Process-level plumbing: the quiet panic hook, the per-process scratch
//! directory, and peak memory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static COLLATERAL_PANICS: AtomicUsize = AtomicUsize::new(0);

/// A scripted `StageCrash` kills one stage thread; its peer then panics on
/// the dropped channel ("pipeline channel closed"), which the engine reaps
/// and reports as collateral. Count that panic instead of printing a
/// backtrace per crash; every other panic still prints.
pub fn install_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.contains("pipeline channel closed") {
            COLLATERAL_PANICS.fetch_add(1, Ordering::Relaxed);
        } else {
            default(info);
        }
    }));
}

/// How many collateral stage-thread panics the hook swallowed.
pub fn collateral_panics() -> usize {
    COLLATERAL_PANICS.load(Ordering::Relaxed)
}

/// The benchmark's own directory (where `results/` and scratch live).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A per-process directory under `benchmark/.scratch/`, removed on drop —
/// checkpoints land here, never in the system temp dir or the repository's
/// `results/`.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        let dir = bench_dir()
            .join(".scratch")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// A fresh, empty sub-directory.
    pub fn sub(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind when this was the last run.
        let _ = std::fs::remove_dir(bench_dir().join(".scratch"));
    }
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set of this process in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

pub fn machine_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
