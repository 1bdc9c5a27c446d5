//! Host guard, provenance and the benchmark-owned scratch directory.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// `benchmark/out/`: persistence dirs, span files and result copies.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn proc_kib(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_kib("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refuse hosts on which the numbers would mean nothing: the harness
/// needs two rank threads beside the generator and ~2 GiB of windows.
pub fn guard() -> Result<(), String> {
    if nproc() < 2 {
        return Err(format!("need at least 2 cores, found {}", nproc()));
    }
    match proc_kib("/proc/meminfo", "MemAvailable:") {
        Some(kib) if kib < 4 * 1024 * 1024 => Err(format!(
            "need MemAvailable >= 4 GiB, found {:.1} GiB",
            kib as f64 / 1048576.0
        )),
        _ => Ok(()),
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `"nproc": 2, "kernel": "...", "git_rev": "..."` (JSON object body).
pub fn provenance_json() -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "\"nproc\": {}, \"kernel\": \"{kernel}\", \"git_rev\": \"{}\"",
        nproc(),
        git_rev()
    )
}

/// Live scratch directories, for [`remove_scratch_dirs`].
static SCRATCH: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// A directory under `benchmark/out/` removed on drop — also when the
/// run fails and unwinds.
pub struct ScratchDir(PathBuf);

/// Remove every live scratch directory now: for the one failure that
/// cannot unwind (a serving rank died, so the process exits from there).
pub fn remove_scratch_dirs() {
    if let Ok(mut dirs) = SCRATCH.lock() {
        for d in dirs.drain(..) {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let path = out_dir().join(format!("{tag}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        if let Ok(mut dirs) = SCRATCH.lock() {
            dirs.push(path.clone());
        }
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Ok(mut dirs) = SCRATCH.lock() {
            dirs.retain(|d| d != &self.0);
        }
    }
}

/// Total bytes of the regular files under `dir` (recursive).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
