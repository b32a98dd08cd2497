//! Small helpers: digests, medians, peak memory, and the file of recorded
//! result digests.

use std::path::{Path, PathBuf};

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the FNV-1a state `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Fold a sequence of words into the FNV-1a state `h`.
pub fn fnv_words(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(h, |h, w| fnv(h, &w.to_le_bytes()))
}

/// Median of a non-empty sample (mean of the middle pair for an even
/// count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of a non-empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Result digests recorded per workload, mode and seed: one
/// `<workload> <mode> <seed> <digest>` line each; `#` starts a comment.
pub struct Digests {
    path: PathBuf,
    entries: Vec<(String, String, u64, String)>,
}

impl Digests {
    /// Read the file; a missing file holds no entries.
    pub fn load(path: &Path) -> Result<Digests, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            match (fields.as_slice(), fields.get(2).and_then(|s| s.parse().ok())) {
                ([workload, mode, _, digest], Some(seed)) => {
                    entries.push((workload.to_string(), mode.to_string(), seed, digest.to_string()))
                }
                _ => {
                    return Err(format!(
                        "{}:{}: expected `<workload> <mode> <seed> <digest>`",
                        path.display(),
                        i + 1
                    ))
                }
            }
        }
        Ok(Digests { path: path.to_path_buf(), entries })
    }

    /// The digest recorded for one workload, mode and seed.
    pub fn get(&self, workload: &str, mode: &str, seed: u64) -> Option<&str> {
        self.entries
            .iter()
            .find(|e| e.0 == workload && e.1 == mode && e.2 == seed)
            .map(|e| e.3.as_str())
    }

    /// Set the digest for one workload, mode and seed, and rewrite the
    /// file sorted.
    pub fn record(
        &mut self,
        workload: &str,
        mode: &str,
        seed: u64,
        digest: &str,
    ) -> Result<(), String> {
        self.entries.retain(|e| !(e.0 == workload && e.1 == mode && e.2 == seed));
        self.entries.push((workload.to_string(), mode.to_string(), seed, digest.to_string()));
        self.entries.sort();
        let mut text =
            String::from("# <workload> <mode> <seed> <digest of the simulated results>\n");
        for (w, m, s, d) in &self.entries {
            text.push_str(&format!("{w} {m} {s} {d}\n"));
        }
        std::fs::write(&self.path, text).map_err(|e| format!("write {}: {e}", self.path.display()))
    }
}
