//! The host a result was measured on. Packet rates move by about 2x
//! between machines, so every result carries this record.

use std::path::Path;

/// What the benchmark records about its host and run.
#[derive(Debug, Clone)]
pub struct Host {
    /// Online CPUs per `/sys/devices/system/cpu/online` (what `nproc`
    /// reports without an affinity mask); 0 if unreadable.
    pub nproc: usize,
    /// `std::thread::available_parallelism` (affinity-aware).
    pub available_parallelism: usize,
    /// CPU 0's unified L2 size in bytes, 0 if unreadable.
    pub l2_bytes: u64,
    /// CPU 0's unified L3 size in bytes, 0 if unreadable.
    pub l3_bytes: u64,
    /// The commit of the checkout, `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Probes the running host.
    pub fn probe() -> Self {
        let mut l2_bytes = 0;
        let mut l3_bytes = 0;
        for i in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
            let (Some(level), Some(size)) = (read("level"), read("size")) else {
                continue;
            };
            let bytes = parse_cache_size(size.trim());
            match level.trim() {
                "2" => l2_bytes = bytes,
                "3" => l3_bytes = bytes,
                _ => {}
            }
        }
        Host {
            nproc: std::fs::read_to_string("/sys/devices/system/cpu/online")
                .map(|s| count_cpu_list(s.trim()))
                .unwrap_or(0),
            available_parallelism: available_parallelism(),
            l2_bytes,
            l3_bytes,
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_owned()),
        }
    }

    /// The record as a one-line JSON object, with the run's seed and
    /// worker count.
    pub fn json(&self, seed: u64, workers: usize) -> String {
        format!(
            "{{\"nproc\": {}, \"available_parallelism\": {}, \"l2_bytes\": {}, \
             \"l3_bytes\": {}, \"workers\": {workers}, \"commit\": \"{}\", \"seed\": {seed}}}",
            self.nproc, self.available_parallelism, self.l2_bytes, self.l3_bytes, self.commit
        )
    }
}

/// `std::thread::available_parallelism`, 1 if unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The serving workers a run uses: one core fewer than
/// [`available_parallelism`], at least one. The generator thread
/// dispatches each `serve_lookups` call's jobs and drains its results
/// itself, so it keeps a core of its own and no more threads are busy
/// than there are cores.
pub fn serving_workers() -> usize {
    available_parallelism().saturating_sub(1).max(1)
}

/// Parses a sysfs cache size such as `2048K` or `105M`.
fn parse_cache_size(s: &str) -> u64 {
    let (digits, scale) = match s.as_bytes().last() {
        Some(b'K') => (&s[..s.len() - 1], 1024),
        Some(b'M') => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<u64>().map_or(0, |n| n * scale)
}

/// Counts the CPUs in a sysfs list such as `0-3,6,8-9`.
fn count_cpu_list(s: &str) -> usize {
    s.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('-') {
            Some((a, b)) => match (a.parse::<usize>(), b.parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => b - a + 1,
                _ => 0,
            },
            None => usize::from(part.parse::<usize>().is_ok()),
        })
        .sum()
}

/// Resolves `HEAD` in a git directory without running git.
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_formats() {
        assert_eq!(parse_cache_size("2048K"), 2 << 20);
        assert_eq!(parse_cache_size("105M"), 105 << 20);
        assert_eq!(count_cpu_list("0-3,6,8-9"), 7);
        assert_eq!(count_cpu_list("0"), 1);
    }
}
