//! Process accounting from `/proc`, for the spawned site processes and for
//! the benchmark process itself.

use std::path::PathBuf;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is 100
/// on every mainstream architecture.
const TICK_US: f64 = 10_000.0;

/// One reading of a process's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User plus system CPU time of every thread, dead ones included.
    pub cpu_us: f64,
    /// Voluntary context switches summed over the live threads.
    pub vol_ctx: u64,
    /// Involuntary context switches summed over the live threads.
    pub invol_ctx: u64,
    /// Bytes passed to `write`-family calls (`wchar`); socket traffic sent
    /// with `send` does not count.
    pub wchar: u64,
    /// Peak resident set size (`VmHWM`) in bytes.
    pub peak_rss: u64,
}

impl ProcSample {
    /// The counters accrued since `earlier`; the peak is kept as is.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_us: self.cpu_us - earlier.cpu_us,
            vol_ctx: self.vol_ctx.saturating_sub(earlier.vol_ctx),
            invol_ctx: self.invol_ctx.saturating_sub(earlier.invol_ctx),
            wchar: self.wchar.saturating_sub(earlier.wchar),
            peak_rss: self.peak_rss,
        }
    }

    /// Sums the counters of several processes (peaks add too: the processes
    /// hold their memory at the same time).
    pub fn sum(samples: &[ProcSample]) -> ProcSample {
        samples
            .iter()
            .fold(ProcSample::default(), |a, s| ProcSample {
                cpu_us: a.cpu_us + s.cpu_us,
                vol_ctx: a.vol_ctx + s.vol_ctx,
                invol_ctx: a.invol_ctx + s.invol_ctx,
                wchar: a.wchar + s.wchar,
                peak_rss: a.peak_rss + s.peak_rss,
            })
    }
}

fn field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Reads the counters of process `pid` (`None` = this process).
pub fn sample(pid: Option<u32>) -> Result<ProcSample, String> {
    let dir = PathBuf::from("/proc").join(pid.map_or("self".to_string(), |p| p.to_string()));
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name))
            .map_err(|e| format!("read {}/{name}: {e}", dir.display()))
    };
    let stat = read("stat")?;
    // Fields after the parenthesised command name start at field 3, so
    // utime (field 14) and stime (field 15) sit at indexes 11 and 12.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("malformed {}/stat", dir.display()))?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("malformed {}/stat", dir.display()))
    };
    let cpu_us = (tick(11)? + tick(12)?) as f64 * TICK_US;

    // The pid's own `status` covers only its main thread.
    let (mut vol_ctx, mut invol_ctx) = (0, 0);
    let tasks = std::fs::read_dir(dir.join("task")).map_err(|e| format!("read tasks: {e}"))?;
    for task in tasks.flatten() {
        // A thread may exit between listing and reading; skip it.
        if let Ok(status) = std::fs::read_to_string(task.path().join("status")) {
            vol_ctx += field(&status, "voluntary_ctxt_switches:").unwrap_or(0);
            invol_ctx += field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
    }
    let io = read("io")?;
    let status = read("status")?;
    Ok(ProcSample {
        cpu_us,
        vol_ctx,
        invol_ctx,
        wchar: field(&io, "wchar:").unwrap_or(0),
        peak_rss: field(&status, "VmHWM:").unwrap_or(0) * 1024,
    })
}

/// Total size in bytes of every file under `dir`.
pub fn disk_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
