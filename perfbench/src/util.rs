//! Shared helpers: percentiles, the result record, host facts and
//! scratch directories inside the checkout.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tesc::serve::json::Json;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn median_u64(values: &[u64]) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median(&v)
}

/// The highest of p50/p90/p99/p99.9 that has at least ten samples
/// beyond it, as `(label, q)`.
pub fn reportable_tail(n: usize) -> (&'static str, f64) {
    let mut best = ("p50", 0.5);
    for (label, q) in [("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)] {
        if (n as f64) * (1.0 - q) >= 10.0 {
            best = (label, q);
        }
    }
    best
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64 finalizer: derives independent sub-seeds from the
/// workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sleep until `t` (coarse sleep, then spin for the last 200 µs so the
/// open-loop generator wakes on time).
pub fn sleep_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fresh, empty directory under `.bench_data/` in the working
/// directory (the checkout root), removed by [`ScratchDir`]'s drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = PathBuf::from(".bench_data").join(format!("{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch data directory");
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind.
        let _ = std::fs::remove_dir(".bench_data");
    }
}

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Size of the last-level cache of cpu0, from sysfs (`"?"` if absent).
fn llc_size() -> String {
    let mut best: Option<(u32, String)> = None;
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(size)) = (
            read_trim(&format!("{base}/level")).and_then(|l| l.parse::<u32>().ok()),
            read_trim(&format!("{base}/size")),
        ) else {
            continue;
        };
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, size));
        }
    }
    best.map_or("?".into(), |(l, s)| format!("L{l} {s}"))
}

/// The filesystem type of the mount holding `dir`.
fn filesystem_of(dir: &Path) -> String {
    let abs = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 3 && abs.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max()
        .map_or("?".into(), |(_, fs)| fs)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "?".into())
}

/// Host facts printed with every result: the numbers here depend on
/// core count, cache size and the fsync latency of the data directory.
pub fn host_fingerprint() -> Json {
    let mem_kb = std::fs::read_to_string("/proc/meminfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("MemTotal:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .unwrap_or(0);
    let data_fs = {
        let probe = ScratchDir::new("host");
        filesystem_of(probe.path())
    };
    // Only a checkout's own `.git`; never a parent repository's.
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    tesc::serve::json::obj([
        ("nproc", Json::Int(nproc() as i64)),
        ("llc", Json::Str(llc_size())),
        ("mem_total_mib", Json::Int((mem_kb / 1024) as i64)),
        ("commit", Json::Str(commit)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        ("data_fs", Json::Str(data_fs)),
        (
            "fsync",
            Json::Str("on; latency is the host filesystem's, not a device's".into()),
        ),
    ])
}

/// Timing samples of one request class, printed with their count and
/// the highest percentile that has ten samples beyond it.
pub struct Samples {
    pub name: &'static str,
    pub unit: &'static str,
    pub values: Vec<f64>,
}

impl Samples {
    pub fn new(name: &'static str, unit: &'static str) -> Self {
        Samples {
            name,
            unit,
            values: Vec::new(),
        }
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn p(&self, q: f64) -> f64 {
        percentile(&self.values, q)
    }

    pub fn line(&self) -> String {
        let n = self.values.len();
        let (tail, q) = reportable_tail(n);
        format!(
            "  {:<28} p50 {:>10.3} {}  {tail} {:>10.3} {}  n={n}",
            self.name,
            self.p(0.5),
            self.unit,
            self.p(q),
            self.unit
        )
    }
}

/// The outcome of one benchmark run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metrics of the final JSON line, in order: `(name, value, unit,
    /// sample count)`.
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
    /// Reasons the run is not valid (gates that failed).
    pub problems: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            problems: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push((name, value, unit, n));
    }

    /// Record a failed gate: the run is marked incorrect.
    pub fn fail(&mut self, why: String) {
        println!("GATE FAILED: {why}");
        self.correct = false;
        self.problems.push(why);
    }

    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    pub fn to_json(&self) -> Json {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|&(name, value, unit, _)| {
                    (
                        name.to_string(),
                        tesc::serve::json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        );
        tesc::serve::json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", metrics),
        ])
    }
}
