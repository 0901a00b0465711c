//! Minimal timing harness standing in for criterion.
//!
//! The build environment is fully offline, so criterion cannot be
//! vendored; the bench targets under `benches/` are plain
//! `harness = false` binaries driven by this module instead. It keeps
//! the parts of criterion's protocol the repository relies on —
//! warm-up, multiple timed samples, median-of-samples reporting — and
//! drops everything else (plots, statistical regression detection).
//!
//! Output format (one line per benchmark, parse-friendly):
//!
//! ```text
//! group/name                    median   12.345 µs   (min 11.9 µs, max 13.1 µs, 20 samples)
//! ```
//!
//! With `TESC_BENCH_JSON=<path>` set (or [`Harness::with_json_path`]),
//! every benchmark additionally **appends** one machine-readable
//! JSON-lines record to that file:
//!
//! ```text
//! {"bench":"density_kernel","row":"dblp/h2/bitset","ns_per_iter":12345.0,"samples":20}
//! ```
//!
//! `bench` is the bench binary's name, `row` the benchmark name,
//! `ns_per_iter` the median. Appending (rather than truncating) lets
//! one CI job accumulate every bench's records into a single artifact;
//! see `docs/PERFORMANCE.md` for how to read them.
//!
//! Before its first data record, each bench run appends **one header
//! record** identifying the environment, so committed `BENCH_*.json`
//! files are comparable across containers:
//!
//! ```text
//! {"bench":"density_kernel","header":true,"commit":"826e296","cpus":2,"llc":"L3 307200K","samples":10,"min_sample_ms":10}
//! ```
//!
//! Headers carry `"header":true` and no `"row"` key; consumers joining
//! on `(bench, row)` skip them naturally. `commit` is `git rev-parse
//! --short HEAD` (`"unknown"` outside a git checkout); `cpus` (the
//! machine's available parallelism) and `llc` (the last-level cache
//! of CPU 0 as sysfs reports it, `"unknown"` where it does not)
//! fingerprint the host, since kernel and compression results move
//! with cache size; `samples`/`min_sample_ms` are the harness
//! configuration the run used.

use std::cell::Cell;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Benchmark runner for one bench binary.
pub struct Harness {
    samples: usize,
    min_sample_time: Duration,
    filter: Option<String>,
    json: Option<PathBuf>,
    bench_name: String,
    /// One header record per run, written lazily before the first data
    /// record (so a fully filtered-out run appends nothing).
    header_written: Cell<bool>,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// Harness with 20 samples of ≥ 10 ms each; a CLI argument (from
    /// `cargo bench --bench NAME -- <substring>`) filters benchmarks
    /// by name.
    ///
    /// Three environment variables override the defaults — and win over
    /// later [`Harness::with_samples`] calls — so CI can smoke-run
    /// every bench binary in seconds without patching them:
    ///
    /// * `TESC_BENCH_SAMPLES` — timed samples per benchmark (≥ 1).
    /// * `TESC_BENCH_MIN_SAMPLE_MS` — calibration floor per sample in
    ///   milliseconds (0 = a single iteration per sample).
    /// * `TESC_BENCH_JSON` — append a machine-readable record per
    ///   benchmark to this path (see the module docs).
    pub fn new() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
        Harness {
            samples: env_override("TESC_BENCH_SAMPLES").map_or(20, |s: usize| s.max(1)),
            min_sample_time: env_override("TESC_BENCH_MIN_SAMPLE_MS")
                .map_or(Duration::from_millis(10), Duration::from_millis),
            filter,
            json: std::env::var_os("TESC_BENCH_JSON").map(PathBuf::from),
            bench_name: bench_name_from_argv0(std::env::args().next().as_deref()),
            header_written: Cell::new(false),
        }
    }

    /// Number of timed samples per benchmark (the `TESC_BENCH_SAMPLES`
    /// environment override, if set, wins).
    pub fn with_samples(mut self, samples: usize) -> Self {
        if std::env::var_os("TESC_BENCH_SAMPLES").is_none() {
            self.samples = samples.max(1);
        }
        self
    }

    /// Drop the CLI-argument name filter picked up by [`Harness::new`].
    ///
    /// The filter heuristic treats any bare (non-`--`) argument as a
    /// benchmark-name substring, which is right for `cargo bench -- foo`
    /// but wrong for binaries taking `--flag value` pairs: the *value*
    /// would silently filter out every row. Flag-style bins call this.
    pub fn without_cli_filter(mut self) -> Self {
        self.filter = None;
        self
    }

    /// Append JSON-lines records to `path` (the `TESC_BENCH_JSON`
    /// environment override, if set, wins).
    pub fn with_json_path(mut self, path: impl Into<PathBuf>) -> Self {
        if std::env::var_os("TESC_BENCH_JSON").is_none() {
            self.json = Some(path.into());
        }
        self
    }

    /// Configured timed samples per benchmark. Load-generator benches
    /// that measure whole request streams (rather than one closure)
    /// scale their request counts off this, so `TESC_BENCH_SAMPLES=1`
    /// keeps CI smoke runs fast without a dedicated knob.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Append one custom data record —
    /// `{"bench":NAME,"row":row,"k1":v1,...}` — to the JSON-lines
    /// path, writing the run's header record first when needed.
    ///
    /// This is the escape hatch for benches whose unit of measurement
    /// is not "median seconds of one closure": a closed-loop load
    /// generator reports `p50_us`/`p99_us`/`rps` per row instead of
    /// `ns_per_iter`, but should still share the header/append
    /// protocol so one artifact file holds every bench's records.
    /// No-op when no JSON path is configured.
    pub fn record_row(&self, row: &str, fields: &[(&str, f64)]) {
        let Some(path) = &self.json else { return };
        self.write_header_once(path);
        let mut record = format!(
            "{{\"bench\":\"{}\",\"row\":\"{}\"",
            json_escape(&self.bench_name),
            json_escape(row),
        );
        for (key, value) in fields {
            use std::fmt::Write as _;
            let _ = write!(record, ",\"{}\":{:.1}", json_escape(key), value);
        }
        record.push_str("}\n");
        if let Err(e) = append_record(path, &record) {
            eprintln!("TESC_BENCH_JSON: cannot append to {}: {e}", path.display());
        }
    }

    /// Append the run's header record if this run has not written one
    /// yet (one header per bench-binary invocation).
    fn write_header_once(&self, path: &Path) {
        if self.header_written.replace(true) {
            return;
        }
        let header = format!(
            "{{\"bench\":\"{}\",\"header\":true,\"commit\":\"{}\",\"cpus\":{},\"llc\":\"{}\",\"samples\":{},\"min_sample_ms\":{}}}\n",
            json_escape(&self.bench_name),
            json_escape(&git_short_commit()),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            json_escape(&llc_size()),
            self.samples,
            self.min_sample_time.as_millis(),
        );
        if let Err(e) = append_record(path, &header) {
            eprintln!("TESC_BENCH_JSON: cannot append to {}: {e}", path.display());
        }
    }

    /// Time `f`, printing one report line and returning the median
    /// seconds per iteration (`NAN` when filtered out). The closure's
    /// return value is passed through [`std::hint::black_box`] so the
    /// optimizer cannot elide the work.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) -> f64 {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return f64::NAN;
            }
        }
        // Warm-up + calibration: how many iterations fill one sample?
        let mut iters = 1usize;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.min_sample_time {
                break;
            }
            iters = iters.saturating_mul(2).max(iters + 1);
        }
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                start.elapsed().as_secs_f64() / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let median = per_iter[per_iter.len() / 2];
        let (min, max) = (per_iter[0], per_iter[per_iter.len() - 1]);
        println!(
            "{name:<34} median {:>12}   (min {}, max {}, {} samples × {iters} iters)",
            fmt_time(median),
            fmt_time(min),
            fmt_time(max),
            self.samples,
        );
        if let Some(path) = &self.json {
            self.write_header_once(path);
            let record = format!(
                "{{\"bench\":\"{}\",\"row\":\"{}\",\"ns_per_iter\":{:.1},\"samples\":{}}}\n",
                json_escape(&self.bench_name),
                json_escape(name),
                median * 1e9,
                self.samples,
            );
            if let Err(e) = append_record(path, &record) {
                eprintln!("TESC_BENCH_JSON: cannot append to {}: {e}", path.display());
            }
        }
        median
    }
}

/// `git rev-parse --short HEAD` of the working directory, or
/// `"unknown"` when git or the checkout is unavailable (the records
/// must still be writable from an exported tarball).
fn git_short_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The highest-level cache of CPU 0 as `"L<level> <size>"` (sysfs
/// spelling, e.g. `"L3 307200K"`), or `"unknown"` without sysfs.
fn llc_size() -> String {
    let read = |path: std::path::PathBuf| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let caches = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").into_iter();
    caches
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let level: u32 = read(entry.path().join("level"))?.parse().ok()?;
            Some((level, read(entry.path().join("size"))?))
        })
        .max_by_key(|(level, _)| *level)
        .map_or_else(|| "unknown".to_string(), |(l, size)| format!("L{l} {size}"))
}

/// Parse an environment-variable override, ignoring unset or
/// malformed values.
fn env_override<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.parse().ok()
}

/// Bench-binary name from `argv[0]`: the file stem with cargo's
/// `-<16 hex digits>` disambiguation hash stripped.
fn bench_name_from_argv0(argv0: Option<&str>) -> String {
    let stem = argv0
        .and_then(|p| Path::new(p).file_stem())
        .and_then(|s| s.to_str())
        .unwrap_or("bench");
    match stem.rsplit_once('-') {
        Some((base, hash))
            if !base.is_empty()
                && hash.len() == 16
                && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
        {
            base.to_string()
        }
        _ => stem.to_string(),
    }
}

/// Escape a string for embedding in a JSON string literal (bench/row
/// names are ASCII identifiers; quotes and backslashes for safety).
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn append_record(path: &Path, record: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(record.as_bytes())
}

/// Render seconds in the unit a human would pick.
pub fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_time_picks_units() {
        assert_eq!(fmt_time(2.5), "2.500 s");
        assert_eq!(fmt_time(2.5e-3), "2.500 ms");
        assert_eq!(fmt_time(2.5e-6), "2.500 µs");
        assert_eq!(fmt_time(2.5e-9), "2.5 ns");
    }

    #[test]
    fn bench_runs_the_closure() {
        let harness = Harness::new().with_samples(2);
        let mut calls = 0u64;
        let median = harness.bench("smoke/increment", || {
            calls += 1;
            calls
        });
        assert!(calls > 0, "closure executed at least once");
        assert!(median >= 0.0, "median is a time");
    }

    #[test]
    fn bench_name_strips_cargo_hash() {
        assert_eq!(
            bench_name_from_argv0(Some("/t/release/deps/density_kernel-0123456789abcdef")),
            "density_kernel"
        );
        assert_eq!(bench_name_from_argv0(Some("micro")), "micro");
        assert_eq!(
            bench_name_from_argv0(Some("my-bench")),
            "my-bench",
            "non-hash suffix kept"
        );
        assert_eq!(bench_name_from_argv0(None), "bench");
    }

    #[test]
    fn json_records_append() {
        let path = std::env::temp_dir().join(format!(
            "tesc_bench_json_test_{}_{}.jsonl",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let _ = std::fs::remove_file(&path);
        // Set the fields directly so an ambient TESC_BENCH_* env
        // cannot redirect this test.
        let mut harness = Harness::new();
        harness.samples = 1;
        harness.json = Some(path.clone());
        harness.min_sample_time = Duration::ZERO;
        harness.bench("grp/row1", || 1);
        harness.bench("grp/row2", || 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            3,
            "one header + one record per bench: {text:?}"
        );
        assert!(lines[0].contains("\"header\":true"), "{text}");
        assert!(lines[0].contains("\"commit\":\""), "{text}");
        assert!(lines[0].contains("\"cpus\":"), "{text}");
        assert!(lines[0].contains("\"llc\":\""), "{text}");
        assert!(!lines[0].contains("\"row\""), "headers carry no row key");
        assert!(lines[1].contains("\"row\":\"grp/row1\""), "{text}");
        assert!(lines[1].contains("\"samples\":1"));
        assert!(lines[1].contains("\"ns_per_iter\":"));
        assert!(lines[2].contains("\"row\":\"grp/row2\""));
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn custom_records_share_the_header_protocol() {
        let path = std::env::temp_dir().join(format!(
            "tesc_bench_custom_record_test_{}_{}.jsonl",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let _ = std::fs::remove_file(&path);
        let mut harness = Harness::new();
        harness.samples = 1;
        harness.json = Some(path.clone());
        harness.min_sample_time = Duration::ZERO;
        harness.record_row("test/c4/budget=inf", &[("p50_us", 123.45), ("rps", 9000.0)]);
        harness.bench("grp/row", || 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header + custom + bench record: {text:?}");
        assert!(lines[0].contains("\"header\":true"), "{text}");
        assert!(
            lines[1].contains("\"row\":\"test/c4/budget=inf\""),
            "{text}"
        );
        assert!(lines[1].contains("\"p50_us\":123.5"), "{text}");
        assert!(lines[1].contains("\"rps\":9000.0"), "{text}");
        assert!(
            lines[2].contains("\"ns_per_iter\":"),
            "bench() must not repeat the header: {text}"
        );
    }
}
