//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <serve_mixed|rank_batch|ingest_restart|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, sets up, measures
//! for the given number of seconds, checks every timed output, prints
//! a human-readable report and, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end metrics; with `--trace 1` the run also
//! replays the same inputs in-process with spans around each layer's
//! public calls and reports the per-layer metrics instead. A failed
//! correctness gate makes the command exit 1. `--workload all` runs
//! every workload, each in its own child process. See `DESIGN.md`.

mod http;
mod ingest_restart;
mod inputs;
mod layers;
mod ops;
mod rank_batch;
mod serve_mixed;
mod trace;
mod util;

use tesc::serve::json::Json;

const WORKLOADS: [&str; 3] = ["serve_mixed", "rank_batch", "ingest_restart"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) && workload != "all" {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        run_all(&args);
    }
    let host = util::host_fingerprint();
    println!(
        "record: {}",
        tesc::serve::json::obj([
            ("workload", Json::Str(args.workload.clone())),
            ("seed", Json::Int(args.seed as i64)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("host", host),
        ])
        .encode()
    );
    let mut report = util::Report::new();
    match args.workload.as_str() {
        "serve_mixed" => serve_mixed::run(args.seed, args.seconds, args.trace, &mut report),
        "rank_batch" => rank_batch::run(args.seed, args.seconds, args.trace, &mut report),
        _ => ingest_restart::run(args.seed, args.seconds, args.trace, &mut report),
    }
    if args.trace {
        // A traced run reports the per-layer metrics only.
        report
            .metrics
            .retain(|(name, ..)| layers::PER_LAYER.iter().any(|(n, _)| n == name));
    } else {
        println!("end-to-end:");
        for (name, value, unit, n) in &report.metrics {
            println!("  {name:<16} {value:>12.4} {unit:<4} n={n}");
        }
    }
    println!("{}", report.to_json().encode());
    if !report.correct {
        eprintln!(
            "perfbench: correctness gate failed: {}",
            report.problems.join("; ")
        );
        std::process::exit(1);
    }
}

/// Run every workload, each in its own child process (so each has its
/// own peak RSS), passing its output through; exit 1 if any failed.
fn run_all(args: &Args) -> ! {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("run a workload");
        if !status.success() {
            failed.push(w);
        }
    }
    if failed.is_empty() {
        std::process::exit(0);
    }
    eprintln!("perfbench: failed workloads: {}", failed.join(", "));
    std::process::exit(1);
}
