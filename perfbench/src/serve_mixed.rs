//! `serve_mixed`: the daemon path under open-loop mixed load.
//!
//! An in-process `tesc::serve::Server` (2 workers) over a durable
//! `TescContext` (fsync on, bounded density cache) on the DBLP-like
//! graph. Two keep-alive clients send a fixed-rate schedule of ~90%
//! `/test`, ~4% deadline'd `/rank` and ~6% ingests (`/events` or, one
//! in ten, `/edges`, each followed by `/commit`). Every request is
//! timed from its due time, so queueing behind a slow request counts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tesc::serve::json::Json;
use tesc::serve::{Server, ServerConfig};
use tesc::{StoreOptions, TescContext};

use crate::http::Client;
use crate::inputs::{self, Inputs, MAX_H};
use crate::layers::{self, finish_trace, CacheMeter, Layers};
use crate::ops::{Class, Op, Outcome};
use crate::trace::Tracer;
use crate::util::{median, mix, ms, nproc, percentile, sleep_until, Report, Samples, ScratchDir};

/// Offered load, requests per second: about half of this mix's
/// saturation throughput on the reference host (2 CPUs).
pub const RATE: f64 = 170.0;
/// Density-cache byte budget: about half the resident bytes an
/// unbounded cache reaches on this stream between two edge commits
/// (median 10–13 MB).
pub const CACHE_BUDGET: usize = 6 << 20;
/// The `/test` p99 latency limit the offered rate is judged against.
pub const TEST_P99_LIMIT_MS: f64 = 100.0;
/// Hop radius of `/rank` requests (`/test` uses `MAX_H`).
pub const RANK_H: u32 = 1;
/// Deadline carried by every `/rank` request.
pub const RANK_DEADLINE_MS: u64 = 100;
/// Leading part of the schedule that runs but is not recorded.
pub const WARMUP_S: f64 = 1.0;
/// The run is invalid when the generator's own p99 lateness exceeds
/// this multiple of the inter-arrival gap. Client threads share the
/// host's cores with the server's workers, so a waking client can wait
/// a scheduler slice behind a busy worker (p99 up to 6.8 ms observed on 2
/// cores); that wait is inside every measured latency, which runs from
/// due time.
pub const MAX_LATENESS_FRAC: f64 = 2.0;
/// The floor: an idle `GET /stats` round trip must stay below this.
pub const FLOOR_LIMIT_MS: f64 = 5.0;
/// Every this-many-th `/test` response is replayed offline.
const SAMPLE_EVERY: usize = 8;

/// The durable, cache-bounded context the daemon serves.
pub fn make_ctx(inputs: &Inputs) -> (TescContext, ScratchDir) {
    let dir = ScratchDir::new("serve");
    // The default store options fsync every WAL append and snapshot.
    let ctx =
        TescContext::with_threads(inputs.graph.clone(), inputs.events.clone(), MAX_H, nproc())
            .with_cache_budget(Some(CACHE_BUDGET))
            .with_durability(dir.path(), StoreOptions::default())
            .expect("attach data directory");
    (ctx, dir)
}

/// The request schedule: `count` ops drawn from the mix. Pair
/// popularity is Zipf(1) over a seeded order of all event pairs; half
/// of the `/test`s use seed 0, so popular pairs repeat exactly.
pub fn stream(inputs: &Inputs, seed: u64, count: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 10));
    let mut pairs = inputs.all_pairs();
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.gen_range(0..=i));
    }
    let mut cdf = Vec::with_capacity(pairs.len());
    let mut acc = 0.0;
    for r in 0..pairs.len() {
        acc += 1.0 / (r + 1) as f64;
        cdf.push(acc);
    }
    let events = inputs.events.num_events();
    (0..count)
        .map(|k| {
            let u: f64 = rng.gen_range(0.0..1.0);
            if u < 0.90 {
                let x: f64 = rng.gen_range(0.0..acc);
                let (a, b) = pairs[cdf.partition_point(|&c| c < x).min(pairs.len() - 1)];
                let seed = if rng.gen_range(0..2u32) == 0 {
                    0
                } else {
                    k as u64 + 1
                };
                Op::Test { a, b, seed }
            } else if u < 0.94 {
                Op::Rank {
                    focus: rng.gen_range(0..events),
                    h: RANK_H,
                    seed: k as u64 + 1,
                    deadline_ms: RANK_DEADLINE_MS,
                }
            } else if rng.gen_range(0..10u32) == 0 {
                Op::AddEdges {
                    edges: inputs.random_edges(8, &mut rng),
                }
            } else {
                Op::AddOccurrences {
                    event: rng.gen_range(0..events),
                    nodes: inputs.random_nodes(3, &mut rng),
                }
            }
        })
        .collect()
}

/// One answered request of the open-loop run.
struct Rec {
    k: usize,
    class: Class,
    latency_ms: f64,
    lateness_us: f64,
    out: Outcome,
}

fn parse_reply(class: Class, body: &Json) -> Outcome {
    let version = body.get("version").and_then(Json::as_u64).unwrap_or(0);
    Outcome {
        ok: true,
        status: 200,
        version,
        z_bits: body
            .get("result")
            .and_then(|r| r.get("z_bits"))
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        degraded: class == Class::Rank
            && body.get("degraded").and_then(Json::as_bool) == Some(true),
        rank: None,
    }
}

/// Send one op (and its `/commit`) and return the outcome.
fn send(client: &mut Client, inputs: &Inputs, op: &Op) -> Outcome {
    let (path, body) = op.http(inputs);
    let reply = match client.request("POST", path, &body) {
        Ok(r) if op.class() == Class::Commit && r.status == 200 => {
            client.request("POST", "/commit", "{}")
        }
        other => other,
    };
    match reply {
        Ok(r) if r.status == 200 => parse_reply(op.class(), &r.body),
        Ok(r) => Outcome {
            status: r.status,
            ..Outcome::default()
        },
        Err(_) => Outcome::default(),
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let inputs = inputs::dblp(seed);
    let n_ops = (RATE * (WARMUP_S + seconds)).round() as usize;
    let warm = (RATE * WARMUP_S).round() as usize;
    let ops = stream(&inputs, seed, n_ops);
    println!(
        "inputs: dblp-like {} nodes, {} edges, {} events; {} ops at {RATE} req/s ({warm} warm-up)",
        inputs.graph.num_nodes(),
        inputs.graph.num_edges(),
        inputs.events.num_events(),
        n_ops
    );
    if trace {
        return traced(&inputs, &ops, seed, report);
    }

    // Set-up: context build + data directory attach + server listening,
    // SETUPS times; the last server is the one measured.
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..crate::util::SETUPS {
        let t = Instant::now();
        let (ctx, dir) = make_ctx(&inputs);
        let server = Server::spawn(
            ctx,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("spawn server");
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 < crate::util::SETUPS {
            server.shutdown_and_join();
        } else {
            live = Some((server, dir));
        }
    }
    let (server, _dir) = live.expect("a live server");

    // Measurement floor: every connection must round-trip an idle
    // request in a few ms before timing starts.
    let mut clients: Vec<Client> = (0..nproc().min(2))
        .map(|_| Client::connect(server.addr()).expect("connect"))
        .collect();
    for c in &mut clients {
        let floor = c.idle_floor_ms().expect("idle /stats");
        println!("floor: idle GET /stats round trip {floor:.3} ms (limit {FLOOR_LIMIT_MS} ms)");
        report.check(floor < FLOOR_LIMIT_MS, || {
            format!("idle round trip {floor:.3} ms exceeds the {FLOOR_LIMIT_MS} ms floor")
        });
    }

    let gap = Duration::from_secs_f64(1.0 / RATE);
    let next = AtomicUsize::new(0);
    let commit_log: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut recs: Vec<Rec> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (ops, inputs, next, commit_log) = (&ops, &inputs, &next, &commit_log);
                s.spawn(move || {
                    let mut recs = Vec::new();
                    let mut free_at = Instant::now();
                    loop {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        if k >= ops.len() {
                            break;
                        }
                        let due = t0 + gap * k as u32;
                        sleep_until(due);
                        let sent = Instant::now();
                        let lateness = sent - due.max(free_at);
                        let op = &ops[k];
                        let out = if op.class() == Class::Commit {
                            // Stage + commit must not interleave with
                            // the other client's ingest.
                            let mut log = commit_log.lock().expect("commit log");
                            let out = send(client, inputs, op);
                            log.push((k, out.version));
                            out
                        } else {
                            send(client, inputs, op)
                        };
                        let done = Instant::now();
                        free_at = done;
                        recs.push(Rec {
                            k,
                            class: op.class(),
                            latency_ms: ms(done - due),
                            lateness_us: lateness.as_secs_f64() * 1e6,
                            out,
                        });
                    }
                    recs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    recs.sort_by_key(|r| r.k);
    let end = Instant::now();

    let stats = clients[0]
        .request("GET", "/stats", "")
        .expect("final /stats")
        .body;
    drop(clients);
    server.shutdown_and_join();
    let cache = stats.get("cache").cloned().unwrap_or(Json::Null);
    let cache_int = |k: &str| cache.get(k).and_then(Json::as_i64).unwrap_or(0);

    // Per-class latencies over the recorded (post-warm-up) part. A
    // failed request counts as over every limit.
    let mut test = Samples::new("test_ms (from due)", "ms");
    let mut rank = Samples::new("rank_ms (deadline'd)", "ms");
    let mut commit = Samples::new("commit_ms (stage+commit)", "ms");
    let mut failed = [0u64; 3]; // 503, 504, other non-2xx
    let mut degraded = (0usize, 0usize);
    for r in recs.iter().filter(|r| r.k >= warm) {
        let lat = if r.out.ok {
            r.latency_ms
        } else {
            f64::INFINITY
        };
        match r.class {
            Class::Test => test.push(lat),
            Class::Rank => {
                rank.push(lat);
                degraded.0 += r.out.degraded as usize;
                degraded.1 += 1;
            }
            Class::Commit => commit.push(lat),
        }
        if !r.out.ok {
            failed[match r.out.status {
                503 => 0,
                504 => 1,
                _ => 2,
            }] += 1;
        }
    }
    let timed = recs.iter().filter(|r| r.k >= warm).count();
    report.attempted = timed as u64;
    report.failed = failed.iter().sum();

    let lateness: Vec<f64> = recs.iter().map(|r| r.lateness_us).collect();
    let late_p99 = percentile(&lateness, 0.99);
    let gap_us = gap.as_secs_f64() * 1e6;
    let span_s = (end - (t0 + gap * warm as u32)).as_secs_f64();
    let test_p99 = test.p(0.99);

    // Property shares: repeats of an earlier (pair, seed), and cache
    // residency against the budget.
    let mut seen = std::collections::HashSet::new();
    let (mut repeats, mut tests) = (0usize, 0usize);
    for (k, op) in ops.iter().enumerate() {
        if let Op::Test { a, b, seed } = op {
            let fresh = seen.insert((*a, *b, *seed));
            if k >= warm {
                tests += 1;
                repeats += (!fresh) as usize;
            }
        }
    }

    println!("serve_mixed (open loop, {RATE} req/s offered, 2 clients, 2 workers, fsync on):");
    println!("{}", test.line());
    println!("{}", rank.line());
    println!("{}", commit.line());
    println!(
        "  test_p50_ms {:.3}  test_p90_ms {:.3}  test_p99_ms {:.3}  rank_p50_ms {:.3}  rank_p90_ms {:.3}  commit_p90_ms {:.3}",
        test.p(0.5),
        test.p(0.9),
        test_p99,
        rank.p(0.5),
        rank.p(0.9),
        commit.p(0.9)
    );
    println!(
        "  /test p99 limit {TEST_P99_LIMIT_MS} ms at {RATE} req/s: {}",
        if test_p99 <= TEST_P99_LIMIT_MS {
            "met"
        } else {
            "MISSED"
        }
    );
    println!(
        "  completed {timed} in {span_s:.2} s ({:.1} req/s); failed {} (503 {}, 504 {}, other {}) of {timed}",
        timed as f64 / span_s,
        report.failed,
        failed[0],
        failed[1],
        failed[2]
    );
    println!(
        "  degraded /rank {}/{}; generator lateness p99 {late_p99:.1} us (gap {gap_us:.0} us, limit {:.0} us)",
        degraded.0,
        degraded.1,
        MAX_LATENESS_FRAC * gap_us
    );
    println!(
        "  property: /test repeating an earlier (pair, seed) {:.3}; current snapshot cache resident {} B of budget {CACHE_BUDGET} B ({:.2}), {} evictions since the last edge commit",
        repeats as f64 / tests.max(1) as f64,
        cache_int("resident_bytes"),
        cache_int("resident_bytes") as f64 / CACHE_BUDGET as f64,
        cache_int("evictions")
    );
    report.check(late_p99 <= MAX_LATENESS_FRAC * gap_us, || {
        format!("generator lateness p99 {late_p99:.1} us exceeds {MAX_LATENESS_FRAC} gaps")
    });

    // Peak memory of the serving phase, before the mirror below exists.
    let peak_rss = crate::util::peak_rss_mb();
    // Gate: sampled /test answers replayed offline on a mirror context
    // that applies the same commits in the same order.
    check_offline(
        &inputs,
        &ops,
        &recs,
        &commit_log.into_inner().expect("log"),
        report,
    );

    report.metric("setup_s", median(&setups), "s", setups.len());
    report.metric("peak_rss_mb", peak_rss, "MiB", 1);
    report.metric("query_p50_ms", test.p(0.5), "ms", test.values.len());
    report.metric("heavy_p50_ms", rank.p(0.5), "ms", rank.values.len());
}

/// Replay every `SAMPLE_EVERY`-th answered `/test` through
/// `snapshot.engine().test` on a mirror context at the echoed version.
fn check_offline(
    inputs: &Inputs,
    ops: &[Op],
    recs: &[Rec],
    commit_log: &[(usize, u64)],
    report: &mut Report,
) {
    let mirror =
        TescContext::with_threads(inputs.graph.clone(), inputs.events.clone(), MAX_H, nproc());
    let mut samples: Vec<&Rec> = recs
        .iter()
        .filter(|r| r.class == Class::Test && r.out.ok && r.k % SAMPLE_EVERY == 0)
        .collect();
    samples.sort_by_key(|r| (r.out.version, r.k));
    let mut log = commit_log.iter().peekable();
    let (mut checked, mut mismatched) = (0usize, 0usize);
    for r in samples {
        while let Some(&&(k, version)) = log.peek() {
            if version > r.out.version {
                break;
            }
            let v = ops[k].apply_ingest(&mirror);
            report.check(v == version, || {
                format!("mirror reached version {v} where the server echoed {version}")
            });
            log.next();
        }
        let snap = mirror.snapshot();
        let Op::Test { a, b, seed } = ops[r.k] else {
            unreachable!("sampled a /test")
        };
        let z = snap
            .engine()
            .test(
                snap.events().nodes(tesc::EventId(a as u32)),
                snap.events().nodes(tesc::EventId(b as u32)),
                &Inputs::cfg(),
                &mut StdRng::seed_from_u64(seed),
            )
            .map(|t| format!("{:016x}", t.z().to_bits()))
            .unwrap_or_default();
        checked += 1;
        if snap.version() != r.out.version || z != r.out.z_bits {
            mismatched += 1;
        }
    }
    println!("  gate: {checked} sampled /test answers replayed offline, {mismatched} mismatched");
    report.check(mismatched == 0 && checked > 0, || {
        format!("{mismatched} of {checked} /test answers differ from the offline replay")
    });
    report.failed += mismatched as u64;
}

/// Replay `ops` in-process on a fresh context, returning the outcomes
/// and the wall time of the whole stream.
fn replay(
    inputs: &Inputs,
    ops: &[Op],
    tr: &Tracer,
    meter: Option<&mut CacheMeter>,
) -> (Vec<Outcome>, f64) {
    let (ctx, _dir) = make_ctx(inputs);
    let mut meter = meter;
    let t = Instant::now();
    let outs = ops
        .iter()
        .enumerate()
        .map(|(k, op)| {
            let out = op.replay(inputs, &ctx, tr, k as u64);
            if let Some(m) = meter.as_deref_mut() {
                m.observe(&ctx);
            }
            out
        })
        .collect();
    (outs, t.elapsed().as_secs_f64())
}

/// The traced run: the same schedule replayed in-process (sockets
/// bypassed) once untraced and once traced, then the layer probes.
fn traced(inputs: &Inputs, ops: &[Op], seed: u64, report: &mut Report) {
    let off = Tracer::new(false);
    let (plain, w0) = replay(inputs, ops, &off, None);
    let tr = Tracer::new(true);
    let mut meter = CacheMeter::default();
    let (outs, w1) = replay(inputs, ops, &tr, Some(&mut meter));
    report.attempted = ops.len() as u64;

    // Gate: the traced replay answers exactly what the untraced did.
    let mismatched = plain
        .iter()
        .zip(&outs)
        .filter(|(p, o)| p.z_bits != o.z_bits || p.version != o.version)
        .count();
    report.check(mismatched == 0, || {
        format!("{mismatched} traced answers differ from the untraced replay")
    });

    let mut layers = Layers::default();
    let agg = tr.aggregate();
    let med_us = |name: &str| agg.get(name).map_or(f64::NAN, |a| a.median_ns() / 1e3);
    let med_ms = |name: &str| agg.get(name).map_or(f64::NAN, |a| a.median_ns() / 1e6);
    layers.set("engine.test_us", med_us("engine.test"), "replay");
    layers.set(
        "context.add_edges_ms",
        med_ms("context.add_edges"),
        "replay",
    );
    layers.set(
        "context.add_event_ms",
        med_ms("context.add_event"),
        "replay",
    );
    let ranks: Vec<_> = outs.iter().filter_map(|o| o.rank).collect();
    let deg = outs.iter().filter(|o| o.degraded).count();
    layers.set(
        "serve.degraded_frac",
        deg as f64 / ranks.len().max(1) as f64,
        "replay",
    );
    layers.set(
        "serve.failed",
        outs.iter().filter(|o| !o.ok).count() as f64,
        "replay",
    );
    layers::rank_metrics(&mut layers, &ranks, "replay");
    meter.report(&mut layers);
    report.failed = outs.iter().filter(|o| !o.ok).count() as u64 + mismatched as u64;

    let covered = tr.self_time_sum_ns() as f64 / 1e9;
    finish_trace(
        &mut layers,
        &tr,
        w0,
        w1,
        covered,
        "serve_mixed",
        seed,
        report,
    );

    let ingests: Vec<Op> = ops
        .iter()
        .filter(|o| o.class() == Class::Commit)
        .cloned()
        .collect();
    let probe_ops = &ops[..ops.len().min(400)];
    layers::serve_probe(&mut layers, inputs, probe_ops, &|| make_ctx(inputs));
    let probe_tr = Tracer::new(true);
    layers::probe_layers(
        &mut layers,
        inputs,
        &inputs.all_pairs(),
        &ingests,
        seed,
        &probe_tr,
    );
    layers.finish(report);
}
