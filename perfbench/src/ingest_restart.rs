//! `ingest_restart`: the writer path and recovery.
//!
//! A durable `TescContext` (fsync on, checkpoint every 64 records) on
//! the Twitter-like graph takes a stream of commits: 3 in 4 append 50
//! occurrences to one event, 1 in 4 adds 8 edges. After each commit
//! the affected pairs are re-tested on the new snapshot, as
//! `tesc-cli stream` does. At commit [`RESTART_AT`] the context is
//! dropped and reopened from its data directory ([`RESTARTS`] times);
//! the recovered context must match the pre-crash fingerprint and
//! answer bit-identically, and the stream then continues on it.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tesc::{content_seed, StoreOptions, TescContext};

use crate::inputs::{self, Inputs, MAX_H};
use crate::layers::{self, finish_trace, CacheMeter, Layers};
use crate::ops::Op;
use crate::trace::Tracer;
use crate::util::{median, mix, ms, nproc, Report, Samples, ScratchDir};

pub const SNAPSHOT_EVERY: u64 = 64;
/// The commit after which the context is dropped and recovered.
pub const RESTART_AT: usize = 32;
/// Recoveries timed at the restart point (`recover_s` is their median).
pub const RESTARTS: usize = 3;
/// Pairs re-tested after an edge commit: planted pairs 0..8.
const EDGE_RETEST: [(usize, usize); 8] = [
    (0, 1),
    (2, 3),
    (4, 5),
    (6, 7),
    (8, 9),
    (10, 11),
    (12, 13),
    (14, 15),
];

pub fn store_options() -> StoreOptions {
    StoreOptions {
        snapshot_every: SNAPSHOT_EVERY,
        fsync: true,
        keep_snapshots: 2,
    }
}

/// A durable context over the inputs in a fresh data directory.
pub fn make_ctx(inputs: &Inputs) -> (TescContext, ScratchDir) {
    let dir = ScratchDir::new("ingest");
    let ctx =
        TescContext::with_threads(inputs.graph.clone(), inputs.events.clone(), MAX_H, nproc())
            .with_durability(dir.path(), store_options())
            .expect("attach data directory");
    (ctx, dir)
}

/// Commit `j` of the stream: every fourth adds 8 edges, the others
/// append 50 occurrences to one event.
pub fn stream(inputs: &Inputs, seed: u64, count: usize) -> Vec<Op> {
    (0..count)
        .map(|j| {
            let mut rng = StdRng::seed_from_u64(mix(seed, 300 + j as u64));
            if j % 4 == 3 {
                Op::AddEdges {
                    edges: inputs.random_edges(8, &mut rng),
                }
            } else {
                Op::AddOccurrences {
                    event: rng.gen_range(0..inputs.events.num_events()),
                    nodes: inputs.random_nodes(50, &mut rng),
                }
            }
        })
        .collect()
}

/// Pairs to re-test after `op`: every pair touching the changed event,
/// or the fixed edge set.
fn affected(inputs: &Inputs, op: &Op) -> Vec<(usize, usize)> {
    match op {
        Op::AddOccurrences { event, .. } => (0..inputs.events.num_events())
            .filter(|&o| o != *event)
            .map(|o| (o.min(*event), o.max(*event)))
            .collect(),
        _ => EDGE_RETEST.to_vec(),
    }
}

/// Re-test one pair on the current snapshot; returns its `z` bits.
fn requery(
    ctx: &TescContext,
    master: u64,
    (a, b): (usize, usize),
    tr: &Tracer,
    req: u64,
) -> Option<u64> {
    let snap = tr.time("context.pin", req, || ctx.snapshot());
    let (va, vb) = (
        snap.events().nodes(tesc::EventId(a as u32)),
        snap.events().nodes(tesc::EventId(b as u32)),
    );
    let mut rng = StdRng::seed_from_u64(content_seed(master, va, vb));
    tr.time("engine.test", req, || {
        snap.engine().test(va, vb, &Inputs::cfg(), &mut rng)
    })
    .ok()
    .map(|r| r.z().to_bits())
}

/// Everything one pass over the stream observed.
#[derive(Default)]
struct Pass {
    commit_edges: Vec<f64>,
    commit_events: Vec<f64>,
    requery: Vec<f64>,
    recover: Vec<f64>,
    /// `z` bits of every re-test, in stream order.
    answers: Vec<Option<u64>>,
    restart_ok: bool,
    commits: usize,
    wall: f64,
}

/// Run the commit stream on `ctx`: until `seconds` pass (and at least
/// past the restart point), or exactly `limit` commits when replaying.
#[allow(clippy::too_many_arguments)]
fn pass(
    inputs: &Inputs,
    ops: &[Op],
    seed: u64,
    mut ctx: TescContext,
    dir: &ScratchDir,
    seconds: f64,
    limit: Option<usize>,
    tr: &Tracer,
    mut meter: Option<&mut CacheMeter>,
) -> Pass {
    let master = mix(seed, 200);
    let mut p = Pass {
        restart_ok: true,
        ..Pass::default()
    };
    let start = Instant::now();
    let mut req = 0u64;
    for (j, op) in ops.iter().enumerate() {
        let done = match limit {
            Some(n) => j >= n,
            None => j > RESTART_AT && start.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            break;
        }
        let t = Instant::now();
        {
            let _c = tr.span("ingest.commit", req);
            let name = match op {
                Op::AddEdges { .. } => "context.add_edges",
                _ => "context.add_event",
            };
            tr.time(name, req, || op.apply_ingest(&ctx));
        }
        let lat = ms(t.elapsed());
        match op {
            Op::AddEdges { .. } => p.commit_edges.push(lat),
            _ => p.commit_events.push(lat),
        }
        req += 1;
        for pair in affected(inputs, op) {
            let t = Instant::now();
            let z = {
                let _r = tr.span("ingest.requery", req);
                requery(&ctx, master, pair, tr, req)
            };
            p.requery.push(ms(t.elapsed()));
            p.answers.push(z);
            req += 1;
        }
        if let Some(m) = meter.as_deref_mut() {
            m.observe(&ctx);
        }
        p.commits += 1;
        if j == RESTART_AT {
            let snap = ctx.snapshot();
            let (fingerprint, version) = (snap.fingerprint(), snap.version());
            drop(snap);
            let before = requery(&ctx, master, (0, 1), tr, req);
            drop(ctx);
            let mut last = None;
            for _ in 0..RESTARTS {
                drop(last.take());
                let _r = tr.span("ingest.restart", req);
                let t = Instant::now();
                let back = tr
                    .time("persist.open_dir", req, || {
                        TescContext::open_dir(dir.path(), MAX_H, nproc(), store_options())
                    })
                    .expect("recover data directory")
                    .expect("data directory holds state");
                let after = requery(&back, master, (0, 1), tr, req);
                p.recover.push(t.elapsed().as_secs_f64());
                let snap = back.snapshot();
                p.restart_ok &= snap.fingerprint() == fingerprint
                    && snap.version() == version
                    && after == before
                    && after.is_some();
                drop(snap);
                last = Some(back);
                req += 1;
            }
            ctx = last.expect("recovered context");
            if let Some(m) = meter.as_deref_mut() {
                m.observe(&ctx);
            }
        }
    }
    p.wall = start.elapsed().as_secs_f64();
    p
}

pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let inputs = inputs::twitter(seed);
    println!(
        "inputs: twitter-like {} nodes, {} edges, {} events",
        inputs.graph.num_nodes(),
        inputs.graph.num_edges(),
        inputs.events.num_events()
    );
    // Enough commits for any run length; a run uses a prefix.
    let ops = stream(&inputs, seed, 5_000);
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..crate::util::SETUPS {
        drop(live.take());
        let t = Instant::now();
        live = Some(make_ctx(&inputs));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (ctx, dir) = live.expect("context");
    let off = Tracer::new(false);
    let p = pass(&inputs, &ops, seed, ctx, &dir, seconds, None, &off, None);
    drop(dir);

    let (mut edges, mut events, mut requery) = (
        Samples::new("commit_edges_ms", "ms"),
        Samples::new("commit_events_ms", "ms"),
        Samples::new("requery_ms", "ms"),
    );
    edges.values = p.commit_edges.clone();
    events.values = p.commit_events.clone();
    requery.values = p.requery.clone();
    let failed_tests = p.answers.iter().filter(|z| z.is_none()).count();
    report.attempted = (p.commits + p.requery.len() + p.recover.len()) as u64;
    report.failed = failed_tests as u64 + (!p.restart_ok) as u64;
    report.check(failed_tests == 0, || {
        format!("{failed_tests} re-tests failed")
    });
    report.check(p.restart_ok, || {
        "a recovered context differs from its pre-crash fingerprint or answer".into()
    });

    println!("ingest_restart (in-process, fsync on, checkpoint every {SNAPSHOT_EVERY} records):");
    println!("{}", edges.line());
    println!("{}", events.line());
    println!("{}", requery.line());
    println!(
        "  commit_edges_p50_ms {:.3}  commit_events_p50_ms {:.3}  requery_p50_ms {:.3}  recover_s {:.3} (n={}, after {} commits)",
        edges.p(0.5),
        events.p(0.5),
        requery.p(0.5),
        median(&p.recover),
        p.recover.len(),
        RESTART_AT + 1
    );
    println!(
        "  property: commits that are edge deltas {:.3} ({} of {})",
        edges.values.len() as f64 / p.commits.max(1) as f64,
        edges.values.len(),
        p.commits
    );
    println!(
        "  gate: {RESTARTS} recoveries matched the pre-crash fingerprint and answer: {}",
        p.restart_ok
    );

    report.metric("setup_s", median(&setups), "s", setups.len());
    report.metric("peak_rss_mb", crate::util::peak_rss_mb(), "MiB", 1);
    report.metric("query_p50_ms", requery.p(0.5), "ms", requery.values.len());
    report.metric("heavy_p50_ms", edges.p(0.5), "ms", edges.values.len());

    if trace {
        traced(&inputs, &ops, seed, &p, report);
    }
}

/// The traced replay of the same commits (same restart), compared
/// answer by answer with the untraced pass; then the layer probes.
fn traced(inputs: &Inputs, ops: &[Op], seed: u64, plain: &Pass, report: &mut Report) {
    let (ctx, dir) = make_ctx(inputs);
    let tr = Tracer::new(true);
    let mut meter = CacheMeter::default();
    meter.observe(&ctx);
    let p = pass(
        inputs,
        ops,
        seed,
        ctx,
        &dir,
        0.0,
        Some(plain.commits),
        &tr,
        Some(&mut meter),
    );
    drop(dir);
    let mismatched = plain
        .answers
        .iter()
        .zip(&p.answers)
        .filter(|(a, b)| a != b)
        .count()
        + plain.answers.len().abs_diff(p.answers.len());
    println!("  replay: traced re-tests vs untraced: {mismatched} mismatched");
    report.check(mismatched == 0 && p.restart_ok, || {
        format!("{mismatched} traced re-tests differ from the untraced pass")
    });
    report.failed += mismatched as u64;

    let mut layers = Layers::default();
    let agg = tr.aggregate();
    let med = |name: &str, div: f64| agg.get(name).map_or(f64::NAN, |a| a.median_ns() / div);
    layers.set("engine.test_us", med("engine.test", 1e3), "replay");
    layers.set(
        "context.add_edges_ms",
        med("context.add_edges", 1e6),
        "replay",
    );
    layers.set(
        "context.add_event_ms",
        med("context.add_event", 1e6),
        "replay",
    );
    meter.report(&mut layers);
    let covered = tr.self_time_sum_ns() as f64 / 1e9;
    finish_trace(
        &mut layers,
        &tr,
        plain.wall,
        p.wall,
        covered,
        "ingest_restart",
        seed,
        report,
    );

    let serve_ops = crate::rank_batch::probe_ops(inputs);
    layers::serve_probe(&mut layers, inputs, &serve_ops, &|| make_ctx(inputs));
    let probe_tr = Tracer::new(true);
    layers::probe_layers(
        &mut layers,
        inputs,
        &inputs.all_pairs(),
        &ops[..64],
        seed,
        &probe_tr,
    );
    layers.finish(report);
}
