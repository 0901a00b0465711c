//! `rank_batch`: offline all-pairs ranking, in-process, closed loop,
//! one caller. Requests alternate between an exact ranking of all 276
//! pairs and an `anytime:0.2` top-10 over the same pairs with the same
//! fresh master seed; each request starts from an empty density cache,
//! so nothing is reused across requests.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tesc::{content_seed, rank_pairs, EventPair, RankMode, RankReport, RankRequest, TescContext};

use crate::inputs::{self, Inputs, MAX_H};
use crate::layers::{self, finish_trace, CacheMeter, Layers};
use crate::trace::Tracer;
use crate::util::{median, mix, ms, nproc, Report, Samples};

/// Exact entries re-tested per exact request by the gate.
const GATE_PAIRS: usize = 8;
const TOP_K: usize = 10;
const ANYTIME_EPS: f64 = 0.2;

/// Request `i`: even = exact full ranking, odd = anytime top-10, both
/// of a pair sharing one master seed.
fn request(pairs: &[EventPair], seed: u64, i: usize) -> RankRequest {
    let req = RankRequest::new(Inputs::cfg())
        .with_seed(mix(seed, 100 + (i / 2) as u64))
        .with_threads(nproc())
        .with_pairs(pairs.iter().cloned());
    if i.is_multiple_of(2) {
        req
    } else {
        req.with_top_k(TOP_K)
            .with_mode(RankMode::Anytime { eps: ANYTIME_EPS })
    }
}

fn z_bits(r: &RankReport) -> BTreeMap<usize, u64> {
    r.ranked
        .iter()
        .map(|e| (e.index, e.result.z().to_bits()))
        .collect()
}

fn top_labels(r: &RankReport) -> Vec<String> {
    r.ranked
        .iter()
        .take(TOP_K)
        .map(|e| e.label.clone())
        .collect()
}

/// A fresh context state: same graph version, empty density cache.
fn fresh_cache(ctx: TescContext) -> TescContext {
    ctx.with_cache_budget(None)
}

pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let inputs = inputs::twitter(seed);
    println!(
        "inputs: twitter-like {} nodes, {} edges, {} events",
        inputs.graph.num_nodes(),
        inputs.graph.num_edges(),
        inputs.events.num_events()
    );
    let mut setups = Vec::new();
    let mut ctx = None;
    for _ in 0..crate::util::SETUPS {
        let (g, e) = (inputs.graph.clone(), inputs.events.clone());
        drop(ctx.take());
        let t = Instant::now();
        ctx = Some(TescContext::with_threads(g, e, MAX_H, nproc()));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut ctx = ctx.expect("context");
    let snap = ctx.snapshot();
    let pairs: Vec<EventPair> = inputs
        .all_pairs()
        .into_iter()
        .map(|(a, b)| snap.event_pair(tesc::EventId(a as u32), tesc::EventId(b as u32)))
        .collect();
    drop(snap);

    // The measured stream. Each request is timed on its own; the gate
    // runs between requests, outside the request timings.
    let mut exact = Samples::new("exact_request_ms", "ms");
    let mut anytime = Samples::new("anytime_top10_request_ms", "ms");
    let mut recalls = Vec::new();
    let (mut hits, mut probes) = (0u64, 0u64);
    let mut gate = (0usize, 0usize);
    let mut exact_bits: Vec<BTreeMap<usize, u64>> = Vec::new();
    let mut last_top: Vec<String> = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < 2 || i % 2 == 1 || start.elapsed().as_secs_f64() < seconds {
        ctx = fresh_cache(ctx);
        let snap = ctx.snapshot();
        let engine = snap.engine();
        let req = request(&pairs, seed, i);
        let t = Instant::now();
        let rep = rank_pairs(&engine, &req);
        let lat = ms(t.elapsed());
        let cache = snap.density_cache();
        hits += cache.hits();
        probes += cache.hits() + cache.misses();
        report.attempted += 1;
        if !rep.failed.is_empty() || rep.ranked.is_empty() {
            report.failed += 1;
            report.fail(format!("request {i}: {} pairs failed", rep.failed.len()));
        }
        if i % 2 == 0 {
            exact.push(lat);
            // Gate: sampled exact entries equal independent
            // `engine.test` runs seeded with `content_seed`.
            let step = (rep.ranked.len() / GATE_PAIRS).max(1);
            for e in rep.ranked.iter().step_by(step).take(GATE_PAIRS) {
                let p = &pairs[e.index];
                let mut rng = StdRng::seed_from_u64(content_seed(req.seed, &p.a, &p.b));
                let z = engine.test(&p.a, &p.b, &Inputs::cfg(), &mut rng);
                gate.0 += 1;
                if z.map(|r| r.z().to_bits()).ok() != Some(e.result.z().to_bits()) {
                    gate.1 += 1;
                }
            }
            exact_bits.push(z_bits(&rep));
            last_top = top_labels(&rep);
        } else {
            anytime.push(lat);
            let got = top_labels(&rep);
            let hit = got.iter().filter(|l| last_top.contains(l)).count();
            recalls.push(hit as f64 / TOP_K as f64);
        }
        i += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    report.failed += gate.1 as u64;
    report.check(gate.1 == 0, || {
        format!(
            "{} of {} exact entries differ from per-pair engine.test",
            gate.1, gate.0
        )
    });

    let candidates = pairs.len() as f64;
    let exact_pps: Vec<f64> = exact.values.iter().map(|l| candidates / l * 1e3).collect();
    let any_pps: Vec<f64> = anytime
        .values
        .iter()
        .map(|l| candidates / l * 1e3)
        .collect();
    let recall = recalls.iter().sum::<f64>() / recalls.len().max(1) as f64;
    println!(
        "rank_batch (closed loop, 1 caller, {} threads, {} candidate pairs):",
        nproc(),
        pairs.len()
    );
    println!("{}", exact.line());
    println!("{}", anytime.line());
    println!(
        "  rank_exact_pairs_per_s {:.1} (n={})  rank_anytime_pairs_per_s {:.1} (n={})  anytime_recall_at_10 {recall:.3} (n={})",
        median(&exact_pps),
        exact_pps.len(),
        median(&any_pps),
        any_pps.len(),
        recalls.len()
    );
    println!(
        "  property: density probes that hit {:.4} ({hits} of {probes})",
        hits as f64 / probes.max(1) as f64
    );
    println!(
        "  gate: {} exact entries re-tested, {} mismatched",
        gate.0, gate.1
    );

    report.metric("setup_s", median(&setups), "s", setups.len());
    report.metric("peak_rss_mb", crate::util::peak_rss_mb(), "MiB", 1);
    report.metric("query_p50_ms", exact.p(0.5), "ms", exact.values.len());
    report.metric("heavy_p50_ms", anytime.p(0.5), "ms", anytime.values.len());

    if trace {
        traced(&inputs, ctx, &pairs, seed, i, wall, &exact_bits, report);
    }
}

/// The traced replay of the same `n` requests: exact requests through
/// the planner stages (checked against `rank_pairs`' `z_bits`),
/// anytime requests through `rank_pairs`; then the layer probes.
#[allow(clippy::too_many_arguments)]
fn traced(
    inputs: &Inputs,
    mut ctx: TescContext,
    pairs: &[EventPair],
    seed: u64,
    n: usize,
    w0: f64,
    exact_bits: &[BTreeMap<usize, u64>],
    report: &mut Report,
) {
    let tr = Tracer::new(true);
    let mut meter = CacheMeter::default();
    let mut ranks = Vec::new();
    let (mut sampled, mut distinct) = (0usize, 0usize);
    let mut mismatched = 0usize;
    let start = Instant::now();
    for i in 0..n {
        ctx = fresh_cache(ctx);
        meter.observe(&ctx);
        let snap = ctx.snapshot();
        let engine = snap.engine();
        let req = request(pairs, seed, i);
        let _root = tr.span("rank.request", i as u64);
        if i % 2 == 0 {
            let (z, s, d) =
                layers::planner_stages(&engine, pairs, req.seed, req.threads, &tr, i as u64);
            sampled += s;
            distinct += d;
            let want = &exact_bits[i / 2];
            mismatched += z
                .iter()
                .enumerate()
                .filter(|(idx, bits)| want.get(idx).copied() != **bits)
                .count();
            let step = (pairs.len() / GATE_PAIRS).max(1);
            for p in pairs.iter().step_by(step).take(GATE_PAIRS) {
                let mut rng = StdRng::seed_from_u64(content_seed(req.seed, &p.a, &p.b));
                let r = tr.time("engine.test", i as u64, || {
                    engine.test(&p.a, &p.b, &Inputs::cfg(), &mut rng)
                });
                std::hint::black_box(r.ok());
            }
        } else {
            let rep = tr.time("rank.anytime", i as u64, || rank_pairs(&engine, &req));
            ranks.push(layers::rank_fields(&rep));
        }
        drop(_root);
        meter.observe(&ctx);
    }
    let w1 = start.elapsed().as_secs_f64();
    println!("  replay: traced planner stages vs rank_pairs z_bits: {mismatched} mismatched");
    report.check(mismatched == 0, || {
        format!("{mismatched} planner-stage z_bits differ from rank_pairs")
    });
    report.failed += mismatched as u64;

    let mut layers = Layers::default();
    let agg = tr.aggregate();
    layers.set(
        "engine.test_us",
        agg.get("engine.test")
            .map_or(f64::NAN, |a| a.median_ns() / 1e3),
        "replay",
    );
    layers::planner_metrics(&mut layers, &tr, sampled, distinct, "replay");
    layers::rank_metrics(&mut layers, &ranks, "replay");
    meter.report(&mut layers);
    let covered = tr.self_time_sum_ns() as f64 / 1e9;
    finish_trace(
        &mut layers,
        &tr,
        w0,
        w1,
        covered,
        "rank_batch",
        seed,
        report,
    );
    drop(ctx);

    // Serve probe: /test for the first pairs, plus a few /rank.
    let serve_ops = probe_ops(inputs);
    layers::serve_probe(&mut layers, inputs, &serve_ops, &|| {
        let (g, e) = (inputs.graph.clone(), inputs.events.clone());
        let ctx = TescContext::with_threads(g, e, MAX_H, nproc());
        (ctx, crate::util::ScratchDir::new("rank"))
    });
    let ingests = crate::ingest_restart::stream(inputs, seed, 32);
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

/// `/test` on the first 24 pairs (seed 0) and `/rank` focused on the
/// first two events: the serve probe's requests for the workloads that
/// do not serve over HTTP. The `/rank` deadline is generous so the
/// probe times complete rankings on this larger graph.
pub fn probe_ops(inputs: &Inputs) -> Vec<crate::ops::Op> {
    use crate::ops::Op;
    let mut ops: Vec<Op> = inputs
        .all_pairs()
        .into_iter()
        .take(24)
        .map(|(a, b)| Op::Test { a, b, seed: 0 })
        .collect();
    ops.extend((0..2).map(|focus| Op::Rank {
        focus,
        h: MAX_H,
        seed: 1,
        deadline_ms: 10_000,
    }));
    ops
}
