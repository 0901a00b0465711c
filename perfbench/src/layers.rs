//! Per-layer metrics of the traced run: the fixed metric list, the
//! density-cache meter, and the layer probes — each a public library
//! call timed on the workload's own generated inputs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tesc::persist::snapshot::{decode_snapshot, encode_snapshot};
use tesc::persist::wal::{segment_file_name, WalWriter};
use tesc::persist::{Store, WalRecord};
use tesc::serve::{Server, ServerConfig};
use tesc::{
    content_seed, rank_pairs, BfsScratch, Budget, DensityCache, EventPair, NodeId, NodeMask,
    PairSetPlan, RankMode, RankReport, RankRequest, StoreOptions, TescContext, TescEngine,
    VicinityIndex,
};
use tesc_stats::kendall::{kendall_tau, KendallMethod};

use crate::http::Client;
use crate::inputs::{Inputs, MAX_H, SAMPLE_N};
use crate::ops::{Class, Op};
use crate::trace::Tracer;
use crate::util::{median, ms, nproc, percentile, Report, ScratchDir};

/// Every per-layer metric a traced run reports, with its unit. The
/// order is the order of the final JSON line.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("serve.self_us", "us"),
    ("serve.rank_self_us", "us"),
    ("serve.json_us", "us"),
    ("serve.failed", "count"),
    ("serve.degraded_frac", "ratio"),
    ("context.pin_us", "us"),
    ("context.add_edges_ms", "ms"),
    ("context.add_event_ms", "ms"),
    ("context.build_s", "s"),
    ("persist.wal_append_us", "us"),
    ("persist.wal_bytes_per_commit", "bytes"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.snapshot_bytes", "bytes"),
    ("persist.recover_ms", "ms"),
    ("graph.with_edges_ms", "ms"),
    ("graph.vicinity_refresh_ms", "ms"),
    ("graph.vicinity_build_ms", "ms"),
    ("graph.snapshot_decode_ms", "ms"),
    ("engine.test_us", "us"),
    ("sampler.us", "us"),
    ("sampler.draws_per_ref", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.resident_bytes", "bytes"),
    ("cache.bfs_invocations", "count"),
    ("planner.plan_ms", "ms"),
    ("planner.density_ms", "ms"),
    ("planner.finish_ms", "ms"),
    ("planner.share_factor", "ratio"),
    ("density.refs_per_s", "1/s"),
    ("rank.rounds", "count"),
    ("rank.mean_samples_per_pair", "count"),
    ("rank.pruned", "count"),
    ("stats.kendall_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
];

/// Collected per-layer values by name.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Where each value came from (`replay` or `probe`), for the text
    /// report.
    source: BTreeMap<&'static str, &'static str>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64, source: &'static str) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, value);
        self.source.insert(name, source);
    }

    /// Set unless the replay already measured it.
    pub fn probe(&mut self, name: &'static str, value: f64) {
        if !self.values.contains_key(name) {
            self.set(name, value, "probe");
        }
    }

    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Print every metric and move them into the report, in
    /// [`PER_LAYER`] order.
    pub fn finish(self, report: &mut Report) {
        println!("per-layer (traced run):");
        for (name, unit) in PER_LAYER {
            let v = self.values.get(name).copied();
            let src = self.source.get(name).copied().unwrap_or("-");
            match v {
                Some(v) => {
                    println!("  {name:<30} {v:>14.4} {unit:<6} [{src}]");
                    report.metric(name, v, unit, 1);
                }
                None => report.fail(format!("per-layer metric {name} was not measured")),
            }
        }
    }
}

/// Density-cache counters summed over every snapshot cache a stream
/// touched (edge commits replace the cache; event commits keep it).
#[derive(Default)]
pub struct CacheMeter {
    current: Option<(Arc<DensityCache>, [u64; 4])>,
    done: [u64; 4],
}

fn counters(c: &DensityCache) -> [u64; 4] {
    [c.hits(), c.misses(), c.evictions(), c.bfs_invocations()]
}

impl CacheMeter {
    /// Note the context's current cache (call after every request).
    pub fn observe(&mut self, ctx: &TescContext) {
        let cache = ctx.snapshot().density_cache().clone();
        if let Some((cur, _)) = &self.current {
            if Arc::ptr_eq(cur, &cache) {
                return;
            }
        }
        self.retire();
        let base = counters(&cache);
        self.current = Some((cache, base));
    }

    fn retire(&mut self) {
        if let Some((cache, base)) = self.current.take() {
            let now = counters(&cache);
            for i in 0..4 {
                self.done[i] += now[i] - base[i];
            }
        }
    }

    /// `[hits, misses, evictions, bfs_invocations]` so far, plus the
    /// current cache's resident bytes.
    pub fn totals(&self) -> ([u64; 4], usize) {
        let mut t = self.done;
        let mut resident = 0;
        if let Some((cache, base)) = &self.current {
            let now = counters(cache);
            for i in 0..4 {
                t[i] += now[i] - base[i];
            }
            resident = cache.resident_bytes();
        }
        (t, resident)
    }

    pub fn report(&self, layers: &mut Layers) {
        let ([hits, misses, evictions, bfs], resident) = self.totals();
        let probes = (hits + misses).max(1);
        layers.set("cache.hit_ratio", hits as f64 / probes as f64, "replay");
        layers.set("cache.evictions", evictions as f64, "replay");
        layers.set("cache.resident_bytes", resident as f64, "replay");
        layers.set("cache.bfs_invocations", bfs as f64, "replay");
    }
}

/// The planner stages of an exact ranking, each under its own span:
/// `PairSetPlan::build` (sampling), `run_density_budgeted` (fused
/// density BFS) and `finish` (scatter + correlate), seeded with
/// [`content_seed`] exactly as `rank_pairs` seeds them. Returns the
/// per-pair `z` bit patterns in pair order and the plan's
/// `(sampled_refs, distinct_refs)`.
pub fn planner_stages(
    engine: &TescEngine<'_>,
    pairs: &[EventPair],
    master: u64,
    threads: usize,
    tr: &Tracer,
    req: u64,
) -> (Vec<Option<u64>>, usize, usize) {
    let cfg = Inputs::cfg();
    let seeds: Vec<u64> = pairs
        .iter()
        .map(|p| content_seed(master, &p.a, &p.b))
        .collect();
    let plan = tr.time("planner.plan", req, || {
        PairSetPlan::build(engine, pairs, &cfg, &seeds, threads)
    });
    let fused = tr.time("planner.density", req, || {
        plan.run_density_budgeted(threads, &Budget::unlimited())
            .expect("unlimited budget")
    });
    let outcomes = tr.time("planner.finish", req, || plan.finish(&fused));
    let z = outcomes
        .iter()
        .map(|o| o.result.as_ref().ok().map(|r| r.z().to_bits()))
        .collect();
    (z, plan.sampled_refs(), plan.distinct_refs())
}

/// Planner and density metrics from the traced `planner.*` spans and
/// the plans' reference counts.
pub fn planner_metrics(
    layers: &mut Layers,
    tr: &Tracer,
    sampled: usize,
    distinct: usize,
    source: &'static str,
) {
    let agg = tr.aggregate();
    let med = |name: &str| agg.get(name).map_or(f64::NAN, |a| a.median_ns() / 1e6);
    let density_total_s = agg
        .get("planner.density")
        .map_or(f64::NAN, |a| a.total_ns as f64 / 1e9);
    layers.set("planner.plan_ms", med("planner.plan"), source);
    layers.set("planner.density_ms", med("planner.density"), source);
    layers.set("planner.finish_ms", med("planner.finish"), source);
    layers.set(
        "planner.share_factor",
        sampled as f64 / distinct.max(1) as f64,
        source,
    );
    layers.set(
        "density.refs_per_s",
        distinct as f64 / density_total_s,
        source,
    );
}

/// `RankReport` fields, averaged over the reports given.
pub fn rank_metrics(layers: &mut Layers, reports: &[(usize, f64, usize)], source: &'static str) {
    let n = reports.len().max(1) as f64;
    let sum = |f: fn(&(usize, f64, usize)) -> f64| reports.iter().map(f).sum::<f64>() / n;
    layers.set("rank.rounds", sum(|r| r.0 as f64), source);
    layers.set("rank.mean_samples_per_pair", sum(|r| r.1), source);
    layers.set("rank.pruned", sum(|r| r.2 as f64), source);
}

pub fn rank_fields(r: &RankReport) -> (usize, f64, usize) {
    (r.rounds, r.mean_samples_per_pair(), r.pruned)
}

/// The serve probe: send `ops` to a fresh in-process `Server` over one
/// keep-alive connection (closed loop), replay the same `ops`
/// in-process on another fresh context, and report per class the
/// client latency minus the in-process handler time (`serve.*_self_us`),
/// plus the JSON parse + encode time and the non-2xx count.
pub fn serve_probe(
    layers: &mut Layers,
    inputs: &Inputs,
    ops: &[Op],
    make_ctx: &dyn Fn() -> (TescContext, ScratchDir),
) {
    let tr = Tracer::new(true);
    let (ctx, _dir_in) = make_ctx();
    let mut inproc: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    let mut degraded = (0usize, 0usize);
    for (i, op) in ops.iter().enumerate() {
        let t = Instant::now();
        let out = op.replay(inputs, &ctx, &tr, i as u64);
        inproc
            .entry(op.class())
            .or_default()
            .push(ms(t.elapsed()) * 1e3);
        if op.class() == Class::Rank {
            degraded.0 += out.degraded as usize;
            degraded.1 += 1;
        }
    }
    drop(ctx);
    let agg = tr.aggregate();
    // serve.json spans per request: parse + encode.
    let json_per_req = agg.get("serve.json").map_or(f64::NAN, |a| {
        a.total_ns as f64 / 1e3 / agg.get("serve.request").map_or(1, |r| r.count) as f64
    });

    let (ctx, _dir_srv) = make_ctx();
    let server = Server::spawn(
        ctx,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("spawn probe server");
    let mut client = Client::connect(server.addr()).expect("connect probe client");
    let mut socket: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    let mut failed = 0u64;
    for op in ops {
        let (path, body) = op.http(inputs);
        let t = Instant::now();
        let mut ok = client
            .request("POST", path, &body)
            .is_ok_and(|r| r.status / 100 == 2);
        if op.class() == Class::Commit {
            ok &= client
                .request("POST", "/commit", "{}")
                .is_ok_and(|r| r.status / 100 == 2);
        }
        failed += (!ok) as u64;
        socket
            .entry(op.class())
            .or_default()
            .push(ms(t.elapsed()) * 1e3);
    }
    drop(client);
    server.shutdown_and_join();

    let self_us = |c: Class| match (socket.get(&c), inproc.get(&c)) {
        (Some(s), Some(i)) => median(s) - median(i),
        _ => f64::NAN,
    };
    for c in [Class::Test, Class::Rank, Class::Commit] {
        if let (Some(s), Some(i)) = (socket.get(&c), inproc.get(&c)) {
            println!(
                "  serve probe {:<7} client p50 {:>9.1} us  in-process p50 {:>9.1} us  n={}",
                c.name(),
                median(s),
                median(i),
                s.len()
            );
        }
    }
    layers.set("serve.self_us", self_us(Class::Test), "probe");
    layers.set("serve.rank_self_us", self_us(Class::Rank), "probe");
    layers.set("serve.json_us", json_per_req, "probe");
    layers.probe("serve.failed", failed as f64);
    if degraded.1 > 0 {
        layers.probe("serve.degraded_frac", degraded.0 as f64 / degraded.1 as f64);
    }
}

/// WAL records for the persist probe: the workload's own ingests,
/// normalized as the writer path logs them (edges `u < v`, novel).
pub fn wal_records(inputs: &Inputs, ops: &[Op]) -> Vec<WalRecord> {
    ops.iter()
        .filter_map(|op| match op {
            Op::AddOccurrences { event, nodes } => Some(WalRecord::AddOccurrences {
                event: *event as u32,
                nodes: nodes.clone(),
            }),
            Op::AddEdges { edges } => {
                let mut e: Vec<(NodeId, NodeId)> = edges
                    .iter()
                    .map(|&(u, v)| (u.min(v), u.max(v)))
                    .filter(|&(u, v)| !inputs.graph.has_edge(u, v))
                    .collect();
                e.sort_unstable();
                e.dedup();
                (!e.is_empty()).then_some(WalRecord::AddEdges { edges: e })
            }
            _ => None,
        })
        .collect()
}

/// Probes of the layers below the context: graph, persist, sampler,
/// stats, context writes and snapshot pinning. Each is timed around
/// one public call on this workload's generated inputs; values the
/// replay already measured are kept.
pub fn probe_layers(
    layers: &mut Layers,
    inputs: &Inputs,
    pairs: &[(usize, usize)],
    ingests: &[Op],
    seed: u64,
    tr: &Tracer,
) {
    let threads = nproc();
    let g = &inputs.graph;

    // context.build_s and graph.vicinity_build_ms.
    let t = Instant::now();
    let ctx = tr.time("context.build", 0, || {
        TescContext::with_threads(g.clone(), inputs.events.clone(), MAX_H, threads)
    });
    layers.probe("context.build_s", t.elapsed().as_secs_f64());
    let mut builds = Vec::new();
    for _ in 0..2 {
        let t = Instant::now();
        let v = tr.time("graph.vicinity_build", 0, || {
            VicinityIndex::build_parallel(g, MAX_H, threads)
        });
        builds.push(ms(t.elapsed()));
        std::hint::black_box(v);
    }
    layers.probe("graph.vicinity_build_ms", median(&builds));

    // graph.with_edges_ms and graph.vicinity_refresh_ms on the
    // workload's own edge deltas.
    let records = wal_records(inputs, ingests);
    let deltas: Vec<&Vec<(NodeId, NodeId)>> = records
        .iter()
        .filter_map(|r| match r {
            WalRecord::AddEdges { edges } => Some(edges),
            _ => None,
        })
        .take(5)
        .collect();
    let (mut with_edges, mut refresh) = (Vec::new(), Vec::new());
    let snap = ctx.snapshot();
    for edges in &deltas {
        let t = Instant::now();
        let g2 = tr.time("graph.with_edges", 0, || g.with_edges(edges));
        with_edges.push(ms(t.elapsed()));
        let mut touched: Vec<NodeId> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        touched.sort_unstable();
        touched.dedup();
        let t = Instant::now();
        let v = tr.time("graph.vicinity_refresh", 0, || {
            snap.vicinity().refreshed(&g2, None, &touched)
        });
        refresh.push(ms(t.elapsed()));
        std::hint::black_box(v);
    }
    layers.probe("graph.with_edges_ms", median(&with_edges));
    layers.probe("graph.vicinity_refresh_ms", median(&refresh));

    // persist.*: append the workload's records to a scratch segment
    // (fsync on), checkpoint, decode and recover.
    let dir = ScratchDir::new("persist-probe");
    let opts = StoreOptions {
        snapshot_every: u64::MAX,
        fsync: true,
        keep_snapshots: 1,
    };
    let store = Store::open(dir.path(), opts).expect("open probe store");
    let t = Instant::now();
    tr.time("persist.checkpoint", 0, || {
        store
            .write_snapshot(1, g, &inputs.events)
            .expect("write snapshot")
    });
    layers.probe("persist.checkpoint_ms", ms(t.elapsed()));
    let bytes = encode_snapshot(1, g, &inputs.events);
    layers.probe("persist.snapshot_bytes", bytes.len() as f64);
    let mut decodes = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let d = tr.time("graph.snapshot_decode", 0, || decode_snapshot(&bytes));
        decodes.push(ms(t.elapsed()));
        assert!(d.is_ok(), "snapshot decodes");
    }
    layers.probe("graph.snapshot_decode_ms", median(&decodes));
    let mut wal = WalWriter::create(&dir.path().join(segment_file_name(1)), 1, true)
        .expect("create probe segment");
    let mut appends = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let t = Instant::now();
        tr.time("persist.wal_append", 0, || {
            wal.append(i as u64 + 2, r).expect("append")
        });
        appends.push(ms(t.elapsed()) * 1e3);
    }
    layers.probe("persist.wal_append_us", median(&appends));
    layers.probe(
        "persist.wal_bytes_per_commit",
        wal.bytes() as f64 / wal.records().max(1) as f64,
    );
    drop(wal);
    let mut recovers = Vec::new();
    for _ in 0..2 {
        let t = Instant::now();
        let r = tr.time("persist.recover", 0, || store.recover());
        recovers.push(ms(t.elapsed()));
        let r = r.expect("recover").expect("data present");
        assert_eq!(
            r.records_replayed as usize,
            records.len(),
            "every record replays"
        );
    }
    layers.probe("persist.recover_ms", median(&recovers));
    drop(dir);

    // sampler.* and stats.kendall_us: Batch BFS (the configured
    // sampler) on the union of each pair, then Kendall τ + z on the
    // n = 300 density vectors of those references.
    let mut scratch = BfsScratch::new(g.num_nodes());
    let (mut sample_us, mut draws, mut refs, mut kendall_us) =
        (Vec::new(), 0usize, 0usize, Vec::new());
    for (k, &(a, b)) in pairs.iter().take(8).enumerate() {
        let union = tesc_events::store::merge_union(inputs.nodes(a), inputs.nodes(b));
        let mut rng = StdRng::seed_from_u64(content_seed(seed, inputs.nodes(a), inputs.nodes(b)));
        let t = Instant::now();
        let sample = tr.time("sampler", 0, || {
            tesc::sampler::batch_bfs_sample(g, &mut scratch, &union, MAX_H, SAMPLE_N, &mut rng)
        });
        sample_us.push(ms(t.elapsed()) * 1e3);
        draws += sample.draws;
        refs += sample.nodes.len();
        if k < 2 {
            let mask_a = NodeMask::from_nodes(g.num_nodes(), inputs.nodes(a));
            let mask_b = NodeMask::from_nodes(g.num_nodes(), inputs.nodes(b));
            let (mut sa, mut sb, mut ball) = (Vec::new(), Vec::new(), Vec::new());
            for &r in &sample.nodes {
                scratch.h_vicinity_into(g, &[r], MAX_H, &mut ball);
                let n = ball.len() as f64;
                sa.push(ball.iter().filter(|&&v| mask_a.contains(v)).count() as f64 / n);
                sb.push(ball.iter().filter(|&&v| mask_b.contains(v)).count() as f64 / n);
            }
            for _ in 0..20 {
                let t = Instant::now();
                let s = tr.time("stats.kendall", 0, || {
                    kendall_tau(&sa, &sb, KendallMethod::MergeSort)
                });
                kendall_us.push(ms(t.elapsed()) * 1e3);
                std::hint::black_box(s);
            }
        }
    }
    layers.probe("sampler.us", median(&sample_us));
    layers.probe("sampler.draws_per_ref", draws as f64 / refs.max(1) as f64);
    layers.probe("stats.kendall_us", median(&kendall_us));

    // engine.test_us on the probe context (cold cache).
    let mut tests = Vec::new();
    for &(a, b) in pairs.iter().take(8) {
        let t = Instant::now();
        let r = tr.time("engine.test", 0, || {
            snap.engine().test(
                inputs.nodes(a),
                inputs.nodes(b),
                &Inputs::cfg(),
                &mut StdRng::seed_from_u64(seed),
            )
        });
        tests.push(ms(t.elapsed()) * 1e3);
        assert!(r.is_ok(), "probe test succeeds");
    }
    layers.probe("engine.test_us", median(&tests));
    drop(snap);

    // context.pin_us: snapshot() p99 on one thread while another
    // commits the workload's ingests through the writer path.
    let stop = AtomicBool::new(false);
    let mut pins = Vec::new();
    let (mut add_edges, mut add_event) = (Vec::new(), Vec::new());
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            for op in ingests.iter().take(24) {
                let t = Instant::now();
                op.apply_ingest(&ctx);
                match op {
                    Op::AddEdges { .. } => add_edges.push(ms(t.elapsed())),
                    _ => add_event.push(ms(t.elapsed())),
                }
            }
            stop.store(true, Ordering::SeqCst);
        });
        while !stop.load(Ordering::SeqCst) {
            let t = Instant::now();
            let snap = ctx.snapshot();
            pins.push(ms(t.elapsed()) * 1e3);
            std::hint::black_box(snap);
        }
        writer.join().expect("writer thread");
    });
    layers.probe("context.pin_us", percentile(&pins, 0.99));
    layers.probe("context.add_edges_ms", median(&add_edges));
    layers.probe("context.add_event_ms", median(&add_event));

    // planner.* and rank.* on a pair set of this workload, when the
    // replay had no ranking of its own.
    if !layers.has("planner.plan_ms") || !layers.has("rank.rounds") {
        let snap = ctx.snapshot();
        let set: Vec<EventPair> = pairs
            .iter()
            .take(23)
            .map(|&(a, b)| snap.event_pair(tesc::EventId(a as u32), tesc::EventId(b as u32)))
            .collect();
        let engine = snap.engine();
        if !layers.has("planner.plan_ms") {
            let ptr = Tracer::new(true);
            let (_, sampled, distinct) = planner_stages(&engine, &set, seed, threads, &ptr, 0);
            planner_metrics(layers, &ptr, sampled, distinct, "probe");
        }
        if !layers.has("rank.rounds") {
            let req = RankRequest::new(Inputs::cfg())
                .with_seed(seed)
                .with_threads(threads)
                .with_pairs(set)
                .with_top_k(10)
                .with_mode(RankMode::Anytime { eps: 0.2 });
            let r = tr.time("rank.anytime", 0, || rank_pairs(&engine, &req));
            rank_metrics(layers, &[rank_fields(&r)], "probe");
        }
    }
}

/// Tracing overhead and span coverage, the coverage check, and the
/// span file.
#[allow(clippy::too_many_arguments)]
pub fn finish_trace(
    layers: &mut Layers,
    tr: &Tracer,
    w0: f64,
    w1: f64,
    covered: f64,
    workload: &str,
    seed: u64,
    report: &mut Report,
) {
    let coverage = covered / w1;
    println!(
        "trace: untraced wall {w0:.3} s, traced wall {w1:.3} s, overhead {:+.2}%; self times cover {:.1}% of the traced wall",
        (w1 - w0) / w0 * 100.0,
        coverage * 100.0
    );
    println!("self time by span (traced replay):");
    for (name, a) in tr.aggregate() {
        println!(
            "  {name:<24} n={:<7} total {:>10.3} ms  self {:>10.3} ms  p50 {:>10.1} us",
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6,
            a.median_ns() / 1e3
        );
    }
    report.check((0.9..=1.0 + 1e-9).contains(&coverage), || {
        format!(
            "span self times cover {:.1}% of the traced wall, outside 90–100%",
            coverage * 100.0
        )
    });
    layers.set("trace.overhead_frac", (w1 - w0) / w0, "replay");
    layers.set("trace.coverage", coverage, "replay");
    layers.set("trace.spans", tr.spans().len() as f64, "replay");
    let out = std::path::Path::new(".bench_out");
    if std::fs::create_dir_all(out).is_ok() {
        let path = out.join(format!("trace-{workload}-seed{seed}.jsonl"));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("trace: spans written to {}", path.display()),
            Err(e) => println!("trace: could not write spans: {e}"),
        }
    }
}
