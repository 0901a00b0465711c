//! Anytime ranking property suite: the progressive executor's three
//! contracts, asserted on seeded scenarios.
//!
//! * **eps = 0 is exact, bit for bit.** With an infinite confidence
//!   interval nothing is decided early, every pair reaches the full
//!   sample size, and the anytime top-K must be bit-identical to the
//!   exact ranking — across the kernel × relabel × cache × thread
//!   matrix and across every sampler (importance bypasses the
//!   progressive tiers entirely).
//! * **Monotonicity.** Shrinking eps widens the intervals, postpones
//!   decisions and can only move the output *toward* exact: on a fixed
//!   seed set, recall@K against the exact top-K never decreases as eps
//!   shrinks.
//! * **Sample-prefix contract.** Escalation extends a pair's sample
//!   rather than resampling: for every escalation tier m of the
//!   schedule, the m-prefix of the full-n reference sample drawn from
//!   the pair's content seed is bit-identical to the tier-m sample.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use tesc::batch::EventPair;
use tesc::rank::{content_seed, rank_pairs, rank_pairs_budgeted, RankMode, RankRequest};
use tesc::sampler::{batch_bfs_sample, whole_graph_sample};
use tesc::PairSetPlan;
use tesc::{
    escalation_schedule, BfsKernel, DensityCache, NodeMask, SamplerKind, Tail, TescConfig,
    TescEngine, VicinityIndex,
};
use tesc_graph::{Adjacency, BfsScratch, Budget, CsrGraph, NodeId, Relabeling};

use tesc_datasets::{DblpConfig, DblpScenario, TwitterConfig, TwitterScenario};

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A shared-event candidate list on the DBLP scenario (the planner's
/// target shape, mirroring tests/ranking.rs).
fn candidate_pairs(s: &DblpScenario, seed: u64) -> Vec<EventPair> {
    let (base_a, base_b) = s.plant_positive_keyword_pair(12, 10, 0.25, &mut rng(seed));
    let mut pairs = vec![EventPair::new("base", base_a.clone(), base_b.clone())];
    for i in 0..5 {
        let (_, partner) = s.plant_positive_keyword_pair(12, 10, 0.4, &mut rng(seed + 1 + i));
        pairs.push(EventPair::new(
            format!("base×p{i}"),
            base_a.clone(),
            partner,
        ));
    }
    for i in 0..4 {
        let a = s.plant_uniform_keyword(60, &mut rng(seed + 10 + i));
        let b = s.plant_uniform_keyword(60, &mut rng(seed + 20 + i));
        pairs.push(EventPair::new(format!("bg{i}"), a, b));
    }
    pairs
}

/// The clustered DBLP shared-event workload: top-4 at n = 300, h = 2.
fn dblp_workload() -> (DblpScenario, RankRequest) {
    let s = DblpScenario::build(DblpConfig::small(), &mut rng(60));
    let pairs = candidate_pairs(&s, 61);
    let cfg = TescConfig::new(2)
        .with_sample_size(300)
        .with_tail(Tail::Upper);
    let req = RankRequest::new(cfg)
        .with_seed(8)
        .with_top_k(4)
        .with_pairs(pairs);
    (s, req)
}

/// A skewed Twitter-like all-pairs workload on the scenario built
/// from `scenario_seed`: `hot` planted strong pairs (seeds
/// `scenario_seed + 1 + i`) in a sea of `background` pairs (seeds
/// `scenario_seed + 10 + i`), ranked top-`k` at n = 400, h = 1 — the
/// shape where escalation skew and therefore eps actually matter.
fn twitter_workload(
    scenario_seed: u64,
    hot: u64,
    background: u64,
    master_seed: u64,
    k: usize,
) -> (TwitterScenario, RankRequest) {
    let s = TwitterScenario::build(TwitterConfig::small(), &mut rng(scenario_seed));
    let mut pairs = Vec::new();
    for i in 0..hot {
        let (a, b) = s.plant_correlated_pair(40, 1, &mut rng(scenario_seed + 1 + i));
        pairs.push(EventPair::new(format!("hot{i}"), a, b));
    }
    for i in 0..background {
        let (a, b) = s.plant_background_pair(40, &mut rng(scenario_seed + 10 + i));
        pairs.push(EventPair::new(format!("bg{i:02}"), a, b));
    }
    let cfg = TescConfig::new(1)
        .with_sample_size(400)
        .with_tail(Tail::Upper);
    let req = RankRequest::new(cfg)
        .with_seed(master_seed)
        .with_threads(1)
        .with_top_k(k)
        .with_pairs(pairs);
    (s, req)
}

/// (label, score bits, z bits) fingerprint of a ranking.
fn fingerprint(report: &tesc::RankReport) -> Vec<(String, u64, u64)> {
    report
        .ranked
        .iter()
        .map(|e| (e.label.clone(), e.score.to_bits(), e.result.z().to_bits()))
        .collect()
}

#[test]
fn eps_zero_bit_identical_across_kernel_relabel_cache_threads() {
    let (s, req) = dblp_workload();
    let plain = TescEngine::new(&s.graph);
    let reference = fingerprint(&rank_pairs(&plain, &req.clone().with_threads(1)));
    assert_eq!(reference.len(), 4);
    let cache = std::sync::Arc::new(DensityCache::for_graph(&s.graph));
    let configurations: Vec<(&str, TescEngine<'_>)> = vec![
        ("plain", TescEngine::new(&s.graph)),
        (
            "scalar kernel",
            TescEngine::new(&s.graph).with_density_kernel(BfsKernel::Scalar),
        ),
        (
            "bitset kernel",
            TescEngine::new(&s.graph).with_density_kernel(BfsKernel::Bitset),
        ),
        (
            "multi kernel",
            TescEngine::new(&s.graph).with_density_kernel(BfsKernel::Multi),
        ),
        (
            "bitset+relabel",
            TescEngine::new(&s.graph)
                .with_density_kernel(BfsKernel::Bitset)
                .with_relabeling(true),
        ),
        (
            "cache cold",
            TescEngine::new(&s.graph).with_density_cache(cache.clone()),
        ),
        (
            "cache warm",
            TescEngine::new(&s.graph).with_density_cache(cache),
        ),
    ];
    let anytime = req.clone().with_mode(RankMode::anytime(0.0));
    for (name, engine) in &configurations {
        for threads in [1usize, 4] {
            let report = rank_pairs(engine, &anytime.clone().with_threads(threads));
            assert_eq!(
                &reference,
                &fingerprint(&report),
                "{name} @ {threads} threads: anytime(0) diverged from exact"
            );
            assert!(report.rounds > 1, "{name}: progressive tiers must run");
            for e in &report.ranked {
                assert_eq!(
                    e.decided_at_n, 300,
                    "{name}: eps = 0 must never decide early"
                );
            }
        }
    }
}

#[test]
fn eps_zero_bit_identical_for_every_sampler() {
    let s = DblpScenario::build(DblpConfig::small(), &mut rng(70));
    let idx = VicinityIndex::build(&s.graph, 2);
    let engine = TescEngine::with_vicinity_index(&s.graph, &idx);
    let pairs = candidate_pairs(&s, 71);
    for sampler in [
        SamplerKind::BatchBfs,
        SamplerKind::Rejection,
        SamplerKind::Importance { batch_size: 3 },
        SamplerKind::WholeGraph,
    ] {
        let cfg = TescConfig::new(2)
            .with_sample_size(200)
            .with_tail(Tail::Upper)
            .with_sampler(sampler);
        let req = RankRequest::new(cfg)
            .with_seed(5)
            .with_threads(1)
            .with_top_k(3)
            .with_pairs(pairs.clone());
        let exact = rank_pairs(&engine, &req);
        let zero = rank_pairs(&engine, &req.clone().with_mode(RankMode::anytime(0.0)));
        assert_eq!(
            fingerprint(&exact),
            fingerprint(&zero),
            "{sampler}: anytime(0) diverged from exact"
        );
        if matches!(sampler, SamplerKind::Importance { .. }) {
            assert_eq!(zero.rounds, 1, "{sampler}: importance bypasses the tiers");
        }
    }
}

/// Recall@K of a candidate ranking against the exact top-K label set.
fn recall_vs_exact(exact: &tesc::RankReport, candidate: &tesc::RankReport, k: usize) -> f64 {
    let top: Vec<&str> = exact
        .ranked
        .iter()
        .take(k)
        .map(|e| e.label.as_str())
        .collect();
    let hit = candidate
        .ranked
        .iter()
        .take(k)
        .filter(|e| top.contains(&e.label.as_str()))
        .count();
    hit as f64 / k.min(top.len()).max(1) as f64
}

#[test]
fn shrinking_eps_never_lowers_recall() {
    let (s, req) = twitter_workload(80, 5, 20, 17, 10);
    let exact = rank_pairs(&TescEngine::new(&s.graph), &req);
    let engine = TescEngine::new(&s.graph);
    // eps from permissive to zero: recall must be non-decreasing.
    let mut last = -1.0f64;
    for eps in [0.5, 0.2, 0.05, 0.0] {
        let report = rank_pairs(&engine, &req.clone().with_mode(RankMode::anytime(eps)));
        let recall = recall_vs_exact(&exact, &report, 10);
        assert!(
            recall >= last,
            "recall dropped from {last} to {recall} when eps shrank to {eps}"
        );
        last = recall;
    }
    assert_eq!(last, 1.0, "eps = 0 must reproduce the exact top-K");
}

#[test]
fn escalation_extends_the_sample_prefix() {
    // For every tier m of the escalation schedule, the reference
    // sample a pair draws at tier m is the m-prefix of the sample the
    // exact run draws at full n — from the pair's own content seed,
    // exactly as the planner replays it.
    let s = TwitterScenario::build(TwitterConfig::small(), &mut rng(100));
    let g = &s.graph;
    let mut scratch = BfsScratch::new(g.num_nodes());
    let n = 400usize;
    let h = 1u32;
    let master = 33u64;
    let schedule = escalation_schedule(n, SamplerKind::BatchBfs);
    assert_eq!(*schedule.last().unwrap(), n);
    assert!(schedule.len() >= 3, "n = 400 must yield several tiers");
    for i in 0..6u64 {
        let (a, b) = if i % 2 == 0 {
            s.plant_correlated_pair(40, 1, &mut rng(101 + i))
        } else {
            s.plant_background_pair(40, &mut rng(101 + i))
        };
        let mut union: Vec<NodeId> = a.iter().chain(&b).copied().collect();
        union.sort_unstable();
        union.dedup();
        let seed = content_seed(master, &a, &b);
        let full = batch_bfs_sample(g, &mut scratch, &union, h, n, &mut rng(seed));
        for &m in &schedule {
            let tier = batch_bfs_sample(g, &mut scratch, &union, h, m, &mut rng(seed));
            let len = tier.nodes.len().min(full.nodes.len());
            assert_eq!(
                tier.nodes[..len],
                full.nodes[..len],
                "pair {i}: tier {m} is not a prefix of the full sample"
            );
        }
        // Whole-graph sampling obeys the same contract.
        let mask = NodeMask::from_nodes(g.num_nodes(), &union);
        let full = whole_graph_sample(g, &mut scratch, &mask, h, n, &mut rng(seed));
        for &m in &schedule {
            let tier = whole_graph_sample(g, &mut scratch, &mask, h, m, &mut rng(seed));
            let len = tier.nodes.len().min(full.nodes.len());
            assert_eq!(
                tier.nodes[..len],
                full.nodes[..len],
                "pair {i}: whole-graph tier {m} is not a prefix"
            );
        }
    }
}

#[test]
fn anytime_speedup_mechanics_on_allpairs() {
    // At a practical eps the progressive run must sample measurably
    // fewer reference nodes than exact while keeping the podium.
    let (s, req) = twitter_workload(110, 3, 17, 23, 3);
    let engine = TescEngine::new(&s.graph);
    let exact = rank_pairs(&engine, &req);
    let fast = rank_pairs(&engine, &req.clone().with_mode(RankMode::anytime(0.1)));
    assert!(
        (fast.mean_samples_per_pair()) < 0.7 * exact.mean_samples_per_pair(),
        "anytime sampled {:.0}/pair, exact {:.0}/pair",
        fast.mean_samples_per_pair(),
        exact.mean_samples_per_pair()
    );
    assert!(fast.rounds > 1);
    assert!(
        fast.ranked.iter().any(|e| e.decided_at_n < 400) || fast.pruned > 0,
        "some decision must land before the full tier"
    );
    // The strong pairs stay on the podium.
    let exact_top: Vec<&str> = exact.ranked.iter().map(|e| e.label.as_str()).collect();
    for e in &fast.ranked {
        assert!(
            exact_top.contains(&e.label.as_str()),
            "{} not in the exact top-3",
            e.label
        );
    }
}

/// Everything an anytime ranking decides, reduced to comparable
/// integers: `(rounds, pruned, sampled_refs, digest)`, the digest an
/// FNV-1a hash over every entry's label, score bits, z bits and
/// `decided_at_n`.
type ReportFingerprint = (usize, usize, usize, u64);

fn report_fingerprint(report: &tesc::RankReport) -> ReportFingerprint {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in &report.ranked {
        eat(e.label.as_bytes());
        eat(&e.score.to_bits().to_le_bytes());
        eat(&e.result.z().to_bits().to_le_bytes());
        eat(&(e.decided_at_n as u64).to_le_bytes());
    }
    (report.rounds, report.pruned, report.sampled_refs, digest)
}

#[test]
fn anytime_reports_match_recorded_fingerprints() {
    // Recorded from the executor that drew a fresh tier-m sample for
    // every escalation tier. Reusing one full-n sample prefix per pair
    // must reproduce every decision bit for bit.
    const RECORDED: [(&str, f64, ReportFingerprint); 9] = [
        ("dblp", 0.05, (3, 0, 4800, 1427387249964020070)),
        ("dblp", 0.2, (3, 1, 4500, 1427387249964020070)),
        ("dblp", 0.4, (3, 2, 3900, 1427387249964020070)),
        ("twitter-recall", 0.05, (4, 0, 15250, 12158716758793208392)),
        ("twitter-recall", 0.2, (4, 0, 15250, 12158716758793208392)),
        ("twitter-recall", 0.4, (4, 0, 15250, 12158716758793208392)),
        ("twitter-speedup", 0.05, (4, 17, 2974, 2823598557204315462)),
        ("twitter-speedup", 0.2, (4, 17, 2974, 2823598557204315462)),
        ("twitter-speedup", 0.4, (4, 17, 2974, 2823598557204315462)),
    ];
    let (dblp, dblp_req) = dblp_workload();
    let (recall, recall_req) = twitter_workload(80, 5, 20, 17, 10);
    let (speedup, speedup_req) = twitter_workload(110, 3, 17, 23, 3);
    let workloads = [
        ("dblp", TescEngine::new(&dblp.graph), dblp_req),
        ("twitter-recall", TescEngine::new(&recall.graph), recall_req),
        (
            "twitter-speedup",
            TescEngine::new(&speedup.graph),
            speedup_req,
        ),
    ];
    for (name, eps, recorded) in RECORDED {
        let (_, engine, req) = workloads
            .iter()
            .find(|w| w.0 == name)
            .expect("known workload");
        for threads in [1usize, 4] {
            let req = req
                .clone()
                .with_threads(threads)
                .with_mode(RankMode::anytime(eps));
            let got = report_fingerprint(&rank_pairs(engine, &req));
            assert_eq!(got, recorded, "{name} eps {eps} @ {threads} threads");
        }
    }
}

/// A graph that cancels `budget` on its `cancel_at`-th neighbor scan:
/// a deterministic way to interrupt a ranking at a chosen point of its
/// work, since sampling and density BFS both scan through it.
struct CancellingGraph {
    graph: CsrGraph,
    budget: Budget,
    scans: AtomicU64,
    cancel_at: u64,
}

impl CancellingGraph {
    fn new(graph: &CsrGraph, budget: Budget, cancel_at: u64) -> Self {
        CancellingGraph {
            graph: graph.clone(),
            budget,
            scans: AtomicU64::new(0),
            cancel_at,
        }
    }

    fn scans(&self) -> u64 {
        self.scans.load(Ordering::SeqCst)
    }

    fn scan(&self) {
        if self.scans.fetch_add(1, Ordering::SeqCst) + 1 == self.cancel_at {
            self.budget.cancel();
        }
    }
}

impl Adjacency for CancellingGraph {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }
    fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }
    fn degree(&self, v: NodeId) -> usize {
        self.graph.degree(v)
    }
    fn degree_sum(&self) -> u64 {
        self.graph.degree_sum()
    }
    fn fingerprint(&self) -> u64 {
        self.graph.fingerprint()
    }
    fn resident_bytes(&self) -> usize {
        self.graph.resident_bytes()
    }
    fn neighbors_iter(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.scan();
        self.graph.neighbors(v).iter().copied()
    }
    fn for_each_neighbor(&self, v: NodeId, f: impl FnMut(NodeId)) {
        self.scan();
        self.graph.for_each_neighbor(v, f);
    }
    fn relabeled_twin(&self, map: &Relabeling) -> Self {
        CancellingGraph::new(&self.graph.relabeled(map), self.budget.clone(), u64::MAX)
    }
}

/// The DBLP workload's anytime request, and the neighbor scans its
/// executor spends sampling every pair at full n (`sampling`) and on
/// the first tier's density pass (`first_tier`), counted on a graph
/// that never cancels.
fn dblp_anytime_scans() -> (DblpScenario, RankRequest, u64, u64) {
    let (s, req) = dblp_workload();
    let req = req.with_threads(1).with_mode(RankMode::anytime(0.2));
    let seeds: Vec<u64> = req
        .pairs
        .iter()
        .map(|p| content_seed(req.seed, &p.a, &p.b))
        .collect();
    let counter = CancellingGraph::new(&s.graph, Budget::unlimited(), u64::MAX);
    let engine = TescEngine::new(&counter);
    PairSetPlan::build(&engine, &req.pairs, &req.cfg, &seeds, 1);
    let sampling = counter.scans();
    let first = escalation_schedule(req.cfg.sample_size, SamplerKind::BatchBfs)[0];
    let tier = PairSetPlan::build(
        &engine,
        &req.pairs,
        &req.cfg.with_sample_size(first),
        &seeds,
        1,
    );
    let before = counter.scans();
    tier.run_density(1);
    (s, req, sampling, counter.scans() - before)
}

#[test]
fn cancel_during_sampling_interrupts_and_caches_nothing() {
    let (s, req, sampling, _) = dblp_anytime_scans();
    let budget = Budget::cancellable();
    let graph = CancellingGraph::new(&s.graph, budget.clone(), sampling / 2);
    let cache = std::sync::Arc::new(DensityCache::for_graph(&graph));
    let engine = TescEngine::new(&graph)
        .with_density_cache(cache.clone())
        .with_budget(budget.clone());
    let err = rank_pairs_budgeted(&engine, &req).expect_err("nothing was decided yet");
    assert!(err.cancelled);
    assert!(budget.is_exhausted());
    assert_eq!(cache.len(), 0, "an interrupted ranking inserts nothing");
    assert_eq!(cache.bfs_invocations(), 0, "no density pass started");
}

#[test]
fn cancel_after_the_first_tier_degrades_to_its_estimates() {
    let (s, req, sampling, first_tier) = dblp_anytime_scans();
    // Cancel on the first scan after the first tier's density pass:
    // the second tier's.
    let budget = Budget::cancellable();
    let graph = CancellingGraph::new(&s.graph, budget.clone(), sampling + first_tier + 1);
    let engine = TescEngine::new(&graph).with_budget(budget.clone());
    let report = rank_pairs_budgeted(&engine, &req).expect("tier 1 completed: degrade");
    assert!(budget.is_exhausted());
    assert!(report.degraded);
    assert_eq!(report.rounds, 1);
    assert!(!report.ranked.is_empty());
    for e in &report.ranked {
        assert_eq!(e.decided_at_n, 75, "{}: scored by the first tier", e.label);
    }
}
