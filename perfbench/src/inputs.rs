//! Generated inputs. Everything here is a pure function of the
//! workload seed; the library only ever sees the generated graph,
//! events and request streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tesc::{CsrGraph, EventId, EventStore, NodeId, TescConfig};
use tesc_datasets::dblp_like::{DblpConfig, DblpScenario};
use tesc_datasets::twitter_like::{TwitterConfig, TwitterScenario};

use crate::util::mix;

/// Vicinity level every context indexes; queries use `h ≤ MAX_H`.
pub const MAX_H: u32 = 2;
/// Reference-node sample size of every query.
pub const SAMPLE_N: usize = 300;

/// A graph with its registered events.
pub struct Inputs {
    pub graph: CsrGraph,
    pub events: EventStore,
}

impl Inputs {
    pub fn cfg() -> TescConfig {
        Self::cfg_at(MAX_H)
    }

    pub fn cfg_at(h: u32) -> TescConfig {
        TescConfig::new(h).with_sample_size(SAMPLE_N)
    }

    pub fn nodes(&self, id: usize) -> &[NodeId] {
        self.events.nodes(EventId(id as u32))
    }

    pub fn name(&self, id: usize) -> &str {
        self.events.name(EventId(id as u32))
    }

    /// Every unordered event pair `(i, j)`, `i < j`.
    pub fn all_pairs(&self) -> Vec<(usize, usize)> {
        let e = self.events.num_events();
        (0..e)
            .flat_map(|i| (i + 1..e).map(move |j| (i, j)))
            .collect()
    }

    /// `count` node pairs `(u, v)`, `u ≠ v`, drawn uniformly.
    pub fn random_edges(&self, count: usize, rng: &mut StdRng) -> Vec<(NodeId, NodeId)> {
        let n = self.graph.num_nodes() as NodeId;
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                out.push((u, v));
            }
        }
        out
    }

    pub fn random_nodes(&self, count: usize, rng: &mut StdRng) -> Vec<NodeId> {
        let n = self.graph.num_nodes() as NodeId;
        (0..count).map(|_| rng.gen_range(0..n)).collect()
    }
}

/// DBLP-like co-author graph: 1 000 communities × 50 authors
/// (50 000 nodes, ~480 000 edges) with 40 planted keyword events —
/// 10 attracting and 10 repelling keyword pairs.
pub fn dblp(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(mix(seed, 1));
    let s = DblpScenario::build(
        DblpConfig {
            num_communities: 1000,
            ..DblpConfig::default()
        },
        &mut rng,
    );
    let mut events = EventStore::new();
    for i in 0..10 {
        let (a, b) = s.plant_positive_keyword_pair(20, 5, 0.3, &mut rng);
        events.add_event(format!("pos{i}a"), a);
        events.add_event(format!("pos{i}b"), b);
    }
    for i in 0..10 {
        let (a, b) = s.plant_negative_keyword_pair(10, 10, 2, &mut rng);
        events.add_event(format!("neg{i}a"), a);
        events.add_event(format!("neg{i}b"), b);
    }
    Inputs {
        graph: s.graph,
        events,
    }
}

/// Twitter-like scale-free graph at 100 000 nodes (~800 000 edges)
/// with 24 events of 200 nodes from 12 planted pairs: 4 correlated,
/// 4 anti-correlated, 4 background. Events `2i` and `2i + 1` form
/// planted pair `i`.
pub fn twitter(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(mix(seed, 2));
    let s = TwitterScenario::build(
        TwitterConfig {
            num_nodes: 100_000,
            ..TwitterConfig::default()
        },
        &mut rng,
    );
    let mut events = EventStore::new();
    for i in 0..4 {
        let (a, b) = s.plant_correlated_pair(200, 2, &mut rng);
        events.add_event(format!("cor{i}a"), a);
        events.add_event(format!("cor{i}b"), b);
    }
    for i in 0..4 {
        let (a, b) = s.plant_anticorrelated_pair(200, 2, &mut rng);
        events.add_event(format!("anti{i}a"), a);
        events.add_event(format!("anti{i}b"), b);
    }
    for i in 0..4 {
        let (a, b) = s.plant_background_pair(200, &mut rng);
        events.add_event(format!("bg{i}a"), a);
        events.add_event(format!("bg{i}b"), b);
    }
    Inputs {
        graph: s.graph,
        events,
    }
}
