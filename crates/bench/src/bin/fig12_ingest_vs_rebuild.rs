//! **Figure 12** (beyond the paper) — incremental vicinity-index
//! maintenance vs. from-scratch rebuild under edge ingestion.
//!
//! The paper remarks that the offline `|V^h_v|` index "can be
//! efficiently updated as the graph changes" (Sec. 4.2); the versioned
//! `TescContext` is built on exactly that path. This binary quantifies
//! the claim: starting from a DBLP-like graph, ingest batches of
//! random new edges and time
//!
//! * `ingest` — `TescContext::add_edges` (the delta merged into the
//!   CSR rows, then a per-node refresh of the dirty region only: the
//!   nodes within `h − 1` hops of the new edges' endpoints), and
//! * `rebuild` — a full `VicinityIndex::build` over the new graph,
//!
//! verifying after every batch that both routes produce identical
//! indexes; any difference exits 1, so a run at `--h 1` and one at
//! `--h 3` check both ends of the dirty-region bound. Output format (TSV-ish, one row per batch size):
//!
//! ```text
//! h  batch_edges  ingest_ms  rebuild_ms  speedup  identical
//! 2  16           0.7        2.1         2.8      yes
//! ```
//!
//! `speedup` > 1 means incremental ingestion beats rebuilding; the gap
//! narrows as the batch grows (the dirty region approaches the whole
//! graph) — the crossover is the interesting part of the chart.
//!
//! Run: `cargo run --release -p tesc_bench --bin fig12_ingest_vs_rebuild`
//! Flags: `--scale small|medium|large`, `--h H`, `--rounds N`,
//! `--seed N`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tesc::context::TescContext;
use tesc::EventStore;
use tesc_bench::{dblp_scenario, flag, mean_ms, parse_flags, scale_flag, time};
use tesc_graph::{NodeId, VicinityIndex};

const USAGE: &str = "fig12_ingest_vs_rebuild — incremental index update vs full rebuild
  --scale small|medium|large   graph scale (default small)
  --h H                        vicinity level of the index (default 2)
  --rounds N                   ingest rounds averaged per batch size (default 3)
  --seed N                     base seed (default 42)";

fn main() {
    let flags = parse_flags(USAGE);
    let scale = match flags.get("scale") {
        Some(_) => scale_flag(&flags),
        None => tesc_bench::Scale::Small,
    };
    let h = flag(&flags, "h", 2u32);
    let rounds = flag(&flags, "rounds", 3usize).max(1);
    let seed = flag(&flags, "seed", 42u64);

    eprintln!("building DBLP-like scenario ({scale:?}) and its |V^h_v| index (h = {h})...");
    let s = dblp_scenario(scale, seed);
    let n = s.graph.num_nodes();

    println!("h  batch_edges  ingest_ms  rebuild_ms  speedup  identical");
    let mut all_identical = true;
    for batch_edges in [1usize, 4, 16, 64, 256] {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(batch_edges as u64));
        let mut ingest_times = Vec::with_capacity(rounds);
        let mut rebuild_times = Vec::with_capacity(rounds);
        let mut identical = true;
        for _ in 0..rounds {
            // Fresh context per round so every measurement ingests into
            // the same baseline graph.
            let ctx = TescContext::new(s.graph.clone(), EventStore::new(), h);
            let delta: Vec<(NodeId, NodeId)> = std::iter::repeat_with(|| {
                let u = rng.gen_range(0..n as NodeId);
                let v = rng.gen_range(0..n as NodeId);
                (u, v)
            })
            .filter(|&(u, v)| u != v)
            .take(batch_edges)
            .collect();
            let (snap, ingest) = time(|| ctx.add_edges(&delta).expect("valid delta"));
            let (full, rebuild) = time(|| VicinityIndex::build(snap.graph(), h));
            identical &= *snap.vicinity() == full;
            ingest_times.push(ingest);
            rebuild_times.push(rebuild);
        }
        let (im, rm) = (mean_ms(&ingest_times), mean_ms(&rebuild_times));
        println!(
            "{h}  {batch_edges:<11}  {im:<9.1}  {rm:<10.1}  {:<7.1}  {}",
            rm / im.max(1e-9),
            if identical { "yes" } else { "NO" }
        );
        all_identical &= identical;
    }
    if !all_identical {
        eprintln!("FAIL: incremental index diverged from the from-scratch rebuild");
        std::process::exit(1);
    }
}
