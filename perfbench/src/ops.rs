//! The serving workload's request model: one [`Op`] is either sent to
//! the daemon over HTTP, or replayed in-process through the same
//! public calls the daemon's handler makes (socket bypassed), with a
//! span around each layer the handler crosses.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tesc::serve::json::{obj, Json};
use tesc::{rank_pairs_budgeted, Budget, EventId, NodeId, RankMode, RankRequest, TescContext};

use crate::inputs::{Inputs, MAX_H, SAMPLE_N};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Test,
    Rank,
    Commit,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Test => "test",
            Class::Rank => "rank",
            Class::Commit => "commit",
        }
    }
}

/// One request (an ingest is a stage request followed by `/commit`).
#[derive(Debug, Clone)]
pub enum Op {
    Test {
        a: usize,
        b: usize,
        seed: u64,
    },
    Rank {
        focus: usize,
        h: u32,
        seed: u64,
        deadline_ms: u64,
    },
    AddOccurrences {
        event: usize,
        nodes: Vec<NodeId>,
    },
    AddEdges {
        edges: Vec<(NodeId, NodeId)>,
    },
}

/// What one request produced, for the correctness gates.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub ok: bool,
    pub status: u16,
    pub version: u64,
    pub z_bits: String,
    pub degraded: bool,
    /// `RankReport` rounds, mean samples per pair and pruned count.
    pub rank: Option<(usize, f64, usize)>,
}

fn ids(nodes: &[NodeId]) -> String {
    let items: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
    items.join(",")
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Test { .. } => Class::Test,
            Op::Rank { .. } => Class::Rank,
            _ => Class::Commit,
        }
    }

    /// `(path, body)` of the request; ingests are followed by
    /// `POST /commit`.
    pub fn http(&self, inputs: &Inputs) -> (&'static str, String) {
        match self {
            Op::Test { a, b, seed } => (
                "/test",
                format!(
                    "{{\"events\":[\"{}\",\"{}\"],\"h\":{MAX_H},\"n\":{SAMPLE_N},\"seed\":{seed}}}",
                    inputs.name(*a),
                    inputs.name(*b)
                ),
            ),
            Op::Rank {
                focus,
                h,
                seed,
                deadline_ms,
            } => (
                "/rank",
                format!(
                    "{{\"focus\":\"{}\",\"h\":{h},\"n\":{SAMPLE_N},\"seed\":{seed},\"deadline_ms\":{deadline_ms}}}",
                    inputs.name(*focus)
                ),
            ),
            Op::AddOccurrences { event, nodes } => (
                "/events",
                format!(
                    "{{\"name\":\"{}\",\"nodes\":[{}]}}",
                    inputs.name(*event),
                    ids(nodes)
                ),
            ),
            Op::AddEdges { edges } => {
                let items: Vec<String> = edges.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
                ("/edges", format!("{{\"edges\":[{}]}}", items.join(",")))
            }
        }
    }

    /// Replay the request in-process: parse the body, pin a snapshot,
    /// run the same library call the handler runs and encode the
    /// response. `req` tags the spans.
    pub fn replay(&self, inputs: &Inputs, ctx: &TescContext, tr: &Tracer, req: u64) -> Outcome {
        let _root = tr.span("serve.request", req);
        let (_, text) = self.http(inputs);
        let body = tr.time("serve.json", req, || {
            Json::parse(&text).expect("valid body")
        });
        match self {
            Op::Test { .. } => {
                let snap = tr.time("context.pin", req, || ctx.snapshot());
                let names = body.get("events").and_then(Json::as_array).expect("events");
                let id = |j: &Json| {
                    snap.events()
                        .id_by_name(j.as_str().expect("name"))
                        .expect("registered event")
                };
                let (a, b) = (
                    snap.events().nodes(id(&names[0])).to_vec(),
                    snap.events().nodes(id(&names[1])).to_vec(),
                );
                let seed = body.get("seed").and_then(Json::as_u64).expect("seed");
                let result = tr.time("engine.test", req, || {
                    snap.engine()
                        .test(&a, &b, &Inputs::cfg(), &mut StdRng::seed_from_u64(seed))
                });
                let Ok(r) = result else {
                    return Outcome::default();
                };
                let z_bits = format!("{:016x}", r.z().to_bits());
                tr.time("serve.json", req, || {
                    obj([
                        ("version", Json::Int(snap.version() as i64)),
                        ("seed", Json::Int(seed as i64)),
                        (
                            "result",
                            obj([
                                ("statistic", Json::Num(r.statistic())),
                                ("z", Json::Num(r.z())),
                                ("z_bits", Json::Str(z_bits.clone())),
                                ("p_value", Json::Num(r.outcome.p_value)),
                                ("n_refs", Json::Int(r.n_refs as i64)),
                                ("draws", Json::Int(r.draws as i64)),
                            ]),
                        ),
                    ])
                    .encode()
                });
                Outcome {
                    ok: true,
                    status: 200,
                    version: snap.version(),
                    z_bits,
                    ..Outcome::default()
                }
            }
            Op::Rank { .. } => {
                let snap = tr.time("context.pin", req, || ctx.snapshot());
                let focus = snap
                    .events()
                    .id_by_name(body.get("focus").and_then(Json::as_str).expect("focus"))
                    .expect("registered event");
                let pairs: Vec<_> = snap
                    .events()
                    .pairs_with(focus)
                    .into_iter()
                    .map(|(a, b)| snap.event_pair(a, b))
                    .collect();
                let k = pairs.len();
                let seed = body.get("seed").and_then(Json::as_u64).expect("seed");
                let h = body.get("h").and_then(Json::as_u64).expect("h") as u32;
                let rreq = RankRequest::new(Inputs::cfg_at(h))
                    .with_seed(seed)
                    .with_threads(1)
                    .with_pairs(pairs)
                    .with_top_k(k)
                    .with_mode(RankMode::Anytime { eps: 0.0 });
                let deadline = body
                    .get("deadline_ms")
                    .and_then(Json::as_u64)
                    .expect("deadline");
                let budget = Budget::with_deadline(Duration::from_millis(deadline));
                let result = tr.time("rank.anytime", req, || {
                    rank_pairs_budgeted(&snap.engine().with_budget(budget), &rreq)
                });
                let Ok(report) = result else {
                    return Outcome {
                        status: 504,
                        ..Outcome::default()
                    };
                };
                tr.time("serve.json", req, || {
                    let ranked: Vec<Json> = report
                        .ranked
                        .iter()
                        .map(|e| {
                            obj([
                                ("rank", Json::Int(e.rank as i64)),
                                ("label", Json::Str(e.label.clone())),
                                ("score", Json::Num(e.score)),
                                (
                                    "z_bits",
                                    Json::Str(format!("{:016x}", e.result.z().to_bits())),
                                ),
                            ])
                        })
                        .collect();
                    obj([
                        ("version", Json::Int(snap.version() as i64)),
                        ("degraded", Json::Bool(report.degraded)),
                        ("ranked", Json::Arr(ranked)),
                    ])
                    .encode()
                });
                Outcome {
                    ok: true,
                    status: 200,
                    version: snap.version(),
                    degraded: report.degraded,
                    rank: Some(crate::layers::rank_fields(&report)),
                    ..Outcome::default()
                }
            }
            Op::AddOccurrences { .. } => {
                let snap = tr.time("context.pin", req, || ctx.snapshot());
                let id = snap
                    .events()
                    .id_by_name(body.get("name").and_then(Json::as_str).expect("name"))
                    .expect("registered event");
                let nodes = node_list(body.get("nodes").expect("nodes"));
                drop(snap);
                let r = tr.time("context.add_event", req, || {
                    ctx.add_event_occurrences(id, &nodes)
                });
                commit_outcome(r.map(|s| s.version()), tr, req)
            }
            Op::AddEdges { .. } => {
                let edges: Vec<(NodeId, NodeId)> = body
                    .get("edges")
                    .and_then(Json::as_array)
                    .expect("edges")
                    .iter()
                    .map(|e| {
                        let uv = node_list(e);
                        (uv[0], uv[1])
                    })
                    .collect();
                let r = tr.time("context.add_edges", req, || ctx.add_edges(&edges));
                commit_outcome(r.map(|s| s.version()), tr, req)
            }
        }
    }

    /// Apply an ingest op directly (the offline mirror of `/commit`).
    pub fn apply_ingest(&self, ctx: &TescContext) -> u64 {
        let snap = match self {
            Op::AddOccurrences { event, nodes } => {
                ctx.add_event_occurrences(EventId(*event as u32), nodes)
            }
            Op::AddEdges { edges } => ctx.add_edges(edges),
            _ => panic!("not an ingest op"),
        };
        snap.expect("generated ingests are valid").version()
    }
}

fn node_list(j: &Json) -> Vec<NodeId> {
    j.as_array()
        .expect("array")
        .iter()
        .map(|v| v.as_u64().expect("node id") as NodeId)
        .collect()
}

fn commit_outcome(r: Result<u64, tesc::IngestError>, tr: &Tracer, req: u64) -> Outcome {
    match r {
        Ok(version) => {
            tr.time("serve.json", req, || {
                obj([
                    ("version", Json::Int(version as i64)),
                    ("committed", Json::Bool(true)),
                ])
                .encode()
            });
            Outcome {
                ok: true,
                status: 200,
                version,
                ..Outcome::default()
            }
        }
        Err(_) => Outcome {
            status: 500,
            ..Outcome::default()
        },
    }
}
