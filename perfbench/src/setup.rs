//! Set-up: generate the Twitter-like property graph, load the stores a
//! workload needs, and pin the query constants that come from the graph.

use std::collections::BTreeMap;
use std::time::Instant;

use pgrdf::{LoadOptions, PartitionLayout, PgRdfModel, PgRdfStore, PgVocab};
use propertygraph::{PropertyGraph, VertexId};
use twittergen::TwitterGenConfig;

/// Generator seed of the graph. The graph is the paper's dataset analogue
/// and stays fixed; the workload seed drives query constants and order.
pub const GRAPH_SEED: u64 = 0x0077_1773;

/// One loaded store and the encoding it holds.
pub struct Loaded {
    /// `NG` or `SP`.
    pub name: &'static str,
    /// The facade over the store.
    pub store: PgRdfStore,
}

/// The outcome of one generate-plus-load.
pub struct Built {
    /// The generated property graph.
    pub graph: PropertyGraph,
    /// The loaded stores, NG first.
    pub stores: Vec<Loaded>,
    /// Seconds spent in `twittergen::generate`.
    pub generate_s: f64,
    /// Seconds spent in `PgRdfStore::load_with`, all stores.
    pub load_s: f64,
    /// Quads loaded, all stores.
    pub quads: u64,
}

/// Generates the graph at `scale` and loads one store per model with
/// the given layout.
pub fn build(scale: f64, models: &[PgRdfModel], layout: PartitionLayout) -> Built {
    let t0 = Instant::now();
    let graph = twittergen::generate(&TwitterGenConfig::with_seed(scale, GRAPH_SEED));
    let generate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let stores: Vec<Loaded> = models
        .iter()
        .map(|&model| {
            let store = PgRdfStore::load_with(
                &graph,
                model,
                LoadOptions {
                    vocab: PgVocab::twitter(),
                    layout,
                    ..Default::default()
                },
            )
            .expect("generated graph loads");
            let name = match model {
                PgRdfModel::NG => "NG",
                PgRdfModel::SP => "SP",
                PgRdfModel::RF => "RF",
            };
            Loaded { name, store }
        })
        .collect();
    let load_s = t1.elapsed().as_secs_f64();
    let quads = stores.iter().map(|l| l.store.stats().quads as u64).sum();
    Built {
        graph,
        stores,
        generate_s,
        load_s,
        quads,
    }
}

/// The pinned benchmark tag (the paper's `#webseries` analogue).
pub struct TagChoice {
    /// The tag string.
    pub tag: String,
    /// Vertices carrying it.
    pub nodes: usize,
    /// Edges carrying it.
    pub edges: usize,
}

/// Among tags on at least one edge, the tag whose vertex count is closest
/// to the paper's 251 / 76,245 share (at least 15 vertices, so the 3-hop
/// chains of EQ3/EQ7 match). Ties go to the smallest tag string, so every
/// process picks the same tag.
pub fn choose_tag(graph: &PropertyGraph) -> TagChoice {
    let node_counts = tag_counts(graph.vertices().map(|(_, v)| &v.props));
    let edge_counts = tag_counts(graph.edges().map(|(_, e)| &e.props));
    let target = (graph.vertex_count() as f64 * 251.0 / 76_245.0).max(15.0) as usize;
    let (tag, nodes) = node_counts
        .iter()
        .filter(|(t, _)| edge_counts.contains_key(*t))
        .min_by_key(|(t, c)| (c.abs_diff(target), (*t).clone()))
        .map(|(t, c)| (t.clone(), *c))
        .expect("some tag occurs on an edge");
    let edges = edge_counts[&tag];
    TagChoice { tag, nodes, edges }
}

/// `hasTag` value -> number of carriers, over a set of property maps.
fn tag_counts<'a>(
    props: impl Iterator<Item = &'a BTreeMap<String, Vec<propertygraph::PropValue>>>,
) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for p in props {
        for t in p.get("hasTag").into_iter().flatten() {
            if let Some(s) = t.as_str() {
                *counts.entry(s.to_string()).or_default() += 1;
            }
        }
    }
    counts
}

/// Candidate EQ11 start vertices: the four whose 3-hop `follows` path
/// count is closest (by ratio, ties by id) to that of the max-out-degree
/// vertex the paper-style fixture uses. Table 10 rounds rotate over them
/// in a seeded order, so EQ11's cost hardly depends on the seed.
pub fn eq11_candidates(graph: &PropertyGraph) -> Vec<VertexId> {
    let paths3 = path_counts(graph, 3);
    let reference = paths3[&twittergen::eq11_start_node(graph)].max(1) as f64;
    let mut ranked: Vec<(f64, VertexId)> = paths3
        .iter()
        .filter(|(_, &c)| c > 0)
        .map(|(&v, &c)| (((c as f64) / reference).ln().abs(), v))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked.into_iter().take(4).map(|(_, v)| v).collect()
}

/// Number of `follows` paths of exactly `hops` edges from every vertex.
fn path_counts(graph: &PropertyGraph, hops: usize) -> BTreeMap<VertexId, u64> {
    let mut counts: BTreeMap<VertexId, u64> = graph.vertex_ids().map(|v| (v, 1)).collect();
    for _ in 0..hops {
        counts = graph
            .vertex_ids()
            .map(|v| {
                let n = graph
                    .out_neighbors(v, Some("follows"))
                    .map(|u| counts[&u])
                    .sum();
                (v, n)
            })
            .collect();
    }
    counts
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
