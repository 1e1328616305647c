//! Result fingerprints and the expected answers of the parameterised read
//! shapes, computed from the generator's property graph.

use std::collections::{BTreeMap, BTreeSet};

use pgrdf::PgVocab;
use propertygraph::{PropValue, PropertyGraph, VertexId};
use rdf_model::Term;
use sparql::Solutions;

/// Row count plus an order-independent hash of the decoded rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Number of rows.
    pub rows: u64,
    /// Wrapping sum of the mixed row hashes (a multiset hash).
    pub hash: u64,
}

impl Fingerprint {
    /// The fingerprint of a multiset of row hashes.
    pub fn of_rows(rows: impl IntoIterator<Item = u64>) -> Fingerprint {
        let mut fp = Fingerprint { rows: 0, hash: 0 };
        for h in rows {
            fp.rows += 1;
            fp.hash = fp.hash.wrapping_add(mix(h));
        }
        fp
    }

    /// The fingerprint of decoded SELECT solutions.
    pub fn of(sols: &Solutions) -> Fingerprint {
        Fingerprint::of_rows(row_hashes(sols))
    }
}

/// SplitMix64 finaliser: spreads a row hash before it is summed.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The canonical text of one cell: integers compare by value, so a COUNT
/// literal and the oracle's count hash alike whatever their datatype.
fn cell_text(term: Option<&Term>) -> String {
    match term {
        None => "UNDEF".to_string(),
        Some(t) => match t.as_literal().and_then(|l| l.as_i64()) {
            Some(i) => format!("int:{i}"),
            None => t.to_string(),
        },
    }
}

/// Hash of one row from its cells.
pub fn row_hash<'a>(cells: impl IntoIterator<Item = Option<&'a Term>>) -> u64 {
    let mut text = String::new();
    for c in cells {
        text.push_str(&cell_text(c));
        text.push('\u{1f}');
    }
    telemetry::fnv1a64(text.as_bytes())
}

/// Row hashes of decoded SELECT solutions.
pub fn row_hashes(sols: &Solutions) -> impl Iterator<Item = u64> + '_ {
    sols.rows
        .iter()
        .map(|r| row_hash(r.iter().map(Option::as_ref)))
}

/// Expected answers of the interactive and mixed read shapes.
pub struct Oracle<'g> {
    graph: &'g PropertyGraph,
    vocab: PgVocab,
    /// Tag -> vertices carrying it.
    tag_nodes: BTreeMap<String, Vec<VertexId>>,
    /// Tag -> `follows` edges carrying it.
    tag_edges: BTreeMap<String, Vec<u64>>,
    /// Tag -> edges of any label carrying it, when node and edge KVs share
    /// one model (monolithic layout): there `?n k:hasTag "T"` also
    /// matches edge IRIs.
    kv_edges: BTreeMap<String, Vec<u64>>,
}

impl<'g> Oracle<'g> {
    /// Indexes the graph by tag. `monolithic` says whether node and edge
    /// KVs are queried from one model.
    pub fn new(graph: &'g PropertyGraph, monolithic: bool) -> Oracle<'g> {
        let mut tag_nodes: BTreeMap<String, Vec<VertexId>> = BTreeMap::new();
        for (id, v) in graph.vertices() {
            for t in tags(&v.props) {
                tag_nodes.entry(t).or_default().push(id);
            }
        }
        let mut tag_edges: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        let mut kv_edges: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (id, e) in graph.edges() {
            for t in tags(&e.props) {
                if e.label == "follows" {
                    tag_edges.entry(t.clone()).or_default().push(id);
                }
                if monolithic {
                    kv_edges.entry(t).or_default().push(id);
                }
            }
        }
        Oracle {
            graph,
            vocab: PgVocab::twitter(),
            tag_nodes,
            tag_edges,
            kv_edges,
        }
    }

    fn vertex(&self, v: VertexId) -> Term {
        Term::Iri(self.vocab.vertex_iri(v))
    }

    fn nodes(&self, tag: &str) -> &[VertexId] {
        self.tag_nodes.get(tag).map(Vec::as_slice).unwrap_or(&[])
    }

    fn edges(&self, tag: &str) -> &[u64] {
        self.tag_edges.get(tag).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Tags on `follows` edges, most frequent first, ties by tag string.
    pub fn edge_tags_by_frequency(&self) -> Vec<String> {
        let mut ranked: Vec<(usize, &String)> =
            self.tag_edges.iter().map(|(t, es)| (es.len(), t)).collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
        ranked.into_iter().map(|(_, t)| t.clone()).collect()
    }

    /// Vertices with at least one outgoing `follows` edge, by id.
    pub fn vertices_with_out_edges(&self) -> Vec<VertexId> {
        self.graph
            .vertex_ids()
            .filter(|&v| {
                self.graph
                    .out_neighbors(v, Some("follows"))
                    .next()
                    .is_some()
            })
            .collect()
    }

    /// Subjects with the tag and their key/value maps: the vertices, plus
    /// the edges when edge KVs share the model.
    fn tagged(&self, tag: &str) -> impl Iterator<Item = (Term, &BTreeMap<String, Vec<PropValue>>)> {
        let vertices = self.nodes(tag).iter().map(|&n| {
            (
                self.vertex(n),
                &self.graph.vertex(n).expect("tagged vertex exists").props,
            )
        });
        let edges = self.kv_edges.get(tag).into_iter().flatten().map(|&e| {
            let props = &self.graph.edge(e).expect("tagged edge exists").props;
            (Term::Iri(self.vocab.edge_iri(e)), props)
        });
        vertices.chain(edges)
    }

    /// EQ1: `?n` for each subject with the tag.
    pub fn eq1(&self, tag: &str) -> Fingerprint {
        Fingerprint::of_rows(self.tagged(tag).map(|(n, _)| row_hash([Some(&n)])))
    }

    /// EQ2: `?nf` for each `follows` edge into a vertex with the tag.
    pub fn eq2_rows(&self, tag: &str) -> Vec<u64> {
        let mut rows = Vec::new();
        for &n in self.nodes(tag) {
            for nf in self.graph.in_neighbors(n, Some("follows")) {
                rows.push(row_hash([Some(&self.vertex(nf))]));
            }
        }
        rows
    }

    /// EQ4: `?n ?k ?v` for every key/value of each subject with the tag.
    pub fn eq4(&self, tag: &str) -> Fingerprint {
        let mut rows = Vec::new();
        for (node, props) in self.tagged(tag) {
            for (key, values) in props {
                let k = Term::Iri(self.vocab.key_iri(key));
                for value in values {
                    let v = self.vocab.value_term(value);
                    rows.push(row_hash([Some(&node), Some(&k), Some(&v)]));
                }
            }
        }
        Fingerprint::of_rows(rows)
    }

    /// EQ5: `?n2` for each `follows` edge with the tag.
    pub fn eq5(&self, tag: &str) -> Fingerprint {
        Fingerprint::of_rows(self.edges(tag).iter().map(|&e| {
            let dst = self.graph.edge(e).expect("tagged edge exists").dst;
            row_hash([Some(&self.vertex(dst))])
        }))
    }

    /// Whether any `follows` edge carries the tag (the early-out ASK).
    pub fn any_edge(&self, tag: &str) -> bool {
        !self.edges(tag).is_empty()
    }

    /// EQ8: `?n2 ?k ?v` for every key/value of each tagged `follows` edge.
    pub fn eq8(&self, tag: &str) -> Fingerprint {
        let mut rows = Vec::new();
        for &e in self.edges(tag) {
            let edge = self.graph.edge(e).expect("tagged edge exists");
            let dst = self.vertex(edge.dst);
            for (key, values) in &edge.props {
                let k = Term::Iri(self.vocab.key_iri(key));
                for value in values {
                    let v = self.vocab.value_term(value);
                    rows.push(row_hash([Some(&dst), Some(&k), Some(&v)]));
                }
            }
        }
        Fingerprint::of_rows(rows)
    }

    /// EQ11: the number of `follows` paths of `hops` edges from `start`.
    pub fn eq11(&self, start: VertexId, hops: usize) -> Fingerprint {
        let mut frontier: BTreeMap<VertexId, u64> = BTreeMap::from([(start, 1)]);
        for _ in 0..hops {
            let mut next: BTreeMap<VertexId, u64> = BTreeMap::new();
            for (&v, &c) in &frontier {
                for u in self.graph.out_neighbors(v, Some("follows")) {
                    *next.entry(u).or_default() += c;
                }
            }
            frontier = next;
        }
        scalar(frontier.values().sum())
    }

    /// The anchored aggregate: the `follows` in-degree of each vertex the
    /// anchor follows (EQ9's grouping, restricted to one neighbourhood).
    pub fn in_degrees(&self, anchor: VertexId) -> Fingerprint {
        let followees: BTreeSet<VertexId> =
            self.graph.out_neighbors(anchor, Some("follows")).collect();
        Fingerprint::of_rows(followees.into_iter().map(|n| {
            let deg = self.graph.in_neighbors(n, Some("follows")).count() as i64;
            let cnt = Term::Literal(rdf_model::Literal::integer(deg));
            row_hash([Some(&self.vertex(n)), Some(&cnt)])
        }))
    }

    /// The anchored triangle count: `follows` cycles of length three
    /// through the anchor (EQ12 restricted to one vertex).
    pub fn triangles(&self, anchor: VertexId) -> Fingerprint {
        let mut count = 0u64;
        for y in self.graph.out_neighbors(anchor, Some("follows")) {
            for z in self.graph.out_neighbors(y, Some("follows")) {
                count += self
                    .graph
                    .out_neighbors(z, Some("follows"))
                    .filter(|&x| x == anchor)
                    .count() as u64;
            }
        }
        scalar(count)
    }
}

/// The fingerprint of a one-cell COUNT result.
fn scalar(n: u64) -> Fingerprint {
    let cnt = Term::Literal(rdf_model::Literal::integer(n as i64));
    Fingerprint::of_rows([row_hash([Some(&cnt)])])
}

fn tags(props: &BTreeMap<String, Vec<PropValue>>) -> BTreeSet<String> {
    props
        .get("hasTag")
        .into_iter()
        .flatten()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect()
}
