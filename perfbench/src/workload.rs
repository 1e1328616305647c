//! The two workloads as seeded request streams.
//!
//! * `table10`: every Table 10 query on NG and SP, plus the early-out
//!   forms of EQ5 and EQ2, in seeded shuffled rounds.
//! * `mixed`: short parameterised reads whose tag and vertex are drawn
//!   per request, Zipf-skewed, on one monolithic NG store, with a write
//!   at every fifth position and a read-your-writes `ASK` right after it.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use pgrdf::{PgRdfModel, PgRdfStore, QuerySet};
use propertygraph::VertexId;
use twittergen::rng::Rng;

use crate::oracle::{Fingerprint, Oracle};
use crate::setup::Loaded;

/// Workload names, as given to `--workload`.
pub const WORKLOADS: [&str; 2] = ["table10", "mixed"];

/// The query families of Table 10, plus writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Family {
    /// Node-centric: EQ1–EQ4.
    Node,
    /// Edge-centric: EQ5–EQ8.
    Edge,
    /// Aggregates: EQ9–EQ10.
    Aggregate,
    /// Traversals: EQ11.
    Traversal,
    /// Triangles: EQ12.
    Triangle,
    /// SPARQL Update.
    Write,
    /// The `ASK` after a write that must see its effect.
    ReadBack,
}

impl Family {
    /// The five Table 10 families; `ReadBack` reads count only in `read_ms`.
    pub const READS: [Family; 5] = [
        Family::Node,
        Family::Edge,
        Family::Aggregate,
        Family::Traversal,
        Family::Triangle,
    ];

    /// Lower-case name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Family::Node => "node",
            Family::Edge => "edge",
            Family::Aggregate => "aggregate",
            Family::Traversal => "traversal",
            Family::Triangle => "triangle",
            Family::Write => "write",
            Family::ReadBack => "read_back",
        }
    }
}

/// A read shape: one Table 10 query, or a parameterised variant of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Eq1,
    Eq2,
    Eq3,
    Eq4,
    Eq5,
    Eq6,
    Eq7,
    Eq8,
    Eq9,
    Eq10,
    /// EQ11 with 1..=3 hops.
    Eq11(usize),
    Eq12,
    /// `follows` in-degree of each vertex an anchor follows (EQ9 anchored).
    InDegrees,
    /// `follows` triangles through an anchor (EQ12 anchored).
    Triangles,
    /// Early out: `ASK` whether any `follows` edge has the tag.
    AskEdge,
    /// Early out: EQ2 with `LIMIT 10`.
    Eq2Limit,
}

impl Shape {
    fn family(self) -> Family {
        use Shape::*;
        match self {
            Eq1 | Eq2 | Eq3 | Eq4 | Eq2Limit => Family::Node,
            Eq5 | Eq6 | Eq7 | Eq8 | AskEdge => Family::Edge,
            Eq9 | Eq10 | InDegrees => Family::Aggregate,
            Eq11(_) => Family::Traversal,
            Eq12 | Triangles => Family::Triangle,
        }
    }

    fn early_out(self) -> bool {
        matches!(self, Shape::AskEdge | Shape::Eq2Limit)
    }

    /// The paper's label; EQ5–EQ8 carry a/b for NG/SP.
    fn label(self, model: PgRdfModel) -> String {
        let ab = if model == PgRdfModel::NG { "a" } else { "b" };
        use Shape::*;
        match self {
            Eq1 => "EQ1".into(),
            Eq2 => "EQ2".into(),
            Eq3 => "EQ3".into(),
            Eq4 => "EQ4".into(),
            Eq5 => format!("EQ5{ab}"),
            Eq6 => format!("EQ6{ab}"),
            Eq7 => format!("EQ7{ab}"),
            Eq8 => format!("EQ8{ab}"),
            Eq9 => "EQ9".into(),
            Eq10 => "EQ10".into(),
            Eq11(h) => format!("EQ11{}", (b'a' + h as u8 - 1) as char),
            Eq12 => "EQ12".into(),
            InDegrees => "INDEG".into(),
            Triangles => "TRI".into(),
            AskEdge => "ASK-EQ5".into(),
            Eq2Limit => "EQ2-LIMIT".into(),
        }
    }
}

/// What a correct answer looks like.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Exactly these rows.
    Rows(Fingerprint),
    /// `rows` rows, each one of the full answer's rows.
    Subset { of: Arc<HashSet<u64>>, rows: usize },
    /// This ASK verdict.
    Ask(bool),
    /// The answer the warm-up pass saw for the same text.
    SameAsWarmup,
    /// An update that must succeed; the `ASK` after it checks its effect.
    Applied,
}

/// One request of a workload.
#[derive(Debug, Clone)]
pub struct Request {
    /// Shape and encoding, e.g. `EQ5a/NG`; writes are `INSERT`/`DELETE`,
    /// the reads after them `ASK-WRITE/NG`.
    pub class: String,
    /// Query family.
    pub family: Family,
    /// Part of the early-out (ASK / LIMIT) class.
    pub early_out: bool,
    /// Index of the store it runs on.
    pub store: usize,
    /// Dataset for SELECTs (Table 4 routing); `None` runs the query on
    /// the store's whole dataset (ASK, updates).
    pub dataset: Option<String>,
    /// Query or update text.
    pub text: String,
    /// True for SPARQL Update.
    pub write: bool,
    /// The check its answer must pass.
    pub expect: Expect,
}

/// Constants every workload draws from.
pub struct Ctx<'a> {
    /// Stores, NG first.
    pub stores: &'a [Loaded],
    /// Expected answers.
    pub oracle: &'a Oracle<'a>,
    /// The pinned Table 10 tag.
    pub tag: String,
}

/// Table 4 routing: the partition (or union of partitions) a shape reads.
/// Monolithic stores have one dataset.
fn dataset_for(store: &PgRdfStore, shape: Shape) -> Option<String> {
    use Shape::*;
    let Some(names) = store.partition_names() else {
        return (shape != AskEdge).then(|| store.dataset_name());
    };
    let sp = store.model() == PgRdfModel::SP;
    Some(match shape {
        Eq1 | Eq4 => names.node_kv,
        Eq2 | Eq3 | Eq2Limit => names.topology_nodekv,
        Eq5 | Eq7 | Eq8 if sp => names.edge_kv,
        Eq5 | Eq6 | Eq7 | Eq8 => names.topology_edgekv,
        Eq9 | Eq10 | Eq11(_) | Eq12 | InDegrees | Triangles => names.topology,
        AskEdge => return None,
    })
}

/// The text of a shape with its parameters.
fn text_for(store: &PgRdfStore, shape: Shape, tag: &str, vertex: VertexId) -> String {
    let qs: QuerySet = store.queries();
    let p = store.vocab().prefixes();
    let v = store.vocab().vertex_iri(vertex);
    use Shape::*;
    match shape {
        Eq1 => qs.eq1(tag),
        Eq2 => qs.eq2(tag),
        Eq3 => qs.eq3(tag),
        Eq4 => qs.eq4(tag),
        Eq5 => qs.eq5(tag),
        Eq6 => qs.eq6(tag),
        Eq7 => qs.eq7(tag),
        Eq8 => qs.eq8(tag),
        Eq9 => qs.eq9(),
        Eq10 => qs.eq10(),
        Eq11(h) => qs.eq11(vertex, h),
        Eq12 => qs.eq12(),
        InDegrees => format!(
            "{p}SELECT ?n (COUNT(*) AS ?deg) WHERE {{ {v} r:follows ?n . ?m r:follows ?n }} GROUP BY ?n"
        ),
        Triangles => format!(
            "{p}SELECT (COUNT(*) AS ?cnt) WHERE {{ {v} r:follows ?y . ?y r:follows ?z . ?z r:follows {v} }}"
        ),
        AskEdge => match store.model() {
            PgRdfModel::NG => format!(
                "{p}ASK {{ GRAPH ?g {{ ?n r:follows ?n2 . ?g k:hasTag \"{tag}\" }} }}"
            ),
            _ => format!(
                "{p}ASK {{ ?s ?p ?n2 . ?p rdfs:subPropertyOf r:follows . ?p k:hasTag \"{tag}\" }}"
            ),
        },
        Eq2Limit => format!("{} LIMIT 10", qs.eq2(tag)),
    }
}

/// Memoised oracle answers, keyed by shape and parameter.
#[derive(Default)]
struct Memo {
    fps: HashMap<(String, String), Fingerprint>,
    /// Tag -> EQ2's distinct row hashes and its row count.
    eq2: HashMap<String, (Arc<HashSet<u64>>, usize)>,
}

impl Memo {
    fn expect(&mut self, oracle: &Oracle, shape: Shape, tag: &str, v: VertexId) -> Expect {
        use Shape::*;
        match shape {
            AskEdge => return Expect::Ask(oracle.any_edge(tag)),
            Eq2Limit => {
                let (of, n) = self.eq2.entry(tag.to_string()).or_insert_with(|| {
                    let rows = oracle.eq2_rows(tag);
                    let n = rows.len();
                    (Arc::new(rows.into_iter().collect()), n)
                });
                return Expect::Subset {
                    of: Arc::clone(of),
                    rows: (*n).min(10),
                };
            }
            _ => {}
        }
        let param = match shape {
            Eq11(_) | InDegrees | Triangles => v.to_string(),
            _ => tag.to_string(),
        };
        let key = (format!("{shape:?}"), param);
        if let Some(fp) = self.fps.get(&key) {
            return Expect::Rows(*fp);
        }
        let fp = match shape {
            Eq1 => oracle.eq1(tag),
            Eq2 => Fingerprint::of_rows(oracle.eq2_rows(tag)),
            Eq4 => oracle.eq4(tag),
            Eq5 => oracle.eq5(tag),
            Eq8 => oracle.eq8(tag),
            Eq11(h) => oracle.eq11(v, h),
            InDegrees => oracle.in_degrees(v),
            Triangles => oracle.triangles(v),
            _ => return Expect::SameAsWarmup,
        };
        self.fps.insert(key, fp);
        Expect::Rows(fp)
    }
}

fn read(ctx: &Ctx, memo: &mut Memo, store: usize, shape: Shape, tag: &str, v: VertexId) -> Request {
    let s = &ctx.stores[store];
    Request {
        class: format!("{}/{}", shape.label(s.store.model()), s.name),
        family: shape.family(),
        early_out: shape.early_out(),
        store,
        dataset: dataset_for(&s.store, shape),
        text: text_for(&s.store, shape, tag, v),
        write: false,
        expect: memo.expect(ctx.oracle, shape, tag, v),
    }
}

/// Table 10 on every store: EQ1–EQ10, EQ12 and the two early-out forms
/// (the part every round shares), and EQ11a–c once per start vertex.
/// EQ11 classes carry their start vertex.
pub fn table10(ctx: &Ctx, starts: &[VertexId]) -> (Vec<Request>, Vec<Vec<Request>>) {
    use Shape::*;
    let shared = [
        Eq1, Eq2, Eq3, Eq4, Eq5, Eq6, Eq7, Eq8, Eq9, Eq10, Eq12, AskEdge, Eq2Limit,
    ];
    let mut memo = Memo::default();
    let mut common = Vec::new();
    for store in 0..ctx.stores.len() {
        for shape in shared {
            common.push(read(ctx, &mut memo, store, shape, &ctx.tag, 0));
        }
    }
    let traversals = starts
        .iter()
        .map(|&v| {
            let mut reqs = Vec::new();
            for store in 0..ctx.stores.len() {
                for hops in 1..=3 {
                    let mut r = read(ctx, &mut memo, store, Eq11(hops), &ctx.tag, v);
                    r.class = format!("{}@n{v}", r.class);
                    reqs.push(r);
                }
            }
            reqs
        })
        .collect();
    (common, traversals)
}

/// In-place Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Read shapes of the mixed stream, drawn with equal odds.
const READ_MIX: [Shape; 9] = [
    Shape::Eq1,
    Shape::Eq2,
    Shape::Eq4,
    Shape::Eq5,
    Shape::Eq8,
    Shape::Eq11(1),
    Shape::Eq11(2),
    Shape::InDegrees,
    Shape::Triangles,
];

/// Zipf exponent of the tag and vertex popularity.
const ZIPF_S: f64 = 1.0;

/// Entries per parameter deck.
pub const DECK: usize = 20;

/// A seeded deck of parameter ranks: `DECK` entries holding each rank as
/// often as its Zipf weight says (largest-remainder rounding), dealt in a
/// shuffled order and reshuffled when used up. Every class of requests
/// draws from its own deck, so a run's parameter mix hardly depends on
/// the seed while the order does.
struct Deck {
    ranks: Vec<usize>,
    next: usize,
}

impl Deck {
    fn zipf(n: usize) -> Deck {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let quotas: Vec<f64> = weights.iter().map(|w| w / total * DECK as f64).collect();
        let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..n).collect();
        by_remainder.sort_by(|&a, &b| {
            (quotas[b] - quotas[b].floor())
                .total_cmp(&(quotas[a] - quotas[a].floor()))
                .then(a.cmp(&b))
        });
        let short = DECK - counts.iter().sum::<usize>();
        for &rank in by_remainder.iter().take(short) {
            counts[rank] += 1;
        }
        let ranks = counts
            .iter()
            .enumerate()
            .flat_map(|(r, &c)| std::iter::repeat_n(r, c))
            .collect();
        Deck { ranks, next: DECK }
    }

    fn deal(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.ranks.len() {
            shuffle(&mut self.ranks, rng);
            self.next = 0;
        }
        self.next += 1;
        self.ranks[self.next - 1]
    }
}

/// Offset of the vertex and edge ids the mixed workload writes: far above
/// any generated id, so its edges never join the read shapes' answers.
const WRITE_ID_BASE: u64 = 1_000_000_000;

/// The seeded stream of the mixed workload. In every five requests the
/// fourth is a write and the fifth an `ASK` that must see its effect.
pub struct Stream<'a> {
    ctx: &'a Ctx<'a>,
    rng: Rng,
    memo: Memo,
    tags: Vec<String>,
    vertices: Vec<VertexId>,
    /// One parameter deck per read shape.
    decks: HashMap<usize, Deck>,
    /// The tag written edges carry (never read).
    write_tag: String,
    issued: u64,
    writes_issued: u64,
    /// The read-your-writes check of the last write, issued next.
    pending_ask: Option<Request>,
}

impl<'a> Stream<'a> {
    /// A stream over `ctx`'s single store.
    pub fn new(ctx: &'a Ctx<'a>, seed: u64) -> Stream<'a> {
        let mut rng = Rng::seed_from_u64(seed);
        let tags = ctx.oracle.edge_tags_by_frequency();
        let vertices = ctx.oracle.vertices_with_out_edges();
        let write_tag = format!("#bench-write-{:08x}", rng.next_u64() as u32);
        Stream {
            ctx,
            decks: HashMap::new(),
            tags,
            vertices,
            rng,
            memo: Memo::default(),
            write_tag,
            issued: 0,
            writes_issued: 0,
            pending_ask: None,
        }
    }

    /// Starts every class's deck afresh, so the requests that follow
    /// fill whole decks from their first one.
    pub fn restart_decks(&mut self) {
        for deck in self.decks.values_mut() {
            deck.next = deck.ranks.len();
        }
    }

    /// The next write, and the `ASK` that must see (insert) or not see
    /// (delete) it.
    fn write(&mut self) -> (Request, Request) {
        let k = self.writes_issued;
        self.writes_issued += 1;
        let j = k / 2;
        let store = &self.ctx.stores[0].store;
        let vocab = store.vocab();
        let src = vocab.vertex_iri(WRITE_ID_BASE + 2 * j);
        let dst = vocab.vertex_iri(WRITE_ID_BASE + 2 * j + 1);
        let edge = vocab.edge_iri(WRITE_ID_BASE + j);
        let (follows, has_tag) = (vocab.label_iri("follows"), vocab.key_iri("hasTag"));
        let body = format!(
            "GRAPH {edge} {{ {src} {follows} {dst} . {edge} {has_tag} \"{}\" }}",
            self.write_tag
        );
        let insert = k.is_multiple_of(2);
        let (verb, text) = if insert {
            ("INSERT", format!("INSERT DATA {{ {body} }}"))
        } else {
            ("DELETE", format!("DELETE DATA {{ {body} }}"))
        };
        let write = Request {
            class: verb.to_string(),
            family: Family::Write,
            early_out: false,
            store: 0,
            dataset: None,
            text,
            write: true,
            expect: Expect::Applied,
        };
        let ask = Request {
            class: format!("ASK-WRITE/{}", self.ctx.stores[0].name),
            family: Family::ReadBack,
            early_out: false,
            store: 0,
            dataset: None,
            text: format!("ASK {{ GRAPH {edge} {{ {src} {follows} {dst} }} }}"),
            write: false,
            expect: Expect::Ask(insert),
        };
        (write, ask)
    }
}

impl Iterator for Stream<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let pos = self.issued % 5;
        self.issued += 1;
        if pos == 3 {
            let (write, ask) = self.write();
            self.pending_ask = Some(ask);
            return Some(write);
        }
        if let Some(ask) = self.pending_ask.take() {
            return Some(ask);
        }
        let index = self.rng.gen_range(0..READ_MIX.len());
        let shape = READ_MIX[index];
        let by_vertex = matches!(shape, Shape::Eq11(_) | Shape::InDegrees | Shape::Triangles);
        let domain = if by_vertex {
            self.vertices.len()
        } else {
            self.tags.len()
        };
        let rank = self
            .decks
            .entry(index)
            .or_insert_with(|| Deck::zipf(domain))
            .deal(&mut self.rng);
        let (tag, v) = if by_vertex {
            ("", self.vertices[rank])
        } else {
            (self.tags[rank].as_str(), 0)
        };
        Some(read(self.ctx, &mut self.memo, 0, shape, tag, v))
    }
}

/// A digest of a request sequence (class and text, in order).
pub fn digest<'r>(requests: impl IntoIterator<Item = &'r Request>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in requests {
        h = (h ^ telemetry::fnv1a64(r.class.as_bytes())).wrapping_mul(0x0000_0100_0000_01b3);
        h = (h ^ telemetry::fnv1a64(r.text.as_bytes())).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
