//! The vectorized columnar pipeline must be indistinguishable from the
//! row-at-a-time reference pipeline: for every query family, every
//! thread count, every storage encoding, and every batch size, the
//! result rows must be *identical* — same multiset, same order — and
//! `EXPLAIN ANALYZE` must attribute the same per-step row counts, so the
//! late-materialized column pipeline is provably a drop-in replacement
//! rather than an approximation of the streaming semantics.

use pgrdf::PgRdfModel;
use pgrdf_bench::{Eq, Fixture};
use quadstore::Store;
use rdf_model::{GraphName, Quad, Term};
use sparql::{ExecOptions, QueryResults, Solutions, DEFAULT_MORSEL_SIZE};

const MODELS: [PgRdfModel; 3] = [PgRdfModel::NG, PgRdfModel::SP, PgRdfModel::RF];
const QUERIES: [Eq; 5] = [Eq::Eq1, Eq::Eq2, Eq::Eq3, Eq::Eq4, Eq::Eq5];

fn run_with(fixture: &Fixture, eq: Eq, model: PgRdfModel, options: ExecOptions) -> Solutions {
    let store = fixture.store(model);
    let dataset = fixture.dataset_for(eq, model);
    let text = fixture.query_text(eq, model);
    match sparql::query_with_options(store.store(), &dataset, &text, options)
        .unwrap_or_else(|e| panic!("{} {model}: {e}", eq.label(model)))
    {
        QueryResults::Solutions(s) => s,
        other => panic!("expected solutions, got {other:?}"),
    }
}

/// The full sweep from the issue: EQ1–EQ5 across threads {1,2,8}, all
/// three storage encodings, and batch sizes {1,64,1024}, vectorized
/// against the row-pipeline baseline (`vectorize(false)`, one thread —
/// the reference oracle). Ordered comparison: `Solutions` equality
/// covers variable names, row order, and every binding.
#[test]
fn vectorized_matches_row_pipeline_exactly() {
    let fixture = Fixture::at_scale(0.005);
    for model in MODELS {
        for eq in QUERIES {
            let baseline =
                run_with(&fixture, eq, model, ExecOptions::threads(1).with_vectorize(false));
            for threads in [1usize, 2, 8] {
                for batch_size in [1usize, 64, 1024] {
                    let options = ExecOptions::threads(threads).with_batch_size(batch_size);
                    assert!(options.vectorize, "vectorized execution must be the default");
                    let got = run_with(&fixture, eq, model, options);
                    assert_eq!(
                        baseline,
                        got,
                        "{} {model}: threads={threads} batch={batch_size} diverged from row pipeline",
                        eq.label(model)
                    );
                }
            }
        }
    }
}

/// The aggregate, traversal, and triangle families exercise the grouped
/// columnar accumulator and the union splitter; sweep those too (smaller
/// matrix — the heavy queries dominate runtime).
#[test]
fn vectorized_matches_row_pipeline_on_aggregates_and_paths() {
    let fixture = Fixture::at_scale(0.005);
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        for eq in [Eq::Eq6, Eq::Eq7, Eq::Eq8, Eq::Eq9, Eq::Eq10, Eq::Eq11(2), Eq::Eq12] {
            let baseline =
                run_with(&fixture, eq, model, ExecOptions::threads(1).with_vectorize(false));
            for threads in [1usize, 8] {
                for batch_size in [64usize, 1024] {
                    let options = ExecOptions::threads(threads).with_batch_size(batch_size);
                    let got = run_with(&fixture, eq, model, options);
                    assert_eq!(
                        baseline,
                        got,
                        "{} {model}: threads={threads} batch={batch_size} diverged from row pipeline",
                        eq.label(model)
                    );
                }
            }
        }
    }
}

/// `EXPLAIN ANALYZE` under the vectorized pipeline must report the same
/// per-step actual row counts and probe loops as the row pipeline: batch
/// execution changes *when* work happens, never *how much*. (Profiled
/// execution pins one worker, so this also proves the sequential
/// vectorized path's charge/tally parity.)
#[test]
fn explain_analyze_row_counts_match() {
    let fixture = Fixture::at_scale(0.005);
    for model in MODELS {
        for eq in QUERIES {
            let store = fixture.store(model);
            let dataset = fixture.dataset_for(eq, model);
            let text = fixture.query_text(eq, model);
            let (rows_v, prof_v) = store
                .select_profiled_in(&dataset, &text, ExecOptions::default())
                .unwrap_or_else(|e| panic!("{} {model} vectorized: {e}", eq.label(model)));
            let (rows_r, prof_r) = store
                .select_profiled_in(&dataset, &text, ExecOptions::default().with_vectorize(false))
                .unwrap_or_else(|e| panic!("{} {model} row: {e}", eq.label(model)));
            assert_eq!(rows_v, rows_r, "{} {model}: profiled results diverged", eq.label(model));
            assert_eq!(prof_v.result_rows, prof_r.result_rows);
            assert_eq!(
                prof_v.steps.len(),
                prof_r.steps.len(),
                "{} {model}: step count diverged",
                eq.label(model)
            );
            for (v, r) in prof_v.steps.iter().zip(&prof_r.steps) {
                assert_eq!(
                    (v.ordinal, v.actual_rows, v.loops, v.executed),
                    (r.ordinal, r.actual_rows, r.loops, r.executed),
                    "{} {model}: step {} tallies diverged (vectorized vs row)",
                    eq.label(model),
                    v.ordinal
                );
            }
        }
    }
}

/// A small store in the NG encoding's shape: every `follows` edge sits in
/// its own named graph, whose IRI is also the subject of the edge's
/// key/value triples. The default graph holds `knows` edges (a quarter of
/// them self-loops), names that collide with the tag values, and ages.
fn shape_store() -> Store {
    let store = Store::new();
    store.create_model("m").expect("model");
    let x = |local: String| Term::iri(format!("http://x/{local}"));
    let v = |i: u32| x(format!("v{i}"));
    let mut quads = Vec::new();
    for i in 0..60u32 {
        let g = GraphName::iri(format!("http://x/e{i}"));
        let e = x(format!("e{i}"));
        let q = |s: Term, p: &str, o: Term| Quad::new(s, x(p.into()), o, g.clone()).expect("quad");
        quads.push(q(v(i % 20), "follows", v((i * 7 + 3) % 20)));
        quads.push(q(e.clone(), "hasTag", Term::string(format!("t{}", i % 3))));
        quads.push(q(e, "weight", Term::int(i as i32)));
    }
    for i in 0..20u32 {
        let t = |p: &str, o: Term| Quad::triple(v(i), x(p.into()), o).expect("triple");
        quads.push(t("knows", v(if i % 4 == 0 { i } else { (i + 1) % 20 })));
        if i % 2 == 0 {
            quads.push(t("name", Term::string(format!("t{}", i % 5))));
        }
        if i % 3 == 0 {
            quads.push(t("age", Term::int(i as i32)));
        }
    }
    store.bulk_load("m", &quads).expect("load");
    store
}

/// Query shapes beyond the paper's: repeated variables inside one triple
/// (as the driving scan and as a probe), the NG edge queries' `GRAPH ?g {
/// ?g … }` groups joined as siblings, and drivable BGPs whose siblings
/// the columnar operators leave to the row tail.
const SHAPES: [&str; 15] = [
    // Repeated variable in the driving scan.
    "SELECT ?a ?p WHERE { ?a ?p ?a }",
    "SELECT ?g ?p ?o WHERE { GRAPH ?g { ?g ?p ?o } }",
    // Repeated variable in a probe, behind a selective drive.
    "SELECT ?a ?b WHERE { ?a x:name \"t1\" . ?b x:knows ?b }",
    "SELECT ?a ?g WHERE { ?a x:name ?n . GRAPH ?g { ?g x:hasTag ?n } }",
    // The NG edge queries (EQ5a–EQ8a).
    "SELECT ?n2 WHERE { GRAPH ?g1 { ?n x:follows ?n2 . ?g1 x:hasTag \"t1\" } }",
    "SELECT ?n3 WHERE { GRAPH ?g1 { ?n x:follows ?n2 . ?g1 x:hasTag \"t1\" } ?n2 x:knows ?n3 }",
    "SELECT ?n4 WHERE { GRAPH ?g1 { ?n x:follows ?n2 . ?g1 x:hasTag \"t1\" } \
     GRAPH ?g2 { ?n2 x:follows ?n3 . ?g2 x:hasTag \"t1\" } \
     GRAPH ?g3 { ?n3 x:follows ?n4 . ?g3 x:hasTag \"t1\" } }",
    "SELECT ?n2 ?k ?v WHERE { GRAPH ?g1 { ?n x:follows ?n2 . \
     ?g1 x:hasTag \"t1\" . ?g1 ?k ?v FILTER (isLiteral(?v)) } }",
    // Siblings the row tail runs.
    "SELECT ?a ?b ?n WHERE { ?a x:knows ?b OPTIONAL { ?b x:name ?n } }",
    "SELECT ?a ?c ?age WHERE { ?a x:knows ?b BIND (?b AS ?c) ?c x:age ?age }",
    "SELECT ?a ?b WHERE { ?a x:knows ?b VALUES ?b { x:v1 x:v4 x:v9 } }",
    "SELECT ?a ?b WHERE { ?a x:knows ?b MINUS { ?b x:name ?n } }",
    "SELECT ?a ?c WHERE { ?a x:name ?n . ?a x:knows/x:knows ?c }",
    "SELECT ?a ?c WHERE { ?a x:name ?n . ?a x:knows+ ?c }",
    // A one-row VALUES pin leaving a hash-join key (?n) UNDEF.
    "SELECT ?a ?b WHERE { VALUES (?n ?c) { (UNDEF x:v2) } \
     ?a x:name ?n . ?a x:follows ?b . ?b x:follows ?c }",
];

/// Every shape at threads {1,2,8} × vectorize {on,off} × morsel size
/// {16, default} returns exactly the streaming row pipeline's rows, in
/// the same order.
#[test]
fn shapes_match_row_pipeline_at_every_thread_count() {
    let store = shape_store();
    let run = |query: &str, options: ExecOptions| -> Solutions {
        let text = format!("PREFIX x: <http://x/> {query}");
        match sparql::query_with_options(&store, "m", &text, options)
            .unwrap_or_else(|e| panic!("{query}: {e}"))
        {
            QueryResults::Solutions(s) => s,
            other => panic!("expected solutions, got {other:?}"),
        }
    };
    for query in SHAPES {
        let baseline = run(query, ExecOptions::threads(1).with_vectorize(false));
        assert!(!baseline.rows.is_empty(), "{query}: the shape must produce rows");
        for threads in [1usize, 2, 8] {
            for vectorize in [true, false] {
                for morsel_size in [16, DEFAULT_MORSEL_SIZE] {
                    let options = ExecOptions::threads(threads)
                        .with_vectorize(vectorize)
                        .with_morsel_size(morsel_size);
                    assert_eq!(
                        baseline,
                        run(query, options),
                        "{query}: threads={threads} vectorize={vectorize} morsel={morsel_size}"
                    );
                }
            }
        }
    }
}
