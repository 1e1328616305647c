//! Morsel-driven parallel execution must be indistinguishable from the
//! sequential streaming path: for every paper query family, every thread
//! count, and every morsel size, the result rows must be *identical* —
//! same multiset, same order (the executor merges morsel outputs back
//! into sequential scan order, so even queries without ORDER BY must
//! match row-for-row, and ORDER BY queries must tie-break identically).

use pgrdf::PgRdfModel;
use pgrdf_bench::{Eq, Fixture};
use sparql::{ExecOptions, QueryResults, Solutions};
use std::time::Instant;

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

/// The deterministic sweep from the issue: threads {1,2,4,8} x morsel
/// sizes over the five query families (node, edge, aggregate, traversal,
/// triangle), both NG and SP. threads=1 runs the same pipeline on the
/// calling thread and serves as the baseline.
#[test]
fn parallel_results_match_sequential_exactly() {
    let fixture = Fixture::at_scale(0.005);
    let queries = [
        Eq::Eq1,
        Eq::Eq2,
        Eq::Eq3,
        Eq::Eq4,
        Eq::Eq5,
        Eq::Eq6,
        Eq::Eq7,
        Eq::Eq8,
        Eq::Eq9,
        Eq::Eq10,
        Eq::Eq11(2),
        Eq::Eq12,
    ];
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        for eq in queries {
            let baseline = run_with(&fixture, eq, model, ExecOptions::threads(1));
            for threads in [2usize, 4, 8] {
                for morsel_size in [7usize, 1024] {
                    let options = ExecOptions::threads(threads).with_morsel_size(morsel_size);
                    let got = run_with(&fixture, eq, model, options);
                    assert_eq!(
                        baseline, got,
                        "{} {model}: threads={threads} morsel={morsel_size} diverged",
                        eq.label(model)
                    );
                }
            }
        }
    }
}

/// ORDER BY output must keep the *exact* sequential ordering, including
/// ties (EQ9/EQ10 order by degree, which has massive tie groups — a merge
/// that reorders within ties would still pass a sorted-set comparison, so
/// assert the raw row vectors).
#[test]
fn order_by_ties_keep_sequential_order() {
    let fixture = Fixture::at_scale(0.005);
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        for eq in [Eq::Eq9, Eq::Eq10] {
            let seq = run_with(&fixture, eq, model, ExecOptions::threads(1));
            let par = run_with(
                &fixture,
                eq,
                model,
                ExecOptions::threads(4).with_morsel_size(64),
            );
            assert_eq!(seq.vars, par.vars);
            assert_eq!(seq.rows, par.rows, "{} {model}", eq.label(model));
        }
    }
}

/// Smoke-level timing probe (printed with --nocapture): sequential vs
/// 4-thread batch execution on the aggregate and triangle families.
#[test]
fn timing_probe_aggregate_and_triangle() {
    let fixture = Fixture::at_scale(0.01);
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        for eq in [Eq::Eq9, Eq::Eq10, Eq::Eq11(3), Eq::Eq12] {
            // Warm both paths once, then time.
            let _ = run_with(&fixture, eq, model, ExecOptions::threads(1));
            let _ = run_with(&fixture, eq, model, ExecOptions::threads(4));
            let t0 = Instant::now();
            let seq = run_with(&fixture, eq, model, ExecOptions::threads(1));
            let t_seq = t0.elapsed();
            let t1 = Instant::now();
            let par = run_with(&fixture, eq, model, ExecOptions::threads(4));
            let t_par = t1.elapsed();
            assert_eq!(seq, par);
            println!(
                "{:<8} {:<3} seq={:>10.3?} par(4)={:>10.3?} speedup={:.2}x",
                eq.label(model),
                model.to_string(),
                t_seq,
                t_par,
                t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9)
            );
        }
    }
}
