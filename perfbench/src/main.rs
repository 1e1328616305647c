//! `perfbench`: the pgrdf end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table10|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! One process, one closed-loop client: each request is sent after the
//! previous one returned. With `--trace 0` requests go through the
//! `PgRdfStore` facade with default `ExecOptions` and the run prints the
//! end-to-end metrics. With `--trace 1` the run measures the facade for
//! half the time, then replays the identical requests through each
//! layer's public calls with spans and telemetry counters on, and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object; see `perfbench/README.md`.

mod oracle;
mod run;
mod setup;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use pgrdf::{PartitionLayout, PgRdfModel};
use twittergen::rng::Rng;

use crate::oracle::{Fingerprint, Oracle};
use crate::run::{Checker, Phase};
use crate::stats::{geomean, median, quantile, trimmed_mean};
use crate::trace::Tracer;
use crate::workload::{Ctx, Family, Request, Stream, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload table10|mixed --seed N \
                     --seconds S --trace 0|1 [--scale F]";

/// Default generator scale: NG ~206k quads, SP ~277k quads.
const SCALE: f64 = 0.02;
/// Generate-plus-load repetitions behind `setup_s`.
const SETUP_REPS: usize = 3;
/// Warm-up blocks of the mixed stream (10 requests each).
const WARMUP_BLOCKS: usize = 20;
/// Share of samples cut from each end of a class for its trimmed mean.
const TRIM: f64 = 0.25;
/// Measured requests covered by the printed sequence digest.
const PREFIX: usize = 100;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let take = |name: &str| flags.get(name).cloned().ok_or(format!("missing --{name}"));
    let workload = take("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let num = |name: &str, default: Option<f64>| -> Result<f64, String> {
        match (flags.get(name), default) {
            (Some(v), _) => v
                .parse::<f64>()
                .map_err(|_| format!("--{name}: not a number: {v}")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("missing --{name}")),
        }
    };
    let seed = take("seed")?;
    let seed = match seed.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => seed.parse(),
    }
    .map_err(|_| format!("--seed: not an integer: {seed}"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let seconds = num("seconds", None)?;
    let scale = num("scale", Some(SCALE))?;
    if !(seconds > 0.0 && scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scale,
    })
}

/// Metric name -> (value, unit), printed in name order.
type Metrics = BTreeMap<String, (f64, &'static str)>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    bench(&args)
}

fn bench(args: &Args) -> ExitCode {
    let (models, layout): (&[PgRdfModel], _) = match args.workload.as_str() {
        "mixed" => (&[PgRdfModel::NG], PartitionLayout::Monolithic),
        _ => (
            &[PgRdfModel::NG, PgRdfModel::SP],
            PartitionLayout::Partitioned,
        ),
    };

    // Set-up, repeated; the last build is kept.
    let (mut totals, mut generates, mut loads) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let b = setup::build(args.scale, models, layout);
        totals.push(b.generate_s + b.load_s);
        generates.push(b.generate_s);
        loads.push(b.load_s);
        built = Some(b);
    }
    let built = built.expect("at least one set-up");
    let setup_s = median(&totals).expect("set-up ran");
    println!(
        "setup: scale {} graph seed {:#x}, {} vertices, {} edges, {} quads in {} store(s) ({:?}); \
         setup_s samples {:?}",
        args.scale,
        setup::GRAPH_SEED,
        built.graph.vertex_count(),
        built.graph.edge_count(),
        built.quads,
        built.stores.len(),
        layout,
        totals
    );

    // Constants pinned from the graph and the seed.
    let tag = setup::choose_tag(&built.graph);
    let starts = setup::eq11_candidates(&built.graph);
    let mut rng = Rng::seed_from_u64(args.seed);
    // Table 10 rounds take their EQ11 start vertex in a seeded order that
    // visits every candidate equally often.
    let mut order: Vec<usize> = (0..starts.len()).collect();
    workload::shuffle(&mut order, &mut rng);
    println!(
        "tag: {} on {} vertices and {} edges",
        tag.tag, tag.nodes, tag.edges
    );
    let order_ids: Vec<u64> = order.iter().map(|&i| starts[i]).collect();
    println!("eq11 starts (seeded round order): {order_ids:?}");
    let oracle = Oracle::new(&built.graph, layout == PartitionLayout::Monolithic);
    let ctx = Ctx {
        stores: &built.stores,
        oracle: &oracle,
        tag: tag.tag.clone(),
    };

    // The request source, one block at a time.
    let table10 = args.workload == "table10";
    let (common, traversals) = workload::table10(&ctx, &starts);
    let mut stream = Stream::new(&ctx, args.seed);
    let warmup: Vec<Request> = if table10 {
        common
            .iter()
            .chain(traversals.iter().flatten())
            .cloned()
            .collect()
    } else {
        stream.by_ref().take(WARMUP_BLOCKS * 10).collect()
    };
    stream.restart_decks();
    let mut rounds = 0usize;
    let mut next_block = || -> Vec<Request> {
        if table10 {
            let mut r = common.clone();
            r.extend(traversals[order[rounds % order.len()]].iter().cloned());
            rounds += 1;
            workload::shuffle(&mut r, &mut rng);
            r
        } else {
            stream.by_ref().take(10).collect()
        }
    };

    // Warm-up: fills plan caches and pins the answers of texts without an
    // oracle; every answer is checked.
    let mut checker = Checker::default();
    let mut failed = 0usize;
    for req in &warmup {
        let verdict = run::facade(&built.stores, req).and_then(|a| checker.check(req, &a));
        if let Err(e) = verdict {
            eprintln!("warm-up check failed: {e}");
            failed += 1;
        }
    }
    if table10 {
        failed += check_encodings_agree(&checker, &warmup);
    }
    println!(
        "warm-up: {} requests, sequence digest {:016x}, fingerprint digest {:016x}",
        warmup.len(),
        workload::digest(&warmup),
        checker.digest
    );

    let mut metrics = Metrics::new();
    let attempted;
    if !args.trace {
        let phase = run::measure(&built.stores, &mut checker, &mut next_block, args.seconds);
        report_phase(&phase, &mut next_block);
        failed += phase.failed();
        attempted = phase.requests.len();
        let deck = if table10 { 1 } else { workload::DECK };
        end_to_end(&mut metrics, &phase, deck, setup_s, attempted, failed);
    } else {
        let phase = run::measure(
            &built.stores,
            &mut checker,
            &mut next_block,
            args.seconds / 2.0,
        );
        report_phase(&phase, &mut next_block);
        failed += phase.failed();
        // The same requests through the decomposed calls, first plain (the
        // facade's own cost is the difference), then with counters on.
        let mut replay = |counting: bool| {
            // The mixed replays start from a freshly loaded store, as the
            // measured phase did.
            let fresh =
                (args.workload == "mixed").then(|| setup::build(args.scale, models, layout));
            let stores = fresh.as_ref().map_or(&built.stores[..], |b| &b.stores[..]);
            let mut tracer = Tracer::new(stores, counting);
            for (i, req) in warmup.iter().enumerate() {
                if let Err(e) = tracer.run(stores, req, i) {
                    eprintln!("replayed warm-up failed: {e}");
                    failed += 1;
                }
            }
            tracer.refresh_probes();
            tracer.clear();
            let cache0 = tracer.cache_totals();
            // Seconds inside the decomposed calls, checks left out as in
            // the facade phase.
            let mut run_s = 0.0;
            for (i, req) in phase.requests.iter().enumerate() {
                let t0 = Instant::now();
                let answer = tracer.run(stores, req, i);
                run_s += t0.elapsed().as_secs_f64();
                if let Err(e) = answer.and_then(|a| checker.check(req, &a)) {
                    eprintln!("replayed check failed: {e}");
                    failed += 1;
                }
            }
            (tracer, run_s, cache0)
        };
        let (plain, _, _) = replay(false);
        let (tracer, traced_s, cache0) = replay(true);
        attempted = 3 * phase.requests.len();
        per_layer(
            &mut metrics,
            &Replays {
                plain: &plain,
                traced: &tracer,
                traced_s,
                cache0,
            },
            &phase,
            &built,
            &generates,
            &loads,
        );
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        let self_ns = tracer.self_nanos();
        let n = phase.requests.len().max(1) as f64;
        for (name, ns) in &self_ns {
            println!("self time {name}: {:.3} us/request", *ns as f64 / n / 1e3);
        }
    }

    for (name, (value, unit)) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    let correct = failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, u))| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Table 10: NG and SP must agree on EQ6 and EQ12, as the repository's
/// `ng_and_sp_agree_on_results` test pins. Returns the number of
/// disagreements.
fn check_encodings_agree(checker: &Checker, warmup: &[Request]) -> usize {
    let mut failed = 0;
    for label in ["EQ6", "EQ12"] {
        let fps: Vec<(String, Option<Fingerprint>)> = warmup
            .iter()
            .filter(|r| {
                r.class.starts_with(label) && r.class[label.len()..].starts_with(['a', 'b', '/'])
            })
            .map(|r| (r.class.clone(), checker.pinned(&r.text)))
            .collect();
        let agree = fps.len() == 2 && fps[0].1.is_some() && fps[0].1 == fps[1].1;
        if !agree {
            eprintln!("NG and SP disagree on {label}: {fps:?}");
            failed += 1;
        }
    }
    failed
}

/// Latencies of the checked requests, grouped by class, with one request
/// of the class.
fn by_class(phase: &Phase) -> BTreeMap<&str, (&Request, Vec<f64>)> {
    let mut out: BTreeMap<&str, (&Request, Vec<f64>)> = BTreeMap::new();
    for (req, ms) in phase.requests.iter().zip(&phase.ms) {
        if let Some(ms) = ms {
            out.entry(req.class.as_str())
                .or_insert((req, Vec::new()))
                .1
                .push(*ms);
        }
    }
    out
}

/// Prints the phase's counts, the harness's share of its time, and the
/// digest of the first `PREFIX` requests of the sequence. A phase that
/// ran fewer takes the rest from `next_block`, so the digest does not
/// depend on how fast the host was.
fn report_phase(phase: &Phase, next_block: &mut impl FnMut() -> Vec<Request>) {
    for e in &phase.errors {
        eprintln!("check failed: {e}");
    }
    let mut rest = Vec::new();
    while phase.requests.len() + rest.len() < PREFIX {
        rest.extend(next_block());
    }
    let facade_s: f64 = phase.ms.iter().flatten().sum::<f64>() / 1e3;
    println!(
        "measured: {} requests in {:.3} s, {} failed; sequence prefix digest {:016x}",
        phase.requests.len(),
        phase.seconds,
        phase.failed(),
        workload::digest(phase.requests.iter().chain(&rest).take(PREFIX))
    );
    println!(
        "harness: {:.3} s in facade calls, {:.3} s checking answers ({:.1}% of the phase, \
         left out of ops_per_s)",
        facade_s,
        phase.checking,
        100.0 * phase.checking / phase.seconds
    );
    for (class, (_, ms)) in by_class(phase) {
        println!(
            "class {class}: n={} p50={:.4} ms p95={:.4} ms",
            ms.len(),
            median(&ms).unwrap_or(0.0),
            quantile(&ms, 0.95).unwrap_or(0.0)
        );
    }
}

/// The end-to-end metrics of an untraced phase. Latency metrics are
/// geometric means over request classes (shape x encoding) of each
/// class's interquartile mean. A percentile over a mix of classes would sit
/// in the gap between two classes of very different cost, and a class
/// median jumps between the modes of a bimodal class (on `mixed`, a read
/// pays a recompilation or not depending on what ran since the last
/// write). Classes whose parameters come from a deck of `deck` entries
/// keep only whole decks, so every run weighs the same parameter mix.
fn end_to_end(
    m: &mut Metrics,
    phase: &Phase,
    deck: usize,
    setup_s: f64,
    attempted: usize,
    failed: usize,
) {
    let mut classes = by_class(phase);
    for (_, ms) in classes.values_mut() {
        if ms.len() >= deck {
            ms.truncate(ms.len() / deck * deck);
        }
    }
    let over = |keep: &dyn Fn(&Request) -> bool, stat: &dyn Fn(&[f64]) -> Option<f64>| -> f64 {
        let per_class: Vec<f64> = classes
            .values()
            .filter(|(r, _)| keep(r))
            .filter_map(|(_, ms)| stat(ms))
            .collect();
        geomean(&per_class).unwrap_or(0.0)
    };
    let typical = |ms: &[f64]| trimmed_mean(ms, TRIM);
    for family in Family::READS {
        m.insert(
            format!("{}_ms", family.name()),
            (over(&|r| r.family == family, &typical), "ms"),
        );
    }
    m.insert("read_ms".into(), (over(&|r| !r.write, &typical), "ms"));
    // Tails and the early-out class move with host load more than the
    // gated metrics can tolerate; they are printed, not gated.
    println!(
        "read p95 (geomean of class p95s): {:.4} ms; early-out (geomean of class trimmed means): {:.4} ms",
        over(&|r| !r.write, &|ms| quantile(ms, 0.95)),
        over(&|r| r.early_out, &typical)
    );
    let pooled = |keep: &dyn Fn(&Request) -> bool| -> Vec<f64> {
        classes
            .values()
            .filter(|(r, _)| keep(r))
            .flat_map(|(_, ms)| ms.iter().copied())
            .collect()
    };
    for (kind, ms) in [
        ("reads", pooled(&|r| !r.write)),
        ("writes", pooled(&|r| r.write)),
    ] {
        if !ms.is_empty() {
            println!(
                "pooled {kind}: n={} p50={:.4} ms p95={:.4} ms",
                ms.len(),
                median(&ms).unwrap_or(0.0),
                quantile(&ms, 0.95).unwrap_or(0.0)
            );
        }
    }
    let ok = attempted.saturating_sub(failed);
    m.insert("ops_per_s".into(), (phase.ops_per_s(), "1/s"));
    m.insert(
        "ok_rate".into(),
        (ok as f64 / attempted.max(1) as f64, "ratio"),
    );
    m.insert("setup_s".into(), (setup_s, "s"));
    m.insert("peak_rss_mb".into(), (setup::peak_rss_mb(), "MB"));
}

/// The two decomposed replays of a measured phase.
struct Replays<'t> {
    /// Spans only, telemetry off.
    plain: &'t Tracer,
    /// Spans and engine counters.
    traced: &'t Tracer,
    /// Seconds inside the decomposed calls of the traced replay.
    traced_s: f64,
    /// Plan-cache totals of the traced replay before it started.
    cache0: [u64; 4],
}

/// Per class, the median of the `request` spans in milliseconds.
fn request_medians<'p>(tracer: &Tracer, requests: &'p [Request]) -> BTreeMap<&'p str, f64> {
    let mut by: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in tracer.spans.iter().filter(|s| s.name == trace::REQUEST) {
        by.entry(requests[s.request].class.as_str())
            .or_default()
            .push((s.end - s.start) as f64 / 1e6);
    }
    by.into_iter()
        .filter_map(|(c, ms)| Some((c, median(&ms)?)))
        .collect()
}

/// The per-layer metrics of the replays of `phase`.
fn per_layer(
    m: &mut Metrics,
    replays: &Replays,
    phase: &Phase,
    built: &setup::Built,
    generates: &[f64],
    loads: &[f64],
) {
    let (tracer, traced_s, cache0) = (replays.traced, replays.traced_s, replays.cache0);
    let requests = &phase.requests;
    let n = requests.len().max(1) as f64;
    let reads: Vec<usize> = (0..requests.len())
        .filter(|&i| !requests[i].write)
        .collect();
    let n_reads = reads.len().max(1) as f64;
    let n_writes = requests.iter().filter(|r| r.write).count();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    m.insert(
        "twittergen.generate_s".into(),
        (median(generates).unwrap_or(0.0), "s"),
    );
    m.insert("core.load_s".into(), (median(loads).unwrap_or(0.0), "s"));
    m.insert("core.quads".into(), (built.quads as f64, "count"));

    // Span totals per family, in microseconds per request.
    let us = |name: &str| -> BTreeMap<Family, f64> {
        tracer
            .span_nanos(name, requests)
            .into_iter()
            .map(|(f, ns)| (f, ns as f64 / 1e3))
            .collect()
    };
    let total = |per: &BTreeMap<Family, f64>| per.values().fold(0.0, |a, b| a + b);
    m.insert(
        "quadstore.snapshot_us".into(),
        (total(&us(trace::SNAPSHOT)) / n_reads, "us"),
    );
    m.insert(
        "sparql.parse_us".into(),
        (total(&us(trace::PARSE)) / n_reads, "us"),
    );
    m.insert(
        "sparql.compile_us".into(),
        (total(&us(trace::COMPILE)) / n_reads, "us"),
    );
    let exec = us(trace::EXEC);
    m.insert("sparql.exec_us".into(), (total(&exec) / n_reads, "us"));
    let update = total(&us(trace::UPDATE));
    m.insert(
        "sparql.update_us".into(),
        (
            if n_writes == 0 {
                0.0
            } else {
                update / n_writes as f64
            },
            "us",
        ),
    );

    // Counters over all reads and per family.
    let mut all = trace::Counts::default();
    let mut fam: BTreeMap<Family, (trace::Counts, usize)> = BTreeMap::new();
    for (i, c) in tracer.counts.iter().enumerate() {
        all.add(c);
        let e = fam.entry(requests[i].family).or_default();
        e.0.add(c);
        e.1 += 1;
    }
    m.insert(
        "quadstore.range_scans_per_op".into(),
        (all.range_scans as f64 / n_reads, "count"),
    );
    m.insert(
        "quadstore.rows_scanned_per_op".into(),
        (all.rows_scanned as f64 / n_reads, "count"),
    );
    m.insert(
        "quadstore.match_ratio".into(),
        (ratio(all.rows_matched, all.rows_scanned), "ratio"),
    );
    m.insert(
        "quadstore.delta_hits".into(),
        (all.delta_hits as f64, "count"),
    );
    m.insert(
        "quadstore.publishes".into(),
        (all.publishes as f64, "count"),
    );
    m.insert(
        "quadstore.compactions".into(),
        (all.compactions as f64, "count"),
    );
    m.insert(
        "sparql.hash_build_rows_per_op".into(),
        (all.hash_build_rows as f64 / n_reads, "count"),
    );
    m.insert(
        "sparql.morsels_per_op".into(),
        (all.morsels as f64 / n_reads, "count"),
    );
    m.insert(
        "sparql.vec_rows_per_batch".into(),
        (ratio(all.vec_rows, all.vec_batches), "count"),
    );
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let exec_ns = total(&exec) * 1e3;
    m.insert(
        "sparql.worker_busy_ratio".into(),
        (
            if exec_ns > 0.0 {
                all.busy_nanos as f64 / (exec_ns * threads)
            } else {
                0.0
            },
            "ratio",
        ),
    );
    for family in Family::READS {
        let (c, k) = fam.get(&family).copied().unwrap_or_default();
        let k = k.max(1) as f64;
        let f = family.name();
        m.insert(
            format!("sparql.exec_us.{f}"),
            (exec.get(&family).copied().unwrap_or(0.0) / k, "us"),
        );
        m.insert(
            format!("quadstore.range_scans_per_op.{f}"),
            (c.range_scans as f64 / k, "count"),
        );
        m.insert(
            format!("quadstore.rows_scanned_per_op.{f}"),
            (c.rows_scanned as f64 / k, "count"),
        );
        m.insert(
            format!("sparql.hash_build_rows_per_op.{f}"),
            (c.hash_build_rows as f64 / k, "count"),
        );
        m.insert(
            format!("sparql.morsels_per_op.{f}"),
            (c.morsels as f64 / k, "count"),
        );
        m.insert(
            format!("sparql.vec_rows_per_batch.{f}"),
            (ratio(c.vec_rows, c.vec_batches), "count"),
        );
    }

    // Plan cache over the replay.
    let [hits, misses, inval, evict] = tracer.cache_totals();
    let (hits, misses) = (hits - cache0[0], misses - cache0[1]);
    m.insert(
        "sparql.plan_cache_hit_ratio".into(),
        (ratio(hits, hits + misses), "ratio"),
    );
    m.insert(
        "sparql.plan_cache_invalidations".into(),
        ((inval - cache0[2]) as f64, "count"),
    );
    m.insert(
        "sparql.plan_cache_evictions".into(),
        ((evict - cache0[3]) as f64, "count"),
    );

    // Facade cost: per class, the facade's median minus the plain
    // decomposed path's median; the median over classes.
    let plain = request_medians(replays.plain, requests);
    let diffs: Vec<f64> = by_class(phase)
        .iter()
        .filter_map(|(c, (_, ms))| Some((median(ms)? - plain.get(c)?) * 1e3))
        .collect();
    m.insert(
        "core.facade_us".into(),
        (median(&diffs).unwrap_or(0.0), "us"),
    );

    let untraced_rate = phase.ops_per_s();
    let traced_rate = n / traced_s;
    println!("tracing: untraced {untraced_rate:.2} ops/s, traced {traced_rate:.2} ops/s");
    m.insert(
        "bench.trace_overhead".into(),
        (untraced_rate / traced_rate, "ratio"),
    );
}
