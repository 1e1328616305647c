//! The traced run: the same requests through the decomposed public calls
//! of each layer, with spans kept in memory and engine counters read
//! around every request.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use sparql::{CompileOptions, ExecOptions, PlanCache};
use telemetry::{Counter, Histogram, MetricValue};

use crate::run::Answer;
use crate::setup::Loaded;
use crate::workload::{Family, Request};

/// Span names, one per layer boundary.
pub const REQUEST: &str = "request";
pub const SNAPSHOT: &str = "quadstore.snapshot";
pub const PLAN_CACHE: &str = "sparql.plan_cache";
pub const PARSE: &str = "sparql.parse";
pub const COMPILE: &str = "sparql.compile";
pub const EXEC: &str = "sparql.exec";
pub const UPDATE: &str = "sparql.update";

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name.
    pub name: &'static str,
    /// Nanoseconds since the trace started.
    pub start: u64,
    /// Nanoseconds since the trace started.
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: usize,
}

/// Engine counters read around each request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub range_scans: u64,
    pub rows_scanned: u64,
    pub rows_matched: u64,
    pub delta_hits: u64,
    pub publishes: u64,
    pub compactions: u64,
    pub morsels: u64,
    pub busy_nanos: u64,
    pub hash_build_rows: u64,
    pub vec_rows: u64,
    pub vec_batches: u64,
}

impl Counts {
    /// `self - before`, field by field.
    pub fn since(&self, before: &Counts) -> Counts {
        Counts {
            range_scans: self.range_scans - before.range_scans,
            rows_scanned: self.rows_scanned - before.rows_scanned,
            rows_matched: self.rows_matched - before.rows_matched,
            delta_hits: self.delta_hits - before.delta_hits,
            publishes: self.publishes - before.publishes,
            compactions: self.compactions - before.compactions,
            morsels: self.morsels - before.morsels,
            busy_nanos: self.busy_nanos - before.busy_nanos,
            hash_build_rows: self.hash_build_rows - before.hash_build_rows,
            vec_rows: self.vec_rows - before.vec_rows,
            vec_batches: self.vec_batches - before.vec_batches,
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, d: &Counts) {
        self.range_scans += d.range_scans;
        self.rows_scanned += d.rows_scanned;
        self.rows_matched += d.rows_matched;
        self.delta_hits += d.delta_hits;
        self.publishes += d.publishes;
        self.compactions += d.compactions;
        self.morsels += d.morsels;
        self.busy_nanos += d.busy_nanos;
        self.hash_build_rows += d.hash_build_rows;
        self.vec_rows += d.vec_rows;
        self.vec_batches += d.vec_batches;
    }
}

/// Handles onto the `pgrdf_*` series of the global telemetry registry.
struct Probes {
    counters: Vec<(String, Arc<Counter>)>,
    histograms: Vec<(String, Arc<Histogram>)>,
}

impl Probes {
    /// Resolves every series registered so far. Index series carry one
    /// label per composite index; all of them are summed.
    fn resolve() -> Probes {
        let reg = telemetry::global();
        let mut counters = Vec::new();
        let mut histograms = Vec::new();
        for s in reg.samples() {
            match (&s.value, &s.label) {
                (MetricValue::Counter(_), None) => {
                    counters.push((s.name.clone(), reg.counter(&s.name, &s.help)))
                }
                (MetricValue::Counter(_), Some((k, v))) => {
                    counters.push((s.name.clone(), reg.counter_with(&s.name, k, v, &s.help)))
                }
                (MetricValue::Histogram { .. }, None) => {
                    histograms.push((s.name.clone(), reg.histogram(&s.name, &s.help)))
                }
                _ => {}
            }
        }
        Probes {
            counters,
            histograms,
        }
    }

    fn read(&self) -> Counts {
        let mut c = Counts::default();
        for (name, counter) in &self.counters {
            let v = counter.get();
            match name.as_str() {
                "pgrdf_index_range_scans_total" => c.range_scans += v,
                "pgrdf_index_rows_scanned_total" => c.rows_scanned += v,
                "pgrdf_index_rows_matched_total" => c.rows_matched += v,
                "pgrdf_delta_hits_total" => c.delta_hits += v,
                "pgrdf_publishes_total" => c.publishes += v,
                "pgrdf_compactions_total" => c.compactions += v,
                "pgrdf_morsels_claimed_total" => c.morsels += v,
                "pgrdf_vec_rows_emitted_total" => c.vec_rows += v,
                "pgrdf_vec_batches_emitted_total" => c.vec_batches += v,
                _ => {}
            }
        }
        for (name, hist) in &self.histograms {
            match name.as_str() {
                "pgrdf_worker_busy_nanos" => c.busy_nanos += hist.sum(),
                "pgrdf_hash_build_rows" => c.hash_build_rows += hist.sum(),
                _ => {}
            }
        }
        c
    }
}

/// Span recorder and per-store plan caches of the decomposed path.
pub struct Tracer {
    epoch: Instant,
    /// Every span, in start order per request.
    pub spans: Vec<Span>,
    caches: Vec<PlanCache>,
    probes: Option<Probes>,
    /// Counter deltas per request (empty without counting).
    pub counts: Vec<Counts>,
}

impl Tracer {
    /// A tracer with one plan cache per store. With `counting` it turns
    /// telemetry on and reads the engine counters around every request;
    /// without, it records spans only.
    pub fn new(stores: &[Loaded], counting: bool) -> Tracer {
        if counting {
            telemetry::set_enabled(true);
        }
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            caches: stores.iter().map(|_| PlanCache::default()).collect(),
            probes: counting.then(Probes::resolve),
            counts: Vec::new(),
        }
    }

    /// Re-resolves counter handles (after a warm-up registered them).
    pub fn refresh_probes(&mut self) {
        if self.probes.is_some() {
            self.probes = Some(Probes::resolve());
        }
    }

    /// Forgets spans and counts (after a warm-up).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.counts.clear();
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end = self.now();
    }

    /// Hit, miss, invalidation and eviction totals over all plan caches.
    pub fn cache_totals(&self) -> [u64; 4] {
        self.caches.iter().fold([0; 4], |acc, c| {
            [
                acc[0] + c.hits(),
                acc[1] + c.misses(),
                acc[2] + c.invalidations(),
                acc[3] + c.evictions(),
            ]
        })
    }

    /// Runs one request as snapshot -> dataset view -> plan cache (parse,
    /// compile on a miss) -> execute, or as `sparql::update` for writes.
    pub fn run(&mut self, stores: &[Loaded], req: &Request, id: usize) -> Result<Answer, String> {
        let before = self.probes.as_ref().map(Probes::read);
        let root = self.open(REQUEST, None, id);
        let out = self.layers(stores, req, id, root);
        self.close(root);
        if let (Some(probes), Some(before)) = (&self.probes, before) {
            self.counts.push(probes.read().since(&before));
        }
        out
    }

    fn layers(
        &mut self,
        stores: &[Loaded],
        req: &Request,
        id: usize,
        root: usize,
    ) -> Result<Answer, String> {
        let facade = &stores[req.store].store;
        let store = facade.store();
        if req.write {
            let span = self.open(UPDATE, Some(root), id);
            let out = sparql::update(store, &facade.dataset_name(), &req.text);
            self.close(span);
            return out.map(|_| Answer::Updated).map_err(|e| e.to_string());
        }
        let dataset = req.dataset.clone().unwrap_or_else(|| facade.dataset_name());
        let span = self.open(SNAPSHOT, Some(root), id);
        let snapshot = store.snapshot();
        let view = snapshot.dataset(&dataset).map_err(|e| e.to_string());
        self.close(span);
        let view = view?;
        let options = ExecOptions::default();
        let copts = CompileOptions {
            vectorize: options.vectorize,
            use_cbo: options.use_cbo,
            ..Default::default()
        };
        let key = format!("{dataset}={}", view.index_signature());
        let lookup = self.open(PLAN_CACHE, Some(root), id);
        let mut inner: Vec<(&'static str, u64, u64)> = Vec::new();
        let epoch = self.epoch;
        let now = || epoch.elapsed().as_nanos() as u64;
        let plan = self.caches[req.store].get_or_compile(
            &key,
            &req.text,
            copts,
            snapshot.epoch(),
            || view.stats_version(),
            || {
                let t0 = now();
                let parsed = sparql::parse_query(&req.text);
                let t1 = now();
                inner.push((PARSE, t0, t1));
                let compiled = sparql::compile_with(&view, &parsed?, copts);
                inner.push((COMPILE, t1, now()));
                compiled
            },
        );
        for (name, start, end) in inner {
            self.spans.push(Span {
                name,
                start,
                end,
                parent: Some(lookup),
                request: id,
            });
        }
        self.close(lookup);
        let plan = plan.map_err(|e| e.to_string())?;
        let span = self.open(EXEC, Some(root), id);
        let results = sparql::execute_compiled_with_options(&view, &plan, options);
        self.close(span);
        results
            .map_err(|e| e.to_string())
            .and_then(Answer::from_results)
    }

    /// Self time per span name in nanoseconds: each span's duration minus
    /// the part its children cover.
    pub fn self_nanos(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_default() += (s.end - s.start).saturating_sub(child[i]);
        }
        out
    }

    /// Total nanoseconds of the spans named `name`, per request family.
    pub fn span_nanos(&self, name: &str, requests: &[Request]) -> BTreeMap<Family, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(requests[s.request].family).or_default() += s.end - s.start;
        }
        out
    }

    /// Writes every span as one JSON line, followed by the self times.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        let selfs: Vec<String> = self
            .self_nanos()
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        writeln!(out, "{{\"self_ns\":{{{}}}}}", selfs.join(","))?;
        out.flush()
    }
}
