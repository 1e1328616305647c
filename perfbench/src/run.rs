//! Running requests through the `PgRdfStore` facade and checking answers.

use std::collections::HashMap;
use std::time::Instant;

use sparql::{ExecOptions, QueryResults, Solutions};

use crate::oracle::{row_hashes, Fingerprint};
use crate::setup::Loaded;
use crate::workload::{Expect, Request};

/// A decoded answer.
pub enum Answer {
    /// SELECT rows.
    Rows(Solutions),
    /// ASK verdict.
    Bool(bool),
    /// An update was applied.
    Updated,
}

impl Answer {
    /// Wraps facade query results.
    pub fn from_results(results: QueryResults) -> Result<Answer, String> {
        match results {
            QueryResults::Solutions(s) => Ok(Answer::Rows(s)),
            QueryResults::Boolean(b) => Ok(Answer::Bool(b)),
            QueryResults::Graph(_) => Err("unexpected CONSTRUCT result".into()),
        }
    }
}

/// One request through the facade with default `ExecOptions`.
pub fn facade(stores: &[Loaded], req: &Request) -> Result<Answer, String> {
    let store = &stores[req.store].store;
    let out = if req.write {
        store.update(&req.text).map(|_| Answer::Updated)
    } else if let Some(dataset) = &req.dataset {
        store
            .select_in_with(dataset, &req.text, ExecOptions::default())
            .map(Answer::Rows)
    } else {
        return store
            .query_with(&req.text, ExecOptions::default())
            .map_err(|e| e.to_string())
            .and_then(Answer::from_results);
    };
    out.map_err(|e| e.to_string())
}

/// Checks answers against their expectations. Answers of texts without
/// an oracle are pinned by the warm-up pass.
#[derive(Default)]
pub struct Checker {
    warm: HashMap<String, Fingerprint>,
    /// Order-independent digest of every fingerprint checked so far.
    pub digest: u64,
}

impl Checker {
    /// Whether `answer` is a correct answer to `req`; `Err` says why not.
    pub fn check(&mut self, req: &Request, answer: &Answer) -> Result<(), String> {
        match (&req.expect, answer) {
            (Expect::Rows(want), Answer::Rows(sols)) => {
                self.same(req, *want, Fingerprint::of(sols))
            }
            (Expect::SameAsWarmup, Answer::Rows(sols)) => {
                let got = Fingerprint::of(sols);
                let want = *self.warm.entry(req.text.clone()).or_insert(got);
                self.same(req, want, got)
            }
            (Expect::Subset { of, rows }, Answer::Rows(sols)) => {
                if sols.len() != *rows {
                    return Err(format!("{}: {} rows, want {rows}", req.class, sols.len()));
                }
                if !row_hashes(sols).all(|h| of.contains(&h)) {
                    return Err(format!("{}: a row outside the full answer", req.class));
                }
                self.note(Fingerprint::of(sols));
                Ok(())
            }
            (Expect::Ask(want), Answer::Bool(got)) if want == got => Ok(()),
            (Expect::Applied, Answer::Updated) => Ok(()),
            _ => Err(format!("{}: wrong answer kind or verdict", req.class)),
        }
    }

    fn same(&mut self, req: &Request, want: Fingerprint, got: Fingerprint) -> Result<(), String> {
        if want != got {
            return Err(format!(
                "{}: {} rows (hash {:016x}), want {} rows (hash {:016x})",
                req.class, got.rows, got.hash, want.rows, want.hash
            ));
        }
        self.note(got);
        Ok(())
    }

    fn note(&mut self, fp: Fingerprint) {
        self.digest = self.digest.wrapping_add(fp.hash ^ fp.rows.rotate_left(32));
    }

    /// The warm-up fingerprint of a text, if it was pinned.
    pub fn pinned(&self, text: &str) -> Option<Fingerprint> {
        self.warm.get(text).copied()
    }
}

/// The outcome of a measured phase.
pub struct Phase {
    /// Requests in the order issued.
    pub requests: Vec<Request>,
    /// Facade latency of each request in milliseconds; `None` when its
    /// answer failed the check.
    pub ms: Vec<Option<f64>>,
    /// Seconds of the phase, request generation excluded.
    pub seconds: f64,
    /// Seconds spent checking answers (and dropping them) within `seconds`.
    pub checking: f64,
    /// First failures, for the report.
    pub errors: Vec<String>,
}

impl Phase {
    /// Requests whose answer failed its check.
    pub fn failed(&self) -> usize {
        self.ms.iter().filter(|m| m.is_none()).count()
    }

    /// Checked-correct requests per second of facade time: the harness's
    /// own work (generating requests, checking answers) is left out.
    pub fn ops_per_s(&self) -> f64 {
        let ok_ms: f64 = self.ms.iter().flatten().sum();
        self.ms.iter().flatten().count() as f64 / (ok_ms / 1e3)
    }
}

/// Runs requests through the facade until `seconds` have passed (request
/// generation excluded), then finishes the current block. Each request
/// is timed alone; its answer is checked after the clock stops.
pub fn measure(
    stores: &[Loaded],
    checker: &mut Checker,
    mut next_block: impl FnMut() -> Vec<Request>,
    seconds: f64,
) -> Phase {
    let mut phase = Phase {
        requests: Vec::new(),
        ms: Vec::new(),
        seconds: 0.0,
        checking: 0.0,
        errors: Vec::new(),
    };
    let start = Instant::now();
    let mut generating = 0.0;
    while start.elapsed().as_secs_f64() - generating < seconds {
        let g0 = Instant::now();
        let block = next_block();
        generating += g0.elapsed().as_secs_f64();
        for req in block {
            let t0 = Instant::now();
            let answer = facade(stores, &req);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let c0 = Instant::now();
            let verdict = answer.and_then(|a| checker.check(&req, &a));
            phase.checking += c0.elapsed().as_secs_f64();
            if let Err(e) = &verdict {
                if phase.errors.len() < 5 {
                    phase.errors.push(e.clone());
                }
            }
            phase.ms.push(verdict.ok().map(|_| ms));
            phase.requests.push(req);
        }
    }
    phase.seconds = start.elapsed().as_secs_f64() - generating;
    phase
}
