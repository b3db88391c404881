//! The what-if query service: a long-running, batched request/response
//! engine over trace replay.
//!
//! One [`ReplayService`] owns a normalized trace plus base
//! [`ReplayOptions`]; clients ask "what if the cluster had bandwidth X /
//! placement Y / scheduler Z?" as
//! [`WhatIfQuery`]s. Queries arrive in batches, and the service answers
//! a batch in three steps:
//!
//! 1. **Fingerprint & dedup.** Each query overlays the base options and
//!    the effective [`ReplayOptions`] is serialized to its canonical JSON
//!    — that string *is* the config fingerprint. Duplicate fingerprints
//!    inside a batch collapse to one execution.
//! 2. **Cache.** Fingerprints seen before answer straight from an LRU
//!    result cache (capacity [`ReplayService::new`]'s `cache_capacity`,
//!    hit counter exposed in [`ServiceStats`]). A cached answer is the
//!    *same* `ReplayReport` the cold run produced — replay is
//!    deterministic, so caching is semantically invisible.
//! 3. **Execute.** The remaining unique misses fan out across the
//!    process-wide persistent [`bs_sim::WorkerPool`] — the same threads
//!    the harness's sweep `parallel_map` uses — one full
//!    [`replay_trace`] per miss.
//!
//! The service is deliberately synchronous per batch (submit → answers),
//! which is all the harness and benchmark need; a daemon wrapping it in a
//! socket loop would add transport, not semantics.

use bs_cluster::PlacementPolicy;
use bs_runtime::SchedulerKind;
use bs_scope::{ScopeBus, ScopeEvent};
use bs_sim::{SimTime, WorkerPool};
use serde::Serialize;

use crate::replay::{replay_trace, ReplayOptions, ReplayReport};
use crate::trace::TraceJob;

/// One "what if the cluster were configured like this?" request. Every
/// field is an overlay on the service's base [`ReplayOptions`]; `None`
/// keeps the base value.
#[derive(Clone, Debug, Default, Serialize)]
pub struct WhatIfQuery {
    /// NIC bandwidth, Gbps.
    pub bandwidth_gbps: Option<f64>,
    /// Placement policy.
    pub placement: Option<PlacementPolicy>,
    /// Scheduler (and with it the ByteScheduler partition/credit knobs —
    /// the credit-config axis of a what-if sweep).
    pub scheduler: Option<SchedulerKind>,
    /// Replay only the first `n` arrivals.
    pub truncate: Option<usize>,
}

impl WhatIfQuery {
    /// The effective options this query resolves to over `base`.
    pub fn resolve(&self, base: &ReplayOptions) -> ReplayOptions {
        let mut o = base.clone();
        if let Some(b) = self.bandwidth_gbps {
            o.bandwidth_gbps = b;
        }
        if let Some(p) = self.placement {
            o.placement = p;
        }
        if let Some(s) = self.scheduler {
            o.scheduler = s;
        }
        if let Some(n) = self.truncate {
            o.truncate = Some(n);
        }
        o
    }
}

/// How a batch answer was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum AnswerSource {
    /// Executed fresh in this batch.
    Computed,
    /// Served from the LRU cache (a previous batch computed it).
    Cache,
    /// Collapsed onto another query in the *same* batch with an
    /// identical fingerprint.
    BatchDedup,
}

/// One query's answer.
#[derive(Clone, Debug, Serialize)]
pub struct WhatIfAnswer {
    /// The effective-config fingerprint (canonical options JSON).
    pub fingerprint: String,
    /// Where the report came from.
    pub source: AnswerSource,
    /// The full replay outcome.
    pub report: ReplayReport,
}

/// Service counters, cumulative across batches.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct ServiceStats {
    /// Queries answered.
    pub queries: u64,
    /// Answers served from the LRU cache.
    pub cache_hits: u64,
    /// Answers collapsed onto an identical query in the same batch.
    pub batch_dedup: u64,
    /// Replays actually executed.
    pub executed: u64,
    /// Cache entries evicted by LRU pressure.
    pub evictions: u64,
}

/// A batched, cached what-if engine over one trace.
pub struct ReplayService {
    jobs: Vec<TraceJob>,
    base: ReplayOptions,
    /// LRU cache: most-recently-used at the back. Linear scans are fine —
    /// capacities are tens of entries guarding multi-second replays.
    cache: Vec<(String, ReplayReport)>,
    capacity: usize,
    stats: ServiceStats,
    /// Observed batches answered so far (numbers `whatif_batch` events).
    batches: u64,
}

impl ReplayService {
    /// A service over `jobs` with `base` defaults and an LRU of
    /// `cache_capacity` reports (minimum 1).
    pub fn new(jobs: Vec<TraceJob>, base: ReplayOptions, cache_capacity: usize) -> ReplayService {
        assert!(!jobs.is_empty(), "service needs a non-empty trace");
        ReplayService {
            jobs,
            base,
            cache: Vec::new(),
            capacity: cache_capacity.max(1),
            stats: ServiceStats::default(),
            batches: 0,
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// The canonical fingerprint of a query against this service's base.
    pub fn fingerprint(&self, q: &WhatIfQuery) -> String {
        serde_json::to_string(&q.resolve(&self.base)).expect("options serialize")
    }

    fn cache_get(&mut self, fp: &str) -> Option<ReplayReport> {
        let idx = self.cache.iter().position(|(k, _)| k == fp)?;
        // Touch: move to the MRU end.
        let entry = self.cache.remove(idx);
        let report = entry.1.clone();
        self.cache.push(entry);
        Some(report)
    }

    fn cache_put(&mut self, fp: String, report: ReplayReport) {
        if let Some(idx) = self.cache.iter().position(|(k, _)| *k == fp) {
            self.cache.remove(idx);
        } else if self.cache.len() == self.capacity {
            self.cache.remove(0);
            self.stats.evictions += 1;
        }
        self.cache.push((fp, report));
    }

    /// Answers a batch of queries, in input order. Unique cache misses
    /// execute concurrently on the shared persistent worker pool.
    pub fn submit_batch(&mut self, queries: &[WhatIfQuery]) -> Vec<WhatIfAnswer> {
        self.stats.queries += queries.len() as u64;

        // Classify each query: cache hit, batch duplicate, or miss.
        let fps: Vec<String> = queries.iter().map(|q| self.fingerprint(q)).collect();
        let mut misses: Vec<(String, ReplayOptions)> = Vec::new();
        let mut sources: Vec<AnswerSource> = Vec::with_capacity(queries.len());
        let mut cached: Vec<Option<ReplayReport>> = Vec::with_capacity(queries.len());
        for (q, fp) in queries.iter().zip(&fps) {
            if let Some(report) = self.cache_get(fp) {
                self.stats.cache_hits += 1;
                sources.push(AnswerSource::Cache);
                cached.push(Some(report));
            } else if misses.iter().any(|(k, _)| k == fp) {
                self.stats.batch_dedup += 1;
                sources.push(AnswerSource::BatchDedup);
                cached.push(None);
            } else {
                misses.push((fp.clone(), q.resolve(&self.base)));
                sources.push(AnswerSource::Computed);
                cached.push(None);
            }
        }

        // Execute the unique misses on the shared pool.
        self.stats.executed += misses.len() as u64;
        let mut slots: Vec<Option<ReplayReport>> = (0..misses.len()).map(|_| None).collect();
        {
            let jobs = &self.jobs;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                .iter_mut()
                .zip(&misses)
                .map(|(slot, (_, opts))| {
                    let t: Box<dyn FnOnce() + Send + '_> =
                        Box::new(move || *slot = Some(replay_trace(jobs, opts)));
                    t
                })
                .collect();
            WorkerPool::shared().run_scoped(tasks);
        }
        let fresh: Vec<(String, ReplayReport)> = misses
            .into_iter()
            .zip(slots)
            .map(|((fp, _), r)| (fp, r.expect("pool ran every task")))
            .collect();
        for (fp, report) in &fresh {
            self.cache_put(fp.clone(), report.clone());
        }

        // Assemble answers in input order.
        fps.into_iter()
            .zip(sources)
            .zip(cached)
            .map(|((fp, source), pre)| {
                let report = match pre {
                    Some(r) => r,
                    None => fresh
                        .iter()
                        .find(|(k, _)| *k == fp)
                        .expect("miss was executed")
                        .1
                        .clone(),
                };
                WhatIfAnswer {
                    fingerprint: fp,
                    source,
                    report,
                }
            })
            .collect()
    }

    /// [`Self::submit_batch`] with an optional scope bus: each batch
    /// publishes one `whatif_batch` event summarising how its answers
    /// were produced (computed / cache hit / in-batch dedup). The
    /// service has no simulated clock, so batch events carry `t = 0`
    /// and are ordered by their batch number.
    pub fn submit_batch_observed(
        &mut self,
        queries: &[WhatIfQuery],
        scope: Option<&mut ScopeBus>,
    ) -> Vec<WhatIfAnswer> {
        let before = self.stats;
        let answers = self.submit_batch(queries);
        self.batches += 1;
        if let Some(bus) = scope {
            bus.publish(ScopeEvent::WhatIfBatch {
                batch: self.batches,
                at: SimTime::ZERO,
                queries: queries.len(),
                computed: (self.stats.executed - before.executed) as usize,
                cache_hits: (self.stats.cache_hits - before.cache_hits) as usize,
                batch_dedup: (self.stats.batch_dedup - before.batch_dedup) as usize,
            });
        }
        answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ModelClass;

    fn trace(n: usize) -> Vec<TraceJob> {
        (0..n)
            .map(|i| TraceJob {
                name: format!("svc-{i}"),
                submit_secs: 10.0 * i as f64,
                gpus: 4,
                duration_secs: 900.0,
                class: ModelClass::Alexnet,
                iters: 3,
            })
            .collect()
    }

    fn opts() -> ReplayOptions {
        ReplayOptions {
            iters_cap: 3,
            wave: 4,
            ..ReplayOptions::default()
        }
    }

    #[test]
    fn repeat_query_hits_cache_with_identical_result() {
        let mut svc = ReplayService::new(trace(2), opts(), 4);
        let q = WhatIfQuery::default();
        let cold = svc.submit_batch(std::slice::from_ref(&q));
        assert_eq!(cold[0].source, AnswerSource::Computed);
        let warm = svc.submit_batch(std::slice::from_ref(&q));
        assert_eq!(warm[0].source, AnswerSource::Cache);
        assert_eq!(svc.stats().cache_hits, 1);
        assert_eq!(svc.stats().executed, 1);
        // The cached answer is byte-identical to the cold one.
        assert_eq!(
            serde_json::to_string(&cold[0].report).expect("serializes"),
            serde_json::to_string(&warm[0].report).expect("serializes"),
        );
    }

    #[test]
    fn batch_dedup_collapses_identical_queries() {
        let mut svc = ReplayService::new(trace(2), opts(), 4);
        let q = WhatIfQuery::default();
        let distinct = WhatIfQuery {
            bandwidth_gbps: Some(10.0),
            ..WhatIfQuery::default()
        };
        let answers = svc.submit_batch(&[q.clone(), distinct, q]);
        assert_eq!(answers[0].source, AnswerSource::Computed);
        assert_eq!(answers[1].source, AnswerSource::Computed);
        assert_eq!(answers[2].source, AnswerSource::BatchDedup);
        assert_eq!(svc.stats().executed, 2);
        assert_eq!(
            serde_json::to_string(&answers[0].report).expect("serializes"),
            serde_json::to_string(&answers[2].report).expect("serializes"),
        );
        // Different bandwidth must fingerprint differently.
        assert_ne!(answers[0].fingerprint, answers[1].fingerprint);
    }

    #[test]
    fn lru_evicts_oldest_and_recapped_queries_recompute() {
        let mut svc = ReplayService::new(trace(1), opts(), 1);
        let a = WhatIfQuery::default();
        let b = WhatIfQuery {
            bandwidth_gbps: Some(10.0),
            ..WhatIfQuery::default()
        };
        svc.submit_batch(std::slice::from_ref(&a));
        svc.submit_batch(std::slice::from_ref(&b)); // evicts a
        assert_eq!(svc.stats().evictions, 1);
        let again = svc.submit_batch(std::slice::from_ref(&a));
        assert_eq!(again[0].source, AnswerSource::Computed);
    }
}
