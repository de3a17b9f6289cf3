//! The flat chunk-split batch executor, kept as a benchmark baseline (like
//! [`crate::DenseMaterializeExact`]): the fig9 and fig11 gates measure the
//! client paths against it. Production batches go through a
//! `friends_service::SearchClient`.
//!
//! Processors hold per-query scratch state (`&mut self`), so the natural
//! parallelism unit is *one processor instance per worker thread*. The
//! executor chunks a workload, builds a processor in each worker via the
//! caller's factory, and writes results into pre-allocated per-chunk output
//! slots — no shared mutex, no post-hoc reordering.

use friends_core::cache::ProximityCache;
use friends_core::corpus::SearchResult;
use friends_core::processors::Processor;
use friends_data::queries::Query;
use std::sync::Arc;

/// Runs `queries` across `threads` workers, each with its own processor
/// built by `factory`. Results come back in input order.
///
/// `threads == 0` is treated as 1. The factory runs once per worker, so
/// per-processor build cost (e.g. [`crate::processors::ClusterIndex`]'s
/// sketches) is paid `threads` times — share prebuilt indexes through the
/// factory closure when that matters.
pub fn par_batch<P, F>(queries: &[Query], threads: usize, factory: F) -> Vec<SearchResult>
where
    P: Processor,
    F: Fn() -> P + Sync,
{
    par_batch_impl(queries, threads, &factory)
}

/// [`par_batch`] with a shared seeker-proximity cache threaded through the
/// factory: every worker's processor reads and feeds the same cache, so a
/// skewed workload pays each `(seeker, model)` materialization once across
/// the whole batch instead of once per worker per occurrence.
pub fn par_batch_with_cache<P, F>(
    queries: &[Query],
    threads: usize,
    cache: &Arc<ProximityCache>,
    factory: F,
) -> Vec<SearchResult>
where
    P: Processor,
    F: Fn(Arc<ProximityCache>) -> P + Sync,
{
    let make = || factory(Arc::clone(cache));
    par_batch_impl(queries, threads, &make)
}

fn par_batch_impl<P, F>(queries: &[Query], threads: usize, factory: &F) -> Vec<SearchResult>
where
    P: Processor,
    F: Fn() -> P + Sync,
{
    let threads = threads.max(1).min(queries.len().max(1));
    if threads <= 1 {
        let mut p = factory();
        return queries.iter().map(|q| p.query(q)).collect();
    }
    let chunk_len = queries.len().div_ceil(threads);
    // One pre-allocated output slot per chunk: workers write disjoint slots,
    // so no synchronization or re-sorting is needed to restore input order.
    let mut slots: Vec<Vec<SearchResult>> = Vec::new();
    slots.resize_with(queries.len().div_ceil(chunk_len), Vec::new);
    crossbeam::thread::scope(|scope| {
        for (chunk, slot) in queries.chunks(chunk_len).zip(slots.iter_mut()) {
            scope.spawn(move |_| {
                let mut p = factory();
                slot.reserve_exact(chunk.len());
                slot.extend(chunk.iter().map(|q| p.query(q)));
            });
        }
    })
    .expect("worker thread panicked");
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use friends_core::corpus::Corpus;
    use friends_core::processors::{ExactOnline, ExpansionConfig, FriendExpansion};
    use friends_core::proximity::ProximityModel;
    use friends_data::datasets::{DatasetSpec, Scale};
    use friends_data::queries::{QueryParams, QueryWorkload};

    fn fixture() -> (Corpus, QueryWorkload) {
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(8);
        let corpus = Corpus::new(ds.graph, ds.store);
        let w = QueryWorkload::generate(
            &corpus.graph,
            &corpus.store,
            &QueryParams {
                count: 23, // deliberately not divisible by the thread count
                ..QueryParams::default()
            },
            4,
        );
        (corpus, w)
    }

    #[test]
    fn parallel_matches_sequential() {
        let (corpus, w) = fixture();
        let seq = par_batch(&w.queries, 1, || {
            ExactOnline::new(&corpus, ProximityModel::WeightedDecay { alpha: 0.5 })
        });
        let par = par_batch(&w.queries, 4, || {
            ExactOnline::new(&corpus, ProximityModel::WeightedDecay { alpha: 0.5 })
        });
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.items, b.items);
        }
    }

    #[test]
    fn works_with_expansion_processor() {
        let (corpus, w) = fixture();
        let results = par_batch(&w.queries, 3, || {
            FriendExpansion::new(&corpus, ExpansionConfig::default())
        });
        assert_eq!(results.len(), w.len());
        for r in &results {
            assert!(r.items.len() <= 10);
        }
    }

    #[test]
    fn degenerate_inputs() {
        let (corpus, _) = fixture();
        let empty: Vec<Query> = Vec::new();
        let r = par_batch(&empty, 8, || {
            ExactOnline::new(&corpus, ProximityModel::Global)
        });
        assert!(r.is_empty());

        let one = vec![Query {
            seeker: 0,
            tags: vec![0],
            k: 3,
        }];
        let r = par_batch(&one, 0, || {
            ExactOnline::new(&corpus, ProximityModel::Global)
        });
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn more_threads_than_queries() {
        let (corpus, _) = fixture();
        let qs = vec![
            Query {
                seeker: 1,
                tags: vec![0, 1],
                k: 5,
            };
            2
        ];
        let r = par_batch(&qs, 16, || {
            ExactOnline::new(&corpus, ProximityModel::Global)
        });
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].items, r[1].items);
    }

    #[test]
    fn cached_batch_matches_uncached_and_hits() {
        let (corpus, w) = fixture();
        let model = ProximityModel::WeightedDecay { alpha: 0.5 };
        let plain = par_batch(&w.queries, 4, || ExactOnline::new(&corpus, model));
        let cache = Arc::new(ProximityCache::new(256));
        let cached = par_batch_with_cache(&w.queries, 4, &cache, |c| {
            ExactOnline::with_cache(&corpus, model, c)
        });
        assert_eq!(plain.len(), cached.len());
        for (a, b) in plain.iter().zip(&cached) {
            assert_eq!(a.items, b.items);
        }
        // Run the same workload again: every seeker is now cached.
        let again = par_batch_with_cache(&w.queries, 4, &cache, |c| {
            ExactOnline::with_cache(&corpus, model, c)
        });
        for (a, b) in plain.iter().zip(&again) {
            assert_eq!(a.items, b.items);
        }
        let stats = cache.stats();
        assert!(
            stats.hits >= w.len() as u64,
            "second pass should hit for every query: {stats:?}"
        );
    }
}
