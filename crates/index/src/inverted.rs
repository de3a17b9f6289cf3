//! Inverted index mapping term ids to posting lists.

use crate::postings::{PostingConfig, PostingList};
use crate::topk::ScoreSortedList;
use crate::{DocId, Score, TermId};

/// Build-time options for an [`InvertedIndex`].
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexConfig {
    /// Posting-list configuration applied to every term.
    pub postings: PostingConfig,
}

/// An immutable inverted index: `term → PostingList` (doc-sorted) plus a
/// lazily built score-sorted view for TA-style access.
#[derive(Clone, Debug)]
pub struct InvertedIndex {
    config: IndexConfig,
    lists: Vec<PostingList>,
    num_docs: DocId,
    num_postings: usize,
}

impl InvertedIndex {
    /// Builds an index from `(term, doc, score)` triples in any order.
    /// Duplicate `(term, doc)` pairs accumulate their scores. Terms are dense
    /// ids; the index covers `0..=max_term` (missing terms get empty lists).
    pub fn build(
        triples: impl IntoIterator<Item = (TermId, DocId, Score)>,
        config: IndexConfig,
    ) -> Self {
        let mut per_term: Vec<Vec<(DocId, Score)>> = Vec::new();
        let mut num_docs = 0;
        let mut num_postings = 0usize;
        for (t, d, s) in triples {
            let ti = t as usize;
            if ti >= per_term.len() {
                per_term.resize_with(ti + 1, Vec::new);
            }
            per_term[ti].push((d, s));
            num_docs = num_docs.max(d + 1);
        }
        let lists: Vec<PostingList> = per_term
            .into_iter()
            .map(|entries| {
                let l = PostingList::build(entries, config.postings);
                num_postings += l.len();
                l
            })
            .collect();
        InvertedIndex {
            config,
            lists,
            num_docs,
            num_postings,
        }
    }

    /// Builds a **σ-aware** index from `(term, doc, tagger, weight)` quads:
    /// every term's list carries per-entry tagger groups and per-block
    /// tagger-id ranges (see [`PostingList::build_with_taggers`]), the
    /// substrate the block-max σ-aware WAND operator prunes over. Duplicate
    /// `(term, doc, tagger)` quads accumulate their weights.
    pub fn build_with_taggers(
        quads: impl IntoIterator<Item = (TermId, DocId, u32, Score)>,
        config: IndexConfig,
    ) -> Self {
        let mut per_term: Vec<Vec<(DocId, u32, Score)>> = Vec::new();
        let mut num_docs = 0;
        let mut num_postings = 0usize;
        for (t, d, u, w) in quads {
            let ti = t as usize;
            if ti >= per_term.len() {
                per_term.resize_with(ti + 1, Vec::new);
            }
            per_term[ti].push((d, u, w));
            num_docs = num_docs.max(d + 1);
        }
        let lists: Vec<PostingList> = per_term
            .into_iter()
            .map(|entries| {
                let l = PostingList::build_with_taggers(entries, config.postings);
                num_postings += l.len();
                l
            })
            .collect();
        InvertedIndex {
            config,
            lists,
            num_docs,
            num_postings,
        }
    }

    /// Number of terms (including empty ones up to the max seen id).
    pub fn num_terms(&self) -> usize {
        self.lists.len()
    }

    /// One past the largest doc id seen at build time.
    pub fn num_docs(&self) -> DocId {
        self.num_docs
    }

    /// Total postings across all terms (after duplicate merging).
    pub fn num_postings(&self) -> usize {
        self.num_postings
    }

    /// Posting list of `term`, or `None` for out-of-range ids.
    pub fn postings(&self, term: TermId) -> Option<&PostingList> {
        self.lists.get(term as usize)
    }

    /// Materializes the score-sorted view of `term` (TA access path).
    pub fn score_sorted(&self, term: TermId) -> Option<ScoreSortedList> {
        self.postings(term).map(ScoreSortedList::from_postings)
    }

    /// Build configuration.
    pub fn config(&self) -> IndexConfig {
        self.config
    }

    /// Approximate resident memory of all posting lists, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.lists.iter().map(|l| l.memory_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InvertedIndex {
        InvertedIndex::build(
            [
                (0u32, 5u32, 1.0f32),
                (0, 2, 2.0),
                (2, 5, 0.5),
                (0, 5, 1.5), // duplicate (term 0, doc 5): accumulates
            ],
            IndexConfig::default(),
        )
    }

    #[test]
    fn build_and_lookup() {
        let idx = sample();
        assert_eq!(idx.num_terms(), 3); // term 1 exists but is empty
        assert_eq!(idx.num_docs(), 6);
        assert_eq!(idx.num_postings(), 3);
        let l0 = idx.postings(0).unwrap();
        assert_eq!(l0.to_vec(), vec![(2, 2.0), (5, 2.5)]);
        assert!(idx.postings(1).unwrap().is_empty());
        assert!(idx.postings(7).is_none());
    }

    #[test]
    fn score_sorted_view_consistent() {
        let idx = sample();
        let s = idx.score_sorted(0).unwrap();
        assert_eq!(s.at(0), Some((5, 2.5)));
        assert_eq!(s.at(1), Some((2, 2.0)));
        assert_eq!(s.score_of(2), 2.0);
    }

    #[test]
    fn sigma_index_carries_groups() {
        let idx = InvertedIndex::build_with_taggers(
            [
                (0u32, 5u32, 3u32, 1.0f32),
                (0, 5, 1, 0.5),
                (0, 2, 7, 2.0),
                (2, 5, 1, 0.5),
                (0, 5, 1, 0.25), // duplicate (term, doc, tagger): accumulates
            ],
            IndexConfig::default(),
        );
        assert_eq!(idx.num_terms(), 3);
        assert_eq!(idx.num_postings(), 3);
        let l0 = idx.postings(0).unwrap();
        assert!(l0.has_taggers());
        assert_eq!(l0.to_vec(), vec![(2, 2.0), (5, 1.75)]);
        assert_eq!(l0.taggers_of(1), &[(1, 0.75), (3, 1.0)]);
        assert_eq!(l0.tagger_range(), (1, 7));
    }

    #[test]
    fn empty_index() {
        let idx = InvertedIndex::build(std::iter::empty(), IndexConfig::default());
        assert_eq!(idx.num_terms(), 0);
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.memory_bytes(), 0);
    }

    #[test]
    fn memory_reflects_postings() {
        let big = InvertedIndex::build(
            (0..1000u32).map(|i| (0u32, i, 1.0f32)),
            IndexConfig::default(),
        );
        let small = InvertedIndex::build(
            (0..10u32).map(|i| (0u32, i, 1.0f32)),
            IndexConfig::default(),
        );
        assert!(big.memory_bytes() > small.memory_bytes());
    }
}
