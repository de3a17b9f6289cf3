//! Correctness checks, all run outside the timed regions: served rankings
//! are compared byte for byte with `ExactOnline` on the corpus epoch they
//! answered.

use crate::driver::Ranking;
use friends_core::corpus::Corpus;
use friends_core::processors::{ExactOnline, Processor};
use friends_core::proximity::ProximityModel;
use friends_data::queries::Query;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tally of one run's checks. Any mismatch fails the run.
#[derive(Default)]
pub struct Checks {
    pub compared: u64,
    pub mismatches: Vec<String>,
    /// Test hook: corrupt the reference answers of the first comparison
    /// (every candidate epoch of it), which must make the run fail.
    pub corrupt_first: bool,
}

/// Byte-identical ranking equality (scores compared by their bits).
pub fn same_ranking(a: &Ranking, b: &Ranking) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

impl Checks {
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }

    pub fn fail(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// The exact answer to `q` on `corpus`, perturbed when `corrupt`.
    fn reference(corpus: &Corpus, model: ProximityModel, q: &Query, corrupt: bool) -> Ranking {
        let mut items = ExactOnline::new(corpus, model).query(q).items;
        if corrupt {
            match items.first_mut() {
                Some(first) => first.1 += 1.0,
                None => items.push((0, 1.0)),
            }
        }
        items
    }

    /// Compares a served ranking with the reference on one corpus.
    pub fn compare(
        &mut self,
        what: &str,
        corpus: &Corpus,
        model: ProximityModel,
        q: &Query,
        got: &Ranking,
    ) {
        let corrupt = std::mem::take(&mut self.corrupt_first);
        let want = Self::reference(corpus, model, q, corrupt);
        self.compared += 1;
        if !same_ranking(&want, got) {
            self.fail(format!(
                "{what}: seeker {} tags {:?} epoch {}: served {got:?}, exact {want:?}",
                q.seeker,
                q.tags,
                corpus.epoch()
            ));
        }
    }

    /// Compares a ranking served while epochs changed: it must equal the
    /// exact answer of one of the candidate epochs `from..=to`.
    ///
    /// # Panics
    /// If a candidate epoch is not among `kept`.
    pub fn compare_any_epoch(
        &mut self,
        what: &str,
        kept: &BTreeMap<u64, Arc<Corpus>>,
        (from, to): (u64, u64),
        model: ProximityModel,
        q: &Query,
        got: &Ranking,
    ) {
        let corrupt = std::mem::take(&mut self.corrupt_first);
        let wants: Vec<Ranking> = (from..=to)
            .map(|e| Self::reference(&kept[&e], model, q, corrupt))
            .collect();
        self.compared += 1;
        if !wants.iter().any(|w| same_ranking(w, got)) {
            self.fail(format!(
                "{what}: seeker {} tags {:?}: served {got:?} matches no epoch in {from}..={to}",
                q.seeker, q.tags
            ));
        }
    }
}
