//! Answer checking. Every answer the timed loop receives is recorded
//! against its query slot; after the loop each slot's answer is checked
//! (every neighbour's distance re-derived with the naive EDR, and on a
//! fixed sample the distance multiset compared with `SequentialScan`).
//! A wrong or missing answer or a caught panic fails the query.

use trajsim_core::{Dataset, MatchThreshold, Trajectory};
use trajsim_prune::{KnnEngine, Neighbor, SequentialScan};

/// Per-slot answers of one run, preallocated so that recording an
/// answer inside the timed loop does not allocate.
pub struct Ledger {
    k: usize,
    /// `answers[slot * k ..][..lens[slot]]`: the slot's first answer.
    answers: Vec<Neighbor>,
    lens: Vec<Option<usize>>,
    /// Executions per slot.
    runs: Vec<u64>,
    /// Executions per slot already known to have failed.
    bad: Vec<u64>,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
}

const MAX_ERRORS: usize = 8;

impl Ledger {
    pub fn new(slots: usize, k: usize) -> Ledger {
        Ledger {
            k,
            answers: vec![Neighbor { id: 0, dist: 0 }; slots * k],
            lens: vec![None; slots],
            runs: vec![0; slots],
            bad: vec![0; slots],
            errors: Vec::with_capacity(MAX_ERRORS),
        }
    }

    fn fail(&mut self, slot: usize, why: impl FnOnce() -> String) {
        self.bad[slot] += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(format!("query slot {slot}: {}", why()));
        }
    }

    /// Records one execution of `slot`: its neighbours, or why it
    /// returned none. A repeat must give the first answer's distances.
    pub fn record(&mut self, slot: usize, outcome: Result<&[Neighbor], &str>) {
        self.runs[slot] += 1;
        let got = match outcome {
            Ok(got) => got,
            Err(why) => return self.fail(slot, || why.to_string()),
        };
        match self.lens[slot] {
            None if got.len() <= self.k => {
                self.answers[slot * self.k..][..got.len()].copy_from_slice(got);
                self.lens[slot] = Some(got.len());
            }
            None => {
                let (len, k) = (got.len(), self.k);
                self.fail(slot, || format!("{len} neighbours for k = {k}"))
            }
            Some(len) => {
                let first = &self.answers[slot * self.k..][..len];
                if !same_distances(first, got) {
                    self.fail(slot, || "a repeat returned different distances".to_string());
                }
            }
        }
    }

    /// Checks every answered slot with `check`; a slot whose answer
    /// fails has every execution counted as failed.
    pub fn verify(&mut self, mut check: impl FnMut(usize, &[Neighbor]) -> Result<(), String>) {
        for slot in 0..self.lens.len() {
            let Some(len) = self.lens[slot] else { continue };
            let answer = self.answers[slot * self.k..][..len].to_vec();
            if let Err(why) = check(slot, &answer) {
                let unflagged = self.runs[slot] - self.bad[slot];
                self.bad[slot] += unflagged;
                if self.errors.len() < MAX_ERRORS {
                    self.errors.push(format!("query slot {slot}: {why}"));
                }
            }
        }
    }

    /// Slots answered at least once, in slot order.
    pub fn answered(&self) -> impl Iterator<Item = (usize, &[Neighbor])> {
        self.lens
            .iter()
            .enumerate()
            .filter_map(|(slot, len)| len.map(|len| (slot, &self.answers[slot * self.k..][..len])))
    }

    pub fn attempted(&self) -> u64 {
        self.runs.iter().sum()
    }

    pub fn failed(&self) -> u64 {
        self.bad.iter().sum()
    }
}

/// Equal distance multisets (ids may permute among equal distances).
pub fn same_distances(a: &[Neighbor], b: &[Neighbor]) -> bool {
    let mut da: Vec<usize> = a.iter().map(|n| n.dist).collect();
    let mut db: Vec<usize> = b.iter().map(|n| n.dist).collect();
    da.sort_unstable();
    db.sort_unstable();
    da == db
}

/// An answer is right when it has `min(k, N)` distinct in-range ids in
/// nondecreasing distance and each distance is the naive EDR.
pub fn check_answer(
    ds: &Dataset<2>,
    eps: MatchThreshold,
    k: usize,
    query: &Trajectory<2>,
    answer: &[Neighbor],
) -> Result<(), String> {
    let want = k.min(ds.len());
    if answer.len() != want {
        return Err(format!("{} neighbours, expected {want}", answer.len()));
    }
    let mut ids: Vec<usize> = answer.iter().map(|n| n.id).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != answer.len() {
        return Err("duplicate neighbour ids".to_string());
    }
    if answer.windows(2).any(|w| w[0].dist > w[1].dist) {
        return Err("neighbours not in distance order".to_string());
    }
    for n in answer {
        let Some(t) = ds.get(n.id) else {
            return Err(format!("neighbour id {} out of range", n.id));
        };
        let naive = trajsim_distance::edr_naive(query, t, eps);
        if naive != n.dist {
            return Err(format!(
                "neighbour {} reported at {}, naive EDR {naive}",
                n.id, n.dist
            ));
        }
    }
    Ok(())
}

/// The distance multiset must equal the sequential scan's.
pub fn check_against_scan(
    scan: &SequentialScan<'_, 2>,
    k: usize,
    query: &Trajectory<2>,
    answer: &[Neighbor],
) -> Result<(), String> {
    let want = scan.knn(query, k).neighbors;
    if same_distances(&want, answer) {
        Ok(())
    } else {
        Err("distances differ from SequentialScan's".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, Spec};

    fn fixture() -> (Dataset<2>, Vec<Trajectory<2>>, MatchThreshold) {
        let spec = Spec::named("walk", true).unwrap();
        let (db, queries) = generate(&spec, 11).unwrap();
        let db = db.normalize();
        let queries = queries.iter().map(Trajectory::normalize).collect();
        let eps = trajsim_bench::retrieval_eps(&db);
        (db, queries, eps)
    }

    #[test]
    fn corrupted_answers_are_counted_as_failed_queries() {
        let (db, queries, eps) = fixture();
        let scan = SequentialScan::new(&db, eps);
        let mut ledger = Ledger::new(4, 5);
        let mut answers = Vec::new();
        for q in &queries[..4] {
            answers.push(scan.knn(q, 5).neighbors);
        }
        // Slot 0 answered correctly twice.
        ledger.record(0, Ok(&answers[0]));
        ledger.record(0, Ok(&answers[0]));
        // Slot 1: one neighbour's distance is off by one.
        let mut wrong = answers[1].clone();
        wrong[2].dist += 1;
        ledger.record(1, Ok(&wrong));
        ledger.record(1, Ok(&wrong));
        // Slot 2: a neighbour is missing.
        ledger.record(2, Ok(&answers[2][..4]));
        // Slot 3: right once, then a panic.
        ledger.record(3, Ok(&answers[3]));
        ledger.record(3, Err("panicked"));
        ledger.verify(|slot, answer| {
            check_answer(&db, eps, 5, &queries[slot], answer)?;
            check_against_scan(&scan, 5, &queries[slot], answer)
        });
        assert_eq!(ledger.attempted(), 7);
        assert_eq!(ledger.failed(), 4, "{:?}", ledger.errors);
    }

    #[test]
    fn a_repeat_with_other_distances_fails_that_execution() {
        let mut ledger = Ledger::new(1, 2);
        let a = [Neighbor { id: 1, dist: 3 }, Neighbor { id: 2, dist: 4 }];
        let b = [Neighbor { id: 2, dist: 3 }, Neighbor { id: 1, dist: 5 }];
        ledger.record(0, Ok(&a));
        ledger.record(0, Ok(&b));
        assert_eq!(ledger.failed(), 1);
        // Ties may permute ids.
        let c = [Neighbor { id: 7, dist: 3 }, Neighbor { id: 8, dist: 4 }];
        ledger.record(0, Ok(&c));
        assert_eq!(ledger.failed(), 1);
    }

    #[test]
    fn the_scan_oracle_catches_a_wrong_but_self_consistent_answer() {
        let (db, queries, eps) = fixture();
        let scan = SequentialScan::new(&db, eps);
        let right = scan.knn(&queries[0], 5).neighbors;
        assert!(check_against_scan(&scan, 5, &queries[0], &right).is_ok());
        // Real distances of the wrong trajectories: naive EDR agrees,
        // but they are not the nearest.
        let far: Vec<Neighbor> = {
            let mut all: Vec<Neighbor> = (0..db.len())
                .map(|id| Neighbor {
                    id,
                    dist: trajsim_distance::edr_naive(&queries[0], db.get(id).unwrap(), eps),
                })
                .collect();
            all.sort_by_key(|n| (std::cmp::Reverse(n.dist), n.id));
            let mut far = all[..5].to_vec();
            far.sort_by_key(|n| n.dist);
            far
        };
        assert!(check_answer(&db, eps, 5, &queries[0], &far).is_ok());
        assert!(check_against_scan(&scan, 5, &queries[0], &far).is_err());
    }
}
