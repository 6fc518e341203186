//! The witness-first join against the sort-merge join it replaced, on
//! the benchmark's two kinds of data: NHL-like skating and random walks,
//! normalized, at ε = 0.25σ, 1σ and 2σ (the CLI default, the Figs 7–10
//! probe and the retrieval ε).

use trajsim_core::{max_std_dev, MatchThreshold, Point, Trajectory};
use trajsim_data::{nhl_like, random_walk_set_spread, seeded_rng, LengthDistribution};
use trajsim_qgram::SortedMeans;

/// The sort-merge join with a sliding window on the first coordinate:
/// every mean of `a` searches its window in `b` afresh.
fn merge_join_count(a: &[Point<2>], b: &[Point<2>], eps: MatchThreshold) -> usize {
    let e = eps.value();
    let mut lo = 0usize;
    let mut count = 0usize;
    for qa in a {
        while lo < b.len() && b[lo][0] < qa[0] - e {
            lo += 1;
        }
        let mut j = lo;
        while j < b.len() && b[j][0] <= qa[0] + e {
            if qa.matches(&b[j], eps) {
                count += 1;
                break;
            }
            j += 1;
        }
    }
    count
}

/// Joins the first `queries` trajectories of `data` with the rest at
/// each σ factor, asserting every pair's count equals the merge join's,
/// and returns the summed counts per factor.
fn pinned_totals(data: Vec<Trajectory<2>>, queries: usize, q: usize) -> Vec<usize> {
    let sigma = max_std_dev(&data).expect("non-empty data");
    let means: Vec<SortedMeans<2>> = data.iter().map(|t| SortedMeans::build(t, q)).collect();
    let (qs, cs) = means.split_at(queries);
    [0.25, 1.0, 2.0]
        .iter()
        .map(|f| {
            let e = MatchThreshold::new(f * sigma).expect("finite ε");
            let mut total = 0;
            for (i, qm) in qs.iter().enumerate() {
                for (j, cm) in cs.iter().enumerate() {
                    let got = qm.match_count(cm, e);
                    assert_eq!(
                        got,
                        merge_join_count(qm.means(), cm.means(), e),
                        "query {i}, candidate {j}, ε = {f}σ"
                    );
                    total += got;
                }
            }
            total
        })
        .collect()
}

#[test]
fn nhl_pairs_count_as_the_merge_join() {
    let data = nhl_like(3, 208).normalize().into_trajectories();
    assert_eq!(pinned_totals(data, 8, 1), [81_070, 176_111, 186_119]);
}

#[test]
fn walk_pairs_count_as_the_merge_join() {
    let walks = random_walk_set_spread(
        &mut seeded_rng(3),
        208,
        LengthDistribution::Uniform { min: 30, max: 256 },
        0.0,
    );
    let data = walks.normalize().into_trajectories();
    assert_eq!(pinned_totals(data, 8, 1), [151_032, 236_969, 242_792]);
}

#[test]
fn longer_qgrams_count_as_the_merge_join() {
    let data = nhl_like(5, 72).normalize().into_trajectories();
    assert_eq!(pinned_totals(data, 8, 3), [24_108, 50_949, 53_969]);
}
