//! The workloads: which data each generates from its seed, and which
//! engine path it drives. See `perfbench/README.md` for why each exists.

use trajsim_core::{Dataset, Trajectory};
use trajsim_data::{nhl_like, random_walk_set_spread, seeded_rng, LengthDistribution};

/// Neighbours per query.
pub const K: usize = 10;
/// NHL database size, as in the paper's §5.4.
pub const NHL_N: usize = 5_000;
/// Random-walk database size. The paper uses 100 000; at that size one
/// run of the per-query walk workloads cannot answer 200 queries within
/// the benchmark's time budget (see README.md, "Sizing").
pub const WALK_N: usize = 6_000;
/// Held-out queries per run (a power of two); a run cycles through them.
pub const QUERIES: usize = 512;
/// Held-out trajectories drawn per query kept (see [`generate`]).
const POOL_FACTOR: usize = 4;
/// Triangle-filter reference pool of the `trajsim knn` default cascade.
pub const CLI_MAX_TRIANGLE: usize = 100;

pub const NAMES: [&str; 4] = ["nhl", "walk", "walk-batch", "walk-art"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// `trajsim_data::nhl_like`: rink-bounded skating, lengths 30–256.
    Nhl,
    /// The `trajsim generate walk` distribution: unit-step random walks
    /// from the origin, lengths uniform in 30–256.
    Walk,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub input: Input,
    /// Database size.
    pub n: usize,
    /// Held-out query set size.
    pub queries: usize,
    /// `CombinedConfig::max_triangle` (0 skips the pmatrix).
    pub max_triangle: usize,
    /// Build the ART signature index (`CombinedKnn::with_index`).
    pub index: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Answer through `knn_batch` in batches of this size.
    pub batch: Option<usize>,
}

impl Spec {
    /// The named workload; `quick` shrinks it for the benchmark's own tests.
    pub fn named(name: &str, quick: bool) -> Option<Spec> {
        let (name, input, max_triangle, index, batch) = match name {
            "nhl" => ("nhl", Input::Nhl, CLI_MAX_TRIANGLE, false, None),
            "walk" => ("walk", Input::Walk, 0, false, None),
            "walk-batch" => ("walk-batch", Input::Walk, 0, false, Some(16)),
            "walk-art" => ("walk-art", Input::Walk, 0, true, None),
            _ => return None,
        };
        let n = match (input, quick) {
            (Input::Nhl, false) => NHL_N,
            (Input::Walk, false) => WALK_N,
            (Input::Nhl, true) => 300,
            (Input::Walk, true) => 400,
        };
        Some(Spec {
            name,
            input,
            n,
            queries: if quick { 32 } else { QUERIES },
            max_triangle,
            index,
            batch,
            setup_reps: match (input, quick) {
                (_, true) => 3,
                (Input::Nhl, false) => 3,
                (Input::Walk, false) => 7,
            },
        })
    }
}

/// Draws `n + POOL_FACTOR * queries` trajectories from one seeded
/// generator: the first `n` are the database, the rest a held-out pool.
///
/// The queries are a length-stratified sample of the pool, in an order
/// whose every power-of-two prefix is itself stratified. Query cost grows
/// with query length, and a run answers only a prefix of the query list,
/// so an unstratified draw would make a run's throughput depend on how
/// many long queries its seed happened to put first.
///
/// # Errors
///
/// Fails if a query is also a database member.
pub fn generate(spec: &Spec, seed: u64) -> Result<(Dataset<2>, Vec<Trajectory<2>>), String> {
    assert!(
        spec.queries.is_power_of_two(),
        "the query count must be a power of two"
    );
    let total = spec.n + POOL_FACTOR * spec.queries;
    let all = match spec.input {
        Input::Nhl => nhl_like(seed, total),
        Input::Walk => random_walk_set_spread(
            &mut seeded_rng(seed),
            total,
            LengthDistribution::Uniform { min: 30, max: 256 },
            0.0,
        ),
    };
    let mut db = all.into_trajectories();
    let mut pool = db.split_off(spec.n);
    pool.sort_by_key(Trajectory::len);
    let queries: Vec<Trajectory<2>> = (0..spec.queries)
        .map(|j| pool[stratified_rank(j, spec.queries) * POOL_FACTOR + POOL_FACTOR / 2].clone())
        .collect();
    for (qi, q) in queries.iter().enumerate() {
        if let Some(id) = db.iter().position(|t| t == q) {
            return Err(format!("query {qi} equals database trajectory {id}"));
        }
    }
    Ok((Dataset::new(db), queries))
}

/// The length rank of query `j` of `count` (a power of two): `j` with its
/// bits reversed, so the first `2^m` queries take one rank from each of
/// `2^m` equal slices of the ranks.
fn stratified_rank(j: usize, count: usize) -> usize {
    let bits = count.trailing_zeros();
    if bits == 0 {
        0
    } else {
        j.reverse_bits() >> (usize::BITS - bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_queries_are_held_out() {
        let spec = Spec::named("walk", true).unwrap();
        let (db1, q1) = generate(&spec, 5).unwrap();
        let (db2, q2) = generate(&spec, 5).unwrap();
        assert_eq!(db1.trajectories(), db2.trajectories());
        assert_eq!(q1, q2);
        assert_eq!(db1.len(), spec.n);
        assert_eq!(q1.len(), spec.queries);
        let (db3, _) = generate(&spec, 6).unwrap();
        assert_ne!(db1.trajectories(), db3.trajectories());
    }

    #[test]
    fn every_power_of_two_prefix_takes_one_rank_per_slice() {
        let count = 512;
        let all: Vec<usize> = (0..count).map(|j| stratified_rank(j, count)).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..count).collect::<Vec<_>>());
        for m in 0..=9 {
            let prefix = 1 << m;
            let mut slices: Vec<usize> = all[..prefix].iter().map(|r| r * prefix / count).collect();
            slices.sort_unstable();
            assert_eq!(slices, (0..prefix).collect::<Vec<_>>(), "prefix {prefix}");
        }
    }

    #[test]
    fn every_workload_name_resolves() {
        for name in NAMES {
            assert_eq!(Spec::named(name, false).unwrap().name, name);
        }
        assert!(Spec::named("nope", false).is_none());
    }
}
