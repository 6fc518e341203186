//! Differential tests for the bounded EDR path: the sliding-band kernel,
//! with match words built from a query context's rank masks
//! (`QueryContext::edr_within_counted`) or by direct compares (the free
//! `edr_within`), must return exactly what the naive early-abandoning DP
//! (`edr_within_naive`) returns — on ε boundaries that are hit exactly or
//! missed by one rounding, with NaN on either side, across 64-lane word
//! boundaries, at bounds around one and two band words, and with the
//! query on either side of the length order. Each call's lanes must also
//! stay within the full DP's. Unbounded calls (a bound of at least the
//! longer length, and `usize::MAX` as the exact offline EDR matrices
//! pass to `QueryContext::edr_banded`) must return the naive DP's exact
//! EDR, with the lanes of a bound equal to the longer length.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajsim_core::{MatchThreshold, Trajectory2};
use trajsim_distance::{
    edr_counted, edr_within_counted, edr_within_naive, EdrWorkspace, QueryContext,
};

fn eps(v: f64) -> MatchThreshold {
    MatchThreshold::new(v).unwrap()
}

/// The bounds the band kernel treats differently — one word (≤ 31), two
/// words (32–63), three (64), the whole pair and past it (unbounded: no
/// abandon) — plus the length difference itself and the straddle of the
/// true distance.
fn bounds(r: &Trajectory2, s: &Trajectory2, true_d: usize) -> Vec<usize> {
    let diff = r.len().abs_diff(s.len());
    let longest = r.len().max(s.len());
    vec![
        1,
        31,
        32,
        63,
        64,
        longest,
        longest + 1,
        longest + 7,
        usize::MAX,
        diff,
        diff + 1,
        true_d.saturating_sub(1),
        true_d,
        true_d + 1,
    ]
}

/// Checks every bounded entry point against the naive oracle, with each
/// trajectory as the query in turn. `edr_banded` takes the rank masks
/// whatever the lengths, so it checks the masks on the pairs the query
/// refines send to compared words too. A bound of at least the longer
/// length cannot be passed: it must give the lanes of that length.
fn check_pair(r: &Trajectory2, s: &Trajectory2, e: MatchThreshold, ws: &mut EdrWorkspace) {
    let (true_d, full_lanes) = edr_counted(r, s, e);
    let longest = r.len().max(s.len());
    for bound in bounds(r, s, true_d) {
        let want = edr_within_naive(r, s, e, bound);
        let lens = (r.len(), s.len());
        let free = edr_within_counted(r, s, e, bound);
        assert_eq!(
            free.0,
            want,
            "free function, lens {lens:?}, bound {bound}, eps {}",
            e.value()
        );
        if bound >= longest {
            assert_eq!(free, edr_within_counted(r, s, e, longest), "lens {lens:?}");
        }
        for (query, candidate) in [(r, s), (s, r)] {
            let ctx = QueryContext::from_trajectory(query, e);
            let (d, lanes) = ctx.edr_within_counted(candidate, bound, ws);
            let label = format!(
                "query len {}, candidate len {}, bound {bound}, eps {}",
                query.len(),
                candidate.len(),
                e.value()
            );
            assert_eq!(d, want, "query context, {label}");
            assert!(
                lanes <= full_lanes,
                "{label}: {lanes} lanes over the full DP's {full_lanes}"
            );
            assert_eq!(
                ctx.edr_banded(candidate, bound, ws),
                want,
                "banded, {label}"
            );
            if bound >= longest {
                let at_longest = ctx.edr_within_counted(candidate, longest, ws);
                assert_eq!((d, lanes), at_longest, "{label}");
            }
        }
    }
}

/// A walk on the integer grid scaled by `step`: every coordinate
/// difference is an exact multiple of `step`, so ε ∈ {step, 2·step, ...}
/// is hit exactly.
fn grid_walk(rng: &mut StdRng, len: usize, step: f64) -> Trajectory2 {
    let (mut x, mut y) = (0i32, 0i32);
    let points: Vec<(f64, f64)> = (0..len)
        .map(|_| {
            x += rng.gen_range(-2..=2);
            y += rng.gen_range(-2..=2);
            (f64::from(x) * step, f64::from(y) * step)
        })
        .collect();
    Trajectory2::from_xy(&points)
}

/// `q + offset` moved by `ulps` representable steps up (positive) or
/// down.
fn nudge(q: f64, offset: f64, ulps: i32) -> f64 {
    let mut v = q + offset;
    for _ in 0..ulps.abs() {
        v = if ulps > 0 { v.next_up() } else { v.next_down() };
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Integer-grid coordinates with ε ∈ {0.5, 1, 2}: many pairs sit at
    /// |a − b| = ε exactly, the boundary `coord_match` accepts.
    #[test]
    fn grid_pairs_hit_epsilon_exactly(
        seed in 0u64..u64::MAX,
        lr in 1usize..300,
        ls in 1usize..300,
        which in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = [0.5, 1.0, 2.0][which];
        let step = if which == 0 { 0.5 } else { 1.0 };
        let r = grid_walk(&mut rng, lr, step);
        let s = grid_walk(&mut rng, ls, step);
        check_pair(&r, &s, eps(e), &mut EdrWorkspace::new());
    }

    /// Candidates built from the query at offsets ±ε, each moved by up
    /// to two roundings: `fl(q − v)` lands just inside, on, or just
    /// outside the threshold.
    #[test]
    fn pairs_straddling_epsilon_by_one_rounding(
        seed in 0u64..u64::MAX,
        len in 1usize..200,
        extra in 0usize..40,
        e in 0.01..3.0f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q: Vec<(f64, f64)> = (0..len)
            .map(|_| (rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)))
            .collect();
        let mut c: Vec<(f64, f64)> = q
            .iter()
            .map(|&(x, y)| {
                let sign = if rng.gen_range(0..2) == 0 { 1.0 } else { -1.0 };
                let dx = nudge(x, sign * e, rng.gen_range(-2..=2));
                let dy = if rng.gen_range(0..2) == 0 { y } else { nudge(y, -sign * e, rng.gen_range(-2..=2)) };
                (dx, dy)
            })
            .collect();
        // Extra candidate points shift the alignment so the band moves.
        for _ in 0..extra {
            let at = rng.gen_range(0..=c.len());
            let p = q[rng.gen_range(0..q.len())];
            c.insert(at, (nudge(p.0, e, rng.gen_range(-1..=1)), p.1));
        }
        let (q, c) = (Trajectory2::from_xy(&q), Trajectory2::from_xy(&c));
        check_pair(&q, &c, eps(e), &mut EdrWorkspace::new());
    }

    /// NaN coordinates never match: a NaN query falls back to compared
    /// match words, a NaN candidate point gets an empty rank range.
    #[test]
    fn nan_on_either_side_never_matches(
        seed in 0u64..u64::MAX,
        lr in 1usize..130,
        ls in 1usize..130,
        nans in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut walk = |len: usize| -> Vec<(f64, f64)> {
            (0..len)
                .map(|_| (rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)))
                .collect()
        };
        let (mut r, mut s) = (walk(lr), walk(ls));
        for _ in 0..nans {
            let side = if rng.gen_range(0..2) == 0 { &mut r } else { &mut s };
            let at = rng.gen_range(0..side.len());
            if rng.gen_range(0..2) == 0 {
                side[at].0 = f64::NAN;
            } else {
                side[at].1 = f64::NAN;
            }
        }
        let (r, s) = (Trajectory2::from_xy(&r), Trajectory2::from_xy(&s));
        check_pair(&r, &s, eps(0.7), &mut EdrWorkspace::new());
    }
}

#[test]
fn lengths_across_word_boundaries_with_one_reused_workspace() {
    // Lengths at and around 64-lane multiples, paired with lengths one
    // bound apart, through one workspace whose bit-vectors change width
    // from call to call. Each pair also runs with the longer walk moved
    // out of reach: nothing matches, the distance is the longer length,
    // and every bound below it — past the shorter length too — gives
    // `None`.
    let mut rng = StdRng::seed_from_u64(0xBA4D);
    let mut ws = EdrWorkspace::new();
    let e = eps(0.5);
    for len in [
        1usize, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 191, 192, 193, 299,
    ] {
        for delta in [0usize, 1, 31, 32, 64] {
            let r = grid_walk(&mut rng, len, 0.5);
            let s = grid_walk(&mut rng, len + delta, 0.5);
            check_pair(&r, &s, e, &mut ws);
            let far: Vec<(f64, f64)> = s.iter().map(|p| (p.x() + 1e4, p.y())).collect();
            let far = Trajectory2::from_xy(&far);
            check_pair(&r, &far, e, &mut ws);
            if delta >= 2 {
                // A bound of the shorter length is passed before the last
                // column, so the band must still abandon there.
                let ctx = QueryContext::from_trajectory(&r, e);
                let (d, lanes) = ctx.edr_within_counted(&far, len, &mut ws);
                assert_eq!(d, None);
                assert!(
                    lanes < edr_counted(&r, &far, e).1,
                    "len {len}: no early abandon"
                );
            }
        }
    }
}

#[test]
fn a_query_past_the_rank_mask_cap_keeps_compared_words() {
    // Past 1 024 points a context builds no rank masks; every bound,
    // unbounded ones included, must still match the naive DP.
    let mut rng = StdRng::seed_from_u64(0x0401);
    let mut ws = EdrWorkspace::new();
    let long = grid_walk(&mut rng, 1030, 0.5);
    for len in [1usize, 65, 1030, 1100] {
        let other = grid_walk(&mut rng, len, 0.5);
        check_pair(&long, &other, eps(1.0), &mut ws);
    }
}
