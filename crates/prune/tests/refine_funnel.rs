//! Golden funnel test for the refine step: on a seeded NHL-like set, every
//! per-query engine must keep its answers and its pruning funnel exactly,
//! and may only lower the DP work of its refines.
//!
//! Each row pins, summed over the queries: the histogram, q-gram and
//! triangle prune counters, the number of true EDR computations, and an
//! FNV-1a hash of every neighbour list (ids and distances, in order).
//! The counters are those of the strict admission cutoff: a candidate is
//! dismissed once a lower bound reaches the k-th best and refined under
//! `k-th best − 1`. Against the earlier `> best` test every row kept its
//! answer hash and no row computed more EDRs (12 620 → 11 715 in total).
//! `dp_cells` is an upper bound: the values below were captured with a
//! full DP on every refine under the earlier test, and bounded refines
//! may only fill fewer cells. On a mismatch the test prints the measured
//! table in the same form, so a deliberate funnel change can be
//! re-pinned (keeping the last column). Every query must also conserve
//! its funnel: each id is dismissed by one stage, whose flow counts it
//! (`candidates_in − candidates_out` is the stage's `pruned_by_*`), or
//! refined.

use trajsim_core::{max_std_dev, Dataset, MatchThreshold, Trajectory2};
use trajsim_data::nhl_like;
use trajsim_prune::cse::{pairwise_edr_matrix, CseKnn};
use trajsim_prune::{
    CombinedConfig, CombinedKnn, HistogramVariant, KnnEngine, KnnResult, QgramKnn, QgramVariant,
    ScanMode, Stage, FILTER_ORDERS,
};

const DATABASE: usize = 120;
const QUERIES: usize = 6;
const K: usize = 5;
const REFERENCES: usize = 24;

/// One engine's funnel over the query set.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Funnel {
    pruned_h: usize,
    pruned_q: usize,
    pruned_t: usize,
    edr_computed: usize,
    answers: u64,
    dp_cells: u64,
}

/// `(eps label, engine, h, q, t, edr_computed, answer hash, dp_cells)`.
type Row = (
    &'static str,
    &'static str,
    usize,
    usize,
    usize,
    usize,
    u64,
    u64,
);

/// Counters under the strict cutoff; `dp_cells` from a full DP on every
/// refine.
#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("small", "2HPN", 353, 30, 0, 337, 0xbcc80b7dedecf1ad, 1062592),
    ("small", "2HNP", 353, 30, 0, 337, 0xbcc80b7dedecf1ad, 1062592),
    ("small", "P2HN", 339, 44, 0, 337, 0xbcc80b7dedecf1ad, 1062592),
    ("small", "PN2H", 339, 44, 0, 337, 0xbcc80b7dedecf1ad, 1062592),
    ("small", "N2HP", 353, 30, 0, 337, 0xbcc80b7dedecf1ad, 1062592),
    ("small", "NP2H", 339, 44, 0, 337, 0xbcc80b7dedecf1ad, 1062592),
    ("small", "2HE-HSE", 263, 0, 0, 457, 0x4d935121718b9459, 1336320),
    ("small", "2HE-HSR", 353, 0, 0, 367, 0xbcc80b7dedecf1ad, 1137600),
    ("small", "1HPN", 174, 131, 0, 415, 0x83eddc25f9eba32d, 1246080),
    ("small", "1HNP", 174, 131, 0, 415, 0x83eddc25f9eba32d, 1246080),
    ("small", "P1HN", 165, 140, 0, 415, 0x83eddc25f9eba32d, 1246080),
    ("small", "PN1H", 165, 140, 0, 415, 0x83eddc25f9eba32d, 1246080),
    ("small", "N1HP", 174, 131, 0, 415, 0x83eddc25f9eba32d, 1246080),
    ("small", "NP1H", 165, 140, 0, 415, 0x83eddc25f9eba32d, 1246080),
    ("small", "1HE-HSE", 151, 0, 0, 569, 0x4d935121718b9459, 1647616),
    ("small", "1HE-HSR", 174, 0, 0, 546, 0x83eddc25f9eba32d, 1574656),
    ("small", "PS2(q=1)", 0, 250, 0, 470, 0x95098110f54fe29a, 1372928),
    ("small", "NTR(maxT=24)", 0, 0, 0, 720, 0x4d935121718b9459, 2067072),
    ("small", "CSE(c=0)", 0, 0, 5, 715, 0x4d935121718b9459, 2060096),
    ("2sigma", "2HPN", 620, 0, 0, 100, 0x73f903818d8a65f4, 329408),
    ("2sigma", "2HNP", 620, 0, 0, 100, 0x73f903818d8a65f4, 329408),
    ("2sigma", "P2HN", 620, 0, 0, 100, 0x73f903818d8a65f4, 329408),
    ("2sigma", "PN2H", 620, 0, 0, 100, 0x73f903818d8a65f4, 329408),
    ("2sigma", "N2HP", 620, 0, 0, 100, 0x73f903818d8a65f4, 329408),
    ("2sigma", "NP2H", 620, 0, 0, 100, 0x73f903818d8a65f4, 329408),
    ("2sigma", "2HE-HSE", 535, 0, 0, 185, 0xf9c7c7ff9e4b4ff7, 548352),
    ("2sigma", "2HE-HSR", 620, 0, 0, 100, 0x73f903818d8a65f4, 329408),
    ("2sigma", "1HPN", 620, 0, 0, 100, 0x73f903818d8a65f4, 329408),
    ("2sigma", "1HNP", 620, 0, 0, 100, 0x73f903818d8a65f4, 329408),
    ("2sigma", "P1HN", 620, 0, 0, 100, 0x73f903818d8a65f4, 329408),
    ("2sigma", "PN1H", 620, 0, 0, 100, 0x73f903818d8a65f4, 329408),
    ("2sigma", "N1HP", 620, 0, 0, 100, 0x73f903818d8a65f4, 329408),
    ("2sigma", "NP1H", 620, 0, 0, 100, 0x73f903818d8a65f4, 329408),
    ("2sigma", "1HE-HSE", 535, 0, 0, 185, 0xf9c7c7ff9e4b4ff7, 548352),
    ("2sigma", "1HE-HSR", 620, 0, 0, 100, 0x73f903818d8a65f4, 329408),
    ("2sigma", "PS2(q=1)", 0, 272, 0, 448, 0xf9c7c7ff9e4b4ff7, 1282304),
    ("2sigma", "NTR(maxT=24)", 0, 0, 94, 626, 0xf9c7c7ff9e4b4ff7, 1795200),
    ("2sigma", "CSE(c=17)", 0, 0, 205, 515, 0xf9c7c7ff9e4b4ff7, 1446720),
];

fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn funnel<E: KnnEngine<2>>(engine: &E, queries: &[Trajectory2]) -> Funnel {
    let mut f = Funnel {
        pruned_h: 0,
        pruned_q: 0,
        pruned_t: 0,
        edr_computed: 0,
        answers: 0xcbf2_9ce4_8422_2325,
        dp_cells: 0,
    };
    for q in queries {
        let KnnResult { neighbors, stats } = engine.knn(q, K);
        let flows = Stage::ALL.map(|s| stats.timings.stage(s).pruned());
        assert_eq!(
            flows,
            Stage::ALL.map(|s| stats.pruned_by(s)),
            "{}",
            engine.name()
        );
        assert_eq!(
            flows.iter().sum::<usize>() + stats.edr_computed,
            stats.database_size,
            "{}: the funnel lost or double-counted a candidate",
            engine.name()
        );
        f.pruned_h += stats.pruned_by_histogram;
        f.pruned_q += stats.pruned_by_qgram;
        f.pruned_t += stats.pruned_by_triangle;
        f.edr_computed += stats.edr_computed;
        f.dp_cells += stats.dp_cells;
        fnv1a(&mut f.answers, neighbors.len() as u64);
        for n in neighbors {
            fnv1a(&mut f.answers, n.id as u64);
            fnv1a(&mut f.answers, n.dist as u64);
        }
    }
    f
}

/// Every engine's funnel at one ε, labelled by engine name.
fn funnels(db: &Dataset<2>, queries: &[Trajectory2], eps: MatchThreshold) -> Vec<(String, Funnel)> {
    let full = pairwise_edr_matrix(db, eps);
    let pmatrix: Vec<Vec<usize>> = full.iter().take(REFERENCES).cloned().collect();
    let mut out = Vec::new();
    for histogram in [
        HistogramVariant::Grid { delta: 1 },
        HistogramVariant::PerDimension,
    ] {
        for stages in FILTER_ORDERS {
            let config = CombinedConfig {
                stages,
                histogram,
                qgram_q: 1,
                max_triangle: REFERENCES,
                scan: ScanMode::Sorted,
            };
            let engine = CombinedKnn::with_pmatrix(db, eps, config, pmatrix.clone());
            out.push((engine.name(), funnel(&engine, queries)));
        }
        for mode in [ScanMode::Sequential, ScanMode::Sorted] {
            let engine =
                CombinedKnn::build(db, eps, CombinedConfig::histogram_only(histogram, mode));
            out.push((engine.name(), funnel(&engine, queries)));
        }
    }
    let qgram = QgramKnn::build(db, eps, 1, QgramVariant::MergeJoin2d);
    out.push((qgram.name(), funnel(&qgram, queries)));
    let ntr = CombinedKnn::with_pmatrix(
        db,
        eps,
        CombinedConfig::near_triangle_only(REFERENCES),
        pmatrix,
    );
    out.push((ntr.name(), funnel(&ntr, queries)));
    let cse = CseKnn::from_matrix(db, eps, REFERENCES, full);
    out.push((cse.name(), funnel(&cse, queries)));
    out
}

#[test]
fn refine_keeps_answers_and_funnel_and_never_adds_dp_cells() {
    // Every 4th sample keeps each NHL-like path's shape at lengths 8–64,
    // so the debug-build DPs stay cheap.
    let all: Vec<Trajectory2> = nhl_like(1, DATABASE + QUERIES)
        .normalize()
        .trajectories()
        .iter()
        .map(|t| Trajectory2::new(t.points().iter().step_by(4).copied().collect()))
        .collect();
    let db: Dataset<2> = all[..DATABASE].iter().cloned().collect();
    let queries = &all[DATABASE..];
    let sigma = max_std_dev(db.trajectories()).expect("non-empty data set");
    let mut measured = Vec::new();
    for (label, factor) in [("small", 0.25), ("2sigma", 2.0)] {
        let eps = MatchThreshold::new(factor * sigma).expect("finite sigma");
        for (name, f) in funnels(&db, queries, eps) {
            measured.push((label, name, f));
        }
    }
    let table: String = measured
        .iter()
        .map(|(label, name, f)| {
            format!(
                "    ({label:?}, {name:?}, {}, {}, {}, {}, {:#018x}, {}),\n",
                f.pruned_h, f.pruned_q, f.pruned_t, f.edr_computed, f.answers, f.dp_cells
            )
        })
        .collect();
    assert_eq!(
        measured.len(),
        GOLDEN.len(),
        "engine rows changed; measured:\n{table}"
    );
    for ((label, name, f), &(g_label, g_name, h, q, t, edr, answers, cells)) in
        measured.iter().zip(GOLDEN)
    {
        assert_eq!(
            (*label, name.as_str()),
            (g_label, g_name),
            "row order; measured:\n{table}"
        );
        assert_eq!(
            (
                f.pruned_h,
                f.pruned_q,
                f.pruned_t,
                f.edr_computed,
                f.answers
            ),
            (h, q, t, edr, answers),
            "{name} at {label}: funnel or answers changed; measured:\n{table}"
        );
        assert!(
            f.dp_cells <= cells,
            "{name} at {label}: {} DP cells, more than the full-DP {cells}",
            f.dp_cells
        );
    }
    // Bounded refines must actually run somewhere: a step that fell back
    // to the full DP everywhere would match every golden row exactly.
    let cells: u64 = measured.iter().map(|(_, _, f)| f.dp_cells).sum();
    let full: u64 = GOLDEN.iter().map(|row| row.7).sum();
    assert!(
        cells < full,
        "no refine was bounded: {cells} DP cells against the full-DP {full}"
    );
    println!("DP cells: {cells} against the full-DP {full}");
}
