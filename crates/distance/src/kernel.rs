//! The EDR kernel hierarchy: interchangeable inner loops behind
//! [`crate::edr`] and [`crate::edr_within`].
//!
//! Three kernels compute the same Definition-2 dynamic program:
//!
//! - **naive** — the textbook O(m·n) rolling-row DP, kept as the
//!   differential-testing oracle and selectable via the `naive-kernel`
//!   feature;
//! - **bit-parallel** — Myers/Hyyrö bit-vector edit distance. EDR is
//!   exactly unit-cost Levenshtein with "character equality" replaced by
//!   the ε-match relation, and the Myers recurrence never needs that
//!   relation to be transitive: the match bit-vector is rebuilt per outer
//!   element with branch-free compares, then each DP row collapses to a
//!   handful of word operations per 64 inner elements;
//! - **sliding band** — the bounded form of the same recurrence. Since
//!   `D[i][j] >= |i - j|`, only the `2·bound + 1` cells around the
//!   diagonal can stay within a bound, so each row keeps just
//!   ⌈(2·bound+1)/64⌉ words that slide one position per row, and the
//!   cell on the target diagonal — a lower bound on the final distance —
//!   abandons the DP as soon as it passes the bound
//!   (`within_band_counted`).
//!
//! Every kernel is generic over [`CoordSeq`], so plain `&[Point<D>]`
//! slices, columnar [`TrajectoryArena`](trajsim_core::TrajectoryArena)
//! views, and precomputed [`QueryContext`](crate::QueryContext) columns
//! all monomorphize into the same loops, and every kernel borrows its
//! scratch (DP rows, bit-vector blocks) from an [`EdrWorkspace`] instead
//! of allocating — after the workspace has warmed up to the workload's
//! maximum pair size, a kernel call performs no heap allocation at all.
//!
//! Every kernel also reports how many DP cells it materialized, surfaced
//! as `QueryStats::dp_cells` by the k-NN engines in `trajsim-prune`:
//! m·n for naive, and 64 bit lanes per word per row processed for both
//! bit-vector kernels — m·64·⌈n/64⌉ for the full one, and
//! rows·64·⌈(2·bound+1)/64⌉ for the band (padding lanes included — they
//! are computed, that is the point). A narrow band therefore counts more
//! lanes than the scalar cells it replaces while taking less time. Its
//! window is capped at the words the whole pattern needs, but the
//! pattern of a context call is always the query: against a shorter
//! candidate a wide band can count more lanes than the full kernel,
//! whose pattern is the shorter side, and still take less time.
//!
//! Dispatch (in [`crate::edr`] / [`crate::edr_within`]): `edr` uses the
//! bit-parallel kernel, and every bounded call with `bound >= 1` runs
//! the sliding band. Its match words come from one of two builders:
//! through a [`QueryContext`](crate::QueryContext), the query is the
//! pattern and each candidate point's word is cut from the query's
//! per-dimension rank masks (`RankMasks`: two lookups per dimension in
//! a table of eight buckets per query point, each finished by a few
//! exact compares, and a window extract); the free functions, and a
//! context whose query is non-finite or longer than `RANK_MASK_MAX_LEN`
//! (1024), compare the band's cells directly, with the shorter sequence
//! as the pattern. Query refines and the offline matrices share the one
//! context entry point,
//! [`QueryContext::edr_within_counted`](crate::QueryContext::edr_within_counted),
//! whatever the lengths. The `naive-kernel` feature reroutes both entry
//! points to the naive kernel so any result can be reproduced on the
//! reference path.
//!
//! Full distances take one of two routes. The exact offline EDR matrices
//! — the CSE pairwise matrix and the evaluation `DistanceMatrix` — and
//! the pruning engines' exact refines (the first k of each query, before
//! its top-k fills, and every id that joins a triangle or CSE reference
//! pool) call
//! [`QueryContext::edr_within_counted`](crate::QueryContext::edr_within_counted)
//! with an unbounded bound: the sliding band never abandons then, so it
//! returns the exact distance and reads the target diagonal in its last
//! column only. The near-triangle pmatrix calls it under `L − |S|` (see
//! `build_pmatrix` in `trajsim-prune`).
//! [`QueryContext::edr_counted`](crate::QueryContext::edr_counted),
//! [`QueryContext::edr`](crate::QueryContext::edr) and the free `edr`
//! stay on the bit-parallel kernel's compare-built words. Of the engines
//! only the plain `SequentialScan` runs them, on every candidate: its
//! time is the denominator of every speed-up the benchmarks report, so
//! it moves only together with a benchmark that reports absolute refine
//! time.

use crate::workspace::EdrWorkspace;
use trajsim_core::{CoordSeq, MatchThreshold, Point, Trajectory};

/// Branch-free ε-match: 1 iff every coordinate differs by at most `e`,
/// so a NaN coordinate never matches. It decides exactly as
/// [`Point::matches`] does, on coordinate sequences.
#[inline(always)]
pub(crate) fn coord_match<const D: usize, A: CoordSeq<D>, B: CoordSeq<D>>(
    a: A,
    i: usize,
    b: B,
    j: usize,
    e: f64,
) -> u64 {
    let mut ok = true;
    for d in 0..D {
        ok &= (a.coord(i, d) - b.coord(j, d)).abs() <= e;
    }
    u64::from(ok)
}

/// The textbook O(m·n) rolling-row DP, counting filled cells.
///
/// Callers guarantee `outer.len() >= inner.len()` and `inner` non-empty.
pub(crate) fn naive_counted<const D: usize, O: CoordSeq<D>, I: CoordSeq<D>>(
    outer: O,
    inner: I,
    eps: MatchThreshold,
    ws: &mut EdrWorkspace,
) -> (usize, u64) {
    let (m, n) = (outer.len(), inner.len());
    let e = eps.value();
    let (prev, curr) = ws.rows(n + 1, 0);
    for (j, slot) in prev.iter_mut().enumerate() {
        *slot = j;
    }
    for i in 0..m {
        curr[0] = i + 1;
        for j in 0..n {
            let subcost = usize::from(coord_match(outer, i, inner, j, e) == 0);
            let replace = prev[j] + subcost;
            let delete = prev[j + 1] + 1;
            let insert = curr[j] + 1;
            curr[j + 1] = replace.min(delete).min(insert);
        }
        std::mem::swap(prev, curr);
    }
    (prev[n], (m * n) as u64)
}

/// Naive bounded DP with whole-row early abandoning, counting filled
/// cells. Same contract as [`naive_counted`]; additionally the caller has
/// checked `outer.len() - inner.len() <= bound`.
pub(crate) fn within_naive_counted<const D: usize, O: CoordSeq<D>, I: CoordSeq<D>>(
    outer: O,
    inner: I,
    eps: MatchThreshold,
    bound: usize,
    ws: &mut EdrWorkspace,
) -> (Option<usize>, u64) {
    let (m, n) = (outer.len(), inner.len());
    let e = eps.value();
    let (prev, curr) = ws.rows(n + 1, 0);
    for (j, slot) in prev.iter_mut().enumerate() {
        *slot = j;
    }
    let mut cells = 0u64;
    for i in 0..m {
        curr[0] = i + 1;
        let mut row_min = curr[0];
        for j in 0..n {
            let subcost = usize::from(coord_match(outer, i, inner, j, e) == 0);
            let replace = prev[j] + subcost;
            let delete = prev[j + 1] + 1;
            let insert = curr[j] + 1;
            let v = replace.min(delete).min(insert);
            curr[j + 1] = v;
            row_min = row_min.min(v);
        }
        cells += n as u64;
        if row_min > bound {
            return (None, cells);
        }
        std::mem::swap(prev, curr);
    }
    ((prev[n] <= bound).then_some(prev[n]), cells)
}

/// Sliding-band Myers/Hyyrö bounded EDR with a diagonal cut-off,
/// counting materialized bit lanes.
///
/// The text (`text_len` elements) is consumed one element per DP column;
/// the pattern (`pattern_len` elements) is the bit dimension, as in
/// [`bitparallel_counted`]. Only cells with `|p - j| <= bound` (pattern
/// position `p`, text position `j`) can hold a value `<= bound`, because
/// `D[i][j] >= |i - j|`. So each column keeps only a window of
/// `64·words` pattern rows in the vertical-delta vectors, with
/// `words = min(⌈(2·bound+1)/64⌉, ⌈pattern_len/64⌉)` ([`band_words`]).
/// The window starts at pattern position
/// `clamp(j - bound, 0, pattern_len - 64·words)`: it slides down one row
/// per column through the middle of the DP and stands still at either
/// end, so it holds no row outside the pattern except the padding below
/// a pattern shorter than one window.
///
/// Cells outside the window are taken as their in-window neighbour + 1:
/// a row entering at the bottom gets vertical delta +1, and the row above
/// the window horizontal delta +1. Such a cell lies more than `bound` off
/// the diagonal, next to a cell that is already `>= bound`, so its stand-in
/// is above the bound; and any value above the bound keeps every
/// in-window value `<= bound` exact, because `min(D, bound + 1)` of a cell
/// depends only on `min(·, bound + 1)` of its three predecessors.
///
/// DP values never fall along a diagonal, so the cell on the target
/// diagonal `p - j = pattern_len - text_len` lower-bounds the final
/// distance. Each column computes that cell from the value of the row
/// just above the window plus two popcounts of the vertical deltas down
/// to it, and the kernel abandons as soon as it passes `bound`. A bound
/// of at least `max(text_len, pattern_len)` cannot be passed, so such a
/// call returns the exact distance: it is the full DP on a window of the
/// whole pattern, and it reads the target diagonal in the last column
/// only.
///
/// `fill(j, p0, eq)` writes text element `j`'s ε-match word(s) against
/// pattern positions `p0..p0 + 64·eq.len()` (bit `k` ↔ position
/// `p0 + k`). It must set the bits of the positions within `bound` of
/// `j` exactly; every other bit may be anything, since a lane off the
/// band only ever holds a value above the bound.
///
/// Callers guarantee both lengths non-zero, `bound >= 1` and
/// `text_len.abs_diff(pattern_len) <= bound`.
pub(crate) fn within_band_counted(
    text_len: usize,
    pattern_len: usize,
    bound: usize,
    ws: &mut EdrWorkspace,
    mut fill: impl FnMut(usize, usize, &mut [u64]),
) -> (Option<usize>, u64) {
    let (m, n) = (text_len, pattern_len);
    // EDR <= max(m, n): a wider band changes nothing.
    let b = bound.min(m.max(n));
    let words = band_words(n, b);
    let last_p0 = n.saturating_sub(64 * words);
    // Column 0: D[i][0] = i, every vertical delta +1 (`bits` sets VP).
    let (vp, vn, eq) = ws.bits(words);
    let mut p0 = 0;
    // D[p0][j], the row just above the window (row 0 is the boundary).
    let mut above = 0usize;
    let mut d = m.abs_diff(n);
    // The target diagonal reaches the pattern at column m - n; above it,
    // its cells extend the boundary with the constant |m - n|. A call
    // that can never abandon reads it in the last column only.
    let first_read = if bound >= m.max(n) {
        m - 1
    } else {
        m.saturating_sub(n)
    };
    for j in 0..m {
        // Whether the window slides or not, the row above it gains one
        // from the left: the boundary row, or a cell off the band.
        above += 1;
        if j.saturating_sub(b).min(last_p0) > p0 {
            // The window's first row becomes the row above it.
            above = above + (vp[0] & 1) as usize - (vn[0] & 1) as usize;
            for w in 0..words {
                let (up, un) = if w + 1 < words {
                    (vp[w + 1], vn[w + 1])
                } else {
                    (1, 0)
                };
                vp[w] = (vp[w] >> 1) | (up << 63);
                vn[w] = (vn[w] >> 1) | (un << 63);
            }
            p0 += 1;
        }
        fill(j, p0, eq);
        // Top boundary: horizontal delta +1 into the window's first row.
        let mut hin: i32 = 1;
        for w in 0..words {
            let pv = vp[w];
            let mv = vn[w];
            let mut eqw = eq[w];
            let xv = eqw | mv;
            eqw |= u64::from(hin < 0);
            let xh = (((eqw & pv).wrapping_add(pv)) ^ pv) | eqw;
            let ph = mv | !(xh | pv);
            let mh = pv & xh;
            let hout: i32 = (((ph >> 63) & 1) as i32) - (((mh >> 63) & 1) as i32);
            let ph = (ph << 1) | u64::from(hin > 0);
            let mh = (mh << 1) | u64::from(hin < 0);
            vp[w] = mh | !(xv | ph);
            vn[w] = ph & xv;
            hin = hout;
        }
        if j >= first_read {
            let k = j + n - m - p0;
            let (last, bit) = (k / 64, k % 64);
            let (mut up, mut down) = (0, 0);
            for w in 0..last {
                up += vp[w].count_ones();
                down += vn[w].count_ones();
            }
            let mask = u64::MAX >> (63 - bit);
            up += (vp[last] & mask).count_ones();
            down += (vn[last] & mask).count_ones();
            d = above + up as usize - down as usize;
            if d > bound {
                return (None, (64 * words * (j + 1)) as u64);
            }
        }
    }
    (Some(d), (64 * words * m) as u64)
}

/// The words of [`within_band_counted`]'s window: enough for the
/// `2·bound + 1` band cells of a column, but never more than the whole
/// pattern needs, so the band kernel's lanes never exceed the full
/// bit-parallel kernel's.
pub(crate) fn band_words(pattern_len: usize, bound: usize) -> usize {
    (2 * bound.min(pattern_len) + 1)
        .div_ceil(64)
        .min(pattern_len.div_ceil(64))
}

/// [`within_band_counted`] with match words built by direct compares,
/// only for the band's cells.
pub(crate) fn within_compare_counted<const D: usize, T: CoordSeq<D>, P: CoordSeq<D>>(
    text: T,
    pattern: P,
    eps: MatchThreshold,
    bound: usize,
    ws: &mut EdrWorkspace,
) -> (Option<usize>, u64) {
    let (e, n) = (eps.value(), pattern.len());
    let b = bound.min(text.len().max(n));
    within_band_counted(text.len(), n, bound, ws, |j, p0, eq| {
        let (lo, hi) = (j.saturating_sub(b), n.min(j + b + 1));
        for (w, slot) in eq.iter_mut().enumerate() {
            let base = p0 + 64 * w;
            let mut word = 0;
            for p in lo.max(base)..hi.min(base + 64) {
                word |= coord_match(text, j, pattern, p, e) << (p - base);
            }
            *slot = word;
        }
    })
}

/// Query lengths above this keep the compare-built match words: the rank
/// masks take `(len + 1)·⌈len/64⌉` words per dimension, 128 KiB at the
/// cap.
pub(crate) const RANK_MASK_MAX_LEN: usize = 1024;

/// Lookup-table buckets per query point in [`RankMasks`].
const BUCKETS_PER_POINT: usize = 8;

// Table entries are ranks in `0..=len`.
const _: () = assert!(RANK_MASK_MAX_LEN <= u16::MAX as usize);

/// Per-query rank masks: a candidate coordinate's ε-match set against the
/// query, from two table lookups per dimension instead of one compare per
/// query point.
///
/// For each dimension the query's coordinates are sorted, and prefix
/// mask `r` holds the query positions of the `r` smallest. `fl(q - v)` is
/// monotone in `q`, so the query points with `fl(q - v) < -ε` and those
/// with `fl(q - v) <= ε` are two prefixes of the sorted order, and their
/// difference is exactly the set [`coord_match`] accepts — ε boundary and
/// NaN candidates included (a NaN makes both prefixes empty).
///
/// The two prefix lengths come from a bucket table per dimension:
/// `BUCKETS_PER_POINT·len` equal-width buckets over `[min, max]` of the
/// query's coordinates, each holding the rank of its first coordinate.
/// A lookup starts at the entry of the bucket of `v − ε` (or `v + ε`)
/// and steps one sorted coordinate at a time until the exact predicate
/// flips, so the answer never depends on the table's arithmetic — only
/// the number of steps does.
#[derive(Debug, Clone)]
pub(crate) struct RankMasks<const D: usize> {
    len: usize,
    words: usize,
    buckets: usize,
    /// Dimension-major sorted coordinates.
    sorted: Vec<f64>,
    /// Dimension-major, `len + 1` masks of `words` words per dimension.
    prefix: Vec<u64>,
    /// Per dimension: the smallest coordinate and the buckets per unit.
    grid: [(f64, f64); D],
    /// Dimension-major, `buckets` entries per dimension: entry `b` counts
    /// the sorted coordinates whose bucket lies below `b`.
    starts: Vec<u16>,
}

impl<const D: usize> RankMasks<D> {
    /// The masks of `query`, or `None` for an empty, over-long or
    /// non-finite query (where `fl(q - v)` would not be monotone).
    pub(crate) fn build<Q: CoordSeq<D>>(query: Q) -> Option<Self> {
        let len = query.len();
        if len == 0 || len > RANK_MASK_MAX_LEN {
            return None;
        }
        let words = len.div_ceil(64);
        let buckets = BUCKETS_PER_POINT * len;
        let mut sorted = Vec::with_capacity(D * len);
        let mut prefix = vec![0u64; D * (len + 1) * words];
        let mut grid = [(0.0, 0.0); D];
        let mut starts = Vec::with_capacity(D * buckets);
        let mut order: Vec<usize> = Vec::with_capacity(len);
        for (d, masks) in prefix.chunks_exact_mut((len + 1) * words).enumerate() {
            if (0..len).any(|i| !query.coord(i, d).is_finite()) {
                return None;
            }
            order.clear();
            order.extend(0..len);
            order.sort_unstable_by(|&a, &b| query.coord(a, d).total_cmp(&query.coord(b, d)));
            sorted.extend(order.iter().map(|&i| query.coord(i, d)));
            for (r, &i) in order.iter().enumerate() {
                let (done, next) = masks.split_at_mut((r + 1) * words);
                next[..words].copy_from_slice(&done[r * words..]);
                next[i / 64] |= 1 << (i % 64);
            }
            // A zero span gives an infinite scale: the minimum itself
            // lands in bucket 0 (0·∞ is NaN) and everything above it in
            // the last one, which is still a valid start.
            let column = &sorted[d * len..];
            grid[d] = (column[0], buckets as f64 / (column[len - 1] - column[0]));
            let mut r = 0;
            for b in 0..buckets {
                while r < len && bucket(grid[d], buckets, column[r]) < b {
                    r += 1;
                }
                starts.push(r as u16);
            }
        }
        Some(RankMasks {
            len,
            words,
            buckets,
            sorted,
            prefix,
            grid,
            starts,
        })
    }

    /// The prefix lengths of dimension `d`'s sorted coordinates with
    /// `fl(q - v) < -ε` and with `fl(q - v) <= ε`: the query points
    /// below `v`'s ε-interval and those not above it.
    #[inline(always)]
    fn ranks(&self, d: usize, v: f64, e: f64) -> (usize, usize) {
        (
            self.rank(d, v - e, |q| q - v < -e),
            self.rank(d, v + e, |q| q - v <= e),
        )
    }

    /// The length of the prefix of dimension `d`'s sorted coordinates on
    /// which `pred` holds (`pred` must hold on a prefix), stepped to from
    /// the table entry of `probe`.
    #[inline(always)]
    fn rank(&self, d: usize, probe: f64, pred: impl Fn(f64) -> bool) -> usize {
        let sorted = &self.sorted[d * self.len..(d + 1) * self.len];
        let entry = d * self.buckets + bucket(self.grid[d], self.buckets, probe);
        let mut r = usize::from(self.starts[entry]);
        while r < sorted.len() && pred(sorted[r]) {
            r += 1;
        }
        while r > 0 && !pred(sorted[r - 1]) {
            r -= 1;
        }
        r
    }

    /// [`within_band_counted`] with the query as the pattern and each
    /// match word built from the masks; `text` is the candidate.
    pub(crate) fn within_counted<T: CoordSeq<D>>(
        &self,
        text: T,
        eps: MatchThreshold,
        bound: usize,
        ws: &mut EdrWorkspace,
    ) -> (Option<usize>, u64) {
        let e = eps.value();
        within_band_counted(text.len(), self.len, bound, ws, |j, p0, eq| {
            for d in 0..D {
                let (lo, hi) = self.ranks(d, text.coord(j, d), e);
                let masks = &self.prefix[d * (self.len + 1) * self.words..];
                let below = &masks[lo * self.words..(lo + 1) * self.words];
                let within = &masks[hi * self.words..(hi + 1) * self.words];
                for (w, slot) in eq.iter_mut().enumerate() {
                    let at = p0 + 64 * w;
                    let word = bits_at(within, at) & !bits_at(below, at);
                    *slot = if d == 0 { word } else { *slot & word };
                }
            }
        })
    }
}

/// The bucket of `x` in a table of `buckets` buckets starting at `min`
/// with `scale` buckets per unit. The cast saturates, so anything below
/// `min` (and NaN) falls in bucket 0 and anything past the end in the
/// last bucket.
#[inline(always)]
fn bucket((min, scale): (f64, f64), buckets: usize, x: f64) -> usize {
    (((x - min) * scale) as usize).min(buckets - 1)
}

/// The 64 bits of `mask` starting at bit `at`, zero past its end.
#[inline(always)]
fn bits_at(mask: &[u64], at: usize) -> u64 {
    let (w, s) = (at / 64, at % 64);
    let low = mask.get(w).copied().unwrap_or(0);
    if s == 0 {
        low
    } else {
        (low >> s) | (mask.get(w + 1).copied().unwrap_or(0) << (64 - s))
    }
}

/// Myers/Hyyrö bit-parallel edit distance over ε-match bit-vectors,
/// counting materialized bit lanes.
///
/// The inner sequence plays the pattern role, packed 64 elements per
/// block into vertical-delta vectors `VP`/`VN`; each outer element
/// rebuilds the match vector `Eq` branch-free and advances every block,
/// chaining the horizontal delta (`hin`/`hout`) between blocks. The
/// running score tracks the last DP row `D[n][·]` at the last real bit
/// lane of the last block; padding lanes above it only ever feed upward,
/// so they never corrupt it.
///
/// Callers guarantee `outer.len() >= inner.len()` and `inner` non-empty.
pub(crate) fn bitparallel_counted<const D: usize, O: CoordSeq<D>, I: CoordSeq<D>>(
    outer: O,
    inner: I,
    eps: MatchThreshold,
    ws: &mut EdrWorkspace,
) -> (usize, u64) {
    let (m, n) = (outer.len(), inner.len());
    let w = n.div_ceil(64);
    let last_bit = (n - 1) % 64;
    let e = eps.value();
    let (vp, vn, eq) = ws.bits(w);
    let mut score = n;
    for i in 0..m {
        for (b, word) in eq.iter_mut().enumerate() {
            let base = b * 64;
            let lanes = 64.min(n - base);
            let mut bitsword = 0u64;
            for k in 0..lanes {
                bitsword |= coord_match(outer, i, inner, base + k, e) << k;
            }
            *word = bitsword;
        }
        // Boundary row: D[0][j] - D[0][j-1] = +1.
        let mut hin: i32 = 1;
        for b in 0..w {
            let pv = vp[b];
            let mv = vn[b];
            let mut eqb = eq[b];
            let xv = eqb | mv;
            eqb |= u64::from(hin < 0);
            let xh = (((eqb & pv).wrapping_add(pv)) ^ pv) | eqb;
            let ph = mv | !(xh | pv);
            let mh = pv & xh;
            if b == w - 1 {
                score += ((ph >> last_bit) & 1) as usize;
                score -= ((mh >> last_bit) & 1) as usize;
            }
            let hout: i32 = (((ph >> 63) & 1) as i32) - (((mh >> 63) & 1) as i32);
            let mut ph = ph << 1;
            let mut mh = mh << 1;
            match hin {
                1 => ph |= 1,
                -1 => mh |= 1,
                _ => {}
            }
            vp[b] = mh | !(xv | ph);
            vn[b] = ph & xv;
            hin = hout;
        }
    }
    (score, (m * w * 64) as u64)
}

/// Splits into (longer, shorter) point slices, mirroring the rolling-row
/// convention every kernel assumes.
#[inline]
fn ordered<'a, const D: usize>(
    r: &'a Trajectory<D>,
    s: &'a Trajectory<D>,
) -> (&'a [Point<D>], &'a [Point<D>]) {
    if r.len() >= s.len() {
        (r.points(), s.points())
    } else {
        (s.points(), r.points())
    }
}

/// [`edr`](crate::edr) computed by the naive rolling-row kernel — the
/// differential-testing reference.
pub fn edr_naive<const D: usize>(
    r: &Trajectory<D>,
    s: &Trajectory<D>,
    eps: MatchThreshold,
) -> usize {
    let (outer, inner) = ordered(r, s);
    if inner.is_empty() {
        return outer.len();
    }
    crate::with_workspace(|ws| naive_counted(outer, inner, eps, ws).0)
}

/// [`edr`](crate::edr) computed by the bit-parallel kernel.
pub fn edr_bitparallel<const D: usize>(
    r: &Trajectory<D>,
    s: &Trajectory<D>,
    eps: MatchThreshold,
) -> usize {
    let (outer, inner) = ordered(r, s);
    if inner.is_empty() {
        return outer.len();
    }
    crate::with_workspace(|ws| bitparallel_counted(outer, inner, eps, ws).0)
}

/// [`edr_within`](crate::edr_within) computed by the naive
/// early-abandoning kernel — the differential-testing reference.
pub fn edr_within_naive<const D: usize>(
    r: &Trajectory<D>,
    s: &Trajectory<D>,
    eps: MatchThreshold,
    bound: usize,
) -> Option<usize> {
    let (outer, inner) = ordered(r, s);
    if outer.len() - inner.len() > bound {
        return None;
    }
    if inner.is_empty() {
        return Some(outer.len());
    }
    crate::with_workspace(|ws| within_naive_counted(outer, inner, eps, bound, ws).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edr::edr_recursive_reference;
    use proptest::prelude::*;
    use trajsim_core::Trajectory2;

    fn eps(v: f64) -> MatchThreshold {
        MatchThreshold::new(v).unwrap()
    }

    fn traj(points: &[(f64, f64)]) -> Trajectory<2> {
        Trajectory2::from_xy(points)
    }

    #[test]
    fn long_sequences_cross_block_boundaries() {
        // Lengths straddling the 64-bit lane width stress the multi-block
        // carry chain of the bit-parallel kernel.
        for n in [63usize, 64, 65, 127, 128, 129, 200] {
            let a: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 0.0)).collect();
            let b: Vec<(f64, f64)> = (0..n).map(|i| (i as f64 + 0.1, 0.0)).collect();
            let (ta, tb) = (traj(&a), traj(&b));
            assert_eq!(edr_bitparallel(&ta, &tb, eps(0.25)), 0, "n={n}");
            // Shifting one sequence by two positions costs two edits.
            let c: Vec<(f64, f64)> = (0..n).map(|i| (i as f64 + 2.0, 0.0)).collect();
            let tc = traj(&c);
            assert_eq!(
                edr_bitparallel(&ta, &tc, eps(0.25)),
                edr_naive(&ta, &tc, eps(0.25)),
                "n={n}"
            );
        }
    }

    #[test]
    fn band_handles_extreme_bounds() {
        let a = traj(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let b = traj(&[(9.0, 9.0), (8.0, 8.0), (7.0, 7.0), (6.0, 6.0)]);
        // True distance is 4 (nothing matches): every bound below that
        // abandons, the exact bound reports it.
        for bound in 0..4 {
            assert_eq!(crate::edr_within(&a, &b, eps(0.5), bound), None);
        }
        assert_eq!(crate::edr_within(&a, &b, eps(0.5), 4), Some(4));
        assert_eq!(crate::edr_within(&a, &b, eps(0.5), 100), Some(4));
        assert_eq!(crate::edr_within(&a, &b, eps(0.5), usize::MAX), Some(4));
    }

    #[test]
    fn rank_masks_refuse_non_finite_and_over_long_queries() {
        let finite = traj(&[(0.0, 1.0), (2.0, 3.0)]);
        assert!(RankMasks::build(finite.points()).is_some());
        let nan = traj(&[(0.0, 1.0), (f64::NAN, 3.0)]);
        assert!(RankMasks::build(nan.points()).is_none());
        let inf = traj(&[(0.0, f64::INFINITY)]);
        assert!(RankMasks::build(inf.points()).is_none());
        let long: Vec<(f64, f64)> = (0..=RANK_MASK_MAX_LEN).map(|i| (i as f64, 0.0)).collect();
        assert!(RankMasks::build(traj(&long).points()).is_none());
        assert!(RankMasks::build(traj(&long[1..]).points()).is_some());
    }

    /// `x` moved by `steps` units in the last place (no `next_up` at the
    /// crate's minimum Rust version).
    fn ulps(x: f64, steps: i64) -> f64 {
        if x == 0.0 {
            return f64::from_bits(steps.unsigned_abs()) * (steps as f64).signum();
        }
        let bits = x.to_bits() as i64 + if x > 0.0 { steps } else { -steps };
        f64::from_bits(bits as u64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The bucket-table lookup gives exactly the two prefix lengths
        /// `partition_point` finds: on a column with duplicates, and on a
        /// column of zero span or a few ulps wide (where one-ulp rounding
        /// of `v ± ε` can seed the lookup past the answer), for candidates
        /// on, a few ulps off and far outside the query's ε-boundaries,
        /// and for NaN and ±inf.
        #[test]
        fn table_lookup_equals_partition_point(
            xs in proptest::collection::vec(-6i32..6, 1..40),
            spread in proptest::collection::vec(0i64..8, 1..8),
            flat in 0u8..3,
            e in 0.0..3.0f64,
            zero_eps in 0u8..4,
            probes in proptest::collection::vec(
                (0usize..8, 0usize..64, -20.0..20.0f64, -3i64..4),
                1..24,
            ),
        ) {
            let e = if zero_eps == 0 { 0.0 } else { e };
            let points: Vec<(f64, f64)> = xs
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    let y = if flat == 0 { 0 } else { spread[i % spread.len()] };
                    (f64::from(x) * 0.75, ulps(1.25, y))
                })
                .collect();
            let query = traj(&points);
            let masks = RankMasks::build(query.points()).expect("finite query");
            for &(kind, at, free, step) in &probes {
                for d in 0..2 {
                    let x = query.points()[at % points.len()].0[d];
                    let v = match kind {
                        0 | 1 => ulps(x + e, step),
                        2 | 3 => ulps(x - e, step),
                        4 => free,
                        5 => f64::NAN,
                        6 => f64::INFINITY,
                        _ => f64::NEG_INFINITY,
                    };
                    let sorted = &masks.sorted[d * masks.len..(d + 1) * masks.len];
                    let want = (
                        sorted.partition_point(|&q| q - v < -e),
                        sorted.partition_point(|&q| q - v <= e),
                    );
                    prop_assert_eq!(masks.ranks(d, v, e), want, "dim {} v {} eps {}", d, v, e);
                }
            }
        }

        /// All three full-distance kernels agree with the recursive
        /// reference on random 2-d trajectories.
        #[test]
        fn full_kernels_agree_with_reference(
            r in proptest::collection::vec((-4.0..4.0f64, -4.0..4.0f64), 0..14),
            s in proptest::collection::vec((-4.0..4.0f64, -4.0..4.0f64), 0..14),
            e in 0.05..3.0f64,
        ) {
            let (r, s) = (traj(&r), traj(&s));
            let e = eps(e);
            let want = edr_recursive_reference(&r, &s, e);
            prop_assert_eq!(edr_naive(&r, &s, e), want);
            prop_assert_eq!(edr_bitparallel(&r, &s, e), want);
        }

        /// Both match-word builders of the band kernel agree with the
        /// naive early-abandoning kernel for bounds straddling the true
        /// distance (below, equal, above), in both pattern orientations.
        #[test]
        fn band_agrees_across_the_straddle(
            r in proptest::collection::vec((-4.0..4.0f64, -4.0..4.0f64), 1..18),
            s in proptest::collection::vec((-4.0..4.0f64, -4.0..4.0f64), 1..18),
            e in 0.05..3.0f64,
        ) {
            let (r, s) = (traj(&r), traj(&s));
            let e = eps(e);
            let true_d = edr_naive(&r, &s, e);
            let mut ws = crate::EdrWorkspace::new();
            let masks = RankMasks::build(r.points()).expect("finite query");
            let diff = r.len().abs_diff(s.len());
            for bound in [
                true_d.saturating_sub(2),
                true_d.saturating_sub(1),
                true_d,
                true_d + 1,
                true_d + 5,
            ] {
                let want = edr_within_naive(&r, &s, e, bound);
                prop_assert_eq!(crate::edr_within(&r, &s, e, bound), want);
                if bound == 0 || bound < diff {
                    continue; // decided before any DP
                }
                for (text, pattern) in [(&r, &s), (&s, &r)] {
                    let (d, _) =
                        within_compare_counted(text.points(), pattern.points(), e, bound, &mut ws);
                    prop_assert_eq!(d, want, "compare, bound {} (true {})", bound, true_d);
                }
                let (d, _) = masks.within_counted(s.points(), e, bound, &mut ws);
                prop_assert_eq!(d, want, "ranks, bound {} (true {})", bound, true_d);
            }
        }

        /// Bit-parallel kernels on longer inputs than the recursive
        /// reference can afford, against the naive DP.
        #[test]
        fn bitparallel_agrees_on_long_inputs(
            r in proptest::collection::vec((-4.0..4.0f64, -4.0..4.0f64), 0..90),
            s in proptest::collection::vec((-4.0..4.0f64, -4.0..4.0f64), 0..90),
            e in 0.05..3.0f64,
        ) {
            let (r, s) = (traj(&r), traj(&s));
            let e = eps(e);
            prop_assert_eq!(edr_bitparallel(&r, &s, e), edr_naive(&r, &s, e));
        }

        /// Lane accounting: the band kernel never counts more lanes than
        /// the full bit-parallel kernel on the same pair, and a tighter
        /// bound never counts more.
        #[test]
        fn band_lanes_stay_under_the_full_dp_and_shrink_with_the_bound(
            r in proptest::collection::vec((-4.0..4.0f64, -4.0..4.0f64), 4..150),
            s in proptest::collection::vec((-4.0..4.0f64, -4.0..4.0f64), 4..150),
            e in 0.05..2.0f64,
        ) {
            let (r, s) = (traj(&r), traj(&s));
            let e = eps(e);
            let (outer, inner) = ordered(&r, &s);
            let mut ws = crate::EdrWorkspace::new();
            let (_, full) = bitparallel_counted(outer, inner, e, &mut ws);
            let mut prev = 0u64;
            for bound in (outer.len() - inner.len()).max(1)..=outer.len() {
                let (_, cells) = within_compare_counted(outer, inner, e, bound, &mut ws);
                prop_assert!(cells <= full, "bound {}: {} lanes over the full {}", bound, cells, full);
                prop_assert!(cells >= prev, "bound {} shrank the lanes", bound);
                prev = cells;
            }
        }
    }
}
