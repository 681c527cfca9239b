//! CART regression trees (variance-reduction splits).
//!
//! A split search makes one pass over the node per *feature*, not one per
//! candidate threshold: the node's targets and the feature's column are
//! gathered once into scratch buffers and swept once per block of
//! `LANES` thresholds, each lane owning one threshold's accumulators.
//!
//! The trees are pinned (`benchmark/expected/*.digest`, and
//! `tests/forest_identity.rs` against the frozen per-threshold search in
//! `tests/reference/`), so the sweep has to produce the bits the
//! per-threshold scan produced. It does, because:
//!
//! - **Add order.** f64 sums depend on the order of their addends. Every
//!   accumulator — a node's Σy and Σy², a lane's left Σy and Σy² — still
//!   takes its addends in the order of the node's row list, which is the
//!   order the bootstrap drew them in, kept by every partition.
//! - **`+ 0.0`.** A lane adds `0.0` for a row right of its threshold
//!   where the scan added nothing. `s + 0.0 == s` bit for bit unless `s`
//!   is `-0.0`, and a sum that starts at `+0.0` never becomes `-0.0`
//!   (round-to-nearest gives `+0.0` for `x + -x` and for `+0.0 + -0.0`).
//!   Left counts are integers.
//! - **First-256 rule.** Thresholds are midpoints between the distinct
//!   values among the node's first 256 rows. A column on which those are
//!   all equal yields no candidate, however it varies after them, so it
//!   is skipped before it is gathered or sorted; otherwise the same 256
//!   values meet the same sort and the same `dedup`.
//! - **Strict `<` in visit order.** Features are scored in the order the
//!   node's shuffle left them and thresholds in ascending order, and a
//!   candidate replaces the incumbent only when strictly better, so of
//!   two equal scores the first visited wins, as before.
//! - **One RNG stream.** A node that searches for a split shuffles a
//!   fresh `0..nf` permutation whether or not any feature survives the
//!   skip, so the generator is consumed exactly as before.

use rand::seq::SliceRandom;
use rand::Rng;

/// Tree hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TreeParams {
    /// Maximum depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Fraction of features considered at each split.
    pub feature_frac: f64,
    /// Maximum candidate thresholds evaluated per feature.
    pub max_thresholds: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 12,
            min_samples_leaf: 3,
            feature_frac: 0.5,
            max_thresholds: 24,
        }
    }
}

/// Rows a node samples its candidate thresholds from.
const THRESHOLD_SAMPLE: usize = 256;

/// Thresholds scored by one sweep over a node. Eight lanes of `f64`
/// sums and `u64` counts are what the vectorizer keeps in baseline
/// x86-64 registers; any candidate count is swept in blocks of this.
const LANES: usize = 8;

/// A feature matrix stored one column per feature, the layout the split
/// search reads: a feature's values over a node are one gather from one
/// contiguous column.
pub(crate) struct Columns {
    cols: Vec<Vec<f64>>,
    rows: usize,
}

impl Columns {
    /// An empty matrix of `features` columns.
    pub(crate) fn new(features: usize) -> Self {
        Columns {
            cols: vec![Vec::new(); features],
            rows: 0,
        }
    }

    /// Transposes row-major data; the width is the first row's.
    ///
    /// # Panics
    /// Panics if a row is longer or shorter than the first.
    pub(crate) fn from_rows(x: &[Vec<f64>]) -> Self {
        let mut m = Columns::new(x.first().map_or(0, Vec::len));
        for row in x {
            m.push_row(row);
        }
        m
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if `row` does not have one value per column.
    pub(crate) fn push_row(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.cols.len(),
            "row {} is ragged: the matrix has {} features",
            self.rows,
            self.cols.len()
        );
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.rows += 1;
    }

    pub(crate) fn rows(&self) -> usize {
        self.rows
    }
}

/// Buffers a split search fills and empties, shared by every node of
/// every tree of a forest so that growing one allocates only row lists.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The node's feature permutation.
    feats: Vec<usize>,
    /// The node's targets and their squares, in row-list order.
    y: Vec<f64>,
    y_sq: Vec<f64>,
    /// The feature under test over the node, in row-list order.
    x: Vec<f64>,
    /// Its distinct values among the first [`THRESHOLD_SAMPLE`] rows.
    vals: Vec<f64>,
    /// Its candidate thresholds, ascending.
    thresholds: Vec<f64>,
}

/// `out[j] = src[idx[j]]`: the one indexed read of the search (an exact
/// length lets `extend` write without growing; a filtering gather
/// measured 5-8 % slower over a whole fit). `grow` checked the root's
/// row list against the matrix and a child's is a subset of its parent's.
fn gather(out: &mut Vec<f64>, src: &[f64], idx: &[u32]) {
    out.clear();
    out.extend(idx.iter().map(|&i| src[i as usize]));
}

/// What lies left of (`<=`) each threshold of a block: Σy, Σy² and the
/// number of rows.
struct Left {
    sum: [f64; LANES],
    sq: [f64; LANES],
    rows: [u64; LANES],
}

/// One pass over a node's gathered rows for up to [`LANES`] thresholds
/// at once. A lane adds every row's `v` or `0.0` in row order, so it
/// ends on the bits a scan adding only the rows left of its threshold
/// ends on (module docs); lanes do not depend on each other, which is
/// what lets the inner loop vectorize.
fn sweep(block: &[f64], x: &[f64], y: &[f64], y_sq: &[f64]) -> Left {
    // Lanes past the block's end score a threshold nobody reads.
    let mut thr = [f64::NAN; LANES];
    for (lane, &t) in thr.iter_mut().zip(block) {
        *lane = t;
    }
    let mut left = Left {
        sum: [0.0; LANES],
        sq: [0.0; LANES],
        rows: [0; LANES],
    };
    for ((&xv, &v), &q) in x.iter().zip(y).zip(y_sq) {
        for (((sum, sq), rows), &t) in left
            .sum
            .iter_mut()
            .zip(&mut left.sq)
            .zip(&mut left.rows)
            .zip(&thr)
        {
            let is_left = xv <= t;
            *sum += if is_left { v } else { 0.0 };
            *sq += if is_left { q } else { 0.0 };
            *rows += u64::from(is_left);
        }
    }
    left
}

#[derive(Clone, Debug)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree.
#[derive(Clone, Debug)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Fits a tree on rows `x[i]` with targets `y[i]`.
    ///
    /// # Panics
    /// Panics if `x` is empty, if row lengths differ from each other or
    /// if there is not one target per row.
    pub fn fit(x: &[Vec<f64>], y: &[f64], params: &TreeParams, rng: &mut impl Rng) -> Self {
        let cols = Columns::from_rows(x);
        let idx = (0..x.len() as u32).collect();
        Self::grow(&cols, y, idx, params, rng, &mut Scratch::default())
    }

    /// Fits a tree on the rows `idx` lists (repeats allowed, order kept:
    /// it is the order every sum adds in).
    ///
    /// # Panics
    /// Panics if `idx` is empty or lists a row the matrix does not have,
    /// or if `y` is not one target per matrix row.
    pub(crate) fn grow(
        cols: &Columns,
        y: &[f64],
        idx: Vec<u32>,
        params: &TreeParams,
        rng: &mut impl Rng,
        scratch: &mut Scratch,
    ) -> Self {
        assert!(!idx.is_empty(), "cannot fit a tree on an empty dataset");
        assert_eq!(cols.rows(), y.len(), "one target per row");
        assert!(
            idx.iter().all(|&i| (i as usize) < cols.rows()),
            "a row list names rows of the matrix"
        );
        let mut grower = Grower {
            cols,
            y,
            params,
            rng,
            scratch,
            nodes: Vec::new(),
        };
        grower.build(idx, 0);
        RegressionTree {
            nodes: grower.nodes,
        }
    }

    /// Predicts the target for a feature row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes (for introspection).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is a single leaf.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }
}

/// One tree being grown: what every node of the recursion shares.
struct Grower<'a, R> {
    cols: &'a Columns,
    y: &'a [f64],
    params: &'a TreeParams,
    rng: &'a mut R,
    scratch: &'a mut Scratch,
    nodes: Vec<Node>,
}

impl<R: Rng> Grower<'_, R> {
    fn leaf(&mut self, value: f64) -> usize {
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }

    fn build(&mut self, idx: Vec<u32>, depth: usize) -> usize {
        let y = self.y;
        let mean = idx.iter().filter_map(|&i| y.get(i as usize)).sum::<f64>() / idx.len() as f64;
        let min_leaf = self.params.min_samples_leaf;
        if depth >= self.params.max_depth || idx.len() < 2 * min_leaf {
            return self.leaf(mean);
        }
        let cols = self.cols;
        let split = self
            .best_split(&idx)
            .and_then(|(f, thr)| Some((f, thr, cols.cols.get(f)?)));
        let Some((feature, threshold, col)) = split else {
            return self.leaf(mean);
        };
        let (l, r): (Vec<u32>, Vec<u32>) = idx
            .iter()
            .partition(|&&i| col.get(i as usize).is_some_and(|&v| v <= threshold));
        if l.len() < min_leaf || r.len() < min_leaf {
            return self.leaf(mean);
        }
        let me = self.leaf(mean); // placeholder
        let left = self.build(l, depth + 1);
        let right = self.build(r, depth + 1);
        if let Some(node) = self.nodes.get_mut(me) {
            *node = Node::Split {
                feature,
                threshold,
                left,
                right,
            };
        }
        me
    }

    /// Finds the (feature, threshold) minimizing child variance.
    fn best_split(&mut self, idx: &[u32]) -> Option<(usize, f64)> {
        let Scratch {
            feats,
            y,
            y_sq,
            x,
            vals,
            thresholds,
        } = &mut *self.scratch;
        let nf = self.cols.cols.len();
        let k = ((nf as f64 * self.params.feature_frac).ceil() as usize)
            .max(1)
            .min(nf);
        feats.clear();
        feats.extend(0..nf);
        feats.shuffle(self.rng);
        feats.truncate(k);

        gather(y, self.y, idx);
        y_sq.clear();
        y_sq.extend(y.iter().map(|&v| v * v));
        let total_sum: f64 = y.iter().sum();
        let total_sq: f64 = y_sq.iter().sum();
        let n = idx.len() as f64;
        let parent_score = total_sq - total_sum * total_sum / n;
        let min_leaf = self.params.min_samples_leaf as u64;

        let mut best: Option<(usize, f64, f64)> = None;
        for (&f, col) in feats
            .iter()
            .filter_map(|f| Some((f, self.cols.cols.get(*f)?)))
        {
            // No candidate threshold lies between equal values: most
            // visits end here (a one-hot column below its own split).
            let mut head = idx
                .iter()
                .take(THRESHOLD_SAMPLE)
                .filter_map(|&i| col.get(i as usize));
            let first = head.next();
            if head.all(|v| Some(v) == first) {
                continue;
            }
            gather(x, col, idx);

            // Candidate thresholds from sampled values.
            vals.clear();
            vals.extend(x.iter().take(THRESHOLD_SAMPLE));
            vals.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            vals.dedup();
            thresholds.clear();
            let step = (vals.len() as f64 / self.params.max_thresholds as f64).max(1.0);
            let mut t = step / 2.0;
            while let (Some(lo), Some(hi)) =
                (vals.get(t as usize), vals.get((t as usize).wrapping_add(1)))
            {
                thresholds.push((lo + hi) / 2.0);
                t += step;
            }

            for block in thresholds.chunks(LANES) {
                let left = sweep(block, x, y, y_sq);
                for (((&thr, &ls), &lq), &ln) in
                    block.iter().zip(&left.sum).zip(&left.sq).zip(&left.rows)
                {
                    let rn = idx.len() as u64 - ln;
                    if ln >= min_leaf && rn >= min_leaf {
                        let (ln, rn) = (ln as f64, rn as f64);
                        let rs = total_sum - ls;
                        let rq = total_sq - lq;
                        let score = (lq - ls * ls / ln) + (rq - rs * rs / rn);
                        if best
                            .map(|(_, _, s)| score < s)
                            .unwrap_or(score < parent_score)
                        {
                            best = Some((f, thr, score));
                        }
                    }
                }
            }
        }
        best.map(|(f, thr, _)| (f, thr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn fits_a_step_function() {
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..200).map(|i| if i < 100 { 1.0 } else { 5.0 }).collect();
        let t = RegressionTree::fit(
            &x,
            &y,
            &TreeParams {
                feature_frac: 1.0,
                ..Default::default()
            },
            &mut rng(),
        );
        assert!((t.predict(&[10.0]) - 1.0).abs() < 0.2);
        assert!((t.predict(&[150.0]) - 5.0).abs() < 0.2);
    }

    #[test]
    fn fits_multivariate_interaction() {
        let mut r = rng();
        let x: Vec<Vec<f64>> = (0..500)
            .map(|_| vec![r.gen_range(0.0..10.0), r.gen_range(0.0..10.0)])
            .collect();
        let y: Vec<f64> = x.iter().map(|v| v[0] * 2.0 + v[1]).collect();
        let t = RegressionTree::fit(
            &x,
            &y,
            &TreeParams {
                max_depth: 10,
                feature_frac: 1.0,
                ..Default::default()
            },
            &mut r,
        );
        let pred = t.predict(&[5.0, 5.0]);
        assert!((pred - 15.0).abs() < 2.0, "{pred}");
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y = vec![3.0; 50];
        let t = RegressionTree::fit(&x, &y, &TreeParams::default(), &mut rng());
        assert_eq!(t.predict(&[7.0]), 3.0);
    }

    #[test]
    fn respects_min_leaf() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let t = RegressionTree::fit(
            &x,
            &y,
            &TreeParams {
                min_samples_leaf: 5,
                feature_frac: 1.0,
                ..Default::default()
            },
            &mut rng(),
        );
        // With min leaf 5 on 10 points, at most one split is possible.
        assert!(t.len() <= 3, "{}", t.len());
    }

    #[test]
    #[should_panic(expected = "row 3 is ragged")]
    fn a_long_row_is_rejected_not_truncated() {
        let mut x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 0.0]).collect();
        x[3].push(9.0);
        RegressionTree::fit(&x, &[1.0; 10], &TreeParams::default(), &mut rng());
    }

    #[test]
    #[should_panic(expected = "row 7 is ragged")]
    fn a_short_row_is_rejected_before_the_search_indexes_it() {
        let mut x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 0.0]).collect();
        x[7].pop();
        RegressionTree::fit(&x, &[1.0; 10], &TreeParams::default(), &mut rng());
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn an_empty_dataset_is_rejected() {
        RegressionTree::fit(&[], &[], &TreeParams::default(), &mut rng());
    }
}
