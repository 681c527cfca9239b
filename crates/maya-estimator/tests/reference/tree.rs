//! The CART fit as it stood before the one-sweep rewrite: `best_split`
//! re-scans the node's rows once per candidate threshold through a
//! `Vec<Vec<f64>>` of rows. `Node`, `fit`, `build` and `best_split` are
//! verbatim (only the hyper-parameter struct is the library's), so the
//! `{:?}` rendering of a tree grown here and one grown by
//! `maya_estimator::RegressionTree` are equal exactly when every node is.

use maya_estimator::TreeParams;
use rand::seq::SliceRandom;
use rand::Rng;

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
    /// Panics if `x` is empty or row lengths differ from each other.
    pub fn fit(x: &[Vec<f64>], y: &[f64], params: &TreeParams, rng: &mut impl Rng) -> Self {
        assert!(!x.is_empty(), "cannot fit a tree on an empty dataset");
        assert_eq!(x.len(), y.len());
        let mut tree = RegressionTree { nodes: Vec::new() };
        let idx: Vec<u32> = (0..x.len() as u32).collect();
        tree.build(x, y, idx, params, 0, rng);
        tree
    }

    fn build(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        idx: Vec<u32>,
        params: &TreeParams,
        depth: usize,
        rng: &mut impl Rng,
    ) -> usize {
        let mean = idx.iter().map(|&i| y[i as usize]).sum::<f64>() / idx.len() as f64;
        if depth >= params.max_depth || idx.len() < 2 * params.min_samples_leaf {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        }
        match self.best_split(x, y, &idx, params, rng) {
            None => {
                self.nodes.push(Node::Leaf { value: mean });
                self.nodes.len() - 1
            }
            Some((feature, threshold)) => {
                let (l, r): (Vec<u32>, Vec<u32>) = idx
                    .iter()
                    .partition(|&&i| x[i as usize][feature] <= threshold);
                if l.len() < params.min_samples_leaf || r.len() < params.min_samples_leaf {
                    self.nodes.push(Node::Leaf { value: mean });
                    return self.nodes.len() - 1;
                }
                let me = self.nodes.len();
                self.nodes.push(Node::Leaf { value: mean }); // placeholder
                let left = self.build(x, y, l, params, depth + 1, rng);
                let right = self.build(x, y, r, params, depth + 1, rng);
                self.nodes[me] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                me
            }
        }
    }

    /// Finds the (feature, threshold) minimizing child variance.
    fn best_split(
        &self,
        x: &[Vec<f64>],
        y: &[f64],
        idx: &[u32],
        params: &TreeParams,
        rng: &mut impl Rng,
    ) -> Option<(usize, f64)> {
        let nf = x[0].len();
        let k = ((nf as f64 * params.feature_frac).ceil() as usize).clamp(1, nf);
        let mut feats: Vec<usize> = (0..nf).collect();
        feats.shuffle(rng);
        feats.truncate(k);

        let total_sum: f64 = idx.iter().map(|&i| y[i as usize]).sum();
        let total_sq: f64 = idx.iter().map(|&i| y[i as usize] * y[i as usize]).sum();
        let n = idx.len() as f64;
        let parent_score = total_sq - total_sum * total_sum / n;

        let mut best: Option<(usize, f64, f64)> = None;
        for &f in &feats {
            // Candidate thresholds from sampled values.
            let mut vals: Vec<f64> = idx.iter().take(256).map(|&i| x[i as usize][f]).collect();
            vals.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            vals.dedup();
            if vals.len() < 2 {
                continue;
            }
            let step = (vals.len() as f64 / params.max_thresholds as f64).max(1.0);
            let mut t = step / 2.0;
            while (t as usize) < vals.len() - 1 {
                let thr = (vals[t as usize] + vals[t as usize + 1]) / 2.0;
                let mut ls = 0.0;
                let mut lq = 0.0;
                let mut ln = 0.0;
                for &i in idx {
                    let v = y[i as usize];
                    if x[i as usize][f] <= thr {
                        ls += v;
                        lq += v * v;
                        ln += 1.0;
                    }
                }
                let rn = n - ln;
                if ln >= params.min_samples_leaf as f64 && rn >= params.min_samples_leaf as f64 {
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
                t += step;
            }
        }
        best.map(|(f, thr, _)| (f, thr))
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
