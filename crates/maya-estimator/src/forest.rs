//! Random-forest regression (bagged CART trees), the paper's default
//! kernel runtime predictor.
//!
//! The rows are transposed once into a column-major matrix every tree
//! reads; a tree's bag is the list of row numbers its bootstrap drew, in
//! draw order, not a copy of those rows. That list is what the frozen
//! row-cloning fit (`tests/reference/`) numbered `0..n` after cloning,
//! so every per-node sum adds the same values in the same order and the
//! forests are equal bit for bit (see [`crate::tree`] for the rest of
//! the argument).
//!
//! Trees are not fitted in parallel: one `StdRng` stream runs through
//! all of them — a tree's *n* bootstrap draws, then one shuffle per node
//! that searches for a split — so where a tree's draws start depends on
//! the shape of every tree before it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tree::{Columns, RegressionTree, Scratch, TreeParams};

/// Forest hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct ForestParams {
    /// Number of bagged trees.
    pub n_trees: usize,
    /// Per-tree parameters.
    pub tree: TreeParams,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 16,
            tree: TreeParams {
                max_depth: 18,
                min_samples_leaf: 2,
                feature_frac: 0.6,
                max_thresholds: 32,
            },
            seed: 0x464F_5245,
        }
    }
}

/// A fitted random forest.
#[derive(Clone, Debug)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fits the forest on rows `x` with targets `y`.
    ///
    /// # Panics
    /// Panics if the dataset is empty, if `params.n_trees` is zero (the
    /// mean over no trees is NaN, which rounds to a zero duration), if
    /// row lengths differ or if there is not one target per row.
    pub fn fit(x: &[Vec<f64>], y: &[f64], params: &ForestParams) -> Self {
        Self::fit_columns(&Columns::from_rows(x), y, params)
    }

    /// [`RandomForest::fit`] on rows already stored column by column.
    pub(crate) fn fit_columns(x: &Columns, y: &[f64], params: &ForestParams) -> Self {
        let n = x.rows();
        assert!(n > 0, "cannot fit a forest on an empty dataset");
        assert!(params.n_trees > 0, "cannot fit a forest of zero trees");
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut scratch = Scratch::default();
        let trees = (0..params.n_trees)
            .map(|_| {
                // Bootstrap sample.
                let bag = (0..n).map(|_| rng.gen_range(0..n) as u32).collect();
                RegressionTree::grow(x, y, bag, &params.tree, &mut rng, &mut scratch)
            })
            .collect();
        RandomForest { trees }
    }

    /// Mean prediction across trees.
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(row)).sum::<f64>() / self.trees.len() as f64
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest holds no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(7);
        let x: Vec<Vec<f64>> = (0..600)
            .map(|_| vec![rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0)])
            .collect();
        let y: Vec<f64> = x.iter().map(|v| (v[0] * v[1]).sqrt() + v[0]).collect();
        (x, y)
    }

    #[test]
    fn forest_beats_single_tree_on_noise() {
        let (x, y) = dataset();
        let split = 500;
        let params = ForestParams {
            n_trees: 10,
            tree: TreeParams {
                max_depth: 8,
                feature_frac: 1.0,
                ..Default::default()
            },
            seed: 1,
        };
        let forest = RandomForest::fit(&x[..split], &y[..split], &params);
        let mut rng = StdRng::seed_from_u64(2);
        let tree = RegressionTree::fit(
            &x[..split],
            &y[..split],
            &TreeParams {
                max_depth: 4,
                feature_frac: 1.0,
                ..Default::default()
            },
            &mut rng,
        );
        let err = |pred: &dyn Fn(&[f64]) -> f64| -> f64 {
            x[split..]
                .iter()
                .zip(&y[split..])
                .map(|(r, &t)| (pred(r) - t).abs() / t.max(1e-9))
                .sum::<f64>()
                / (x.len() - split) as f64
        };
        let fe = err(&|r| forest.predict(r));
        let te = err(&|r| tree.predict(r));
        assert!(fe < te, "forest {fe} vs shallow tree {te}");
        assert!(fe < 0.15, "forest relative error {fe}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = dataset();
        let p = ForestParams {
            n_trees: 4,
            ..Default::default()
        };
        let a = RandomForest::fit(&x, &y, &p);
        let b = RandomForest::fit(&x, &y, &p);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "every node of every tree"
        );
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        let other = RandomForest::fit(&x, &y, &ForestParams { seed: 1, ..p });
        assert_ne!(format!("{a:?}"), format!("{other:?}"), "the seed matters");
    }

    #[test]
    #[should_panic(expected = "zero trees")]
    fn a_forest_of_zero_trees_is_rejected() {
        let (x, y) = dataset();
        let p = ForestParams {
            n_trees: 0,
            ..Default::default()
        };
        RandomForest::fit(&x, &y, &p);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn an_empty_dataset_is_rejected() {
        RandomForest::fit(&[], &[], &ForestParams::default());
    }
}
