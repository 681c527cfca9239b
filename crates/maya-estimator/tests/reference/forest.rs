//! Bagging as it stood before the one-sweep rewrite: every tree gets a
//! `Vec<Vec<f64>>` of cloned bootstrap rows. `fit` is verbatim.

use maya_estimator::ForestParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::tree::RegressionTree;

/// A fitted random forest.
#[derive(Clone, Debug)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fits the forest on rows `x` with targets `y`.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn fit(x: &[Vec<f64>], y: &[f64], params: &ForestParams) -> Self {
        assert!(!x.is_empty(), "cannot fit a forest on an empty dataset");
        let mut rng = StdRng::seed_from_u64(params.seed);
        let n = x.len();
        let trees = (0..params.n_trees)
            .map(|_| {
                // Bootstrap sample.

                let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                let bx: Vec<Vec<f64>> = idx.iter().map(|&i| x[i].clone()).collect();
                let by: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
                RegressionTree::fit(&bx, &by, &params.tree, &mut rng)
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
