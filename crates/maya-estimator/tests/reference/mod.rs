//! The forest training of the parent of the one-sweep rewrite, frozen
//! as a test oracle: `RandomForest::fit` clones bootstrap rows per tree
//! and `RegressionTree::best_split` makes one pass over the node per
//! candidate threshold. Do not optimize these files — a difference
//! between a forest grown here and one grown by the library on the same
//! rows, targets and parameters is a behaviour change (every
//! `benchmark/expected/*.digest` pins the trees).

#![allow(dead_code)]

pub mod forest;
pub mod tree;

pub use forest::RandomForest;
pub use tree::RegressionTree;
