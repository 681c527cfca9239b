//! The one-sweep forest fit grows the forest the per-threshold fit grew.
//!
//! `reference/` is the training code of the commit before the rewrite.
//! Both sides derive `Debug` over the same names, and `{:?}` prints an
//! `f64` as its shortest round-trip decimal, so two renderings are the
//! same string exactly when every feature, threshold, child link and
//! leaf value of every tree has the same bits.

mod reference;

use maya_estimator::features::kernel_features;
use maya_estimator::{ForestParams, ProfileScale, Profiler, RandomForest, TreeParams};
use maya_hw::{ClusterSpec, GpuSpec};
use maya_trace::{Dtype, KernelKind, MemcpyKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

#[track_caller]
fn assert_same_forest(what: &str, x: &[Vec<f64>], y: &[f64], params: &ForestParams) {
    let ours = format!("{:?}", RandomForest::fit(x, y, params));
    let frozen = format!("{:?}", reference::RandomForest::fit(x, y, params));
    assert!(ours == frozen, "{what}: the forests differ ({params:?})");
}

// What `ForestEstimator::train` regresses on: the log of measured time
// over a naive roofline, for kernels and for copies.

fn naive_roofline(kernel: &KernelKind, gpu: &GpuSpec) -> f64 {
    let dtype = kernel.dtype().unwrap_or(Dtype::Fp32);
    let t_c = kernel.flops() / gpu.peak_flops(dtype);
    let t_m = kernel.bytes_accessed() / (gpu.mem_bw_gbps * 1e9);
    t_c.max(t_m).max(gpu.kernel_floor_us * 1e-6)
}

fn naive_memcpy(bytes: u64, kind: MemcpyKind, gpu: &GpuSpec) -> f64 {
    let bw = match kind {
        MemcpyKind::HostToDevice | MemcpyKind::DeviceToHost => gpu.pcie_bw_gbps * 1e9,
        MemcpyKind::DeviceToDevice => gpu.mem_bw_gbps * 1e9 / 2.0,
        MemcpyKind::HostToHost => 20.0e9,
    };
    (bytes as f64 / bw).max(2.0e-6)
}

/// Both of a `ForestEstimator`'s forests, on the data, split, targets,
/// parameters and seeds `train` uses.
fn assert_estimator_forests_match(cluster: &ClusterSpec, scale: ProfileScale, seed: u64) {
    let gpu = cluster.gpu;
    let what = format!("{} seed {seed}", gpu.name);
    let profiler = Profiler::new(gpu, seed);

    let mut data = profiler.kernel_dataset(scale);
    data.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x7370_6C69));
    data.truncate(data.len() * 8 / 10);
    let x: Vec<Vec<f64>> = data
        .iter()
        .map(|(k, _)| kernel_features(k).to_vec())
        .collect();
    let y: Vec<f64> = data
        .iter()
        .map(|(k, t)| (t.as_secs_f64().max(1e-9) / naive_roofline(k, &gpu)).ln())
        .collect();
    let params = ForestParams {
        seed: seed ^ 0x6672,
        ..Default::default()
    };
    assert_same_forest(&format!("{what} kernels"), &x, &y, &params);

    let copies = profiler.memcpy_dataset(scale);
    let x: Vec<Vec<f64>> = copies
        .iter()
        .map(|((b, kind), _)| vec![(*b as f64).max(1.0).log2(), *kind as u8 as f64])
        .collect();
    let y: Vec<f64> = copies
        .iter()
        .map(|((b, kind), t)| (t.as_secs_f64().max(1e-9) / naive_memcpy(*b, *kind, &gpu)).ln())
        .collect();
    let params = ForestParams {
        n_trees: 8,
        seed: seed ^ 0x6D63,
        ..Default::default()
    };
    assert_same_forest(&format!("{what} memcpy"), &x, &y, &params);
}

fn clusters() -> [ClusterSpec; 3] {
    [
        ClusterSpec::h100(1, 8),
        ClusterSpec::a40(1, 8),
        ClusterSpec::v100(1, 8),
    ]
}

#[test]
fn estimator_forests_match_the_frozen_fit() {
    for cluster in clusters() {
        for seed in [1, 2, 3] {
            assert_estimator_forests_match(&cluster, ProfileScale::Test, seed);
        }
    }
}

/// The benchmark's scale (7 360 training rows), where the frozen fit
/// takes over a second a forest: CI runs this under `--release`.
#[test]
#[ignore = "seconds per forest in the frozen fit; CI runs it in release"]
fn full_scale_estimator_forests_match_the_frozen_fit() {
    for seed in [1, 2, 3] {
        assert_estimator_forests_match(&ClusterSpec::h100(1, 8), ProfileScale::Full, seed);
    }
}

/// `rows` rows of columns built to meet every rule the sweep could get
/// wrong, and a target that depends on most of them:
///
/// 0. continuous, a few hundred distinct values;
/// 1. few distinct values, so most rows tie with a threshold's neighbours;
/// 2. constant;
/// 3. constant over the first 300 rows, varying after them;
/// 4. a copy of column 0 (equal scores: the first visited must win);
/// 5. signed zeros and small integers.
///
/// One row in five repeats an earlier row exactly.
fn generated(rows: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x: Vec<Vec<f64>> = Vec::with_capacity(rows);
    let mut y = Vec::with_capacity(rows);
    for i in 0..rows {
        if i > 0 && rng.gen_range(0..5u32) == 0 {
            let j = rng.gen_range(0..i);
            x.push(x[j].clone());
            y.push(y[j]);
            continue;
        }
        let a = (rng.gen_range(0.0..12.0f64) * 32.0).round() / 32.0;
        let b = f64::from(rng.gen_range(0..4u32));
        let late = if i < 300 {
            1.5
        } else {
            rng.gen_range(0.0..4.0f64)
        };
        let z = [-0.0, 0.0, 1.0, -1.0][rng.gen_range(0..4usize)];
        x.push(vec![a, b, 7.25, late, a, z]);
        y.push(a.sin() * 3.0 + b * late + z + rng.gen_range(-0.05..0.05f64));
    }
    (x, y)
}

#[test]
fn generated_datasets_match_the_frozen_fit_under_every_parameter() {
    // 40 rows: every node is under the 256-row sample; 1 500: the root
    // and the levels below it are over it, and column 3's first 300
    // bagged rows are not the first 300 rows.
    for rows in [40, 257, 1500] {
        let (x, y) = generated(rows, rows as u64);
        for min_samples_leaf in [1, 2, 5] {
            for feature_frac in [0.1, 0.6, 1.0] {
                for max_thresholds in [1, 24, 32, 100, 400] {
                    let params = ForestParams {
                        n_trees: 3,
                        tree: TreeParams {
                            max_depth: 14,
                            min_samples_leaf,
                            feature_frac,
                            max_thresholds,
                        },
                        seed: rows as u64 + max_thresholds as u64,
                    };
                    assert_same_forest(&format!("{rows} generated rows"), &x, &y, &params);
                }
            }
        }
    }
}

/// A column that is constant over the node's first 256 rows offers no
/// threshold, whatever it does after them — the rule that lets the
/// sweep skip it unread. Here it is the only column that explains the
/// target, so a fit that looked past row 256 would split on it.
#[test]
fn a_column_constant_over_the_first_256_rows_is_never_split_on() {
    let rows = 600;
    let x: Vec<Vec<f64>> = (0..rows)
        .map(|i| vec![if i < 256 { 0.0 } else { (i % 7) as f64 }])
        .collect();
    let y: Vec<f64> = x.iter().map(|r| r[0] * 10.0).collect();
    let params = TreeParams {
        feature_frac: 1.0,
        ..Default::default()
    };
    let ours = maya_estimator::RegressionTree::fit(&x, &y, &params, &mut StdRng::seed_from_u64(9));
    let frozen = reference::RegressionTree::fit(&x, &y, &params, &mut StdRng::seed_from_u64(9));
    assert_eq!(format!("{ours:?}"), format!("{frozen:?}"));
    assert!(ours.is_empty(), "one leaf: {ours:?}");
}

/// Two identical columns score identically at every threshold; which
/// one a split names is decided by the strict `<` in visit order.
#[test]
fn of_two_identical_columns_the_first_visited_wins() {
    let mut rng = StdRng::seed_from_u64(4);
    let x: Vec<Vec<f64>> = (0..400)
        .map(|_| {
            let v = f64::from(rng.gen_range(0..50u32));
            vec![v, v]
        })
        .collect();
    let y: Vec<f64> = x.iter().map(|r| (r[0] / 5.0).floor()).collect();
    let params = ForestParams {
        n_trees: 6,
        tree: TreeParams {
            feature_frac: 1.0,
            ..Default::default()
        },
        seed: 21,
    };
    assert_same_forest("twin columns", &x, &y, &params);
    let rendered = format!("{:?}", RandomForest::fit(&x, &y, &params));
    assert!(
        rendered.contains("feature: 0") && rendered.contains("feature: 1"),
        "both twins get picked somewhere, so the tie-break is exercised"
    );
}
