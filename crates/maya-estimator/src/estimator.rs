//! The pluggable runtime-estimator interface and its two reference
//! implementations: the trained random-forest estimator and the oracle.

use maya_hw::{ClusterSpec, GroundTruthKernelModel, GroundTruthNetModel};
use maya_trace::{CollectiveKind, KernelKind, MemcpyKind, SimTime};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

use crate::collectives::CollectiveTable;
use crate::features::{kernel_features, NUM_FEATURES};
use crate::forest::{ForestParams, RandomForest};
use crate::metrics::MapeReport;
use crate::profiler::{ProfileScale, Profiler};
use crate::tree::Columns;

/// A source of per-operation runtime predictions for the simulator.
///
/// "Maya's kernel runtime estimators are pluggable components... Users
/// can provide any runtime estimator of their choosing for any kernel
/// type" (§4.3).
pub trait RuntimeEstimator: Send + Sync {
    /// Predicted duration of a compute kernel.
    fn kernel_time(&self, kernel: &KernelKind) -> SimTime;
    /// Predicted duration of a host/device copy.
    fn memcpy_time(&self, bytes: u64, kind: MemcpyKind) -> SimTime;
    /// Predicted on-the-wire duration of a collective over `ranks`.
    fn collective_time(
        &self,
        kind: CollectiveKind,
        bytes: u64,
        ranks: &[u32],
        cluster: &ClusterSpec,
    ) -> SimTime;
    /// Estimator name for reports.
    fn name(&self) -> &'static str;
}

/// The oracle estimator: true per-operation runtimes (Table 3). Residual
/// end-to-end error under this estimator isolates what the emulation +
/// simulation phases lose.
#[derive(Clone, Copy, Debug)]
pub struct OracleEstimator {
    /// True kernel timing.
    pub kernel_model: GroundTruthKernelModel,
    /// True network timing.
    pub net_model: GroundTruthNetModel,
    /// The GPU being modeled.
    pub gpu: maya_hw::GpuSpec,
}

impl OracleEstimator {
    /// Builds the oracle for a cluster.
    pub fn new(cluster: &ClusterSpec) -> Self {
        OracleEstimator {
            kernel_model: GroundTruthKernelModel::default(),
            net_model: GroundTruthNetModel::default(),
            gpu: cluster.gpu,
        }
    }
}

impl RuntimeEstimator for OracleEstimator {
    fn kernel_time(&self, kernel: &KernelKind) -> SimTime {
        self.kernel_model.kernel_time(kernel, &self.gpu)
    }

    fn memcpy_time(&self, bytes: u64, kind: MemcpyKind) -> SimTime {
        self.kernel_model.memcpy_time(bytes, kind, &self.gpu)
    }

    fn collective_time(
        &self,
        kind: CollectiveKind,
        bytes: u64,
        ranks: &[u32],
        cluster: &ClusterSpec,
    ) -> SimTime {
        self.net_model.collective_time(kind, bytes, ranks, cluster)
    }

    fn name(&self) -> &'static str {
        "oracle"
    }
}

/// The default estimator: random forests over profiled kernel data plus
/// profiled collective tables.
///
/// The forests are trained on the *residual* between measured time and a
/// naive peak-throughput roofline — the regression then only has to
/// learn the (bounded) efficiency structure, which sharply reduces
/// leaf-quantization error across the six-orders-of-magnitude runtime
/// range.
pub struct ForestEstimator {
    kernels: RandomForest,
    memcpy: RandomForest,
    collectives: CollectiveTable,
    gpu: maya_hw::GpuSpec,
}

/// Naive peak-throughput roofline: no efficiency curves, no
/// quantization structure — just `max(flops/peak, bytes/bw)` plus the
/// launch floor. This is a *feature*, not the ground-truth model.
fn naive_roofline(kernel: &KernelKind, gpu: &maya_hw::GpuSpec) -> f64 {
    let dtype = kernel.dtype().unwrap_or(maya_trace::Dtype::Fp32);
    let t_c = kernel.flops() / gpu.peak_flops(dtype);
    let t_m = kernel.bytes_accessed() / (gpu.mem_bw_gbps * 1e9);
    t_c.max(t_m).max(gpu.kernel_floor_us * 1e-6)
}

/// Naive memcpy roofline.
fn naive_memcpy(bytes: u64, kind: MemcpyKind, gpu: &maya_hw::GpuSpec) -> f64 {
    let bw = match kind {
        MemcpyKind::HostToDevice | MemcpyKind::DeviceToHost => gpu.pcie_bw_gbps * 1e9,
        MemcpyKind::DeviceToDevice => gpu.mem_bw_gbps * 1e9 / 2.0,
        MemcpyKind::HostToHost => 20.0e9,
    };
    (bytes as f64 / bw).max(2.0e-6)
}

/// The memcpy forest's feature row.
fn memcpy_features(bytes: u64, kind: MemcpyKind) -> [f64; 2] {
    [(bytes as f64).max(1.0).log2(), kind as u8 as f64]
}

impl ForestEstimator {
    /// Profiles the cluster and trains the estimator, returning the
    /// held-out per-kernel MAPE report (Tables 7-9).
    pub fn train(cluster: &ClusterSpec, scale: ProfileScale, seed: u64) -> (Self, MapeReport) {
        let profiler = Profiler::new(cluster.gpu, seed);
        let mut data = profiler.kernel_dataset(scale);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7370_6C69);
        data.shuffle(&mut rng);
        let split = data.len() * 8 / 10;
        let (train, test) = data.split_at(split);

        let gpu = cluster.gpu;
        let mut x = Columns::new(NUM_FEATURES);
        for (k, _) in train {
            x.push_row(&kernel_features(k));
        }
        let y: Vec<f64> = train
            .iter()
            .map(|(k, t)| (t.as_secs_f64().max(1e-9) / naive_roofline(k, &gpu)).ln())
            .collect();
        let forest_params = ForestParams {
            seed: seed ^ 0x6672,
            ..Default::default()
        };
        let kernels = RandomForest::fit_columns(&x, &y, &forest_params);

        // Held-out evaluation against the measured test split.
        let samples: Vec<(&'static str, SimTime, SimTime)> = test
            .iter()
            .map(|(k, t)| {
                let ratio = kernels.predict(&kernel_features(k)).exp();
                let pred = SimTime::from_secs(naive_roofline(k, &gpu) * ratio);
                (k.name(), pred, *t)
            })
            .collect();
        let report = MapeReport::from_samples(&samples);

        let mc = profiler.memcpy_dataset(scale);
        let mut mx = Columns::new(2);
        for ((b, kind), _) in &mc {
            mx.push_row(&memcpy_features(*b, *kind));
        }
        let my: Vec<f64> = mc
            .iter()
            .map(|((b, kind), t)| (t.as_secs_f64().max(1e-9) / naive_memcpy(*b, *kind, &gpu)).ln())
            .collect();
        let memcpy = RandomForest::fit_columns(
            &mx,
            &my,
            &ForestParams {
                n_trees: 8,
                seed: seed ^ 0x6D63,
                ..Default::default()
            },
        );

        let collectives =
            CollectiveTable::profile(cluster, &GroundTruthNetModel::default(), seed ^ 0x636F);
        (
            ForestEstimator {
                kernels,
                memcpy,
                collectives,
                gpu,
            },
            report,
        )
    }
}

impl RuntimeEstimator for ForestEstimator {
    fn kernel_time(&self, kernel: &KernelKind) -> SimTime {
        let ratio = self.kernels.predict(&kernel_features(kernel)).exp();
        SimTime::from_secs(naive_roofline(kernel, &self.gpu) * ratio)
    }

    fn memcpy_time(&self, bytes: u64, kind: MemcpyKind) -> SimTime {
        let ratio = self.memcpy.predict(&memcpy_features(bytes, kind)).exp();
        SimTime::from_secs(naive_memcpy(bytes, kind, &self.gpu) * ratio)
    }

    fn collective_time(
        &self,
        kind: CollectiveKind,
        bytes: u64,
        ranks: &[u32],
        cluster: &ClusterSpec,
    ) -> SimTime {
        self.collectives.predict(kind, bytes, ranks, cluster)
    }

    fn name(&self) -> &'static str {
        "random-forest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_trace::Dtype;

    #[test]
    fn oracle_matches_ground_truth_exactly() {
        let cluster = ClusterSpec::h100(1, 8);
        let oracle = OracleEstimator::new(&cluster);
        let k = KernelKind::Gemm {
            m: 1024,
            n: 1024,
            k: 1024,
            dtype: Dtype::Bf16,
        };
        assert_eq!(
            oracle.kernel_time(&k),
            GroundTruthKernelModel::default().kernel_time(&k, &cluster.gpu)
        );
        assert_eq!(oracle.name(), "oracle");
    }

    #[test]
    fn forest_estimator_learns_big_gemms_well() {
        let cluster = ClusterSpec::h100(1, 8);
        let (est, report) = ForestEstimator::train(&cluster, ProfileScale::Test, 11);
        // Large GEMMs: prediction should land within ~35% even with the
        // tiny test-scale training set.
        let truth_model = GroundTruthKernelModel::default();
        let mut errs = Vec::new();
        for mnk in [
            (2048u64, 2048u64, 2048u64),
            (4096, 1024, 4096),
            (8192, 512, 1024),
        ] {
            let k = KernelKind::Gemm {
                m: mnk.0,
                n: mnk.1,
                k: mnk.2,
                dtype: Dtype::Bf16,
            };
            let p = est.kernel_time(&k).as_secs_f64();
            let t = truth_model.kernel_time(&k, &cluster.gpu).as_secs_f64();
            errs.push((p / t - 1.0).abs());
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 0.35, "mean big-gemm error {mean}");
        assert!(report.overall() > 0.0, "report should show nonzero error");
    }

    /// `train` writes feature rows straight into columns; the forests are
    /// the ones the public row-major `fit` grows from the same rows.
    #[test]
    fn train_grows_the_forests_fit_grows_from_the_same_rows() {
        let (cluster, seed) = (ClusterSpec::v100(1, 8), 4);
        let (est, _) = ForestEstimator::train(&cluster, ProfileScale::Test, seed);
        let gpu = cluster.gpu;
        let profiler = Profiler::new(gpu, seed);

        let mut data = profiler.kernel_dataset(ProfileScale::Test);
        data.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x7370_6C69));
        data.truncate(data.len() * 8 / 10);
        let (x, y): (Vec<Vec<f64>>, Vec<f64>) = data
            .iter()
            .map(|(k, t)| {
                let y = (t.as_secs_f64().max(1e-9) / naive_roofline(k, &gpu)).ln();
                (kernel_features(k).to_vec(), y)
            })
            .unzip();
        let params = ForestParams {
            seed: seed ^ 0x6672,
            ..Default::default()
        };
        let kernels = RandomForest::fit(&x, &y, &params);
        assert_eq!(format!("{:?}", est.kernels), format!("{kernels:?}"));

        let (x, y): (Vec<Vec<f64>>, Vec<f64>) = profiler
            .memcpy_dataset(ProfileScale::Test)
            .iter()
            .map(|((b, kind), t)| {
                let y = (t.as_secs_f64().max(1e-9) / naive_memcpy(*b, *kind, &gpu)).ln();
                (memcpy_features(*b, *kind).to_vec(), y)
            })
            .unzip();
        let params = ForestParams {
            n_trees: 8,
            seed: seed ^ 0x6D63,
            ..Default::default()
        };
        let memcpy = RandomForest::fit(&x, &y, &params);
        assert_eq!(format!("{:?}", est.memcpy), format!("{memcpy:?}"));
    }

    #[test]
    fn memcpy_predictions_scale() {
        let cluster = ClusterSpec::a40(1, 8);
        let (est, _) = ForestEstimator::train(&cluster, ProfileScale::Test, 3);
        let small = est.memcpy_time(1 << 16, MemcpyKind::HostToDevice);
        let big = est.memcpy_time(1 << 30, MemcpyKind::HostToDevice);
        assert!(big > small * 10, "small {small} big {big}");
    }

    #[test]
    fn collective_predictions_use_topology() {
        let cluster = ClusterSpec::h100(2, 8);
        let (est, _) = ForestEstimator::train(&cluster, ProfileScale::Test, 5);
        let intra: Vec<u32> = (0..8).collect();
        let cross: Vec<u32> = (0..16).collect();
        let a = est.collective_time(CollectiveKind::AllReduce, 1 << 26, &intra, &cluster);
        let b = est.collective_time(CollectiveKind::AllReduce, 1 << 26, &cross, &cluster);
        assert!(b > a);
    }
}
