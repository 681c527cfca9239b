//! Prediction-quality metrics: per-kernel MAPE on held-out data
//! (recreating the paper's Tables 7-9).

use std::collections::BTreeMap;

use maya_trace::SimTime;

/// Mean absolute percentage error of paired (prediction, truth) values.
pub fn mape(pairs: &[(SimTime, SimTime)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs
        .iter()
        .map(|(p, t)| (p.as_secs_f64() - t.as_secs_f64()).abs() / t.as_secs_f64().max(1e-12))
        .sum::<f64>()
        / pairs.len() as f64
}

/// Per-kernel-family MAPE report (the shape of Tables 7-9).
#[derive(Clone, Debug, Default)]
pub struct MapeReport {
    /// kernel name -> (test samples, MAPE as a fraction).
    pub per_kernel: BTreeMap<&'static str, (usize, f64)>,
}

impl MapeReport {
    /// Builds a report from named (prediction, truth) samples.
    pub fn from_samples(samples: &[(&'static str, SimTime, SimTime)]) -> Self {
        let mut grouped: BTreeMap<&'static str, Vec<(SimTime, SimTime)>> = BTreeMap::new();
        for &(name, p, t) in samples {
            grouped.entry(name).or_default().push((p, t));
        }
        let per_kernel = grouped
            .into_iter()
            .map(|(name, v)| (name, (v.len(), mape(&v))))
            .collect();
        MapeReport { per_kernel }
    }

    /// Sample-weighted overall MAPE.
    pub fn overall(&self) -> f64 {
        let (n, acc) = self
            .per_kernel
            .values()
            .fold((0usize, 0.0f64), |(n, acc), &(c, m)| {
                (n + c, acc + m * c as f64)
            });
        if n == 0 {
            0.0
        } else {
            acc / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mape_basics() {
        let pairs = vec![
            (SimTime::from_us(110.0), SimTime::from_us(100.0)),
            (SimTime::from_us(90.0), SimTime::from_us(100.0)),
        ];
        assert!((mape(&pairs) - 0.10).abs() < 1e-9);
        assert_eq!(mape(&[]), 0.0);
    }

    #[test]
    fn report_groups_by_name() {
        let samples = vec![
            ("a", SimTime::from_us(11.0), SimTime::from_us(10.0)),
            ("a", SimTime::from_us(9.0), SimTime::from_us(10.0)),
            ("b", SimTime::from_us(20.0), SimTime::from_us(10.0)),
        ];
        let r = MapeReport::from_samples(&samples);
        assert!((r.per_kernel["a"].1 - 0.10).abs() < 1e-9);
        assert!((r.per_kernel["b"].1 - 1.0).abs() < 1e-9);
        assert!((r.overall() - (0.1 * 2.0 + 1.0) / 3.0).abs() < 1e-9);
    }
}
