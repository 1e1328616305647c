//! Order statistics over latency samples.

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The mean of `values` without the lowest and highest `trim` share of
/// them. It follows the share of samples in each mode of a bimodal class
/// smoothly, where the median jumps between the modes, and it ignores the
/// rare long stall a plain mean would carry.
pub fn trimmed_mean(values: &[f64], trim: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (sorted.len() as f64 * trim) as usize;
    let kept = sorted.get(cut..sorted.len() - cut)?;
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

/// The geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 0.0];
        assert_eq!(trimmed_mean(&v, 0.1), Some(4.5));
        assert_eq!(trimmed_mean(&v, 0.0), Some(13.6));
        assert_eq!(trimmed_mean(&[], 0.1), None);
    }

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[0.0, 1.0]), None);
    }
}
