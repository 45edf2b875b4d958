//! Order statistics over measured samples.

/// Sorts a copy of `values` (NaN-free by construction: every sample is a
/// measured duration, count or ratio).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); 0 for no
/// samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=100); 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The mean of the samples left after dropping the lowest and highest
/// tenth (rounded down); 0 for no samples. This is how a run summarises
/// its timed samples. The reference host runs at one of two speeds about
/// 1.5× apart for seconds at a time. The median of such samples jumps
/// from one speed to the other when the share of fast samples nears a
/// half, while this mean moves with the share, and the trimmed tenths
/// keep a single stall from moving it.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let cut = v.len() / 10;
    mean(&v[cut..v.len() - cut])
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method), so the figures
/// printed here match the ones an outside check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let q = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(trimmed_mean(&v), 5.5);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), 3.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
    }
}
