//! Order statistics for the benchmark's samples.
//!
//! [`median`] and [`quartiles`] summarise repeated measurements
//! (iterations, passes, whole runs). [`percentile`] reads the tail of
//! one latency distribution and refuses when fewer than [`MIN_BEYOND`]
//! samples rank above it, so a p90 is never read off a handful of
//! samples.

/// Samples a tail percentile needs above its rank.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `None` without samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (its default
/// exclusive method); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1i64..) {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The nearest-rank `p`-th percentile (0 < p < 100) of a latency
/// distribution, refused when fewer than [`MIN_BEYOND`] samples rank
/// above it.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} is outside (0, 100)"));
    }
    let v = sorted(values);
    let n = v.len();
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it, needs {MIN_BEYOND}"
        ));
    }
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&v, 90.0).is_err(), "p90 of 99 has 9 beyond");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&v, 50.0).is_err(), "p50 of 19 has 9 beyond");
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Ok(10.0));
        assert!(percentile(&v, 0.0).is_err());
    }
}
