//! Order statistics over a run's samples.

/// Median (the middle quartile of [`quartiles`]).
pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// `(q1, median, q3)` with the same interpolation as Python's
/// `statistics.quantiles(v, n=4)` (the "exclusive" method), so the spread
/// this benchmark prints is the spread an outside checker computes. A single
/// sample is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (s[0], s[0], s[0]),
        _ => (cut(&s, 1), cut(&s, 2), cut(&s, 3)),
    }
}

fn cut(sorted: &[f64], i: i64) -> f64 {
    const PARTS: i64 = 4;
    let ld = sorted.len() as i64;
    let m = ld + 1;
    let j = (i * m / PARTS).clamp(1, ld - 1);
    let delta = i * m - j * PARTS;
    let (lo, hi) = (sorted[(j - 1) as usize], sorted[j as usize]);
    (lo * (PARTS - delta) as f64 + hi * delta as f64) / PARTS as f64
}

/// Nearest-rank percentile (`p` in `0..=100`) of a non-empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// FNV-1a fold of 64-bit words, for combining pinned digests.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3.0, 1.0], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }
}
