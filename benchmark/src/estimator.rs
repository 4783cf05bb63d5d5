//! The clean-window estimator and the order statistics printed beside it.
//!
//! A workload is a fixed list of cells; a pass runs each once. Host noise
//! on a small shared sandbox only ever *adds* time, and it arrives in
//! bursts much shorter than a pass, so the quietest sample of each cell is
//! the best estimate of what that cell costs. `clean_s` is the sum over
//! cells of that per-cell minimum: a pass assembled from each cell's
//! quietest window. Measured on the 12 incast cells (30 passes, four
//! invocations): sum-of-cell-minimum moved 4 %, the minimum whole pass
//! 8.5 %, the median pass 15 %.

/// Sum over cells of the minimum of that cell's samples.
/// `passes[p][c]` is cell `c`'s host time in pass `p`, seconds.
pub fn clean_s(passes: &[Vec<f64>]) -> f64 {
    cell_minima(passes).iter().sum()
}

/// Per-cell minimum, same layout as [`clean_s`].
pub fn cell_minima(passes: &[Vec<f64>]) -> Vec<f64> {
    let cells = passes.first().map_or(0, Vec::len);
    (0..cells)
        .map(|c| passes.iter().map(|p| p[c]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Whole-pass times (sum of a pass's cells).
pub fn pass_totals(passes: &[Vec<f64>]) -> Vec<f64> {
    passes.iter().map(|p| p.iter().sum()).collect()
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method), so the spread this benchmark
/// prints is the spread the acceptance procedure computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Cut point i of 4 sits at 1-based position i*(n+1)/4; the index is
        // clamped into the data and the remainder interpolates (or, at the
        // ends of a very short list, extrapolates, as Python does).
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_window_takes_each_cells_quietest_sample() {
        // Pass 0 has a noisy first cell, pass 1 a noisy second cell: no
        // whole pass is clean, the per-cell minimum is.
        let passes = vec![
            vec![9.0, 2.0, 3.0],
            vec![1.0, 8.0, 3.5],
            vec![1.5, 2.5, 7.0],
        ];
        assert_eq!(cell_minima(&passes), vec![1.0, 2.0, 3.0]);
        assert_eq!(clean_s(&passes), 6.0);
        assert_eq!(pass_totals(&passes), vec![14.0, 12.5, 11.0]);
        assert!(
            clean_s(&passes)
                <= pass_totals(&passes)
                    .into_iter()
                    .fold(f64::INFINITY, f64::min)
        );
        assert_eq!(clean_s(&[]), 0.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 4.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert_eq!((q1, q3), (7.5, 22.5));
    }
}
