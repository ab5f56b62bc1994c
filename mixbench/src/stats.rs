//! Order statistics under the metrics guide's rule: a median always,
//! a tail percentile only when at least ten samples lie beyond it.

use std::fmt;

/// How many samples must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile was asked of too few samples to mean anything.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    pub what: String,
    pub percentile: f64,
    pub have: usize,
    pub need: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: p{} needs at least {} samples ({} beyond it), got {}",
            self.what,
            self.percentile * 100.0,
            self.need,
            MIN_BEYOND,
            self.have
        )
    }
}

/// Samples of one quantity; sorted once, then queried.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut v: Vec<f64>) -> Samples {
        v.sort_by(f64::total_cmp);
        Samples { sorted: v }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The median (mean of the two middle samples when even); 0 for no
    /// samples, which callers report as "this workload has none".
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.sorted[n / 2],
            _ => (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0,
        }
    }

    /// Nearest-rank percentile `p` in (0.5, 1), refused unless
    /// [`MIN_BEYOND`] samples lie beyond the returned one.
    pub fn tail(&self, p: f64, what: &str) -> Result<f64, TooFewSamples> {
        let n = self.sorted.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
        if n == 0 || n - rank < MIN_BEYOND {
            return Err(TooFewSamples {
                what: what.to_string(),
                percentile: p,
                have: n,
                need: (MIN_BEYOND as f64 / (1.0 - p)).ceil() as usize + 1,
            });
        }
        Ok(self.sorted[rank - 1])
    }

    /// The largest sample (0 for none).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so `--repeat` judges spread the way the
/// driver does.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_the_rule() {
        let s = Samples::new((1..=100).map(f64::from).collect());
        assert_eq!(s.median(), 50.5);
        // p90 of 100: rank 90, ten beyond — allowed; p95: five beyond.
        assert_eq!(s.tail(0.90, "x").unwrap(), 90.0);
        let e = s.tail(0.95, "lat").unwrap_err();
        assert_eq!((e.have, e.need), (100, 201));
        assert!(e.to_string().contains("got 100"));
        assert_eq!(s.max(), 100.0);
        assert!(Samples::default().tail(0.9, "x").is_err());
        let s = Samples::new((1..=201).map(f64::from).collect());
        assert_eq!(s.tail(0.95, "x").unwrap(), 191.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
