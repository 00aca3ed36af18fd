//! Sample summaries. No sample is ever dropped: every timing taken in a
//! window enters the summary of its arm.

/// Fewer samples than this in any arm fails the run.
pub const MIN_SAMPLES: usize = 15;

/// Linear-interpolated quantile of an ascending slice, `q` in `[0, 1]`.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// What `timings` records per arm.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    /// The highest percentile with at least ten samples beyond it (0 when
    /// the arm has too few samples for any), and its value.
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        let n = s.len();
        let (tail_pct, tail) = if n > 10 {
            // Ten samples lie strictly above index n - 11.
            (100.0 * (n - 10) as f64 / n as f64, s[n - 11])
        } else {
            (0.0, s.last().copied().unwrap_or(0.0))
        };
        Summary {
            n,
            median: quantile_sorted(&s, 0.5),
            p25: quantile_sorted(&s, 0.25),
            p75: quantile_sorted(&s, 0.75),
            tail_pct,
            tail,
        }
    }

    /// As a JSON object; `raw_median` is added for samples that were taken
    /// to the nominal machine speed.
    pub fn to_json(self, raw_median: Option<f64>) -> String {
        use dfg_trace::json::number;
        let raw = raw_median.map_or(String::new(), |m| format!(",\"raw_median\":{}", number(m)));
        format!(
            "{{\"n\":{},\"median\":{},\"p25\":{},\"p75\":{},\"tail_pct\":{},\"tail\":{}{raw}}}",
            self.n,
            number(self.median),
            number(self.p25),
            number(self.p75),
            number(self.tail_pct),
            number(self.tail)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.p25, 1.75);
        assert_eq!(s.p75, 3.25);
        assert_eq!(s.tail_pct, 0.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.tail_pct, 75.0);
        assert_eq!(s.tail, 30.0);
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), 10);
    }
}
