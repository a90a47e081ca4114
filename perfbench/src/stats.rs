//! Order statistics and process measurements.

/// The median of `values` (the mean of the two middle values for an even
/// count). `values` need not be sorted.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The interquartile mean: the mean of the middle half of the samples,
/// all of them below four. Unlike the median it does not jump between
/// clusters when the samples bunch on either side of the middle rank.
/// `sorted` must be ascending.
pub fn interquartile_mean(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "mean of no values");
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest value. Below eleven samples no percentile qualifies,
/// and the largest value stands in. `sorted` must be ascending.
pub fn tail(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "tail of no values");
    let n = sorted.len();
    sorted[if n >= 11 { n - 11 } else { n - 1 }]
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A small deterministic generator (SplitMix64), so a seed fixes every
/// draw the benchmark makes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
