//! Sample statistics and host memory readings.

/// Right-edge quantile of an unsorted sample set: the smallest sample with
/// at least `q` of the samples at or below it. NaN for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them, so `compare` judges spread the way the acceptance check
/// does. NaN for an empty set; a single sample (which Python refuses) is
/// its own quartiles.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// Peak resident set size in MiB from the `VmHWM:` line of a
/// `/proc/<pid>/status` text (reported there in kB).
pub fn parse_vmhwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kib as f64 / 1024.0)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vmhwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_takes_the_right_edge() {
        let s = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&s, 0.50), 2.0);
        assert_eq!(quantile(&s, 0.51), 3.0);
        assert_eq!(quantile(&s, 0.99), 4.0);
        assert_eq!(quantile(&[7.5], 0.99), 7.5);
        assert!(quantile(&[], 0.5).is_nan());
        // 1024 samples: p99 leaves exactly ten samples above it.
        let many: Vec<f64> = (1..=1024).map(f64::from).collect();
        assert_eq!(quantile(&many, 0.99), 1014.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // Python extrapolates past the ends of tiny sets:
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // Python refuses one sample; a single run has no spread.
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn vmhwm_parser_reads_kib_and_rejects_garbage() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  300000 kB\nVmHWM:\t  119360 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vmhwm_mib(status), Some(119360.0 / 1024.0));
        assert_eq!(parse_vmhwm_mib("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vmhwm_mib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vmhwm_mib("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
