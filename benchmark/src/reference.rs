//! Host-speed reference: a fixed computation in the benchmark's own code,
//! timed between passes, that scales host seconds to the reference host's
//! speed.
//!
//! The reference host is a 2-vCPU guest. For minutes at a time it slows by
//! up to 40% while other guests contend for the physical machine's caches
//! and memory, and the guest sees almost no steal time (about 20 ms in
//! 10 s). Every workload slows together, so seconds measured in different
//! minutes differ by more than any useful bound. The probe slows with them
//! (pass-level correlation 0.4–0.8). Scaling each pass by it cut the
//! spread across ten runs from 5–17% to 4–9% in a quiet stretch, and from
//! 24–45% to 6–17% in a contended one. It runs no hemu code, so a change to
//! the program cannot move it.

/// The probe's time on the reference host: scaled times are seconds at the
/// speed the host has when the probe takes this long.
pub const NOMINAL_S: f64 = 0.1;

/// Random read-modify-writes per probe, alternating between a table that
/// fits the host's caches and one that does not.
const STEPS: u64 = 12_000_000;

pub struct Reference {
    small: Vec<u64>,
    large: Vec<u64>,
    /// Host seconds of every probe so far.
    probes: Vec<f64>,
}

impl Reference {
    /// Allocates the tables and takes the first probe.
    pub fn new() -> Self {
        let mut r = Reference {
            small: vec![1; 1 << 19], // 4 MiB
            large: vec![1; 1 << 22], // 32 MiB
            probes: Vec::new(),
        };
        let first = r.seconds();
        r.probes.push(first);
        r
    }

    /// Probes again and returns the factor that scales host seconds
    /// measured since the previous probe to the reference speed: the
    /// nominal time over the mean of the two probes around them.
    pub fn scale(&mut self) -> f64 {
        let before = self.probes[self.probes.len() - 1];
        let after = self.seconds();
        self.probes.push(after);
        NOMINAL_S / ((before + after) / 2.0)
    }

    /// This host's speed relative to the reference host over the run: the
    /// nominal time over the median probe.
    pub fn speed(&self) -> f64 {
        NOMINAL_S / crate::stats::quantile(&self.probes, 0.5)
    }

    /// MiB the tables keep resident for the whole run: they are written in
    /// full when allocated, so peak RSS less this is everything else's.
    pub fn resident_mib(&self) -> f64 {
        ((self.small.len() + self.large.len()) * 8) as f64 / (1024.0 * 1024.0)
    }

    /// Host seconds of one probe.
    fn seconds(&mut self) -> f64 {
        let (small, large) = (self.small.len() - 1, self.large.len() - 1);
        let started = std::time::Instant::now();
        let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0_u64);
        for _ in 0..STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (i, j) = ((x >> 20) as usize & small, (x >> 33) as usize & large);
            acc ^= self.small[i] ^ self.large[j];
            self.small[i] = acc.wrapping_add(x);
            self.large[j] = acc;
        }
        std::hint::black_box(acc);
        started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_the_bracketing_probes() {
        let mut r = Reference::new();
        let scale = r.scale();
        let (a, b) = (r.probes[0], r.probes[1]);
        assert!(a > 0.0 && b > 0.0);
        // Fixed work: a later probe is not a no-op after the first.
        assert!(b > a / 10.0, "{a} then {b}");
        assert_eq!(scale, NOMINAL_S / ((a + b) / 2.0));
        assert!(r.speed() > 0.0);
    }
}
