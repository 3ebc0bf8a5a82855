//! The write-rate monitor: the platform's `pcm-memory` equivalent.
//!
//! The paper samples Intel uncore counters with a modified `pcm-memory`
//! utility running on socket 0. Here the monitor snapshots the simulated
//! controllers' counters at fixed virtual-time intervals, yielding a write
//! rate series per socket plus whole-run averages. Because the counters
//! are exact, the monitor has no sampling noise — one of the advantages of
//! emulating the emulator.

use hemu_machine::Machine;
use hemu_obs::TraceEvent;
use hemu_types::{ByteSize, SocketId};

hemu_obs::record! {
    /// One monitor sample: interval rates in MB/s (decimal megabytes).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct RateSample {
        /// Virtual time at the end of the interval, seconds.
        pub t_seconds: f64,
        /// PCM write rate over the interval.
        pub pcm_write_mbs: f64,
        /// DRAM write rate over the interval.
        pub dram_write_mbs: f64,
    }
}

/// Samples socket write counters over virtual time.
#[derive(Debug, Clone)]
pub struct WriteRateMonitor {
    interval_seconds: f64,
    next_sample_at: f64,
    last_t: f64,
    last_pcm: ByteSize,
    last_dram: ByteSize,
    samples: Vec<RateSample>,
}

impl WriteRateMonitor {
    /// Creates a monitor sampling every `interval_seconds` of virtual time.
    ///
    /// # Panics
    ///
    /// Panics if the interval is not positive.
    pub fn new(interval_seconds: f64) -> Self {
        assert!(interval_seconds > 0.0, "sampling interval must be positive");
        WriteRateMonitor {
            interval_seconds,
            next_sample_at: interval_seconds,
            last_t: 0.0,
            last_pcm: ByteSize::ZERO,
            last_dram: ByteSize::ZERO,
            samples: Vec::new(),
        }
    }

    /// Polls the machine; records a sample if an interval has elapsed.
    /// Call this between workload quanta.
    pub fn poll(&mut self, machine: &mut Machine) {
        let now = machine.elapsed_seconds();
        while now >= self.next_sample_at {
            self.record(machine, self.next_sample_at.min(now));
            self.next_sample_at += self.interval_seconds;
        }
    }

    /// Forces a final sample at the current time (end of the run).
    pub fn finish(&mut self, machine: &mut Machine) {
        let now = machine.elapsed_seconds();
        if now > self.last_t {
            self.record(machine, now);
        }
    }

    fn record(&mut self, machine: &mut Machine, t: f64) {
        let pcm = machine.socket_writes(SocketId::PCM);
        let dram = machine.socket_writes(SocketId::DRAM);
        let dt = t - self.last_t;
        if dt <= 0.0 {
            return;
        }
        let sample = RateSample {
            t_seconds: t,
            pcm_write_mbs: (pcm.bytes() - self.last_pcm.bytes()) as f64 / 1e6 / dt,
            dram_write_mbs: (dram.bytes() - self.last_dram.bytes()) as f64 / 1e6 / dt,
        };
        let now = machine.elapsed();
        machine.tracer_mut().record(
            now,
            TraceEvent::MonitorSample {
                t_seconds: sample.t_seconds,
                pcm_write_mbs: sample.pcm_write_mbs,
                dram_write_mbs: sample.dram_write_mbs,
            },
        );
        self.samples.push(sample);
        self.last_t = t;
        self.last_pcm = pcm;
        self.last_dram = dram;
    }

    /// The recorded samples.
    pub fn samples(&self) -> &[RateSample] {
        &self.samples
    }

    /// Consumes the monitor, returning its samples.
    pub fn into_samples(self) -> Vec<RateSample> {
        self.samples
    }

    /// Peak interval PCM write rate seen so far (MB/s).
    pub fn peak_pcm_rate(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.pcm_write_mbs)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemu_machine::{CtxId, MachineProfile, ProcId};
    use hemu_types::{Addr, MemoryAccess};

    #[test]
    fn monitor_records_interval_rates() {
        let mut m = Machine::new(MachineProfile::emulation());
        let p = m.add_process(SocketId::PCM);
        let mut mon = WriteRateMonitor::new(0.0005);
        // Write 8 MiB (beyond LLC) to the PCM socket.
        m.access(CtxId(0), p, MemoryAccess::write(Addr::new(0), 8 << 20))
            .unwrap();
        m.flush_caches().unwrap();
        mon.poll(&mut m);
        mon.finish(&mut m);
        assert!(!mon.samples().is_empty());
        let total: f64 = mon
            .samples()
            .iter()
            .zip(std::iter::once(0.0).chain(mon.samples().iter().map(|s| s.t_seconds)))
            .map(|(s, prev)| s.pcm_write_mbs * (s.t_seconds - prev))
            .sum();
        // Integrated rate ≈ total bytes written.
        let expected = m.socket_writes(SocketId::PCM).bytes() as f64 / 1e6;
        assert!(
            (total - expected).abs() < expected * 0.05,
            "{total} vs {expected}"
        );
    }

    #[test]
    fn finish_samples_the_tail() {
        let mut m = Machine::new(MachineProfile::emulation());
        let p = m.add_process(SocketId::PCM);
        let mut mon = WriteRateMonitor::new(1e9); // never fires on its own
        m.access(CtxId(0), p, MemoryAccess::write(Addr::new(0), 1 << 20))
            .unwrap();
        m.flush_caches().unwrap();
        mon.finish(&mut m);
        assert_eq!(mon.samples().len(), 1);
        assert!(mon.peak_pcm_rate() > 0.0);
        let _ = ProcId(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = WriteRateMonitor::new(0.0);
    }
}
