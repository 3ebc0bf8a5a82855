//! The socket interconnect (QPI) timing model.

use hemu_obs::json::{JsonObject, ToJson};
use hemu_types::Cycles;

/// Timing model for the point-to-point link between the two sockets.
///
/// On the paper's platform the sockets are connected by QPI links supporting
/// up to 8 GB/s; every access from a socket-0 core to socket-1 memory (i.e.
/// every emulated PCM access) crosses this link and pays its latency. The
/// emulator adds this cost to the virtual clock of the accessing context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpiLink {
    /// Extra one-way latency in core cycles for a remote access.
    pub latency: Cycles,
    /// Cycles per cache line of transfer occupancy.
    pub occupancy_per_line: Cycles,
}

impl QpiLink {
    /// A QPI model matched to the paper's platform: roughly 60 ns extra
    /// remote latency at 1.8 GHz ≈ 108 cycles, and 8 GB/s of bandwidth
    /// (64 B / 8 GB/s = 8 ns ≈ 14 cycles occupancy per line).
    pub fn e5_2650l() -> Self {
        QpiLink {
            latency: Cycles::new(108),
            occupancy_per_line: Cycles::new(14),
        }
    }

    /// Cost of transferring `lines` cache lines across the link.
    pub fn transfer_cost(&self, lines: u64) -> Cycles {
        Cycles::new(self.latency.raw() + self.occupancy_per_line.raw() * lines)
    }
}

impl ToJson for QpiLink {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new(out);
        obj.field("latency_cycles", &self.latency)
            .field("occupancy_per_line_cycles", &self.occupancy_per_line);
        obj.finish();
    }
}

impl Default for QpiLink {
    fn default() -> Self {
        Self::e5_2650l()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cost_scales_with_lines() {
        let q = QpiLink::e5_2650l();
        let one = q.transfer_cost(1);
        let ten = q.transfer_cost(10);
        assert_eq!(ten.raw() - one.raw(), 9 * q.occupancy_per_line.raw());
    }

    #[test]
    fn bandwidth_is_about_8_gbps() {
        let q = QpiLink::e5_2650l();
        // One line per occupancy slot at a 1.8 GHz core clock.
        let bw = hemu_types::CACHE_LINE as f64 * 1.8e9 / q.occupancy_per_line.raw() as f64;
        assert!((7.0e9..9.5e9).contains(&bw), "bw = {bw}");
    }

    #[test]
    fn zero_lines_costs_latency_only() {
        let q = QpiLink::default();
        assert_eq!(q.transfer_cost(0), q.latency);
    }
}
