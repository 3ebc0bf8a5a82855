//! Collector plans: the Kingsguard family and the PCM-Only baseline.
//!
//! Seven write-rationing configurations plus the reference PCM-Only system,
//! exactly the set evaluated in the paper:
//!
//! | Plan        | Nursery | Observer | LOO | MDO | Promotion target |
//! |-------------|---------|----------|-----|-----|------------------|
//! | PCM-Only    | on PCM  | —        |  —  |  —  | PCM mature       |
//! | KG-N        | DRAM    | —        |  no |  no | PCM mature       |
//! | KG-B        | DRAM ×3 | —        |  no |  no | PCM mature       |
//! | KG-N+LOO    | DRAM    | —        | yes |  no | PCM mature       |
//! | KG-B+LOO    | DRAM ×3 | —        | yes |  no | PCM mature       |
//! | KG-W        | DRAM    | 2×nursery| yes | yes | observer, then by writes |
//! | KG-W−LOO    | DRAM    | 2×nursery|  no | yes | observer, then by writes |
//! | KG-W−MDO    | DRAM    | 2×nursery| yes |  no | observer, then by writes |

use crate::chunks::SideSockets;
use hemu_types::{ByteSize, SocketId};
use std::fmt;

/// The collector configurations evaluated on the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectorKind {
    /// Baseline generational Immix with every space bound to the PCM
    /// socket (the reference system of §V).
    PcmOnly,
    /// Kingsguard-nursery: nursery in DRAM, survivors promoted to PCM.
    KgN,
    /// KG-N with a 3× bigger nursery (12 MB for DaCapo, 96 MB for GraphChi).
    KgB,
    /// KG-N plus the Large Object Optimization.
    KgNLoo,
    /// KG-B plus the Large Object Optimization.
    KgBLoo,
    /// Kingsguard-writers: nursery + observer in DRAM; survivors segregated
    /// by observed writes; LOO and MDO enabled.
    KgW,
    /// KG-W without the Large Object Optimization.
    KgWMinusLoo,
    /// KG-W without the MetaData Optimization.
    KgWMinusMdo,
}

impl CollectorKind {
    /// The paper's name for this configuration.
    pub fn name(self) -> &'static str {
        match self {
            CollectorKind::PcmOnly => "PCM-Only",
            CollectorKind::KgN => "KG-N",
            CollectorKind::KgB => "KG-B",
            CollectorKind::KgNLoo => "KG-N+LOO",
            CollectorKind::KgBLoo => "KG-B+LOO",
            CollectorKind::KgW => "KG-W",
            CollectorKind::KgWMinusLoo => "KG-W-LOO",
            CollectorKind::KgWMinusMdo => "KG-W-MDO",
        }
    }

    /// Builds the full configuration given the workload's base nursery size
    /// (4 MiB for DaCapo/Pjbb, 32 MiB for GraphChi) and heap budget.
    pub fn config(self, base_nursery: ByteSize, heap_size: ByteSize) -> GcConfig {
        let big = ByteSize::new(base_nursery.bytes() * 3);
        let (nursery, observer, loo, mdo, pcm_only) = match self {
            CollectorKind::PcmOnly => (base_nursery, None, false, false, true),
            CollectorKind::KgN => (base_nursery, None, false, false, false),
            CollectorKind::KgB => (big, None, false, false, false),
            CollectorKind::KgNLoo => (base_nursery, None, true, false, false),
            CollectorKind::KgBLoo => (big, None, true, false, false),
            CollectorKind::KgW => (
                base_nursery,
                Some(ByteSize::new(base_nursery.bytes() * 2)),
                true,
                true,
                false,
            ),
            CollectorKind::KgWMinusLoo => (
                base_nursery,
                Some(ByteSize::new(base_nursery.bytes() * 2)),
                false,
                true,
                false,
            ),
            CollectorKind::KgWMinusMdo => (
                base_nursery,
                Some(ByteSize::new(base_nursery.bytes() * 2)),
                true,
                false,
                false,
            ),
        };
        GcConfig {
            kind: self,
            nursery,
            observer,
            loo,
            mdo,
            pcm_only,
            heap_size,
            loo_nursery_max: ByteSize::from_kib(512),
        }
    }
}

impl fmt::Display for CollectorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl hemu_obs::ToJson for CollectorKind {
    fn write_json(&self, out: &mut String) {
        hemu_obs::json::push_json_str(out, self.name());
    }
}

/// A fully resolved garbage collector configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcConfig {
    /// Which named configuration this is.
    pub kind: CollectorKind,
    /// Nursery reservation size.
    pub nursery: ByteSize,
    /// Observer reservation size (KG-W family only).
    pub observer: Option<ByteSize>,
    /// Large Object Optimization: large objects below
    /// [`GcConfig::loo_nursery_max`] are allocated in the nursery to give
    /// them time to die; the rest go straight to the PCM large space.
    pub loo: bool,
    /// MetaData Optimization: mark bytes of PCM-space objects are placed in
    /// a DRAM metadata space, eliminating collector marking writes to PCM.
    pub mdo: bool,
    /// Reference setup: bind every space (and the boot image) to socket 1.
    pub pcm_only: bool,
    /// Full-heap collection budget: a mature collection triggers when old
    /// generation occupancy exceeds this.
    pub heap_size: ByteSize,
    /// LOO heuristic threshold: large objects up to this size start in the
    /// nursery.
    pub loo_nursery_max: ByteSize,
}

impl GcConfig {
    /// The physical sockets backing the two chunk free lists.
    pub(crate) fn side_sockets(&self) -> SideSockets {
        if self.pcm_only {
            SideSockets::pcm_only()
        } else {
            SideSockets::hybrid()
        }
    }

    /// Socket holding the nursery (and observer) reservation.
    pub fn young_socket(&self) -> SocketId {
        if self.pcm_only {
            SocketId::PCM
        } else {
            SocketId::DRAM
        }
    }

    /// Socket holding the boot image. "Except for a system with only PCM,
    /// we always place the boot image in DRAM" (§III.B).
    pub(crate) fn boot_socket(&self) -> SocketId {
        self.young_socket()
    }

    /// Whether this plan uses an observer space (the KG-W family).
    pub(crate) fn has_observer(&self) -> bool {
        self.observer.is_some()
    }

    /// Renders this plan's row set of Table I: each space and the sockets
    /// it occupies, `(name, on_s0, on_s1)`.
    pub(crate) fn space_map(&self) -> Vec<(&'static str, bool, bool)> {
        if self.pcm_only {
            return vec![
                ("Nursery", false, true),
                ("Observer", false, false),
                ("Mature", false, true),
                ("Large", false, true),
                ("Metadata", false, true),
            ];
        }
        let kgw = self.has_observer();
        vec![
            ("Nursery", true, false),
            ("Observer", kgw, false),
            // KG-W keeps written survivors in a DRAM mature/large space.
            ("Mature", kgw, true),
            ("Large", kgw, true),
            // MDO puts PCM objects' mark bytes in DRAM; PCM-side line marks
            // stay with their space.
            ("Metadata", self.mdo, true),
        ]
    }
}

/// Formats Table I (space-to-socket mapping) for a set of plans.
pub fn render_table1(configs: &[GcConfig]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{:<10}", "Space");
    for c in configs {
        let _ = write!(out, " | {:^11}", c.kind.name());
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<10}", "");
    for _ in configs {
        let _ = write!(out, " | {:>5} {:>5}", "S0", "S1");
    }
    let _ = writeln!(out);
    for row in 0..5 {
        let name = ["Nursery", "Observer", "Mature", "Large", "Metadata"][row];
        let _ = write!(out, "{name:<10}");
        for c in configs {
            let map = c.space_map();
            let (_, s0, s1) = map[row];
            let _ = write!(
                out,
                " | {:>5} {:>5}",
                if s0 { "Y" } else { "-" },
                if s1 { "Y" } else { "-" }
            );
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const N4: ByteSize = ByteSize::new(4 * 1024 * 1024);
    const H100: ByteSize = ByteSize::new(100 * 1024 * 1024);

    #[test]
    fn kg_b_nursery_is_three_times_base() {
        // 4 MB → 12 MB (DaCapo) and 32 MB → 96 MB (GraphChi), as in §IV.
        let c = CollectorKind::KgB.config(N4, H100);
        assert_eq!(c.nursery.bytes(), 12 * 1024 * 1024);
        let g = CollectorKind::KgB.config(ByteSize::from_mib(32), H100);
        assert_eq!(g.nursery.bytes(), 96 * 1024 * 1024);
    }

    #[test]
    fn kg_w_observer_is_twice_nursery() {
        let c = CollectorKind::KgW.config(N4, H100);
        assert_eq!(c.observer.unwrap().bytes(), 2 * c.nursery.bytes());
    }

    #[test]
    fn kg_w_variants_toggle_exactly_one_optimization() {
        let w = CollectorKind::KgW.config(N4, H100);
        let no_loo = CollectorKind::KgWMinusLoo.config(N4, H100);
        let no_mdo = CollectorKind::KgWMinusMdo.config(N4, H100);
        assert!(w.loo && w.mdo);
        assert!(!no_loo.loo && no_loo.mdo);
        assert!(no_mdo.loo && !no_mdo.mdo);
    }

    #[test]
    fn table1_matches_paper_for_kg_n() {
        let c = CollectorKind::KgN.config(N4, H100);
        let map = c.space_map();
        assert_eq!(map[0], ("Nursery", true, false));
        assert_eq!(map[1], ("Observer", false, false));
        assert_eq!(map[2], ("Mature", false, true));
        assert_eq!(map[3], ("Large", false, true));
        assert_eq!(map[4], ("Metadata", false, true));
    }

    #[test]
    fn table1_matches_paper_for_kg_w_and_kg_w_mdo() {
        let w = CollectorKind::KgW.config(N4, H100).space_map();
        assert_eq!(w[1], ("Observer", true, false));
        assert_eq!(w[2], ("Mature", true, true));
        assert_eq!(w[4], ("Metadata", true, true));
        let mdo = CollectorKind::KgWMinusMdo.config(N4, H100).space_map();
        assert_eq!(
            mdo[4],
            ("Metadata", false, true),
            "no DRAM metadata space without MDO"
        );
        assert_eq!(mdo[1], ("Observer", true, false));
    }

    #[test]
    fn pcm_only_binds_everything_to_s1() {
        let c = CollectorKind::PcmOnly.config(N4, H100);
        assert_eq!(c.young_socket(), SocketId::PCM);
        assert_eq!(c.boot_socket(), SocketId::PCM);
        for (_, s0, s1) in c.space_map() {
            assert!(!s0);
            let _ = s1;
        }
    }

    #[test]
    fn render_table1_contains_all_plans() {
        let configs: Vec<_> = [
            CollectorKind::KgN,
            CollectorKind::KgW,
            CollectorKind::KgWMinusMdo,
        ]
        .iter()
        .map(|k| k.config(N4, H100))
        .collect();
        let s = render_table1(&configs);
        assert!(s.contains("KG-N") && s.contains("KG-W-MDO"));
        assert!(s.contains("Nursery") && s.contains("Metadata"));
    }

    #[test]
    fn all_eight_plans_have_distinct_names() {
        let all = [
            CollectorKind::PcmOnly,
            CollectorKind::KgN,
            CollectorKind::KgB,
            CollectorKind::KgNLoo,
            CollectorKind::KgBLoo,
            CollectorKind::KgW,
            CollectorKind::KgWMinusLoo,
            CollectorKind::KgWMinusMdo,
        ];
        let mut names: Vec<_> = all.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8);
    }
}
