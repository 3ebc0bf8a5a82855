//! Structured event tracing: a bounded ring buffer of timestamped events.
//!
//! The tracer is the platform's flight recorder. Layers that observe
//! something notable — a GC pause, a chunk being mapped or re-bound, a burst
//! of QPI traffic, a write-rate sample — record a [`TraceEvent`] with a
//! virtual-time stamp. The buffer is bounded: when full, the oldest record
//! is overwritten and a drop counter advances, so tracing can stay on for
//! arbitrarily long runs without unbounded memory.
//!
//! A disabled tracer (the default) records nothing and costs one branch per
//! call, so instrumentation points do not need to be conditionally compiled.

use crate::json::{JsonObject, ToJson};
use crate::ring::Ring;
use hemu_types::{Addr, Cycles, SocketId};

/// Which collection a GC event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcKind {
    /// Nursery-only minor collection.
    Minor,
    /// Minor collection that also evacuated the observer space.
    MinorObserver,
    /// Full-heap collection.
    Full,
}

impl GcKind {
    /// Stable lowercase name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            GcKind::Minor => "minor",
            GcKind::MinorObserver => "minor_observer",
            GcKind::Full => "full",
        }
    }
}

/// One observable occurrence inside the emulated platform.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A collection pause began.
    GcStart {
        /// Nursery, nursery+observer, or full-heap.
        kind: GcKind,
        /// Why the collector ran (e.g. `nursery_full`, `old_gen_pressure`).
        reason: &'static str,
    },
    /// A collection pause ended.
    GcEnd {
        /// Nursery, nursery+observer, or full-heap.
        kind: GcKind,
        /// Virtual cycles spent paused.
        pause_cycles: u64,
    },
    /// A heap chunk was carved from its side's region and bound to a
    /// socket.
    ChunkMap {
        /// Chunk base address.
        addr: Addr,
        /// Socket the chunk's pages live on.
        socket: SocketId,
    },
    /// The OS page manager (or wear-out retirement) moved a physical page
    /// between sockets; the copy traffic is charged at both controllers.
    PageMigrated {
        /// The physical frame that was vacated.
        frame: u64,
        /// Socket the page lived on.
        from: SocketId,
        /// Socket the page now lives on.
        to: SocketId,
    },
    /// A batch of cache lines crossed the inter-socket QPI link.
    ///
    /// Individual remote fills are far too frequent to trace one-by-one;
    /// the machine coalesces them and emits one aggregate event per batch.
    QpiTransfer {
        /// Number of cache lines in the batch.
        lines: u64,
    },
    /// One write-rate monitor sample (the emulator's `pcm-memory` analog).
    MonitorSample {
        /// Virtual seconds since the measured iteration began.
        t_seconds: f64,
        /// PCM-socket write bandwidth, MB/s.
        pcm_write_mbs: f64,
        /// DRAM-socket write bandwidth, MB/s.
        dram_write_mbs: f64,
    },
    /// A named phase boundary (e.g. `measured_iteration`).
    Phase {
        /// Phase name.
        name: &'static str,
    },
}

impl TraceEvent {
    /// Stable snake_case tag used as the `"event"` member in exported JSON.
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            TraceEvent::GcStart { .. } => "gc_start",
            TraceEvent::GcEnd { .. } => "gc_end",
            TraceEvent::ChunkMap { .. } => "chunk_map",
            TraceEvent::PageMigrated { .. } => "page_migrated",
            TraceEvent::QpiTransfer { .. } => "qpi_transfer",
            TraceEvent::MonitorSample { .. } => "monitor_sample",
            TraceEvent::Phase { .. } => "phase",
        }
    }
}

/// A [`TraceEvent`] plus the virtual time it was recorded at.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Virtual timestamp (machine cycles).
    pub t: Cycles,
    /// The event.
    pub event: TraceEvent,
}

impl ToJson for TraceRecord {
    fn write_json(&self, out: &mut String) {
        let mut obj = JsonObject::new(out);
        obj.field("t_cycles", &self.t)
            .field("event", self.event.tag());
        match &self.event {
            TraceEvent::GcStart { kind, reason } => {
                obj.field("kind", kind.name()).field("reason", *reason);
            }
            TraceEvent::GcEnd { kind, pause_cycles } => {
                obj.field("kind", kind.name())
                    .field("pause_cycles", pause_cycles);
            }
            TraceEvent::ChunkMap { addr, socket } => {
                obj.field("addr", addr).field("socket", socket);
            }
            TraceEvent::PageMigrated { frame, from, to } => {
                obj.field("frame", frame)
                    .field("from", from)
                    .field("to", to);
            }
            TraceEvent::QpiTransfer { lines } => {
                obj.field("lines", lines);
            }
            TraceEvent::MonitorSample {
                t_seconds,
                pcm_write_mbs,
                dram_write_mbs,
            } => {
                obj.field("t_seconds", t_seconds)
                    .field("pcm_write_mbs", pcm_write_mbs)
                    .field("dram_write_mbs", dram_write_mbs);
            }
            TraceEvent::Phase { name } => {
                obj.field("name", *name);
            }
        }
        obj.finish();
    }
}

/// An owned, bounded event buffer.
///
/// The default tracer is disabled: [`Tracer::record`] is a no-op.
/// [`Tracer::bounded`] creates a live one.
#[derive(Debug, Default)]
pub struct Tracer {
    ring: Option<Ring<TraceRecord>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer { ring: None }
    }

    /// A tracer keeping the most recent `capacity` events (capacity is
    /// clamped to at least 1).
    pub fn bounded(capacity: usize) -> Self {
        Tracer {
            ring: Some(Ring::new(capacity)),
        }
    }

    /// Records `event` at virtual time `t`. No-op when disabled.
    pub fn record(&mut self, t: Cycles, event: TraceEvent) {
        if let Some(ring) = &mut self.ring {
            ring.push(TraceRecord { t, event });
        }
    }

    /// Removes and returns the buffered records, oldest first, and resets
    /// the drop counter.
    pub fn drain(&mut self) -> Vec<TraceRecord> {
        self.ring.as_mut().map_or_else(Vec::new, Ring::drain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t: u64) -> Cycles {
        Cycles::new(t)
    }

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let mut t = Tracer::disabled();
        t.record(at(1), TraceEvent::Phase { name: "x" });
        assert!(t.drain().is_empty());
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let mut t = Tracer::bounded(3);
        for i in 0..5 {
            t.record(at(i), TraceEvent::QpiTransfer { lines: i });
        }
        let kept: Vec<u64> = t.drain().iter().map(|r| r.t.raw()).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn drain_empties_and_resets() {
        let mut t = Tracer::bounded(2);
        t.record(at(0), TraceEvent::Phase { name: "a" });
        t.record(at(1), TraceEvent::Phase { name: "b" });
        t.record(at(2), TraceEvent::Phase { name: "c" });
        assert_eq!(t.drain().len(), 2);
        assert!(t.drain().is_empty());
    }

    #[test]
    fn records_serialize_with_event_tags() {
        let rec = TraceRecord {
            t: at(9),
            event: TraceEvent::GcStart {
                kind: GcKind::Minor,
                reason: "nursery_full",
            },
        };
        assert_eq!(
            rec.to_json(),
            r#"{"t_cycles":9,"event":"gc_start","kind":"minor","reason":"nursery_full"}"#
        );
        let rec = TraceRecord {
            t: at(10),
            event: TraceEvent::ChunkMap {
                addr: Addr::new(4096),
                socket: SocketId::PCM,
            },
        };
        assert_eq!(
            rec.to_json(),
            r#"{"t_cycles":10,"event":"chunk_map","addr":4096,"socket":1}"#
        );
    }

    #[test]
    fn page_migrated_serializes_with_both_sockets() {
        let rec = TraceRecord {
            t: at(7),
            event: TraceEvent::PageMigrated {
                frame: 123,
                from: SocketId::PCM,
                to: SocketId::DRAM,
            },
        };
        assert_eq!(
            rec.to_json(),
            r#"{"t_cycles":7,"event":"page_migrated","frame":123,"from":1,"to":0}"#
        );
    }
}
