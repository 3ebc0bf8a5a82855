//! Observability for the hemu platform: tracing, profiling spans, and
//! export.
//!
//! This crate is the platform's telemetry layer, playing the role the
//! modified `pcm-memory` plays in the paper's methodology (§IV): everything
//! the emulator learns about a run flows out through here. It depends only
//! on `hemu-types` and the standard library — serialization, bucketing, and
//! buffering are all implemented in-tree so the workspace builds with an
//! empty cargo registry.
//!
//! Its pieces:
//!
//! * [`trace`] — a bounded ring buffer of timestamped [`TraceEvent`]s (GC
//!   pauses, chunk map/unmap/rebind, page migrations, QPI transfers,
//!   monitor samples), recorded into an owned [`Tracer`].
//! * [`span`] — hierarchical execution spans (GC phases, OS epochs,
//!   measured iterations) in virtual time, recorded into a bounded
//!   [`SpanRecorder`] and exportable as a Chrome trace-event [`Timeline`].
//!   The tracer and the recorder share one private bounded ring type.
//! * [`histogram`] — a log₂-bucketed [`Histogram`] (GC pause lengths) and
//!   the [`HistogramSnapshot`] a run report carries.
//! * [`json`] / [`value`] / [`csv`] — hand-rolled JSON in both directions
//!   (the [`ToJson`] writer and [`FromJson`] reader traits over the
//!   [`JsonValue`] parse tree), JSONL, and a CSV emitter.
//! * [`record!`] — the record macro: one struct declaration yields the
//!   struct, its JSON writer and reader, and for counter blocks the
//!   `delta_since`/`add` arithmetic.
//! * [`artifact`] / [`journal`] — atomic artifact writes and the
//!   append-only sweep journal behind resume.
//! * [`progress`] — a thread-safe, line-serialized progress [`Reporter`]
//!   for concurrent sweeps (the only thread-shared piece; tracer and spans
//!   stay per-run and unsynchronized).
//!
//! Counts live where they are read: the emulated machine owns one tracer,
//! one span recorder and the GC pause histogram by value, and the runtime
//! layers above it (heap, GC, OS, experiment driver) record into them
//! through `&mut Machine`. Every
//! count a run report carries is a plain field of the report or of the
//! stats struct it copies.

#![warn(missing_docs)]

pub mod artifact;
pub mod csv;
pub mod histogram;
pub mod journal;
pub mod json;
pub mod progress;
mod record;
mod ring;
pub mod span;
pub mod timeline;
pub mod trace;
pub mod value;

pub use artifact::{fnv1a64, hash_hex, write_atomic, write_atomic_str};
pub use csv::Csv;
pub use histogram::{BucketCount, Histogram, HistogramSnapshot};
pub use journal::{read_journal, JournalContents, JournalReadError, JournalRecord, JournalWriter};
pub use json::{to_json_lines, FromJson, ToJson};
pub use progress::Reporter;
pub use span::{SpanRecord, SpanRecorder};
pub use timeline::Timeline;
pub use trace::{GcKind, TraceEvent, TraceRecord, Tracer};
pub use value::{JsonParseError, JsonValue};
