//! # marshal-trace
//!
//! The observability layer of the FireMarshal reproduction: every `marshal`
//! command can record what it did — spans with monotonic timestamps, typed
//! instants, and counters — into an append-only, per-line-checksummed JSONL
//! journal under `workdir/runs/<run-id>/journal.jsonl`.
//!
//! The journal follows the same torn-tail discipline as `state.db`: a run
//! that dies mid-build leaves a parseable prefix (every surviving line is
//! individually checksummed, and the reader stops at the first torn line),
//! so the journal doubles as the crash-forensics record.
//!
//! Journal lines are read with `marshal-config`'s JSON parser and written
//! through its string escaper — the workspace has one JSON implementation.
//!
//! This crate sits near the bottom of the workspace — `marshal-depgraph`,
//! `marshal-netstore`, and `marshal-core` all emit through the same
//! [`Recorder`], which is a cheap clonable handle: disabled recorders are a
//! single `Option` check on the hot path (no channel send, no allocation),
//! enabled ones push events over an mpsc channel to a dedicated writer
//! thread so recording never blocks builders on I/O.

#![warn(missing_docs)]

mod chrome;
mod journal;
mod record;
mod recorder;
mod summary;

pub use chrome::chrome_trace;
pub use journal::{list_runs, read_journal, Journal, RunInfo};
pub use record::{checksum_line, seal_line, Args, Record, RecordKind};
pub use recorder::{FinishedRun, Recorder, Span};
pub use summary::{summarize, RunSummary, SpanStat};
