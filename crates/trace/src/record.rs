//! The journal's on-disk record model: one JSON object per line, each line
//! individually checksummed so a torn tail is detectable line-by-line.
//!
//! Line layout (`x` is always the final field):
//!
//! ```text
//! {"seq":N,"t":MICROS,"tid":T,"k":"b","id":I,"parent":P,"name":"...","args":{...},"x":"<fnv64 hex>"}
//! ```
//!
//! `parent` is written only for child spans and `args` only when non-empty.
//!
//! `k` codes: `run` (header, sequence 0), `b` span begin, `e` span end,
//! `i` instant, `c` counter. The checksum covers every byte of the line
//! before the `,"x":` separator, so truncation anywhere — including inside
//! the checksum field itself — fails verification and the reader keeps the
//! parseable prefix, mirroring `state.db`'s torn-tail discipline.

use std::collections::BTreeMap;

use marshal_config::json::{parse, write_string};
use marshal_config::Value;

/// Key → value attributes attached to a record. Sorted, so encoding is
/// deterministic.
pub type Args = BTreeMap<String, String>;

/// One journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Strictly increasing sequence number, assigned by the writer thread
    /// (the header is 0).
    pub seq: u64,
    /// Microseconds since the run's start, from a monotonic clock.
    pub t_us: u64,
    /// Journal-local thread id of the emitting thread (1 = first emitter).
    pub tid: u64,
    /// What happened.
    pub kind: RecordKind,
}

/// The kinds of journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordKind {
    /// The run header: always sequence 0, carrying the command name and
    /// run metadata (`run_id`, `pid`, `workload`, …).
    Run {
        /// The `marshal` command that produced the run (`build`, `test`…).
        name: String,
        /// Run metadata.
        args: Args,
    },
    /// A span opened.
    SpanStart {
        /// Span id, unique within the run (1-based).
        id: u64,
        /// Enclosing span, if any.
        parent: Option<u64>,
        /// Span name (stable schema, see `docs/run-journal.md`).
        name: String,
        /// Attributes known at open time.
        args: Args,
    },
    /// A span closed.
    SpanEnd {
        /// The id from the matching [`RecordKind::SpanStart`].
        id: u64,
        /// Attributes known only at close time (outcome, byte counts…).
        args: Args,
    },
    /// A point event.
    Instant {
        /// Event name (stable schema).
        name: String,
        /// Attributes.
        args: Args,
    },
    /// A counter sample.
    Counter {
        /// Counter name.
        name: String,
        /// Sampled value.
        value: i64,
    },
}

impl Record {
    /// The record's name, when its kind has one.
    pub fn name(&self) -> Option<&str> {
        match &self.kind {
            RecordKind::Run { name, .. }
            | RecordKind::SpanStart { name, .. }
            | RecordKind::Instant { name, .. }
            | RecordKind::Counter { name, .. } => Some(name),
            RecordKind::SpanEnd { .. } => None,
        }
    }

    /// The record's args, when its kind has them.
    pub fn args(&self) -> Option<&Args> {
        match &self.kind {
            RecordKind::Run { args, .. }
            | RecordKind::SpanStart { args, .. }
            | RecordKind::SpanEnd { args, .. }
            | RecordKind::Instant { args, .. } => Some(args),
            RecordKind::Counter { .. } => None,
        }
    }

    /// Encodes the record as a sealed journal line (without the trailing
    /// newline).
    pub fn encode(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!(
            "{{\"seq\":{},\"t\":{},\"tid\":{}",
            self.seq, self.t_us, self.tid
        ));
        // Empty args and a root span's parent are left out: the reader
        // treats a missing field as empty, and every byte is paid per event.
        let push_args_if_any = |body: &mut String, args: &Args| {
            if !args.is_empty() {
                push_args(body, args);
            }
        };
        match &self.kind {
            RecordKind::Run { name, args } => {
                body.push_str(",\"k\":\"run\",\"name\":");
                write_string(name, &mut body);
                push_args_if_any(&mut body, args);
            }
            RecordKind::SpanStart {
                id,
                parent,
                name,
                args,
            } => {
                body.push_str(&format!(",\"k\":\"b\",\"id\":{id}"));
                if let Some(p) = parent {
                    body.push_str(&format!(",\"parent\":{p}"));
                }
                body.push_str(",\"name\":");
                write_string(name, &mut body);
                push_args_if_any(&mut body, args);
            }
            RecordKind::SpanEnd { id, args } => {
                body.push_str(&format!(",\"k\":\"e\",\"id\":{id}"));
                push_args_if_any(&mut body, args);
            }
            RecordKind::Instant { name, args } => {
                body.push_str(",\"k\":\"i\",\"name\":");
                write_string(name, &mut body);
                push_args_if_any(&mut body, args);
            }
            RecordKind::Counter { name, value } => {
                body.push_str(",\"k\":\"c\",\"name\":");
                write_string(name, &mut body);
                body.push_str(&format!(",\"value\":{value}"));
            }
        }
        seal_line(&body)
    }

    /// Decodes and verifies one sealed journal line.
    ///
    /// # Errors
    ///
    /// A description of why the line is unusable (torn checksum, bad JSON,
    /// unknown kind, missing field) — the reader treats any error as the
    /// start of a torn tail.
    pub fn decode(line: &str) -> Result<Record, String> {
        let body = verify_line(line)?;
        let mut text = body.to_owned();
        text.push('}');
        let v = parse(&text).map_err(|e| format!("bad record JSON: {e}"))?;
        let seq = field_u64(&v, "seq")?;
        let t_us = field_u64(&v, "t")?;
        let tid = field_u64(&v, "tid")?;
        let kind = match v.get("k").and_then(Value::as_str) {
            Some("run") => RecordKind::Run {
                name: field_str(&v, "name")?,
                args: parse_args(&v),
            },
            Some("b") => RecordKind::SpanStart {
                id: field_u64(&v, "id")?,
                parent: v.get("parent").and_then(as_u64),
                name: field_str(&v, "name")?,
                args: parse_args(&v),
            },
            Some("e") => RecordKind::SpanEnd {
                id: field_u64(&v, "id")?,
                args: parse_args(&v),
            },
            Some("i") => RecordKind::Instant {
                name: field_str(&v, "name")?,
                args: parse_args(&v),
            },
            Some("c") => RecordKind::Counter {
                name: field_str(&v, "name")?,
                value: v
                    .get("value")
                    .and_then(Value::as_int)
                    .ok_or("counter without value")?,
            },
            other => return Err(format!("unknown record kind {other:?}")),
        };
        Ok(Record {
            seq,
            t_us,
            tid,
            kind,
        })
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    v.as_int().and_then(|n| u64::try_from(n).ok())
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(as_u64)
        .ok_or_else(|| format!("missing numeric field `{key}`"))
}

fn field_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn parse_args(v: &Value) -> Args {
    let Some(fields) = v.get("args").and_then(Value::as_object) else {
        return Args::new();
    };
    fields
        .iter()
        .filter_map(|(k, val)| Some((k.clone(), val.as_str()?.to_owned())))
        .collect()
}

/// Appends `,"args":{...}` — string-valued, in key order.
pub(crate) fn push_args(body: &mut String, args: &Args) {
    body.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        write_string(k, body);
        body.push(':');
        write_string(v, body);
    }
    body.push('}');
}

/// FNV-1a 64-bit — the per-line integrity hash. Not cryptographic; it only
/// needs to catch truncation and bit-rot, like `state.db`'s header sum.
pub fn checksum_line(body: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in body.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seals an open JSON object body (everything up to but excluding the
/// closing `}`) with its checksum field: `<body>,"x":"<hex>"}`.
pub fn seal_line(body: &str) -> String {
    format!("{body},\"x\":\"{:016x}\"}}", checksum_line(body))
}

/// Verifies a sealed line, returning the open body on success.
fn verify_line(line: &str) -> Result<&str, String> {
    let idx = line
        .rfind(",\"x\":\"")
        .ok_or("line has no checksum field (torn?)")?;
    let body = &line[..idx];
    let tail = &line[idx..];
    let expected = format!(",\"x\":\"{:016x}\"}}", checksum_line(body));
    if tail != expected {
        return Err("line checksum mismatch (torn or corrupt)".to_owned());
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(pairs: &[(&str, &str)]) -> Args {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect()
    }

    #[test]
    fn roundtrip_every_kind() {
        let records = vec![
            Record {
                seq: 0,
                t_us: 0,
                tid: 1,
                kind: RecordKind::Run {
                    name: "build".into(),
                    args: args(&[("run_id", "r1"), ("pid", "42")]),
                },
            },
            Record {
                seq: 1,
                t_us: 10,
                tid: 1,
                kind: RecordKind::SpanStart {
                    id: 1,
                    parent: None,
                    name: "task".into(),
                    args: args(&[("task", "img:a/0")]),
                },
            },
            Record {
                seq: 2,
                t_us: 15,
                tid: 2,
                kind: RecordKind::SpanStart {
                    id: 2,
                    parent: Some(1),
                    name: "fetch".into(),
                    args: Args::new(),
                },
            },
            Record {
                seq: 3,
                t_us: 90,
                tid: 2,
                kind: RecordKind::SpanEnd {
                    id: 2,
                    args: args(&[("outcome", "hit")]),
                },
            },
            Record {
                seq: 4,
                t_us: 95,
                tid: 1,
                kind: RecordKind::Instant {
                    name: "cache".into(),
                    args: args(&[("hit", "true"), ("level", "br-base \"q\"\t\u{1}")]),
                },
            },
            Record {
                seq: 5,
                t_us: 99,
                tid: 1,
                kind: RecordKind::Counter {
                    name: "busy".into(),
                    value: -3,
                },
            },
        ];
        for r in records {
            let line = r.encode();
            assert_eq!(Record::decode(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn torn_line_is_rejected() {
        let r = Record {
            seq: 7,
            t_us: 123,
            tid: 1,
            kind: RecordKind::Instant {
                name: "cache".into(),
                args: args(&[("level", "x")]),
            },
        };
        let line = r.encode();
        // Any truncation fails: no checksum field, or a mismatching one.
        for cut in 1..line.len() {
            assert!(
                Record::decode(&line[..cut]).is_err(),
                "prefix of len {cut} must not verify"
            );
        }
        // A flipped byte in the body fails too.
        let flipped = line.replace("cache", "cachf");
        assert!(Record::decode(&flipped).is_err());
    }
}
