//! JSONL gate logs: the on-disk form of [`GateEvent`] streams.
//!
//! A gate-log file is line-oriented: an optional first line
//! `{"Header": {...}}` describing where the log came from, then one
//! externally-tagged [`GateEvent`] per line (`{"Mpl": {...}}`,
//! `{"Commit": {...}}`, ...). The format is append-friendly (a crashed
//! writer loses at most its final partial line) and exactly
//! round-trips every `f64` through the workspace shim's
//! shortest-representation formatting — the property the byte-identical
//! conformance pin rests on.

use std::io::{self, BufRead, Write};

use alc_core::gatelog::{GateEvent, GateLogSink};
use serde::{Obj, Value};

/// Provenance of a captured log, written as the file's first line.
#[derive(Debug, Clone, PartialEq)]
pub struct GateLogHeader {
    /// Scenario name the log was captured from ("" for ad-hoc logs).
    pub scenario: String,
    /// Variant label within the scenario ("" for the implicit variant).
    pub variant: String,
    /// Replication index.
    pub replication: u32,
    /// Master seed of the run.
    pub seed: u64,
    /// Whether the scenario's quick (CI-scale) overrides were applied.
    pub quick: bool,
}

impl GateLogHeader {
    /// The header as written to disk, its fields in declaration order.
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("scenario".to_string(), Value::Str(self.scenario.clone())),
            ("variant".to_string(), Value::Str(self.variant.clone())),
            (
                "replication".to_string(),
                Value::U64(self.replication.into()),
            ),
            ("seed".to_string(), Value::U64(self.seed)),
            ("quick".to_string(), Value::Bool(self.quick)),
        ])
    }

    /// Reads what [`GateLogHeader::to_value`] writes, strictly.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let mut o = Obj::open(v, "GateLogHeader")?;
        let header = GateLogHeader {
            scenario: o.string("scenario")?,
            variant: o.string("variant")?,
            replication: o.u32("replication")?,
            seed: o.u64("seed")?,
            quick: o.bool("quick")?,
        };
        o.finish()?;
        Ok(header)
    }
}

/// A problem reading a JSONL stream: a gate log, a metrics series, a
/// workload trace.
#[derive(Debug)]
pub enum JsonlError {
    /// Underlying I/O failure (input that is not UTF-8 included).
    Io(io::Error),
    /// A line that is not valid JSON or not the record the stream holds
    /// (1-based line number and message).
    Parse(usize, String),
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonlError::Io(e) => write!(f, "I/O error: {e}"),
            JsonlError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for JsonlError {}

/// Reads a JSONL stream: every non-blank line is parsed as JSON and handed,
/// with its 1-based number, to `each`, in order; the first line that does
/// not parse, or that `each` refuses, is the error, under its number.
pub fn read_jsonl<R: BufRead>(
    r: R,
    mut each: impl FnMut(usize, &Value) -> Result<(), serde::Error>,
) -> Result<(), JsonlError> {
    for (idx, line) in r.lines().enumerate() {
        let line = line.map_err(JsonlError::Io)?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        serde_json::from_str(trimmed)
            .and_then(|value: Value| each(idx + 1, &value))
            .map_err(|e| JsonlError::Parse(idx + 1, e.to_string()))?;
    }
    Ok(())
}

/// Renders one event as its JSONL line (without the newline). This is
/// the canonical serialization the conformance pin compares.
pub fn event_line(event: &GateEvent) -> String {
    serde_json::to_string(&event.to_value()).unwrap_or_else(|_| String::from("null"))
}

fn header_line(header: &GateLogHeader) -> String {
    let map = vec![("Header".to_string(), header.to_value())];
    serde_json::to_string(&Value::Map(map)).unwrap_or_else(|_| String::from("null"))
}

/// Writes a complete log (header + events) to `w`.
pub fn write_gate_log<W: Write>(
    mut w: W,
    header: &GateLogHeader,
    events: &[GateEvent],
) -> io::Result<()> {
    writeln!(w, "{}", header_line(header))?;
    for e in events {
        writeln!(w, "{}", event_line(e))?;
    }
    Ok(())
}

/// Reads a log: the header (if the first line carries one) and every
/// event, in order.
pub fn read_gate_log<R: BufRead>(
    r: R,
) -> Result<(Option<GateLogHeader>, Vec<GateEvent>), JsonlError> {
    let mut header = None;
    let mut events = Vec::new();
    read_jsonl(r, |line, value| {
        match value.as_map() {
            Some([(tag, h)]) if tag == "Header" && line == 1 => {
                header = Some(GateLogHeader::from_value(h)?)
            }
            _ => events.push(GateEvent::from_value(value)?),
        }
        Ok(())
    })?;
    Ok((header, events))
}

/// A [`GateLogSink`] streaming each event to a writer as one JSONL line.
///
/// Buffer the writer (`BufWriter`) for hot-path use; `into_inner`
/// flushes and returns it.
pub struct JsonlSink<W: Write + Send> {
    w: W,
    /// First write error, kept so a lossy log is detectable after the run.
    error: Option<io::Error>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer, emitting `header` first.
    pub fn new(mut w: W, header: &GateLogHeader) -> io::Result<Self> {
        writeln!(w, "{}", header_line(header))?;
        Ok(JsonlSink { w, error: None })
    }

    /// Wraps a writer without a header line (ad-hoc logs).
    pub fn headerless(w: W) -> Self {
        JsonlSink { w, error: None }
    }

    /// Flushes and returns the writer, or the first error any write hit.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.w.flush()?;
        Ok(self.w)
    }
}

impl<W: Write + Send> GateLogSink for JsonlSink<W> {
    fn record(&mut self, event: &GateEvent) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.w, "{}", event_line(event)) {
            self.error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<GateEvent> {
        vec![
            GateEvent::Mpl {
                at_ms: 0.5,
                in_system: 1,
            },
            GateEvent::Commit {
                at_ms: 123.456,
                response_ms: 78.90000000000003,
                conflicts: 1,
            },
            GateEvent::Abort {
                at_ms: 130.0,
                conflicts: 4,
            },
            GateEvent::Decision {
                at_ms: 1000.0,
                bound: 9,
            },
        ]
    }

    fn sample_header() -> GateLogHeader {
        GateLogHeader {
            scenario: "jump".to_string(),
            variant: "is".to_string(),
            replication: 0,
            seed: 42,
            quick: true,
        }
    }

    #[test]
    fn log_round_trips_bytes() {
        let header = sample_header();
        let events = sample_events();
        let mut buf = Vec::new();
        write_gate_log(&mut buf, &header, &events).expect("write");
        let (h, back) = read_gate_log(io::BufReader::new(&buf[..])).expect("read");
        assert_eq!(h, Some(header.clone()));
        assert_eq!(back, events);
        // Re-serializing reproduces the file byte-for-byte.
        let mut again = Vec::new();
        write_gate_log(&mut again, &header, &back).expect("rewrite");
        assert_eq!(buf, again);
    }

    #[test]
    fn jsonl_sink_streams_the_same_bytes() {
        let header = sample_header();
        let events = sample_events();
        let mut whole = Vec::new();
        write_gate_log(&mut whole, &header, &events).expect("write");
        let mut sink = JsonlSink::new(Vec::new(), &header).expect("sink");
        for e in &events {
            sink.record(e);
        }
        assert_eq!(sink.finish().expect("finish"), whole);
    }

    #[test]
    fn headerless_logs_read_back() {
        let events = sample_events();
        let mut sink = JsonlSink::headerless(Vec::new());
        for e in &events {
            sink.record(e);
        }
        let buf = sink.finish().expect("finish");
        let (h, back) = read_gate_log(io::BufReader::new(&buf[..])).expect("read");
        assert_eq!(h, None);
        assert_eq!(back, events);
    }

    #[test]
    fn a_header_line_holds_the_header_alone() {
        let mut buf = Vec::new();
        write_gate_log(&mut buf, &sample_header(), &[]).expect("write");
        let text = String::from_utf8(buf).expect("UTF-8");
        let text = text.replacen("}}", "},\"Mpl\":{\"at_ms\":1,\"in_system\":2}}", 1);
        match read_gate_log(io::BufReader::new(text.as_bytes())) {
            Err(JsonlError::Parse(1, msg)) => assert!(msg.contains("single-key"), "{msg}"),
            other => panic!("a header with an event beside it: {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "{\"Mpl\": {\"at_ms\": 1.0, \"in_system\": 2}}\nnot json\n";
        let err = read_gate_log(io::BufReader::new(text.as_bytes())).unwrap_err();
        match err {
            JsonlError::Parse(line, _) => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
