//! The harness's own span recorder: spans around the calls into each
//! layer, kept in memory and written out as Chrome-trace JSON when the
//! run ends. Nothing here reaches into the product; spans inside the
//! program are a later change.

use std::io::Write;
use std::time::Instant;

/// One recorded interval. `parent` indexes the recorder's span list;
/// spans of one operation share an `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Free-form detail (spec name, cell name); empty for hot-path spans
    /// so recording them never allocates.
    pub arg: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans of one thread against a shared epoch. A disabled
/// recorder runs the closure and records nothing, so the untraced and
/// traced passes execute the same harness code.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Self {
        Recorder {
            enabled,
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder::new(false, Instant::now(), 0)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of whichever span is
    /// open on this recorder.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        arg: &str,
        op_id: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            arg: arg.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
            tid: self.tid,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        self.last_closed = Some(id);
        out
    }

    /// [`Recorder::span`] without a detail string when `on`, else just
    /// `f`: for hot loops that wrap only every n-th op.
    pub fn span_if<R>(
        &mut self,
        on: bool,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if on {
            self.span(name, "", op_id, f)
        } else {
            f(self)
        }
    }

    /// Renames the span that closed last — for a call whose layer is
    /// known only from its result (an arrival turns out admitted or
    /// shed).
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(id) = self.last_closed {
            self.spans[id].name = name;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one parent run on one thread and never
/// overlap).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Whether, for every root span, the self times of its whole subtree add
/// up to the root's duration — the identity that makes per-layer self
/// times an attribution of the end-to-end time and not an overlapping
/// tally.
pub fn self_times_reconcile(spans: &[Span]) -> bool {
    let own = self_times_ns(spans);
    let mut subtree = own.clone();
    // Children are recorded after their parents, so one reverse sweep
    // folds every subtree into its root.
    for (i, s) in spans.iter().enumerate().rev() {
        if let Some(p) = s.parent {
            subtree[p] += subtree[i];
        }
    }
    spans
        .iter()
        .enumerate()
        .all(|(i, s)| s.parent.is_some() || subtree[i] == s.dur_ns())
}

/// Sum of the durations of every span called `name`, ns.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// Durations of every span called `name`, ns.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

fn push_json_str(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Writes `spans` as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): one complete (`X`) event per span, timestamps in µs.
pub fn write_chrome_trace(mut w: impl Write, spans: &[Span]) -> std::io::Result<()> {
    let own = self_times_ns(spans);
    w.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
    let mut line = String::new();
    for (i, s) in spans.iter().enumerate() {
        line.clear();
        if i > 0 {
            line.push_str(",\n");
        }
        line.push_str("{\"ph\":\"X\",\"cat\":\"harness\",\"name\":\"");
        push_json_str(&mut line, s.name);
        line.push_str(&format!(
            "\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"op_id\":{},\"self_ns\":{}",
            s.start_ns as f64 / 1000.0,
            s.dur_ns() as f64 / 1000.0,
            s.tid,
            s.op_id,
            own[i],
        ));
        if let Some(p) = s.parent {
            line.push_str(&format!(",\"parent\":{p}"));
        }
        if !s.arg.is_empty() {
            line.push_str(",\"arg\":\"");
            push_json_str(&mut line, &s.arg);
            line.push('"');
        }
        line.push_str("}}");
        w.write_all(line.as_bytes())?;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            arg: String::new(),
            start_ns,
            end_ns,
            parent,
            op_id: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
            span("other-root", 200, 230, None),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40, 30]);
        assert!(self_times_reconcile(&spans));
        assert_eq!(total_ns(&spans, "a"), 30);
        assert_eq!(durations_ns(&spans, "b"), vec![40]);
    }

    #[test]
    fn overlapping_children_do_not_reconcile() {
        // Two children that together exceed their parent: the parent's
        // self time saturates at zero and the subtree no longer adds up.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 0, 80, Some(0)),
            span("b", 20, 100, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 0);
        assert!(!self_times_reconcile(&spans));
    }

    #[test]
    fn recorder_nests_and_absorbs() {
        let epoch = Instant::now();
        let mut main = Recorder::new(true, epoch, 0);
        let got = main.span("root", "spec-a", 7, |r| r.span("child", "", 7, |_| 41) + 1);
        assert_eq!(got, 42);
        let mut worker = Recorder::new(true, epoch, 1);
        worker.span("op", "", 9, |r| {
            r.span("admit", "", 9, |_| ());
            r.rename_last("shed");
        });
        main.absorb(worker);
        let spans = main.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            spans[3].parent,
            Some(2),
            "absorbed parent links are re-based"
        );
        assert_eq!((spans[2].tid, spans[2].op_id), (1, 9));
        assert_eq!(spans[3].name, "shed");
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(self_times_reconcile(spans));

        let mut off = Recorder::off();
        assert_eq!(off.span("root", "", 0, |_| 5), 5);
        assert_eq!(off.span_if(true, "root", 0, |_| 6), 6);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut spans = vec![
            span("root", 1_000, 3_500, None),
            span("kid", 1_500, 2_000, Some(0)),
        ];
        spans[0].arg = "quote\" and \\ slash".to_string();
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &spans).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let v: serde::Value = serde_json::from_str(&text).unwrap();
        let events = v.get("traceEvents").unwrap();
        let serde::Value::Seq(events) = events else {
            panic!("traceEvents is not a list")
        };
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("arg")),
            Some(&serde::Value::Str("quote\" and \\ slash".to_string()))
        );
    }
}
