//! Deterministic mutation sweep over the two JSONL formats the runtime
//! reads back: gate logs (`read_gate_log`) and metrics streams
//! (`read_metrics_jsonl`), and under both, the JSON parser
//! (`serde_json::from_str`) on its own.
//!
//! Two mutators, both driven by a fixed xorshift stream. The byte-level
//! one flips, deletes, inserts and truncates bytes; the structure-aware
//! one replaces a number on a line by a boundary value, or swaps two
//! lines so that time runs backwards. A reader must answer `Ok` or an
//! error that names a line of the input, never panic; every gate log a
//! reader accepts is then replayed through each control law, which must
//! not panic either (this runs in the debug profile, so overflow checks
//! are on) and must keep every bound at or above its `min_bound`. The
//! parser, fed pathological input (deep nesting, huge exponents, lone
//! surrogates, truncated escapes) and mutated gate-log bytes, must
//! answer `Ok` or an error naming a byte offset of its input.

use std::panic::{catch_unwind, AssertUnwindSafe};

use alc_core::controller::{
    Hybrid, HybridParams, IncrementalSteps, IsParams, IyerRule, IyerRuleParams, LoadController,
    OuterParams, PaOuterParams, PaParams, ParabolaApproximation, SelfTuningIs, SelfTuningPa,
};
use alc_core::gatelog::GateEvent;
use alc_core::measure::PerfIndicator;
use alc_runtime::{
    read_gate_log, read_metrics_jsonl, replay, write_metrics_jsonl, AimdLaw, AimdParams,
    ControlLaw, JsonlError, MetricsSnapshot, PaperLaw, RetryBudgetLaw, RetryBudgetParams,
};

/// The head of a checked-in log: header, population changes, commits,
/// timeout aborts and a handful of decisions.
fn gate_log() -> String {
    let full = include_str!("../../../scenarios/traces/retry-storm_gatelog.jsonl");
    let head: Vec<&str> = full.lines().take(400).collect();
    assert!(head.iter().filter(|l| l.contains("Decision")).count() >= 4);
    assert!(head.iter().any(|l| l.contains("Abort")));
    head.join("\n") + "\n"
}

fn metrics_log() -> String {
    let snapshots: Vec<MetricsSnapshot> = (0..6u32)
        .map(|i| MetricsSnapshot {
            at_ms: 250.5 * f64::from(i),
            bound: 8 + i,
            in_use: i,
            waiting: 2 * i,
            commits: 1000 * u64::from(i),
            aborts: 7 * u64::from(i),
            sheds: u64::from(i),
            decisions: u64::from(i),
            window_departures: 100 + u64::from(i),
            window_aborts: 3,
            window_shed: 1,
            observed_mpl: 4.25,
            mean_response_ms: 12.5,
            p50_ms: 10.0,
            p95_ms: 30.0,
            p99_ms: 55.5,
            queue_depth: i,
        })
        .collect();
    let mut out = Vec::new();
    write_metrics_jsonl(&mut out, &snapshots).expect("writing to a Vec");
    String::from_utf8(out).expect("JSON is UTF-8")
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// 1–4 of flip / delete / insert / truncate.
fn mutate_bytes(text: &str, rng: &mut XorShift) -> Vec<u8> {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len());
        match rng.below(4) {
            0 => bytes[at] ^= 1 << rng.below(8),
            1 => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, rng.next() as u8),
            _ => bytes.truncate(at),
        }
    }
    bytes
}

const BOUNDARY_NUMBERS: [&str; 11] = [
    "0",
    "-0.0",
    "-1",
    "0.5",
    "1e308",
    "-1e308",
    "1e-320",
    "1e999",
    "4294967295",
    "9007199254740992",
    "18446744073709551615",
];

/// The byte ranges of the JSON numbers on `line` (every value that
/// starts right after a `:` with a digit or a sign).
fn numbers_on(line: &str) -> Vec<(usize, usize)> {
    let b = line.as_bytes();
    (1..b.len())
        .filter(|&i| b[i - 1] == b':' && (b[i].is_ascii_digit() || b[i] == b'-'))
        .map(|start| {
            let len = b[start..]
                .iter()
                .take_while(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                .count();
            (start, start + len)
        })
        .collect()
}

/// 1–3 of: a number replaced by a boundary value, two lines swapped.
fn mutate_structure(text: &str, rng: &mut XorShift) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(lines.len());
        if rng.below(4) == 0 {
            let other = rng.below(lines.len());
            lines.swap(at, other);
            continue;
        }
        let numbers = numbers_on(&lines[at]);
        if numbers.is_empty() {
            continue;
        }
        let (start, end) = numbers[rng.below(numbers.len())];
        let with = BOUNDARY_NUMBERS[rng.below(BOUNDARY_NUMBERS.len())];
        lines[at].replace_range(start..end, with);
    }
    lines.join("\n") + "\n"
}

type MakeLaw = fn() -> Box<dyn ControlLaw>;

fn paper(controller: impl LoadController + 'static) -> Box<dyn ControlLaw> {
    Box::new(PaperLaw::new(Box::new(controller)))
}

/// Every law with its default parameters, and the floor it promises.
fn laws() -> [(&'static str, u32, MakeLaw); 8] {
    let (is, pa) = (IsParams::default().min_bound, PaParams::default().min_bound);
    [
        ("IS", is, || {
            paper(IncrementalSteps::new(IsParams::default()))
        }),
        ("PA", pa, || {
            paper(ParabolaApproximation::new(PaParams::default()))
        }),
        ("Hybrid", HybridParams::default().is.min_bound, || {
            paper(Hybrid::new(HybridParams::default()))
        }),
        ("Iyer", 1, || {
            paper(IyerRule::new(IyerRuleParams::default()))
        }),
        ("SelfTuningIs", is, || {
            paper(SelfTuningIs::new(
                IsParams::default(),
                OuterParams::default(),
            ))
        }),
        ("SelfTuningPa", pa, || {
            paper(SelfTuningPa::new(
                PaParams::default(),
                PaOuterParams::default(),
            ))
        }),
        (
            "RetryBudget",
            RetryBudgetParams::default().min_bound,
            || Box::new(RetryBudgetLaw::new(RetryBudgetParams::default())),
        ),
        ("AIMD", AimdParams::default().min_bound, || {
            Box::new(AimdLaw::new(AimdParams::default()))
        }),
    ]
}

/// Runs `f`; a panic inside it fails the test with `what` in the message.
fn no_panic<T>(what: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("{what}: panicked"))
}

/// Replays `events` through every law: no panic, no bound under the floor.
fn replay_through_every_law(events: &[GateEvent], what: &str) {
    for (name, floor, make) in laws() {
        let what = format!("{what}: replay through {name}");
        for decision in no_panic(&what, || replay(events, make(), PerfIndicator::Throughput)) {
            let GateEvent::Decision { bound, .. } = decision else {
                panic!("{what}: replay returned {decision:?}");
            };
            assert!(
                bound >= floor,
                "{what}: bound {bound} under the floor {floor}"
            );
        }
    }
}

/// What a reader may answer besides `Ok`: a parse error naming a line
/// of the input, or (`None`) an I/O error for input that is not UTF-8.
fn check_error(bytes: &[u8], what: &str, line: Option<usize>) {
    match line {
        Some(line) => {
            let lines = bytes.split(|&b| b == b'\n').count();
            assert!(
                (1..=lines).contains(&line),
                "{what}: error names line {line} of {lines}"
            );
        }
        None => assert!(
            std::str::from_utf8(bytes).is_err(),
            "{what}: I/O error on UTF-8 input"
        ),
    }
}

/// Reads `bytes` as a gate log; one that reads is replayed.
fn check_gate_log(bytes: &[u8], what: &str) {
    match no_panic(what, || read_gate_log(bytes)) {
        Ok((_, events)) => replay_through_every_law(&events, what),
        Err(JsonlError::Parse(line, _)) => check_error(bytes, what, Some(line)),
        Err(JsonlError::Io(_)) => check_error(bytes, what, None),
    }
}

fn check_metrics(bytes: &[u8], what: &str) {
    match no_panic(what, || read_metrics_jsonl(bytes)) {
        Ok(_) => {}
        Err(JsonlError::Parse(line, _)) => check_error(bytes, what, Some(line)),
        Err(JsonlError::Io(_)) => check_error(bytes, what, None),
    }
}

#[test]
fn unmutated_inputs_read_and_replay() {
    let log = gate_log();
    let (header, events) = read_gate_log(log.as_bytes()).expect("checked-in log reads");
    assert!(header.is_some());
    assert_eq!(events.len(), 399);
    replay_through_every_law(&events, "unmutated");
    assert_eq!(
        read_metrics_jsonl(metrics_log().as_bytes())
            .expect("own output reads")
            .len(),
        6
    );
}

#[test]
fn byte_mutations_never_panic_a_reader_or_a_law() {
    let (log, metrics) = (gate_log(), metrics_log());
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for case in 0..400 {
        check_gate_log(
            &mutate_bytes(&log, &mut rng),
            &format!("gate log, byte case {case}"),
        );
        check_metrics(
            &mutate_bytes(&metrics, &mut rng),
            &format!("metrics, byte case {case}"),
        );
    }
}

#[test]
fn boundary_numbers_and_reversed_time_never_panic_a_reader_or_a_law() {
    let (log, metrics) = (gate_log(), metrics_log());
    let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
    for case in 0..600 {
        let mutant = mutate_structure(&log, &mut rng);
        check_gate_log(
            mutant.as_bytes(),
            &format!("gate log, structure case {case}"),
        );
        let mutant = mutate_structure(&metrics, &mut rng);
        check_metrics(
            mutant.as_bytes(),
            &format!("metrics, structure case {case}"),
        );
    }
}

/// Two aborts whose conflict counts sum past `u64::MAX` used to overflow
/// the sampler's accumulator: a panic in debug builds, a wrap in release.
#[test]
fn conflict_counts_saturate() {
    let log = "{\"Abort\":{\"at_ms\":1,\"conflicts\":18446744073709551615}}\n\
               {\"Abort\":{\"at_ms\":1,\"conflicts\":18446744073709551615}}\n\
               {\"Decision\":{\"at_ms\":500,\"bound\":4}}\n";
    let (_, events) = read_gate_log(log.as_bytes()).expect("three valid lines");
    assert_eq!(events.len(), 3);
    replay_through_every_law(&events, "double u64::MAX abort");
}

/// The derive shim used to cast integers with `as`: a population of -1
/// read as 0, 20.7 as 20, 4294967298 as 2.
#[test]
fn out_of_range_integers_are_line_numbered_errors() {
    for bad in ["-1", "20.7", "4294967298"] {
        let log = format!(
            "{{\"Mpl\":{{\"at_ms\":0,\"in_system\":1}}}}\n{{\"Mpl\":{{\"at_ms\":1,\"in_system\":{bad}}}}}\n"
        );
        match read_gate_log(log.as_bytes()) {
            Err(JsonlError::Parse(2, _)) => {}
            other => panic!("in_system {bad}: {other:?}"),
        }
        let metrics = metrics_log().replacen("\"bound\":8", &format!("\"bound\":{bad}"), 1);
        match read_metrics_jsonl(metrics.as_bytes()) {
            Err(JsonlError::Parse(1, _)) => {}
            other => panic!("bound {bad}: {other:?}"),
        }
    }
}

/// The derive shim used to read past a key the event does not have, so
/// a log written by a newer (or a confused) writer replayed as if the
/// field had never been there.
#[test]
fn an_unknown_event_key_is_a_line_numbered_error_naming_it() {
    let log = "{\"Mpl\":{\"at_ms\":0,\"in_system\":1}}\n\
               {\"Commit\":{\"at_ms\":1,\"response_ms\":2,\"conflicts\":0,\"extra\":1}}\n";
    match read_gate_log(log.as_bytes()) {
        Err(JsonlError::Parse(2, msg)) => {
            assert!(
                msg.contains("GateEvent::Commit") && msg.contains("`extra`"),
                "{msg}"
            );
        }
        other => panic!("stray `extra`: {other:?}"),
    }
}

/// The first of a repeated key used to win silently.
#[test]
fn a_repeated_metrics_key_is_a_line_numbered_error_naming_it() {
    let metrics = metrics_log().replacen("\"bound\":8", "\"bound\":8,\"bound\":9", 1);
    match read_metrics_jsonl(metrics.as_bytes()) {
        Err(JsonlError::Parse(1, msg)) => {
            assert!(
                msg.contains("MetricsSnapshot") && msg.contains("`bound` twice"),
                "{msg}"
            );
        }
        other => panic!("repeated `bound`: {other:?}"),
    }
}

/// `serde_json::from_str` on `text`: `Ok`, or an error that names a byte
/// offset inside `text` (or just past it); never a panic.
fn check_parse(text: &str, what: &str) {
    let Err(e) = no_panic(what, || serde_json::from_str::<serde::Value>(text)) else {
        return;
    };
    let msg = e.to_string();
    let offset = msg
        .rsplit_once(" at byte ")
        .and_then(|(_, at)| at.parse::<usize>().ok())
        .unwrap_or_else(|| panic!("{what}: error names no byte offset: {msg}"));
    assert!(
        offset <= text.len(),
        "{what}: offset {offset} past {} bytes: {msg}",
        text.len()
    );
}

#[test]
fn json_parser_answers_every_input_with_a_value_or_an_offset() {
    let deep = |open: &str| open.repeat(100_000);
    let mut cases: Vec<String> = vec![deep("["), deep("{\"a\":"), deep("[{\"k\":")];
    for text in [
        "1e999999999999999999",
        "-1e-999999999999999999",
        "[1E400]",
        "0.1e+",
        "-",
        "18446744073709551616",
        r#""\ud800""#,
        r#""\udfff""#,
        r#""\ud800\ud800""#,
        r#""\ud800\u0041""#,
        r#""\"#,
        r#""\u"#,
        r#""\u12"#,
        r#""\u12g4""#,
        r#""\u+041""#,
        r#""\ud83d\u"#,
        r#""\ud83d\"#,
        r#"{"a":1,"#,
        "",
    ] {
        cases.push(text.to_string());
    }
    for (i, text) in cases.iter().enumerate() {
        check_parse(text, &format!("pathological case {i}"));
    }
    let log = gate_log();
    let mut rng = XorShift(0x6a09_e667_f3bc_c908);
    for case in 0..300 {
        let bytes = mutate_bytes(&log, &mut rng);
        let text = String::from_utf8_lossy(&bytes);
        let what = format!("gate log, JSON case {case}");
        check_parse(&text, &what);
        for (n, line) in text.lines().enumerate() {
            check_parse(line, &format!("{what}, line {}", n + 1));
        }
    }
}
