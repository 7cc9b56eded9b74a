//! JSON-tree plumbing for the scenario DSL.
//!
//! Scenario specs live as [`serde::Value`] trees so that variants,
//! `--set key=value` CLI overrides and quick-scale overrides can all be
//! expressed the same way: a dotted path plus a replacement value applied
//! to the tree *before* the typed parse. The typed parse (strict —
//! unknown keys are errors) then catches any path typo that invented a
//! bogus key, so path application itself can be insert-friendly: the
//! reader is the only schema a path is checked against.
//!
//! The strictness is `serde::Obj`'s, the one rule every object is read
//! by: [`Obj`] wraps it to read every object section of the DSL,
//! knowing its keys from the ones its parser asks for, and the field
//! parsers beside it ([`positive`], [`nonempty`], [`list`],
//! [`distribution`], [`named`], …) type and range-check one value each,
//! naming `<section>.<key>` when it fails. Every section —
//! the engine's configs and the controllers' parameters included —
//! builds its engine type field by field, each key it is not given
//! taking the type's default. What the reader refuses, each an error
//! that names its place rather than a value read some other way:
//!
//! * a section payload that is not an object (`{"hybrid": 7}`);
//! * a key given twice in one object, the open maps (`quick`, variant
//!   `set`s, `inputs`) included;
//! * an unknown key, with the keys the section does know:
//!   ``unknown `clients` key `patience` (known: population, …)``, and an
//!   unknown tag or name, with the ones its table lists;
//! * a mistyped, missing or out-of-range value, and an integer that is
//!   inexact or does not fit its field (`"terminals": 20.7`), never a
//!   truncated or wrapped one. Gate logs, metrics JSONL and `trace`
//!   profiles are read by the same rule, line-numbered, through
//!   `alc_runtime::read_jsonl`;
//! * a configuration the engine cannot run (each type's `check()`,
//!   asserted by its constructor too), and an `inputs` cell that nothing
//!   reads.

use std::fmt;

use alc_des::dist::{Constant, Dist, Erlang, ExpZig};
use alc_tpsim::config::ArrivalProcess;
use serde::Value;

use crate::SpecError;

/// Sets `path` (dot-separated map keys, with numeric segments indexing
/// into lists) in `root` to `new`. Missing terminal keys are inserted;
/// missing intermediate keys become empty maps on the way down (the
/// strict typed parse rejects inventions). List indices must already
/// exist — an override must never grow a list silently. Descending into
/// a scalar is an error.
pub fn set_path(root: &mut Value, path: &str, new: Value) -> Result<(), SpecError> {
    if path.is_empty() {
        return Err(SpecError::new("override path must not be empty"));
    }
    let mut cur = root;
    let mut it = path.split('.').peekable();
    while let Some(part) = it.next() {
        if part.is_empty() {
            return Err(SpecError::new(format!(
                "override path `{path}` has an empty segment"
            )));
        }
        let slot: &mut Value = match cur {
            Value::Map(entries) => {
                let pos = match entries.iter().position(|(k, _)| k == part) {
                    Some(pos) => pos,
                    None => {
                        entries.push((part.to_string(), Value::Map(Vec::new())));
                        entries.len() - 1
                    }
                };
                &mut entries[pos].1
            }
            Value::Seq(items) => {
                let idx: usize = part.parse().map_err(|_| {
                    SpecError::new(format!(
                        "override path `{path}`: `{part}` must be a list index here"
                    ))
                })?;
                let len = items.len();
                items.get_mut(idx).ok_or_else(|| {
                    SpecError::new(format!(
                        "override path `{path}`: index {idx} out of range (len {len})"
                    ))
                })?
            }
            _ => {
                return Err(SpecError::new(format!(
                    "override path `{path}`: `{part}` is not inside an object or list"
                )));
            }
        };
        if it.peek().is_none() {
            *slot = new;
            return Ok(());
        }
        cur = slot;
    }
    // alc-lint: allow(panic-in-lib, reason="split('.') always yields >=1 segment, so the loop returns")
    unreachable!("split('.') yields at least one segment");
}

/// The tags of one tagged union, written once beside the `match` that
/// reads them: the reader names them in its errors.
pub type Keys = &'static [&'static str];

/// The error for a key (or a tag) its section does not have.
pub fn unknown_key(
    section: &str,
    key: &str,
    known: impl IntoIterator<Item = impl AsRef<str>>,
) -> SpecError {
    serde::unknown_key(section, key, known).into()
}

/// Where a field sits, for error messages: `<section>.<key>`.
#[derive(Clone, Copy)]
pub struct At<'a>(pub &'a str, pub &'a str);

impl fmt::Display for At<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.0, self.1)
    }
}

/// The strict reader of one object section: `serde::Obj`'s rule (an
/// object, no repeated key, and [`Obj::finish`] rejects any key nobody
/// took, naming the ones the section knows) with the DSL's field
/// parsers. [`Obj::opt`] and [`Obj::req`] hand each key's value to a
/// parser that is told where the value sits. The keys its parser asks
/// for are the section's keys, so no table beside the parser repeats
/// them.
pub struct Obj<'a>(serde::Obj<'a>);

impl<'a> Obj<'a> {
    /// Opens `v` as the section named `section`.
    pub fn open(v: &'a Value, section: impl fmt::Display) -> Result<Self, SpecError> {
        Ok(Obj(serde::Obj::open(v, section)?))
    }

    /// Takes `key` and parses its value, `None` when the key is absent.
    pub fn opt<T>(
        &mut self,
        key: &'static str,
        parse: impl FnOnce(&Value, At<'_>) -> Result<T, SpecError>,
    ) -> Result<Option<T>, SpecError> {
        let v = self.0.take(key);
        v.map(|v| parse(v, At(self.0.name(), key))).transpose()
    }

    /// Takes `key`, whose absence reads as `default`.
    pub fn or<T>(
        &mut self,
        key: &'static str,
        parse: impl FnOnce(&Value, At<'_>) -> Result<T, SpecError>,
        default: T,
    ) -> Result<T, SpecError> {
        Ok(self.opt(key, parse)?.unwrap_or(default))
    }

    /// Takes `key`, which the section cannot do without.
    pub fn req<T>(
        &mut self,
        key: &'static str,
        parse: impl FnOnce(&Value, At<'_>) -> Result<T, SpecError>,
    ) -> Result<T, SpecError> {
        let v = self.0.need(key)?;
        parse(v, At(self.0.name(), key))
    }

    /// Takes `key`, an object whose parser keeps a default for each key
    /// it is not given. An absent key reads as `{}`: the defaults, by
    /// the same path.
    pub fn or_defaults<T>(
        &mut self,
        key: &'static str,
        parse: impl FnOnce(&Value, At<'_>) -> Result<T, SpecError>,
    ) -> Result<T, SpecError> {
        let empty = Value::Map(Vec::new());
        let v = self.0.take(key).unwrap_or(&empty);
        parse(v, At(self.0.name(), key))
    }

    /// Closes the section around what it parsed to: a key nobody took
    /// is unknown to it.
    pub fn finish<T>(self, parsed: T) -> Result<T, SpecError> {
        self.0.finish()?;
        let given = self.0.entries().iter().map(|(k, _)| k.as_str());
        reads::keys(self.0.name(), self.0.asked().iter().copied(), given);
        Ok(parsed)
    }
}

/// Splits a tagged union, written as a single-key object, into its tag
/// and payload.
pub fn single_key<'a>(
    v: &'a Value,
    section: &str,
    tags: Keys,
) -> Result<(&'a str, &'a Value), SpecError> {
    match v.as_map() {
        Some([(tag, payload)]) => {
            reads::tag(tags, tag);
            Ok((tag, payload))
        }
        _ => Err(SpecError::new(format!(
            "`{section}` must be a single-key object ({})",
            tags.join("/")
        ))),
    }
}

fn typed<T>(v: Option<T>, at: At<'_>, want: &str) -> Result<T, SpecError> {
    v.ok_or_else(|| SpecError::new(format!("`{at}` must be {want}")))
}

fn str_of(v: &Value) -> Option<&String> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Parses a string field.
pub fn string(v: &Value, at: At<'_>) -> Result<String, SpecError> {
    typed(str_of(v).cloned(), at, "a string")
}

/// Parses a string field that must not be empty.
pub fn nonempty(v: &Value, at: At<'_>) -> Result<String, SpecError> {
    typed(
        str_of(v).filter(|s| !s.is_empty()).cloned(),
        at,
        "a non-empty string",
    )
}

/// Parses a bool field.
pub fn boolean(v: &Value, at: At<'_>) -> Result<bool, SpecError> {
    let b = match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    };
    typed(b, at, "a bool")
}

/// Parses a u64 field.
pub fn u64_from(v: &Value, at: At<'_>) -> Result<u64, SpecError> {
    typed(v.as_u64(), at, "a non-negative integer")
}

/// Parses a u32 field, rejecting non-integers and values that would
/// truncate (a silent `as u32` wrap could turn a typo into bound 0).
pub fn u32_from(v: &Value, at: At<'_>) -> Result<u32, SpecError> {
    let x = v.as_u64().and_then(|x| u32::try_from(x).ok());
    typed(x, at, "an integer ≤ u32::MAX")
}

/// Parses a u32 field that must be at least 1.
pub fn positive_u32(v: &Value, at: At<'_>) -> Result<u32, SpecError> {
    let x = v.as_u64().and_then(|x| u32::try_from(x).ok());
    typed(x.filter(|&x| x >= 1), at, "an integer in [1, u32::MAX]")
}

fn num_where(
    v: &Value,
    at: At<'_>,
    ok: impl Fn(f64) -> bool,
    want: &str,
) -> Result<f64, SpecError> {
    typed(v.as_f64().filter(|&x| ok(x)), at, want)
}

/// Parses a number field.
pub fn number(v: &Value, at: At<'_>) -> Result<f64, SpecError> {
    num_where(v, at, |_| true, "numeric")
}

/// Parses a positive finite number field.
pub fn positive(v: &Value, at: At<'_>) -> Result<f64, SpecError> {
    num_where(v, at, |x| x > 0.0 && x.is_finite(), "a positive number")
}

/// Parses a finite number field that must not be negative.
pub fn non_negative(v: &Value, at: At<'_>) -> Result<f64, SpecError> {
    num_where(v, at, |x| x >= 0.0 && x.is_finite(), "a number ≥ 0")
}

/// Parses a number field that must be at least 1 (a growth factor).
pub fn at_least_one(v: &Value, at: At<'_>) -> Result<f64, SpecError> {
    num_where(v, at, |x| x >= 1.0 && x.is_finite(), "a number ≥ 1")
}

/// Parses a number field in `[0, 1)` (a relative band or offset).
pub fn below_one(v: &Value, at: At<'_>) -> Result<f64, SpecError> {
    num_where(v, at, |x| (0.0..1.0).contains(&x), "in [0, 1)")
}

/// Parses a number field in `[0, 1]` (a fraction).
pub fn fraction(v: &Value, at: At<'_>) -> Result<f64, SpecError> {
    num_where(v, at, |x| (0.0..=1.0).contains(&x), "in [0, 1]")
}

/// Parses a list field, each entry through `each`.
pub fn list<T>(
    each: impl Fn(&Value) -> Result<T, SpecError>,
) -> impl Fn(&Value, At<'_>) -> Result<Vec<T>, SpecError> {
    move |v, at| typed(v.as_seq(), at, "a list")?.iter().map(&each).collect()
}

/// Parses a `[[t, x], …]` list — pairs led by a time — each `x`
/// through `each`.
pub fn timed<T>(
    v: &Value,
    what: &str,
    each: impl Fn(&Value) -> Result<T, SpecError>,
) -> Result<Vec<(f64, T)>, SpecError> {
    let bad = || SpecError::new(format!("`{what}` must be a list of [t_ms, value] pairs"));
    let pair = |p: &Value| match p.as_seq() {
        Some([t, x]) => Ok((t.as_f64().ok_or_else(bad)?, each(x)?)),
        _ => Err(bad()),
    };
    v.as_seq().ok_or_else(bad)?.iter().map(pair).collect()
}

/// Parses an open object field (path → value, or name → cells) into its
/// ordered pairs.
pub fn pairs(v: &Value, at: At<'_>) -> Result<Vec<(String, Value)>, SpecError> {
    Ok(serde::entries(v, &at.to_string())?.to_vec())
}

/// The distribution shorthands written as single-key objects.
pub(crate) const DIST: Keys = &["constant", "exponential", "erlang"];

/// Parses a distribution, in ms: a number or `{"constant": x}` is a
/// constant, `{"exponential": mean}` the ziggurat-sampled exponential
/// and `{"erlang": {"stages", "mean"}}` an Erlang-k of at least one
/// stage. The values are built as written, not through the asserting
/// constructors: what a field may draw is its config's `check()` (or
/// its reader's) to say.
pub fn distribution(v: &Value, at: At<'_>) -> Result<Dist, SpecError> {
    if let Some(x) = v.as_f64() {
        return Ok(Dist::Constant(Constant(x)));
    }
    let section = at.to_string();
    let (tag, payload) = single_key(v, &section, DIST).map_err(|_| {
        SpecError::new(format!(
            "`{at}` must be a number or a single-key object ({})",
            DIST.join("/")
        ))
    })?;
    let at = At(&section, tag);
    Ok(match tag {
        "constant" => Dist::Constant(Constant(number(payload, at)?)),
        "exponential" => Dist::ExpZig(ExpZig {
            mean: number(payload, at)?,
        }),
        "erlang" => {
            let mut o = Obj::open(payload, at)?;
            let erlang = Erlang {
                stages: o.req("stages", positive_u32)?,
                mean: o.req("mean", number)?,
            };
            Dist::Erlang(o.finish(erlang)?)
        }
        other => return Err(unknown_key(&section, other, DIST)),
    })
}

/// The arrival processes written as a bare name.
pub(crate) const ARRIVAL_NAMES: [(&str, ArrivalProcess); 1] = [("closed", ArrivalProcess::Closed)];

/// The arrival processes written as single-key objects.
pub(crate) const ARRIVAL: Keys = &["open", "open_rate_per_s"];

/// Parses an arrival process: `"closed"`, `{"open": {"interarrival":
/// <distribution>}}`, or `{"open_rate_per_s": λ}`, an open Poisson
/// stream of λ arrivals per second.
pub fn arrival_process(v: &Value, at: At<'_>) -> Result<ArrivalProcess, SpecError> {
    let known = || ARRIVAL_NAMES.map(|(name, _)| name).into_iter().chain(ARRIVAL.iter().copied());
    let section = at.to_string();
    if let Value::Str(name) = v {
        return match ARRIVAL_NAMES.iter().find(|(n, _)| n == name) {
            Some(&(_, arrival)) => Ok(arrival),
            None => Err(unknown_key(&section, name, known())),
        };
    }
    let (tag, payload) = single_key(v, &section, ARRIVAL).map_err(|_| {
        SpecError::new(format!(
            "`{at}` must be \"closed\" or a single-key object ({})",
            ARRIVAL.join("/")
        ))
    })?;
    let at = At(&section, tag);
    match tag {
        "open" => {
            let mut o = Obj::open(payload, at)?;
            let interarrival = o.req("interarrival", distribution)?;
            o.finish(ArrivalProcess::Open { interarrival })
        }
        "open_rate_per_s" => positive(payload, at).map(open_rate),
        other => Err(unknown_key(&section, other, known())),
    }
}

/// An open Poisson stream of `rate` arrivals per second: exponential
/// interarrival times of mean `1000/rate` ms.
pub(crate) fn open_rate(rate: f64) -> ArrivalProcess {
    let interarrival = Dist::ExpZig(ExpZig {
        mean: 1000.0 / rate,
    });
    ArrivalProcess::Open { interarrival }
}

/// Parses a field written as one of `table`'s names.
pub fn named<T: Copy>(
    table: &'static [(&'static str, T)],
) -> impl Fn(&Value, At<'_>) -> Result<T, SpecError> {
    move |v, at| {
        let names = table.iter().map(|(name, _)| *name);
        let Value::Str(given) = v else {
            let names: Vec<&str> = names.collect();
            return Err(SpecError::new(format!("`{at}` must be a name ({})", names.join(", "))));
        };
        match table.iter().find(|(name, _)| name == given) {
            Some(&(_, x)) => Ok(x),
            None => Err(unknown_key(&at.to_string(), given, names)),
        }
    }
}

/// What reading a spec took from it, recorded on the reading thread for
/// the test that every tag and parameter key the reader knows is set by
/// a checked-in spec: each tag read in its own table's position, and for
/// each object read, the keys its reader knows and the ones the spec
/// gave. Outside test builds the notes are no-ops.
#[cfg(not(test))]
mod reads {
    pub(super) fn tag(_: super::Keys, _: &str) {}

    pub(super) fn keys<'k>(
        _: &str,
        _: impl Iterator<Item = &'k str>,
        _: impl Iterator<Item = &'k str>,
    ) {
    }
}

#[cfg(test)]
pub(crate) mod reads {
    use std::cell::RefCell;

    use super::Keys;

    /// One object as read: where it sat, the keys its reader knows and
    /// the ones the spec gave.
    pub(crate) struct KeysRead {
        pub section: String,
        pub known: Vec<String>,
        pub given: Vec<String>,
    }

    /// Everything read while [`recording`] ran.
    #[derive(Default)]
    pub(crate) struct Reads {
        /// `(table, tag)` per tag read in its table's position.
        pub tags: Vec<(Keys, String)>,
        pub keys: Vec<KeysRead>,
    }

    thread_local! {
        static READS: RefCell<Option<Reads>> = const { RefCell::new(None) };
    }

    /// Runs `read` and returns what it read on this thread.
    pub(crate) fn recording(read: impl FnOnce()) -> Reads {
        READS.with(|r| *r.borrow_mut() = Some(Reads::default()));
        read();
        READS.with(|r| r.borrow_mut().take()).unwrap_or_default()
    }

    fn with(note: impl FnOnce(&mut Reads)) {
        READS.with(|r| r.borrow_mut().as_mut().map(note));
    }

    /// Notes `tag`, read in `table`'s position.
    pub(super) fn tag(table: Keys, tag: &str) {
        with(|r| r.tags.push((table, tag.to_string())));
    }

    /// Notes an object read at `section`.
    pub(super) fn keys<'k>(
        section: &str,
        known: impl Iterator<Item = &'k str>,
        given: impl Iterator<Item = &'k str>,
    ) {
        with(|r| {
            r.keys.push(KeysRead {
                section: section.to_string(),
                known: known.map(str::to_string).collect(),
                given: given.map(str::to_string).collect(),
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_path_replaces_and_inserts() {
        let mut v = Value::Map(vec![(
            "a".into(),
            Value::Map(vec![("b".into(), Value::U64(1))]),
        )]);
        set_path(&mut v, "a.b", Value::U64(2)).unwrap();
        assert_eq!(v.get("a").unwrap().get("b"), Some(&Value::U64(2)));
        set_path(&mut v, "a.c", Value::Str("x".into())).unwrap();
        assert_eq!(v.get("a").unwrap().get("c"), Some(&Value::Str("x".into())));
        // Descending into a scalar fails.
        assert!(set_path(&mut v, "a.b.d", Value::Null).is_err());
    }

    #[test]
    fn set_path_indexes_into_lists() {
        let mut v = Value::Map(vec![(
            "axes".into(),
            Value::Seq(vec![
                Value::Map(vec![("values".into(), Value::Seq(vec![Value::U64(1)]))]),
                Value::Map(vec![("values".into(), Value::Seq(vec![Value::U64(2)]))]),
            ]),
        )]);
        set_path(
            &mut v,
            "axes.1.values",
            Value::Seq(vec![Value::U64(7), Value::U64(8)]),
        )
        .unwrap();
        let axes = v.get("axes").unwrap().as_seq().unwrap();
        assert_eq!(
            axes[1].get("values"),
            Some(&Value::Seq(vec![Value::U64(7), Value::U64(8)]))
        );
        // In-range element replacement works, out-of-range is an error
        // (overrides must never grow a list silently), and so is a
        // non-numeric segment against a list.
        set_path(&mut v, "axes.0", Value::U64(9)).unwrap();
        assert!(set_path(&mut v, "axes.5", Value::U64(1)).is_err());
        assert!(set_path(&mut v, "axes.first", Value::U64(1)).is_err());
    }

    fn json(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    #[test]
    fn dist_shorthands_normalize() {
        // Each shorthand reads to exactly the value its constructor builds.
        let at = At("system", "think");
        for (text, want) in [
            ("40", Dist::constant(40.0)),
            ("40.5", Dist::constant(40.5)),
            (r#"{"constant": 40}"#, Dist::constant(40.0)),
            (r#"{"exponential": 300}"#, Dist::exponential(300.0)),
            (
                r#"{"erlang": {"stages": 3, "mean": 12.0}}"#,
                Dist::Erlang(Erlang { stages: 3, mean: 12.0 }),
            ),
        ] {
            assert_eq!(distribution(&json(text), at).unwrap(), want, "{text}");
        }
        // Ranges are the config's `check()`: a zero mean reads as written.
        let zero = distribution(&json(r#"{"exponential": 0}"#), at).unwrap();
        assert_eq!(zero, Dist::ExpZig(ExpZig { mean: 0.0 }));
        for bad in [r#""nope""#, r#"{"erlang": {"stages": 2}}"#, r#"{"constant": "x"}"#] {
            let msg = distribution(&json(bad), at).unwrap_err().to_string();
            assert!(msg.contains("system.think"), "{bad}: {msg}");
        }
    }

    #[test]
    fn arrival_shorthands_normalize() {
        let at = At("system", "arrival");
        for (text, want) in [
            (r#""closed""#, ArrivalProcess::Closed),
            (
                r#"{"open": {"interarrival": {"exponential": 5}}}"#,
                ArrivalProcess::Open { interarrival: Dist::exponential(5.0) },
            ),
            (
                r#"{"open": {"interarrival": 5}}"#,
                ArrivalProcess::Open { interarrival: Dist::constant(5.0) },
            ),
            (
                r#"{"open_rate_per_s": 200}"#,
                ArrivalProcess::Open { interarrival: Dist::exponential(5.0) },
            ),
        ] {
            assert_eq!(arrival_process(&json(text), at).unwrap(), want, "{text}");
        }
        let open = ArrivalProcess::Open { interarrival: Dist::exponential(4.0) };
        assert_eq!(open_rate(250.0), open);
        for bad in [r#""open""#, r#"{"open_rate_per_s": 0}"#, "7"] {
            let msg = arrival_process(&json(bad), at).unwrap_err().to_string();
            assert!(msg.contains("system.arrival"), "{bad}: {msg}");
        }
    }
}
