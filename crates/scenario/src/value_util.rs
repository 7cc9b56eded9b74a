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
//! The strictness lives here too, once: [`Obj`] reads every object
//! section of the DSL, knowing its keys from the ones its parser asks
//! for, and the field parsers beside it ([`positive`], [`nonempty`],
//! [`list`], …) type and range-check one value each, naming
//! `<section>.<key>` when it fails. What the reader refuses, each an
//! error that names its place rather than a value read some other way:
//!
//! * a section payload that is not an object (`{"hybrid": 7}`);
//! * a key given twice in one object, the open maps (`system`, `quick`,
//!   variant `set`s, controller parameters) and derive-parsed objects
//!   included;
//! * an unknown key, with the keys the section does know:
//!   ``unknown `clients` key `patience` (known: population, …)``;
//! * a mistyped, missing or out-of-range value, and an integer that is
//!   inexact or does not fit its field (`"terminals": 20.7`), never a
//!   truncated or wrapped one. Gate logs, metrics JSONL and `trace`
//!   profiles are read by the same rule, line-numbered, through
//!   `alc_runtime::read_jsonl`;
//! * a configuration the engine cannot run (each type's `check()`,
//!   asserted by its constructor too), and an `inputs` cell that nothing
//!   reads.

use std::fmt;

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
    let known: Vec<String> = known.into_iter().map(|k| k.as_ref().to_string()).collect();
    SpecError::new(format!(
        "unknown `{section}` key `{key}` (known: {})",
        known.join(", ")
    ))
}

/// The entries of an object, none of whose keys is given twice.
fn entries<'a>(v: &'a Value, section: &str) -> Result<&'a [(String, Value)], SpecError> {
    let entries = v
        .as_map()
        .ok_or_else(|| SpecError::new(format!("`{section}` must be an object")))?;
    for (i, (k, _)) in entries.iter().enumerate() {
        if entries[..i].iter().any(|(seen, _)| seen == k) {
            return Err(SpecError::new(format!("`{section}` gives `{k}` twice")));
        }
    }
    Ok(entries)
}

/// Where a field sits, for error messages: `<section>.<key>`.
#[derive(Clone, Copy)]
pub struct At<'a>(pub &'a str, pub &'a str);

impl fmt::Display for At<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.0, self.1)
    }
}

/// The strict reader of one object section. It opens only on an object
/// with no repeated key; [`Obj::opt`] and [`Obj::req`] hand each key's
/// value to a parser that is told where the value sits; and
/// [`Obj::finish`] rejects any key nobody took, so a section cannot
/// accept a key it does not read. The keys its parser asks for are the
/// section's keys — an unknown key's error lists them — so no table
/// beside the parser repeats them.
pub struct Obj<'a> {
    section: &'a str,
    entries: &'a [(String, Value)],
    taken: Vec<bool>,
    asked: Vec<&'static str>,
}

impl<'a> Obj<'a> {
    /// Opens `v` as the section named `section`.
    pub fn open(v: &'a Value, section: &'a str) -> Result<Self, SpecError> {
        let entries = entries(v, section)?;
        Ok(Obj {
            section,
            entries,
            taken: vec![false; entries.len()],
            asked: Vec::new(),
        })
    }

    /// Takes `key` and parses its value, `None` when the key is absent.
    pub fn opt<T>(
        &mut self,
        key: &'static str,
        parse: impl FnOnce(&Value, At<'_>) -> Result<T, SpecError>,
    ) -> Result<Option<T>, SpecError> {
        self.asked.push(key);
        let Some(i) = self.entries.iter().position(|(k, _)| k == key) else {
            return Ok(None);
        };
        self.taken[i] = true;
        parse(&self.entries[i].1, At(self.section, key)).map(Some)
    }

    /// Takes `key`, which the section cannot do without.
    pub fn req<T>(
        &mut self,
        key: &'static str,
        parse: impl FnOnce(&Value, At<'_>) -> Result<T, SpecError>,
    ) -> Result<T, SpecError> {
        self.opt(key, parse)?
            .ok_or_else(|| SpecError::new(format!("`{}` needs `{key}`", self.section)))
    }

    /// Takes `key`, an object of overrides on `T::default()` read by
    /// [`params`]. An absent key reads as `{}`: the defaults, by the
    /// same path.
    pub fn params<T>(&mut self, key: &'static str) -> Result<T, SpecError>
    where
        T: Default + serde::Serialize + serde::de::DeserializeOwned,
    {
        match self.opt(key, params)? {
            Some(p) => Ok(p),
            None => params(&Value::Map(Vec::new()), At(self.section, key)),
        }
    }

    /// Closes the section around what it parsed to: a key nobody took
    /// is unknown to it.
    pub fn finish<T>(self, parsed: T) -> Result<T, SpecError> {
        match self.taken.iter().position(|taken| !taken) {
            None => {
                let given = self.entries.iter().map(|(k, _)| k.as_str());
                reads::keys(
                    self.section,
                    self.section,
                    self.asked.iter().copied(),
                    given,
                );
                Ok(parsed)
            }
            Some(i) => Err(unknown_key(self.section, &self.entries[i].0, &self.asked)),
        }
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

/// Parses an open object field (path → value, or config field → value)
/// into its ordered pairs.
pub fn pairs(v: &Value, at: At<'_>) -> Result<Vec<(String, Value)>, SpecError> {
    entries(v, &at.to_string()).map(<[_]>::to_vec)
}

/// Parses an object of overrides on `T::default()`.
pub fn params<T>(v: &Value, at: At<'_>) -> Result<T, SpecError>
where
    T: Default + serde::Serialize + serde::de::DeserializeOwned,
{
    let what = at.to_string();
    from_overrides(entries(v, &what)?, &what)
}

/// Deserializes through the derive shim, which is strict itself: a key
/// the type does not have, or has twice, is its error, named here as
/// part of `what`.
pub fn strict<T: serde::de::DeserializeOwned>(v: &Value, what: &str) -> Result<T, SpecError> {
    T::from_value(v).map_err(|e| SpecError::new(format!("invalid `{what}`: {e}")))
}

/// Builds a `T` by overlaying `overrides` (key → value, shallow) on top
/// of `T::default()`'s serialized form. Unknown keys are rejected with
/// the `what` context, so config typos surface as errors instead of
/// silently keeping the default.
pub fn from_overrides<T>(overrides: &[(String, Value)], what: &str) -> Result<T, SpecError>
where
    T: Default + serde::Serialize + serde::de::DeserializeOwned,
{
    let Value::Map(mut entries) = T::default().to_value() else {
        // alc-lint: allow(panic-in-lib, reason="override targets are structs, which serialize to maps")
        unreachable!("override targets serialize to maps");
    };
    for (k, v) in overrides {
        match entries.iter_mut().find(|(ek, _)| ek == k) {
            Some(e) => e.1 = v.clone(),
            None => {
                return Err(unknown_key(what, k, entries.iter().map(|(ek, _)| ek)));
            }
        }
    }
    reads::keys(
        what,
        std::any::type_name::<T>(),
        entries.iter().map(|(k, _)| k.as_str()),
        overrides.iter().map(|(k, _)| k.as_str()),
    );
    strict(&Value::Map(entries), what)
}

/// The distribution shorthands written as single-key objects.
pub(crate) const DIST: Keys = &["constant", "exponential", "erlang"];

/// Normalizes the DSL's distribution shorthands into the canonical
/// (externally tagged) `alc_des::dist::Dist` representation:
///
/// * a bare number → `{"Constant": [x]}`
/// * `{"constant": x}`, `{"exponential": mean}` (ziggurat-sampled),
///   `{"erlang": {"stages", "mean"}}`
/// * already-canonical tags pass through unchanged.
pub fn normalize_dist(v: &Value) -> Result<Value, SpecError> {
    if let Some(x) = v.as_f64() {
        return Ok(tagged("Constant", Value::Seq(vec![Value::Num(x)])));
    }
    let Some([(tag, payload)]) = v.as_map() else {
        return Err(SpecError::new(
            "distribution must be a number or a single-key object",
        ));
    };
    reads::tag(DIST, tag);
    let at = At("distribution", tag);
    let mean = |m: f64| Value::Map(vec![("mean".into(), Value::Num(m))]);
    Ok(match tag.as_str() {
        "constant" => tagged("Constant", Value::Seq(vec![Value::Num(number(payload, at)?)])),
        // The exponential shorthand lowers to the ziggurat sampler — the
        // default since its promotion; spell the canonical
        // `{"Exponential": …}` tag to request inversion sampling.
        "exponential" => tagged("ExpZig", mean(number(payload, at)?)),
        "erlang" => tagged("Erlang", payload.clone()),
        // Canonical tags pass through.
        "Constant" | "Uniform" | "Exponential" | "ExpZig" | "Erlang" | "HyperExp" => v.clone(),
        other => return Err(unknown_key("distribution", other, DIST)),
    })
}

/// Normalizes the DSL's arrival-process shorthands into the canonical
/// `ArrivalProcess` representation:
///
/// * `"closed"` → `"Closed"`
/// * `{"open": {"interarrival": <dist>}}` → `{"Open": …}`
/// * `{"open_rate_per_s": λ}` → an `Open` exponential stream with mean
///   `1000/λ` ms
/// * canonical forms pass through (with the inner dist normalized).
pub fn normalize_arrival(v: &Value) -> Result<Value, SpecError> {
    match v {
        Value::Str(s) if s == "closed" || s == "Closed" => Ok(Value::Str("Closed".into())),
        Value::Map(entries) if entries.len() == 1 => {
            let (tag, payload) = &entries[0];
            match tag.as_str() {
                "open" | "Open" => {
                    let mut o = Obj::open(payload, "open")?;
                    let dist = o.req("interarrival", |v, _| normalize_dist(v))?;
                    o.finish(tagged("Open", Value::Map(vec![("interarrival".into(), dist)])))
                }
                "open_rate_per_s" => {
                    let rate = positive(payload, At("arrival", tag))?;
                    let mean = Value::Map(vec![("mean".into(), Value::Num(1000.0 / rate))]);
                    let dist = tagged("ExpZig", mean);
                    Ok(tagged("Open", Value::Map(vec![("interarrival".into(), dist)])))
                }
                other => Err(SpecError::new(format!(
                    "unknown arrival process `{other}` (want `closed`, `open`, or `open_rate_per_s`)"
                ))),
            }
        }
        _ => Err(SpecError::new(
            "arrival must be `\"closed\"` or a single-key object",
        )),
    }
}

fn tagged(tag: &str, payload: Value) -> Value {
    Value::Map(vec![(tag.to_string(), payload)])
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

    /// One object as read: where it sat, the group its keys pool in (its
    /// type when the derive reads it, else its section), the keys its
    /// reader knows and the ones the spec gave.
    pub(crate) struct KeysRead {
        pub section: String,
        pub group: String,
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

    /// Notes an object read at `section`, pooling its keys in `group`.
    pub(super) fn keys<'k>(
        section: &str,
        group: &str,
        known: impl Iterator<Item = &'k str>,
        given: impl Iterator<Item = &'k str>,
    ) {
        with(|r| {
            r.keys.push(KeysRead {
                section: section.to_string(),
                group: group.to_string(),
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

    #[test]
    fn dist_shorthands_normalize() {
        let exp = normalize_dist(&Value::Map(vec![("exponential".into(), Value::U64(300))]))
            .unwrap();
        let d: alc_des::dist::Dist = serde::Deserialize::from_value(&exp).unwrap();
        assert_eq!(d, alc_des::dist::Dist::exponential(300.0));

        let c = normalize_dist(&Value::U64(40)).unwrap();
        let d: alc_des::dist::Dist = serde::Deserialize::from_value(&c).unwrap();
        assert_eq!(d, alc_des::dist::Dist::constant(40.0));

        assert!(normalize_dist(&Value::Str("nope".into())).is_err());
    }

    #[test]
    fn arrival_shorthands_normalize() {
        use alc_tpsim::config::ArrivalProcess;
        let closed = normalize_arrival(&Value::Str("closed".into())).unwrap();
        let a: ArrivalProcess = serde::Deserialize::from_value(&closed).unwrap();
        assert_eq!(a, ArrivalProcess::Closed);

        let open = normalize_arrival(&Value::Map(vec![(
            "open_rate_per_s".into(),
            Value::Num(200.0),
        )]))
        .unwrap();
        let a: ArrivalProcess = serde::Deserialize::from_value(&open).unwrap();
        assert_eq!(
            a,
            ArrivalProcess::Open {
                interarrival: alc_des::dist::Dist::exponential(5.0)
            }
        );
    }

    #[test]
    fn from_overrides_rejects_unknown_keys() {
        use alc_tpsim::config::ControlConfig;
        let good: ControlConfig = from_overrides(
            &[("displacement".to_string(), Value::Bool(true))],
            "control",
        )
        .unwrap();
        assert!(good.displacement);
        let bad: Result<ControlConfig, _> = from_overrides(
            &[("displacment".to_string(), Value::Bool(true))],
            "control",
        );
        assert!(bad.is_err());
    }
}
