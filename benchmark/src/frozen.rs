//! The frozen scenario catalog: a copy of the product's specs taken when
//! the benchmark was defined, so that adding or editing a spec later
//! cannot move `catalog-full`. `MANIFEST` pins every byte.

use std::path::{Path, PathBuf};

use alc_scenario::LoadedSpec;
use serde::Value;

use crate::stats::Fnv1a;

/// One `MANIFEST` line: `<fnv1a-64 hex> <bytes> <path relative to the
/// catalog directory>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub digest: u64,
    pub bytes: u64,
    pub path: String,
}

pub fn parse_manifest(text: &str) -> Result<Vec<Entry>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut parts = l.split_ascii_whitespace();
            let (Some(d), Some(b), Some(p), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("MANIFEST line needs `digest bytes path`: `{l}`"));
            };
            Ok(Entry {
                digest: u64::from_str_radix(d, 16).map_err(|e| format!("digest `{d}`: {e}"))?,
                bytes: b.parse().map_err(|e| format!("byte length `{b}`: {e}"))?,
                path: p.to_string(),
            })
        })
        .collect()
}

/// The `MANIFEST` text for the files currently under `dir` (specs, then
/// `traces/`), for re-freezing.
pub fn render_manifest(dir: &Path) -> std::io::Result<String> {
    let mut paths: Vec<String> = Vec::new();
    for sub in ["", "traces"] {
        let mut names: Vec<String> = std::fs::read_dir(dir.join(sub))?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_file())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(".json") || n.ends_with(".jsonl"))
            .map(|n| {
                if sub.is_empty() {
                    n
                } else {
                    format!("{sub}/{n}")
                }
            })
            .collect();
        names.sort();
        paths.extend(names);
    }
    let mut out =
        String::from("# fnv1a-64 bytes path — regenerate with `benchmark/run.sh --manifest`\n");
    for p in paths {
        let bytes = std::fs::read(dir.join(&p))?;
        out.push_str(&format!("{:016x} {} {p}\n", Fnv1a::of(&bytes), bytes.len()));
    }
    Ok(out)
}

/// Checks every file `MANIFEST` names against its recorded length and
/// digest and returns the spec paths (the `*.json` entries), in
/// manifest order.
pub fn verify(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let text = std::fs::read_to_string(dir.join("MANIFEST"))
        .map_err(|e| format!("cannot read {}/MANIFEST: {e}", dir.display()))?;
    let entries = parse_manifest(&text)?;
    let mut specs = Vec::new();
    for e in &entries {
        let path = dir.join(&e.path);
        let bytes = std::fs::read(&path).map_err(|err| format!("{}: {err}", path.display()))?;
        if bytes.len() as u64 != e.bytes || Fnv1a::of(&bytes) != e.digest {
            return Err(format!(
                "{} differs from MANIFEST (got {} bytes, {:016x}); re-freeze only in a benchmark PR",
                e.path,
                bytes.len(),
                Fnv1a::of(&bytes)
            ));
        }
        if e.path.ends_with(".json") {
            specs.push(path);
        }
    }
    if specs.is_empty() {
        return Err("MANIFEST names no spec".to_string());
    }
    Ok(specs)
}

/// Reads one frozen spec and shifts its seed by `seed_offset` (`0` = as
/// checked in). The product only ever sees the resulting tree.
pub fn load(path: &Path, seed_offset: u64) -> Result<LoadedSpec, String> {
    let mut loaded = LoadedSpec::read(path).map_err(|e| e.to_string())?;
    let own = loaded
        .value
        .get("seed")
        .and_then(Value::as_u64)
        .ok_or_else(|| {
            format!(
                "{}: frozen specs carry an explicit integer seed",
                path.display()
            )
        })?;
    loaded
        .apply_sets(&[(
            "seed".to_string(),
            Value::U64(own.wrapping_add(seed_offset)),
        )])
        .map_err(|e| e.to_string())?;
    Ok(loaded)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_and_rejects_junk() {
        let text = "# comment\n00000000000000ff 12 a.json\n\ncbf29ce484222325 0 traces/t.jsonl\n";
        let entries = parse_manifest(text).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[0],
            Entry {
                digest: 0xff,
                bytes: 12,
                path: "a.json".into()
            }
        );
        assert!(parse_manifest("zz 1 a.json").is_err());
        assert!(parse_manifest("ff one a.json").is_err());
        assert!(parse_manifest("ff 1").is_err());
        assert!(parse_manifest("ff 1 a.json extra").is_err());
    }

    /// The checked-in catalog matches its MANIFEST, and a seed offset
    /// lands in the tree the product compiles.
    #[test]
    fn checked_in_catalog_verifies_and_takes_a_seed() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads/catalog");
        let specs = verify(&dir).unwrap();
        assert_eq!(specs.len(), 25);
        assert_eq!(
            render_manifest(&dir).unwrap(),
            std::fs::read_to_string(dir.join("MANIFEST")).unwrap()
        );
        let as_is = load(&specs[0], 0).unwrap();
        let shifted = load(&specs[0], 5).unwrap();
        let seed = |l: &LoadedSpec| l.value.get("seed").and_then(Value::as_u64).unwrap();
        assert_eq!(seed(&shifted), seed(&as_is) + 5);
        let plan = shifted.compile(true).unwrap();
        assert_eq!(plan.variants[0].seeds[0], seed(&shifted));
    }
}
