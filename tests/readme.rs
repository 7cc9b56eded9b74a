//! README's crate table is the workspace's own: the facade, then each
//! `members` entry of the root `Cargo.toml`, with the `name` and
//! `description` of its manifest.

#[path = "common/readme.rs"]
mod readme;

use std::path::Path;

/// The value of the first `key = "…"` line of a manifest: the
/// `[package]` one in every manifest of this workspace.
fn field<'a>(manifest: &'a str, key: &str) -> &'a str {
    let prefix = format!("{key} = \"");
    manifest
        .lines()
        .find_map(|l| l.strip_prefix(&prefix)?.strip_suffix('"'))
        .unwrap_or_else(|| panic!("no `{key}` in the manifest"))
}

#[test]
fn readme_crate_table_is_the_manifests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |dir: &str| {
        std::fs::read_to_string(root.join(dir).join("Cargo.toml"))
            .unwrap_or_else(|e| panic!("{dir}/Cargo.toml: {e}"))
    };
    let workspace = read(".");
    let members = workspace
        .split("\nmembers = [")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("the root manifest lists its members");
    let dirs = members
        .split(',')
        .map(|m| m.trim().trim_matches('"'))
        .filter(|m| !m.is_empty());
    let mut table = String::from("| crate | path | description |\n|---|---|---|\n");
    for dir in std::iter::once(".").chain(dirs) {
        let manifest = read(dir);
        table += &format!(
            "| `{}` | `{dir}` | {} |\n",
            field(&manifest, "name"),
            field(&manifest, "description")
        );
    }
    readme::check_readme_block("crates", &table);
}
