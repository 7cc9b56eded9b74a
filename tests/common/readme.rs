//! README's generated blocks. Each lies between a `<!-- begin NAME: …`
//! line and a `<!-- end NAME -->` line, and a test of the crate that owns
//! the table compares it byte for byte with what that crate renders;
//! `UPDATE_GOLDEN=1` rewrites the block instead. Included by `#[path]`
//! into each of those tests.

use std::path::PathBuf;

/// Checks README's block `name` against `rendered`, or rewrites it under
/// `UPDATE_GOLDEN=1`.
pub fn check_readme_block(name: &str, rendered: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|dir| dir.join("Cargo.lock").exists())
        .expect("the workspace root holds Cargo.lock")
        .join("README.md");
    let readme = std::fs::read_to_string(&path).expect("read README.md");
    let begin = format!("<!-- begin {name}:");
    let end = format!("<!-- end {name} -->");
    let at = readme
        .find(&begin)
        .unwrap_or_else(|| panic!("README.md has no `{begin}` line"));
    let start = at + readme[at..].find('\n').expect("the begin line ends") + 1;
    let stop = start
        + readme[start..]
            .find(&end)
            .unwrap_or_else(|| panic!("README.md has no `{end}` line"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let updated = format!("{}{rendered}{}", &readme[..start], &readme[stop..]);
        std::fs::write(&path, updated).expect("rewrite README.md");
        return;
    }
    assert!(
        readme[start..stop] == *rendered,
        "README block `{name}` is not what its owner renders \
         (UPDATE_GOLDEN=1 rewrites it)\n--- README.md\n{}--- rendered\n{rendered}",
        &readme[start..stop]
    );
}
