//! Per-file analysis context: test regions and inline suppressions.
//!
//! * **Test regions** — line ranges covered by `#[cfg(test)]` or
//!   `#[test]` items (brace-matched from the token stream), or the whole
//!   file under an inner `#![cfg(test)]`. Most rules
//!   skip them: a unit test seeding an RNG literal or unwrapping a
//!   fixture is policy-clean.
//! * **Suppressions** — `// alc-lint: allow(rule, reason="…")` comments.
//!   The reason is *mandatory*; a reasonless or malformed allow is itself
//!   reported (rule `suppression-hygiene`), as is one that never
//!   suppressed anything.

use crate::lexer::{lex, Comment, Lexed, TokKind, Token};

/// One parsed `allow(...)` directive.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule being allowed.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
    /// Line the comment sits on.
    pub line: u32,
    /// The line whose findings it covers: its own when trailing code,
    /// otherwise the next line bearing tokens.
    pub target_line: u32,
}

/// A malformed suppression comment, reported as `suppression-hygiene`.
#[derive(Debug, Clone)]
pub struct SuppressionIssue {
    /// Line of the offending comment.
    pub line: u32,
    /// What was wrong.
    pub message: String,
}

/// Everything the rules need to know about one file.
pub struct SourceFile<'a> {
    /// Repo-relative path, `/`-separated.
    pub path: String,
    /// Raw source (for diagnostic snippets).
    pub text: &'a str,
    /// Token/comment streams.
    pub lexed: Lexed<'a>,
    /// Line ranges `(start, end)` inclusive that are test code.
    pub test_regions: Vec<(u32, u32)>,
    /// Parsed suppression directives.
    pub suppressions: Vec<Suppression>,
    /// Malformed suppression comments.
    pub suppression_issues: Vec<SuppressionIssue>,
}

impl<'a> SourceFile<'a> {
    /// Lexes and indexes `text`.
    pub fn new(path: String, text: &'a str) -> SourceFile<'a> {
        let lexed = lex(text);
        let test_regions = find_test_regions(&lexed.tokens);
        let (suppressions, suppression_issues) =
            parse_suppressions(&lexed.comments, &lexed.tokens);
        SourceFile {
            path,
            text,
            lexed,
            test_regions,
            suppressions,
            suppression_issues,
        }
    }

    /// Whether `line` lies inside a `#[cfg(test)]` / `#[test]` region.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| (s..=e).contains(&line))
    }

    /// The source text of `line` (1-based), for diagnostics.
    pub fn line_text(&self, line: u32) -> &'a str {
        self.text
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .unwrap_or("")
    }
}

/// Finds line ranges of items annotated `#[cfg(test)]` or `#[test]`
/// (also `#[cfg(all(test, …))]` — anything whose attribute tokens
/// contain the ident `test`). The region runs from the attribute to the
/// end of the item: the matching close of the first `{` block, or the
/// first `;` at attribute depth for block-less items.
fn find_test_regions(tokens: &[Token<'_>]) -> Vec<(u32, u32)> {
    let mut regions: Vec<(u32, u32)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // An inner `#![cfg(test)]` covers the rest of its file (a
        // `mod tests;` kept in a file of its own).
        const INNER: [&str; 8] = ["#", "!", "[", "cfg", "(", "test", ")", "]"];
        if tokens[i..].iter().map(|t| t.text).take(8).eq(INNER) {
            regions.push((tokens[i].line, tokens[tokens.len() - 1].line));
            break;
        }
        // An outer attribute: `#` `[` … `]` (not `#!`).
        if !(tokens[i].text == "#" && tokens.get(i + 1).is_some_and(|t| t.text == "[")) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let start_line = tokens[i].line;
        // Find the matching `]`, remembering whether `test` appears.
        let mut depth = 0usize;
        let mut has_test = false;
        let mut j = i + 1;
        while j < tokens.len() {
            match tokens[j].text {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "test" if tokens[j].kind == TokKind::Ident => has_test = true,
                _ => {}
            }
            j += 1;
        }
        if !has_test || j >= tokens.len() {
            i = j.max(i + 1);
            continue;
        }
        // Walk past any further attributes to the item, then to its end.
        let mut k = j + 1;
        let mut brace_depth = 0usize;
        let mut end_line = tokens.get(j).map_or(start_line, |t| t.line);
        while k < tokens.len() {
            let t = &tokens[k];
            match t.text {
                "{" => brace_depth += 1,
                "}" => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if brace_depth == 0 {
                        end_line = t.line;
                        break;
                    }
                }
                ";" if brace_depth == 0 => {
                    end_line = t.line;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        regions.push((start_line, end_line));
        i = attr_start + 1;
    }
    merge_regions(regions)
}

fn merge_regions(mut regions: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    regions.sort_unstable();
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(regions.len());
    for (s, e) in regions {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Parses `alc-lint:` directives out of the comment stream.
fn parse_suppressions(
    comments: &[Comment<'_>],
    tokens: &[Token<'_>],
) -> (Vec<Suppression>, Vec<SuppressionIssue>) {
    let mut sups = Vec::new();
    let mut issues = Vec::new();
    for c in comments {
        // Only plain `//` comments carry directives. Doc comments
        // (`///`, `//!`) and block comments merely *describe* the
        // syntax — e.g. this crate's own module docs.
        let Some(body) = c.text.strip_prefix("//") else {
            continue;
        };
        if body.starts_with('/') || body.starts_with('!') {
            continue;
        }
        let Some(directive) = body.trim_start().strip_prefix("alc-lint:") else {
            continue;
        };
        let directive = directive.trim();
        match parse_allow(directive) {
            Ok((rule, reason)) => sups.push(Suppression {
                rule,
                reason,
                line: c.line,
                target_line: target_line(c, tokens),
            }),
            Err(msg) => issues.push(SuppressionIssue {
                line: c.line,
                message: msg,
            }),
        }
    }
    (sups, issues)
}

/// The line a suppression comment covers: its own line when code shares
/// it (trailing comment), otherwise the next token-bearing line.
fn target_line(c: &Comment<'_>, tokens: &[Token<'_>]) -> u32 {
    if tokens.iter().any(|t| t.line == c.line) {
        return c.line;
    }
    tokens
        .iter()
        .map(|t| t.line)
        .filter(|&l| l > c.line)
        .min()
        .unwrap_or(c.line)
}

/// Parses `allow(rule, reason="…")`. Both parts are mandatory.
fn parse_allow(s: &str) -> Result<(String, String), String> {
    let inner = s
        .strip_prefix("allow(")
        .and_then(|x| x.strip_suffix(')'))
        .ok_or_else(|| {
            "malformed directive: want `alc-lint: allow(rule, reason=\"…\")`".to_string()
        })?;
    let (rule, rest) = inner.split_once(',').ok_or_else(|| {
        "suppression is missing its reason: `allow(rule, reason=\"…\")`".to_string()
    })?;
    let rule = rule.trim();
    if rule.is_empty() || !rule.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-') {
        return Err(format!("`{rule}` is not a rule name"));
    }
    let reason = rest
        .trim()
        .strip_prefix("reason=")
        .map(str::trim)
        .and_then(|r| r.strip_prefix('"'))
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| "suppression reason must be `reason=\"…\"`".to_string())?;
    if reason.trim().is_empty() {
        return Err("suppression reason must not be empty".to_string());
    }
    Ok((rule.to_string(), reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_becomes_a_region() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(2));
        assert!(f.in_test_region(4));
        assert!(f.in_test_region(5));
        assert!(!f.in_test_region(6));
    }

    #[test]
    fn test_fn_attribute_covers_only_the_fn() {
        let src = "#[test]\nfn t() {\n    body();\n}\nfn real() {}\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert!(f.in_test_region(3));
        assert!(!f.in_test_region(5));
    }

    #[test]
    fn cfg_attr_without_test_is_not_a_region() {
        let src = "#[cfg(feature = \"x\")]\nfn real() {}\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert!(!f.in_test_region(2));
    }

    #[test]
    fn blockless_cfg_test_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn real() {}\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert!(f.in_test_region(2));
        assert!(!f.in_test_region(3));
    }

    #[test]
    fn inner_cfg_test_covers_the_rest_of_the_file() {
        let src = "//! docs\n#![cfg(test)]\nuse x::Y;\nfn t() {}\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(2));
        assert!(f.in_test_region(4));
        let other = SourceFile::new("x.rs".into(), "#![cfg_attr(test, allow(x))]\nfn real() {}\n");
        assert!(!other.in_test_region(2));
    }

    #[test]
    fn trailing_suppression_targets_its_own_line() {
        let src = "use x::Y; // alc-lint: allow(hash-container, reason=\"lookup only\")\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert_eq!(f.suppressions.len(), 1);
        assert_eq!(f.suppressions[0].target_line, 1);
        assert_eq!(f.suppressions[0].rule, "hash-container");
        assert_eq!(f.suppressions[0].reason, "lookup only");
    }

    #[test]
    fn standalone_suppression_targets_next_code_line() {
        let src = "// alc-lint: allow(wall-clock, reason=\"startup stamp\")\n\nlet t = now();\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert_eq!(f.suppressions[0].target_line, 3);
    }

    #[test]
    fn reasonless_or_malformed_allows_are_issues() {
        for bad in [
            "// alc-lint: allow(hash-container)",
            "// alc-lint: allow(hash-container, reason=)",
            "// alc-lint: allow(hash-container, reason=\"\")",
            "// alc-lint: allowed(hash-container, reason=\"x\")",
            "// alc-lint: allow(bad rule!, reason=\"x\")",
        ] {
            let f = SourceFile::new("x.rs".into(), bad);
            assert_eq!(f.suppressions.len(), 0, "{bad}");
            assert_eq!(f.suppression_issues.len(), 1, "{bad}");
        }
    }

    #[test]
    fn doc_comments_describing_the_syntax_are_not_directives() {
        let src = "//! Suppress with `// alc-lint: allow(rule, reason=\"…\")`.\n\
                   /// See `alc-lint: allow(x)` — deliberately incomplete.\n\
                   /* alc-lint: allow(y) */\n\
                   fn real() {}\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert!(f.suppressions.is_empty());
        assert!(f.suppression_issues.is_empty());
    }

    #[test]
    fn string_containing_directive_is_ignored() {
        let src = "let s = \"// alc-lint: allow(x, reason=\\\"y\\\")\";\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert!(f.suppressions.is_empty());
        assert!(f.suppression_issues.is_empty());
    }
}
