//! CI guard: every relative link in the repo's markdown must resolve.
//!
//! ```text
//! linkcheck [ROOT]
//! ```
//!
//! Walks `ROOT` (default `.`) for `*.md` files — skipping `target/`,
//! `.git/`, and anything else that starts with a dot — extracts inline
//! `[text](destination)` links plus reference definitions
//! (`[label]: destination`), and checks that every *relative*
//! destination exists on disk, resolved against the linking file's
//! directory. External schemes (`http:`, `https:`, `mailto:`) and
//! pure in-page anchors (`#…`) are skipped; a `path#anchor` suffix is
//! stripped before the existence check.
//!
//! Code is cited by name, never by line: a `path.rs:<digits>` anchor
//! anywhere outside a fenced block fails the check, and every
//! `` `item` in `path.rs` `` citation (the path resolved from `ROOT`,
//! else from the citing file's directory; `A::b` names both `A` and `b`)
//! must name a `fn`, `struct`, `enum`, `trait`, `type` or `const`
//! declared in that file. Exits nonzero listing every broken link and
//! anchor, so docs can't drift from the tree they describe.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn markdown_files(root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            markdown_files(&path, out)?;
        } else if name.to_ascii_lowercase().ends_with(".md") {
            out.push(path);
        }
    }
    Ok(())
}

/// The lines of a markdown document outside fenced code blocks.
fn prose_lines(text: &str) -> impl Iterator<Item = &str> {
    let mut in_fence = false;
    text.lines().filter(move |line| {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") || trimmed.starts_with("~~~") {
            in_fence = !in_fence;
            return false;
        }
        !in_fence
    })
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `source` declares `name` as a `fn`, `struct`, `enum`, `trait`,
/// `type` or `const`.
fn declares(source: &str, name: &str) -> bool {
    ["fn", "struct", "enum", "trait", "type", "const"]
        .iter()
        .any(|kw| {
            let needle = format!("{kw} {name}");
            source.match_indices(&needle).any(|(at, _)| {
                let before = source[..at].chars().next_back();
                let after = source[at + needle.len()..].chars().next();
                !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
            })
        })
}

/// What is wrong with the code anchors of one markdown document: every
/// `path.rs:<digits>` line anchor, and every `` `item` in `path.rs` ``
/// citation whose file `source_of` cannot read or does not declare the
/// item.
fn anchor_errors(text: &str, source_of: impl Fn(&str) -> Option<String>) -> Vec<String> {
    let mut errors = Vec::new();
    for line in prose_lines(text) {
        for token in line.split(|c: char| !(is_ident(c) || "/.:-".contains(c))) {
            let line_number = token.split_once(".rs:").map(|(_, after)| after);
            if line_number.is_some_and(|n| n.starts_with(|c: char| c.is_ascii_digit())) {
                errors.push(format!("line anchor {token:?} (cite the item by name)"));
            }
        }
    }
    // Citations may wrap, so match them over the prose with every run of
    // whitespace folded to one space. A double-backtick span quotes
    // backticks (e.g. the citation pattern itself) and cites nothing.
    let folded = prose_lines(text)
        .flat_map(str::split_whitespace)
        .collect::<Vec<_>>()
        .join(" ");
    let prose: String = folded.split("``").step_by(2).collect();
    for (at, sep) in prose.match_indices("` in `") {
        let Some(open) = prose[..at].rfind('`') else {
            continue;
        };
        let item = prose[open + 1..at].trim_end_matches("()");
        let rest = &prose[at + sep.len()..];
        let Some(path) = rest.find('`').map(|close| &rest[..close]) else {
            continue;
        };
        let is_item = |seg: &str| !seg.is_empty() && seg.chars().all(is_ident);
        if !path.ends_with(".rs") || !item.split("::").all(is_item) {
            continue;
        }
        match source_of(path) {
            None => errors.push(format!("`{item}` cited in `{path}`, which does not exist")),
            Some(source) => {
                for name in item.split("::").filter(|name| !declares(&source, name)) {
                    errors.push(format!(
                        "`{item}` cited in `{path}`, which declares no `{name}`"
                    ));
                }
            }
        }
    }
    errors
}

/// Extracts link destinations from one markdown document: inline
/// `[text](dest)` (tolerating one level of nested brackets in the text,
/// e.g. image-in-link) and reference definitions `[label]: dest` at
/// line starts. Fenced code blocks are skipped — schemas and shell
/// examples are full of `[...]` that are not links.
fn destinations(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in prose_lines(text) {
        let trimmed = line.trim_start();
        // Reference definition: [label]: destination
        if let Some(rest) = trimmed.strip_prefix('[') {
            if let Some(close) = rest.find(']') {
                if let Some(dest) = rest[close + 1..].strip_prefix(':') {
                    let dest = dest.trim();
                    if !dest.is_empty() {
                        out.push(dest.split_whitespace().next().unwrap().to_string());
                        continue;
                    }
                }
            }
        }
        // Inline links: scan for ](dest), then walk brackets back.
        let bytes = line.as_bytes();
        let mut i = 0;
        while i + 1 < bytes.len() {
            if bytes[i] == b']' && bytes[i + 1] == b'(' {
                let start = i + 2;
                let mut depth = 1usize;
                let mut j = start;
                while j < bytes.len() && depth > 0 {
                    match bytes[j] {
                        b'(' => depth += 1,
                        b')' => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                if depth == 0 {
                    let dest = line[start..j - 1].trim();
                    // `[x](dest "title")` — the destination is the
                    // first whitespace-delimited token.
                    if let Some(first) = dest.split_whitespace().next() {
                        out.push(first.to_string());
                    }
                    i = j;
                    continue;
                }
            }
            i += 1;
        }
    }
    out
}

/// `true` when the destination is out of scope for a filesystem check.
fn is_external(dest: &str) -> bool {
    dest.starts_with('#')
        || dest.contains("://")
        || dest.starts_with("mailto:")
        || dest.starts_with("data:")
}

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    let mut files = Vec::new();
    if let Err(e) = markdown_files(&root, &mut files) {
        eprintln!("linkcheck: cannot walk {}: {e}", root.display());
        return ExitCode::FAILURE;
    }
    files.sort();
    let mut broken: Vec<String> = Vec::new();
    let mut checked = 0usize;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                broken.push(format!("{}: unreadable: {e}", file.display()));
                continue;
            }
        };
        let dir = file.parent().unwrap_or(Path::new("."));
        let source_of = |path: &str| {
            std::fs::read_to_string(root.join(path))
                .or_else(|_| std::fs::read_to_string(dir.join(path)))
                .ok()
        };
        for error in anchor_errors(&text, source_of) {
            broken.push(format!("{}: {error}", file.display()));
        }
        for dest in destinations(&text) {
            if is_external(&dest) {
                continue;
            }
            let path_part = dest.split('#').next().unwrap_or("");
            if path_part.is_empty() {
                continue;
            }
            checked += 1;
            let target = if let Some(abs) = path_part.strip_prefix('/') {
                root.join(abs)
            } else {
                dir.join(path_part)
            };
            if !target.exists() {
                broken.push(format!(
                    "{}: broken link {dest:?} (resolved to {})",
                    file.display(),
                    target.display()
                ));
            }
        }
    }
    if broken.is_empty() {
        println!(
            "linkcheck: {checked} relative links across {} markdown files all resolve",
            files.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("linkcheck: {} broken link(s) or anchor(s):", broken.len());
        for b in &broken {
            eprintln!("  {b}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_inline_and_reference_links_and_skips_fences() {
        let md = "\
see [docs](docs/API.md) and [ext](https://example.com) plus [a](#x)\n\
[ref]: ../other.md\n\
```\n\
not a [link](inside/fence.md)\n\
```\n\
[titled](path/to.md \"title\")\n";
        let d = destinations(md);
        assert_eq!(
            d,
            vec![
                "docs/API.md",
                "https://example.com",
                "#x",
                "../other.md",
                "path/to.md"
            ]
        );
        assert!(is_external("https://example.com"));
        assert!(is_external("#x"));
        assert!(!is_external("docs/API.md"));
    }

    #[test]
    fn line_anchors_fail_and_item_citations_must_be_declared() {
        let md = "\
see `crates/net/src/wire.rs:353` and (wire.rs:18) but not `wire.rs` alone\n\
```\n\
error at src/main.rs:10:5 inside a fence\n\
```\n\
`read_request` in `crates/net/src/wire.rs` and `Limits::max_head` in\n\
`crates/net/src/wire.rs`, then `gone` in `crates/net/src/wire.rs`,\n\
`x-deadline-ms` in `crates/net/src/wire.rs` (not an item),\n\
`serve` in `missing.rs`, `read_request()` in `notes.md`,\n\
a rule quoted as `` `item` in `path.rs` ``\n";
        let wire = "pub struct Limits {}\nconst max_head: usize = 1;\n\
                    pub fn read_request() {}\nfn not_gone() {} // gone\n";
        let errors = anchor_errors(md, |path| {
            (path == "crates/net/src/wire.rs").then(|| wire.to_string())
        });
        assert_eq!(
            errors,
            vec![
                "line anchor \"crates/net/src/wire.rs:353\" (cite the item by name)",
                "line anchor \"wire.rs:18\" (cite the item by name)",
                "`gone` cited in `crates/net/src/wire.rs`, which declares no `gone`",
                "`serve` cited in `missing.rs`, which does not exist",
            ]
        );
        assert!(declares("pub(crate) fn fill<T>()", "fill"));
        assert!(declares("impl X { type Item = u8; }", "Item"));
        assert!(!declares("fn filled()", "fill"));
        assert!(!declares("let fill = 1;", "fill"));
    }
}
