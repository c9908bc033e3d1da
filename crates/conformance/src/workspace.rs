//! Workspace model: every `.rs` source file and every `Cargo.toml` manifest
//! reachable from the workspace root, pre-digested for the rules.
//!
//! The loader does three things rules should never have to repeat:
//!
//! 1. strip comments and string literals from each source line, so token
//!    scans don't fire on prose;
//! 2. classify each line as test or non-test code (`#[cfg(test)]` blocks,
//!    `tests/` and `benches/` directories);
//! 3. collect `conformance:allow(<rule>)` suppressions per line, from
//!    plain `//` comments only (a marker quoted in a string or a doc
//!    comment suppresses nothing).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One line of a source file, pre-processed for linting.
#[derive(Debug)]
pub struct Line {
    /// The raw text as it appears in the file.
    pub raw: String,
    /// The text with comments and string/char literals blanked out.
    pub code: String,
    /// True when the line sits inside a `#[cfg(test)]` block or a
    /// test-only file (`tests/`, `benches/`).
    pub is_test: bool,
    /// The `conformance:allow(...)` markers in this line's comment.
    pub allows: Vec<Allow>,
}

/// One `conformance:allow(<rule>): <reason>` marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule it suppresses.
    pub rule: String,
    /// The justification after `):`, trimmed; empty when there is none.
    pub reason: String,
}

/// A Rust source file with crate attribution.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Short crate name (`"core"` for `matraptor-core`), or `None` when the
    /// file belongs to the root facade package.
    pub crate_name: Option<String>,
    /// Pre-processed lines, in file order.
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// The 1-based line of the comment that allows `rule` on `line`
    /// (1-based): the flagged line itself, else the line above.
    pub fn allow_line(&self, rule: &str, line: usize) -> Option<usize> {
        [line, line.saturating_sub(1)].into_iter().find(|&l| {
            l > 0 && self.lines.get(l - 1).is_some_and(|l| l.allows.iter().any(|a| a.rule == rule))
        })
    }
}

/// A parsed `Cargo.toml`.
#[derive(Debug)]
pub struct Manifest {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// `package.name`, if the manifest declares a package.
    pub package_name: Option<String>,
    /// Crate names listed under `[dependencies]`, with the 1-based line of
    /// each entry.
    pub deps: Vec<(String, usize)>,
    /// Crate names listed under `[dev-dependencies]`.
    pub dev_deps: Vec<(String, usize)>,
    /// `conformance:allow(...)` markers in `#` comments, with the 1-based
    /// line of each.
    pub allows: Vec<(usize, Allow)>,
}

/// The whole workspace, ready for rule checks.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    pub sources: Vec<SourceFile>,
    pub manifests: Vec<Manifest>,
}

impl Workspace {
    /// Walks `root` and loads every source file and manifest.
    ///
    /// Skips `target/`, hidden directories, and `tests/fixtures/` trees —
    /// the latter hold deliberately-violating synthetic workspaces used by
    /// the conformance crate's own tests.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut ws =
            Workspace { root: root.to_path_buf(), sources: Vec::new(), manifests: Vec::new() };
        walk(root, root, &mut ws)?;
        ws.sources.sort_by(|a, b| a.rel.cmp(&b.rel));
        ws.manifests.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(ws)
    }

    /// The short crate name (`"core"`, `"mem"`, ...) a relative path
    /// belongs to, derived from its `crates/<name>/` prefix.
    fn crate_of(rel: &str) -> Option<String> {
        let rest = rel.strip_prefix("crates/")?;
        let name = rest.split('/').next()?;
        Some(name.to_string())
    }
}

fn walk(root: &Path, dir: &Path, ws: &mut Workspace) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.filter_map(Result::ok).collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel = rel_path(root, &path);
        if path.is_dir() {
            if name.starts_with('.') || name == "target" {
                continue;
            }
            if rel.ends_with("tests/fixtures") {
                continue; // synthetic violation trees, linted by their own tests
            }
            walk(root, &path, ws)?;
        } else if name == "Cargo.toml" {
            let text = fs::read_to_string(&path)?;
            ws.manifests.push(parse_manifest(&rel, &text));
        } else if name.ends_with(".rs") {
            let text = fs::read_to_string(&path)?;
            let in_test_dir = rel.split('/').any(|c| c == "tests" || c == "benches");
            ws.sources.push(SourceFile {
                crate_name: Workspace::crate_of(&rel),
                lines: process_source(&text, in_test_dir),
                rel,
            });
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

// ---------------------------------------------------------------------------
// Source pre-processing
// ---------------------------------------------------------------------------

/// Strips comments and string/char literals, tracks `#[cfg(test)]` blocks,
/// and collects `conformance:allow(...)` markers.
pub fn process_source(text: &str, whole_file_is_test: bool) -> Vec<Line> {
    let (stripped, comments) = strip_comments_and_strings(text);
    let raw_lines: Vec<&str> = text.lines().collect();
    let code_lines: Vec<&str> = stripped.lines().collect();
    let mut allows = vec![Vec::new(); raw_lines.len()];
    for (line, comment) in comments {
        let doc = comment.starts_with("//!")
            || (comment.starts_with("///") && !comment.starts_with("////"));
        if let Some(slot) = allows.get_mut(line).filter(|_| !doc) {
            *slot = parse_allows(&comment);
        }
    }

    // Classify test regions: a `#[cfg(test)]` attribute marks the block
    // opened by the next `{` (and everything nested in it) as test code.
    let mut is_test = vec![whole_file_is_test; raw_lines.len()];
    let mut depth: i64 = 0;
    let mut pending_cfg_test = false;
    let mut test_exit_depth: Option<i64> = None;
    for (i, code) in code_lines.iter().enumerate() {
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            pending_cfg_test = true;
        }
        for ch in code.chars() {
            match ch {
                '{' => {
                    if pending_cfg_test && test_exit_depth.is_none() {
                        test_exit_depth = Some(depth);
                        pending_cfg_test = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_exit_depth == Some(depth) {
                        test_exit_depth = None;
                    }
                }
                _ => {}
            }
        }
        if test_exit_depth.is_some() || pending_cfg_test {
            is_test[i] = true;
        }
    }

    raw_lines
        .iter()
        .zip(allows)
        .enumerate()
        .map(|(i, (raw, allows))| Line {
            raw: (*raw).to_string(),
            code: code_lines.get(i).copied().unwrap_or("").to_string(),
            is_test: is_test[i],
            allows,
        })
        .collect()
}

/// Extracts every `conformance:allow(<rule>)` marker of a comment, each
/// with the justification that follows it.
fn parse_allows(comment: &str) -> Vec<Allow> {
    const MARKER: &str = "conformance:allow(";
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find(MARKER) {
        rest = &rest[pos + MARKER.len()..];
        let Some(end) = rest.find(')') else {
            break;
        };
        let rule = rest[..end].trim().to_string();
        rest = &rest[end + 1..];
        let reason = rest[..rest.find(MARKER).unwrap_or(rest.len())].trim();
        let reason = reason.strip_prefix(':').unwrap_or("").trim().to_string();
        if !rule.is_empty() {
            out.push(Allow { rule, reason });
        }
    }
    out
}

/// Replaces comments, string literals, and char literals with spaces while
/// preserving line structure, so token scans never fire on prose, and
/// returns every `//` comment with its 0-based line. Handles `//`, nested
/// `/* */`, `"..."` with escapes, raw strings `r#"..."#`, and char
/// literals (disambiguated from lifetimes).
fn strip_comments_and_strings(text: &str) -> (String, Vec<(usize, String)>) {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut comments = Vec::new();
    // The line `out` has reached, counted up to byte `seen` of it.
    let (mut line, mut seen) = (0, 0);
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '/' if chars.get(i + 1) == Some(&'/') => {
                line += out[seen..].matches('\n').count();
                seen = out.len();
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    out.push(' ');
                    i += 1;
                }
                comments.push((line, chars[start..i].iter().collect()));
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let mut level = 1;
                out.push(' ');
                out.push(' ');
                i += 2;
                while i < chars.len() && level > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        level += 1;
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        level -= 1;
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else {
                        out.push(if chars[i] == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                }
            }
            'r' if is_raw_string_start(&chars, i) => {
                let hashes = count_hashes(&chars, i + 1);
                out.push(' ');
                for _ in 0..hashes + 1 {
                    out.push(' ');
                }
                i += 1 + hashes + 1; // r, #..., opening quote
                let closer: String =
                    std::iter::once('"').chain(std::iter::repeat_n('#', hashes)).collect();
                let closer: Vec<char> = closer.chars().collect();
                while i < chars.len() {
                    if chars[i..].starts_with(&closer[..]) {
                        for _ in 0..closer.len() {
                            out.push(' ');
                        }
                        i += closer.len();
                        break;
                    }
                    out.push(if chars[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            '"' => {
                out.push(' ');
                i += 1;
                while i < chars.len() {
                    if chars[i] == '\\' {
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else if chars[i] == '"' {
                        out.push(' ');
                        i += 1;
                        break;
                    } else {
                        out.push(if chars[i] == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                }
            }
            '\'' if is_char_literal(&chars, i) => {
                out.push(' ');
                i += 1;
                while i < chars.len() {
                    if chars[i] == '\\' {
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else if chars[i] == '\'' {
                        out.push(' ');
                        i += 1;
                        break;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    (out, comments)
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // `r"` or `r#...#"`, but not the tail of an identifier like `for`.
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn count_hashes(chars: &[char], mut i: usize) -> usize {
    let mut n = 0;
    while chars.get(i) == Some(&'#') {
        n += 1;
        i += 1;
    }
    n
}

pub(crate) fn is_char_literal(chars: &[char], i: usize) -> bool {
    // 'x' or '\n' is a char literal; 'a in `&'a str` is a lifetime.
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

// ---------------------------------------------------------------------------
// Manifest parsing
// ---------------------------------------------------------------------------

/// Minimal TOML-subset parser: section headers and `name = ...` entries.
/// Good enough for Cargo.toml dependency tables, which is all we read.
pub fn parse_manifest(rel: &str, text: &str) -> Manifest {
    let mut m = Manifest {
        rel: rel.to_string(),
        package_name: None,
        deps: Vec::new(),
        dev_deps: Vec::new(),
        allows: Vec::new(),
    };
    #[derive(PartialEq)]
    enum Section {
        Package,
        Deps,
        DevDeps,
        Other,
    }
    let mut section = Section::Other;
    for (idx, raw) in text.lines().enumerate() {
        let (line, comment) = raw.split_once('#').unwrap_or((raw, ""));
        m.allows.extend(parse_allows(comment).into_iter().map(|a| (idx + 1, a)));
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            // `[dependencies.foo]` counts foo as a dependency entry.
            section = match line.trim_matches(['[', ']']) {
                "package" => Section::Package,
                "dependencies" => Section::Deps,
                "dev-dependencies" => Section::DevDeps,
                s => {
                    if let Some(name) = s.strip_prefix("dependencies.") {
                        m.deps.push((name.to_string(), idx + 1));
                    } else if let Some(name) = s.strip_prefix("dev-dependencies.") {
                        m.dev_deps.push((name.to_string(), idx + 1));
                    }
                    Section::Other
                }
            };
            continue;
        }
        match section {
            Section::Package => {
                if let Some(rest) = line.strip_prefix("name") {
                    let rest = rest.trim_start();
                    if let Some(v) = rest.strip_prefix('=') {
                        m.package_name = Some(v.trim().trim_matches('"').to_string());
                    }
                }
            }
            Section::Deps | Section::DevDeps => {
                // `foo = ...`, `foo.workspace = true`, `foo = { ... }`
                let name: String = line
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_')
                    .collect();
                if !name.is_empty() {
                    if section == Section::Deps {
                        m.deps.push((name, idx + 1));
                    } else {
                        m.dev_deps.push((name, idx + 1));
                    }
                }
            }
            Section::Other => {}
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_comments_but_keeps_structure() {
        let s = strip_comments_and_strings("let x = 1; // HashMap\nlet y = 2;").0;
        assert!(!s.contains("HashMap"));
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("let y = 2;"));
    }

    #[test]
    fn strips_strings_and_nested_block_comments() {
        let s = strip_comments_and_strings(r#"panic!("HashMap"); /* a /* b */ c */ let z = 3;"#).0;
        assert!(!s.contains("HashMap"));
        assert!(!s.contains("a /* b"));
        assert!(s.contains("panic!("));
        assert!(s.contains("let z = 3;"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let s = strip_comments_and_strings("fn f<'a>(x: &'a str) { let c = '\"'; let d = 'y'; }").0;
        assert!(s.contains("fn f<'a>(x: &'a str)"));
        assert!(!s.contains('y'));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let s = strip_comments_and_strings(r##"let s = r#"HashMap " quote"#; let t = 1;"##).0;
        assert!(!s.contains("HashMap"));
        assert!(s.contains("let t = 1;"));
    }

    #[test]
    fn cfg_test_blocks_are_marked() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let lines = process_source(src, false);
        assert!(!lines[0].is_test);
        assert!(lines[1].is_test);
        assert!(lines[3].is_test);
        assert!(!lines[5].is_test);
    }

    #[test]
    fn allow_markers_parse_from_plain_comments_only() {
        let src = "x(); // conformance:allow(panic-safety): reason\n\
                   /// conformance:allow(layering): a doc comment\n\
                   let s = \"// conformance:allow(layering): a string\";\n\
                   y(); // conformance:allow(cast-safety)\n";
        let lines = process_source(src, false);
        let allow = |rule: &str, reason: &str| Allow { rule: rule.into(), reason: reason.into() };
        assert_eq!(lines[0].allows, [allow("panic-safety", "reason")]);
        assert!(lines[1].allows.is_empty() && lines[2].allows.is_empty());
        assert_eq!(lines[3].allows, [allow("cast-safety", "")]);
    }

    #[test]
    fn manifest_sections() {
        let m = parse_manifest(
            "Cargo.toml",
            "[package]\nname = \"matraptor-core\"\n[dependencies]\nmatraptor-sim.workspace = true\n[dev-dependencies]\nmatraptor-sparse = { path = \"x\" }\n",
        );
        assert_eq!(m.package_name.as_deref(), Some("matraptor-core"));
        assert_eq!(m.deps[0].0, "matraptor-sim");
        assert_eq!(m.dev_deps[0].0, "matraptor-sparse");
    }
}
