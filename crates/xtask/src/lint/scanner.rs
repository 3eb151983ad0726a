//! A lightweight lexical scanner for Rust source.
//!
//! The rules match on *code* text only: this module blanks out comments,
//! string/char literals, and doc text (replacing them with spaces so
//! column positions survive), while separately capturing line-comment
//! text for `cqs-lint:` suppression directives. It also tracks three
//! pieces of structure the rules need:
//!
//! * brace depth, to scope regions;
//! * `#[cfg(test)]` module regions (word-boundary match on `test`, so
//!   `feature = "pretest"` does not count);
//! * the stack of enclosing `fn` names, for hot-path rules.
//!
//! This is deliberately not a full parser — it is a few hundred lines of
//! std-only code that errs on the side of *not* flagging (strings and
//! comments can never fire a rule) and is trivially auditable.

use std::collections::BTreeSet;

/// One source line after lexical cleanup.
#[derive(Clone, Debug)]
pub struct ScannedLine {
    /// 1-based line number.
    pub number: usize,
    /// The line with comments and literal contents blanked to spaces.
    pub code: String,
    /// Rules suppressed on this line via `// cqs-lint: allow(...)`
    /// (trailing on the line, or on a standalone comment line directly
    /// above).
    pub allows: Vec<String>,
    /// True inside a `#[cfg(test)]` module body.
    pub in_test: bool,
    /// Names of enclosing functions, outermost first, as of the start of
    /// this line.
    pub fns: Vec<String>,
    /// Brace depth at the start of the line.
    pub depth: usize,
}

impl ScannedLine {
    /// Whether `rule` is suppressed on this line.
    pub fn allowed(&self, rule: &str) -> bool {
        self.allows.iter().any(|a| a == rule)
    }
}

/// A whole scanned file.
#[derive(Clone, Debug, Default)]
pub struct ScannedFile {
    /// All lines, in order.
    pub lines: Vec<ScannedLine>,
    /// Rules suppressed for the entire file via
    /// `// cqs-lint: allow-file(...)`.
    pub file_allows: BTreeSet<String>,
    /// Where each `allow-file(...)` directive sits: (1-based line, rule).
    /// The engine uses these to report unused file-level suppressions.
    pub file_allow_sites: Vec<(usize, String)>,
}

impl ScannedFile {
    /// Whether `rule` is suppressed at `line` (line- or file-level).
    pub fn suppressed(&self, line: &ScannedLine, rule: &str) -> bool {
        line.allowed(rule) || self.file_allows.contains(rule)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Scans `src` into cleaned lines with structural annotations.
pub fn scan(src: &str) -> ScannedFile {
    let (code_lines, comment_lines) = strip(src);
    annotate(code_lines, comment_lines)
}

/// Pass 1: blank comments/literals, capture comment text per line.
fn strip(src: &str) -> (Vec<String>, Vec<String>) {
    let mut code_lines = Vec::new();
    let mut comment_lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut mode = Mode::Code;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();

        if c == '\n' {
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            code_lines.push(std::mem::take(&mut code));
            comment_lines.push(std::mem::take(&mut comment));
            i += 1;
            continue;
        }

        match mode {
            Mode::Code => match c {
                '/' if next == Some('/') => {
                    mode = Mode::LineComment;
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                }
                '/' if next == Some('*') => {
                    mode = Mode::BlockComment(1);
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                }
                '"' => {
                    mode = Mode::Str;
                    code.push('"');
                    i += 1;
                }
                'r' | 'b' if raw_string_hashes(&chars, i).is_some() => {
                    let (hashes, consumed) = raw_string_hashes(&chars, i).unwrap();
                    mode = Mode::RawStr(hashes);
                    for _ in 0..consumed {
                        code.push(' ');
                    }
                    i += consumed;
                }
                '\'' => {
                    // Lifetime (`'a`, `'static`) vs char literal: a
                    // lifetime is `'` + ident not closed by another `'`.
                    if is_char_literal(&chars, i) {
                        mode = Mode::Char;
                        code.push('\'');
                        i += 1;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    code.push(c);
                    i += 1;
                }
            },
            Mode::LineComment => {
                comment.push(c);
                code.push(' ');
                i += 1;
            }
            Mode::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            Mode::Str => match c {
                '\\' => {
                    code.push(' ');
                    if next.is_some() {
                        code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                '"' => {
                    mode = Mode::Code;
                    code.push('"');
                    i += 1;
                }
                _ => {
                    code.push(' ');
                    i += 1;
                }
            },
            Mode::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    for _ in 0..=hashes as usize {
                        code.push(' ');
                    }
                    i += 1 + hashes as usize;
                    mode = Mode::Code;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            Mode::Char => match c {
                '\\' => {
                    code.push(' ');
                    if next.is_some() {
                        code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                '\'' => {
                    mode = Mode::Code;
                    code.push('\'');
                    i += 1;
                }
                _ => {
                    code.push(' ');
                    i += 1;
                }
            },
        }
    }
    code_lines.push(code);
    comment_lines.push(comment);
    (code_lines, comment_lines)
}

/// Detects `r"`, `r#"`, `br##"`, ... at `i`; returns (hash count, chars
/// consumed up to and including the opening quote).
fn raw_string_hashes(chars: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((hashes, j - i + 1))
    } else {
        None
    }
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Distinguishes `'x'` / `'\n'` (char literal) from `'a` (lifetime).
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(&c) if c != '\'' => chars.get(i + 2) == Some(&'\''),
        _ => false,
    }
}

/// Pass 2: suppressions, test regions, fn stack, brace depth.
fn annotate(code_lines: Vec<String>, comment_lines: Vec<String>) -> ScannedFile {
    let mut file_allows = BTreeSet::new();
    let mut file_allow_sites: Vec<(usize, String)> = Vec::new();
    let mut pending_allows: Vec<String> = Vec::new();
    let mut lines = Vec::with_capacity(code_lines.len());

    let mut depth = 0usize;
    // (depth at which the test module's `{` opened)
    let mut test_regions: Vec<usize> = Vec::new();
    let mut fn_stack: Vec<(String, usize)> = Vec::new();
    let mut pending_test_attr = false;
    let mut pending_mod_test = false;
    let mut pending_fn: Option<String> = None;

    for (idx, (code, comment)) in code_lines.iter().zip(comment_lines.iter()).enumerate() {
        let mut allows: Vec<String> = std::mem::take(&mut pending_allows);
        let (line_allows, file_only) = parse_directives(comment);
        for rule in file_only {
            file_allow_sites.push((idx + 1, rule.clone()));
            file_allows.insert(rule);
        }
        let has_code = !code.trim().is_empty();
        if has_code {
            allows.extend(line_allows);
        } else {
            // Standalone comment line: directives apply to the next line
            // that carries code.
            pending_allows = line_allows;
            pending_allows.extend(allows.iter().cloned());
        }

        let in_test = !test_regions.is_empty();
        let fns: Vec<String> = fn_stack.iter().map(|(n, _)| n.clone()).collect();
        lines.push(ScannedLine {
            number: idx + 1,
            code: code.clone(),
            allows,
            in_test,
            fns,
            depth,
        });

        // --- structural updates for subsequent lines ---
        if contains_test_cfg(code) {
            pending_test_attr = true;
        }
        if pending_test_attr && contains_word(code, "mod") {
            pending_mod_test = true;
            pending_test_attr = false;
        }
        if pending_fn.is_none() {
            if let Some(name) = fn_name(code) {
                pending_fn = Some(name);
            }
        }
        // A signature terminated by `;` (trait method, extern) never
        // opens a body.
        if pending_fn.is_some() && code.contains(';') && !code.contains('{') {
            pending_fn = None;
        }

        for c in code.chars() {
            match c {
                '{' => {
                    if pending_mod_test {
                        test_regions.push(depth);
                        pending_mod_test = false;
                    }
                    if let Some(name) = pending_fn.take() {
                        fn_stack.push((name, depth));
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if test_regions.last() == Some(&depth) {
                        test_regions.pop();
                    }
                    while fn_stack.last().map(|(_, d)| *d == depth).unwrap_or(false) {
                        fn_stack.pop();
                    }
                }
                _ => {}
            }
        }
    }

    ScannedFile {
        lines,
        file_allows,
        file_allow_sites,
    }
}

/// Extracts `allow(...)` and `allow-file(...)` rule lists from a line
/// comment's text.
fn parse_directives(comment: &str) -> (Vec<String>, Vec<String>) {
    let mut line_rules = Vec::new();
    let mut file_rules = Vec::new();
    let Some(pos) = comment.find("cqs-lint:") else {
        return (line_rules, file_rules);
    };
    let rest = &comment[pos + "cqs-lint:".len()..];
    for (kind, sink) in [
        ("allow-file(", &mut file_rules),
        ("allow(", &mut line_rules),
    ] {
        let mut search = rest;
        while let Some(start) = search.find(kind) {
            // `allow(` also matches inside `allow-file(`; skip those for
            // the plain form.
            if kind == "allow(" && start >= 5 && &search[start - 5..start] == "-file" {
                search = &search[start + kind.len()..];
                continue;
            }
            let after = &search[start + kind.len()..];
            if let Some(end) = after.find(')') {
                for rule in after[..end].split(',') {
                    let rule = rule.trim();
                    // Only kebab-case rule names count as directives;
                    // prose like `allow(...)` in a doc comment does not.
                    if rule.starts_with(|c: char| c.is_ascii_lowercase())
                        && rule
                            .chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
                    {
                        sink.push(rule.to_string());
                    }
                }
                search = &after[end..];
            } else {
                break;
            }
        }
    }
    (line_rules, file_rules)
}

/// `#[cfg(test)]` or any cfg attribute containing the *word* `test`
/// (so `feature = "pretest"` does not count — though note literals are
/// already blanked by pass 1, making this mostly about `all(test, ...)`).
fn contains_test_cfg(code: &str) -> bool {
    if !code.contains("#[cfg(") && !code.contains("#[cfg_attr(") {
        return false;
    }
    contains_word(code, "test")
}

/// Word-boundary containment check.
pub fn contains_word(code: &str, word: &str) -> bool {
    find_word(code, word, 0).is_some()
}

/// Finds `word` at a word boundary in `code`, starting from `from`.
pub fn find_word(code: &str, word: &str, from: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut start = from;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + word.len().max(1);
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Extracts the name from a `fn name...` item on this line, if any.
fn fn_name(code: &str) -> Option<String> {
    let at = find_word(code, "fn", 0)?;
    let rest = code[at + 2..].trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = scan("let x = \"HashMap\"; // HashMap in comment\n");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[0].code.contains("let x ="));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = scan("let x = r#\"thread_rng()\"#; let y = 1;\n");
        assert!(!f.lines[0].code.contains("thread_rng"));
        assert!(f.lines[0].code.contains("let y = 1;"));
    }

    #[test]
    fn block_comments_nest() {
        let f = scan("/* outer /* inner */ still comment */ let z = 3;\n");
        assert!(!f.lines[0].code.contains("inner"));
        assert!(f.lines[0].code.contains("let z = 3;"));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let f = scan("fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x';\n");
        assert!(f.lines[0].code.contains("str"));
        assert!(!f.lines[1].code.contains('x'));
    }

    #[test]
    fn trailing_allow_applies_to_its_line() {
        let f = scan("foo(); // cqs-lint: allow(hash-default)\nbar();\n");
        assert!(f.lines[0].allowed("hash-default"));
        assert!(!f.lines[1].allowed("hash-default"));
    }

    #[test]
    fn standalone_allow_applies_to_next_line() {
        let f = scan("// cqs-lint: allow(wall-clock, ambient-rng)\nfoo();\n");
        assert!(f.lines[1].allowed("wall-clock"));
        assert!(f.lines[1].allowed("ambient-rng"));
        assert!(!f.lines[0].allowed("wall-clock") || f.lines[0].code.trim().is_empty());
    }

    #[test]
    fn allow_file_applies_everywhere() {
        let f = scan("fn a() {}\n// cqs-lint: allow-file(float-eq)\nfn b() {}\n");
        assert!(f.file_allows.contains("float-eq"));
        assert!(f.suppressed(&f.lines[0], "float-eq"));
    }

    #[test]
    fn cfg_test_region_is_tracked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n";
        let f = scan(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[3].in_test, "inside test mod");
        assert!(!f.lines[5].in_test, "after test mod");
    }

    #[test]
    fn substring_test_feature_is_not_a_test_cfg_but_all_test_is() {
        // Literals are blanked, so `feature = "pretest"` can't match;
        // the word `test` in all(test, ...) must.
        let src = "#[cfg(all(test, feature = \"pretest\"))]\nmod pretests {\n    fn t() {}\n}\n";
        let f = scan(src);
        assert!(f.lines[2].in_test);
        let src2 = "#[cfg(feature = \"pretest\")]\nmod pretests {\n    fn t() {}\n}\n";
        let f2 = scan(src2);
        assert!(!f2.lines[2].in_test);
    }

    #[test]
    fn fn_stack_is_tracked() {
        let src = "fn outer() {\n    let c = 1;\n    fn inner() {\n        let d = 2;\n    }\n}\n";
        let f = scan(src);
        assert_eq!(f.lines[1].fns, vec!["outer".to_string()]);
        assert_eq!(
            f.lines[3].fns,
            vec!["outer".to_string(), "inner".to_string()]
        );
        assert!(f.lines[5].fns.len() <= 1);
    }

    #[test]
    fn trait_method_decl_does_not_enter_fn_stack() {
        let src =
            "trait T {\n    fn decl(&self);\n    fn has_default(&self) {\n        ();\n    }\n}\n";
        let f = scan(src);
        assert_eq!(f.lines[3].fns, vec!["has_default".to_string()]);
    }

    #[test]
    fn raw_string_with_hashes_containing_quote_hash() {
        // `"#` inside an `r##"..."##` body must not close the literal.
        let f = scan("let x = r##\"has \"# inside unsafe \"##; let y = 2;\n");
        assert!(!f.lines[0].code.contains("unsafe"));
        assert!(f.lines[0].code.contains("let y = 2;"));
    }

    #[test]
    fn multiline_string_spanning_cfg_test_boundary() {
        // A string literal that *contains* `#[cfg(test)]` across lines
        // must not open a test region: the attribute text is data.
        let src = "let s = \"first line\n#[cfg(test)]\nmod tests {\";\nfn real() { let a = 1; }\n";
        let f = scan(src);
        assert!(!f.lines[1].code.contains("cfg"));
        assert!(!f.lines[3].in_test, "string contents opened a test region");
        assert!(f.lines[3].code.contains("let a = 1;"));
    }

    #[test]
    fn multiline_string_blanks_interior_code_words() {
        let src = "let s = \"\n    x.unwrap()\n\";\nlet t = 0;\n";
        let f = scan(src);
        assert!(!f.lines[1].code.contains("unwrap"));
        assert!(f.lines[3].code.contains("let t = 0;"));
    }

    #[test]
    fn file_allow_sites_record_directive_lines() {
        let f = scan("fn a() {}\n// cqs-lint: allow-file(float-eq)\nfn b() {}\n");
        assert_eq!(f.file_allow_sites, vec![(2, "float-eq".to_string())]);
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_word("pretest", "test"));
        assert!(contains_word("all(test, x)", "test"));
    }
}
