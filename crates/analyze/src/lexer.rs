//! A hand-rolled Rust lexer: just enough tokenization for the lint passes.
//!
//! The container building this workspace is offline, so `syn` is not an
//! option; fortunately none of the passes need a parse tree. They need a
//! *token stream* in which comments, strings and doc text can never be
//! mistaken for code — `unwrap` inside a doc example must not trip the
//! panic-surface lint, and `// SAFETY:` prose must be visible as a comment
//! with a line number. The lexer therefore produces:
//!
//! * [`Token`]s — identifiers and single-character punctuation with 1-based
//!   line numbers (literals are consumed and dropped: no pass needs them);
//! * [`Comment`]s — every `//…` and `/* … */` comment with its line span and
//!   raw text, which is where the SAFETY lint and the `mvi-allow:`
//!   suppression grammar look;
//! * the raw source split into lines, for the adjacency walks.
//!
//! The tricky corners it handles: nested block comments, raw strings
//! (`r"…"`, `r#"…"#`, byte and C variants), escaped string/char literals,
//! and the lifetime-vs-char-literal ambiguity (`'a` vs `'a'`).

/// One lexical token the passes can match on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// 1-based source line the token starts on.
    pub line: u32,
}

/// Token payload: the passes only ever need identifiers and punctuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unsafe`, `lock_health`, `Ordering`, …).
    Ident(String),
    /// A single punctuation character (`.`, `(`, `!`, `{`, …). Multi-char
    /// operators arrive as consecutive tokens (`::` is `:` `:`).
    Punct(char),
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            TokenKind::Punct(_) => None,
        }
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }
}

/// A comment with its line span (both 1-based, inclusive) and raw text,
/// including the `//` / `/*` sigils.
#[derive(Debug, Clone)]
pub struct Comment {
    /// First line of the comment.
    pub line: u32,
    /// Last line of the comment (equal to `line` for `//` comments).
    pub end_line: u32,
    /// Raw comment text.
    pub text: String,
}

/// The lexed form of one source file.
#[derive(Debug)]
pub struct Lexed {
    /// Code tokens in source order (comments, strings and literals removed).
    pub tokens: Vec<Token>,
    /// Every comment in source order.
    pub comments: Vec<Comment>,
    /// The raw source split into lines (index 0 is line 1).
    pub lines: Vec<String>,
}

impl Lexed {
    /// The comment spanning source line `line`, if any.
    pub fn comment_at(&self, line: u32) -> Option<&Comment> {
        self.comments.iter().find(|c| c.line <= line && line <= c.end_line)
    }
}

/// Lexes `source` (see the module docs for what is and is not preserved).
pub fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                comments.push(Comment {
                    line,
                    end_line: line,
                    text: chars[start..i].iter().collect(),
                });
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let (start, start_line) = (i, line);
                let mut depth = 0usize;
                while i < chars.len() {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                comments.push(Comment {
                    line: start_line,
                    end_line: line,
                    text: chars[start..i.min(chars.len())].iter().collect(),
                });
            }
            '"' => i = skip_string(&chars, i, &mut line),
            '\'' => i = skip_char_or_lifetime(&chars, i, &mut line),
            c if c.is_ascii_digit() => i = skip_number(&chars, i),
            c if c.is_alphabetic() || c == '_' => {
                // Raw/byte string prefixes lex as an identifier start; peel
                // them off before committing to an identifier.
                if let Some(next) = raw_or_byte_string(&chars, i) {
                    i = skip_prefixed_string(&chars, i, next, &mut line);
                    continue;
                }
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                tokens
                    .push(Token { kind: TokenKind::Ident(chars[start..i].iter().collect()), line });
            }
            c => {
                tokens.push(Token { kind: TokenKind::Punct(c), line });
                i += 1;
            }
        }
    }
    Lexed { tokens, comments, lines: source.lines().map(str::to_owned).collect() }
}

/// If an identifier starting at `i` is actually a raw/byte string prefix
/// (`r"`, `r#`, `b"`, `b'`, `br`, `c"`, `cr`, …), returns the index of the
/// first `"` / `#` / `'` after the prefix letters.
fn raw_or_byte_string(chars: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    for _ in 0..2 {
        match chars.get(j) {
            Some('r' | 'b' | 'c') => j += 1,
            _ => break,
        }
    }
    if j == i {
        return None;
    }
    match chars.get(j) {
        Some('"') => Some(j),
        Some('#') => {
            // Distinguish `r#"raw"#` from a raw identifier like `r#fn`:
            // a raw string has `"` right after its `#` fence.
            let mut k = j;
            while chars.get(k) == Some(&'#') {
                k += 1;
            }
            (chars.get(k) == Some(&'"')).then_some(j)
        }
        Some('\'') if chars[i..j] == ['b'] => Some(j),
        _ => None,
    }
}

/// Skips a string/char literal whose quote (or raw `#` fence) starts at
/// `quote`, given the prefix began earlier; returns the index past it.
fn skip_prefixed_string(chars: &[char], start: usize, quote: usize, line: &mut u32) -> usize {
    let raw = chars[start..quote].contains(&'r');
    if !raw {
        return match chars[quote] {
            '\'' => skip_char_or_lifetime(chars, quote, line),
            _ => skip_string(chars, quote, line),
        };
    }
    // Raw string: count `#` fence, then scan for the closing `"` + fence.
    let mut i = quote;
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
        } else if chars[i] == '"' && chars[i + 1..].iter().take(hashes).all(|&c| c == '#') {
            return i + 1 + hashes;
        }
        i += 1;
    }
    i
}

/// Skips a `"…"` string starting at the opening quote; returns the index
/// past the closing quote.
fn skip_string(chars: &[char], start: usize, line: &mut u32) -> usize {
    let mut i = start + 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Disambiguates `'a'` (char literal) from `'a` (lifetime) at a `'`:
/// a backslash or a closing quote right after one payload char means a char
/// literal; otherwise it is a lifetime and only the `'` is consumed (the
/// lifetime name then lexes as a normal identifier, which is harmless).
fn skip_char_or_lifetime(chars: &[char], start: usize, line: &mut u32) -> usize {
    match chars.get(start + 1) {
        Some('\\') => {
            // Escaped char literal: scan to the closing quote.
            let mut i = start + 2;
            while i < chars.len() && chars[i] != '\'' {
                i += 1;
            }
            i + 1
        }
        Some('\n') => {
            // `'` then newline cannot be a literal; treat as stray.
            *line += 1;
            start + 1
        }
        Some(_) if chars.get(start + 2) == Some(&'\'') => start + 3,
        _ => start + 1,
    }
}

/// Skips a numeric literal (digits, `_`, type suffixes, a fractional part —
/// but not the `..` of a range expression).
fn skip_number(chars: &[char], start: usize) -> usize {
    let mut i = start;
    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
        i += 1;
    }
    if chars.get(i) == Some(&'.') && chars.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
        i += 1;
        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.iter().filter_map(|t| t.ident().map(str::to_owned)).collect()
    }

    #[test]
    fn comments_and_strings_never_leak_tokens() {
        let src = r##"
// unwrap in a comment
/* panic! in /* a nested */ block */
let s = "unsafe .unwrap() inside a string";
let r = r#"raw "panic!" body"#;
let c = 'x';
let lt: &'static str = "y";
real_ident();
"##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
        assert!(!ids.contains(&"unsafe".to_string()));
        // The lifetime name lexes as an identifier; the char payload does not.
        assert!(ids.contains(&"static".to_string()));
        assert!(!ids.contains(&"x".to_string()));
    }

    #[test]
    fn comment_spans_and_text_are_recorded() {
        let src = "let a = 1;\n// SAFETY: fine\nunsafe { op() }\n/* multi\nline */\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[0].text.contains("SAFETY:"));
        assert_eq!((lexed.comments[1].line, lexed.comments[1].end_line), (4, 5));
        let unsafe_tok = lexed.tokens.iter().find(|t| t.is_ident("unsafe")).unwrap();
        assert_eq!(unsafe_tok.line, 3);
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let s = \"one\ntwo\";\nafter();";
        let lexed = lex(src);
        let after = lexed.tokens.iter().find(|t| t.is_ident("after")).unwrap();
        assert_eq!(after.line, 3);
    }

    #[test]
    fn number_with_method_call_and_ranges() {
        let src = "let x = 0..n; let y = 1.5f64; let z = 3.max(4);";
        let ids = idents(src);
        assert!(ids.contains(&"n".to_string()));
        assert!(ids.contains(&"max".to_string()));
    }
}
