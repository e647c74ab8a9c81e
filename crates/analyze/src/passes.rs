//! The lint passes: each one turns an invariant that ARCHITECTURE.md states
//! in prose into a machine-checked rule over the lexed token stream.
//!
//! All passes share two conventions:
//!
//! * **Test code is exempt** where a pass says so: token spans under a
//!   `#[cfg(test)]` module (or a `#[test]` / `#[cfg(test)]` function) are
//!   skipped by the panic-surface pass — tests are *supposed* to unwrap.
//! * **Suppression is explicit and recorded.** A finding on line `L` is
//!   suppressed by a `// mvi-allow: <lint> <justification>` comment on `L`
//!   or on the line directly above. Suppressions are not silent: they are
//!   returned alongside findings and surfaced in the report, so the
//!   escape-hatch inventory is always one `--json` run away.

use crate::lexer::{Lexed, Token};
use crate::{Finding, Lint, Suppression};

/// Which passes to run over a file (workspace mode scopes passes by path;
/// explicit-file mode turns everything on).
#[derive(Debug, Clone, Copy)]
pub struct PassSet {
    /// Run the lock-order pass.
    pub lock_order: bool,
    /// Run the SAFETY-comment pass.
    pub safety: bool,
    /// Run the panic-surface pass.
    pub panic: bool,
}

impl PassSet {
    /// Every pass enabled (explicit-file mode).
    pub fn all() -> Self {
        Self { lock_order: true, safety: true, panic: true }
    }
}

/// The outcome of running the enabled passes over one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations that were not suppressed.
    pub findings: Vec<Finding>,
    /// Violations silenced by an `mvi-allow` annotation.
    pub suppressed: Vec<Suppression>,
}

/// Runs `passes` over one lexed file. `file` is the label findings carry
/// (workspace-relative path in workspace mode).
pub fn run_passes(file: &str, lexed: &Lexed, passes: PassSet) -> FileReport {
    let mut raw = Vec::new();
    if passes.lock_order {
        lock_order_pass(file, lexed, &mut raw);
    }
    if passes.safety {
        safety_pass(file, lexed, &mut raw);
    }
    if passes.panic {
        panic_surface_pass(file, lexed, &mut raw);
    }
    let mut report = FileReport::default();
    for finding in raw {
        match allow_annotation(lexed, finding.lint, finding.line) {
            Some(justification) => report.suppressed.push(Suppression {
                lint: finding.lint,
                file: finding.file,
                line: finding.line,
                justification,
            }),
            None => report.findings.push(finding),
        }
    }
    report
}

/// Looks for a `// mvi-allow: <lint> …` annotation covering `line` (same
/// line or the line directly above). Returns the justification text.
fn allow_annotation(lexed: &Lexed, lint: Lint, line: u32) -> Option<String> {
    for candidate in [line, line.saturating_sub(1)] {
        if candidate == 0 {
            continue;
        }
        let Some(comment) = lexed.comment_at(candidate) else { continue };
        let Some(rest) = comment.text.split("mvi-allow:").nth(1) else { continue };
        let rest = rest.trim_start();
        if rest.starts_with(lint.name()) {
            return Some(rest[lint.name().len()..].trim_matches([' ', '—', '-', ':']).to_string());
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Pass 1: lock order (core → health)
// ---------------------------------------------------------------------------

/// The documented lock levels, in the only order they may be acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LockLevel {
    /// The engine's core state mutex (`state.lock()` / `lock_state()`).
    Core,
    /// The engine's health-counter mutex (`health.lock()` / `lock_health()`),
    /// the terminal level.
    Health,
}

impl LockLevel {
    fn name(self) -> &'static str {
        match self {
            LockLevel::Core => "core",
            LockLevel::Health => "health",
        }
    }
}

/// Enforces the `core → health` protocol per function body (the unit the
/// runtime protocol is stated over: every critical section in `crates/serve`
/// opens and closes inside one function).
///
/// Two rules:
/// * acquisitions inside one body must be non-descending in [`LockLevel`];
/// * at most one health-lock acquisition per body — the health mutex is not
///   reentrant, so a second acquisition while the first guard lives is a
///   self-deadlock, and a body's counter changes belong under one guard
///   anyway (that is what keeps every health report untorn).
///
/// The analysis is intraprocedural and drop-agnostic, i.e. deliberately
/// conservative: a body that releases a health guard before taking the core
/// lock is still flagged, because the protocol (ARCHITECTURE.md, "Locks & the
/// warm read path") bans that shape outright rather than
/// reasoning about guard lifetimes.
fn lock_order_pass(file: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    for body in function_bodies(&lexed.tokens) {
        let toks = &lexed.tokens[body.clone()];
        let mut max_seen: Option<(LockLevel, u32)> = None;
        let mut health_sites = 0usize;
        let mut i = 0;
        while i < toks.len() {
            let Some((level, line, width)) = acquisition_at(toks, i) else {
                i += 1;
                continue;
            };
            if let Some((max, max_line)) = max_seen {
                if level < max {
                    out.push(Finding {
                        lint: Lint::LockOrder,
                        file: file.to_string(),
                        line,
                        message: format!(
                            "{} lock acquired after {} lock (line {}); the protocol is \
                             core → health",
                            level.name(),
                            max.name(),
                            max_line
                        ),
                    });
                }
            }
            if level == LockLevel::Health {
                health_sites += 1;
                if health_sites == 2 {
                    out.push(Finding {
                        lint: Lint::LockOrder,
                        file: file.to_string(),
                        line,
                        message: "second health-lock acquisition in one function body; \
                                  the health mutex is not reentrant, so take it once and \
                                  apply every counter change under that guard"
                            .to_string(),
                    });
                }
            }
            if max_seen.is_none_or(|(max, _)| level > max) {
                max_seen = Some((level, line));
            }
            i += width;
        }
    }
}

/// Matches a lock acquisition starting at `toks[i]`; returns its level, line
/// and how many tokens the matched pattern spans.
fn acquisition_at(toks: &[Token], i: usize) -> Option<(LockLevel, u32, usize)> {
    let ident = toks[i].ident()?;
    let line = toks[i].line;
    let called = |width: usize| toks.get(i + width).is_some_and(|t| t.is_punct('('));
    // `<field>.lock()` / `<field>.try_lock()` on one of the engine's mutexes.
    let raw_lock = || {
        toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("lock") || t.is_ident("try_lock"))
            && called(3)
    };
    match ident {
        // `self.lock_state()` — the engine's poison-recovering core acquire.
        "lock_state" if called(1) => Some((LockLevel::Core, line, 2)),
        "state" if raw_lock() => Some((LockLevel::Core, line, 4)),
        // `self.lock_health()` — the poison-recovering health acquire.
        "lock_health" if called(1) => Some((LockLevel::Health, line, 2)),
        "health" if raw_lock() => Some((LockLevel::Health, line, 4)),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Pass 2: SAFETY comments on every `unsafe`
// ---------------------------------------------------------------------------

/// Requires every `unsafe` block, `unsafe fn` and `unsafe impl` to carry an
/// adjacent justification:
///
/// * blocks and impls: a `// SAFETY:` (or `/* SAFETY: */`) comment ending on
///   the line directly above (attribute lines in between are allowed), or
///   trailing on the same line;
/// * `unsafe fn`: the same, or a `# Safety` section in the doc comment
///   (rustdoc's convention for unsafe functions).
///
/// Adjacency is strict — a blank line breaks the chain — so a stale comment
/// cannot drift away from the code it justifies.
fn safety_pass(file: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    for (i, tok) in lexed.tokens.iter().enumerate() {
        if !tok.is_ident("unsafe") {
            continue;
        }
        let kind = match lexed.tokens.get(i + 1) {
            Some(t) if t.is_ident("impl") => "unsafe impl",
            Some(t) if t.is_ident("fn") || t.is_ident("extern") => "unsafe fn",
            _ => "unsafe block",
        };
        let accepts_doc_safety = kind == "unsafe fn";
        if has_adjacent_safety_comment(lexed, tok.line, accepts_doc_safety) {
            continue;
        }
        out.push(Finding {
            lint: Lint::Safety,
            file: file.to_string(),
            line: tok.line,
            message: format!(
                "{kind} without an adjacent `// SAFETY:` comment{}",
                if accepts_doc_safety { " or `# Safety` doc section" } else { "" }
            ),
        });
    }
}

/// Walks upward from `line` through contiguous comment/attribute lines
/// looking for a SAFETY justification (see [`safety_pass`] for the rules).
fn has_adjacent_safety_comment(lexed: &Lexed, line: u32, accept_doc: bool) -> bool {
    let satisfied =
        |text: &str| text.contains("SAFETY:") || (accept_doc && text.contains("# Safety"));
    // Trailing comment on the same line.
    if lexed.comment_at(line).is_some_and(|c| c.line == line && satisfied(&c.text)) {
        return true;
    }
    let mut l = line - 1;
    while l >= 1 {
        if let Some(comment) = lexed.comment_at(l) {
            if satisfied(&comment.text) {
                return true;
            }
            if comment.line <= 1 {
                return false;
            }
            l = comment.line - 1;
            continue;
        }
        let text = lexed.lines.get(l as usize - 1).map(String::as_str).unwrap_or("").trim();
        // Attributes may sit between the justification and the item.
        if text.starts_with("#[") || text.starts_with("#![") {
            l -= 1;
            continue;
        }
        return false;
    }
    false
}

// ---------------------------------------------------------------------------
// Pass 3: panic surface of the serving hot path
// ---------------------------------------------------------------------------

/// Denies `unwrap()` / `expect(…)` / `panic!` / `unreachable!` / `todo!` /
/// `unimplemented!` in non-test code: the serving hot path answers every
/// failure with a typed `ServeError`, so an unannotated panic site is
/// either a latent crash or an undocumented structural invariant. Sites
/// whose infallibility *is* structural carry `// mvi-allow: panic` with the
/// justification, which this pass records rather than hides.
fn panic_surface_pass(file: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    let test_spans = cfg_test_spans(toks);
    let in_test = |i: usize| test_spans.iter().any(|s| s.contains(&i));
    for i in 0..toks.len() {
        if in_test(i) {
            continue;
        }
        let t = &toks[i];
        let (what, line) = if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("unwrap"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            (".unwrap()", toks[i + 1].line)
        } else if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("expect"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            (".expect(…)", toks[i + 1].line)
        } else if toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && ["panic", "unreachable", "todo", "unimplemented"].iter().any(|m| t.is_ident(m))
        {
            // `name!` must be an invocation, not e.g. `x != y` (the `!` of
            // `!=` lexes separately but follows a value, not these idents).
            (t.ident().unwrap(), t.line)
        } else {
            continue;
        };
        let what = if what.starts_with('.') { what.to_string() } else { format!("{what}!") };
        out.push(Finding {
            lint: Lint::Panic,
            file: file.to_string(),
            line,
            message: format!(
                "{what} on the serving hot path; return a typed ServeError or annotate the \
                 structural invariant with `// mvi-allow: panic <why>`"
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Shared structure walkers
// ---------------------------------------------------------------------------

/// Token-index ranges of every function body (`fn name(…) { … }`), found by
/// brace matching at paren-depth zero after the `fn` keyword.
fn function_bodies(toks: &[Token]) -> Vec<std::ops::Range<usize>> {
    let mut bodies = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        let mut j = i + 1;
        let mut paren_depth = 0i32;
        // Find the body `{` (skipping closure/bound parens in the
        // signature), or `;` for a bodyless trait method declaration.
        let open = loop {
            match toks.get(j) {
                None => break None,
                Some(t) if t.is_punct('(') || t.is_punct('[') => paren_depth += 1,
                Some(t) if t.is_punct(')') || t.is_punct(']') => paren_depth -= 1,
                Some(t) if t.is_punct('{') && paren_depth == 0 => break Some(j),
                Some(t) if t.is_punct(';') && paren_depth == 0 => break None,
                Some(_) => {}
            }
            j += 1;
        };
        if let Some(open) = open {
            if let Some(close) = matching_brace(toks, open) {
                bodies.push(open + 1..close);
            }
        }
    }
    bodies
}

/// The token index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Token-index spans of test-only code: items introduced by `#[cfg(test)]`
/// or `#[test]` attributes (modules and functions alike — the span runs to
/// the end of the item's brace block).
fn cfg_test_spans(toks: &[Token]) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    for i in 0..toks.len() {
        let test_attr = toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
            && (toks.get(i + 2).is_some_and(|t| t.is_ident("test"))
                || (toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
                    && toks.get(i + 4).is_some_and(|t| t.is_ident("test"))));
        if !test_attr {
            continue;
        }
        // Scan past the attribute (and any further attributes) to the item,
        // then to its opening brace.
        let mut j = i + 2;
        let mut bracket_depth = 1i32; // we are inside `#[`
        while bracket_depth > 0 {
            match toks.get(j) {
                None => return spans,
                Some(t) if t.is_punct('[') => bracket_depth += 1,
                Some(t) if t.is_punct(']') => bracket_depth -= 1,
                Some(_) => {}
            }
            j += 1;
        }
        let mut paren_depth = 0i32;
        let open = loop {
            match toks.get(j) {
                None => break None,
                Some(t) if t.is_punct('(') || t.is_punct('[') => paren_depth += 1,
                Some(t) if t.is_punct(')') || t.is_punct(']') => paren_depth -= 1,
                Some(t) if t.is_punct('{') && paren_depth == 0 => break Some(j),
                Some(t) if t.is_punct(';') && paren_depth == 0 => break None,
                Some(_) => {}
            }
            j += 1;
        };
        if let Some(open) = open {
            if let Some(close) = matching_brace(toks, open) {
                spans.push(i..close + 1);
            }
        }
    }
    spans
}
