//! `mvi-analyze` — a workspace lint engine that statically enforces the
//! concurrency, unsafety and panic-surface invariants the serving layer's
//! correctness rests on.
//!
//! The engine's correctness depends on hand-maintained invariants: a
//! `core → health` lock-acquisition order, a typed error (never a panic) on
//! every serving hot path, and a SAFETY justification on each `unsafe`
//! block (only `mvi-kernels` has any; `mvi-serve` and `mvi-net` forbid
//! `unsafe` outright). Until this crate those lived only in ARCHITECTURE.md
//! prose and reviewer vigilance; as the system grows more engines, every new
//! PR multiplies the code shapes those invariants constrain. This tool turns
//! them into CI gates:
//!
//! | pass | lint id | what it proves |
//! |------|---------|----------------|
//! | [lock order](passes) | `lock-order` | no function body acquires locks against the documented `core → health` protocol, or takes the non-reentrant health lock twice |
//! | [SAFETY](passes) | `safety` | every `unsafe` block/fn/impl carries an adjacent `// SAFETY:` justification (or a `# Safety` doc section for `unsafe fn`) |
//! | [panic surface](passes) | `panic` | no `unwrap`/`expect`/`panic!` in non-test code of the serving hot-path modules |
//!
//! Findings can be suppressed — visibly, never silently — with an inline
//! `// mvi-allow: <lint> <justification>` annotation on the offending line
//! or the line directly above; the tool reports every suppression it
//! honored, so the full escape-hatch inventory ships with each run.
//!
//! The crate is dependency-free by design (the build container is offline):
//! it carries its own [Rust lexer](lexer) and writes its own JSON. Run it as
//!
//! ```text
//! cargo run -p mvi-analyze -- --workspace          # human-readable, exit 1 on findings
//! cargo run -p mvi-analyze -- --workspace --json   # machine-readable report
//! cargo run -p mvi-analyze -- path/to/file.rs …    # all passes over explicit files
//! ```
//!
//! or through `scripts/analyze.sh`, which is what CI's `analyze` job does.
//! The fixture corpus under `crates/analyze/fixtures/` pins each pass's
//! behaviour (one known-bad and one clean file per pass), and the workspace
//! meta-test `tests/analyze_workspace.rs` asserts the live tree stays clean.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod passes;
pub mod report;

pub use passes::{FileReport, PassSet};
pub use report::Report;

/// The lint a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// The `core → health` lock-order protocol.
    LockOrder,
    /// Adjacent `// SAFETY:` justification on every `unsafe`.
    Safety,
    /// No `unwrap`/`expect`/`panic!` on the serving hot path.
    Panic,
}

impl Lint {
    /// The stable lint id used in reports and `mvi-allow:` annotations.
    pub fn name(self) -> &'static str {
        match self {
            Lint::LockOrder => "lock-order",
            Lint::Safety => "safety",
            Lint::Panic => "panic",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which pass produced it.
    pub lint: Lint,
    /// Workspace-relative path (or the label the caller passed in).
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// A violation silenced by an `// mvi-allow:` annotation — recorded, not
/// hidden: suppressions appear in both output formats.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Which pass the annotation silenced.
    pub lint: Lint,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based source line of the suppressed site.
    pub line: u32,
    /// The justification text following the lint id in the annotation.
    pub justification: String,
}

/// Runs `passes` over one in-memory source file; `label` is the path
/// findings will carry.
pub fn analyze_source(label: &str, source: &str, passes: PassSet) -> FileReport {
    let lexed = lexer::lex(source);
    passes::run_passes(label, &lexed, passes)
}

/// The pass set workspace mode applies to the file at workspace-relative
/// path `rel` (explicit-file mode uses [`PassSet::all`] instead):
///
/// * `safety` runs everywhere;
/// * `lock-order` runs over `crates/serve/` — the crate whose lock
///   protocol it encodes;
/// * `panic` runs over the serving hot-path modules (`engine`, `warm`,
///   `batch`, the tenancy `registry` every routed request resolves
///   through, and the `snapshot`/`durable` codecs a cold-tenant request
///   decodes from disk), the network front door's connection/frame hot path
///   (`mvi-net`'s `frame`, `server`, `client`) and DeepMVI's `infer` module,
///   which every cold-window request runs — the code a request traverses,
///   where a panic means a dropped request (or a dead connection thread)
///   instead of a typed error.
pub fn workspace_passes(rel: &str) -> PassSet {
    const HOT_PATH: [&str; 10] = [
        "crates/core/src/infer.rs",
        "crates/serve/src/engine.rs",
        "crates/serve/src/warm.rs",
        "crates/serve/src/batch.rs",
        "crates/serve/src/registry.rs",
        "crates/serve/src/snapshot.rs",
        "crates/serve/src/durable.rs",
        "crates/net/src/frame.rs",
        "crates/net/src/server.rs",
        "crates/net/src/client.rs",
    ];
    PassSet {
        lock_order: rel.starts_with("crates/serve/"),
        safety: true,
        panic: HOT_PATH.contains(&rel),
    }
}

/// Analyzes the whole workspace rooted at `root`: every `.rs` file under
/// `src/`, `tests/`, `examples/`, `benches/` and `crates/*/{same}`, with
/// `vendor/`, `target/` and fixture corpora excluded. Pass scoping follows
/// [`workspace_passes`].
///
/// # Errors
/// Propagates I/O errors from walking the tree or reading files.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples", "benches"] {
        collect_rs_files(&root.join(top), &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> =
            std::fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members {
            for sub in ["src", "tests", "examples", "benches"] {
                collect_rs_files(&member.join(sub), &mut files)?;
            }
        }
    }
    files.sort();

    let mut report = Report::default();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let source = std::fs::read_to_string(&path)?;
        let file_report = analyze_source(&rel, &source, workspace_passes(&rel));
        report.findings.extend(file_report.findings);
        report.suppressed.extend(file_report.suppressed);
        report.files_scanned += 1;
    }
    Ok(report)
}

/// Recursively collects `.rs` files under `dir` (missing directories are
/// fine — not every crate has every target kind), skipping `fixtures`
/// directories: the corpus under `crates/analyze/fixtures/` is known-bad on
/// purpose.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        if path.is_dir() {
            if name != "fixtures" && name != "target" && name != "vendor" {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
