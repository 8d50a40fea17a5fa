//! The repo-specific unsafe-boundary lint (`cargo run -p xtask -- lint`).
//!
//! A deliberately simple line-based scanner — no syn, no proc-macro
//! machinery — that enforces the workspace's concurrency-safety policy:
//!
//! 1. **`SAFETY:` comments.** Every `unsafe` block, impl, or fn must be
//!    immediately preceded (allowing only comment and attribute lines in
//!    between) by a `// SAFETY:` comment — or, for documented unsafe
//!    fns, a rustdoc `# Safety` section — justifying it.
//! 2. **Unsafe module whitelist.** `unsafe` may appear only in the
//!    files that own the engine's load-bearing raw-pointer patterns
//!    (striped summary writes, forest slot writes, job lifetime erasure,
//!    allocation recycling) and the SIMD kernel boundary
//!    (`distance/simd`).
//! 3. **Transmute whitelist.** `transmute` may appear only in
//!    `search/engine.rs` (the single `erase_job` lifetime erasure).
//! 4. **Thread discipline.** No direct `thread::spawn` outside the
//!    worker-pool runtime (scoped spawns are fine — they cannot leak a
//!    thread past its borrow), and no `std::sync::Barrier` anywhere:
//!    phase synchronization must go through the poisonable, sanitizer-
//!    visible `odyssey_core::sync::PhaseBarrier`.
//! 5. **Lint attributes.** Crates that need no unsafe carry
//!    `#![forbid(unsafe_code)]`; the crate that hosts unsafe carries
//!    `#![deny(unsafe_op_in_unsafe_fn)]` and
//!    `#![deny(missing_debug_implementations)]`.
//! 6. **Fault-clock discipline.** In the fault-injection module
//!    (`crates/cluster/src/faults.rs`) every `thread::sleep` must be
//!    marked with a `// FAULT-CLOCK:` comment: injected delays are part
//!    of the deterministic fault plan, and the marker keeps ad-hoc
//!    timing sleeps from creeping into the fault machinery. (Raw
//!    `thread::spawn` there is already banned by rule 4 — fault
//!    injection rides the runtime's scoped node threads, it never owns
//!    threads.)
//! 7. **`target_feature` guard naming.** Every `#[target_feature(...)]`
//!    function must be preceded by a safety comment that *names* its
//!    runtime-detection guard (`avx2_available` /
//!    `is_x86_feature_detected!`): the attribute makes the function
//!    sound only behind that check, and the name keeps the guard
//!    greppable from the kernel.
//! 8. **Lock-free sync discipline.** In `crates/service/` and the
//!    scheduler's online feedback store (`crates/sched/src/feedback.rs`
//!    — appended to from query hot paths, so it must never block) the
//!    only `std::sync::` items allowed are `atomic`, `Arc`, `OnceLock`,
//!    and `Weak`: locks and channels must come from the workspace's
//!    reviewed primitives (the `parking_lot` shim, the core crate's
//!    poisonable barriers), not ad-hoc `std::sync` blocking types that
//!    sit outside the sanitizer tiers' coverage story.
//! 9. **One execution body.** `ExecShared::new(` may appear only in
//!    `WorkerGroup::run_query` (`search/engine.rs`), the per-query body
//!    the engine's pool and lanes share; a second site is a second driver.
//! 10. **One batch node loop.** In `crates/cluster/src/runtime.rs`,
//!     `thread::scope(` may appear only in
//!     `OdysseyCluster::answer_batch_inner`, the node loop every batch
//!     kind shares; a second site is a second node loop.
//! 11. **Intrinsics stay behind the SIMD boundary.** `std::arch::` and
//!     `core::arch::` may appear only under
//!     `crates/core/src/distance/simd/`, the module that gates every
//!     intrinsic behind runtime detection (or, for hints that change no
//!     value, behind the target architecture); anywhere else they would
//!     bypass that gate and the forced-scalar tier.
//!
//! Comments and string literals are stripped before token matching, so
//! prose about `unsafe` never trips the lint, and the lint can check its
//! own source.

use std::fmt;
use std::path::{Path, PathBuf};

/// Files (workspace-relative, `/`-separated) allowed to contain
/// `unsafe`. Extending this list is a reviewed decision: add the file
/// here *and* document the new invariant at the unsafe site.
const UNSAFE_WHITELIST: &[&str] = &[
    "crates/core/src/buffers.rs",
    "crates/core/src/distance/simd/avx.rs",
    "crates/core/src/distance/simd/mod.rs",
    "crates/core/src/search/engine.rs",
];

/// Files allowed to contain `transmute` (only `erase_job`).
const TRANSMUTE_WHITELIST: &[&str] = &["crates/core/src/search/engine.rs"];

/// Files allowed to call `thread::spawn` directly (the resident worker
/// pool). Everything else must use scoped threads.
const SPAWN_WHITELIST: &[&str] = &["crates/core/src/search/engine.rs"];

/// Crate roots that must carry `#![forbid(unsafe_code)]`.
const FORBID_UNSAFE_ROOTS: &[&str] = &[
    "crates/baselines/src/lib.rs",
    "crates/bench/src/lib.rs",
    "crates/cli/src/main.rs",
    "crates/partition/src/lib.rs",
    "crates/sched/src/lib.rs",
    "crates/service/src/lib.rs",
    "crates/workloads/src/lib.rs",
    "xtask/src/main.rs",
];

/// Path prefixes whose files may only use the lock-free subset of
/// `std::sync` (rule 8); blocking primitives come from the reviewed
/// shims instead. A trailing `/` scopes a whole directory; a full file
/// path scopes one file.
const SERVICE_SYNC_PATHS: &[&str] = &["crates/service/", "crates/sched/src/feedback.rs"];

/// The `std::sync::` continuations rule 8 permits.
const SERVICE_SYNC_ALLOWED: &[&str] = &["atomic", "Arc", "OnceLock", "Weak"];

/// Crate roots that host unsafe and must carry the hardening denies.
const UNSAFE_HOST_ROOTS: &[&str] = &["crates/core/src/lib.rs"];

/// Files whose `thread::sleep` calls must carry a `// FAULT-CLOCK:`
/// marker (the deterministic fault-injection clock).
const FAULT_CLOCK_FILES: &[&str] = &["crates/cluster/src/faults.rs"];

/// Rule 9's only permitted `ExecShared::new(` site: `(file, impl type, fn)`.
const EXEC_BODY_SITE: (&str, &str, &str) =
    ("crates/core/src/search/engine.rs", "WorkerGroup", "run_query");

/// Rule 10's only permitted `thread::scope(` site: `(file, impl type, fn)`.
const NODE_LOOP_SITE: (&str, &str, &str) =
    ("crates/cluster/src/runtime.rs", "OdysseyCluster", "answer_batch_inner");

/// Rule 11's only directory allowed to name `std::arch::` / `core::arch::`.
const ARCH_PATH: &str = "crates/core/src/distance/simd/";

/// One lint finding.
#[derive(Debug)]
pub struct Violation {
    pub file: PathBuf,
    /// 1-based line, or 0 for file-level findings.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Strips string literals, char literals, and comments from one line,
/// replacing their contents with spaces so byte offsets are preserved.
/// `in_block_comment` carries `/* ... */` state across lines.
fn strip_line(line: &str, in_block_comment: &mut bool) -> String {
    let bytes = line.as_bytes();
    let mut out = vec![b' '; bytes.len()];
    let mut i = 0;
    while i < bytes.len() {
        if *in_block_comment {
            if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                *in_block_comment = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break, // line comment
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                *in_block_comment = true;
                i += 2;
            }
            b'"' => {
                // String literal: skip to the unescaped closing quote.
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            b'\'' => {
                // Char literal ('x', '\n') vs lifetime ('a, 'static).
                let is_char = matches!(
                    (bytes.get(i + 1), bytes.get(i + 2)),
                    (Some(b'\\'), _) | (Some(_), Some(b'\''))
                );
                if is_char {
                    i += 1;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'\\' => i += 2,
                            b'\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                } else {
                    i += 1; // lifetime: skip the quote, keep the name
                }
            }
            b => {
                out[i] = b;
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("ascii-preserving strip")
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `needle` occurs in `code` as a standalone token: its first
/// and last characters must not extend an adjacent identifier. Path
/// separators (`::`) inside the needle are matched literally.
fn has_token(code: &str, needle: &str) -> bool {
    token_at(code, needle).is_some()
}

/// Byte offset of the first standalone occurrence of `needle`.
fn token_at(code: &str, needle: &str) -> Option<usize> {
    let cb = code.as_bytes();
    let nb = needle.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(needle).map(|p| p + from) {
        let before_ok = pos == 0 || !is_word_byte(cb[pos - 1]);
        let end = pos + nb.len();
        let after_ok = end >= cb.len() || !is_word_byte(cb[end]);
        if before_ok && after_ok {
            return Some(pos);
        }
        from = pos + 1;
    }
    None
}

/// Whether the stripped line contains an `unsafe` *code construct*
/// (block, fn, impl, extern, or trait) as opposed to e.g. the word in
/// an attribute like `unsafe_code`.
fn unsafe_construct(code: &str) -> bool {
    let Some(pos) = token_at(code, "unsafe") else {
        return false;
    };
    let rest = code[pos + "unsafe".len()..].trim_start();
    rest.starts_with('{')
        || rest.starts_with("fn ")
        || rest.starts_with("impl ")
        || rest.starts_with("impl<")
        || rest.starts_with("extern ")
        || rest.starts_with("extern\"")
        || rest.starts_with("trait ")
        || rest.is_empty() // `unsafe` at end of line; `{` on the next
}

/// Whether a preceding comment run carries `marker` for the construct
/// on line `idx`: walking upward, only comment and attribute lines may
/// intervene, and one of them must contain the marker. A same-line
/// trailing comment counts too.
fn has_marker_comment(raw_lines: &[&str], idx: usize, marker: &str) -> bool {
    if raw_lines[idx].contains(marker) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = raw_lines[i].trim_start();
        if t.starts_with("//") {
            if t.contains(marker) {
                return true;
            }
        } else if t.starts_with("#[") || t.starts_with("#![") {
            // attributes may sit between the comment and the construct
        } else {
            return false;
        }
    }
    false
}

/// Whether a preceding comment run justifies the unsafe construct on
/// line `idx`: a `// SAFETY:` comment, or the rustdoc `# Safety`
/// section convention used on documented unsafe fns.
fn has_safety_comment(raw_lines: &[&str], idx: usize) -> bool {
    has_marker_comment(raw_lines, idx, "SAFETY:") || has_marker_comment(raw_lines, idx, "# Safety")
}

/// The name declared by a stripped line's `fn` item, if any (`None`
/// for lines without one and for `fn(..)` pointer types).
fn fn_name(code: &str) -> Option<&str> {
    let rest = code[token_at(code, "fn")? + 2..].trim_start();
    let end = rest.bytes().position(|b| !is_word_byte(b)).unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// Lints one source file; `rel` is its workspace-relative path with
/// `/` separators.
pub fn lint_source(rel: &str, content: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let raw_lines: Vec<&str> = content.lines().collect();
    let mut in_block_comment = false;
    let stripped: Vec<String> = raw_lines
        .iter()
        .map(|l| strip_line(l, &mut in_block_comment))
        .collect();
    let file = PathBuf::from(rel);
    let push = |out: &mut Vec<Violation>, line: usize, rule: &'static str, message: String| {
        out.push(Violation {
            file: file.clone(),
            line,
            rule,
            message,
        });
    };

    // The innermost `impl` header and `fn` seen so far (rules 9, 10).
    let mut impl_header = "";
    let mut current_fn = "";
    for (i, code) in stripped.iter().enumerate() {
        let line = i + 1;
        let t = code.trim_start();
        if t.starts_with("impl ") || t.starts_with("impl<") {
            impl_header = t;
        }
        if let Some(name) = fn_name(code) {
            current_fn = name;
        }
        let (site_file, site_impl, site_fn) = EXEC_BODY_SITE;
        if code.contains("ExecShared::new(")
            && !(rel == site_file && has_token(impl_header, site_impl) && current_fn == site_fn)
        {
            let why = format!("second driver: `ExecShared::new(` outside `{site_impl}::{site_fn}`");
            push(&mut out, line, "exec-body", why);
        }
        let (site_file, site_impl, site_fn) = NODE_LOOP_SITE;
        if rel == site_file
            && code.contains("thread::scope(")
            && !(has_token(impl_header, site_impl) && current_fn == site_fn)
        {
            let why =
                format!("second node loop: `thread::scope(` outside `{site_impl}::{site_fn}`");
            push(&mut out, line, "node-loop", why);
        }
        if unsafe_construct(code) {
            if !UNSAFE_WHITELIST.contains(&rel) {
                push(
                    &mut out,
                    line,
                    "unsafe-whitelist",
                    format!(
                        "`unsafe` outside the whitelisted modules ({}); \
                         move the code there or extend the reviewed whitelist in xtask",
                        UNSAFE_WHITELIST.join(", ")
                    ),
                );
            }
            if !has_safety_comment(&raw_lines, i) {
                push(
                    &mut out,
                    line,
                    "safety-comment",
                    "`unsafe` without an immediately preceding `// SAFETY:` comment".to_string(),
                );
            }
        }
        if has_token(code, "target_feature")
            && !(has_marker_comment(&raw_lines, i, "avx2_available")
                || has_marker_comment(&raw_lines, i, "is_x86_feature_detected"))
        {
            push(
                &mut out,
                line,
                "target-feature-guard",
                "`#[target_feature]` fn without a preceding safety comment naming \
                 its runtime-detection guard (`avx2_available` / \
                 `is_x86_feature_detected!`)"
                    .to_string(),
            );
        }
        if (has_token(code, "std::arch") || has_token(code, "core::arch"))
            && !rel.starts_with(ARCH_PATH)
        {
            push(
                &mut out,
                line,
                "arch-boundary",
                format!(
                    "`std::arch` / `core::arch` outside `{ARCH_PATH}`; add a gated kernel there"
                ),
            );
        }
        if has_token(code, "transmute") && !TRANSMUTE_WHITELIST.contains(&rel) {
            push(
                &mut out,
                line,
                "transmute",
                "`transmute` is only permitted in search/engine.rs (`erase_job`)".to_string(),
            );
        }
        if code.contains("thread::spawn") && !SPAWN_WHITELIST.contains(&rel) {
            push(
                &mut out,
                line,
                "thread-spawn",
                "direct `thread::spawn` outside the worker-pool runtime; \
                 use `std::thread::scope` (or go through the BatchEngine)"
                    .to_string(),
            );
        }
        if FAULT_CLOCK_FILES.contains(&rel)
            && code.contains("thread::sleep")
            && !has_marker_comment(&raw_lines, i, "FAULT-CLOCK:")
        {
            push(
                &mut out,
                line,
                "fault-clock",
                "`thread::sleep` in the fault-injection module without a \
                 `// FAULT-CLOCK:` marker; injected delays must be part of \
                 the deterministic fault plan"
                    .to_string(),
            );
        }
        if SERVICE_SYNC_PATHS.iter().any(|p| rel.starts_with(p)) {
            let mut from = 0;
            while let Some(pos) = code[from..].find("std::sync::").map(|p| p + from) {
                let rest = &code[pos + "std::sync::".len()..];
                if !SERVICE_SYNC_ALLOWED.iter().any(|a| rest.starts_with(a)) {
                    push(
                        &mut out,
                        line,
                        "service-sync",
                        format!(
                            "`std::sync::` in this lock-free path may only reach {}; \
                             blocking primitives must come from the reviewed shims \
                             (parking_lot, odyssey_core::sync)",
                            SERVICE_SYNC_ALLOWED.join(", ")
                        ),
                    );
                }
                from = pos + 1;
            }
        }
        if has_token(code, "Barrier") && !code.contains("PhaseBarrier") {
            push(
                &mut out,
                line,
                "std-barrier",
                "`std::sync::Barrier` deadlocks on panic and is invisible to \
                 ThreadSanitizer; use `odyssey_core::sync::PhaseBarrier`"
                    .to_string(),
            );
        }
    }

    if FORBID_UNSAFE_ROOTS.contains(&rel) && !content.contains("#![forbid(unsafe_code)]") {
        push(
            &mut out,
            0,
            "lint-attrs",
            "crate root must carry `#![forbid(unsafe_code)]`".to_string(),
        );
    }
    if UNSAFE_HOST_ROOTS.contains(&rel) {
        for attr in [
            "#![deny(unsafe_op_in_unsafe_fn)]",
            "#![deny(missing_debug_implementations)]",
        ] {
            if !content.contains(attr) {
                push(
                    &mut out,
                    0,
                    "lint-attrs",
                    format!("unsafe-hosting crate root must carry `{attr}`"),
                );
            }
        }
    }
    out
}

/// Recursively collects the `.rs` files the lint covers: everything
/// under `crates/`, `src/`, `tests/`, and `xtask/`, skipping `target/`
/// and the offline dependency shims under `vendor/`.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "xtask"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && name != "vendor" {
                walk(&path, files)?;
            }
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Runs the lint over the workspace rooted at `root`. Returns all
/// violations (empty = pass).
pub fn run(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut all = Vec::new();
    for path in collect_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let content = std::fs::read_to_string(&path)?;
        all.extend(lint_source(&rel, &content));
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(rel: &str, src: &str) -> Vec<&'static str> {
        lint_source(rel, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn commented_unsafe_in_whitelisted_module_passes() {
        let src = "fn f() {\n    // SAFETY: justified.\n    unsafe { g(); }\n}\n";
        assert!(rules("crates/core/src/buffers.rs", src).is_empty());
    }

    #[test]
    fn missing_safety_comment_is_flagged() {
        let src = "fn f() {\n    unsafe { g(); }\n}\n";
        assert_eq!(
            rules("crates/core/src/buffers.rs", src),
            vec!["safety-comment"]
        );
    }

    #[test]
    fn safety_comment_survives_interleaved_attributes() {
        let src = "// SAFETY: fine.\n#[allow(clippy::x)]\nunsafe impl Send for T {}\n";
        assert!(rules("crates/core/src/buffers.rs", src).is_empty());
    }

    #[test]
    fn unsafe_outside_whitelist_is_flagged() {
        let src = "// SAFETY: irrelevant.\nfn f() { unsafe { g(); } }\n";
        assert_eq!(
            rules("crates/sched/src/scheduler.rs", src),
            vec!["unsafe-whitelist"]
        );
    }

    #[test]
    fn prose_and_strings_about_unsafe_do_not_trip() {
        let src = "// unsafe { in a comment }\nfn f() { let _ = \"unsafe { }\"; }\n/* unsafe impl Y {} */\n";
        assert!(rules("crates/sched/src/scheduler.rs", src).is_empty());
    }

    #[test]
    fn attribute_words_do_not_count_as_unsafe() {
        let src = "#![deny(unsafe_op_in_unsafe_fn)]\n#![forbid(unsafe_code)]\n";
        assert!(rules("crates/sched/src/scheduler.rs", src).is_empty());
    }

    #[test]
    fn transmute_outside_engine_is_flagged() {
        let src = "fn f() { let _ = std::mem::transmute::<u8, i8>(0); }\n";
        assert_eq!(rules("crates/core/src/buffers.rs", src), vec!["transmute"]);
        assert!(!rules("crates/core/src/search/engine.rs", src).contains(&"transmute"));
    }

    #[test]
    fn direct_spawn_is_flagged_but_scoped_spawn_passes() {
        assert_eq!(
            rules("crates/cluster/src/runtime.rs", "std::thread::spawn(|| {});\n"),
            vec!["thread-spawn"]
        );
        assert!(rules(
            "crates/cluster/src/serve.rs",
            "std::thread::scope(|s| { s.spawn(|| {}); });\n"
        )
        .is_empty());
    }

    #[test]
    fn std_barrier_is_flagged_and_phase_barrier_passes() {
        assert_eq!(
            rules("crates/cluster/src/runtime.rs", "use std::sync::Barrier;\n"),
            vec!["std-barrier"]
        );
        assert!(rules(
            "crates/cluster/src/runtime.rs",
            "use odyssey_core::sync::PhaseBarrier;\n"
        )
        .is_empty());
    }

    #[test]
    fn missing_forbid_attr_on_clean_crate_root_is_flagged() {
        assert_eq!(rules("crates/sched/src/lib.rs", "pub mod x;\n"), vec!["lint-attrs"]);
        assert!(rules("crates/sched/src/lib.rs", "#![forbid(unsafe_code)]\npub mod x;\n").is_empty());
    }

    #[test]
    fn unsafe_host_root_requires_both_denies() {
        let v = rules("crates/core/src/lib.rs", "pub mod x;\n");
        assert_eq!(v, vec!["lint-attrs", "lint-attrs"]);
    }

    #[test]
    fn unmarked_fault_sleep_is_flagged_only_in_faults_module() {
        let src = "fn f() { std::thread::sleep(d); }\n";
        assert_eq!(rules("crates/cluster/src/faults.rs", src), vec!["fault-clock"]);
        // The runtime's idle waits are not fault clocks; not in scope.
        assert!(rules("crates/cluster/src/runtime.rs", src).is_empty());
    }

    #[test]
    fn marked_fault_sleep_passes() {
        let marked = "// FAULT-CLOCK: plan delay.\nstd::thread::sleep(d);\n";
        assert!(rules("crates/cluster/src/faults.rs", marked).is_empty());
        let trailing = "std::thread::sleep(d); // FAULT-CLOCK: plan delay\n";
        assert!(rules("crates/cluster/src/faults.rs", trailing).is_empty());
    }

    #[test]
    fn spawn_in_faults_module_is_flagged_by_thread_discipline() {
        assert_eq!(
            rules("crates/cluster/src/faults.rs", "std::thread::spawn(|| {});\n"),
            vec!["thread-spawn"]
        );
    }

    #[test]
    fn simd_modules_accept_commented_unsafe() {
        let src = "// SAFETY: gated by avx2_available.\nunsafe { k(); }\n";
        assert!(rules("crates/core/src/distance/simd/mod.rs", src).is_empty());
        assert!(rules("crates/core/src/distance/simd/avx.rs", src).is_empty());
        // The whitelist did not widen beyond the simd boundary.
        assert_eq!(
            rules("crates/core/src/distance/ed.rs", src),
            vec!["unsafe-whitelist"]
        );
    }

    #[test]
    fn rustdoc_safety_section_satisfies_the_safety_rule() {
        let src = "/// # Safety\n/// Callers uphold X.\npub unsafe fn k() {}\n";
        assert!(rules("crates/core/src/distance/simd/avx.rs", src).is_empty());
    }

    #[test]
    fn target_feature_without_named_guard_is_flagged() {
        let src = "/// # Safety\n/// The CPU must support AVX2.\n#[target_feature(enable = \"avx2\")]\npub unsafe fn k() {}\n";
        assert_eq!(
            rules("crates/core/src/distance/simd/avx.rs", src),
            vec!["target-feature-guard"]
        );
    }

    #[test]
    fn target_feature_naming_its_guard_passes() {
        let doc = "/// # Safety\n/// Gated by [`super::avx2_available`].\n#[target_feature(enable = \"avx2\")]\npub unsafe fn k() {}\n";
        assert!(rules("crates/core/src/distance/simd/avx.rs", doc).is_empty());
        let line = "// SAFETY: callers check is_x86_feature_detected!(\"avx2\").\n#[target_feature(enable = \"avx2\")]\nunsafe fn k() {}\n";
        assert!(rules("crates/core/src/distance/simd/avx.rs", line).is_empty());
    }

    #[test]
    fn prose_about_target_feature_does_not_trip() {
        let src = "// #[target_feature] kernels live in simd/avx.rs\nfn f() {}\n";
        assert!(rules("crates/core/src/distance/mod.rs", src).is_empty());
    }

    #[test]
    fn service_sync_allows_only_the_lock_free_subset() {
        for ok in [
            "use std::sync::atomic::{AtomicU64, Ordering};\n",
            "use std::sync::Arc;\n",
            "static S: std::sync::OnceLock<u8> = std::sync::OnceLock::new();\n",
            "use std::sync::Weak;\n",
            "use parking_lot::Mutex;\n",
        ] {
            assert!(rules("crates/service/src/histogram.rs", ok).is_empty(), "{ok}");
        }
        for bad in [
            "use std::sync::Mutex;\n",
            "use std::sync::Condvar;\n",
            "use std::sync::mpsc::channel;\n",
            "let (tx, rx) = std::sync::mpsc::channel();\n",
        ] {
            assert_eq!(
                rules("crates/service/src/histogram.rs", bad),
                vec!["service-sync"],
                "{bad}"
            );
        }
    }

    #[test]
    fn feedback_store_is_held_to_the_lock_free_subset() {
        // The online feedback store is appended to from query hot
        // paths; rule 8 covers it exactly like the service crate.
        let atomics = "use std::sync::atomic::{AtomicU64, Ordering};\nuse std::sync::Arc;\n";
        assert!(rules("crates/sched/src/feedback.rs", atomics).is_empty());
        for bad in [
            "use std::sync::Mutex;\n",
            "use std::sync::RwLock;\n",
            "let (tx, rx) = std::sync::mpsc::channel();\n",
        ] {
            assert_eq!(
                rules("crates/sched/src/feedback.rs", bad),
                vec!["service-sync"],
                "{bad}"
            );
        }
        // Only the feedback store — the rest of the sched crate may
        // still use blocking std::sync types.
        assert!(rules("crates/sched/src/admission.rs", "use std::sync::Mutex;\n").is_empty());
    }

    #[test]
    fn service_sync_rule_is_scoped_to_the_service_crate() {
        let src = "use std::sync::Mutex;\n";
        assert!(rules("crates/cluster/src/runtime.rs", src).is_empty());
        assert!(rules("crates/core/src/sync.rs", src).is_empty());
        // Prose and strings never trip it.
        let prose = "// std::sync::Mutex is banned here\nlet s = \"std::sync::Mutex\";\n";
        assert!(rules("crates/service/src/histogram.rs", prose).is_empty());
        // The service crate root is also held to `#![forbid(unsafe_code)]`.
        assert_eq!(rules("crates/service/src/lib.rs", "pub mod x;\n"), vec!["lint-attrs"]);
    }

    #[test]
    fn exec_shared_outside_the_worker_group_body_is_flagged() {
        // Another type's `run_query`, or a free fn, is a second driver.
        let lane = concat!(
            "impl LaneCtx<'_, '_> {\n    fn run_query(&mut self) {\n",
            "        ExecShared::new(a);\n",
        );
        assert_eq!(rules("crates/core/src/search/multiq.rs", lane), vec!["exec-body"]);
        let pool = lane.replace("LaneCtx<'_, '_>", "BatchEngine");
        assert_eq!(rules("crates/core/src/search/engine.rs", &pool), vec!["exec-body"]);
        let free = "fn scoped() {\n    ExecShared::new(a);\n}\n";
        assert_eq!(rules("crates/core/src/search/engine.rs", free), vec!["exec-body"]);
    }

    #[test]
    fn exec_shared_in_the_worker_group_body_passes() {
        let body = concat!(
            "impl WorkerGroup<'_> {\n    fn run_query(&mut self, f: fn(u8)) {\n",
            "        let s = || {};\n        ExecShared::new(\n",
        );
        assert!(rules("crates/core/src/search/engine.rs", body).is_empty());
        // Prose and strings about the constructor never trip the rule.
        let prose = "// ExecShared::new( once\nfn f() { let _ = \"ExecShared::new(\"; }\n";
        assert!(rules("crates/core/src/search/exact.rs", prose).is_empty());
    }

    #[test]
    fn thread_scope_outside_the_batch_loop_is_flagged() {
        // Another method of the cluster, or a free fn, is a second loop.
        let knn = concat!(
            "impl OdysseyCluster {\n    fn answer_batch_knn(&self) {\n",
            "        std::thread::scope(|s| {});\n",
        );
        assert_eq!(rules("crates/cluster/src/runtime.rs", knn), vec!["node-loop"]);
        let free = "fn approximate() {\n    thread::scope(|s| {});\n}\n";
        assert_eq!(rules("crates/cluster/src/runtime.rs", free), vec!["node-loop"]);
    }

    #[test]
    fn thread_scope_in_the_batch_loop_passes() {
        let body = concat!(
            "impl OdysseyCluster {\n    fn answer_batch_inner<A>(&self) -> R<A> {\n",
            "        let t = || {};\n        std::thread::scope(|scope| {\n",
        );
        assert!(rules("crates/cluster/src/runtime.rs", body).is_empty());
        // Prose and strings about the call never trip the rule, and
        // other files keep their own scopes.
        let prose = "// std::thread::scope( twice\nfn f() { let _ = \"thread::scope(\"; }\n";
        assert!(rules("crates/cluster/src/runtime.rs", prose).is_empty());
        let serve = "fn serve() {\n    std::thread::scope(|s| {});\n}\n";
        assert!(rules("crates/cluster/src/serve.rs", serve).is_empty());
    }

    #[test]
    fn arch_intrinsics_outside_the_simd_module_are_flagged() {
        for bad in [
            "use std::arch::x86_64::_mm_prefetch;\n",
            "let ok = std::arch::is_x86_feature_detected!(\"avx2\");\n",
            "unsafe { core::arch::x86_64::_mm_pause() }\n",
        ] {
            for rel in [
                "crates/core/src/search/exact.rs",
                "crates/core/src/distance/ed.rs",
            ] {
                assert!(rules(rel, bad).contains(&"arch-boundary"), "{rel}: {bad}");
            }
        }
    }

    #[test]
    fn arch_intrinsics_inside_the_simd_module_pass() {
        let src = "use std::arch::x86_64::*;\nlet _ = core::arch::x86_64::_MM_HINT_T0;\n";
        assert!(rules("crates/core/src/distance/simd/mod.rs", src).is_empty());
        assert!(rules("crates/core/src/distance/simd/avx.rs", src).is_empty());
        // Prose, strings and longer paths ending in `core` never trip it.
        let prose = "// std::arch::x86_64 lives in simd\nfn f() { let _ = \"core::arch::\"; }\n";
        assert!(rules("crates/core/src/search/exact.rs", prose).is_empty());
        let other = "use odyssey_core::arch::Layout;\n";
        assert!(rules("crates/cluster/src/runtime.rs", other).is_empty());
    }

    #[test]
    fn lifetimes_do_not_derail_the_stripper() {
        let src = "fn f<'a>(x: &'a str) -> &'static str { let c = 'x'; todo!() }\n";
        assert!(rules("crates/sched/src/linreg.rs", src).is_empty());
    }
}
