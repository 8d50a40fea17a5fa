//! `xtask` — repo automation for the Odyssey reproduction.
//!
//! ```text
//! cargo run -p xtask -- lint        # unsafe-boundary + thread-discipline lint
//! cargo run -p xtask -- scalar      # core tests with SIMD force-disabled
//! cargo run -p xtask -- miri        # Miri tier (nightly + miri component)
//! cargo run -p xtask -- tsan       # ThreadSanitizer tier (nightly, linux x86_64)
//! cargo run -p xtask -- bench-test # odybench's own unit tests
//! cargo run -p xtask -- doc        # rustdoc broken-intra-doc-link gate
//! ```
//!
//! `lint` is pure Rust over the source tree and runs anywhere; `doc`
//! needs only the stable toolchain.
//! `bench-test` runs the tests of the detached odybench package, which
//! the workspace `cargo test` does not reach. `miri`
//! and `tsan` orchestrate cargo invocations of the nightly toolchain
//! and fail with an actionable message when the toolchain or component
//! is not available (the offline dev container has no network route to
//! install them; CI does).

#![forbid(unsafe_code)]

mod doc;
mod lint;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&root),
        Some("scalar") => cmd_scalar(&root),
        Some("miri") => cmd_miri(&root),
        Some("tsan") => cmd_tsan(&root),
        Some("bench-test") => cmd_bench_test(&root),
        Some("doc") => cmd_doc(&root),
        Some("help") | None => {
            eprintln!("usage: cargo run -p xtask -- <lint|scalar|miri|tsan|bench-test|doc>");
            ExitCode::FAILURE
        }
        Some(other) => {
            eprintln!(
                "xtask: unknown command `{other}` \
                 (expected lint, scalar, miri, tsan, bench-test, or doc)"
            );
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR/..` when run via cargo, the
/// current directory otherwise.
fn workspace_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).parent().map(Path::to_path_buf).unwrap_or_default(),
        None => PathBuf::from("."),
    }
}

fn cmd_lint(root: &Path) -> ExitCode {
    match lint::run(root) {
        Ok(violations) if violations.is_empty() => {
            eprintln!("xtask lint: ok");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                eprintln!("{v}");
            }
            eprintln!("xtask lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: io error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The forced-scalar tier: the whole `odyssey-core` test suite (kernel
/// property tests, exact/batch/lane search bit-identity, SIMD↔scalar
/// equivalence) with `ODYSSEY_SIMD=scalar`, so the scalar fallback path
/// is exercised end to end even on AVX2 hosts. A scalar-only CPU takes
/// this path implicitly; this tier makes it a first-class CI leg.
fn cmd_scalar(root: &Path) -> ExitCode {
    let ok = run_status(
        Command::new("cargo")
            .current_dir(root)
            .env("ODYSSEY_SIMD", "scalar")
            .args(["test", "-q", "-p", "odyssey-core"]),
    );
    if ok {
        eprintln!("xtask scalar: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// odybench's unit tests. The benchmark is a package of its own (an
/// empty `[workspace]` in its manifest), so the workspace `cargo test`
/// never builds it; this runs its suite, including the tiny copies of
/// the four benchmark workloads, against its own manifest.
fn cmd_bench_test(root: &Path) -> ExitCode {
    let manifest = root.join("crates/bench/src/bin/odybench/Cargo.toml");
    let ok = run_status(
        Command::new("cargo")
            .current_dir(root)
            .arg("test")
            .arg("--offline")
            .arg("--manifest-path")
            .arg(&manifest),
    );
    if ok {
        eprintln!("xtask bench-test: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The rustdoc gate: documents the workspace's own library packages
/// (see [`doc::packages`]) and fails on any broken intra-doc link.
fn cmd_doc(root: &Path) -> ExitCode {
    let packages = match doc::packages(root) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("xtask doc: io error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cmd = Command::new("cargo");
    cmd.current_dir(root)
        .env("RUSTDOCFLAGS", "-D rustdoc::broken_intra_doc_links")
        .args(["doc", "--no-deps", "--offline", "--lib"]);
    for p in &packages {
        cmd.args(["-p", p]);
    }
    if run_status(&mut cmd) {
        eprintln!("xtask doc: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `cmd`, inheriting stdio; true on zero exit.
fn run_status(cmd: &mut Command) -> bool {
    eprintln!("xtask: running {cmd:?}");
    matches!(cmd.status(), Ok(s) if s.success())
}

/// Whether `cargo +nightly <probe...>` exits zero (quietly).
fn nightly_has(probe: &[&str]) -> bool {
    Command::new("cargo")
        .arg("+nightly")
        .args(probe)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// The Miri tier: interpret the `miri-safe` test subset of
/// `odyssey-core` under Miri, which checks the load-bearing unsafe
/// (job lifetime erasure, allocation recycling, striped raw-pointer
/// writes) for UB the type system cannot see.
fn cmd_miri(root: &Path) -> ExitCode {
    if !nightly_has(&["miri", "--version"]) {
        eprintln!(
            "xtask miri: `cargo +nightly miri` is unavailable.\n\
             Install with: rustup toolchain install nightly && \
             rustup +nightly component add miri\n\
             (The offline dev container cannot; this tier runs in CI.)"
        );
        return ExitCode::FAILURE;
    }
    // The feature-gated integration subset, then the recycling unit
    // tests (crate-private internals, so they live in the lib).
    let ok = run_status(
        Command::new("cargo")
            .current_dir(root)
            .args([
                "+nightly",
                "miri",
                "test",
                "-p",
                "odyssey-core",
                "--features",
                "miri-safe",
                "--test",
                "miri_safe",
            ]),
    ) && run_status(
        Command::new("cargo")
            .current_dir(root)
            .args([
                "+nightly",
                "miri",
                "test",
                "-p",
                "odyssey-core",
                "--lib",
                "scratch::",
            ]),
    );
    if ok {
        eprintln!("xtask miri: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The ThreadSanitizer tier: run the lanes + work-stealing bit-identity
/// tests with `-Zsanitizer=thread` so every happens-before edge of the
/// pool, lane, and steal protocols is checked dynamically.
///
/// The std library is *not* rebuilt (`-Zbuild-std` needs network /
/// rust-src); instead synchronization goes through the in-crate
/// [`PhaseBarrier`](odyssey_core::sync::PhaseBarrier) and generic std
/// primitives, which monomorphize into instrumented code — the ABI
/// mismatch override below is what makes the mixed build link.
fn cmd_tsan(root: &Path) -> ExitCode {
    if !cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        eprintln!("xtask tsan: ThreadSanitizer tier requires linux x86_64");
        return ExitCode::FAILURE;
    }
    if !nightly_has(&["--version"]) {
        eprintln!(
            "xtask tsan: the nightly toolchain is unavailable.\n\
             Install with: rustup toolchain install nightly\n\
             (The offline dev container may lack it; this tier runs in CI.)"
        );
        return ExitCode::FAILURE;
    }
    let rustflags = "-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer";
    // std itself is uninstrumented, so its internal thread-join edges
    // are invisible to TSan; tsan-suppressions.txt mutes exactly those
    // (and nothing in odyssey_* frames).
    let suppressions = root.join("tsan-suppressions.txt");
    let tsan_options = format!(
        "halt_on_error=1 suppressions={}",
        suppressions.display()
    );
    let ok = run_status(
        Command::new("cargo")
            .current_dir(root)
            .env("RUSTFLAGS", rustflags)
            .env("TSAN_OPTIONS", &tsan_options)
            .args([
                "+nightly",
                "test",
                "-p",
                "odyssey-core",
                "--target",
                "x86_64-unknown-linux-gnu",
                "--test",
                "tsan_lanes",
            ]),
    );
    if ok {
        eprintln!("xtask tsan: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
