//! The rustdoc broken-link gate (`cargo run -p xtask -- doc`).
//!
//! Documents the workspace's own library packages — the root facade and
//! every `crates/*` member that has a `src/lib.rs` — with
//! `RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links"`, so a doc link to
//! a renamed or deleted item fails CI instead of rendering as plain
//! text. The vendored shims under `vendor/` are not ours to fix (their
//! docs fail the lint) and are never scanned; bin-only packages have no
//! library docs to check.

use std::path::Path;

/// The package name declared by a `Cargo.toml` — the first
/// `name = "..."` line of its `[package]` table.
pub fn package_name(manifest: &str) -> Option<&str> {
    let mut in_package = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        match line.split_once('=') {
            Some((key, value)) if in_package && key.trim() == "name" => {
                return value.trim().strip_prefix('"')?.split('"').next();
            }
            _ => {}
        }
    }
    None
}

/// Whether the package at `dir` is one the gate documents: an
/// `odyssey*` package with a library target.
fn documented(dir: &Path) -> Option<String> {
    if !dir.join("src/lib.rs").is_file() {
        return None;
    }
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).ok()?;
    let name = package_name(&manifest)?;
    name.starts_with("odyssey").then(|| name.to_string())
}

/// The library packages the gate documents, sorted by name.
pub fn packages(root: &Path) -> std::io::Result<Vec<String>> {
    let mut names: Vec<String> = documented(root).into_iter().collect();
    for entry in std::fs::read_dir(root.join("crates"))? {
        names.extend(documented(&entry?.path()));
    }
    names.sort();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_reads_the_package_table_only() {
        let manifest = "[workspace]\nname = \"not-me\"\n\n[package]\nname = \"odyssey-core\"\nversion = \"0.1.0\"\n";
        assert_eq!(package_name(manifest), Some("odyssey-core"));
        assert_eq!(package_name("[package]\nversion = \"1\"\n"), None);
        assert_eq!(package_name("[package]\nname_suffix = \"x\"\n"), None);
    }

    #[test]
    fn gate_covers_our_libraries_and_skips_bins_and_vendor() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("workspace root");
        let pkgs = packages(root).expect("readable tree");
        for want in [
            "odyssey",
            "odyssey-core",
            "odyssey-sched",
            "odyssey-cluster",
        ] {
            assert!(
                pkgs.iter().any(|p| p == want),
                "{want} missing from {pkgs:?}"
            );
        }
        assert!(!pkgs.iter().any(|p| p == "odyssey-cli"), "bin-only package");
        assert!(
            !pkgs.iter().any(|p| p == "proptest" || p == "rand"),
            "vendor shims"
        );
    }
}
