//! The lint gates as tests: the real workspace must be clean, and every
//! member must inherit the compiler-enforced half of the contracts. This is
//! what makes `cargo test` fail on a new violation even when nobody runs
//! the `sim-lint` binary or clippy directly.

use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/sim-lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn real_workspace_has_no_violations() {
    let diags = sim_lint::lint_workspace(&workspace_root()).expect("workspace loads");
    assert!(
        diags.is_empty(),
        "sim-lint found {} violation(s) in the workspace:\n{}",
        diags.len(),
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// `[workspace.lints]` forbids `unsafe`, denies unused `Result`s and keeps
/// the wall clock out; a member that does not opt in escapes all three.
#[test]
fn every_member_manifest_inherits_the_workspace_lints() {
    let root = workspace_root();
    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    for line in [
        "[workspace.lints.rust]",
        "unsafe_code = \"forbid\"",
        "unused_must_use = \"deny\"",
        "[workspace.lints.clippy]",
        "disallowed_types = \"deny\"",
        "disallowed_methods = \"deny\"",
    ] {
        assert!(
            root_manifest.lines().any(|l| l.trim() == line),
            "root Cargo.toml lacks `{line}`"
        );
    }
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ lists") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "found only {manifests:?}");
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).expect("manifest reads");
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        assert!(
            lines
                .windows(2)
                .any(|w| w == ["[lints]", "workspace = true"]),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
}
