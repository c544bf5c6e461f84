//! The benchmark is a package of its own, with its own lock file and
//! release profile, so that the repository's workspace stays as it is.
//! These tests keep both in step with the workspace, so the benchmark
//! measures the library compiled the way the workspace compiles it.

use std::collections::BTreeSet;
use std::path::Path;

fn read(path: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The settings of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect()
}

/// `name`, `version` and `source` of every package in a lock file.
fn packages(lock: &str) -> BTreeSet<String> {
    lock.split("[[package]]")
        .skip(1)
        .map(|entry| {
            entry
                .lines()
                .filter(|l| {
                    ["name ", "version ", "source "]
                        .iter()
                        .any(|k| l.starts_with(k))
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

#[test]
fn release_profile_matches_the_workspace() {
    let workspace = release_profile(&read("../Cargo.toml"));
    assert!(
        !workspace.is_empty(),
        "the workspace sets no release profile"
    );
    assert_eq!(release_profile(&read("Cargo.toml")), workspace);
}

#[test]
fn lock_file_resolves_as_the_workspace_does() {
    let workspace = packages(&read("../Cargo.lock"));
    let drifted: Vec<String> = packages(&read("Cargo.lock"))
        .into_iter()
        .filter(|p| !p.contains("\"subsim-benchmark\"") && !workspace.contains(p))
        .collect();
    assert!(
        drifted.is_empty(),
        "benchmark/Cargo.lock resolves packages the workspace does not: {drifted:?}"
    );
}
