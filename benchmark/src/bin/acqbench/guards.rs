//! Drift guards, checked at start-up: conditions under which the numbers
//! would silently stop meaning what the README says they mean.

use std::path::{Path, PathBuf};

use crate::workloads::Workload;

/// The benchmark package's directory. `cargo run` exports it; a binary
/// started by hand falls back to where it was built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The `key = value` lines of a manifest's `[profile.release]` table, sorted.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    lines
}

/// Files under `src` other than `repo_api.rs` that name a repository crate.
pub fn crate_names_outside_repo_api(src: &Path) -> Result<Vec<String>, String> {
    // Spelled in pieces so this file passes its own check.
    let needles = [["acq", "_"].concat(), ["acquire", "_core"].concat()];
    let mut offenders = Vec::new();
    let entries = std::fs::read_dir(src).map_err(|e| format!("{}: {e}", src.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|e| e != "rs") || path.ends_with("repo_api.rs") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if needles.iter().any(|n| text.contains(n.as_str())) {
            offenders.push(path.display().to_string());
        }
    }
    Ok(offenders)
}

/// Fails fast when a guard does not hold.
pub fn check(package: &Path) -> Result<(), String> {
    let read =
        |p: PathBuf| std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()));
    let root = release_profile(&read(package.join("../Cargo.toml"))?);
    let own = release_profile(&read(package.join("Cargo.toml"))?);
    if root != own || own.is_empty() {
        return Err(format!(
            "[profile.release] differs: root {root:?}, benchmark {own:?}"
        ));
    }
    let offenders = crate_names_outside_repo_api(&package.join("src/bin/acqbench"))?;
    if !offenders.is_empty() {
        return Err(format!(
            "only repo_api.rs may name a repository crate, but so do {offenders:?}"
        ));
    }
    let cores = nproc();
    if cores < 2 {
        return Err(format!(
            "{cores} core: the server and its client need one each"
        ));
    }
    if let Some(w) = Workload::ALL.into_iter().find(|w| w.clients() > cores) {
        return Err(format!(
            "{} runs {} clients on {cores} cores",
            w.name(),
            w.clients()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_ignores_layout_and_stops_at_the_next_table() {
        let a = "[package]\nname='x'\n[profile.release]\n# why\nlto = \"thin\"\ndebug=\"line-tables-only\"\n\n[profile.bench]\ndebug = 1\n";
        let b = "[profile.release]\ndebug = \"line-tables-only\"\nlto   =   \"thin\"\n";
        assert_eq!(release_profile(a), release_profile(b));
        assert_eq!(release_profile(a).len(), 2);
        assert!(release_profile("[package]\n").is_empty());
        assert_ne!(
            release_profile(b),
            release_profile("[profile.release]\nlto = \"fat\"\n")
        );
    }

    #[test]
    fn the_guards_hold_in_this_checkout() {
        let package = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = std::fs::read_to_string(package.join("../Cargo.toml")).unwrap();
        let own = std::fs::read_to_string(package.join("Cargo.toml")).unwrap();
        assert_eq!(release_profile(&root), release_profile(&own));
        assert_eq!(
            crate_names_outside_repo_api(&package.join("src/bin/acqbench")).unwrap(),
            Vec::<String>::new()
        );
    }
}
