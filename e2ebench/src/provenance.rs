//! Where a result came from: the commit when git metadata is present,
//! and a digest of the program's sources, which a checkout without
//! git metadata still has.

use std::path::{Path, PathBuf};

/// The checked-out commit, read from `.git` without running git;
/// `"unknown"` outside a git work tree.
pub fn commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(&Path::new(".git").join(reference)) {
        return id.trim().to_owned();
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest over the program's source files (`crates/`, `src/`
/// and the root manifests), in sorted path order.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "src"] {
        collect(Path::new(root), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock"].map(PathBuf::from));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let Ok(bytes) = std::fs::read(&f) else {
            continue;
        };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect(&p, out);
            }
        } else {
            out.push(p);
        }
    }
}
