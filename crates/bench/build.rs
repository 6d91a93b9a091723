//! Fingerprints the simulation model: FNV-1a over the sources of the
//! crates whose code decides a cell's result. Cell-cache entries record
//! the fingerprint, so an entry written by a different model is a miss
//! and is overwritten, never replayed (see `src/cellcache.rs`).

#[path = "src/fnv.rs"]
mod fnv;

use std::path::{Path, PathBuf};

/// The model crates, as directories beside this one.
const MODEL_CRATES: [&str; 5] = ["mem", "alloc", "core", "sim", "workloads"];

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let crates =
        Path::new(&std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo")).join("..");
    let mut material = Vec::new();
    for name in MODEL_CRATES {
        let src = crates.join(name).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        let mut files = Vec::new();
        collect_files(&src, &mut files);
        files.sort();
        for file in files {
            // The relative path and the contents, each NUL-terminated,
            // so a rename or a moved byte changes the hash.
            let rel = file.strip_prefix(&crates).expect("under the crates dir");
            material.extend_from_slice(rel.to_string_lossy().as_bytes());
            material.push(0);
            material.extend(std::fs::read(&file).expect("readable source file"));
            material.push(0);
        }
    }
    let out =
        Path::new(&std::env::var_os("OUT_DIR").expect("set by cargo")).join("model_fingerprint");
    std::fs::write(out, format!("{:016x}", fnv::fnv1a64(&material))).expect("write fingerprint");
}
