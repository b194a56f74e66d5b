//! Negative source checks: constructs that were removed or that one module
//! must never grow back.  Each guard names the files it reads and the
//! substrings that must not occur in them.

use std::path::{Path, PathBuf};

/// The workspace root.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every file under `dir`, recursively, in a stable order.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(files_under(&path));
        } else {
            out.push(path);
        }
    }
    out
}

/// The `.rs` files directly in `dir`.
fn rust_files_in(dir: &str) -> Vec<PathBuf> {
    let dir = root().join(dir);
    let mut out: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "rs"))
        .collect();
    out.sort();
    out
}

/// Does `line` contain `pattern`?  A trailing `\b` in the pattern requires
/// the match to end at a word boundary.
fn matches(line: &str, pattern: &str) -> bool {
    let Some(word) = pattern.strip_suffix("\\b") else {
        return line.contains(pattern);
    };
    line.match_indices(word).any(|(at, _)| {
        !line[at + word.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

/// Assert that no line of `files` contains any of `patterns`.
fn assert_absent(guard: &str, files: &[PathBuf], patterns: &[&str]) {
    let mut hits = Vec::new();
    for file in files {
        let bytes = std::fs::read(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        for (n, line) in String::from_utf8_lossy(&bytes).lines().enumerate() {
            if patterns.iter().any(|p| matches(line, p)) {
                hits.push(format!("{}:{}: {line}", file.display(), n + 1));
            }
        }
    }
    assert!(hits.is_empty(), "{guard}:\n{}", hits.join("\n"));
}

#[test]
fn no_unsafe_in_the_fused_executor_or_the_pipeline() {
    let files = [
        root().join("crates/exec/src/fusedexec.rs"),
        root().join("crates/core/src/pipeline.rs"),
    ];
    assert_absent("unsafe", &files, &["unsafe"]);
}

#[test]
fn one_operator_tree_walker_in_tce_exec() {
    // The tree walk itself lives in tce-dist.
    assert_absent(
        "second tree walker",
        &rust_files_in("crates/exec/src"),
        &["fn eval_node", "fn contract_node", "fn materialize_func"],
    );
}

#[test]
fn fused_slices_run_resolved_strided_plans_in_place() {
    // No per-slice planning, extraction or block adds.
    assert_absent(
        "per-slice work in the fused executor",
        &[root().join("crates/exec/src/fusedexec.rs")],
        &[
            "extract_block_into",
            "add_block",
            "contract_gett",
            "plan_for(",
        ],
    );
}

#[test]
fn no_coo_sparse_engine() {
    let this = Path::new(file!())
        .file_name()
        .expect("test file name")
        .to_owned();
    let files: Vec<PathBuf> = ["crates", "tests", "examples"]
        .iter()
        .flat_map(|dir| files_under(&root().join(dir)))
        .filter(|p| !(p.parent() == Some(&root().join("tests")) && p.file_name() == Some(&this)))
        .collect();
    assert_absent(
        "COO sparse engine",
        &files,
        &[
            "SparseTensor",
            "contract_sparse_dense",
            "sparse_contraction_ops",
            "sparse_pairs",
            "CheckKind::Sparse",
            ".sparse\\b",
        ],
    );
}

/// Every file under `crates/*/src`, in a stable order.
fn crate_sources() -> Vec<PathBuf> {
    let crates = std::fs::read_dir(root().join("crates")).expect("crates directory");
    let mut files: Vec<PathBuf> = crates
        .map(|e| e.expect("directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .flat_map(|src| files_under(&src))
        .collect();
    files.sort();
    files
}

#[test]
fn one_fusion_legality_rule_and_no_retired_knobs() {
    // `tce_fusion::Lowering::new` is the only legality rule and
    // `tce_fusion::lowered_program` the only builder of loop programs; the
    // cache sizes are constants with no setter, synthesis counts no sharing
    // it does not run, and `TCE_KERNEL` is the one way to pin a kernel.
    assert_absent(
        "a second legality rule or a retired knob",
        &crate_sources(),
        &[
            "FusionGraph",
            "FusionEdge",
            "check_chainwise",
            "unfused_program",
            "CseSummary",
            "SharedCounter",
            "plan_cache_env_requested",
            "set_plan_cache_capacity",
            "bufpool_env_requested",
            "set_bufpool_capacity",
            "\"--kernel\"",
        ],
    );
}

#[test]
fn no_transpose_engine_and_one_way_to_load_a_profile() {
    // Statements accumulate through their LHS permutation in one strided
    // pass; `TCE_CALIBRATION` is the one way to load a profile.
    assert_absent(
        "the transpose engine or a retired knob",
        &crate_sources(),
        &[
            "transpose_tile",
            "permute_with_threads",
            "PAR_PERMUTE_MIN",
            "\"--calibration\"",
        ],
    );
}
