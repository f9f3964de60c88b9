//! CI runtime budget: `gcrsim lint` runs on every push, so the full
//! analysis — lexing, call graph, semantic passes, and the
//! flow-sensitive and conformance engines — must stay interactive. CI
//! runs this test in release mode (the `lint-semantic` job); the
//! wall-clock assertion is meaningless under an unoptimized build, so it
//! is release-gated.

use std::path::Path;
use std::time::{Duration, Instant};

use gcr_lint::{lint_workspace, Baseline};

const BUDGET: Duration = Duration::from_secs(10);

#[test]
fn full_workspace_lint_stays_under_the_ci_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root");
    let t0 = Instant::now();
    let report = lint_workspace(root, &Baseline::default()).expect("workspace must be readable");
    let elapsed = t0.elapsed();
    // The walk must have seen the real tree, or the timing is a lie.
    assert!(
        report.files_scanned > 50,
        "only {} files scanned",
        report.files_scanned
    );
    if cfg!(not(debug_assertions)) {
        assert!(
            elapsed < BUDGET,
            "full-workspace lint took {elapsed:?} (budget {BUDGET:?}) — \
             profile the flow-sensitive passes before raising this"
        );
    }
}
