//! `repro`'s command line on inputs it must refuse, and on a reader
//! that stops early.

use std::process::Command;
use vi_radio::AdversaryKind;
use vi_scenario::catalog;

/// `repro fuzz --minimize` validates the spec it loads: an invalid one
/// exits 2 with `fuzz: <path>: <validation error>`, instead of
/// minimizing the panic it raises or calling it a spec that passes.
#[test]
fn fuzz_minimize_rejects_an_invalid_spec() {
    let dir = std::env::temp_dir().join("vi_bench_repro_cli");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut bad_probability = catalog::scenario("clique").expect("catalog scenario");
    bad_probability.adversary = AdversaryKind::Random(1.5, 0.0);
    let mut no_nodes = bad_probability.clone();
    no_nodes.adversary = AdversaryKind::None;
    no_nodes.populations.clear();
    let cases = [
        (bad_probability, "adversary probability outside [0, 1]"),
        (no_nodes, "scenario deploys no nodes"),
    ];
    for (i, (spec, error)) in cases.into_iter().enumerate() {
        let path = dir.join(format!("invalid_{i}.json"));
        let json = serde_json::to_string(&spec).expect("a spec serializes");
        std::fs::write(&path, json).expect("spec written");
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["fuzz", "--minimize"])
            .arg(&path)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        let want = format!("fuzz: {}: clique: {error}", path.display());
        assert_eq!(stderr.trim_end(), want);
    }
}

/// `repro list` into a pipe whose reader has already gone (`repro list
/// | head -1` once `head` exits) stops quietly: exit 0, no panic.
#[test]
fn list_into_a_closed_pipe_exits_quietly() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .stdout(writer)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
}
