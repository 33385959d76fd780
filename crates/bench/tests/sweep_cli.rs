//! `sweep`'s command line: anything but `--check` or
//! `--scenario <id> [PATH]` exits 2 with the usage line and writes nothing.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A per-test working directory, so a stray output file would show.
fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    dir
}

fn sweep(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the sweep binary runs")
}

fn assert_rejected(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("usage: sweep --check | sweep --scenario <id> [PATH]"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "a rejected invocation runs nothing");
}

#[test]
fn a_misspelt_flag_is_rejected_not_taken_for_a_path() {
    let dir = workdir("sweep_cli_misspelt");
    assert_rejected(&sweep(&dir, &["--smok"]));
    assert!(
        !dir.join("--smok").exists(),
        "the typo became an output file"
    );
}

#[test]
fn a_bare_scenario_flag_is_rejected() {
    let out = sweep(&workdir("sweep_cli_bare_scenario"), &["--scenario"]);
    assert_rejected(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--scenario needs an id"));
}

#[test]
fn no_arguments_is_rejected() {
    assert_rejected(&sweep(&workdir("sweep_cli_no_arguments"), &[]));
}

#[test]
fn a_scenario_id_reruns_and_an_unknown_one_exits_2() {
    let dir = workdir("sweep_cli_scenario");
    let out = sweep(&dir, &["--scenario", "one_third_rule/full_delivery/n4/s0"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = String::from_utf8_lossy(&out.stdout);
    assert!(doc.contains("\"layer\": \"model\""), "{doc}");
    assert!(doc.contains("\"verdict\""), "{doc}");

    let out = sweep(&dir, &["--scenario", "no_such/grid/n0/s0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no canonical grid produces"));
}
