//! End-to-end tests of `aprof-cli fuzz` (spawned as a subprocess): the
//! seeded differential corpus must pass clean, render byte-identical
//! output regardless of the worker count, and catch a planted profiler
//! bug with a shrunk reproducer and a nonzero exit.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aprof-cli"))
}

fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("cli spawns");
    assert!(
        out.status.success(),
        "`aprof-cli {}` failed: {}\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout),
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn fuzz_smoke_passes_all_oracles() {
    let out = run_ok(&["fuzz", "--seed", "1", "--cases", "32"]);
    assert!(out.contains("32/32"), "{out}");
    assert!(out.contains("digest"), "{out}");
    assert!(!out.contains("FAIL"), "{out}");
}

/// The corpus digest is a fixed point: interpreter refactors must not move
/// it. These are the digests of `fuzz --seed 1 --cases 32` per profile.
#[test]
fn fuzz_digests_are_pinned_per_profile() {
    for (profile, digest) in [
        ("mixed", "485d518af0d0d657"),
        ("sequential", "eec261175d178cb7"),
        ("concurrent", "f4ce0c564c51752f"),
        ("kernel", "9b7bd36ef8b11112"),
    ] {
        let out = run_ok(&["fuzz", "--seed", "1", "--cases", "32", "--profile", profile]);
        let expected = format!("32/32 cases passed, digest {digest}\n");
        assert!(out.contains(&expected), "profile {profile} moved its digest:\n{out}");
    }
}

#[test]
fn fuzz_output_is_byte_identical_across_jobs() {
    let reference = run_ok(&["fuzz", "--seed", "7", "--cases", "24", "--jobs", "1"]);
    for jobs in ["2", "5"] {
        let out = run_ok(&["fuzz", "--seed", "7", "--cases", "24", "--jobs", jobs]);
        assert_eq!(reference, out, "jobs={jobs} changed the rendered report");
    }
}

#[test]
fn fuzz_profiles_are_seed_deterministic() {
    for profile in ["mixed", "sequential", "concurrent", "kernel"] {
        let a = run_ok(&["fuzz", "--seed", "3", "--cases", "12", "--profile", profile]);
        let b = run_ok(&["fuzz", "--seed", "3", "--cases", "12", "--profile", profile]);
        assert_eq!(a, b, "profile {profile} is not deterministic");
    }
}

#[test]
fn fuzz_catches_and_shrinks_a_planted_bug() {
    let out = cli()
        .args([
            "fuzz", "--seed", "1", "--cases", "16", "--profile", "kernel", "--mutate",
            "drop-kernel-input",
        ])
        .output()
        .expect("cli spawns");
    assert!(!out.status.success(), "a planted bug must fail the sweep");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(stdout.contains("shrunk to"), "{stdout}");
    // The shrunk reproducer must be small enough to eyeball.
    let blocks: u64 = stdout
        .lines()
        .filter_map(|l| l.split("shrunk to ").nth(1))
        .filter_map(|l| l.split(" block").next())
        .filter_map(|n| n.trim().parse().ok())
        .min()
        .expect("a failure reports its shrunk block count");
    assert!(blocks < 20, "reproducer did not shrink below 20 blocks:\n{stdout}");
}

#[test]
fn fuzz_crash_differential_passes() {
    let out = run_ok(&["fuzz", "--seed", "2", "--cases", "12", "--faults"]);
    assert!(out.contains("12/12"), "{out}");
}

#[test]
fn fuzz_bad_usage_fails_cleanly() {
    for args in [
        &["fuzz", "--profile", "nope"][..],
        &["fuzz", "--mutate", "nope"][..],
        &["fuzz", "--cases"][..],
        &["fuzz", "--frobnicate"][..],
    ] {
        let out = cli().args(args).output().unwrap();
        assert!(!out.status.success(), "`aprof-cli {}` should fail", args.join(" "));
    }
}
