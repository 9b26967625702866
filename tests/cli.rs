//! End-to-end tests of the `aprof-cli` binary (spawned as a subprocess).

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
fn list_shows_all_workloads() {
    let out = run_ok(&["list"]);
    for name in ["producer_consumer", "350.md", "vips", "mysqld", "algo.merge_sort"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn run_profiles_a_workload() {
    let out = run_ok(&["run", "--workload", "producer_consumer", "--size", "20", "--threads", "2"]);
    assert!(out.contains("consumer"), "{out}");
    assert!(out.contains("thread"), "{out}");
}

#[test]
fn plot_and_fit() {
    let out = run_ok(&[
        "run",
        "--workload",
        "mysqld",
        "--size",
        "128",
        "--threads",
        "2",
        "--plot",
        "mysql_select",
    ]);
    assert!(out.contains("fitted growth vs trms: O(n)"), "{out}");
    assert!(out.contains("fitted growth vs rms: O(n^2)"), "{out}");
}

#[test]
fn bottleneck_analysis_flags_the_flush() {
    let out = run_ok(&[
        "run",
        "--workload",
        "mysqld",
        "--size",
        "128",
        "--threads",
        "2",
        "--bottlenecks",
    ]);
    assert!(out.contains("HiddenFromRms"), "{out}");
    assert!(out.contains("buf_flush_buffered_writes"), "{out}");
}

#[test]
fn cct_prints_contexts() {
    let out = run_ok(&["run", "--workload", "dedup", "--size", "32", "--threads", "2", "--cct"]);
    assert!(out.contains("hot calling contexts"), "{out}");
    assert!(out.contains("compress_chunk"), "{out}");
}

#[test]
fn helgrind_tool_reports() {
    let out = run_ok(&[
        "run", "--workload", "372.smithwa", "--size", "32", "--tool", "helgrind",
    ]);
    assert!(out.contains("0 racy accesses"), "{out}");
}

#[test]
fn save_and_replay_roundtrip() {
    let dir = std::env::temp_dir().join("aprof-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.txt");
    let path_s = path.to_str().unwrap();
    let saved = run_ok(&[
        "run",
        "--workload",
        "external_read",
        "--size",
        "12",
        "--save-trace",
        path_s,
    ]);
    assert!(saved.contains("saved"), "{saved}");
    let replayed = run_ok(&["replay", path_s]);
    assert!(replayed.contains("activations"), "{replayed}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn record_replay_matches_in_memory_run() {
    let dir = std::env::temp_dir().join("aprof-cli-test-wire");
    std::fs::create_dir_all(&dir).unwrap();
    let wire = dir.join("trace.wire");
    let rec_csv = dir.join("rec.csv");
    let rep_csv = dir.join("rep.csv");
    let run_csv = dir.join("run.csv");

    let recorded = run_ok(&[
        "record",
        wire.to_str().unwrap(),
        "--workload",
        "producer_consumer",
        "--size",
        "30",
        "--threads",
        "2",
        "--csv",
        rec_csv.to_str().unwrap(),
    ]);
    assert!(recorded.contains("recorded"), "{recorded}");

    let replayed = run_ok(&["replay", wire.to_str().unwrap(), "--csv", rep_csv.to_str().unwrap()]);
    assert!(replayed.contains("consumer"), "{replayed}");

    run_ok(&[
        "run",
        "--workload",
        "producer_consumer",
        "--size",
        "30",
        "--threads",
        "2",
        "--csv",
        run_csv.to_str().unwrap(),
    ]);

    let rec = std::fs::read_to_string(&rec_csv).unwrap();
    let rep = std::fs::read_to_string(&rep_csv).unwrap();
    let run = std::fs::read_to_string(&run_csv).unwrap();
    assert_eq!(rec, rep, "live-while-recording profile differs from replayed profile");
    assert_eq!(run, rep, "in-memory profile differs from replayed profile");

    for p in [&wire, &rec_csv, &rep_csv, &run_csv] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn replay_of_one_trace_and_of_a_merge_order_routines_alike() {
    let dir = std::env::temp_dir().join(format!("aprof-cli-test-order-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (wire, one, two) = (dir.join("t.wire"), dir.join("one.csv"), dir.join("two.csv"));
    let wire_s = wire.to_str().unwrap();
    // `producer` and `consumer` cost the same, so only the tie-break orders
    // them.
    run_ok(&["record", wire_s, "--workload", "producer_consumer"]);
    run_ok(&["replay", wire_s, "--csv", one.to_str().unwrap()]);
    run_ok(&["replay", wire_s, wire_s, "--csv", two.to_str().unwrap()]);
    let routines = |csv: &std::path::Path| -> Vec<String> {
        let text = std::fs::read_to_string(csv).unwrap();
        text.lines().skip(1).map(|l| l.split(',').next().unwrap().to_owned()).collect()
    };
    assert_eq!(routines(&one), routines(&two));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_info_describes_a_wire_file() {
    let dir = std::env::temp_dir().join("aprof-cli-test-wire");
    std::fs::create_dir_all(&dir).unwrap();
    let wire = dir.join("info.wire");
    run_ok(&[
        "record",
        wire.to_str().unwrap(),
        "--workload",
        "external_read",
        "--size",
        "16",
        "--chunk-bytes",
        "256",
    ]);
    let info = run_ok(&["trace-info", wire.to_str().unwrap()]);
    assert!(info.contains("format: wire v1"), "{info}");
    assert!(info.contains("events:"), "{info}");
    assert!(info.contains("chunks:"), "{info}");
    assert!(info.contains("Call"), "{info}");
    std::fs::remove_file(&wire).ok();
}

#[test]
fn corrupt_wire_chunk_is_reported_not_fatal() {
    let dir = std::env::temp_dir().join("aprof-cli-test-wire");
    std::fs::create_dir_all(&dir).unwrap();
    let wire = dir.join("corrupt.wire");
    run_ok(&[
        "record",
        wire.to_str().unwrap(),
        "--workload",
        "external_read",
        "--size",
        "16",
        "--chunk-bytes",
        "128",
    ]);

    // Flip a byte inside the first chunk's *payload* (framing damage is
    // fatal by design; payload damage is skippable). The header is
    // magic(8) + version(4) + payload_len(4) + payload + crc(4), then
    // each chunk starts with 13 framing bytes.
    let mut bytes = std::fs::read(&wire).unwrap();
    let header_payload = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let first_chunk_payload = 16 + header_payload + 4 + 13;
    bytes[first_chunk_payload + 2] ^= 0x55;
    std::fs::write(&wire, &bytes).unwrap();

    // Lenient replay still succeeds but warns about the skipped chunk.
    let out = cli().args(["replay", wire.to_str().unwrap()]).output().unwrap();
    assert!(
        out.status.success(),
        "lenient replay should skip-and-report: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("skipped corrupt"), "{stderr}");

    // trace-info flags the damage via a nonzero exit.
    let out = cli().args(["trace-info", wire.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "trace-info should fail on a damaged file");

    // Strict replay refuses outright.
    let out = cli().args(["replay", wire.to_str().unwrap(), "--strict"]).output().unwrap();
    assert!(!out.status.success(), "strict replay should reject a damaged file");

    std::fs::remove_file(&wire).ok();
}

/// `--profile-out` only adds the canonical profile: one trace still gets
/// every report section, a single text trace is accepted, and a merge
/// refuses `--cct` instead of silently dropping it and text traces as
/// before.
#[test]
fn replay_profile_out_keeps_report_options() {
    let dir = std::env::temp_dir().join("aprof-cli-test-profile-out");
    std::fs::create_dir_all(&dir).unwrap();
    let wire = dir.join("t.wire");
    let text = dir.join("t.trace");
    let profile = dir.join("t.profile");
    let (wire_s, text_s, profile_s) =
        (wire.to_str().unwrap(), text.to_str().unwrap(), profile.to_str().unwrap());
    let workload = ["--workload", "algo.insertion_sort", "--size", "24"];
    run_ok(&[&["record", wire_s][..], &workload].concat());
    run_ok(&[&["run", "--save-trace", text_s][..], &workload].concat());

    let sections = ["--bottlenecks", "--cct", "--plot", "insertion_sort"];
    let plain = run_ok(&[&["replay", wire_s][..], &sections].concat());
    for section in ["asymptotic bottleneck", "hot calling contexts", "fitted growth"] {
        assert!(plain.contains(section), "missing {section} in:\n{plain}");
    }
    let with_out = run_ok(&[&["replay", wire_s][..], &sections, &["--profile-out", profile_s]].concat());
    let wrote = format!("wrote canonical profile to {profile_s}\n");
    assert_eq!(with_out.replace(&wrote, ""), plain);
    assert!(with_out.contains(&wrote), "{with_out}");
    assert!(std::fs::read_to_string(&profile).unwrap().contains("insertion_sort"));

    let from_text = run_ok(&["replay", text_s, "--profile-out", profile_s]);
    assert!(from_text.contains(&wrote), "{from_text}");

    let out = cli().args(["replay", wire_s, wire_s, "--cct"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    // A merge matches routines by name, and a text trace has none.
    let out = cli().args(["replay", wire_s, text_s]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("profile merging requires wire traces"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The differential crash test behind `aprof-cli recover`: record a durable
/// capture, kill it (simulated by truncating the file) at several points,
/// recover each torn file, and check the recovered replay profiles a prefix
/// of the unkilled run — same tool output format, typed errors only, no
/// panics.
#[test]
fn recover_salvages_a_killed_durable_capture() {
    let dir = std::env::temp_dir().join("aprof-cli-test-recover");
    std::fs::create_dir_all(&dir).unwrap();
    let wire = dir.join("durable.wire");
    let wire_s = wire.to_str().unwrap();

    let recorded = run_ok(&[
        "record", wire_s, "--workload", "producer_consumer", "--size", "30", "--threads", "2",
        "--durable", "--chunk-bytes", "128",
    ]);
    assert!(recorded.contains("recorded"), "{recorded}");
    let pristine = std::fs::read(&wire).unwrap();
    let full_info = run_ok(&["trace-info", wire_s]);

    for fraction in [3usize, 5, 7] {
        let cut = pristine.len() * fraction / 8;
        let torn = dir.join(format!("torn-{fraction}.wire"));
        let torn_s = torn.to_str().unwrap();
        std::fs::write(&torn, &pristine[..cut]).unwrap();

        let salvaged = dir.join(format!("salvaged-{fraction}.wire"));
        let salvaged_s = salvaged.to_str().unwrap();
        let out = run_ok(&["recover", torn_s, salvaged_s]);
        assert!(out.contains("salvaged"), "{out}");

        // The salvage is a fully valid file: strict replay succeeds and
        // trace-info reports zero skipped chunks.
        let replayed = run_ok(&["replay", salvaged_s, "--strict"]);
        assert!(replayed.contains("activations"), "{replayed}");
        let info = run_ok(&["trace-info", salvaged_s, "--strict"]);
        assert!(info.contains("0 skipped"), "{info}");

        // Event count is a prefix: never more than the unkilled capture.
        let events = |text: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix("events: "))
                .expect("trace-info prints events")
                .parse()
                .unwrap()
        };
        assert!(events(&info) <= events(&full_info), "salvage exceeds the original:\n{info}");

        std::fs::remove_file(&torn).ok();
        std::fs::remove_file(&salvaged).ok();
    }

    // Recovering the intact capture is lossless.
    let salvaged = dir.join("intact.wire");
    let out = run_ok(&["recover", wire_s, salvaged.to_str().unwrap()]);
    assert!(out.contains("already intact"), "{out}");
    let info = run_ok(&["trace-info", salvaged.to_str().unwrap()]);
    assert_eq!(
        info.lines().find(|l| l.starts_with("events:")),
        full_info.lines().find(|l| l.starts_with("events:")),
        "intact recovery must preserve every event"
    );

    // A file cut inside the header is a typed failure, not a panic.
    let torn = dir.join("headerless.wire");
    std::fs::write(&torn, &pristine[..8]).unwrap();
    let out = cli()
        .args(["recover", torn.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "header damage must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot recover"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    std::fs::remove_file(&wire).ok();
    std::fs::remove_file(&salvaged).ok();
    std::fs::remove_file(&torn).ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = cli().args(["run"]).output().unwrap();
    assert!(!out.status.success());
    let out = cli().args(["run", "--workload", "nope"]).output().unwrap();
    assert!(!out.status.success());
    let out = cli().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn csv_export_writes_summary() {
    let dir = std::env::temp_dir().join("aprof-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("summary.csv");
    run_ok(&[
        "run",
        "--workload",
        "producer_consumer",
        "--size",
        "10",
        "--csv",
        path.to_str().unwrap(),
    ]);
    let csv = std::fs::read_to_string(&path).unwrap();
    assert!(csv.starts_with("routine,calls,cost"), "{csv}");
    assert!(csv.contains("consumer"), "{csv}");
    std::fs::remove_file(&path).ok();
}
