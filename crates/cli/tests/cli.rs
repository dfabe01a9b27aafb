//! Drives the built `nbraft-cli` binary: the `bench-net` run matrix and its
//! one table, the rejection of options a subcommand does not read, and the
//! trace loader `trace PATH` and `trace --critical-path` share.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nbraft-cli")).args(args).output().expect("run nbraft-cli")
}

/// Run a `bench-net` on raw loopback for one second per run and return the
/// table: the header's column names, then the rows' fields.
fn bench_table(matrix: &[&str]) -> Vec<Vec<String>> {
    let out =
        cli(&[&["bench-net", "--seconds", "1", "--rtt-ms", "0", "--loss-pct", "0"], matrix]
            .concat());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "bench-net failed: {stdout}");
    let table: Vec<Vec<String>> = stdout
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("window"))
        .map(|l| l.split_whitespace().map(String::from).collect())
        .collect();
    assert_eq!(
        table.first().expect("a header"),
        &["window", "groups", "clients", "ops/s", "ops", "weak", "p50ms", "p99ms", "×first"],
        "{stdout}"
    );
    table
}

#[test]
fn bench_net_window_list_is_one_row_per_window_against_the_first() {
    let table = bench_table(&["--window", "0,4", "--clients", "2"]);
    let [_, raft, nb] = table.as_slice() else { panic!("want exactly two rows: {table:?}") };
    for (row, window) in [(raft, "0"), (nb, "4")] {
        assert_eq!(row.len(), 9, "{row:?}");
        assert_eq!((row[0].as_str(), row[1].as_str(), row[2].as_str()), (window, "1", "2"));
        assert!(row[4].parse::<u64>().expect("ops") > 0, "{row:?}");
        assert!(row[8].trim_end_matches('×').parse::<f64>().expect("ratio") > 0.0, "{row:?}");
    }
    assert_eq!(raft[8], "1.00×");
}

#[test]
fn bench_net_groups_list_scales_the_fleet_per_group() {
    let table = bench_table(&["--groups", "1,2", "--clients-per-group", "2"]);
    let [_, one, two] = table.as_slice() else { panic!("want exactly two rows: {table:?}") };
    assert_eq!((one[1].as_str(), one[2].as_str()), ("1", "2"));
    assert_eq!((two[1].as_str(), two[2].as_str()), ("2", "4"));
    assert!(two[4].parse::<u64>().expect("ops") > 0 && two[8].ends_with('×'), "{two:?}");
}

#[test]
fn stale_misspelled_and_out_of_range_options_exit_2() {
    for bad in [
        &["bench-net", "--compare"][..],
        &["bench-net", "--json", "x"],
        &["bench-net", "--sclae-groups", "1,2"],
        &["bench-net", "--groups", "0"],
        &["bench-net", "--groups", "1,2", "--trace-dir", "unused"],
        &["bench-net", "--peers", "127.0.0.1:1", "--window", "0,4"],
        &["bench-net", "--lanes", "2"],
        &["serve", "--lanes", "2"],
        &["sim", "--clinets", "4"],
    ] {
        let out = cli(bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad:?} ran something");
    }
    let stderr = String::from_utf8(cli(&["bench-net", "--compare"]).stderr).expect("utf-8");
    assert!(stderr.contains("--compare") && stderr.contains("bench-net"), "{stderr}");
}

#[test]
fn a_sim_trace_loads_in_both_analyzers() {
    let path = std::env::temp_dir().join(format!("nbr-cli-test-{}.jsonl", std::process::id()));
    let file = path.to_str().expect("utf-8 temp path");
    let sim =
        cli(&["sim", "--clients", "8", "--duration-ms", "60", "--window", "8", "--trace", file]);
    assert!(sim.status.success(), "{}", String::from_utf8_lossy(&sim.stderr));
    for analyzer in [&["trace", file][..], &["trace", "--critical-path", file]] {
        let out = cli(analyzer);
        assert!(out.status.success(), "{analyzer:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(!out.stdout.is_empty(), "{analyzer:?} printed nothing");
    }
    let _ = std::fs::remove_file(&path);
    assert_eq!(cli(&["trace", file]).status.code(), Some(1), "a missing trace is an I/O error");
}
