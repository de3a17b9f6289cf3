//! The benchmark's own tests: tiny-corpus runs of every workload must
//! print every metric `BENCHMARK.json` names, and a corrupted reference
//! answer or a lost acknowledged write must fail the command.

use std::process::{Command, Output};
use std::sync::Mutex;

/// Runs are timed against a schedule; running two at once on a small
/// machine would make the generator lag and the run invalid.
static SERIAL: Mutex<()> = Mutex::new(());

fn run(workload: &str, seed: u64, trace: u8, extra: &[&str]) -> Output {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    Command::new(env!("CARGO_BIN_EXE_servebench"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "4",
            "--trace",
            &trace.to_string(),
            "--scale",
            "tiny",
        ])
        .args(extra)
        .output()
        .expect("the benchmark binary runs")
}

/// The metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn last_line(out: &Output) -> String {
    stdout(out).lines().last().unwrap_or_default().to_string()
}

fn assert_reports(out: &Output, names: &[String], context: &str) {
    let text = stdout(out);
    assert!(
        out.status.success(),
        "{context}: exit {:?}\n{text}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let json = last_line(out);
    assert!(json.starts_with("{\"correct\": true"), "{context}: {json}");
    for name in names {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{context}: {name} missing from {json}"
        );
        assert!(
            text.contains(&format!("metric {name} ")),
            "{context}: {name} not printed"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let names = declared("end_to_end");
    assert!(names.contains(&"setup_s".to_string()));
    for (seed, workload) in ["hot_zipf", "cold_sigma", "live_durable"]
        .iter()
        .enumerate()
    {
        let out = run(workload, 100 + seed as u64, 0, &[]);
        assert_reports(&out, &names, workload);
        let text = stdout(&out);
        let mut printed = vec![
            "read_qps_max",
            "read_serial_p50_ms",
            "read_p50_ms",
            "read_p99_ms",
            "read_failed_frac",
            "driver.lag_ms_p99",
            "serial.memo_served",
        ];
        if *workload == "live_durable" {
            printed.extend([
                "write_p50_ms",
                "write_p95_ms",
                "write_failed_frac",
                "write_mps_max",
                "recovery_s",
            ]);
        }
        for name in printed {
            assert!(
                text.contains(&format!("metric {name} ")),
                "{workload}: {name}"
            );
        }
        assert!(text.starts_with("fingerprint {\"nproc\": "), "{workload}");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    let names = declared("per_layer");
    assert!(names.len() > 20);
    for (seed, workload) in ["hot_zipf", "cold_sigma", "live_durable"]
        .iter()
        .enumerate()
    {
        let out = run(workload, 200 + seed as u64, 1, &[]);
        assert_reports(&out, &names, workload);
        let spans = format!(
            "{}/.servebench/{workload}-seed{}-trace1.spans.tsv",
            env!("CARGO_MANIFEST_DIR"),
            200 + seed
        );
        let dump = std::fs::read_to_string(&spans).expect("span dump written");
        for span in [
            "replay.read",
            "core.cache.get",
            "core.live.prepare",
            "data.wal.sync",
        ] {
            assert!(
                dump.contains(&format!("\t{span}\t")),
                "{workload}: no {span} span"
            );
        }
    }
}

#[test]
fn a_corrupted_reference_answer_fails_the_command() {
    for workload in ["hot_zipf", "live_durable"] {
        for trace in [0, 1] {
            let out = run(workload, 300, trace, &["--corrupt-reference"]);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{workload} trace {trace}: {}",
                stdout(&out)
            );
            assert!(
                last_line(&out).starts_with("{\"correct\": false"),
                "{workload} trace {trace}: {}",
                last_line(&out)
            );
        }
    }
}

#[test]
fn a_lost_acknowledged_write_fails_the_command() {
    let out = run("live_durable", 301, 0, &["--phantom-ack"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(
        last_line(&out).starts_with("{\"correct\": false"),
        "{}",
        last_line(&out)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("was acknowledged") && stderr.contains("last acknowledged write"),
        "{stderr}"
    );
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
