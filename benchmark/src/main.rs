//! `servebench`: the repository's end-to-end serving benchmark.
//!
//! ```text
//! servebench --workload <hot_zipf|cold_sigma|live_durable> --seed <n>
//!            --seconds <s> --trace <0|1> [--scale full|tiny] [--corrupt-reference]
//!            [--phantom-ack]
//! ```
//!
//! `--trace 0` drives a 2-shard `ServedClient` and prints the end-to-end
//! metrics; `--trace 1` replays the same generated inputs through the
//! layers' public functions and prints the per-layer metrics. Either way
//! the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the command exits
//! non-zero when a served ranking differs from the exact answer or an
//! acknowledged write is lost. See `README.md` for the workloads, the
//! metrics and which layer should move which number.

mod check;
mod driver;
mod replay;
mod stats;
mod workload;

use check::Checks;
use friends_core::corpus::Corpus;
use friends_core::live::DurabilityConfig;
use friends_core::plan::QueryRequest;
use friends_service::{SearchClient, ServedClient, ServiceConfig};
use stats::{median, quantile, supports, Fingerprint};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{sample_indices, Inputs, Phases, Scale, Workload, SHARDS};

/// Where results, span dumps and the durable service's directory go,
/// relative to the working directory.
const OUT_DIR: &str = ".servebench";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// A run whose generator sent its reads later than this share of the
/// latency limit at p99 measured the load generator, not the system: it
/// is invalid, not slow.
const LAG_P99_SHARE: f64 = 0.5;

/// Closed-loop capacity trials per run, and as many serial trials;
/// `read_qps_max` and `read_serial_p50_ms` are medians over them.
const CLOSED_TRIALS: u32 = 16;

/// Sampled rankings checked against `ExactOnline` per phase.
const OPEN_SAMPLE: usize = 160;
const CLOSED_SAMPLE: usize = 160;
const RESTART_SAMPLE: usize = 48;

/// Exit codes besides success.
const EXIT_INCORRECT: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_INVALID: u8 = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    scale: Scale,
    corrupt_reference: bool,
    /// Test hook: count one more acknowledged write than the service
    /// published, which the restart check must report as lost.
    phantom_ack: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut corrupt_reference = false;
    let mut phantom_ack = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-reference" {
            corrupt_reference = true;
            continue;
        }
        if flag == "--phantom-ack" {
            phantom_ack = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err("--scale takes full or tiny".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        corrupt_reference,
        phantom_ack,
    })
}

/// One named number of a run.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: the metrics its mode promises (the JSON line),
/// further named numbers printed above it, and the tallies.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub extra: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// Set when the run measured the generator rather than the system.
    pub invalid: Option<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn extra(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.extra.push(Metric { name, value, unit });
    }

    fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.checks.ok(),
            self.attempted.max(1),
            self.failed,
            json_metrics(&self.metrics)
        )
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`; a non-finite value is `null`.
fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The broker configuration every workload runs with.
fn service_config(w: &Workload, durable: Option<&Path>) -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        result_cache_capacity: w.memo,
        default_deadline: Some(w.deadline),
        durability: durable.map(DurabilityConfig::new),
        ..ServiceConfig::default()
    }
}

/// Builds the corpus and starts the service over it (seeding the durable
/// directory, which must be empty, on read-write workloads): the work
/// `setup_s` times.
fn start_service(
    w: &Workload,
    scale: Scale,
    seed: u64,
    durable: Option<&Path>,
) -> (Arc<Corpus>, ServedClient) {
    let corpus = Arc::new(w.build_corpus(scale, seed));
    corpus.sigma_index();
    let client = ServedClient::start(Arc::clone(&corpus), service_config(w, durable));
    (corpus, client)
}

/// Sets up [`SETUP_REPS`] times and keeps the last service; returns the
/// median set-up time too.
fn set_up(
    w: &Workload,
    scale: Scale,
    seed: u64,
    durable: Option<&Path>,
    reps: usize,
) -> (Arc<Corpus>, ServedClient, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept: Option<(Arc<Corpus>, ServedClient)> = None;
    for _ in 0..reps {
        if let Some((_, client)) = kept.take() {
            client.shutdown();
        }
        if let Some(dir) = durable {
            let _ = std::fs::remove_dir_all(dir);
        }
        let start = Instant::now();
        kept = Some(start_service(w, scale, seed, durable));
        times.push(start.elapsed().as_secs_f64());
    }
    let (corpus, client) = kept.expect("at least one set-up");
    (corpus, client, median(&mut times))
}

/// Epochs whose snapshots the writer pins for checking reads served while
/// writes land: the seed and three points through the paced writes, each
/// with its successor.
fn epochs_to_keep(paced: usize) -> Vec<u64> {
    let n = paced as u64;
    let mut keep: Vec<u64> = [0, n / 4, n / 2, 3 * n / 4]
        .iter()
        .flat_map(|&e| [e, e + 1])
        .filter(|&e| e <= n)
        .collect();
    keep.dedup();
    keep
}

/// `--trace 0`: the end-to-end run.
fn run_end_to_end(args: &Args, out: &Path) -> Report {
    let w = &args.workload;
    let mut report = Report::default();
    report.checks.corrupt_first = args.corrupt_reference;
    let phases = Phases::split(args.seconds, w.writes.is_some());
    let wal_dir = w
        .writes
        .map(|_| out.join(format!("wal-{}", std::process::id())));
    let (corpus, client, setup_s) =
        set_up(w, args.scale, args.seed, wal_dir.as_deref(), SETUP_REPS);
    report.metric("setup_s", setup_s, "s");

    let inputs = Inputs::generate(w, &corpus, &phases, args.seed);
    let keep = epochs_to_keep(inputs.writes.len());
    let open = driver::open_loop(
        &client,
        &inputs.reads.requests,
        w.model,
        w.deadline,
        phases.open,
        &inputs.writes,
        &keep,
    );
    let settled = client.service().snapshot();
    // Capacity and serial trials alternate, so a slow stretch of the
    // machine hits both and neither reads one stretch alone. Each trial
    // continues after the previous one's last query: no reply either
    // times comes from a memo entry an earlier trial left.
    let closed_sample = sample_indices(inputs.closed.len(), CLOSED_SAMPLE, args.seed);
    let mut next = 0;
    let mut closed = driver::ClosedLoopRun::default();
    let mut serial = driver::ClosedLoopRun::default();
    let (mut serial_memo, mut serial_coalesced) = (0, 0);
    let mut cpu_us_per_query = Vec::with_capacity(CLOSED_TRIALS as usize);
    for _ in 0..CLOSED_TRIALS {
        let (cpu, done) = (stats::process_cpu_seconds(), closed.completed);
        driver::closed_trial(
            &client,
            &inputs.closed,
            w.model,
            w.window,
            phases.closed / CLOSED_TRIALS,
            &mut next,
            &closed_sample,
            &mut closed,
        );
        cpu_us_per_query.push(
            (stats::process_cpu_seconds() - cpu) * 1e6 / (closed.completed - done).max(1) as f64,
        );
        let before = client.stats().totals();
        driver::closed_trial(
            &client,
            &inputs.closed,
            w.model,
            1,
            phases.serial / CLOSED_TRIALS,
            &mut next,
            &closed_sample,
            &mut serial,
        );
        let after = client.stats().totals();
        serial_memo += after.result_served - before.result_served;
        serial_coalesced += after.coalesced - before.coalesced;
    }
    let burst = w
        .writes
        .map(|_| driver::write_burst(&client, &inputs.burst, phases.burst));

    // Read latency over the measured (post-warm-up) open-loop reads.
    let measured: Vec<&driver::ReadRecord> = open
        .reads
        .iter()
        .filter(|r| r.scheduled >= phases.warmup)
        .collect();
    let mut latency: Vec<f64> = measured.iter().map(|r| ms(r.latency)).collect();
    let read_failed = measured.iter().filter(|r| !r.ok).count() as u64;
    let full = args.scale == Scale::Full;
    if full && !supports(latency.len(), 0.99) {
        report.invalid = Some(format!(
            "{} measured reads cannot support a p99",
            latency.len()
        ));
    }
    report.extra("read_p50_ms", median(&mut latency), "ms");
    report.extra("read_p99_ms", quantile(&mut latency, 0.99), "ms");
    report.extra("read_qps_max", median(&mut closed.rates.clone()), "1/s");
    report.extra("read_serial_p50_ms", median(&mut serial.p50s.clone()), "ms");
    report.metric("read_cpu_us_per_query", median(&mut cpu_us_per_query), "us");
    report.extra("serial.memo_served", serial_memo as f64, "count");
    report.extra("serial.coalesced", serial_coalesced as f64, "count");
    report.extra(
        "read_failed_frac",
        read_failed as f64 / measured.len().max(1) as f64,
        "frac",
    );
    let mut lag: Vec<f64> = open.lag.iter().map(|d| ms(*d)).collect();
    let lag_p99 = quantile(&mut lag, 0.99);
    report.extra("driver.lag_ms_p99", lag_p99, "ms");
    let lag_limit = ms(w.deadline) * LAG_P99_SHARE;
    if lag_p99 > lag_limit {
        report.invalid = Some(format!(
            "generator lag p99 {lag_p99:.3} ms exceeds {lag_limit} ms"
        ));
    }
    report.attempted =
        measured.len() as u64 + closed.completed + closed.failed + serial.completed + serial.failed;
    report.failed = read_failed + closed.failed + serial.failed;

    if let Some(burst) = &burst {
        let mut write_ms: Vec<f64> = open.writes.iter().map(|r| ms(r.latency)).collect();
        let write_failed = open.writes.iter().filter(|r| !r.ok).count() as u64 + burst.failed;
        let write_attempted = open.writes.len() as u64 + burst.batches + burst.failed;
        if !supports(write_ms.len(), 0.95) {
            eprintln!(
                "servebench: write_p95_ms rests on {} paced writes, fewer than ten beyond it",
                write_ms.len()
            );
        }
        report.extra("write_batches", write_ms.len() as f64, "count");
        report.extra("write_p50_ms", quantile(&mut write_ms, 0.5), "ms");
        report.extra("write_p95_ms", quantile(&mut write_ms, 0.95), "ms");
        report.extra(
            "write_failed_frac",
            write_failed as f64 / write_attempted.max(1) as f64,
            "frac",
        );
        report.extra(
            "write_mps_max",
            burst.mutations as f64 / burst.elapsed.as_secs_f64(),
            "1/s",
        );
        report.attempted += write_attempted;
        report.failed += write_failed;
    }

    check_open_loop(&mut report.checks, w, &inputs, &open, &corpus, args.seed);
    for (qi, ranking) in closed.sampled.iter().chain(&serial.sampled) {
        report.checks.compare(
            "closed-loop read",
            &settled,
            w.model,
            &inputs.closed[*qi],
            ranking,
        );
    }

    if let (Some(burst), Some(dir)) = (&burst, &wal_dir) {
        let recovery_s = restart_and_check(
            &mut report.checks,
            w,
            client,
            &corpus,
            dir,
            burst.last_epoch + u64::from(args.phantom_ack),
            &inputs,
            args.seed,
        );
        report.extra("recovery_s", recovery_s, "s");
        let _ = std::fs::remove_dir_all(dir);
    } else {
        client.shutdown();
    }
    report.metric("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    report
}

/// Checks a seeded sample of open-loop replies. Without writes every
/// reply answers the seed corpus; with writes, only replies whose
/// candidate epochs were all pinned by the writer can be checked.
fn check_open_loop(
    checks: &mut Checks,
    w: &Workload,
    inputs: &Inputs,
    open: &driver::OpenLoopRun,
    corpus: &Arc<Corpus>,
    seed: u64,
) {
    let done: Vec<&driver::ReadRecord> =
        open.reads.iter().filter(|r| r.ranking.is_some()).collect();
    if w.writes.is_none() {
        for i in sample_indices(done.len(), OPEN_SAMPLE, seed) {
            let r = done[i];
            let q = &inputs.reads.requests[r.index].query;
            checks.compare(
                "open-loop read",
                corpus,
                w.model,
                q,
                r.ranking.as_ref().unwrap(),
            );
        }
        return;
    }
    let last = open.writes.iter().map(|r| r.epoch).max().unwrap_or(0);
    let candidates = |r: &driver::ReadRecord| (r.epochs.0, (r.epochs.1 + 1).min(last));
    let checkable: Vec<&driver::ReadRecord> = done
        .into_iter()
        .filter(|r| {
            let (from, to) = candidates(r);
            (from..=to).all(|e| open.kept.contains_key(&e))
        })
        .collect();
    let before = checks.compared;
    for i in sample_indices(checkable.len(), OPEN_SAMPLE, seed) {
        let r = checkable[i];
        let q = &inputs.reads.requests[r.index].query;
        checks.compare_any_epoch(
            "open-loop read under writes",
            &open.kept,
            candidates(r),
            w.model,
            q,
            r.ranking.as_ref().unwrap(),
        );
    }
    if checks.compared == before {
        checks.fail("no open-loop read under writes could be checked".into());
    }
}

/// Shuts the durable service down, restarts it over its directory and
/// checks that it recovered the last acknowledged epoch cleanly and
/// answers exactly as before. Returns the restart time in seconds.
#[allow(clippy::too_many_arguments)]
fn restart_and_check(
    checks: &mut Checks,
    w: &Workload,
    client: ServedClient,
    corpus: &Arc<Corpus>,
    dir: &Path,
    acked: u64,
    inputs: &Inputs,
    seed: u64,
) -> f64 {
    let before = client.service().snapshot();
    if before.epoch() != acked {
        checks.fail(format!(
            "service serves epoch {} but the last acknowledged write published {acked}",
            before.epoch()
        ));
    }
    let probe: Vec<_> = sample_indices(inputs.closed.len(), RESTART_SAMPLE, seed ^ 1)
        .into_iter()
        .map(|i| inputs.closed[i].clone())
        .collect();
    let ask = |c: &ServedClient| -> Vec<Option<driver::Ranking>> {
        probe
            .iter()
            .map(|q| {
                c.run(
                    QueryRequest::from_query(q.clone())
                        .with_model(w.model)
                        .without_deadline(),
                )
                .outcome
                .result()
                .map(|r| r.items.clone())
            })
            .collect()
    };
    let served_before = ask(&client);
    client.shutdown();
    let start = Instant::now();
    let restarted = ServedClient::start(Arc::clone(corpus), service_config(w, Some(dir)));
    let recovery_s = start.elapsed().as_secs_f64();
    match restarted.recovery_report() {
        Some(r) if r.recovered_epoch == acked && !r.degraded() => {}
        Some(r) => checks.fail(format!(
            "restart recovered epoch {} (degraded: {}) but epoch {acked} was acknowledged",
            r.recovered_epoch,
            r.degraded()
        )),
        None => checks.fail("restarted service is not durable".into()),
    }
    let served_after = ask(&restarted);
    for ((q, b), a) in probe.iter().zip(&served_before).zip(&served_after) {
        match (b, a) {
            (Some(b), Some(a)) => {
                checks.compare("read before restart", &before, w.model, q, b);
                if !check::same_ranking(b, a) {
                    checks.fail(format!(
                        "seeker {} tags {:?}: answer changed across restart",
                        q.seeker, q.tags
                    ));
                }
            }
            _ => checks.fail(format!(
                "seeker {} tags {:?}: probe read around restart failed",
                q.seeker, q.tags
            )),
        }
    }
    restarted.shutdown();
    recovery_s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <hot_zipf|cold_sigma|live_durable> --seed <n> \
                 --seconds <s> --trace <0|1> [--scale full|tiny] [--corrupt-reference] \
                 [--phantom-ack]"
            );
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let out = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("servebench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(EXIT_USAGE);
    }
    let fingerprint = Fingerprint::measure();
    let report = if args.trace {
        replay::run_traced(
            &args.workload,
            args.scale,
            args.seed,
            args.seconds,
            &out,
            args.corrupt_reference,
        )
    } else {
        run_end_to_end(&args, &out)
    };
    let name = format!(
        "{}-seed{}-trace{}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    println!("fingerprint {}", fingerprint.to_json());
    for m in report.metrics.iter().chain(&report.extra) {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "checks compared {} mismatches {}",
        report.checks.compared,
        report.checks.mismatches.len()
    );
    for m in &report.checks.mismatches {
        eprintln!("servebench: MISMATCH {m}");
    }
    let json = report.json();
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"fingerprint\": {}, \"result\": {}, \"extra\": {}}}\n",
        args.workload.name,
        args.seed,
        args.seconds.as_secs(),
        fingerprint.to_json(),
        json,
        json_metrics(&report.extra)
    );
    if let Err(e) = std::fs::write(out.join(format!("{name}.json")), record) {
        eprintln!("servebench: cannot write the result record: {e}");
    }
    if let Some(why) = &report.invalid {
        eprintln!("servebench: invalid run: {why}");
        return ExitCode::from(EXIT_INVALID);
    }
    println!("{json}");
    if report.checks.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    }
}
