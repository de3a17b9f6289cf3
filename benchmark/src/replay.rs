//! `--trace 1`: the traced run. It drives the service through the same
//! open-loop phase as the end-to-end run (tracing each request from its
//! scheduled time to its reply, and reading the broker's public stats),
//! then replays the same generated inputs single-threaded through the
//! layers' public functions with a span around every call. Spans are kept
//! in memory, written out at the end, and reduced to the per-layer
//! metrics. Nothing inside the program is instrumented.

use crate::check::Checks;
use crate::driver;
use crate::stats::{median, quantile};
use crate::workload::{Inputs, Phases, Scale, Workload, SHARDS};
use crate::{ms, set_up, Report};
use friends_core::cache::{CachePolicy, ProximityCache};
use friends_core::corpus::Corpus;
use friends_core::latency::Stage;
use friends_core::live::{DurabilityConfig, LiveCorpus, LiveDurability};
use friends_core::plan::{PlanCounters, PlannedExecutor, Planner, ProcessorRegistry};
use friends_core::processors::ScoringStrategy;
use friends_core::proximity::{SigmaBounds, SigmaWorkspace};
use friends_data::mutations::{MutationBatch, MutationParams, MutationStream};
use friends_data::queries::Query;
use friends_data::wal::SyncPolicy;
use friends_service::{SearchClient, ServiceConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed call: name, start and end (ns from the trace origin), the
/// span that caused it, and the request (or batch) it served.
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span belongs to: its name up to the last dot
    /// (`core.proximity.materialize` → `core.proximity`).
    pub fn layer(&self) -> &'static str {
        self.name.rsplit_once('.').map_or(self.name, |(l, _)| l)
    }
}

/// An in-memory span recorder. Spans nest by an explicit open stack, so
/// a span begun while another is open becomes its child.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, req: u64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
    }

    pub fn end(&mut self) {
        let id = self.open.pop().expect("end without begin");
        self.spans[id].end = self.now();
    }

    /// Times `f` as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }

    /// Records a span measured elsewhere, as a root.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: u64) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: None,
            req,
        });
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// The root of a span's tree.
    fn root(&self, mut id: usize) -> usize {
        while let Some(p) = self.spans[id].parent {
            id = p;
        }
        id
    }

    /// Self time per layer (ms) over the trees rooted at spans named
    /// `root`, largest first.
    pub fn layer_self_ms(&self, root: &str) -> Vec<(&'static str, f64)> {
        let own = self.self_ns();
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[self.root(i)].name == root {
                *by_layer.entry(s.layer()).or_default() += own[i];
            }
        }
        let mut out: Vec<_> = by_layer
            .into_iter()
            .map(|(l, ns)| (l, ns as f64 / 1e6))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// Total duration (ms) per child name of spans named `root`, largest
    /// first.
    pub fn child_totals_ms(&self, root: &str) -> Vec<(&'static str, f64)> {
        let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent.is_some_and(|p| self.spans[p].name == root) {
                *by_name.entry(s.name).or_default() += s.ns();
            }
        }
        let mut out: Vec<_> = by_name
            .into_iter()
            .map(|(n, ns)| (n, ns as f64 / 1e6))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// Writes the spans as tab-separated `id parent req name start_ns
    /// end_ns` lines.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("id\tparent\treq\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start, s.end
            );
        }
        std::fs::write(path, text)
    }
}

/// Root span names of the replay; `serve.*` roots time the service phase.
const READ_ROOT: &str = "replay.read";
const WRITE_ROOT: &str = "replay.write";
const ATTRIBUTION_ROOT: &str = "replay.attribution";
const RECOVERY_ROOT: &str = "replay.recovery";

/// Write batches the replay pushes through the write layers on a
/// read-only workload, so every workload reports every layer.
const PROBE_BATCHES: usize = 8;

/// Replayed reads compared with `ExactOnline` (every n-th).
const REPLAY_CHECK_EVERY: usize = 16;

/// One replay event, in schedule order.
enum Event<'a> {
    Read(usize, &'a Query),
    Write(usize, &'a MutationBatch),
}

/// Counts gathered beside the spans.
#[derive(Default)]
struct Counts {
    probes: u64,
    hits: u64,
    support: Vec<f64>,
    postings: u64,
    blocks_skipped: u64,
    scored: u64,
    swept: Vec<f64>,
    wal_bytes: Vec<f64>,
}

pub fn run_traced(
    w: &Workload,
    scale: Scale,
    seed: u64,
    seconds: Duration,
    out: &Path,
    corrupt_reference: bool,
) -> Report {
    let mut report = Report::default();
    report.checks.corrupt_first = corrupt_reference;
    let mut tracer = Tracer::new();
    let phases = Phases::split(seconds, w.writes.is_some());
    let pid = std::process::id();
    let wal_dir = w.writes.map(|_| out.join(format!("wal-{pid}")));
    let (corpus, client, _) = set_up(w, scale, seed, wal_dir.as_deref(), 1);
    let inputs = Inputs::generate(w, &corpus, &phases, seed);

    // The service phase: the end-to-end run's open loop, traced from the
    // outside.
    let open = driver::open_loop(
        &client,
        &inputs.reads.requests,
        w.model,
        w.deadline,
        phases.open,
        &inputs.writes,
        &[],
    );
    for r in &open.reads {
        let start = open.start + r.scheduled;
        tracer.record("serve.read", start, start + r.latency, r.index as u64);
    }
    for (i, r) in open.writes.iter().enumerate() {
        let start = open.start + r.scheduled;
        tracer.record("serve.write", start, start + r.latency, i as u64);
    }
    let totals = client.stats().totals();
    let submitted = totals.submitted.max(1) as f64;
    report.metric(
        "service.coalesced_frac",
        totals.coalesced as f64 / submitted,
        "frac",
    );
    report.metric(
        "service.memo_frac",
        totals.result_served as f64 / submitted,
        "frac",
    );
    report.metric(
        "service.max_queue_depth",
        totals.max_queue_depth as f64,
        "count",
    );
    report.metric(
        "service.queue_wait_ms_p99",
        ms(client.latencies().get(Stage::QueueWait).p99()),
        "ms",
    );
    let mut lag: Vec<f64> = open.lag.iter().map(|d| ms(*d)).collect();
    report.metric("driver.lag_ms_p99", quantile(&mut lag, 0.99), "ms");
    report.attempted = open.reads.len() as u64 + open.writes.len() as u64;
    report.failed = open.reads.iter().filter(|r| !r.ok).count() as u64
        + open.writes.iter().filter(|r| !r.ok).count() as u64;
    if w.writes.is_none() {
        for r in open.reads.iter().step_by(REPLAY_CHECK_EVERY) {
            if let Some(ranking) = &r.ranking {
                let q = &inputs.reads.requests[r.index].query;
                report
                    .checks
                    .compare("traced open-loop read", &corpus, w.model, q, ranking);
            }
        }
    }
    client.shutdown();
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    // The layer replay.
    let replay_dir = out.join(format!("replay-{pid}"));
    let _ = std::fs::remove_dir_all(&replay_dir);
    let mut events: Vec<(Duration, Event)> = inputs
        .reads
        .requests
        .iter()
        .take_while(|r| r.arrival < phases.open)
        .enumerate()
        .map(|(i, r)| (r.arrival, Event::Read(i, &r.query)))
        .chain(
            inputs
                .writes
                .iter()
                .enumerate()
                .map(|(i, (d, b))| (*d, Event::Write(i, b))),
        )
        .collect();
    events.sort_by_key(|(d, _)| *d);
    // Probe writes follow the reads of a read-only workload, outside the
    // replay's time budget.
    let probe = match w.writes {
        Some(_) => Vec::new(),
        None => probe_batches(&corpus, seed),
    };
    events.extend(
        probe
            .iter()
            .enumerate()
            .map(|(i, b)| (Duration::MAX, Event::Write(i, b))),
    );
    // The replay gets a third of the run, on top of the service phase.
    let budget = seconds / 3;
    let mut counts = Counts::default();
    let mut config = DurabilityConfig::new(&replay_dir);
    config.sync = SyncPolicy::Never;
    let (live, durability) = LiveCorpus::open_durable(Arc::clone(&corpus), config)
        .expect("the replay's durable directory opens");
    replay_events(
        w,
        &events,
        budget,
        &live,
        &durability,
        &mut tracer,
        &mut counts,
        &mut report.checks,
    );
    replay_durability(&live, &durability, &replay_dir, &mut tracer, &mut report);
    let _ = std::fs::remove_dir_all(&replay_dir);

    layer_metrics(&tracer, &counts, &mut report);
    let name = format!("{}-seed{}-trace1.spans.tsv", w.name, seed);
    if let Err(e) = tracer.dump(&out.join(name)) {
        eprintln!("servebench: cannot write the span dump: {e}");
    }
    for (layer, self_ms) in tracer.layer_self_ms(READ_ROOT) {
        println!("layer read {layer} self_ms {self_ms:.3}");
    }
    for (name, total) in tracer.child_totals_ms(WRITE_ROOT) {
        println!("span write {name} total_ms {total:.3}");
    }
    report
}

/// A short mutation stream for the write-path probe of read-only
/// workloads.
fn probe_batches(corpus: &Corpus, seed: u64) -> Vec<MutationBatch> {
    MutationStream::generate(
        &corpus.graph,
        &corpus.store,
        &MutationParams {
            count: PROBE_BATCHES * 16,
            ..MutationParams::default()
        },
        seed ^ 0x5052_4F42,
    )
    .batches(16)
}

/// Replays reads and writes in schedule order until they run out or
/// `budget` has passed; events scheduled at `Duration::MAX` (the probe
/// writes) run regardless.
#[allow(clippy::too_many_arguments)]
fn replay_events(
    w: &Workload,
    events: &[(Duration, Event)],
    budget: Duration,
    live: &LiveCorpus,
    durability: &LiveDurability,
    tracer: &mut Tracer,
    counts: &mut Counts,
    checks: &mut Checks,
) {
    let defaults = ServiceConfig::default();
    // One cache with the byte budget of every shard's together, and the
    // shards' admission policy.
    let cache = ProximityCache::with_limits(
        defaults.cache_capacity,
        defaults.cache_bytes * SHARDS,
        1,
        defaults.cache_policy,
    );
    // The executor reads σ from a one-entry staging cache the replay fills
    // first, so its span times scoring alone.
    let staging = Arc::new(ProximityCache::unsharded(
        1,
        CachePolicy {
            admission: false,
            ttl: None,
        },
    ));
    let registry = Arc::new(ProcessorRegistry::standard());
    let counters = Arc::new(PlanCounters::default());
    let refresh_cap = defaults.mutation_refresh_cap * SHARDS;
    let started = Instant::now();
    let mut ws = SigmaWorkspace::new();
    let unbudgeted = events.partition_point(|(d, _)| *d < Duration::MAX);
    let mut next = 0;
    let in_budget = |next: &mut usize| {
        if *next < unbudgeted && started.elapsed() >= budget {
            *next = unbudgeted;
        }
        *next < events.len()
    };
    while in_budget(&mut next) {
        let snap = live.snapshot();
        let mut executor = PlannedExecutor::new(
            &snap,
            Some(Arc::clone(&staging)),
            Arc::clone(&registry),
            Planner::default(),
            Arc::clone(&counters),
        );
        while in_budget(&mut next) {
            match events[next].1 {
                Event::Read(i, q) => {
                    let req = i as u64;
                    tracer.begin(READ_ROOT, req);
                    counts.probes += 1;
                    let sigma = match tracer.leaf("core.cache.get", req, || {
                        cache.get(&snap.graph, q.seeker, w.model)
                    }) {
                        Some(v) => {
                            counts.hits += 1;
                            v
                        }
                        None => {
                            let v = tracer.leaf("core.proximity.materialize", req, || {
                                w.model.materialize_into(&snap.graph, q.seeker, &mut ws);
                                Arc::new(ws.snapshot(snap.graph.num_nodes()))
                            });
                            counts
                                .support
                                .push(v.support().map_or(snap.graph.num_nodes(), <[_]>::len) as f64);
                            tracer.leaf("core.cache.insert", req, || {
                                cache.insert(&snap.graph, q.seeker, w.model, Arc::clone(&v))
                            });
                            v
                        }
                    };
                    staging.insert(&snap.graph, q.seeker, w.model, sigma);
                    let result = tracer.leaf("core.processors.execute", req, || {
                        executor.execute(
                            q,
                            w.model,
                            ScoringStrategy::Auto,
                            None,
                            SigmaBounds::EXACT,
                        )
                    });
                    tracer.end();
                    counts.scored += 1;
                    counts.postings += result.stats.postings_scanned as u64;
                    counts.blocks_skipped += result.stats.blocks_skipped as u64;
                    if i % REPLAY_CHECK_EVERY == 0 {
                        checks.compare("replayed read", &snap, w.model, q, &result.items);
                    }
                    next += 1;
                }
                Event::Write(i, batch) => {
                    replay_write(
                        i as u64,
                        batch,
                        live,
                        durability,
                        &cache,
                        refresh_cap,
                        &mut ws,
                        tracer,
                        counts,
                    );
                    next += 1;
                    // The executor is bound to the old snapshot.
                    break;
                }
            }
        }
    }
}

/// One write batch through the write layers in the broker's order, plus
/// the prepare's parts timed separately on the same inputs.
#[allow(clippy::too_many_arguments)]
fn replay_write(
    req: u64,
    batch: &MutationBatch,
    live: &LiveCorpus,
    durability: &LiveDurability,
    cache: &ProximityCache,
    refresh_cap: usize,
    ws: &mut SigmaWorkspace,
    tracer: &mut Tracer,
    counts: &mut Counts,
) {
    let base = live.snapshot();
    let (inserts, removals, appends) = batch.split();
    tracer.begin(ATTRIBUTION_ROOT, req);
    let graph = tracer.leaf("graph.with_edits", req, || {
        base.graph.with_edits(&inserts, &removals)
    });
    let store = if appends.is_empty() {
        base.store.clone()
    } else {
        tracer.leaf("data.store.with_appends", req, || {
            base.store.with_appends(&appends)
        })
    };
    tracer.leaf("core.corpus.sigma_index", req, || {
        let next = Corpus::with_epoch(graph, store, base.epoch() + 1);
        next.sigma_index();
    });
    tracer.end();

    tracer.begin(WRITE_ROOT, req);
    let prepared = tracer.leaf("core.live.prepare", req, || live.prepare(batch, None));
    let receipt = tracer.leaf("data.wal.append", req, || {
        durability.log_batch(prepared.epoch(), batch)
    });
    let receipt = receipt.expect("WAL append");
    counts.wal_bytes.push(receipt.bytes as f64);
    tracer
        .leaf("data.wal.sync", req, || durability.sync())
        .expect("WAL sync");
    let refreshed: Vec<_> = tracer.leaf("core.proximity.refresh", req, || {
        cache
            .affected_entries(&prepared.touched_nodes)
            .into_iter()
            .take(refresh_cap)
            .map(|(seeker, model)| {
                model.materialize_into(&prepared.next.graph, seeker, ws);
                let v = ws.snapshot(prepared.next.graph.num_nodes());
                (seeker, model, Arc::new(v))
            })
            .collect()
    });
    let swept = tracer.leaf("core.cache.sweep", req, || {
        cache.invalidate_affected(&prepared.touched_nodes)
    });
    counts.swept.push(swept as f64);
    tracer.leaf("core.cache.install", req, || {
        for (seeker, model, v) in refreshed {
            cache.insert(&prepared.next.graph, seeker, model, v);
        }
    });
    tracer.leaf("core.live.publish", req, || live.publish(&prepared));
    tracer.end();
}

/// Recovers the replay's directory from the WAL, then snapshots it.
fn replay_durability(
    live: &LiveCorpus,
    durability: &LiveDurability,
    dir: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let seed_snapshot = friends_data::io::list_snapshots(dir)
        .ok()
        .and_then(|s| s.first().map(|(_, p)| p.clone()));
    tracer.begin(RECOVERY_ROOT, 0);
    let loaded = seed_snapshot
        .as_ref()
        .map(|p| tracer.leaf("data.io.load", 0, || friends_data::io::load_with_epoch(p)));
    let recovered = tracer.leaf("core.live.recover", 0, || LiveCorpus::recover(dir));
    tracer.end();
    if !matches!(loaded, Some(Ok(_))) {
        report.checks.fail("the seed snapshot does not load".into());
    }
    match recovered {
        Ok((_, r)) if r.recovered_epoch == live.epoch() && !r.degraded() => {
            report.metric("core.live.replayed_batches", r.replayed as f64, "count");
        }
        Ok((_, r)) => {
            report.checks.fail(format!(
                "replay recovery reached epoch {} (degraded: {}), expected {}",
                r.recovered_epoch,
                r.degraded(),
                live.epoch()
            ));
            report.metric("core.live.replayed_batches", r.replayed as f64, "count");
        }
        Err(e) => {
            report.checks.fail(format!("replay recovery failed: {e}"));
            report.metric("core.live.replayed_batches", 0.0, "count");
        }
    }
    tracer.begin(RECOVERY_ROOT, 1);
    let epoch = tracer.leaf("data.io.snapshot", 1, || durability.snapshot_now(live));
    tracer.end();
    let bytes = epoch
        .ok()
        .and_then(|e| std::fs::metadata(friends_data::io::snapshot_path(dir, e)).ok())
        .map_or(0.0, |m| m.len() as f64);
    report.metric("data.io.snapshot_bytes", bytes, "bytes");
}

/// Reduces the spans and counts to the per-layer metrics.
fn layer_metrics(tracer: &Tracer, counts: &Counts, report: &mut Report) {
    let p = |name: &str, q: f64| quantile(&mut tracer.durations_ms(name), q);
    let first = |name: &str| tracer.durations_ms(name).first().copied().unwrap_or(0.0);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut support = counts.support.clone();
    let mut swept = counts.swept.clone();
    let mut wal_bytes = counts.wal_bytes.clone();
    let batches = tracer.durations_ms(WRITE_ROOT).len().max(1) as f64;
    let refresh: f64 = tracer.durations_ms("core.proximity.refresh").iter().sum();

    report.metric(
        "core.cache.hit_frac",
        ratio(counts.hits, counts.probes),
        "frac",
    );
    report.metric(
        "core.proximity.materialize_ms_p50",
        p("core.proximity.materialize", 0.5),
        "ms",
    );
    report.metric(
        "core.proximity.materialize_ms_p99",
        p("core.proximity.materialize", 0.99),
        "ms",
    );
    report.metric(
        "core.proximity.materializations",
        tracer.durations_ms("core.proximity.materialize").len() as f64,
        "count",
    );
    report.metric(
        "core.proximity.support_nodes_p50",
        median(&mut support),
        "count",
    );
    report.metric(
        "core.processors.score_us_p50",
        p("core.processors.execute", 0.5) * 1e3,
        "us",
    );
    report.metric(
        "core.processors.score_us_p99",
        p("core.processors.execute", 0.99) * 1e3,
        "us",
    );
    report.metric(
        "index.postings_per_query",
        ratio(counts.postings, counts.scored),
        "count",
    );
    report.metric(
        "index.blocks_skipped_per_query",
        ratio(counts.blocks_skipped, counts.scored),
        "count",
    );
    report.metric(
        "core.live.prepare_ms_p50",
        p("core.live.prepare", 0.5),
        "ms",
    );
    report.metric(
        "core.live.prepare_ms_p95",
        p("core.live.prepare", 0.95),
        "ms",
    );
    report.metric("graph.with_edits_ms_p50", p("graph.with_edits", 0.5), "ms");
    report.metric(
        "data.store.with_appends_ms_p50",
        p("data.store.with_appends", 0.5),
        "ms",
    );
    report.metric(
        "core.corpus.sigma_index_ms_p50",
        p("core.corpus.sigma_index", 0.5),
        "ms",
    );
    report.metric(
        "core.cache.sweep_us_p50",
        p("core.cache.sweep", 0.5) * 1e3,
        "us",
    );
    report.metric("core.cache.swept_per_batch", median(&mut swept), "count");
    report.metric(
        "core.proximity.refresh_ms_per_batch",
        refresh / batches,
        "ms",
    );
    report.metric(
        "core.live.publish_us_p50",
        p("core.live.publish", 0.5) * 1e3,
        "us",
    );
    report.metric(
        "data.wal.append_us_p50",
        p("data.wal.append", 0.5) * 1e3,
        "us",
    );
    report.metric("data.wal.sync_ms_p50", p("data.wal.sync", 0.5), "ms");
    report.metric("data.wal.sync_ms_p95", p("data.wal.sync", 0.95), "ms");
    report.metric("data.wal.bytes_per_batch", median(&mut wal_bytes), "bytes");
    report.metric("data.io.snapshot_ms", first("data.io.snapshot"), "ms");
    let load = first("data.io.load");
    report.metric("data.io.load_ms", load, "ms");
    report.metric(
        "core.live.replay_ms",
        (first("core.live.recover") - load).max(0.0),
        "ms",
    );

    let own = tracer.self_ns();
    let (mut root_ns, mut unattributed) = (0u64, 0u64);
    for (i, s) in tracer.spans.iter().enumerate() {
        if s.parent.is_none() && s.name.starts_with("replay.") {
            root_ns += s.ns();
            unattributed += own[i];
        }
    }
    report.metric(
        "replay.unattributed_frac",
        ratio(unattributed, root_ns),
        "frac",
    );
}
