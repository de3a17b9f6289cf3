//! Load generation from one process: an open-loop read driver (plus a
//! paced writer thread on read-write workloads), a closed-loop read
//! capacity phase and a closed-loop write burst.
//!
//! Open-loop times are counted from each request's **scheduled** send
//! time, not from when it was submitted: a stall in the driver or the
//! service then shows in every request it delayed, and the driver's own
//! lateness is reported separately as lag.

use friends_core::corpus::Corpus;
use friends_core::plan::QueryRequest;
use friends_core::proximity::ProximityModel;
use friends_data::mutations::MutationBatch;
use friends_data::queries::Query;
use friends_data::ItemId;
use friends_service::{Outcome, Reply, SearchClient, ServedClient, Ticket};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A ranking as the service returned it.
pub type Ranking = Vec<(ItemId, f32)>;

/// Bounds on how long the driver parks between completion sweeps. Within
/// them it parks for a sixteenth of the youngest pending request's age, so
/// a reply is seen within ~6% of its latency without waking the machine
/// thousands of times per slow request.
const MIN_PARK: Duration = Duration::from_micros(50);
const MAX_PARK: Duration = Duration::from_millis(1);

/// A ticket abandoned this long past its latency limit counts as failed.
const ABANDON_FACTOR: u32 = 20;

/// One open-loop read.
pub struct ReadRecord {
    /// Index into the open-loop stream.
    pub index: usize,
    /// Scheduled send offset from the start of the run.
    pub scheduled: Duration,
    /// Time from the scheduled send until the reply was seen.
    pub latency: Duration,
    /// Completed, and within the latency limit.
    pub ok: bool,
    /// The ranking of a completed reply.
    pub ranking: Option<Ranking>,
    /// Published epoch when the request was sent and when its reply was
    /// seen. The reply answers some epoch in `send..=seen + 1` (a shard
    /// switches to a new epoch just before it is published).
    pub epochs: (u64, u64),
}

/// One paced write batch.
pub struct WriteRecord {
    pub scheduled: Duration,
    /// Time from the scheduled send until `try_apply_mutations` returned,
    /// which is after the batch was logged and published.
    pub latency: Duration,
    pub ok: bool,
    pub epoch: u64,
}

/// What the open-loop phase observed.
pub struct OpenLoopRun {
    /// When the schedule started; offsets count from here.
    pub start: Instant,
    pub reads: Vec<ReadRecord>,
    /// How late each read was submitted after its scheduled time.
    pub lag: Vec<Duration>,
    pub writes: Vec<WriteRecord>,
    /// Corpus snapshots the writer pinned right after publishing the
    /// epochs it was asked to keep, for the reference answers.
    pub kept: BTreeMap<u64, Arc<Corpus>>,
}

/// Drives the open-loop schedule: reads from the calling thread, paced
/// writes (if any) from one writer thread. Reads due at or after `end`
/// are not sent. `keep` names the epochs whose snapshots the writer pins.
pub fn open_loop(
    client: &ServedClient,
    reads: &[friends_data::requests::OpenLoopRequest],
    model: ProximityModel,
    deadline: Duration,
    end: Duration,
    writes: &[(Duration, MutationBatch)],
    keep: &[u64],
) -> OpenLoopRun {
    std::thread::scope(|s| {
        let start = Instant::now();
        let writer = s.spawn(move || paced_writer(client, writes, keep, start));
        let (records, lag) = read_driver(client, reads, model, deadline, end, start);
        let (writes, kept) = writer.join().expect("writer thread panicked");
        OpenLoopRun {
            start,
            reads: records,
            lag,
            writes,
            kept,
        }
    })
}

fn read_driver(
    client: &ServedClient,
    reads: &[friends_data::requests::OpenLoopRequest],
    model: ProximityModel,
    deadline: Duration,
    end: Duration,
    start: Instant,
) -> (Vec<ReadRecord>, Vec<Duration>) {
    let due: Vec<_> = reads.iter().take_while(|r| r.arrival < end).collect();
    let mut records = Vec::with_capacity(due.len());
    let mut lag = Vec::with_capacity(due.len());
    let mut pending: Vec<(usize, Ticket, u64)> = Vec::new();
    let abandon = deadline * ABANDON_FACTOR;
    let mut next = 0;
    while next < due.len() || !pending.is_empty() {
        while next < due.len() && start.elapsed() >= due[next].arrival {
            let scheduled = start + due[next].arrival;
            let epoch = client.epoch();
            let ticket = client.submit(
                QueryRequest::from_query(due[next].query.clone())
                    .with_model(model)
                    .with_deadline(deadline)
                    .with_tag(next as u64),
            );
            lag.push(scheduled.elapsed());
            pending.push((next, ticket, epoch));
            next += 1;
        }
        let mut i = 0;
        while i < pending.len() {
            let scheduled = due[pending[i].0].arrival;
            let reply = pending[i].1.try_take();
            let late = start.elapsed().saturating_sub(scheduled);
            if reply.is_none() && late < abandon {
                i += 1;
                continue;
            }
            let (index, _, sent_epoch) = pending.swap_remove(i);
            let ranking = match reply.map(|r| r.outcome) {
                Some(Outcome::Done(result)) => Some(result.items),
                _ => None,
            };
            records.push(ReadRecord {
                index,
                scheduled,
                latency: late,
                ok: ranking.is_some() && late <= deadline,
                ranking,
                epochs: (sent_epoch, client.epoch()),
            });
        }
        // Poll while replies are due; otherwise sleep to the next arrival.
        let now = start.elapsed();
        let youngest = pending
            .iter()
            .map(|p| now.saturating_sub(due[p.0].arrival))
            .min();
        let poll = youngest.map(|age| (age / 16).clamp(MIN_PARK, MAX_PARK));
        let to_next = due.get(next).map(|r| r.arrival.saturating_sub(now));
        std::thread::sleep(
            [poll, to_next]
                .into_iter()
                .flatten()
                .min()
                .unwrap_or_default(),
        );
    }
    records.sort_unstable_by_key(|r| r.index);
    (records, lag)
}

fn paced_writer(
    client: &ServedClient,
    writes: &[(Duration, MutationBatch)],
    keep: &[u64],
    start: Instant,
) -> (Vec<WriteRecord>, BTreeMap<u64, Arc<Corpus>>) {
    let mut records = Vec::with_capacity(writes.len());
    let mut kept = BTreeMap::new();
    if keep.contains(&client.epoch()) {
        kept.insert(client.epoch(), client.service().snapshot());
    }
    for (due, batch) in writes {
        let wait = due.saturating_sub(start.elapsed());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        let result = client.try_apply_mutations(batch, None);
        let latency = start.elapsed().saturating_sub(*due);
        let epoch = result.as_ref().map_or(client.epoch(), |r| r.epoch);
        if result.is_ok() && keep.contains(&epoch) {
            kept.insert(epoch, client.service().snapshot());
        }
        records.push(WriteRecord {
            scheduled: *due,
            latency,
            ok: result.is_ok(),
            epoch,
        });
    }
    (records, kept)
}

/// What a series of closed-loop read trials observed.
#[derive(Default)]
pub struct ClosedLoopRun {
    pub completed: u64,
    pub failed: u64,
    /// Completions per second of each trial.
    pub rates: Vec<f64>,
    /// Median submit-to-reply latency (ms) of each trial.
    pub p50s: Vec<f64>,
    /// `(query index, ranking)` of the completions whose submission index
    /// is in the sample.
    pub sampled: Vec<(usize, Ranking)>,
}

/// Runs one closed-loop trial into `run`: keeps `window` deadline-free
/// requests in flight, submitting `queries` in order from submission index
/// `*next` (cycling), until `length` has passed, then drains. The trial's
/// rate is its completions over its whole elapsed time. `*next` is left
/// after the last request sent, so the next trial never repeats a query
/// this one left in a cache.
#[allow(clippy::too_many_arguments)]
pub fn closed_trial(
    client: &ServedClient,
    queries: &[Query],
    model: ProximityModel,
    window: usize,
    length: Duration,
    next: &mut usize,
    sample: &[usize],
    run: &mut ClosedLoopRun,
) {
    let mut pending: VecDeque<(usize, Instant, Ticket)> = VecDeque::with_capacity(window);
    let mut latency_ms: Vec<f64> = Vec::new();
    let mut completed = 0u64;
    let mut take = |n: usize, sent: Instant, reply: Reply| {
        latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        match reply.outcome {
            Outcome::Done(result) => {
                completed += 1;
                if sample.binary_search(&n).is_ok() {
                    run.sampled.push((n % queries.len(), result.items));
                }
            }
            _ => run.failed += 1,
        }
    };
    let start = Instant::now();
    loop {
        while pending.len() < window && start.elapsed() < length {
            let q = QueryRequest::from_query(queries[*next % queries.len()].clone())
                .with_model(model)
                .without_deadline();
            // Timed from before the submit: the woken shard may run the
            // whole query before the submitting thread runs again.
            let sent = Instant::now();
            let ticket = client.submit(q);
            pending.push_back((*next, sent, ticket));
            *next += 1;
        }
        // Wait for the oldest request, then collect whatever else has
        // completed meanwhile. A serial caller polls (yielding its CPU)
        // rather than parks, so its latency holds no wake-up of the
        // driver's own thread.
        let Some((n, sent, mut ticket)) = pending.pop_front() else {
            break;
        };
        let reply = if window == 1 {
            loop {
                match ticket.try_take() {
                    Some(reply) => break reply,
                    None => std::thread::yield_now(),
                }
            }
        } else {
            ticket.wait()
        };
        take(n, sent, reply);
        let mut still = VecDeque::with_capacity(window);
        for (n, sent, mut ticket) in pending.drain(..) {
            match ticket.try_take() {
                Some(reply) => take(n, sent, reply),
                None => still.push_back((n, sent, ticket)),
            }
        }
        pending = still;
    }
    run.completed += completed;
    run.rates
        .push(completed as f64 / start.elapsed().as_secs_f64());
    run.p50s.push(crate::stats::median(&mut latency_ms));
}

/// What the closed-loop write burst observed.
pub struct BurstRun {
    pub mutations: u64,
    pub batches: u64,
    pub failed: u64,
    pub elapsed: Duration,
    /// Epoch of the last acknowledged batch.
    pub last_epoch: u64,
}

/// Applies `batches` back to back until `length` has passed or they run
/// out.
pub fn write_burst(client: &ServedClient, batches: &[MutationBatch], length: Duration) -> BurstRun {
    let mut run = BurstRun {
        mutations: 0,
        batches: 0,
        failed: 0,
        elapsed: Duration::ZERO,
        last_epoch: client.epoch(),
    };
    let start = Instant::now();
    for batch in batches {
        if start.elapsed() >= length {
            break;
        }
        match client.try_apply_mutations(batch, None) {
            Ok(report) => {
                run.mutations += report.mutations as u64;
                run.batches += 1;
                run.last_epoch = report.epoch;
            }
            Err(_) => run.failed += 1,
        }
    }
    run.elapsed = start.elapsed();
    run
}
