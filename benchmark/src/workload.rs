//! The three serving workloads and the inputs each one generates from a
//! seed. Rates, deadlines and sizes are fixed here, never probed per run:
//! two runs of one commit offer the same load whatever the machine does.

use friends_core::corpus::Corpus;
use friends_core::proximity::ProximityModel;
use friends_data::mutations::{MutationBatch, MutationParams, MutationStream};
use friends_data::queries::Query;
use friends_data::requests::{OpenLoopParams, OpenLoopStream, RequestParams};
use friends_data::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Duration;

/// Which corpus generator a workload serves.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// `friends_bench::serving_corpus`: 64 heavy tags, ~90 taggings per
    /// user, so scoring dominates once σ is cached.
    Serving,
    /// `friends_bench::overload_corpus`: many light tags, so σ
    /// materialization over the whole graph dominates.
    Overload,
}

/// The paced writer of a read-write workload.
#[derive(Clone, Copy, Debug)]
pub struct Writes {
    /// Mutations per batch (one `apply_mutations` call, one epoch).
    pub batch: usize,
    /// Offered batches per second during the open-loop phase.
    pub batch_rate: f64,
    /// Most batches the closed-loop burst may apply.
    pub burst_batches: usize,
}

/// One workload: a corpus, a request shape, fixed offered rates and the
/// latency limit reads are held to.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub users: usize,
    pub model: ProximityModel,
    /// Zipf exponent of seeker popularity (0 = uniform).
    pub seeker_theta: f64,
    /// Offered reads per second in the open-loop phase (Poisson arrivals).
    pub read_rate: f64,
    /// The read latency limit, counted from each request's scheduled time.
    pub deadline: Duration,
    /// Result-memoization capacity per shard (0 = off).
    pub memo: usize,
    /// In-flight requests of the closed-loop capacity phase.
    pub window: usize,
    pub writes: Option<Writes>,
}

/// Broker shards every workload runs with.
pub const SHARDS: usize = 2;

/// Result size of every query.
pub const K: usize = 10;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "hot_zipf",
        shape: Shape::Serving,
        users: 10_000,
        model: ProximityModel::DistanceDecay { alpha: 0.3 },
        seeker_theta: 1.1,
        read_rate: 400.0,
        deadline: Duration::from_millis(100),
        memo: 4096,
        window: 256,
        writes: None,
    },
    Workload {
        name: "cold_sigma",
        shape: Shape::Overload,
        users: 20_000,
        model: ProximityModel::WeightedDecay { alpha: 0.5 },
        seeker_theta: 0.0,
        read_rate: 100.0,
        deadline: Duration::from_millis(1000),
        memo: 0,
        window: 32,
        writes: None,
    },
    Workload {
        name: "live_durable",
        shape: Shape::Overload,
        users: 20_000,
        model: ProximityModel::WeightedDecay { alpha: 0.5 },
        seeker_theta: 1.1,
        read_rate: 100.0,
        deadline: Duration::from_millis(1000),
        memo: 0,
        window: 32,
        writes: Some(Writes {
            batch: 16,
            batch_rate: 0.75,
            burst_batches: 64,
        }),
    },
];

/// How large a run is: `Full` is the benchmark; `Tiny` shrinks every
/// corpus tenfold for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn users_at(&self, scale: Scale) -> usize {
        match scale {
            Scale::Full => self.users,
            Scale::Tiny => self.users / 10,
        }
    }

    /// Builds the workload's corpus (the timed part of set-up).
    pub fn build_corpus(&self, scale: Scale, seed: u64) -> Corpus {
        let users = self.users_at(scale);
        match self.shape {
            Shape::Serving => friends_bench::serving_corpus(users, seed),
            Shape::Overload => friends_bench::overload_corpus(users, seed),
        }
    }
}

/// How a run's `--seconds` are split between its phases.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    /// Open-loop arrivals before this offset warm the caches and are not
    /// measured.
    pub warmup: Duration,
    /// Length of the whole open-loop schedule, warm-up included.
    pub open: Duration,
    /// Closed-loop read capacity phase.
    pub closed: Duration,
    /// Serial phase: one request in flight at a time.
    pub serial: Duration,
    /// Closed-loop write burst (read-write workloads only).
    pub burst: Duration,
}

impl Phases {
    pub fn split(total: Duration, writes: bool) -> Phases {
        let s = total.as_secs_f64();
        let (open, closed, serial, burst) = if writes {
            (0.55, 0.15, 0.13, 0.17)
        } else {
            (0.55, 0.25, 0.2, 0.0)
        };
        Phases {
            warmup: Duration::from_secs_f64(s * open * 0.25),
            open: Duration::from_secs_f64(s * open),
            closed: Duration::from_secs_f64(s * closed),
            serial: Duration::from_secs_f64(s * serial),
            burst: Duration::from_secs_f64(s * burst),
        }
    }
}

/// Everything a run feeds the system, generated from one seed.
pub struct Inputs {
    /// Open-loop reads with their scheduled offsets.
    pub reads: OpenLoopStream,
    /// Queries the closed-loop and serial phases walk through: Zipf(θ)
    /// seekers with 2–3 uniform tags, no repeats and none of the open-loop
    /// queries, so each request executes. Those phases measure execution;
    /// the open-loop stream carries the workload's repeats to the memo and
    /// the coalescer.
    pub closed: Vec<Query>,
    /// Paced mutation batches `(scheduled offset, batch)` of the open-loop
    /// phase.
    pub writes: Vec<(Duration, MutationBatch)>,
    /// Batches of the closed-loop write burst.
    pub burst: Vec<MutationBatch>,
}

/// Distinct RNG domains per input, so each input depends on the seed
/// alone and never on another input's length.
const READS_DOMAIN: u64 = 0x5245_4144;
const CLOSED_DOMAIN: u64 = 0x434C_4F53;
const WRITES_DOMAIN: u64 = 0x5752_4954;

/// Distinct queries of the closed-loop and serial phases.
const CLOSED_QUERIES: usize = 1 << 16;

impl Inputs {
    pub fn generate(w: &Workload, corpus: &Corpus, phases: &Phases, seed: u64) -> Inputs {
        let reads = OpenLoopStream::generate(
            &corpus.graph,
            &corpus.store,
            &OpenLoopParams {
                rate: w.read_rate,
                poisson: true,
                shape: RequestParams {
                    // Enough arrivals to cover the schedule; the driver
                    // stops at the open-loop length.
                    count: (w.read_rate * phases.open.as_secs_f64() * 1.3).ceil() as usize + 16,
                    seeker_theta: w.seeker_theta,
                    k: K,
                    ..RequestParams::default()
                },
            },
            seed ^ READS_DOMAIN,
        );
        let open: Vec<&Query> = reads.requests.iter().map(|r| &r.query).collect();
        let closed = distinct_queries(corpus, w.seeker_theta, &open, seed ^ CLOSED_DOMAIN);
        let (writes, burst) = match w.writes {
            Some(spec) => paced_batches(w, &spec, corpus, phases, seed ^ WRITES_DOMAIN),
            None => (Vec::new(), Vec::new()),
        };
        Inputs {
            reads,
            closed,
            writes,
            burst,
        }
    }
}

/// [`Inputs::closed`]: distinct queries, Zipf(θ) seekers with 2–3
/// uniform tags, none equal to a query of `open` (so none finds an answer
/// the open-loop phase left in the memo).
fn distinct_queries(corpus: &Corpus, theta: f64, open: &[&Query], seed: u64) -> Vec<Query> {
    let seekers = Zipf::new(corpus.num_users() as usize, theta);
    let tags = corpus.store.num_tags();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: HashSet<(u32, Vec<u32>)> = open
        .iter()
        .map(|q| {
            let mut bag = q.tags.clone();
            bag.sort_unstable();
            bag.dedup();
            (q.seeker, bag)
        })
        .collect();
    let mut queries = Vec::with_capacity(CLOSED_QUERIES);
    while queries.len() < CLOSED_QUERIES {
        let seeker = seekers.sample(&mut rng) as u32;
        let count = rng.gen_range(2..4);
        let mut bag: Vec<u32> = (0..count).map(|_| rng.gen_range(0..tags)).collect();
        bag.sort_unstable();
        bag.dedup();
        if seen.insert((seeker, bag.clone())) {
            queries.push(Query {
                seeker,
                tags: bag,
                k: K,
            });
        }
    }
    queries
}

/// The write stream cut into batches: the paced ones are due when their
/// last mutation arrives and fall inside the open-loop schedule; the rest
/// feed the burst.
fn paced_batches(
    w: &Workload,
    spec: &Writes,
    corpus: &Corpus,
    phases: &Phases,
    seed: u64,
) -> (Vec<(Duration, MutationBatch)>, Vec<MutationBatch>) {
    let paced = (spec.batch_rate * phases.open.as_secs_f64() * 1.3).ceil() as usize;
    let stream = MutationStream::generate(
        &corpus.graph,
        &corpus.store,
        &MutationParams {
            count: (paced + spec.burst_batches) * spec.batch,
            rate: spec.batch_rate * spec.batch as f64,
            user_theta: w.seeker_theta,
            ..MutationParams::default()
        },
        seed,
    );
    let mut writes = Vec::new();
    let mut burst = Vec::new();
    for chunk in stream.mutations.chunks(spec.batch) {
        let due = chunk.last().map_or(Duration::ZERO, |m| m.arrival);
        let batch = MutationBatch::new(chunk.iter().map(|m| m.mutation.clone()).collect());
        if due < phases.open && burst.is_empty() {
            writes.push((due, batch));
        } else {
            burst.push(batch);
        }
    }
    burst.truncate(spec.burst_batches);
    (writes, burst)
}

/// A fixed seeded sample of `count` indices out of `0..n`, sorted.
pub fn sample_indices(n: usize, count: usize, seed: u64) -> Vec<usize> {
    if n <= count {
        return (0..n).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5341_4D50);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < count {
        picked.insert(rng.gen_range(0..n));
    }
    picked.into_iter().collect()
}
