//! Request/response types of the broker's wire surface.

use crossbeam::channel;
use friends_core::corpus::SearchResult;
use friends_core::plan::QueryRequest;
use friends_core::processors::ScoringStrategy;
use friends_core::proximity::{ProximityModel, SigmaBounds};
use friends_core::trace::QueryTrace;
use friends_data::queries::Query;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use friends_core::plan::Deadline;

/// A service request: the query plus serving metadata. Build one with
/// [`Request::new`] and the `with_*` setters, or convert a
/// [`QueryRequest`] (the unified client API's request type) via `From`.
#[derive(Clone, Debug)]
pub struct Request {
    pub query: Query,
    /// Per-request scoring-strategy hint, forwarded to the processor via
    /// [`friends_core::processors::Processor::set_strategy`]. Every
    /// strategy returns byte-identical rankings, so the hint is purely a
    /// cost decision. Defaults to `Auto`.
    pub strategy: ScoringStrategy,
    /// See [`Deadline`]; defaults to the service's configured budget.
    pub deadline: Deadline,
    /// Proximity model the planner serves the request under; defaults to
    /// [`ProximityModel::Global`].
    pub model: ProximityModel,
    /// Expert override: force a registry entry by name.
    pub processor: Option<&'static str>,
    /// Approximation bounds on σ materialization — [`SigmaBounds::EXACT`]
    /// (the default) is lossless. Under overload the broker may tighten
    /// these further (never loosen); the reply reports the effective
    /// degradation in [`Reply::degraded`] / [`Reply::residual`].
    pub bounds: SigmaBounds,
    /// Caller correlation tag, echoed in the [`Reply`].
    pub tag: u64,
    /// Force-sample this request's trace: the reply carries a full
    /// [`QueryTrace`] and the trace lands in the shard's slow-query log
    /// regardless of latency or head sampling.
    pub trace: bool,
}

impl Request {
    /// A request with the default strategy (`Auto`), the `Global` model
    /// and the service's default deadline.
    pub fn new(query: Query) -> Self {
        Request {
            query,
            strategy: ScoringStrategy::default(),
            deadline: Deadline::Default,
            model: ProximityModel::Global,
            processor: None,
            bounds: SigmaBounds::EXACT,
            tag: 0,
            trace: false,
        }
    }

    /// Sets the scoring-strategy hint.
    pub fn with_strategy(mut self, strategy: ScoringStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets an explicit deadline budget (overriding the service default).
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Deadline::Budget(budget);
        self
    }

    /// Opts out of deadlines entirely: the request is never shed.
    pub fn without_deadline(mut self) -> Self {
        self.deadline = Deadline::Unbounded;
        self
    }

    /// Sets the proximity model.
    pub fn with_model(mut self, model: ProximityModel) -> Self {
        self.model = model;
        self
    }

    /// Sets approximation bounds (see [`Request::bounds`]).
    pub fn with_bounds(mut self, bounds: SigmaBounds) -> Self {
        self.bounds = bounds;
        self
    }

    /// Sets the caller correlation tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Force-samples this request's trace (see [`Request::trace`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

impl From<QueryRequest> for Request {
    fn from(r: QueryRequest) -> Self {
        Request {
            query: r.query,
            strategy: r.strategy,
            deadline: r.deadline,
            model: r.model,
            processor: r.processor,
            bounds: r.bounds,
            tag: r.tag,
            trace: r.trace,
        }
    }
}

/// How a request ended.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Executed (or coalesced onto an identical in-flight execution, or
    /// served from the result-memoization cache).
    Done(SearchResult),
    /// Expired without execution: shed in the queue, or — through
    /// [`Ticket::wait_deadline`] / the multiplexer — still unanswered when
    /// the deadline passed.
    DeadlineMissed,
    /// The owning worker disappeared mid-request (a processor panic); the
    /// broker never silently drops a ticket.
    Failed,
}

impl Outcome {
    /// The result, if the request completed.
    pub fn result(&self) -> Option<&SearchResult> {
        match self {
            Outcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// Unwraps the result, panicking on a miss or failure — for clients
    /// that run without deadlines.
    pub fn expect_done(self, context: &str) -> SearchResult {
        match self {
            Outcome::Done(r) => r,
            Outcome::DeadlineMissed => panic!("{context}: deadline missed"),
            Outcome::Failed => panic!("{context}: worker failed"),
        }
    }
}

/// The reply delivered for one request.
#[derive(Clone, Debug)]
pub struct Reply {
    pub outcome: Outcome,
    /// Shard (or direct-client worker) that served the request.
    pub shard: usize,
    /// Time from submission to the start of its dispatch cycle.
    pub queue_wait: Duration,
    /// Whether this reply was satisfied by another identical in-flight
    /// request's execution.
    pub coalesced: bool,
    /// Whether this reply came out of the broker's result-memoization
    /// cache (its `stats` are then empty — no work was performed).
    pub result_cached: bool,
    /// Whether the request executed under non-exact σ bounds — either its
    /// own or bounds tightened by the broker's overload controller. A
    /// degraded reply's scores are **lower bounds** on the exact scores.
    pub degraded: bool,
    /// Score-space error certificate: every returned (and every omitted)
    /// item's exact score exceeds its reported score by at most this much.
    /// Always `0.0` for non-degraded replies.
    pub residual: f64,
    /// The request's correlation tag, echoed verbatim.
    pub tag: u64,
    /// The request's trace, present when it was retained (forced via
    /// `with_trace()`, head-sampled, slow, or deadline-missed). The same
    /// `Arc` sits in the shard's trace rings.
    pub trace: Option<Arc<QueryTrace>>,
}

impl Reply {
    /// A reply with every flag clear, no queue wait and no trace; the
    /// residual is the outcome's (0.0 unless it carries a result). Reply
    /// sites set the flags that apply with struct-update syntax.
    pub(crate) fn new(outcome: Outcome, shard: usize, tag: u64) -> Reply {
        let residual = outcome.result().map_or(0.0, |r| r.residual);
        Reply {
            outcome,
            shard,
            queue_wait: Duration::ZERO,
            coalesced: false,
            result_cached: false,
            degraded: false,
            residual,
            tag,
            trace: None,
        }
    }

    /// The retained trace's id, if the request was traced.
    pub fn trace_id(&self) -> Option<u64> {
        self.trace.as_ref().map(|t| t.id)
    }

    /// Renders the retained trace as an annotated text tree (the
    /// `EXPLAIN` output); `None` when the request was not traced.
    pub fn explain(&self) -> Option<String> {
        self.trace.as_ref().map(|t| t.render())
    }
}

/// A claim on one submitted request's reply. Non-blocking by default:
/// [`Ticket::poll`] / [`Ticket::try_take`] never wait, and a
/// [`crate::Multiplexer`] can drive many tickets from one loop;
/// [`Ticket::wait`] and the deadline-respecting [`Ticket::wait_deadline`]
/// block.
pub struct Ticket {
    pub(crate) shard: usize,
    pub(crate) rx: channel::Receiver<Reply>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) tag: u64,
    pub(crate) stash: Option<Reply>,
}

impl Ticket {
    /// Whether the reply has arrived (buffering it for
    /// [`Ticket::try_take`]). Never blocks. A dead worker counts as
    /// arrived (the buffered reply is [`Outcome::Failed`]).
    pub fn poll(&mut self) -> bool {
        if self.stash.is_some() {
            return true;
        }
        match self.rx.try_recv() {
            Ok(reply) => {
                self.stash = Some(reply);
                true
            }
            Err(channel::TryRecvError::Empty) => false,
            Err(channel::TryRecvError::Disconnected) => {
                self.stash = Some(self.failed());
                true
            }
        }
    }

    /// Takes the reply if it has arrived; never blocks.
    pub fn try_take(&mut self) -> Option<Reply> {
        if self.poll() {
            self.stash.take()
        } else {
            None
        }
    }

    /// Blocks until the reply arrives, however long that takes — even past
    /// the request's deadline (use [`Ticket::wait_deadline`] to respect
    /// it). A worker that died without replying yields [`Outcome::Failed`]
    /// instead of hanging.
    pub fn wait(mut self) -> Reply {
        if let Some(reply) = self.stash.take() {
            return reply;
        }
        match self.rx.recv() {
            Ok(reply) => reply,
            Err(channel::RecvError) => self.failed(),
        }
    }

    /// Blocks until the reply arrives **or the request's deadline
    /// passes**, whichever is first. The broker sheds requests that expire
    /// while *queued*, but one that starts executing before its deadline
    /// is answered late — this is the client-side half of the deadline
    /// contract, returning [`Outcome::DeadlineMissed`] at the deadline
    /// instead of blocking behind the in-flight execution. Deadline-free
    /// tickets behave like [`Ticket::wait`].
    pub fn wait_deadline(mut self) -> Reply {
        if let Some(reply) = self.stash.take() {
            return reply;
        }
        let Some(deadline) = self.deadline else {
            return self.wait();
        };
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Reply::new(Outcome::DeadlineMissed, self.shard, self.tag);
            }
            match self.rx.recv_timeout(deadline - now) {
                Ok(reply) => return reply,
                Err(channel::RecvTimeoutError::Timeout) => continue,
                Err(channel::RecvTimeoutError::Disconnected) => return self.failed(),
            }
        }
    }

    /// The shard this request was routed to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The request's correlation tag.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// The request's resolved expiry instant, if it has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    fn failed(&self) -> Reply {
        Reply::new(Outcome::Failed, self.shard, self.tag)
    }
}

/// Internal queue entry: one request plus its reply channel and timing.
pub(crate) struct Job {
    pub query: Query,
    pub strategy: ScoringStrategy,
    pub model: ProximityModel,
    pub processor: Option<&'static str>,
    pub bounds: SigmaBounds,
    pub deadline: Option<Instant>,
    pub submitted: Instant,
    pub reply: channel::Sender<Reply>,
    pub tag: u64,
    /// Force-sample the trace (from [`Request::trace`]).
    pub trace: bool,
}
