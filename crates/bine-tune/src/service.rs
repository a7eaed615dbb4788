//! The concurrent serving layer over the decision tables.
//!
//! [`crate::selector::Selector`] is a single-client API: `compiled` takes
//! `&mut self`, so one thread at a time can resolve a pick into an
//! executable schedule. A selection *service* — thousands of callers
//! hitting the Sec. 5.2.2 tables per collective call — needs the opposite
//! shape, and [`ServiceSelector`] provides it, `&self` end to end:
//!
//! * **immutable indexes** — every loaded system's table is pre-indexed
//!   once into an `Arc<`[`SelectorIndex`]`>`; lookups are the exact binary
//!   searches the serial selector runs, on literally shared data, so a
//!   concurrent pick can never diverge from the serial one (pinned by a
//!   proptest in `tests/service.rs`);
//! * **a sharded, lock-striped compiled-schedule cache** — the LRU is split
//!   into [`ServiceSelector::num_shards`] independently locked shards, each
//!   with its own capacity and LRU clock, keyed by
//!   `(system, collective, nodes, slot)`; concurrent hits on different
//!   entries take different locks and never serialise on a global one;
//! * **single-flight compilation** — a cache miss registers an in-flight
//!   handle in its shard before compiling *outside* the lock; concurrent
//!   requests for the same entry find the handle and block on it instead of
//!   compiling again, so an entry is compiled exactly once however many
//!   threads race for it cold (the stress test counts compilations);
//! * **graceful degradation** — followers bound their wait on an in-flight
//!   compile with [`DegradePolicy::flight_timeout`]; a leader whose compile
//!   panics retries with capped exponential backoff, and repeated failures
//!   trip a per-entry circuit breaker that serves the always-buildable
//!   binomial baseline ([`fallback_pick`]) while the breaker half-opens in
//!   the background — so every request gets *an* answer, and the per-shard
//!   fallback/timeout/retry counters make degraded mode observable;
//! * **shared execution** — [`ServiceSelector::try_execute_on`] runs the
//!   resolved schedule on a caller-supplied [`bine_exec::ExecutorPool`]
//!   (typically the process-wide one), turning a
//!   `(system, collective, nodes, bytes, data)` request into finished block
//!   stores without the caller touching schedules at all;
//! * **shrink-and-retry crash recovery** —
//!   [`ServiceSelector::try_execute_recovering_on`] turns a dead-rank stall
//!   ([`ExecError::RankDead`]) into a ULFM-style recovery: the communicator
//!   shrinks to the dense survivor renumbering, the pick is rebuilt and
//!   compiled at the shrunk size under a distinguished cache slot, and the
//!   collective re-runs over the survivors — observable through the
//!   [`ServiceSelector::stalls`]/[`ServiceSelector::recoveries`] counters
//!   and pinned bit-identical to a direct shrunk run by the `crash_chaos`
//!   harness.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use bine_exec::{BlockStore, ExecError, ExecutorPool, Workload};
use bine_net::feedback::{LogHistogram, ObservedTiming};
use bine_sched::{binomial_default, build, Collective, CompiledSchedule, RankMap, Schedule};

use crate::adapt::{AdaptPolicy, AdaptiveOverlay, OverlayEntry, Reevaluator};
use crate::selector::{SelectorIndex, Tuned, DEFAULT_CACHE_CAPACITY};
use crate::table::{slug, DecisionTable};

/// Default number of cache shards. More shards than typical worker counts,
/// so two concurrent requests rarely contend on one stripe.
pub const DEFAULT_SHARDS: usize = 16;

/// Cache key: `(system index, collective, nodes, resolved slot)`. Distinct
/// byte sizes resolving to one table entry share a compiled schedule;
/// off-grid node counts get their own compilation.
type Key = (u32, Collective, usize, u32);

/// Vector sizes up to this many bytes take the small-vector fallback
/// algorithms — the same switch point the benchmark harness uses for its
/// binomial baselines, so a degraded answer and the harness baseline are
/// literally the same schedule.
pub const FALLBACK_SMALL_VECTOR_THRESHOLD: u64 = 32 * 1024;

/// Distinguished cache slots for the small-/large-vector fallback
/// schedules. Real slots index into a table's entry list and can never
/// reach these values.
const FALLBACK_SLOT_SMALL: u32 = u32::MAX;
const FALLBACK_SLOT_LARGE: u32 = u32::MAX - 1;

/// Base of the distinguished cache slots for shrink-and-retry recovery
/// compiles: the recovery of table slot `i` caches under slot
/// `RECOVERY_SLOT_BASE - 2i - size_class`, keyed together with the
/// *shrunk* rank count. Real slots count up from 0 and the fallback slots
/// sit at `u32::MAX` and `u32::MAX - 1`, so the families can never collide
/// for any table the tuner emits.
const RECOVERY_SLOT_BASE: u32 = u32::MAX - 2;

/// The binomial-baseline algorithm served while an entry's circuit breaker
/// is open: [`bine_sched::binomial_default`] at the harness's small-vector
/// switch point. Always buildable at the rank counts the tables cover, so
/// a degraded request gets the textbook MPI default instead of an error.
pub fn fallback_pick(collective: Collective, bytes: u64) -> &'static str {
    binomial_default(collective, bytes <= FALLBACK_SMALL_VECTOR_THRESHOLD)
}

/// How a crash-tolerant request (see
/// [`ServiceSelector::try_execute_recovering_on`]) was answered.
#[derive(Debug)]
pub enum Served {
    /// No dead rank stalled the tuned pick: final block stores of every
    /// rank of the full communicator.
    Full(Vec<BlockStore>),
    /// A dead rank stalled the run mid-collective; the service shrank the
    /// communicator to the survivors and re-executed there.
    Recovered(Recovery),
}

impl Served {
    /// The final block stores, indexed by rank of whichever communicator
    /// actually completed (the full one, or the shrunk one after a
    /// recovery — see [`Recovery::map`] to translate).
    pub fn finals(&self) -> &[BlockStore] {
        match self {
            Served::Full(finals) => finals,
            Served::Recovered(r) => &r.finals,
        }
    }

    /// Whether this answer came from the shrink-and-retry ladder.
    pub fn is_recovered(&self) -> bool {
        matches!(self, Served::Recovered(_))
    }
}

/// A successful shrink-and-retry: the ULFM-style recovery the service runs
/// when a dead rank stalls the tuned pick. The collective was re-invoked
/// over the dense survivor communicator, with every survivor
/// re-contributing its input under its new rank — so `finals[new]` is
/// exactly what a fresh run of `schedule` at `map.num_survivors()` ranks
/// produces, bit for bit.
#[derive(Debug)]
pub struct Recovery {
    /// Final block stores of the shrunk run, indexed by **new** (dense)
    /// rank; translate with [`Recovery::map`].
    pub finals: Vec<BlockStore>,
    /// The order-preserving survivor bijection (old rank ↔ new rank).
    pub map: RankMap,
    /// The schedule rebuilt over the survivors (for validation, traffic
    /// accounting, or building matching initial states).
    pub schedule: Schedule,
    /// The pick actually built at the shrunk size: the slot's own pick
    /// when it builds there, otherwise the binomial [`fallback_pick`] or
    /// the collective's linear any-rank-count algorithm.
    pub pick: String,
    /// The typed stall that triggered the recovery.
    pub error: ExecError,
}

/// Knobs of the degradation ladder in [`ServiceSelector::compiled`]:
/// bounded follower waits, leader retries with capped exponential backoff,
/// and a per-entry circuit breaker guarding the binomial fallback. The
/// defaults are generous enough that a healthy service never degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// How long a follower blocks on another thread's in-flight compile
    /// before giving up and serving the fallback pick. A timed-out wait
    /// also counts one failure against the entry's breaker: a permanently
    /// stalled leader must eventually trip it.
    pub flight_timeout: Duration,
    /// How many times a leader retries a panicking compile before the
    /// leadership counts as failed (0 = no retries).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry up to
    /// [`DegradePolicy::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound of the exponential backoff.
    pub backoff_cap: Duration,
    /// Consecutive failed leaderships (not individual retries) that trip
    /// the entry's breaker open.
    pub breaker_threshold: u32,
    /// How long an open breaker serves the fallback unconditionally before
    /// a single request is let through as a half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for DegradePolicy {
    fn default() -> DegradePolicy {
        DegradePolicy {
            flight_timeout: Duration::from_secs(5),
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
        }
    }
}

/// One compile attempt about to run, handed to the hook installed with
/// [`ServiceSelector::with_compile_hook`]. The hook runs inside the
/// leader's `catch_unwind` scope, so a panicking hook is exactly an
/// injected compile failure (and a blocking hook a stalled leader) — the
/// levers the chaos tests and `chaos_bench` pull. Fallback compiles never
/// run the hook: the degraded path must stay unkillable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileAttempt {
    /// Index of the system the entry belongs to.
    pub system: usize,
    /// Collective of the entry.
    pub collective: Collective,
    /// Rank count the schedule is being built for.
    pub nodes: usize,
    /// 0 on the leadership's first try, `k` on its `k`-th retry.
    pub attempt: u32,
}

/// Observer invoked before every primary compile attempt; see
/// [`CompileAttempt`].
pub type CompileHook = Arc<dyn Fn(&CompileAttempt) + Send + Sync>;

/// Backoff slept before the `attempt`-th retry (1-based):
/// `base · 2^(attempt−1)`, capped.
fn backoff(policy: &DegradePolicy, attempt: u32) -> Duration {
    let doublings = attempt.saturating_sub(1).min(20);
    policy
        .backoff_base
        .saturating_mul(1u32 << doublings)
        .min(policy.backoff_cap)
}

struct CacheLine {
    key: Key,
    compiled: Arc<CompiledSchedule>,
    last_used: u64,
}

/// The single-flight handle one leader publishes per in-flight compile.
/// Followers block on the condvar until the leader settles the result.
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    Pending,
    /// `None` when the pick was deterministically not buildable at this
    /// rank count — a follower would have reached the same `None`.
    Done(Option<Arc<CompiledSchedule>>),
    /// The leader panicked mid-compile: the outcome is *unknown*, not
    /// "unbuildable". Followers re-enter the request path and retry
    /// (typically becoming the next leader and hitting the same panic in
    /// their own thread), so a crash is never misreported as a permanently
    /// unservable configuration.
    Abandoned,
}

/// What a follower observed when its flight settled (or didn't).
enum FlightOutcome {
    Done(Option<Arc<CompiledSchedule>>),
    Abandoned,
    /// The flight was still pending when the follower's bounded wait
    /// expired: the leader is stalled (or just slower than the budget).
    TimedOut,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        }
    }

    /// Blocks until the flight settles or `timeout` elapses. The deadline
    /// is absolute: spurious condvar wakeups re-wait only for the
    /// remainder, so a stalled leader can never strand a follower past it.
    fn wait_timeout(&self, timeout: Duration) -> FlightOutcome {
        let deadline = Instant::now() + timeout;
        let mut state = lock_any(&self.state);
        loop {
            match &*state {
                FlightState::Done(result) => return FlightOutcome::Done(result.clone()),
                FlightState::Abandoned => return FlightOutcome::Abandoned,
                FlightState::Pending => {
                    let now = Instant::now();
                    if now >= deadline {
                        return FlightOutcome::TimedOut;
                    }
                    state = wait_any_timeout(&self.done, state, deadline - now);
                }
            }
        }
    }

    fn settle(&self, state: FlightState) {
        *lock_any(&self.state) = state;
        self.done.notify_all();
    }
}

/// Per-entry circuit-breaker state, kept in the entry's shard.
enum Breaker {
    /// Normal service, counting consecutive failed leaderships.
    Closed { consecutive_failures: u32 },
    /// Tripped: requests serve the fallback until the cooldown elapses,
    /// when one request is let through as a half-open probe.
    Open { since: Instant },
    /// A probe compile is running; everyone else keeps getting the
    /// fallback so a still-broken entry cannot re-stall the service.
    HalfOpen,
}

/// How one request participates in resolving a cache miss.
enum Role {
    Leader(Arc<Flight>),
    Follower(Arc<Flight>),
    /// The entry's breaker is open (or probing): skip straight to the
    /// fallback pick without touching the flight machinery.
    Degraded,
}

/// The adaptive configuration installed by
/// [`ServiceSelector::with_adaptation`]; absent on a stock service, whose
/// behaviour is then bit-identical to the pre-adaptive serving layer.
struct AdaptConfig {
    policy: AdaptPolicy,
    reevaluator: Reevaluator,
}

/// Per-entry adaptive state, kept in the entry's shard exactly like the
/// compile breakers: observed-cost histogram, the active override (if any),
/// the single-flight re-evaluation marker and the re-evaluation circuit
/// breaker. All mutations happen under the stripe lock the hot path
/// already holds; re-evaluations themselves run outside it.
struct AdaptEntry {
    key: Key,
    /// Observed per-pick costs since the last promotion/revert/vindication.
    hist: LogHistogram,
    override_state: Option<OverrideState>,
    /// Single-flight marker: while one observer re-evaluates this entry,
    /// concurrent observers skip — they never block on the re-evaluation.
    reeval_in_flight: bool,
    /// Re-evaluation circuit breaker — the same [`Breaker`] machinery as
    /// the compile path, driven by the same [`DegradePolicy`] thresholds:
    /// repeated failed (panicking or unscorable) re-evaluations trip it
    /// open and the entry stops adapting until the cooldown lets one
    /// half-open probe through. The entry keeps *serving* throughout.
    breaker: Breaker,
}

impl AdaptEntry {
    fn new(key: Key) -> AdaptEntry {
        AdaptEntry {
            key,
            hist: LogHistogram::new(),
            override_state: None,
            reeval_in_flight: false,
            breaker: Breaker::Closed {
                consecutive_failures: 0,
            },
        }
    }

    /// One failed re-evaluation against this entry's breaker; trips it
    /// open at `threshold` consecutive failures (a half-open probe that
    /// fails re-opens immediately).
    fn record_reeval_failure(&mut self, threshold: u32) {
        self.breaker = match self.breaker {
            Breaker::Closed {
                consecutive_failures,
            } => {
                let failures = consecutive_failures + 1;
                if failures >= threshold {
                    Breaker::Open {
                        since: Instant::now(),
                    }
                } else {
                    Breaker::Closed {
                        consecutive_failures: failures,
                    }
                }
            }
            Breaker::HalfOpen | Breaker::Open { .. } => Breaker::Open {
                since: Instant::now(),
            },
        };
    }
}

/// A challenger currently shadowing the committed pick of one cache entry.
/// The pre-compiled schedule makes the overridden warm path an `Arc` clone
/// — no allocation, no rebuild.
struct OverrideState {
    pick: String,
    compiled: Arc<CompiledSchedule>,
    epoch: u64,
    samples: u64,
    observed_mean_us: f64,
    modelled_us: f64,
    challenger_us: f64,
    /// Observations since the last committed-pick re-check.
    since_recheck: u64,
}

/// What [`ServiceSelector::observe_at`] decided under the stripe lock, to
/// be acted on outside it.
enum ObserveAction {
    /// Nothing to do (healthy entry, in-flight re-eval, open breaker, …).
    None,
    /// Run a re-evaluation: a fresh divergence, or an override's periodic
    /// committed-pick re-check.
    Reevaluate,
}

/// Locks a mutex, tolerating poison: a panicking compile must not turn
/// every later request on the same shard into a secondary panic.
fn lock_any<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait_any_timeout<'a, T>(
    cv: &Condvar,
    guard: std::sync::MutexGuard<'a, T>,
    timeout: Duration,
) -> std::sync::MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

struct ShardState {
    lines: Vec<CacheLine>,
    in_flight: Vec<(Key, Arc<Flight>)>,
    /// Circuit breakers of entries that have failed recently. An entry with
    /// no record here is healthy; successful compiles remove the record, so
    /// the vector stays as small as the set of currently-broken entries.
    breakers: Vec<(Key, Breaker)>,
    /// Adaptive state of this shard's entries (empty unless adaptation is
    /// enabled and an entry has been observed).
    adapt: Vec<AdaptEntry>,
    clock: u64,
    /// Stats live per shard, as plain integers under the stripe lock the
    /// hot path already holds — global atomic counters would put one cache
    /// line ping-ponging between every core on every request.
    hits: u64,
    misses: u64,
    compilations: u64,
    fallbacks: u64,
    timeouts: u64,
    retries: u64,
    overrides: u64,
    reverts: u64,
    reevals: u64,
    stalls: u64,
    recoveries: u64,
}

impl ShardState {
    fn new() -> Mutex<ShardState> {
        Mutex::new(ShardState {
            lines: Vec::new(),
            in_flight: Vec::new(),
            breakers: Vec::new(),
            adapt: Vec::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            compilations: 0,
            fallbacks: 0,
            timeouts: 0,
            retries: 0,
            overrides: 0,
            reverts: 0,
            reevals: 0,
            stalls: 0,
            recoveries: 0,
        })
    }

    /// The adaptive state of `key`, created on first observation.
    fn adapt_entry_mut(&mut self, key: Key) -> &mut AdaptEntry {
        match self.adapt.iter().position(|e| e.key == key) {
            Some(i) => &mut self.adapt[i],
            None => {
                self.adapt.push(AdaptEntry::new(key));
                self.adapt.last_mut().unwrap()
            }
        }
    }

    /// Records one failed leadership (or timed-out follower wait) against
    /// `key`'s breaker, tripping it open at `threshold` consecutive
    /// failures. A failure while half-open re-opens with a fresh cooldown.
    fn record_failure(&mut self, key: Key, threshold: u32) {
        let breaker = match self.breakers.iter_mut().find(|(k, _)| *k == key) {
            Some((_, b)) => b,
            None => {
                self.breakers.push((
                    key,
                    Breaker::Closed {
                        consecutive_failures: 0,
                    },
                ));
                &mut self.breakers.last_mut().unwrap().1
            }
        };
        *breaker = match *breaker {
            Breaker::Closed {
                consecutive_failures,
            } => {
                let failures = consecutive_failures + 1;
                if failures >= threshold {
                    Breaker::Open {
                        since: Instant::now(),
                    }
                } else {
                    Breaker::Closed {
                        consecutive_failures: failures,
                    }
                }
            }
            Breaker::HalfOpen | Breaker::Open { .. } => Breaker::Open {
                since: Instant::now(),
            },
        };
    }

    /// A successful compile closes and forgets the entry's breaker.
    fn clear_breaker(&mut self, key: &Key) {
        self.breakers.retain(|(k, _)| k != key);
    }

    /// Evicts least-recently-used lines until at most `max_lines` remain.
    /// Never panics: an empty cache simply has no victim.
    fn evict_down_to(&mut self, max_lines: usize) {
        while self.lines.len() > max_lines {
            let victim = self
                .lines
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_used)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    self.lines.swap_remove(i);
                }
                None => break,
            }
        }
    }

    /// Inserts a line, first evicting down to `capacity − 1` so the cache
    /// never exceeds `capacity` lines.
    fn insert(&mut self, key: Key, compiled: Arc<CompiledSchedule>, capacity: usize) {
        self.clock += 1;
        self.evict_down_to(capacity.saturating_sub(1));
        self.lines.push(CacheLine {
            key,
            compiled,
            last_used: self.clock,
        });
    }
}

/// Leader-side completion guard: however the leader exits — success, an
/// unbuildable pick, or a panic inside `compile` — the in-flight handle is
/// removed from the shard and settled, so followers can never deadlock on
/// an abandoned flight. On success the compiled schedule is inserted into
/// the shard cache *in the same lock acquisition* that retires the flight:
/// there is no window in which a third thread sees neither the cache line
/// nor the in-flight handle and compiles a second time. On unwind the
/// flight settles as [`FlightState::Abandoned`], sending followers back to
/// retry rather than handing them a false "unbuildable".
struct FlightGuard<'a> {
    shard: &'a Mutex<ShardState>,
    key: Key,
    flight: Arc<Flight>,
    capacity: usize,
    /// Set by the leader on completion; still unset on unwind.
    result: Option<Option<Arc<CompiledSchedule>>>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let result = self.result.take();
        {
            let mut shard = lock_any(self.shard);
            shard.in_flight.retain(|(k, _)| *k != self.key);
            if let Some(Some(compiled)) = &result {
                shard.insert(self.key, Arc::clone(compiled), self.capacity);
            }
        }
        self.flight.settle(match result {
            Some(result) => FlightState::Done(result),
            None => FlightState::Abandoned,
        });
    }
}

/// A thread-safe selection service over one or more systems' decision
/// tables: `&self` end-to-end lookup, a sharded compiled-schedule cache
/// with single-flight compilation, and batch execution on the shared
/// executor pool. See the [module docs](crate::service) for the design.
pub struct ServiceSelector {
    /// One immutable pre-indexed table per loaded system, in load order.
    systems: Vec<Arc<SelectorIndex>>,
    /// Slugs of the loaded systems (parallel to `systems`), for by-name
    /// resolution without re-slugging the stored display names per query.
    slugs: Vec<String>,
    shards: Vec<Mutex<ShardState>>,
    shard_capacity: usize,
    policy: DegradePolicy,
    compile_hook: Option<CompileHook>,
    /// Adaptive tuning, off by default; see
    /// [`ServiceSelector::with_adaptation`].
    adapt: Option<AdaptConfig>,
    /// Service-wide override epoch: every promotion gets the next value,
    /// so overlay dumps order deterministically across shards.
    adapt_epoch: AtomicU64,
}

impl ServiceSelector {
    /// Builds a service over pre-indexed tables (shared with any existing
    /// [`crate::Selector`]s via the `Arc`s).
    pub fn from_indexes(indexes: Vec<Arc<SelectorIndex>>) -> ServiceSelector {
        let slugs = indexes.iter().map(|i| slug(i.system())).collect();
        ServiceSelector {
            systems: indexes,
            slugs,
            shards: (0..DEFAULT_SHARDS).map(|_| ShardState::new()).collect(),
            shard_capacity: DEFAULT_CACHE_CAPACITY,
            policy: DegradePolicy::default(),
            compile_hook: None,
            adapt: None,
            adapt_epoch: AtomicU64::new(0),
        }
    }

    /// Builds a service from in-memory decision tables.
    pub fn from_tables(tables: &[DecisionTable]) -> ServiceSelector {
        Self::from_indexes(
            tables
                .iter()
                .map(|t| Arc::new(SelectorIndex::from_table(t)))
                .collect(),
        )
    }

    /// Loads every committed decision table (`*.json`) from the tuning
    /// directory resolved by [`crate::default_tuning_dir`] — all four paper
    /// systems in the stock checkout.
    pub fn load_default() -> Result<ServiceSelector, String> {
        Self::load_dir(&crate::default_tuning_dir()?)
    }

    /// Loads every `*.json` decision table under `dir`, sorted by file name
    /// so system indices are deterministic.
    pub fn load_dir(dir: &Path) -> Result<ServiceSelector, String> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read tuning directory {}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(format!("no decision tables (*.json) in {}", dir.display()));
        }
        let mut tables = Vec::with_capacity(paths.len());
        for path in &paths {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read decision table {}: {e}", path.display()))?;
            tables.push(
                DecisionTable::from_json(&text)
                    .map_err(|e| format!("cannot parse {}: {e}", path.display()))?,
            );
        }
        Ok(Self::from_tables(&tables))
    }

    /// Sets the number of cache shards (clamped to ≥ 1). Call before
    /// serving: rebuilding the stripes drops any cached schedules.
    pub fn with_shards(mut self, shards: usize) -> ServiceSelector {
        self.shards = (0..shards.max(1)).map(|_| ShardState::new()).collect();
        self
    }

    /// Sets the per-shard LRU capacity (clamped to ≥ 1, like
    /// [`crate::Selector::with_cache_capacity`]).
    pub fn with_shard_capacity(mut self, capacity: usize) -> ServiceSelector {
        self.shard_capacity = capacity.max(1);
        for shard in &self.shards {
            lock_any(shard).evict_down_to(self.shard_capacity);
        }
        self
    }

    /// Sets the degradation policy: follower wait bound, retry/backoff
    /// schedule and circuit-breaker thresholds. See [`DegradePolicy`].
    pub fn with_policy(mut self, policy: DegradePolicy) -> ServiceSelector {
        self.policy = policy;
        self
    }

    /// Installs an observer run before every *primary* compile attempt
    /// (never before fallback compiles). A panicking hook is an injected
    /// compile failure, a blocking one a stalled leader — the fault levers
    /// of the chaos tests and the `chaos_bench` binary.
    pub fn with_compile_hook(mut self, hook: CompileHook) -> ServiceSelector {
        self.compile_hook = Some(hook);
        self
    }

    /// Enables online adaptive tuning: the service records per-pick
    /// observed timings (fed by [`ServiceSelector::observe_at`] and
    /// [`ServiceSelector::try_execute_on`]), compares them against the committed modelled
    /// scores, and when an entry diverges past [`AdaptPolicy::divergence`]
    /// re-evaluates challengers through `reevaluator` — promoting a winner
    /// into an epoch-versioned overlay on top of the immutable committed
    /// tables. The tables themselves are never mutated; see
    /// [`crate::adapt`] for the invariants and
    /// [`ServiceSelector::overlay`] for the observability dump.
    pub fn with_adaptation(
        mut self,
        policy: AdaptPolicy,
        reevaluator: Reevaluator,
    ) -> ServiceSelector {
        self.adapt = Some(AdaptConfig {
            policy,
            reevaluator,
        });
        self
    }

    /// `true` when [`ServiceSelector::with_adaptation`] was called. A
    /// service without adaptation never consults the overlay: its picks
    /// are bit-identical to the serial [`crate::Selector`]'s.
    pub fn adaptation_enabled(&self) -> bool {
        self.adapt.is_some()
    }

    /// The active degradation policy.
    pub fn policy(&self) -> &DegradePolicy {
        &self.policy
    }

    /// Display names of the loaded systems, in index order.
    pub fn system_names(&self) -> Vec<&str> {
        self.systems.iter().map(|i| i.system()).collect()
    }

    /// Index of a system by display name or slug (`"MareNostrum 5"` and
    /// `"marenostrum5"` both resolve).
    pub fn system_index(&self, system: &str) -> Option<usize> {
        let wanted = slug(system);
        self.slugs.iter().position(|s| *s == wanted)
    }

    /// Like [`ServiceSelector::system_index`], but an unknown system is an
    /// `Err` naming every loaded system — so a typo'd request says what the
    /// service can actually answer for instead of a bare `None`.
    pub fn resolve_system(&self, system: &str) -> Result<usize, String> {
        self.system_index(system).ok_or_else(|| {
            format!(
                "unknown system {system:?}; loaded systems: {}",
                self.system_names().join(", ")
            )
        })
    }

    /// The shared index of system `sys`, if loaded.
    pub fn index(&self, sys: usize) -> Option<&Arc<SelectorIndex>> {
        self.systems.get(sys)
    }

    /// The tuned `(algorithm, segments)` for a query against `system`
    /// (by name or slug) — same floor-breakpoint semantics, same code and
    /// data as the serial [`crate::Selector::choose`].
    pub fn choose(
        &self,
        system: &str,
        collective: Collective,
        nodes: usize,
        bytes: u64,
    ) -> Option<Tuned<'_>> {
        self.choose_at(self.system_index(system)?, collective, nodes, bytes)
    }

    /// [`ServiceSelector::choose`] by system index (skips the name lookup
    /// on hot paths).
    pub fn choose_at(
        &self,
        sys: usize,
        collective: Collective,
        nodes: usize,
        bytes: u64,
    ) -> Option<Tuned<'_>> {
        self.systems.get(sys)?.choose(collective, nodes, bytes)
    }

    /// The tuned pick for an irregular (v-variant) query against `system`:
    /// resolved on the grid tuned for `dist`, falling back to the regular
    /// grid when the table carries none (see
    /// [`crate::SelectorIndex::choose_irregular`]). `&self` and
    /// allocation-free, like [`ServiceSelector::choose`].
    pub fn choose_irregular(
        &self,
        system: &str,
        collective: Collective,
        dist: bine_sched::SizeDist,
        nodes: usize,
        bytes: u64,
    ) -> Option<Tuned<'_>> {
        self.choose_irregular_at(self.system_index(system)?, collective, dist, nodes, bytes)
    }

    /// [`ServiceSelector::choose_irregular`] by system index.
    pub fn choose_irregular_at(
        &self,
        sys: usize,
        collective: Collective,
        dist: bine_sched::SizeDist,
        nodes: usize,
        bytes: u64,
    ) -> Option<Tuned<'_>> {
        self.systems
            .get(sys)?
            .choose_irregular(collective, dist, nodes, bytes)
    }

    /// The compiled schedule of the tuned pick, from the sharded cache or
    /// compiled once under single-flight. `&self`: safe to call from any
    /// number of threads over one shared service.
    ///
    /// Degradation: when the entry's circuit breaker is open (repeated
    /// compile failures) or a follower's bounded wait times out, the
    /// binomial [`fallback_pick`] is served instead of the tuned pick —
    /// the request still gets a correct, executable schedule. See
    /// [`DegradePolicy`] and the fallback/timeout/retry counters.
    ///
    /// Rooted collectives are built with root 0, exactly as in
    /// [`crate::Selector::compiled`].
    pub fn compiled(
        &self,
        system: &str,
        collective: Collective,
        nodes: usize,
        bytes: u64,
    ) -> Option<Arc<CompiledSchedule>> {
        self.compiled_at(self.system_index(system)?, collective, nodes, bytes)
    }

    /// [`ServiceSelector::compiled`] by system index.
    pub fn compiled_at(
        &self,
        sys: usize,
        collective: Collective,
        nodes: usize,
        bytes: u64,
    ) -> Option<Arc<CompiledSchedule>> {
        let index = self.systems.get(sys)?;
        let slot = index.slot_index(collective, nodes, bytes)?;
        let key: Key = (sys as u32, collective, nodes, slot);
        let shard = &self.shards[self.shard_of(&key)];

        loop {
            let role = {
                let mut state = lock_any(shard);
                state.clock += 1;
                let clock = state.clock;
                // Adaptive override, ahead of the committed cache line: an
                // entry the feedback loop has overridden serves its
                // pre-compiled challenger (an `Arc` clone, no allocation)
                // until the override is reverted.
                if self.adapt.is_some() {
                    let overridden = state
                        .adapt
                        .iter()
                        .find(|e| e.key == key)
                        .and_then(|e| e.override_state.as_ref())
                        .map(|ov| Arc::clone(&ov.compiled));
                    if let Some(compiled) = overridden {
                        state.hits += 1;
                        return Some(compiled);
                    }
                }
                if let Some(pos) = state.lines.iter().position(|l| l.key == key) {
                    state.lines[pos].last_used = clock;
                    state.hits += 1;
                    return Some(state.lines[pos].compiled.clone());
                }
                // Breaker consult, after the cache: a published line is
                // always a successful compile and safe to serve.
                let mut degraded = false;
                if let Some((_, breaker)) = state.breakers.iter_mut().find(|(k, _)| *k == key) {
                    match *breaker {
                        Breaker::Open { since }
                            if since.elapsed() >= self.policy.breaker_cooldown =>
                        {
                            // Cooldown over: this request becomes the
                            // half-open probe and runs a real compile;
                            // concurrent requests keep degrading until the
                            // probe settles the breaker one way or the other.
                            *breaker = Breaker::HalfOpen;
                        }
                        Breaker::Open { .. } | Breaker::HalfOpen => degraded = true,
                        Breaker::Closed { .. } => {}
                    }
                }
                if degraded {
                    state.fallbacks += 1;
                    Role::Degraded
                } else {
                    state.misses += 1;
                    match state.in_flight.iter().find(|(k, _)| *k == key) {
                        Some((_, flight)) => Role::Follower(Arc::clone(flight)),
                        None => {
                            let flight = Arc::new(Flight::new());
                            state.in_flight.push((key, Arc::clone(&flight)));
                            state.compilations += 1;
                            Role::Leader(flight)
                        }
                    }
                }
            };
            match role {
                Role::Degraded => return self.fallback_compiled(sys, collective, nodes, bytes),
                Role::Follower(flight) => {
                    match flight.wait_timeout(self.policy.flight_timeout) {
                        FlightOutcome::Done(result) => return result,
                        // The leader panicked: its outcome says nothing
                        // about this entry. Retry — re-checking the breaker,
                        // and typically becoming the next leader.
                        FlightOutcome::Abandoned => continue,
                        // The leader is stalled past the wait budget. Count
                        // the timeout as a failure against the entry — a
                        // permanently stalled leader must eventually trip
                        // the breaker — and serve the fallback now.
                        FlightOutcome::TimedOut => {
                            {
                                let mut state = lock_any(shard);
                                state.timeouts += 1;
                                state.fallbacks += 1;
                                state.record_failure(key, self.policy.breaker_threshold);
                            }
                            return self.fallback_compiled(sys, collective, nodes, bytes);
                        }
                    }
                }
                Role::Leader(flight) => {
                    let mut guard = FlightGuard {
                        shard,
                        key,
                        flight,
                        capacity: self.shard_capacity,
                        result: None,
                    };
                    // Outside the shard lock: other entries of this shard
                    // stay servable while this one compiles.
                    match self.compile_with_retries(sys, index, collective, nodes, slot, shard) {
                        Ok(compiled) => {
                            guard.result = Some(compiled.clone());
                            drop(guard); // retire the flight + publish the line
                            lock_any(shard).clear_breaker(&key);
                            return compiled;
                        }
                        // Every attempt panicked. Record the failure
                        // *before* abandoning the flight, so followers wake
                        // into an up-to-date breaker; then this thread
                        // degrades too. The cache is never touched, so a
                        // poisoned compile can never be published.
                        Err(()) => {
                            {
                                let mut state = lock_any(shard);
                                state.fallbacks += 1;
                                state.record_failure(key, self.policy.breaker_threshold);
                            }
                            drop(guard); // abandon: wake followers to re-enter
                            return self.fallback_compiled(sys, collective, nodes, bytes);
                        }
                    }
                }
            }
        }
    }

    /// Runs the leader's compile, retrying panics up to
    /// [`DegradePolicy::max_retries`] times with capped exponential
    /// backoff. `Ok` carries the compile's own verdict (`None` = pick not
    /// buildable at this rank count — deterministic, never retried); `Err`
    /// means every attempt panicked.
    fn compile_with_retries(
        &self,
        sys: usize,
        index: &SelectorIndex,
        collective: Collective,
        nodes: usize,
        slot: u32,
        shard: &Mutex<ShardState>,
    ) -> Result<Option<Arc<CompiledSchedule>>, ()> {
        for attempt in 0..=self.policy.max_retries {
            if attempt > 0 {
                // Count the retry exactly when it starts; back off holding
                // no locks (followers are parked on the flight condvar).
                lock_any(shard).retries += 1;
                std::thread::sleep(backoff(&self.policy, attempt));
            }
            let probe = CompileAttempt {
                system: sys,
                collective,
                nodes,
                attempt,
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(hook) = &self.compile_hook {
                    hook(&probe);
                }
                index.compile_slot(collective, nodes, slot)
            }));
            if let Ok(result) = outcome {
                return Ok(result);
            }
        }
        Err(())
    }

    /// Compiles (or fetches) the binomial fallback for a degraded request.
    /// Cached under distinguished slots in the regular sharded cache and
    /// compiled under single-flight like any other entry — but without the
    /// compile hook or retries, so the degraded path cannot itself be
    /// fault-injected or stalled indefinitely.
    fn fallback_compiled(
        &self,
        sys: usize,
        collective: Collective,
        nodes: usize,
        bytes: u64,
    ) -> Option<Arc<CompiledSchedule>> {
        let slot = if bytes <= FALLBACK_SMALL_VECTOR_THRESHOLD {
            FALLBACK_SLOT_SMALL
        } else {
            FALLBACK_SLOT_LARGE
        };
        let key: Key = (sys as u32, collective, nodes, slot);
        let shard = &self.shards[self.shard_of(&key)];
        loop {
            let role = {
                let mut state = lock_any(shard);
                state.clock += 1;
                let clock = state.clock;
                if let Some(pos) = state.lines.iter().position(|l| l.key == key) {
                    state.lines[pos].last_used = clock;
                    state.hits += 1;
                    return Some(state.lines[pos].compiled.clone());
                }
                state.misses += 1;
                match state.in_flight.iter().find(|(k, _)| *k == key) {
                    Some((_, flight)) => Role::Follower(Arc::clone(flight)),
                    None => {
                        let flight = Arc::new(Flight::new());
                        state.in_flight.push((key, Arc::clone(&flight)));
                        state.compilations += 1;
                        Role::Leader(flight)
                    }
                }
            };
            match role {
                Role::Degraded => unreachable!("the fallback path has no breaker"),
                Role::Follower(flight) => {
                    match flight.wait_timeout(self.policy.flight_timeout) {
                        FlightOutcome::Done(result) => return result,
                        FlightOutcome::Abandoned => continue,
                        // Nothing further to degrade to: compile privately
                        // (cheap, uncached) rather than wait any longer.
                        FlightOutcome::TimedOut => {
                            return build(collective, fallback_pick(collective, bytes), nodes, 0)
                                .map(|s| Arc::new(s.compile()));
                        }
                    }
                }
                Role::Leader(flight) => {
                    let mut guard = FlightGuard {
                        shard,
                        key,
                        flight,
                        capacity: self.shard_capacity,
                        result: None,
                    };
                    let compiled = build(collective, fallback_pick(collective, bytes), nodes, 0)
                        .map(|s| Arc::new(s.compile()));
                    guard.result = Some(compiled.clone());
                    drop(guard);
                    return compiled;
                }
            }
        }
    }

    /// Feeds one observed per-pick cost into the adaptive feedback loop:
    /// the execution wall time of a served schedule, or the simulated cost
    /// when the caller runs picks through the DES. `sys` is a system index
    /// ([`ServiceSelector::resolve_system`]). A no-op unless
    /// [`ServiceSelector::with_adaptation`] enabled adaptation (and on
    /// unresolvable queries). [`ServiceSelector::try_execute_on`] calls
    /// this itself; callers that resolve schedules via
    /// [`ServiceSelector::compiled`] and run them elsewhere report their
    /// timings here.
    ///
    /// The warm path is allocation-free: the observation lands in a
    /// fixed-bucket histogram under the stripe lock the request path
    /// already uses. When the entry's observed mean diverges past
    /// [`AdaptPolicy::divergence`], this call runs the re-evaluation
    /// before returning (single-flight: concurrent observers skip rather
    /// than block, and repeated failures trip a per-entry breaker).
    pub fn observe_at(
        &self,
        sys: usize,
        collective: Collective,
        nodes: usize,
        bytes: u64,
        timing: ObservedTiming,
    ) {
        let Some(cfg) = &self.adapt else { return };
        let Some(index) = self.systems.get(sys) else {
            return;
        };
        let Some(slot_idx) = index.slot_index(collective, nodes, bytes) else {
            return;
        };
        let modelled = index.slot(slot_idx).time_us;
        let key: Key = (sys as u32, collective, nodes, slot_idx);
        let shard = &self.shards[self.shard_of(&key)];
        let reevaluate = {
            let mut state = lock_any(shard);
            let action = {
                let e = state.adapt_entry_mut(key);
                e.hist.record(timing.time_us);
                if e.reeval_in_flight {
                    // Single-flight: someone is already re-evaluating this
                    // entry; never block the observer behind it.
                    ObserveAction::None
                } else if let Some(ov) = &mut e.override_state {
                    ov.since_recheck += 1;
                    if ov.since_recheck >= cfg.policy.recheck_interval {
                        ov.since_recheck = 0;
                        e.reeval_in_flight = true;
                        ObserveAction::Reevaluate
                    } else {
                        ObserveAction::None
                    }
                } else {
                    let diverged = e.hist.count() >= cfg.policy.min_samples
                        && modelled.is_finite()
                        && modelled > 0.0
                        && e.hist.mean_us() >= cfg.policy.divergence * modelled;
                    let allowed = diverged
                        && match e.breaker {
                            Breaker::Closed { .. } => true,
                            Breaker::Open { since }
                                if since.elapsed() >= self.policy.breaker_cooldown =>
                            {
                                // Cooldown over: this observation becomes
                                // the half-open re-evaluation probe.
                                e.breaker = Breaker::HalfOpen;
                                true
                            }
                            Breaker::Open { .. } | Breaker::HalfOpen => false,
                        };
                    if allowed {
                        e.reeval_in_flight = true;
                        ObserveAction::Reevaluate
                    } else {
                        ObserveAction::None
                    }
                }
            };
            match action {
                ObserveAction::Reevaluate => {
                    state.reevals += 1;
                    true
                }
                ObserveAction::None => false,
            }
        };
        if reevaluate {
            // Outside the stripe lock: the entry (and its whole shard)
            // keeps serving while challengers are scored.
            self.run_reevaluation(cfg, key, index, collective, nodes, slot_idx, shard);
        }
    }

    /// Runs one single-flight re-evaluation of a diverged (or periodically
    /// re-checked) entry and settles the outcome under the stripe lock:
    /// install a winning challenger as an override, refresh or revert an
    /// existing override, or count a failure against the entry's breaker.
    /// The challenger search runs under `catch_unwind`, so a panicking
    /// scorer degrades into a breaker strike instead of poisoning serving.
    #[allow(clippy::too_many_arguments)]
    fn run_reevaluation(
        &self,
        cfg: &AdaptConfig,
        key: Key,
        index: &SelectorIndex,
        collective: Collective,
        nodes: usize,
        slot_idx: u32,
        shard: &Mutex<ShardState>,
    ) {
        let slot = index.slot(slot_idx);
        let committed = slot.pick.clone();
        let grid_bytes = slot.vector_bytes;
        let modelled = slot.time_us;
        // Score challengers at the committed grid point's vector size and
        // pre-compile a non-incumbent winner, all outside any lock. The
        // provider set lets a challenger enumeration include synthesized
        // names, not just catalog ones.
        let providers = index.providers().clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (winner, score) = cfg
                .reevaluator
                .best(&committed, collective, nodes, grid_bytes)?;
            if winner == committed {
                Some((winner, score, None))
            } else {
                let compiled = Arc::new(providers.build(collective, &winner, nodes, 0)?.compile());
                Some((winner, score, Some(compiled)))
            }
        }));
        let mut state = lock_any(shard);
        let mut installed = false;
        let mut reverted = false;
        {
            let e = state.adapt_entry_mut(key);
            e.reeval_in_flight = false;
            match outcome {
                Ok(Some((winner, score, compiled))) => {
                    e.breaker = Breaker::Closed {
                        consecutive_failures: 0,
                    };
                    if winner == committed {
                        // The committed pick won: revert any override and
                        // start a fresh observation window.
                        reverted = e.override_state.take().is_some();
                        e.hist.reset();
                    } else if let Some(ov) =
                        e.override_state.as_mut().filter(|ov| ov.pick == winner)
                    {
                        // Recheck confirmed the active override.
                        ov.challenger_us = score;
                        e.hist.reset();
                    } else {
                        let samples = e.hist.count();
                        let observed_mean_us = e.hist.mean_us();
                        e.hist.reset();
                        e.override_state = Some(OverrideState {
                            pick: winner,
                            compiled: compiled.expect("non-incumbent winner is pre-compiled"),
                            epoch: self.adapt_epoch.fetch_add(1, Ordering::Relaxed) + 1,
                            samples,
                            observed_mean_us,
                            modelled_us: modelled,
                            challenger_us: score,
                            since_recheck: 0,
                        });
                        installed = true;
                    }
                }
                // Nothing scorable, winner unbuildable, or the scorer
                // panicked: a failed re-evaluation. The entry keeps serving
                // its current pick; repeated failures trip the breaker.
                Ok(None) | Err(_) => e.record_reeval_failure(self.policy.breaker_threshold),
            }
        }
        if installed {
            state.overrides += 1;
        }
        if reverted {
            state.reverts += 1;
        }
    }

    /// Resolves the tuned pick, compiles (or fetches) its schedule and
    /// executes it over `initial` block stores on `pool`, reporting job
    /// panics as [`ExecError`] instead of unwinding. `None` when the query
    /// resolves to no table entry or the pick is not buildable at this
    /// rank count. On success the execution wall time is fed back into the
    /// adaptive loop (see [`ServiceSelector::observe_at`]).
    pub fn try_execute_on(
        &self,
        pool: &ExecutorPool,
        system: &str,
        collective: Collective,
        nodes: usize,
        bytes: u64,
        initial: Vec<BlockStore>,
    ) -> Option<Result<Vec<BlockStore>, ExecError>> {
        let sys = self.system_index(system)?;
        let compiled = self.compiled_at(sys, collective, nodes, bytes)?;
        let start = Instant::now();
        let result = pool.try_run(&compiled, initial);
        if result.is_ok() {
            self.observe_at(
                sys,
                collective,
                nodes,
                bytes,
                ObservedTiming::execution(start.elapsed().as_secs_f64() * 1e6),
            );
        }
        Some(result)
    }

    /// Crash-tolerant execution with shrink-and-retry recovery: resolves
    /// the tuned pick, builds its schedule and the deterministic workload
    /// (`elems_per_block` elements per block, root 0), injects `dead` as
    /// ranks crashed before the collective starts, and runs on `pool`.
    ///
    /// * When no surviving rank blocks on a dead one, the run completes
    ///   over the full communicator: [`Served::Full`].
    /// * When the executor reports [`ExecError::RankDead`], the service
    ///   shrinks the communicator to the dense survivor renumbering
    ///   ([`RankMap::dense`]) and rebuilds a schedule at the shrunk size —
    ///   the pick itself, the binomial [`fallback_pick`], or the
    ///   collective's linear any-rank-count algorithm (ring/pairwise),
    ///   whichever builds first — compiles it under a distinguished
    ///   recovery cache slot, and re-executes the collective with every
    ///   survivor re-contributing its input under its new rank:
    ///   [`Served::Recovered`]. The recovered finals are bit identical to
    ///   a direct run of the same collective at the shrunk size — pinned
    ///   by the `crash_chaos` harness.
    /// * Two stalls are unrecoverable and surface as the original typed
    ///   error: a rooted collective whose **source data** lived on a dead
    ///   root (broadcast or scatter from a crashed root 0 — no survivor
    ///   holds the payload), and a collective with no catalog algorithm at
    ///   the survivor count (the rooted collectives build only at
    ///   power-of-two sizes).
    ///
    /// `None` when the query resolves to no table entry or the pick is not
    /// buildable at `nodes` ranks. The [`ServiceSelector::stalls`] and
    /// [`ServiceSelector::recoveries`] counters make the ladder observable.
    ///
    /// # Panics
    /// Panics if a dead rank is `>= nodes` or all ranks are dead.
    #[allow(clippy::too_many_arguments)]
    pub fn try_execute_recovering_on(
        &self,
        pool: &ExecutorPool,
        system: &str,
        collective: Collective,
        nodes: usize,
        bytes: u64,
        elems_per_block: usize,
        dead: &[usize],
    ) -> Option<Result<Served, ExecError>> {
        let sys = self.system_index(system)?;
        let index = self.systems.get(sys)?;
        let slot = index.slot_index(collective, nodes, bytes)?;
        let pick = index.slot(slot).pick.clone();
        // Routed through the index's provider set so committed synthesized
        // picks rebuild exactly like catalog ones. An off-grid query can
        // land on a rank count the pick does not build at: `None`.
        let sched = index.providers().build(collective, &pick, nodes, 0)?;
        let key: Key = (sys as u32, collective, nodes, slot);
        let compiled = self.cached_or_compile(key, || Arc::new(sched.compile()));
        let w = Workload::for_schedule(&sched, elems_per_block);
        match pool.try_run_with_dead(&compiled, w.initial_state(&sched), dead) {
            Ok(finals) => Some(Ok(Served::Full(finals))),
            Err(error @ ExecError::RankDead { .. }) => {
                lock_any(&self.shards[self.shard_of(&key)]).stalls += 1;
                Some(self.shrink_and_retry(
                    pool,
                    sys,
                    collective,
                    nodes,
                    bytes,
                    elems_per_block,
                    dead,
                    slot,
                    &pick,
                    error,
                ))
            }
            Err(other) => Some(Err(other)),
        }
    }

    /// The shrink half of the recovery ladder: dense survivor renumbering,
    /// pick rebuilt at the shrunk size (binomial fallback when it does not
    /// build there), re-execution over fresh survivor contributions.
    #[allow(clippy::too_many_arguments)]
    fn shrink_and_retry(
        &self,
        pool: &ExecutorPool,
        sys: usize,
        collective: Collective,
        nodes: usize,
        bytes: u64,
        elems_per_block: usize,
        dead: &[usize],
        slot: u32,
        pick: &str,
        error: ExecError,
    ) -> Result<Served, ExecError> {
        // A dead root's payload (broadcast/scatter source data) exists
        // nowhere else: shrinking cannot recover it. The reduction and
        // gather families re-contribute from every survivor, so they
        // recover whoever died.
        let root_holds_source = matches!(collective, Collective::Broadcast | Collective::Scatter);
        if root_holds_source && dead.contains(&0) {
            return Err(error);
        }
        let map = RankMap::dense(nodes, dead);
        let survivors = map.num_survivors();
        // Candidate picks for the shrunk size, in preference order: the
        // slot's own pick, the binomial fallback, then the linear any-p
        // algorithm of the collective (the butterfly/tree algorithms only
        // build at power-of-two rank counts, and a shrink almost always
        // lands off it).
        let mut candidates: Vec<&str> = vec![pick, fallback_pick(collective, bytes)];
        match collective {
            Collective::Allreduce | Collective::Allgather | Collective::ReduceScatter => {
                candidates.push("ring");
            }
            Collective::Alltoall => candidates.push("pairwise"),
            _ => {}
        }
        // Probe through the system's provider set: a synthesized slot pick
        // recovers to itself when a view exists at the survivor count, and
        // falls through to the catalog candidates otherwise.
        let providers = self
            .systems
            .get(sys)
            .map(|i| i.providers().clone())
            .unwrap_or_default();
        let built = candidates.iter().find_map(|cand| {
            providers
                .build(collective, cand, survivors, 0)
                .map(|sched| (cand.to_string(), sched))
        });
        let Some((rec_pick, rec_sched)) = built else {
            // No catalog algorithm builds over this survivor count — the
            // rooted collectives have no non-pow2 builder — so the stall
            // is unrecoverable and surfaces as the original typed error.
            return Err(error);
        };
        // The winning candidate is a pure function of (slot pick,
        // collective, survivor count, fallback size class), so the
        // recovery cache slot folds in the size class next to the slot.
        let large = u32::from(bytes > FALLBACK_SMALL_VECTOR_THRESHOLD);
        let rkey: Key = (
            sys as u32,
            collective,
            survivors,
            RECOVERY_SLOT_BASE - 2 * slot - large,
        );
        let rec_compiled = self.cached_or_compile(rkey, || Arc::new(rec_sched.compile()));
        let w = Workload::for_schedule(&rec_sched, elems_per_block);
        let finals = pool.try_run(&rec_compiled, w.initial_state(&rec_sched))?;
        lock_any(&self.shards[self.shard_of(&rkey)]).recoveries += 1;
        Ok(Served::Recovered(Recovery {
            finals,
            map,
            schedule: rec_sched,
            pick: rec_pick,
            error,
        }))
    }

    /// Fetches `key` from the sharded cache, or compiles and publishes it.
    /// Used by the recovery path, whose callers have already built the
    /// `Schedule` (the expensive half) in this call anyway — so a rare
    /// duplicate compile under a cold-cache race costs less than the
    /// flight machinery, and either winner is correct (the compile is a
    /// pure function of the key).
    fn cached_or_compile(
        &self,
        key: Key,
        compile: impl FnOnce() -> Arc<CompiledSchedule>,
    ) -> Arc<CompiledSchedule> {
        let shard = &self.shards[self.shard_of(&key)];
        {
            let mut state = lock_any(shard);
            state.clock += 1;
            let clock = state.clock;
            if let Some(pos) = state.lines.iter().position(|l| l.key == key) {
                state.lines[pos].last_used = clock;
                state.hits += 1;
                return state.lines[pos].compiled.clone();
            }
            state.misses += 1;
        }
        let compiled = compile();
        let mut state = lock_any(shard);
        state.compilations += 1;
        if let Some(pos) = state.lines.iter().position(|l| l.key == key) {
            // Lost a cold-cache race: serve the published line so repeat
            // callers keep getting pointer-identical schedules.
            return state.lines[pos].compiled.clone();
        }
        state.insert(key, Arc::clone(&compiled), self.shard_capacity);
        compiled
    }

    fn shard_of(&self, key: &Key) -> usize {
        // A cheap splitmix-style integer mix instead of the std SipHash:
        // the stripe choice runs on every request and only needs to spread
        // a handful of small integers, not resist collision attacks.
        let (sys, collective, nodes, slot) = *key;
        let mut h = (sys as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (collective as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ (nodes as u64).wrapping_mul(0x94D0_49BB_1331_11EB)
            ^ (slot as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 32;
        (h % self.shards.len() as u64) as usize
    }

    /// Number of cache shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard LRU capacity.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Number of compiled schedules currently cached, across all shards.
    pub fn cached_schedules(&self) -> usize {
        self.shard_lens().iter().sum()
    }

    /// Current line count of every shard (for capacity-invariant tests).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| lock_any(s).lines.len())
            .collect()
    }

    /// Cache hits served so far, across all shards.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| lock_any(s).hits).sum()
    }

    /// Cache misses across all shards (followers waiting on an in-flight
    /// compile count as misses, not as compilations).
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| lock_any(s).misses).sum()
    }

    /// Compilations started (single-flight leaderships taken) — with a
    /// warm-enough cache this equals the number of distinct
    /// `(system, collective, nodes, slot)` entries ever requested, however
    /// many threads raced for them; evicted entries recompile on
    /// re-request.
    pub fn compilations(&self) -> u64 {
        self.shards.iter().map(|s| lock_any(s).compilations).sum()
    }

    /// Requests answered with the binomial fallback pick — open breaker,
    /// failed leadership, or timed-out follower wait — across all shards.
    /// Zero on a healthy service.
    pub fn fallbacks(&self) -> u64 {
        self.shards.iter().map(|s| lock_any(s).fallbacks).sum()
    }

    /// Follower waits that hit [`DegradePolicy::flight_timeout`] before
    /// their leader settled, across all shards.
    pub fn timeouts(&self) -> u64 {
        self.shards.iter().map(|s| lock_any(s).timeouts).sum()
    }

    /// Compile retries after a panicking attempt, across all shards (the
    /// first try of each leadership is not a retry).
    pub fn retries(&self) -> u64 {
        self.shards.iter().map(|s| lock_any(s).retries).sum()
    }

    /// Dead-rank stalls ([`ExecError::RankDead`]) the crash-tolerant
    /// execution path has hit so far, across all shards. Zero on a service
    /// that never saw a crash.
    pub fn stalls(&self) -> u64 {
        self.shards.iter().map(|s| lock_any(s).stalls).sum()
    }

    /// Successful shrink-and-retry recoveries, across all shards. Equals
    /// [`ServiceSelector::stalls`] when every stall was recoverable.
    pub fn recoveries(&self) -> u64 {
        self.shards.iter().map(|s| lock_any(s).recoveries).sum()
    }

    /// A point-in-time dump of every active adaptive override, ordered by
    /// installation epoch. Empty on a service without adaptation, or one
    /// whose observations all match the committed model.
    pub fn overlay(&self) -> AdaptiveOverlay {
        let mut entries = Vec::new();
        for shard in &self.shards {
            let state = lock_any(shard);
            for e in &state.adapt {
                if let Some(ov) = &e.override_state {
                    let (sys, collective, nodes, slot_idx) = e.key;
                    let index = &self.systems[sys as usize];
                    entries.push(OverlayEntry {
                        system: index.system().to_string(),
                        collective,
                        nodes,
                        committed: index.slot(slot_idx).pick.clone(),
                        pick: ov.pick.clone(),
                        epoch: ov.epoch,
                        samples: ov.samples,
                        observed_mean_us: ov.observed_mean_us,
                        modelled_us: ov.modelled_us,
                        challenger_us: ov.challenger_us,
                    });
                }
            }
        }
        entries.sort_by_key(|e| e.epoch);
        AdaptiveOverlay { entries }
    }

    /// Overrides installed by the adaptive loop so far (promotions, not
    /// currently-active overrides — see [`ServiceSelector::overlay`] for
    /// those), across all shards.
    pub fn overrides(&self) -> u64 {
        self.shards.iter().map(|s| lock_any(s).overrides).sum()
    }

    /// Overrides reverted after the committed pick won a re-check, across
    /// all shards.
    pub fn reverts(&self) -> u64 {
        self.shards.iter().map(|s| lock_any(s).reverts).sum()
    }

    /// Re-evaluations started (divergence triggers plus override
    /// re-checks), across all shards.
    pub fn reevals(&self) -> u64 {
        self.shards.iter().map(|s| lock_any(s).reevals).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Entry, ScoreModel};
    use crate::Selector;

    fn table(system: &str) -> DecisionTable {
        let e = |collective, nodes: usize, bytes: u64, pick: &str| Entry {
            collective,
            dist: None,
            nodes,
            vector_bytes: bytes,
            pick: pick.into(),
            model: ScoreModel::Sync,
            time_us: 1.0,
        };
        DecisionTable {
            system: system.into(),
            entries: vec![
                e(Collective::Allreduce, 16, 32, "recursive-doubling"),
                e(Collective::Allreduce, 16, 1 << 20, "bine-large"),
                e(Collective::Allreduce, 64, 32, "recursive-doubling"),
                e(Collective::Allreduce, 64, 1 << 20, "bine-large+seg8"),
                e(Collective::Broadcast, 16, 32, "bine-tree"),
            ],
        }
    }

    #[test]
    fn choose_matches_the_serial_selector() {
        let t = table("Testbox");
        let serial = Selector::from_table(&t);
        let service = ServiceSelector::from_tables(&[t]);
        for nodes in [4usize, 16, 40, 64, 100] {
            for bytes in [1u64, 32, 4096, 1 << 20, 1 << 26] {
                assert_eq!(
                    service.choose("Testbox", Collective::Allreduce, nodes, bytes),
                    serial.choose(Collective::Allreduce, nodes, bytes),
                );
            }
        }
        assert!(service
            .choose("Testbox", Collective::Alltoall, 16, 32)
            .is_none());
        assert!(service
            .choose("nosuch", Collective::Allreduce, 16, 32)
            .is_none());
    }

    #[test]
    fn systems_resolve_by_name_or_slug() {
        let service = ServiceSelector::from_tables(&[table("MareNostrum 5"), table("LUMI")]);
        assert_eq!(service.system_index("MareNostrum 5"), Some(0));
        assert_eq!(service.system_index("marenostrum5"), Some(0));
        assert_eq!(service.system_index("lumi"), Some(1));
        assert_eq!(service.system_index("Frontier"), None);
        assert_eq!(service.system_names(), vec!["MareNostrum 5", "LUMI"]);
    }

    #[test]
    fn compiled_hits_the_cache_on_repeat() {
        let service = ServiceSelector::from_tables(&[table("Testbox")]);
        let a = service
            .compiled("Testbox", Collective::Allreduce, 16, 32)
            .unwrap();
        let b = service
            .compiled("Testbox", Collective::Allreduce, 16, 32)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        assert_eq!(service.compilations(), 1);
        assert_eq!(service.hits(), 1);
        assert_eq!(service.misses(), 1);
        assert_eq!(service.cached_schedules(), 1);
        // Distinct node counts compile separately even for one entry.
        let c = service
            .compiled("Testbox", Collective::Allreduce, 32, 32)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.num_ranks, 32);
        assert_eq!(service.compilations(), 2);
    }

    #[test]
    fn per_shard_capacity_is_respected_even_at_zero() {
        let service = ServiceSelector::from_tables(&[table("Testbox")])
            .with_shards(1)
            .with_shard_capacity(0); // clamped to 1
        assert_eq!(service.shard_capacity(), 1);
        service
            .compiled("Testbox", Collective::Allreduce, 16, 32)
            .unwrap();
        service
            .compiled("Testbox", Collective::Allreduce, 32, 32)
            .unwrap();
        assert_eq!(service.cached_schedules(), 1);
        assert!(service.shard_lens().iter().all(|&len| len <= 1));
    }

    #[test]
    fn fallback_pick_switches_at_the_harness_threshold() {
        use bine_sched::build;
        assert_eq!(
            fallback_pick(Collective::Allreduce, 32),
            "recursive-doubling"
        );
        assert_eq!(
            fallback_pick(Collective::Allreduce, FALLBACK_SMALL_VECTOR_THRESHOLD),
            "recursive-doubling"
        );
        assert_eq!(
            fallback_pick(Collective::Allreduce, FALLBACK_SMALL_VECTOR_THRESHOLD + 1),
            "rabenseifner"
        );
        assert_eq!(
            fallback_pick(Collective::Broadcast, 1 << 20),
            "scatter-allgather"
        );
        // "Always buildable": every collective's fallback builds at the
        // table's rank counts, on both sides of the switch point.
        for collective in Collective::ALL {
            for bytes in [32u64, 1 << 20] {
                for nodes in [16usize, 64] {
                    assert!(
                        build(collective, fallback_pick(collective, bytes), nodes, 0).is_some(),
                        "{} fallback must build at {nodes} ranks",
                        collective.name()
                    );
                }
            }
        }
    }

    #[test]
    fn resolve_system_lists_the_loaded_systems_on_a_miss() {
        let service = ServiceSelector::from_tables(&[table("MareNostrum 5"), table("LUMI")]);
        assert_eq!(service.resolve_system("lumi"), Ok(1));
        let err = service.resolve_system("Frontier").unwrap_err();
        assert!(err.contains("Frontier"), "{err}");
        assert!(err.contains("MareNostrum 5"), "{err}");
        assert!(err.contains("LUMI"), "{err}");
    }

    /// Injected compile panics walk the whole degradation ladder: each
    /// failed leadership retries `max_retries` times, consecutive failures
    /// trip the per-entry breaker, and every degraded request is answered
    /// with the binomial fallback — while other entries stay healthy.
    #[test]
    fn compile_failures_retry_then_trip_the_breaker_to_the_fallback() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let hook_calls = Arc::new(AtomicU64::new(0));
        let calls = Arc::clone(&hook_calls);
        let service = ServiceSelector::from_tables(&[table("Testbox")])
            .with_policy(DegradePolicy {
                flight_timeout: Duration::from_secs(30),
                max_retries: 1,
                backoff_base: Duration::ZERO,
                backoff_cap: Duration::ZERO,
                breaker_threshold: 2,
                breaker_cooldown: Duration::from_secs(3600),
            })
            .with_compile_hook(Arc::new(move |a: &CompileAttempt| {
                if a.collective == Collective::Allreduce {
                    calls.fetch_add(1, Ordering::SeqCst);
                    panic!("injected compile failure");
                }
            }));

        // Leadership 1: first try + one retry both panic; not yet at the
        // breaker threshold, but the answer is already the fallback.
        let c = service
            .compiled("Testbox", Collective::Allreduce, 16, 1 << 20)
            .expect("degraded answer");
        assert_eq!(c.algorithm, "rabenseifner");
        assert_eq!(c.num_ranks, 16);
        assert_eq!(hook_calls.load(Ordering::SeqCst), 2);
        assert_eq!(service.retries(), 1);
        assert_eq!(service.fallbacks(), 1);

        // Leadership 2 fails too → the breaker trips open.
        let c = service
            .compiled("Testbox", Collective::Allreduce, 16, 1 << 20)
            .expect("degraded answer");
        assert_eq!(c.algorithm, "rabenseifner");
        assert_eq!(hook_calls.load(Ordering::SeqCst), 4);
        assert_eq!(service.retries(), 2);

        // Open breaker: served straight from the cached fallback line, no
        // compile attempt at all (the cooldown is an hour).
        let c = service
            .compiled("Testbox", Collective::Allreduce, 16, 1 << 20)
            .expect("degraded answer");
        assert_eq!(c.algorithm, "rabenseifner");
        assert_eq!(
            hook_calls.load(Ordering::SeqCst),
            4,
            "breaker skips compiles"
        );
        assert_eq!(service.fallbacks(), 3);
        assert_eq!(service.timeouts(), 0);

        // A different entry on the same service stays fully healthy.
        let c = service
            .compiled("Testbox", Collective::Broadcast, 16, 32)
            .expect("healthy answer");
        assert_eq!(c.algorithm, "bine-tree");
    }

    /// After the cooldown, one request probes the entry half-open; a
    /// successful probe closes the breaker and the tuned pick is served
    /// (and cached) again.
    #[test]
    fn breaker_half_opens_and_recovers_after_the_cooldown() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let failing = Arc::new(AtomicBool::new(true));
        let fail = Arc::clone(&failing);
        let service = ServiceSelector::from_tables(&[table("Testbox")])
            .with_policy(DegradePolicy {
                flight_timeout: Duration::from_secs(30),
                max_retries: 0,
                backoff_base: Duration::ZERO,
                backoff_cap: Duration::ZERO,
                breaker_threshold: 1,
                breaker_cooldown: Duration::from_millis(30),
            })
            .with_compile_hook(Arc::new(move |_: &CompileAttempt| {
                if fail.load(Ordering::SeqCst) {
                    panic!("injected compile failure");
                }
            }));

        // One failed leadership trips the breaker (threshold 1) …
        let c = service
            .compiled("Testbox", Collective::Allreduce, 16, 1 << 20)
            .expect("degraded answer");
        assert_eq!(c.algorithm, "rabenseifner");
        // … and within the cooldown every request degrades.
        let c = service
            .compiled("Testbox", Collective::Allreduce, 16, 1 << 20)
            .expect("degraded answer");
        assert_eq!(c.algorithm, "rabenseifner");
        assert_eq!(service.fallbacks(), 2);

        // Heal the compile path, wait out the cooldown: the next request
        // is the half-open probe, compiles for real and closes the breaker.
        failing.store(false, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(60));
        let probe = service
            .compiled("Testbox", Collective::Allreduce, 16, 1 << 20)
            .expect("recovered answer");
        assert_eq!(probe.algorithm, "bine-large");
        // Fully recovered: the tuned pick is cached and served as a hit.
        let hit = service
            .compiled("Testbox", Collective::Allreduce, 16, 1 << 20)
            .expect("cached answer");
        assert!(Arc::ptr_eq(&probe, &hit));
        assert_eq!(service.fallbacks(), 2, "no further degradation");
    }

    #[test]
    fn a_dead_rank_triggers_shrink_and_retry_bit_identical_to_a_direct_run() {
        use bine_exec::Workload;
        use bine_sched::build;

        let service = ServiceSelector::from_tables(&[table("Testbox")]);
        let pool = ExecutorPool::new(2);
        // (allreduce, 16, 32) resolves to recursive-doubling; kill rank 5.
        let served = service
            .try_execute_recovering_on(&pool, "Testbox", Collective::Allreduce, 16, 32, 2, &[5])
            .expect("query resolves")
            .expect("the stall recovers");
        assert_eq!(service.stalls(), 1);
        assert_eq!(service.recoveries(), 1);
        let Served::Recovered(rec) = served else {
            panic!("a dead exchange partner must stall recursive doubling");
        };
        assert!(matches!(rec.error, ExecError::RankDead { src: 5, .. }));
        assert_eq!(rec.map.num_survivors(), 15);
        assert_eq!(rec.map.new_rank(5), None);
        assert_eq!(rec.map.new_rank(6), Some(5));
        assert_eq!(rec.schedule.num_ranks, 15);
        // Bit-identity against a direct run of the same pick at 15 ranks.
        let direct = build(Collective::Allreduce, &rec.pick, 15, 0).unwrap();
        let w = Workload::for_schedule(&direct, 2);
        let expected = bine_exec::sequential::run_reference(&direct, w.initial_state(&direct));
        assert_eq!(rec.finals, expected);
    }

    #[test]
    fn a_harmless_dead_rank_completes_over_the_full_communicator() {
        // Rank 3 is a leaf of the broadcast tree at (broadcast, 16, 32):
        // nobody receives from it, so the run completes without shrinking.
        let service = ServiceSelector::from_tables(&[table("Testbox")]);
        let pool = ExecutorPool::new(2);
        let sched = bine_sched::build(Collective::Broadcast, "bine-tree", 16, 0).unwrap();
        let leaf = (0..16)
            .find(|r| sched.messages().all(|(_, m)| m.src != *r))
            .expect("a broadcast tree has leaves");
        let served = service
            .try_execute_recovering_on(&pool, "Testbox", Collective::Broadcast, 16, 32, 2, &[leaf])
            .expect("query resolves")
            .expect("a dead leaf stalls nobody");
        assert!(!served.is_recovered());
        assert_eq!(served.finals().len(), 16);
        assert_eq!(service.stalls(), 0);
        assert_eq!(service.recoveries(), 0);
    }

    #[test]
    fn a_dead_broadcast_root_is_unrecoverable() {
        // Root 0's payload exists nowhere else: the stall must surface as
        // the original RankDead, and no recovery may be counted.
        let service = ServiceSelector::from_tables(&[table("Testbox")]);
        let pool = ExecutorPool::new(2);
        let err = service
            .try_execute_recovering_on(&pool, "Testbox", Collective::Broadcast, 16, 32, 2, &[0])
            .expect("query resolves")
            .expect_err("the source data died with the root");
        assert!(matches!(err, ExecError::RankDead { src: 0, .. }));
        assert_eq!(service.stalls(), 1);
        assert_eq!(service.recoveries(), 0);
    }

    #[test]
    fn repeated_recoveries_reuse_the_recovery_cache_slot() {
        let service = ServiceSelector::from_tables(&[table("Testbox")]);
        let pool = ExecutorPool::new(2);
        for _ in 0..3 {
            let served = service
                .try_execute_recovering_on(&pool, "Testbox", Collective::Allreduce, 16, 32, 2, &[5])
                .unwrap()
                .unwrap();
            assert!(served.is_recovered());
        }
        assert_eq!(service.recoveries(), 3);
        // One compile of the 16-rank pick, one of the 15-rank recovery
        // schedule; the repeats are cache hits.
        assert_eq!(service.compilations(), 2);
    }

    #[test]
    fn execute_runs_the_tuned_pick_end_to_end() {
        use bine_exec::state::Workload;
        use bine_sched::build;

        let t = table("Testbox");
        let service = ServiceSelector::from_tables(&[t]);
        // The pick at (allreduce, 16, 32) is recursive-doubling; run it and
        // cross-check against the serial reference executor.
        let sched = build(Collective::Allreduce, "recursive-doubling", 16, 0).unwrap();
        let w = Workload::for_schedule(&sched, 2);
        let expected = bine_exec::sequential::run_reference(&sched, w.initial_state(&sched));
        let pool = ExecutorPool::new(2);
        let finals = service
            .try_execute_on(
                &pool,
                "Testbox",
                Collective::Allreduce,
                16,
                32,
                w.initial_state(&sched),
            )
            .expect("query resolves")
            .expect("no job panics");
        assert_eq!(finals, expected);
    }
}
