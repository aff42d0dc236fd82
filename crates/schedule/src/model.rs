//! The deterministic scheduler behind the facade.
//!
//! Threads spawned inside [`explore`] are real OS threads, but exactly one
//! is ever runnable: every modeled operation parks the caller until the
//! scheduler hands it the baton. Each point where more than one thread could
//! run is a *decision*; an execution is the sequence of decisions taken.
//! [`Explorer`] enumerates executions statelessly — re-running the closure
//! with a forced decision prefix — which is what makes replay trivial: a
//! failing schedule *is* its decision path.
//!
//! Search strategy: depth-first with a bounded number of preemptions
//! (a decision that switches away from a thread that could have continued),
//! iteratively deepened from 0 to `SCHED_BOUND` so the first failure found
//! uses as few preemptions as possible. Past `SCHED_MAX` executions the
//! explorer switches to seeded random sampling (`SCHED_RANDOM` runs).

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe, Location};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

/// Thread id within one modeled execution (index into the thread table).
pub(crate) type Tid = usize;

/// Construction site of a modeled resource, used in failure reports.
pub(crate) type Site = &'static Location<'static>;

/// Sentinel panic payload used to unwind parked threads when an execution
/// aborts (failure or deadlock found). Wrappers recognise it and do not
/// report it as a user panic.
struct Abort;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    BlockedMutex(u64),
    BlockedRwRead(u64),
    BlockedRwWrite(u64),
    BlockedCond(u64),
    BlockedJoin(Tid),
    Finished,
}

struct ThreadInfo {
    status: Status,
    name: String,
}

struct LockState {
    site: Site,
    /// Mutex holder, or rwlock writer.
    owner: Option<Tid>,
    /// Rwlock readers (unused for mutexes).
    readers: Vec<Tid>,
}

/// One scheduling decision with more than one enabled thread.
#[derive(Clone)]
pub(crate) struct Choice {
    enabled: Vec<Tid>,
    chosen: usize,
    active_before: Tid,
    active_enabled: bool,
    preempt_base: usize,
}

/// How the explorer is currently choosing unforced decisions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SearchMode {
    /// Exhaustive depth-first search under the preemption bound.
    Exhaustive,
    /// Seeded random sampling (after the exhaustive cap was exceeded).
    Random,
    /// Single forced execution from `SCHED_REPLAY`.
    Replay,
}

struct SchedState {
    threads: Vec<ThreadInfo>,
    live: usize,
    active: Option<Tid>,
    locks: HashMap<u64, LockState>,
    prefix: Vec<usize>,
    pos: usize,
    path: Vec<Choice>,
    preemptions: usize,
    bound: usize,
    mode: SearchMode,
    rng: u64,
    steps: u64,
    max_steps: u64,
    failure: Option<String>,
    abort: bool,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

struct Shared {
    state: StdMutex<SchedState>,
    cv: StdCondvar,
}

#[derive(Clone)]
pub(crate) struct Ctx {
    shared: Arc<Shared>,
    tid: Tid,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Returns the calling thread's model context, if it is a model thread.
pub(crate) fn current() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// True when the calling thread is running under a deterministic schedule.
#[inline]
pub fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Fresh resource ids: every facade Mutex/RwLock/Condvar gets one at
/// construction so the model can key per-execution lock state without the
/// wrapper and the scheduler sharing lifetimes.
static RESOURCE_IDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

pub(crate) fn fresh_resource_id() -> u64 {
    // ordering: Relaxed — a pure id allocator; uniqueness is all that
    // matters and fetch_add is atomic regardless of ordering.
    RESOURCE_IDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

fn xorshift(s: &mut u64) -> u64 {
    let mut x = *s;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *s = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl SchedState {
    fn describe_threads(&self) -> String {
        let mut out = String::new();
        for (tid, t) in self.threads.iter().enumerate() {
            let what = match t.status {
                Status::Runnable => "runnable".to_string(),
                Status::Finished => "finished".to_string(),
                Status::BlockedJoin(other) => {
                    format!("blocked joining t{other}")
                }
                Status::BlockedMutex(id) => self.describe_block("mutex", id),
                Status::BlockedRwRead(id) => self.describe_block("rwlock(read)", id),
                Status::BlockedRwWrite(id) => self.describe_block("rwlock(write)", id),
                Status::BlockedCond(id) => self.describe_block("condvar", id),
            };
            out.push_str(&format!("    t{tid} `{}`: {what}\n", t.name));
        }
        out
    }

    fn describe_block(&self, what: &str, id: u64) -> String {
        match self.locks.get(&id) {
            Some(l) => {
                let held = match (l.owner, l.readers.is_empty()) {
                    (Some(o), _) => format!(" held by t{o}"),
                    (None, false) => format!(" read-held by {:?}", l.readers),
                    (None, true) => String::new(),
                };
                format!(
                    "blocked on {what} @ {}:{}{held}",
                    l.site.file(),
                    l.site.line()
                )
            }
            None => format!("blocked on {what} #{id}"),
        }
    }

    fn fail(&mut self, msg: String) {
        if self.failure.is_none() {
            self.failure = Some(msg);
        }
        self.abort = true;
    }
}

/// Collects the runnable set, active-thread-first then ascending tid, so
/// decision index 0 is always the non-preempting continuation when one
/// exists.
fn enabled_of(state: &SchedState, current: Tid) -> (Vec<Tid>, bool) {
    let mut enabled = Vec::new();
    let mut current_enabled = false;
    if matches!(
        state.threads.get(current).map(|t| t.status),
        Some(Status::Runnable)
    ) {
        enabled.push(current);
        current_enabled = true;
    }
    for (tid, t) in state.threads.iter().enumerate() {
        if tid != current && t.status == Status::Runnable {
            enabled.push(tid);
        }
    }
    (enabled, current_enabled)
}

/// Picks the next thread to run. `current` is the thread that held the baton
/// when the decision arose. Returns `None` when the execution is complete or
/// aborting; the caller must then not wait for a turn.
fn pick_next(state: &mut SchedState, current: Tid) -> Option<Tid> {
    if state.abort {
        return None;
    }
    state.steps += 1;
    if state.steps > state.max_steps {
        state.fail(format!(
            "schedule exceeded SCHED_STEPS={} decisions (livelock or unbounded spin \
             under the model?)",
            state.max_steps
        ));
        return None;
    }
    let (enabled, current_enabled) = enabled_of(state, current);
    if enabled.is_empty() {
        if state.live == 0 {
            state.active = None;
            return None;
        }
        state.fail(format!(
            "deadlock: no runnable thread ({} still live)\n{}",
            state.live,
            state.describe_threads()
        ));
        return None;
    }
    let idx = if enabled.len() == 1 {
        0
    } else {
        let idx = if state.pos < state.prefix.len() {
            let forced = state.prefix[state.pos];
            if forced >= enabled.len() {
                state.fail(format!(
                    "replay diverged: decision {} forces index {forced} but only {} \
                     threads are enabled — the program is nondeterministic beyond \
                     its schedule",
                    state.pos,
                    enabled.len()
                ));
                return None;
            }
            forced
        } else {
            match state.mode {
                // DFS default: never preempt spontaneously; the explorer
                // injects preemptions by extending the forced prefix.
                SearchMode::Exhaustive | SearchMode::Replay => 0,
                SearchMode::Random => {
                    let budget_left = state.bound.saturating_sub(state.preemptions);
                    let limit = if current_enabled && budget_left == 0 {
                        // Only the non-preempting continuation is affordable.
                        1
                    } else {
                        enabled.len()
                    };
                    (xorshift(&mut state.rng) % limit as u64) as usize
                }
            }
        };
        state.path.push(Choice {
            enabled: enabled.clone(),
            chosen: idx,
            active_before: current,
            active_enabled: current_enabled,
            preempt_base: state.preemptions,
        });
        state.pos += 1;
        idx
    };
    let next = enabled[idx];
    if current_enabled && next != current {
        state.preemptions += 1;
    }
    state.active = Some(next);
    Some(next)
}

/// Parks the calling model thread until the scheduler hands it the baton.
/// Panics with [`Abort`] if the execution is being torn down — unless the
/// thread is already unwinding, see [`teardown`].
fn wait_turn<'a>(
    shared: &'a Shared,
    mut g: std::sync::MutexGuard<'a, SchedState>,
    me: Tid,
) -> std::sync::MutexGuard<'a, SchedState> {
    loop {
        if teardown(&g) {
            return g;
        }
        if g.abort {
            drop(g);
            std::panic::panic_any(Abort);
        }
        if g.active == Some(me) {
            return g;
        }
        g = shared
            .cv
            .wait(g)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

/// True once the execution is aborting and the calling thread is already
/// unwinding. Its destructors then run unscheduled, straight on the `std`
/// primitives beneath the facade: raising [`Abort`] again from a destructor
/// would abort the whole process and lose the failure report. Every other
/// thread is unwinding too, so the real locks it meets are released.
fn teardown(g: &SchedState) -> bool {
    g.abort && std::thread::panicking()
}

fn lock_state(shared: &Shared) -> std::sync::MutexGuard<'_, SchedState> {
    shared
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Ctx {
    /// A plain preemption point: lets the scheduler run other threads before
    /// the caller's next visible operation.
    pub(crate) fn sched_point(&self) {
        let shared = &*self.shared;
        let mut g = lock_state(shared);
        if teardown(&g) {
            return;
        }
        if g.abort {
            drop(g);
            std::panic::panic_any(Abort);
        }
        match pick_next(&mut g, self.tid) {
            Some(next) if next == self.tid => {}
            Some(_) => {
                shared.cv.notify_all();
                let g = wait_turn(shared, g, self.tid);
                drop(g);
            }
            None => {
                shared.cv.notify_all();
                if teardown(&g) {
                    return;
                }
                drop(g);
                std::panic::panic_any(Abort);
            }
        }
    }

    /// Sets the caller's status, hands the baton to another thread, and
    /// parks until the caller is runnable *and* scheduled again.
    fn block_on<'a>(
        &'a self,
        mut g: std::sync::MutexGuard<'a, SchedState>,
        status: Status,
    ) -> std::sync::MutexGuard<'a, SchedState> {
        g.threads[self.tid].status = status;
        match pick_next(&mut g, self.tid) {
            Some(_) => {
                self.shared.cv.notify_all();
                wait_turn(&self.shared, g, self.tid)
            }
            None => {
                self.shared.cv.notify_all();
                if teardown(&g) {
                    return g;
                }
                drop(g);
                std::panic::panic_any(Abort);
            }
        }
    }

    fn ensure_lock(g: &mut SchedState, id: u64, site: Site) {
        g.locks.entry(id).or_insert(LockState {
            site,
            owner: None,
            readers: Vec::new(),
        });
    }

    fn wake_blocked_on(g: &mut SchedState, id: u64) {
        for t in g.threads.iter_mut() {
            match t.status {
                Status::BlockedMutex(b) | Status::BlockedRwRead(b) | Status::BlockedRwWrite(b)
                    if b == id =>
                {
                    t.status = Status::Runnable;
                }
                _ => {}
            }
        }
    }

    /// Modeled `Mutex::lock`. `reacquire` skips the leading schedule point
    /// (used when a condvar wait re-takes the mutex: being scheduled after
    /// the wakeup *was* the decision).
    pub(crate) fn mutex_lock(&self, id: u64, site: Site, reacquire: bool) {
        if !reacquire {
            self.sched_point();
        }
        let mut g = lock_state(&self.shared);
        loop {
            if teardown(&g) {
                return;
            }
            Self::ensure_lock(&mut g, id, site);
            let l = g.locks.get_mut(&id).expect("just ensured");
            if l.owner.is_none() {
                l.owner = Some(self.tid);
                return;
            }
            g = self.block_on(g, Status::BlockedMutex(id));
        }
    }

    pub(crate) fn mutex_unlock(&self, id: u64, during_panic: bool) {
        if !during_panic {
            self.sched_point();
        }
        let mut g = lock_state(&self.shared);
        if let Some(l) = g.locks.get_mut(&id) {
            l.owner = None;
        }
        Self::wake_blocked_on(&mut g, id);
        self.shared.cv.notify_all();
    }

    pub(crate) fn rw_lock(&self, id: u64, site: Site, write: bool) {
        self.sched_point();
        let mut g = lock_state(&self.shared);
        loop {
            if teardown(&g) {
                return;
            }
            Self::ensure_lock(&mut g, id, site);
            let l = g.locks.get_mut(&id).expect("just ensured");
            if write {
                if l.owner.is_none() && l.readers.is_empty() {
                    l.owner = Some(self.tid);
                    return;
                }
            } else if l.owner.is_none() {
                l.readers.push(self.tid);
                return;
            }
            let st = if write {
                Status::BlockedRwWrite(id)
            } else {
                Status::BlockedRwRead(id)
            };
            g = self.block_on(g, st);
        }
    }

    pub(crate) fn rw_unlock(&self, id: u64, write: bool, during_panic: bool) {
        if !during_panic {
            self.sched_point();
        }
        let mut g = lock_state(&self.shared);
        if let Some(l) = g.locks.get_mut(&id) {
            if write {
                l.owner = None;
            } else if let Some(p) = l.readers.iter().position(|&t| t == self.tid) {
                l.readers.swap_remove(p);
            }
        }
        Self::wake_blocked_on(&mut g, id);
        self.shared.cv.notify_all();
    }

    /// Modeled `Condvar::wait`: atomically releases the mutex and parks on
    /// the condvar; on wakeup, re-acquires the mutex before returning.
    pub(crate) fn cond_wait(&self, cond_id: u64, mutex_id: u64, mutex_site: Site) {
        self.sched_point();
        let mut g = lock_state(&self.shared);
        if let Some(l) = g.locks.get_mut(&mutex_id) {
            l.owner = None;
        }
        Self::wake_blocked_on(&mut g, mutex_id);
        let g = self.block_on(g, Status::BlockedCond(cond_id));
        drop(g);
        self.mutex_lock(mutex_id, mutex_site, true);
    }

    /// Modeled notify. Wakes all condvar waiters (`all`) or the lowest-tid
    /// waiter (`!all` — deterministic stand-in for `notify_one`); woken
    /// threads still contend for the mutex like real condvar waiters.
    pub(crate) fn cond_notify(&self, cond_id: u64, all: bool) {
        self.sched_point();
        let mut g = lock_state(&self.shared);
        let mut woke_one = false;
        for t in g.threads.iter_mut() {
            if t.status == Status::BlockedCond(cond_id) {
                if !all && woke_one {
                    break;
                }
                t.status = Status::Runnable;
                woke_one = true;
            }
        }
        self.shared.cv.notify_all();
    }

    /// Registers and launches a new model thread running `f`. The returned
    /// slot receives the closure's result (or panic payload) before the
    /// thread reports itself finished.
    pub(crate) fn spawn<T, F>(
        &self,
        name: String,
        f: F,
    ) -> (Tid, Arc<StdMutex<Option<std::thread::Result<T>>>>)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.sched_point();
        let slot: Arc<StdMutex<Option<std::thread::Result<T>>>> = Arc::new(StdMutex::new(None));
        let mut g = lock_state(&self.shared);
        let tid = g.threads.len();
        g.threads.push(ThreadInfo {
            status: Status::Runnable,
            name: name.clone(),
        });
        g.live += 1;
        let shared = Arc::clone(&self.shared);
        let slot2 = Arc::clone(&slot);
        let handle = std::thread::Builder::new()
            .name(format!("sched-{name}"))
            .spawn(move || run_model_thread(shared, tid, slot2, f))
            .expect("spawning a model thread");
        g.os_handles.push(handle);
        (tid, slot)
    }

    /// Modeled `JoinHandle::join`: parks until the target thread finishes.
    pub(crate) fn join(&self, target: Tid) {
        self.sched_point();
        let g = lock_state(&self.shared);
        if g.threads[target].status == Status::Finished || teardown(&g) {
            return;
        }
        let g = self.block_on(g, Status::BlockedJoin(target));
        drop(g);
    }
}

/// Body of every model OS thread: park for the first turn, run the closure
/// under `catch_unwind`, deposit the result, then hand the baton onwards.
fn run_model_thread<T, F>(
    shared: Arc<Shared>,
    tid: Tid,
    slot: Arc<StdMutex<Option<std::thread::Result<T>>>>,
    f: F,
) where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            shared: Arc::clone(&shared),
            tid,
        });
    });
    let result = catch_unwind(AssertUnwindSafe(|| {
        let g = lock_state(&shared);
        let g = wait_turn(&shared, g, tid);
        drop(g);
        f()
    }));
    CTX.with(|c| *c.borrow_mut() = None);
    let mut g = lock_state(&shared);
    g.threads[tid].status = Status::Finished;
    g.live -= 1;
    // Wake joiners.
    for t in g.threads.iter_mut() {
        if t.status == Status::BlockedJoin(tid) {
            t.status = Status::Runnable;
        }
    }
    match result {
        Ok(v) => {
            *slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Ok(v));
        }
        Err(payload) => {
            if payload.downcast_ref::<Abort>().is_none() {
                let msg = payload_message(payload.as_ref());
                let name = g.threads[tid].name.clone();
                g.fail(format!("thread t{tid} `{name}` panicked: {msg}"));
                *slot
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Err(payload));
            }
        }
    }
    if !g.abort && g.live > 0 {
        // Hand the baton onwards; a dead end here is a deadlock.
        let _ = pick_next(&mut g, tid);
    } else if g.live == 0 {
        g.active = None;
    }
    shared.cv.notify_all();
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// An explicit schedule point (free outside a model run).
#[inline]
pub fn point(_label: &str) {
    if let Some(ctx) = current() {
        ctx.sched_point();
    }
}

/// Result of one full exploration, returned by [`explore`] on success.
#[derive(Debug, Clone)]
pub struct Report {
    /// Harness name, as passed to [`explore`].
    pub name: String,
    /// Total executions across all deepening passes (and random fallback).
    pub schedules: u64,
    /// Executions in the final (deepest) exhaustive pass, when it completed.
    pub final_pass: Option<u64>,
    /// Whether the schedule space was exhausted under the preemption bound.
    pub exhaustive: bool,
    /// Search mode the exploration ended in.
    pub mode: SearchMode,
    /// The preemption bound in force.
    pub bound: usize,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[enviro-schedule] `{}`: {} schedules (bound {}, {})",
            self.name,
            self.schedules,
            self.bound,
            if self.exhaustive {
                "exhaustive"
            } else {
                "random fallback"
            }
        )
    }
}

/// Configuration for a schedule exploration. [`Explorer::from_env`] reads
/// the `SCHED_*` knobs; tests can set fields directly.
#[derive(Debug, Clone)]
pub struct Explorer {
    /// Maximum preemptions per schedule (iteratively deepened 0..=bound).
    pub bound: usize,
    /// Exhaustive-execution cap before switching to random sampling.
    pub max_schedules: u64,
    /// Number of random schedules sampled after the cap.
    pub random_runs: u64,
    /// Seed for random sampling (and its replay line).
    pub seed: u64,
    /// Per-schedule decision cap (catches livelock under the model).
    pub max_steps: u64,
    /// Forced decision path; runs exactly one schedule when set.
    pub replay: Option<Vec<usize>>,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            bound: 2,
            max_schedules: 20_000,
            random_runs: 256,
            seed: 1,
            max_steps: 20_000,
            replay: None,
        }
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => parse_u64(&v).unwrap_or_else(|| panic!("{name}={v:?} is not a number")),
        Err(_) => default,
    }
}

fn parse_u64(v: &str) -> Option<u64> {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

struct ExecOutcome {
    path: Vec<Choice>,
    failure: Option<String>,
}

impl Explorer {
    /// Reads `SCHED_BOUND`, `SCHED_MAX`, `SCHED_RANDOM`, `SCHED_SEED`,
    /// `SCHED_STEPS`, and `SCHED_REPLAY` from the environment.
    pub fn from_env() -> Self {
        let d = Explorer::default();
        Explorer {
            bound: env_u64("SCHED_BOUND", d.bound as u64) as usize,
            max_schedules: env_u64("SCHED_MAX", d.max_schedules),
            random_runs: env_u64("SCHED_RANDOM", d.random_runs),
            seed: env_u64("SCHED_SEED", d.seed),
            max_steps: env_u64("SCHED_STEPS", d.max_steps),
            replay: std::env::var("SCHED_REPLAY").ok().map(|s| {
                s.split('.')
                    .filter(|p| !p.is_empty())
                    .map(|p| {
                        p.parse().unwrap_or_else(|_| {
                            panic!("SCHED_REPLAY component {p:?} is not a number")
                        })
                    })
                    .collect()
            }),
        }
    }

    /// Explores `f` under every schedule within the preemption bound (or a
    /// random sample past the cap). Panics — with a `SCHED_REPLAY` line —
    /// on the first failing schedule; returns a [`Report`] otherwise.
    pub fn run<F>(&self, name: &str, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        assert!(
            current().is_none(),
            "explore() must not be called from inside a model thread"
        );
        let f = Arc::new(f);
        if let Some(path) = &self.replay {
            let out = self.run_once(&f, path, SearchMode::Replay, self.bound, self.seed);
            if let Some(cause) = out.failure {
                self.report_failure(name, &out.path, 1, SearchMode::Replay, cause);
            }
            return Report {
                name: name.to_string(),
                schedules: 1,
                final_pass: Some(1),
                exhaustive: false,
                mode: SearchMode::Replay,
                bound: self.bound,
            };
        }

        let mut total: u64 = 0;
        let mut final_pass: Option<u64> = None;
        // Iterative deepening over the preemption budget: failures surface
        // with the fewest preemptions that can trigger them.
        for bound in 0..=self.bound {
            let mut pass: u64 = 0;
            let mut prefix: Vec<usize> = Vec::new();
            loop {
                let out = self.run_once(&f, &prefix, SearchMode::Exhaustive, bound, self.seed);
                total += 1;
                pass += 1;
                if let Some(cause) = out.failure {
                    self.report_failure(name, &out.path, total, SearchMode::Exhaustive, cause);
                }
                if total >= self.max_schedules {
                    return self.random_fallback(name, &f, total);
                }
                match next_prefix(&out.path, bound) {
                    Some(p) => prefix = p,
                    None => break,
                }
            }
            final_pass = Some(pass);
        }
        Report {
            name: name.to_string(),
            schedules: total,
            final_pass,
            exhaustive: true,
            mode: SearchMode::Exhaustive,
            bound: self.bound,
        }
    }

    fn random_fallback<F>(&self, name: &str, f: &Arc<F>, mut total: u64) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        for k in 0..self.random_runs {
            let seed = self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(k)
                | 1;
            let out = self.run_once(f, &[], SearchMode::Random, self.bound, seed);
            total += 1;
            if let Some(cause) = out.failure {
                let cause = format!("{cause}\n  (random schedule, SCHED_SEED=0x{:x})", self.seed);
                self.report_failure(name, &out.path, total, SearchMode::Random, cause);
            }
        }
        Report {
            name: name.to_string(),
            schedules: total,
            final_pass: None,
            exhaustive: false,
            mode: SearchMode::Random,
            bound: self.bound,
        }
    }

    fn run_once<F>(
        &self,
        f: &Arc<F>,
        prefix: &[usize],
        mode: SearchMode,
        bound: usize,
        seed: u64,
    ) -> ExecOutcome
    where
        F: Fn() + Send + Sync + 'static,
    {
        let shared = Arc::new(Shared {
            state: StdMutex::new(SchedState {
                threads: vec![ThreadInfo {
                    status: Status::Runnable,
                    name: "main".to_string(),
                }],
                live: 1,
                active: Some(0),
                locks: HashMap::new(),
                prefix: prefix.to_vec(),
                pos: 0,
                path: Vec::new(),
                preemptions: 0,
                bound,
                mode,
                rng: seed | 1,
                steps: 0,
                max_steps: self.max_steps,
                failure: None,
                abort: false,
                os_handles: Vec::new(),
            }),
            cv: StdCondvar::new(),
        });
        let slot: Arc<StdMutex<Option<std::thread::Result<()>>>> = Arc::new(StdMutex::new(None));
        let root = {
            let shared = Arc::clone(&shared);
            let slot = Arc::clone(&slot);
            let f = Arc::clone(f);
            std::thread::Builder::new()
                .name("sched-main".to_string())
                .spawn(move || run_model_thread(shared, 0, slot, move || f()))
                .expect("spawning the model root thread")
        };
        // Wait for the execution to finish: every thread reports Finished
        // even on abort (parked threads unwind via the Abort payload).
        {
            let mut g = lock_state(&shared);
            while g.live > 0 {
                g = shared
                    .cv
                    .wait(g)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        let _ = root.join();
        let (path, failure) = {
            let mut g = lock_state(&shared);
            let handles = std::mem::take(&mut g.os_handles);
            let path = std::mem::take(&mut g.path);
            let failure = g.failure.take();
            drop(g);
            for h in handles {
                let _ = h.join();
            }
            (path, failure)
        };
        ExecOutcome { path, failure }
    }

    fn report_failure(
        &self,
        name: &str,
        path: &[Choice],
        schedules: u64,
        mode: SearchMode,
        cause: String,
    ) -> ! {
        let replay: Vec<String> = path.iter().map(|c| c.chosen.to_string()).collect();
        panic!(
            "\n[enviro-schedule] FAILED harness `{name}` on schedule #{schedules} \
             (bound {}, mode {mode:?})\n  replay with SCHED_REPLAY={}\n  cause: {cause}\n",
            self.bound,
            replay.join(".")
        );
    }
}

/// Stateless-DFS backtracking: finds the deepest decision with an untried
/// alternative affordable under the preemption bound and returns the forced
/// prefix that explores it next.
fn next_prefix(path: &[Choice], bound: usize) -> Option<Vec<usize>> {
    for d in (0..path.len()).rev() {
        let c = &path[d];
        for i in c.chosen + 1..c.enabled.len() {
            let cost = usize::from(c.active_enabled && c.enabled[i] != c.active_before);
            if c.preempt_base + cost <= bound {
                let mut p: Vec<usize> = path[..d].iter().map(|x| x.chosen).collect();
                p.push(i);
                return Some(p);
            }
        }
    }
    None
}

/// Explores `f` under [`Explorer::from_env`] settings. See the crate docs
/// for the `SCHED_*` knobs; panics with a replay line on the first failing
/// schedule.
pub fn explore<F>(name: &str, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    Explorer::from_env().run(name, f)
}
