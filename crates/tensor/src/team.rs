//! A parked worker team: the threads a split pass runs its lanes on.
//!
//! Spawning and joining a thread per pass costs ~30 µs, about a tenth of
//! one hop over a 32 768-row memory, and a multi-hop question paid it once
//! per hop. A [`Team`] instead keeps its workers between passes: a worker
//! that finishes its lane spins for [`SPIN`], which covers the serial gaps
//! between the hops of one question and between its forward pass and its
//! output stage, and then parks on a condition variable until the next
//! split wakes it. Waking a spinning worker costs about a microsecond, a
//! parked one about ten.
//!
//! A team starts no thread until [`Team::split`] is first handed two or
//! more items, and then only as many as that split needs; a one-item split
//! runs inline and touches no shared state. The caller always runs the
//! first item itself. Dropping the team joins its workers; a cloned team
//! starts with none.
//!
//! A panic in a worker's item is caught, so the worker serves the next
//! split, and is resumed on the caller once every item has finished —
//! the same contract as [`std::thread::scope`]. Callers that must not
//! unwind contain their items themselves.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long an idle worker, or a caller waiting for its workers, spins
/// before it parks. Long enough to bridge the serial work between the
/// splits of one question (the `u ← u + o` update between hops, the
/// division and bookkeeping before the output stage: single-digit µs), short
/// enough that a session between questions holds its cores for no more
/// than this: a longer budget costs CPU on every question and buys
/// nothing once the gaps are bridged. Fixed, not a setting.
pub const SPIN: Duration = Duration::from_micros(50);

/// A published item runner, its borrow erased (see [`Team::run`]).
type Job = &'static (dyn Fn() + Sync);

/// Worker threads that persist across splits (see the module docs).
#[derive(Default)]
pub struct Team {
    /// `None` until the first worker starts.
    shared: Option<Arc<Shared>>,
    workers: Vec<JoinHandle<()>>,
}

/// The state a team shares with its workers.
#[derive(Default)]
struct Shared {
    /// The last published generation; idle workers spin on it.
    gen: AtomicU64,
    /// Workers of the current generation still running their item.
    pending: AtomicUsize,
    /// Whether the caller parked waiting for `pending` to reach zero.
    caller_parked: AtomicBool,
    slot: Mutex<Slot>,
    /// Parked workers wait here for a new generation.
    wake: Condvar,
    /// A parked caller waits here for its workers.
    done: Condvar,
}

/// What a generation publishes, under [`Shared::slot`].
#[derive(Default)]
struct Slot {
    gen: u64,
    /// The runner of the current generation; `None` between splits.
    job: Option<Job>,
    /// Workers `1..=helpers` run `job` once each.
    helpers: usize,
    quit: bool,
    sleepers: usize,
    /// The first panic a worker caught this generation.
    panic: Option<Box<dyn Any + Send>>,
}

thread_local! {
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a [`Team`] worker (allocation audits use
/// it to count worker threads).
pub fn on_worker() -> bool {
    ON_WORKER.try_with(Cell::get).unwrap_or(false)
}

/// Locks the slot. Every update to it is a single field store, so a
/// poisoned lock still guards consistent data.
fn lock(slot: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Team {
    /// A team with no workers; none start until a split needs them.
    pub fn new() -> Self {
        Team::default()
    }

    /// Threads a split can use without starting one: the caller plus the
    /// workers started so far.
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `work` once per item of `items` and returns when every run has
    /// finished: the first item on the calling thread, each other one on a
    /// worker (started on first need). Which worker takes which item is
    /// not fixed. One item runs inline with nothing shared.
    ///
    /// # Panics
    ///
    /// Resumes the first panic of any run, after all runs have finished.
    pub fn split<I>(&mut self, mut items: I, work: impl Fn(I::Item) + Sync)
    where
        I: ExactSizeIterator + Send,
    {
        let helpers = items.len().saturating_sub(1);
        let Some(first) = items.next() else {
            return;
        };
        if helpers == 0 {
            return work(first);
        }
        let queue = Mutex::new(items);
        let next = || {
            let item = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            if let Some(item) = item {
                work(item);
            }
        };
        self.run(helpers, &next, || work(first));
    }

    /// Runs `own` here and `job` once on each of `helpers` workers, then
    /// waits for them; runs `job` here for any worker that could not be
    /// started.
    fn run(&mut self, helpers: usize, job: &(dyn Fn() + Sync), own: impl FnOnce()) {
        let hired = self.hire(helpers).min(helpers);
        let mut join = None;
        if let Some(shared) = self.shared.as_deref().filter(|_| hired > 0) {
            // SAFETY: only the borrow's lifetime is erased, so parked
            // workers can hold the reference. Workers `1..=hired` call it
            // once each for this generation and decrement `pending` after
            // the call returns (a panic is caught first). Others never read
            // it. `Join` waits for `pending` to reach zero and clears the
            // slot before `run` returns, and on unwind out of `own` too, so
            // every call ends, and the reference is gone, while `job` is
            // still borrowed. No generation is published while one is
            // pending (`run` takes `&mut self`), which the worker's
            // debug-build generation check enforces.
            let job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
            let mut slot = lock(&shared.slot);
            slot.gen += 1;
            slot.job = Some(job);
            slot.helpers = hired;
            shared.pending.store(hired, SeqCst);
            shared.gen.store(slot.gen, SeqCst);
            if slot.sleepers > 0 {
                shared.wake.notify_all();
            }
            drop(slot);
            join = Some(Join(shared));
        }
        own();
        for _ in hired..helpers {
            job();
        }
        if let Some(payload) = join.and_then(|j| j.wait()) {
            panic::resume_unwind(payload);
        }
    }

    /// Starts workers until there are `n`, returning how many there are
    /// (fewer only if the system refused a thread).
    fn hire(&mut self, n: usize) -> usize {
        while self.workers.len() < n {
            let shared = Arc::clone(self.shared.get_or_insert_with(Default::default));
            let index = self.workers.len() + 1;
            // No generation is pending while `&mut self` is held, so the
            // new worker starts level with the published one.
            let seen = shared.gen.load(SeqCst);
            let spawned = thread::Builder::new()
                .name(format!("mnn-team-{index}"))
                .spawn(move || serve(&shared, index, seen));
            match spawned {
                Ok(handle) => self.workers.push(handle),
                Err(_) => break,
            }
        }
        self.workers.len()
    }
}

/// Waits for a generation's workers, on return and on unwind alike.
struct Join<'a>(&'a Shared);

impl Join<'_> {
    /// Blocks until every worker of the generation has finished, clears
    /// the published job and returns the first panic a worker caught.
    fn wait(self) -> Option<Box<dyn Any + Send>> {
        let payload = self.settle();
        std::mem::forget(self);
        payload
    }

    fn settle(&self) -> Option<Box<dyn Any + Send>> {
        let shared = self.0;
        let start = Instant::now();
        while shared.pending.load(SeqCst) != 0 && start.elapsed() < SPIN {
            std::hint::spin_loop();
        }
        let mut slot = lock(&shared.slot);
        if shared.pending.load(SeqCst) != 0 {
            shared.caller_parked.store(true, SeqCst);
            while shared.pending.load(SeqCst) != 0 {
                slot = shared
                    .done
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            shared.caller_parked.store(false, SeqCst);
        }
        debug_assert_eq!(
            shared.gen.load(SeqCst),
            slot.gen,
            "generation moved mid-split"
        );
        slot.job = None;
        slot.panic.take()
    }
}

impl Drop for Join<'_> {
    fn drop(&mut self) {
        // Unwinding out of the caller's own item: its payload wins.
        drop(self.settle());
    }
}

/// A worker's loop: wait for a generation past `seen`, run its item if it
/// is one of the generation's helpers, report done, repeat until told to
/// quit.
fn serve(shared: &Shared, index: usize, mut seen: u64) {
    ON_WORKER.with(|w| w.set(true));
    loop {
        let start = Instant::now();
        while shared.gen.load(SeqCst) == seen && start.elapsed() < SPIN {
            std::hint::spin_loop();
        }
        let mut slot = lock(&shared.slot);
        while slot.gen == seen {
            slot.sleepers += 1;
            slot = shared
                .wake
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
            slot.sleepers -= 1;
        }
        if slot.quit {
            return;
        }
        seen = slot.gen;
        let job = if index <= slot.helpers {
            slot.job
        } else {
            None
        };
        drop(slot);
        let Some(job) = job else {
            continue;
        };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job)) {
            lock(&shared.slot).panic.get_or_insert(payload);
        }
        debug_assert_eq!(
            shared.gen.load(SeqCst),
            seen,
            "a split returned before its workers"
        );
        // Pairs with the caller's store of `caller_parked` and re-load of
        // `pending` (all SeqCst): either this load sees the caller parked,
        // or the caller's re-load sees zero and it never waits.
        if shared.pending.fetch_sub(1, SeqCst) == 1 && shared.caller_parked.load(SeqCst) {
            let _slot = lock(&shared.slot);
            shared.done.notify_one();
        }
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        let Some(shared) = &self.shared else {
            return;
        };
        {
            let mut slot = lock(&shared.slot);
            slot.quit = true;
            slot.gen += 1;
            shared.gen.store(slot.gen, SeqCst);
            shared.wake.notify_all();
        }
        for worker in self.workers.drain(..) {
            // Items are caught inside the worker, so a join error would be
            // a bug in this module; nothing is left to clean up either way.
            let _ = worker.join();
        }
    }
}

impl Clone for Team {
    /// A new team, not yet started: workers are never shared.
    fn clone(&self) -> Self {
        Team::new()
    }
}

impl fmt::Debug for Team {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Team")
            .field("workers", &self.workers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn one_item_runs_inline_and_starts_nothing() {
        let mut team = Team::new();
        let here = thread::current().id();
        team.split(std::iter::once(()), |()| {
            assert_eq!(thread::current().id(), here)
        });
        assert_eq!(team.threads(), 1);
        team.split(std::iter::empty::<()>(), |()| unreachable!());
        assert_eq!(team.threads(), 1);
    }

    #[test]
    fn every_item_runs_once_and_workers_are_reused() {
        let mut team = Team::new();
        let mut slots = vec![0usize; 4];
        for round in 1..=50 {
            // Parked or spinning: both wake-ups get exercised.
            if round % 10 == 0 {
                thread::sleep(SPIN * 4);
            }
            team.split(slots.iter_mut().enumerate(), |(i, s)| *s += i + 1);
            assert_eq!(team.threads(), 4);
        }
        assert_eq!(slots, [50, 100, 150, 200]);
    }

    #[test]
    fn the_first_item_runs_on_the_caller() {
        let mut team = Team::new();
        let here = thread::current().id();
        let on_caller = AtomicUsize::new(0);
        team.split(0..3, |i| {
            if i == 0 {
                assert_eq!(thread::current().id(), here);
                assert!(!on_worker());
            }
            if thread::current().id() == here {
                on_caller.fetch_add(1, SeqCst);
            }
        });
        assert_eq!(on_caller.load(SeqCst), 1);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_and_the_team_survives() {
        let mut team = Team::new();
        let hook = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            team.split(0..2, |i| assert!(i == 0, "item {i}"));
        }));
        panic::set_hook(hook);
        assert!(caught.is_err());
        let ran = AtomicUsize::new(0);
        team.split(0..2, |_| {
            ran.fetch_add(1, SeqCst);
        });
        assert_eq!(ran.load(SeqCst), 2);
    }

    #[test]
    fn a_clone_starts_empty() {
        let mut team = Team::new();
        team.split(0..3, |_| {});
        assert_eq!(team.threads(), 3);
        assert_eq!(team.clone().threads(), 1);
    }
}
