//! Single-threaded, deterministic async executor over a virtual clock.
//!
//! The executor owns a slab of tasks, a FIFO ready queue, and a hierarchical
//! timer wheel ([`crate::wheel`]) keyed by `(deadline, sequence)`. The run
//! loop drains the ready queue completely, then advances the clock to the
//! earliest timer, wakes it, and repeats. Ties between timers fire in
//! registration order, so a given program is fully deterministic.
//!
//! The hot path is allocation-free in steady state, spawning included: each
//! task slot caches its `Waker` (created once per slot, reused across polls
//! and recycled spawns), the ready queue is a reused `VecDeque`, timer
//! entries live in the wheel's node arena, recycled through an intrusive
//! free list, and a finished task's storage goes to the next task of its
//! kind.
//!
//! A task's future lives in a heap cell, `Pin<Box<Option<F>>>`. When the
//! task finishes, the future is dropped there and then and the empty cell is
//! parked in a per-`Sim` registry keyed by `TypeId::of::<F>()`; the next
//! spawn of the same future type refills a parked cell in place instead of
//! calling the allocator, so a respawn of a finished kind allocates nothing.
//! Parked cells live until the `Sim` drops, bounded by each kind's peak
//! concurrency. A cell is not a slot: task ids are handed out as if every
//! spawn were boxed, so nothing scheduled depends on what is parked. Every
//! spawn is pooled, joined or detached — measured, not taste: a variant that
//! recycled only `spawn_detached` and freed joined tasks' boxes at
//! completion tipped `coopcache_farm` `peak_rss_mb` from 18.1 to 31.6 MiB
//! (heap layout around each cache node's 2 MiB zeroed region; reproducible
//! 2/2), while pooling both reads 18.1–18.2. (Rebuilt: 30.4 and 30.5 MiB
//! against 18.3 and 18.4. All four readings were taken while a registered
//! region was one flat allocation, before regions became 4 KiB pages.)
//!
//! A cell holds the task's future once. A joined task runs its future inside
//! `Joined` (`join.rs`), which polls it in place and drops it the moment
//! it is ready, then stores the output and wakes the joiner; the `async
//! move` block it replaced captured the future and then awaited it, and so
//! held it twice (a 1,744 B cell for an 864 B client future).
//! [`SimHandle::spawn_then`] is the same wrapper with a caller's completion,
//! and a spawn whose handle is discarded is a [`SimHandle::spawn_detached`],
//! whose cell is the future alone.
//!
//! [`SimHandle::join_all`]'s child arrays are kept the same way, in a second
//! per-`Sim` store keyed by the array's element type: a finished join hands
//! its emptied array back and the next join of that type refills it, so the
//! store holds at most as many arrays per type as joins of that type were
//! ever alive at once.
//!
//! Tasks are `!Send` futures (`Rc`-based state sharing is the norm in this
//! workspace); their wakers are std's, one `Arc<TaskWaker>` per slot through
//! [`std::task::Wake`], naming the task and its `Sim` by id. A wake looks the
//! ready queue up in a thread-local table of live `Sim`s, so a waker that
//! outlives its `Sim` or leaves its thread wakes nothing. Clones and drops
//! count atomically, so a poll lends the slot's waker out instead of cloning
//! it, and a timer that a task sets from its own poll names the task by id.

use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use crate::join::Joined;
use crate::time::SimTime;
use crate::wheel::TimerWheel;

/// Identifier of a spawned task within one [`Sim`].
pub type TaskId = usize;

/// A task's heap cell, `Option<F>` seen without its type: `Some` while the
/// task lives, `None` once it has finished and the cell is parked.
trait TaskCell {
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()>;

    /// Drop the finished future in place, leaving the cell empty.
    fn clear(self: Pin<&mut Self>);

    /// Move the future out of `fut` — an `Option<F>` of this cell's own `F`,
    /// holding one — into this empty cell.
    fn refill(self: Pin<&mut Self>, fut: &mut dyn Any);

    /// Size of the future, whether or not one is held: what `Box::pin(fut)`
    /// would have allocated.
    fn future_bytes(&self) -> usize;
}

impl<F: Future<Output = ()> + 'static> TaskCell for Option<F> {
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.as_pin_mut().expect("empty task cell polled").poll(cx)
    }

    fn clear(mut self: Pin<&mut Self>) {
        self.set(None);
    }

    fn refill(mut self: Pin<&mut Self>, fut: &mut dyn Any) {
        debug_assert!(self.is_none(), "live task cell refilled");
        let fut = fut.downcast_mut::<Option<F>>();
        self.set(fut.expect("cell parked under another type's id").take());
    }

    fn future_bytes(&self) -> usize {
        std::mem::size_of::<F>()
    }
}

type BoxCell = Pin<Box<dyn TaskCell>>;

/// The parked cells of one future type. Most kinds never have two tasks
/// finished at once, so the first parked cell needs no list.
struct Kind {
    id: TypeId,
    first: Option<BoxCell>,
    more: Vec<BoxCell>,
}

/// FIFO wake queue shared between the executor and all task wakers.
type ReadyQueue = RefCell<VecDeque<TaskId>>;

thread_local! {
    /// The ready queue of every live [`Sim`] on this thread, by sim id: how a
    /// task waker, which holds no pointer into its `Sim`, finds its queue.
    static QUEUES: RefCell<Vec<(u64, Rc<ReadyQueue>)>> = const { RefCell::new(Vec::new()) };
}

/// Sim ids, process-wide: a waker off its `Sim`'s thread, or kept past its
/// `Sim`'s drop, finds no queue under its id.
static NEXT_SIM: AtomicU64 = AtomicU64::new(0);

/// A task's waker: its task and its `Sim`, by id. A wake pushes the task
/// onto its `Sim`'s ready queue if that `Sim` lives on the calling thread and
/// does nothing otherwise, as a wake of a finished task does nothing.
struct TaskWaker {
    id: TaskId,
    sim: u64,
    /// The thread the waker was built on, its `Sim`'s (see [`this_thread`]).
    #[cfg(debug_assertions)]
    home: usize,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        // Such a wake would be lost: a bug in the caller, loud in debug.
        #[cfg(debug_assertions)]
        assert!(
            this_thread() == self.home,
            "task waker used off its Sim's thread"
        );
        // No queue during thread teardown either: nothing runs any more.
        let _ = QUEUES.try_with(|queues| {
            let queues = queues.borrow();
            if let Some((_, ready)) = queues.iter().find(|(sim, _)| *sim == self.sim) {
                ready.borrow_mut().push_back(self.id);
            }
        });
    }
}

/// Names the calling thread: the address of a thread-local, distinct for
/// every live thread, and read without allocating (as a `ThreadId` would on
/// a thread whose handle was never built).
#[cfg(debug_assertions)]
fn this_thread() -> usize {
    thread_local! {
        static HOME: u8 = const { 0 };
    }
    HOME.with(|h| h as *const u8 as usize)
}

/// One slab slot: the task's cell (taken out while polling, gone to the
/// registry once the task finishes), where in the registry that is, and the
/// slot's cached waker, created once when the slot is first used and reused
/// across every poll and every recycled spawn of the same slot.
struct TaskSlot {
    cell: Option<BoxCell>,
    kind: usize,
    /// `None` only while the task is polled: lent to [`SimState::polling`].
    waker: Option<Waker>,
}

/// What a timer wakes when it fires. A task that sleeps from its own poll is
/// named by id, which costs no waker clone and no atomic count.
enum Alarm {
    Task(TaskId),
    Waker(Waker),
}

struct SimState {
    now: Cell<SimTime>,
    timers: RefCell<TimerWheel<Alarm>>,
    /// The task being polled and its waker, lent out of its slot; borrowed
    /// for the whole poll.
    polling: RefCell<Option<(TaskId, Waker)>>,
    tasks: RefCell<Vec<TaskSlot>>,
    free: RefCell<Vec<TaskId>>,
    /// Empty cells of finished tasks by future type; an entry, once made,
    /// keeps its index (`TaskSlot::kind`).
    kinds: RefCell<Vec<Kind>>,
    /// Emptied join arrays by element type `T`; each value is the
    /// `Vec<Vec<T>>` of that type's arrays.
    joins: RefCell<Vec<(TypeId, Box<dyn Any>)>>,
    /// This `Sim`'s id in [`QUEUES`], which holds `ready` too while it lives.
    id: u64,
    ready: Rc<ReadyQueue>,
    seq: Cell<u64>,
    /// Number of tasks spawned and not yet completed.
    live: Cell<usize>,
    /// Total polls performed; a debugging/fuel counter.
    polls: Cell<u64>,
    /// Ready-queue wake events consumed by the run loop (includes spurious
    /// wakes of already-completed tasks).
    events: Cell<u64>,
    /// Timer entries popped and fired by the run loop.
    timers_fired: Cell<u64>,
}

impl SimState {
    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    /// Where future type `id` parks its cells (an entry is made on first
    /// sight), and one of them if any is parked.
    fn take_parked(&self, id: TypeId) -> (usize, Option<BoxCell>) {
        let mut kinds = self.kinds.borrow_mut();
        let kind = kinds.iter().position(|k| k.id == id).unwrap_or_else(|| {
            kinds.push(Kind {
                id,
                first: None,
                more: Vec::new(),
            });
            kinds.len() - 1
        });
        let k = &mut kinds[kind];
        (kind, k.more.pop().or_else(|| k.first.take()))
    }

    fn counters(&self) -> SimCounters {
        SimCounters {
            polls: self.polls.get(),
            events: self.events.get(),
            timers_fired: self.timers_fired.get(),
            barrier_waits: 0,
        }
    }
}

impl Drop for SimState {
    fn drop(&mut self) {
        // From here on this `Sim`'s wakers wake nothing, dropped tasks' too.
        let _ = QUEUES.try_with(|queues| queues.borrow_mut().retain(|(sim, _)| *sim != self.id));
        // Fold this executor's counters into the per-thread running totals so
        // harnesses can meter scenarios that construct their `Sim` internally.
        THREAD_TOTALS.with(|t| {
            let mut c = t.get();
            c.polls += self.polls.get();
            c.events += self.events.get();
            c.timers_fired += self.timers_fired.get();
            t.set(c);
        });
    }
}

/// Cumulative scheduler counters for one [`Sim`], or — via [`thread_totals`] —
/// for all executors retired on the current thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Task polls performed.
    pub polls: u64,
    /// Ready-queue wake events consumed by the run loop.
    pub events: u64,
    /// Timer entries popped and fired.
    pub timers_fired: u64,
    /// Epoch-barrier crossings performed by the sharded driver
    /// ([`crate::shard`]); always 0 for a single `Sim` and for 1-shard
    /// runs.
    pub barrier_waits: u64,
}

thread_local! {
    static THREAD_TOTALS: Cell<SimCounters> = const {
        Cell::new(SimCounters {
            polls: 0,
            events: 0,
            timers_fired: 0,
            barrier_waits: 0,
        })
    };
}

/// Counters accumulated by every [`Sim`] *dropped* on this thread so far.
/// Live executors are not included; drop (or finish with) the `Sim` before
/// reading a delta around a workload.
pub fn thread_totals() -> SimCounters {
    THREAD_TOTALS.with(|t| t.get())
}

/// Fold `c` into this thread's [`thread_totals`]. The sharded driver uses
/// this to credit worker-shard executors (dropped on threads that no
/// longer exist) to the thread that owns the run, so whoever meters a run
/// through [`thread_totals`] (`benchmark/` does) sees the whole fleet's
/// work.
pub fn add_thread_totals(c: SimCounters) {
    THREAD_TOTALS.with(|t| {
        let mut cur = t.get();
        cur.polls += c.polls;
        cur.events += c.events;
        cur.timers_fired += c.timers_fired;
        cur.barrier_waits += c.barrier_waits;
        t.set(cur);
    });
}

/// The simulation executor. Construct one per experiment; everything that
/// happens inside it is driven by [`Sim::run`] (or one of its variants) and
/// scheduled against the virtual clock.
pub struct Sim {
    st: Rc<SimState>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an executor with the clock at zero and no tasks.
    pub fn new() -> Self {
        let id = NEXT_SIM.fetch_add(1, Ordering::Relaxed);
        let ready = Rc::new(ReadyQueue::default());
        QUEUES.with(|queues| queues.borrow_mut().push((id, Rc::clone(&ready))));
        Sim {
            st: Rc::new(SimState {
                now: Cell::new(0),
                timers: RefCell::new(TimerWheel::new()),
                polling: RefCell::new(None),
                tasks: RefCell::new(Vec::new()),
                free: RefCell::new(Vec::new()),
                kinds: RefCell::new(Vec::new()),
                joins: RefCell::new(Vec::new()),
                id,
                ready,
                seq: Cell::new(0),
                live: Cell::new(0),
                polls: Cell::new(0),
                events: Cell::new(0),
                timers_fired: Cell::new(0),
            }),
        }
    }

    /// A cloneable, weak handle for use inside tasks (sleeping, spawning,
    /// reading the clock). Holding handles does not keep the executor alive.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            st: Rc::downgrade(&self.st),
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.st.now.get()
    }

    /// Number of spawned-but-unfinished tasks.
    pub fn live_tasks(&self) -> usize {
        self.st.live.get()
    }

    /// Total number of task polls performed so far.
    pub fn polls(&self) -> u64 {
        self.st.polls.get()
    }

    /// Total timer entries popped and fired so far.
    pub fn timers_fired(&self) -> u64 {
        self.st.timers_fired.get()
    }

    /// All scheduler counters as one snapshot.
    pub fn counters(&self) -> SimCounters {
        self.st.counters()
    }

    /// Size in bytes of every live task's future, in slot order: what each
    /// task (one per connection, per service, ...) holds while it lives.
    /// Parked cells hold no future and are not listed.
    pub fn task_bytes(&self) -> Vec<usize> {
        let tasks = self.st.tasks.borrow();
        let live = tasks.iter().filter_map(|slot| slot.cell.as_deref());
        live.map(TaskCell::future_bytes).collect()
    }

    /// Spawn a task onto the executor; see [`SimHandle::spawn`].
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        spawn_on(&self.st, fut)
    }

    /// Run until no runnable task remains and no timer is pending.
    ///
    /// Tasks that are blocked forever (e.g. awaiting a channel nobody will
    /// ever write) simply remain live; they are dropped with the `Sim`.
    pub fn run(&self) {
        self.run_inner(SimTime::MAX, || false);
    }

    /// Run until the virtual clock would pass `deadline`. The clock is left
    /// at `deadline` (if the simulation got that far) so a subsequent
    /// `run_until` continues seamlessly. Returns the time actually reached.
    pub fn run_until(&self, deadline: SimTime) -> SimTime {
        self.run_inner(deadline, || false);
        // After run_inner the ready queue is empty and every pending timer is
        // strictly beyond the deadline, so parking the clock at the deadline
        // is always safe and lets callers treat `run_until` as "advance to".
        if self.st.now.get() < deadline {
            self.st.now.set(deadline);
        }
        self.st.now.get()
    }

    /// A lower bound on the earliest pending timer deadline, without firing
    /// or disturbing it (the wheel's origin does not move). `None` when no
    /// timers are scheduled. The bound is within one wheel-slot width of the
    /// true deadline, which is all the sharded engine needs: together with
    /// its mailbox minima it yields a time provably at-or-before the next
    /// activity, letting jointly idle conservative windows fast-forward
    /// without ever skipping real work.
    pub fn next_timer_at(&self) -> Option<SimTime> {
        self.st.timers.borrow().next_at_bound()
    }

    /// Spawn `fut`, run the simulation until it completes, and return its
    /// output. Other tasks (including infinite periodic loops) keep the
    /// simulation alive only as long as needed: the run stops as soon as the
    /// root future finishes.
    ///
    /// Panics if the simulation quiesces without `fut` completing (which
    /// indicates a deadlock in the code under test).
    pub fn run_to<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> T {
        let jh = self.spawn(fut);
        self.run_inner(SimTime::MAX, || jh.is_finished());
        assert!(
            jh.is_finished(),
            "simulation quiesced before the root future completed (deadlock?)"
        );
        jh.try_take().expect("root output already taken")
    }

    /// Run until `done()`, asked before every poll, holds, or until no task
    /// is runnable and no timer is due by `deadline`.
    fn run_inner(&self, deadline: SimTime, done: impl Fn() -> bool) {
        loop {
            // Drain all runnable tasks at the current instant.
            loop {
                if done() {
                    return;
                }
                let next = self.st.ready.borrow_mut().pop_front();
                match next {
                    Some(tid) => self.poll_task(tid),
                    None => break,
                }
            }
            // Advance to the earliest timer at or before the deadline, if any.
            let fired = self.st.timers.borrow_mut().pop_next_at_or_before(deadline);
            match fired {
                Some(e) => {
                    debug_assert!(e.at >= self.st.now.get(), "timers never move backwards");
                    self.st.timers_fired.set(self.st.timers_fired.get() + 1);
                    self.st.now.set(e.at);
                    match e.value {
                        Alarm::Task(tid) => self.st.ready.borrow_mut().push_back(tid),
                        Alarm::Waker(waker) => waker.wake(),
                    }
                }
                None => break,
            }
        }
    }

    fn poll_task(&self, tid: TaskId) {
        // Every dequeue from the ready queue lands here, so this counts the
        // wake events the run loop consumed (spurious ones included).
        self.st.events.set(self.st.events.get() + 1);
        // Take the cell out of its slot while polling so that re-entrant
        // spawns and wakes never observe a borrowed slab. The slot's waker is
        // lent to `polling` rather than cloned, which would cost an atomic
        // count per poll; [`Sleep`] recognises it there.
        let (mut cell, kind) = {
            let mut tasks = self.st.tasks.borrow_mut();
            let slot = &mut tasks[tid];
            let Some(cell) = slot.cell.take() else {
                // Spurious wake of a completed (or currently-polling) task.
                return;
            };
            *self.st.polling.borrow_mut() = slot.waker.take().map(|w| (tid, w));
            (cell, slot.kind)
        };
        self.st.polls.set(self.st.polls.get() + 1);
        let poll = {
            let polling = self.st.polling.borrow();
            let (_, waker) = polling
                .as_ref()
                .expect("a live task's slot holds its waker");
            cell.as_mut().poll(&mut Context::from_waker(waker))
        };
        let mut tasks = self.st.tasks.borrow_mut();
        let slot = &mut tasks[tid];
        // The waker goes back before the slot can be freed and reused.
        slot.waker = self.st.polling.take().map(|(_, w)| w);
        if poll.is_pending() {
            slot.cell = Some(cell);
            return;
        }
        drop(tasks);
        self.st.free.borrow_mut().push(tid);
        self.st.live.set(self.st.live.get() - 1);
        // The future goes now, as when its box was freed here (its `Drop` may
        // spawn or wake); only storage is parked.
        cell.as_mut().clear();
        let mut kinds = self.st.kinds.borrow_mut();
        let kind = &mut kinds[kind];
        match kind.first {
            None => kind.first = Some(cell),
            Some(_) => kind.more.push(cell),
        }
    }
}

fn spawn_on<F>(st: &Rc<SimState>, fut: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    let join = Rc::new(RefCell::new(JoinState {
        result: None,
        waker: None,
        finished: false,
    }));
    let join2 = Rc::clone(&join);
    let done = move |out| {
        let mut j = join2.borrow_mut();
        j.result = Some(out);
        j.finished = true;
        if let Some(w) = j.waker.take() {
            w.wake();
        }
    };
    spawn_detached_on(st, Joined::new(fut, done));
    JoinHandle { join }
}

/// Enqueue a task with no join state. Scheduling is identical to
/// [`spawn_on`] — same slot reuse, same ready-queue push — so swapping a
/// discarded-handle `spawn` for this changes no event order, only the
/// allocations (no `JoinState`). The future goes into a parked cell of its
/// own type if there is one, else into a new box. Returns the task's id,
/// which the model test compares with the always-boxing executor's.
fn spawn_detached_on<F: Future<Output = ()> + 'static>(st: &Rc<SimState>, fut: F) -> TaskId {
    let (kind, parked) = st.take_parked(TypeId::of::<F>());
    let mut fut = Some(fut);
    let cell = match parked {
        Some(mut cell) => {
            cell.as_mut().refill(&mut fut);
            cell
        }
        None => Box::pin(fut),
    };
    enqueue(st, cell, kind)
}

/// Give `cell` a task id — the most recently freed one, else a new slot —
/// and make it runnable.
fn enqueue(st: &Rc<SimState>, cell: BoxCell, kind: usize) -> TaskId {
    let tid = {
        let mut tasks = st.tasks.borrow_mut();
        match st.free.borrow_mut().pop() {
            Some(id) => {
                // Recycled slot: the cached waker still names this id.
                tasks[id].cell = Some(cell);
                tasks[id].kind = kind;
                id
            }
            None => {
                let id = tasks.len();
                tasks.push(TaskSlot {
                    cell: Some(cell),
                    kind,
                    waker: Some(Waker::from(Arc::new(TaskWaker {
                        id,
                        sim: st.id,
                        #[cfg(debug_assertions)]
                        home: this_thread(),
                    }))),
                });
                id
            }
        }
    };
    st.live.set(st.live.get() + 1);
    st.ready.borrow_mut().push_back(tid);
    tid
}

/// Cloneable accessor used inside tasks: clock reads, sleeping, spawning.
#[derive(Clone)]
pub struct SimHandle {
    st: Weak<SimState>,
}

impl SimHandle {
    #[inline]
    fn state(&self) -> Rc<SimState> {
        self.st.upgrade().expect("Sim dropped while handle in use")
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.state().now.get()
    }

    /// Scheduler counters of the owning executor; see [`Sim::counters`].
    pub fn counters(&self) -> SimCounters {
        self.state().counters()
    }

    /// Resolve after `dur` nanoseconds of virtual time.
    pub fn sleep(&self, dur: SimTime) -> Sleep {
        self.sleep_until(self.now().saturating_add(dur))
    }

    /// Resolve once the virtual clock reaches the absolute instant `at`
    /// (immediately if it already has).
    pub fn sleep_until(&self, at: SimTime) -> Sleep {
        Sleep {
            at,
            st: self.st.clone(),
            registered: false,
        }
    }

    /// Yield to let every other currently-runnable task make progress.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { polled: false }
    }

    /// Race `fut` against a `dur`-nanosecond virtual-time deadline. Resolves
    /// to `Ok(output)` if the future finishes first, `Err(Elapsed)` if the
    /// deadline does. `fut` is held inline, unboxed, so it must be `Unpin`:
    /// pass an `async` block as `Box::pin(..)` or `std::pin::pin!(..)`. The
    /// loser is dropped in place with the `Timeout` (cancelled); one lent
    /// through `pin!` is only abandoned there and dropped with its own scope.
    pub fn timeout<F: Future + Unpin>(&self, dur: SimTime, fut: F) -> Timeout<F> {
        Timeout {
            fut,
            sleep: self.sleep(dur),
        }
    }

    /// Spawn a new task; the returned [`JoinHandle`] can be awaited for its
    /// output or ignored (the task runs regardless).
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        spawn_on(&self.state(), fut)
    }

    /// Spawn a task whose completion nobody observes: no [`JoinHandle`], so
    /// no join-state allocation. Scheduling is byte-for-byte identical to
    /// [`SimHandle::spawn`] — use it on hot fire-and-forget paths.
    pub fn spawn_detached<F>(&self, fut: F)
    where
        F: Future<Output = ()> + 'static,
    {
        spawn_detached_on(&self.state(), fut);
    }

    /// Spawn `fut` detached and, when it is ready, drop it and call `done`
    /// with its output, inside the same poll: what
    /// `spawn_detached(async move { done(fut.await) })` does, without the
    /// block's second copy of `fut`. Scheduling is that of
    /// [`SimHandle::spawn_detached`].
    pub fn spawn_then<F, D>(&self, fut: F, done: D)
    where
        F: Future + 'static,
        D: FnOnce(F::Output) + 'static,
    {
        spawn_detached_on(&self.state(), Joined::new(fut, done));
    }

    /// An empty array for a join over elements `T`: one that an earlier
    /// join of the same type handed back, else a new one, not yet allocated.
    pub(crate) fn take_array<T: 'static>(&self) -> Vec<T> {
        let st = self.state();
        let mut joins = st.joins.borrow_mut();
        let id = TypeId::of::<T>();
        let pool = joins.iter_mut().find(|(k, _)| *k == id);
        pool.and_then(|(_, arrays)| pool_of::<T>(arrays).pop())
            .unwrap_or_default()
    }

    /// Hand an emptied join array back for the next join of its type. One
    /// that never allocated, or one outliving its `Sim`, is dropped instead.
    pub(crate) fn recycle_array<T: 'static>(&self, array: Vec<T>) {
        debug_assert!(array.is_empty(), "join array recycled with elements");
        let Some(st) = self.st.upgrade() else {
            return;
        };
        if array.capacity() == 0 {
            return;
        }
        let mut joins = st.joins.borrow_mut();
        let id = TypeId::of::<T>();
        let i = joins.iter().position(|(k, _)| *k == id).unwrap_or_else(|| {
            joins.push((id, Box::new(Vec::<Vec<T>>::new())));
            joins.len() - 1
        });
        pool_of::<T>(&mut joins[i].1).push(array);
    }
}

fn pool_of<T: 'static>(arrays: &mut Box<dyn Any>) -> &mut Vec<Vec<T>> {
    (**arrays)
        .downcast_mut()
        .expect("join arrays pooled under another type's id")
}

/// Future returned by [`SimHandle::sleep`].
pub struct Sleep {
    at: SimTime,
    st: Weak<SimState>,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let st = self.st.upgrade().expect("Sim dropped while sleeping");
        if st.now.get() >= self.at {
            return Poll::Ready(());
        }
        if !self.registered {
            let seq = st.next_seq();
            let alarm = match &*st.polling.borrow() {
                Some((tid, waker)) if waker.will_wake(cx.waker()) => Alarm::Task(*tid),
                _ => Alarm::Waker(cx.waker().clone()),
            };
            st.timers.borrow_mut().insert(self.at, seq, alarm);
            self.registered = true;
        }
        Poll::Pending
    }
}

/// Error returned by [`SimHandle::timeout`] when the deadline wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed;

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "virtual-time deadline elapsed")
    }
}

/// Future returned by [`SimHandle::timeout`].
pub struct Timeout<F> {
    fut: F,
    sleep: Sleep,
}

impl<F: Future + Unpin> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        // The inner future is polled first so that a result ready exactly at
        // the deadline still wins over the timer.
        if let Poll::Ready(v) = Pin::new(&mut this.fut).poll(cx) {
            return Poll::Ready(Ok(v));
        }
        if Pin::new(&mut this.sleep).poll(cx).is_ready() {
            return Poll::Ready(Err(Elapsed));
        }
        Poll::Pending
    }
}

/// Future returned by [`SimHandle::yield_now`].
pub struct YieldNow {
    polled: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
    finished: bool,
}

/// Handle to a spawned task. Awaiting it yields the task's output; dropping
/// it detaches the task (which keeps running).
pub struct JoinHandle<T> {
    join: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Whether the task has completed.
    pub fn is_finished(&self) -> bool {
        self.join.borrow().finished
    }

    /// Take the output if the task has completed and the result was not yet
    /// consumed.
    pub fn try_take(&self) -> Option<T> {
        self.join.borrow_mut().result.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut j = self.join.borrow_mut();
        if let Some(v) = j.result.take() {
            return Poll::Ready(v);
        }
        assert!(!j.finished, "JoinHandle polled after output was taken");
        j.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{ms, us};
    use proptest::prelude::*;

    #[test]
    fn clock_starts_at_zero_and_advances_by_sleep() {
        let sim = Sim::new();
        let h = sim.handle();
        let t = sim.run_to(async move {
            h.sleep(us(7)).await;
            h.sleep(us(3)).await;
            h.now()
        });
        assert_eq!(t, us(10));
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        let sim = Sim::new();
        let h = sim.handle();
        let t = sim.run_to(async move {
            h.sleep(0).await;
            h.now()
        });
        assert_eq!(t, 0);
    }

    #[test]
    fn tasks_interleave_by_timer_order() {
        let sim = Sim::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<(&str, SimTime)>>> = Rc::default();

        let l1 = Rc::clone(&log);
        let h1 = h.clone();
        sim.spawn(async move {
            h1.sleep(us(5)).await;
            l1.borrow_mut().push(("a", h1.now()));
            h1.sleep(us(10)).await;
            l1.borrow_mut().push(("a2", h1.now()));
        });
        let l2 = Rc::clone(&log);
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(us(8)).await;
            l2.borrow_mut().push(("b", h2.now()));
        });
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![("a", us(5)), ("b", us(8)), ("a2", us(15))]
        );
    }

    #[test]
    fn equal_deadline_timers_fire_in_registration_order() {
        let sim = Sim::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        for i in 0..10u32 {
            let l = Rc::clone(&log);
            let hh = h.clone();
            sim.spawn(async move {
                hh.sleep(us(5)).await;
                l.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_stops_and_resumes() {
        let sim = Sim::new();
        let h = sim.handle();
        let count: Rc<Cell<u32>> = Rc::default();
        let c = Rc::clone(&count);
        let hh = h.clone();
        sim.spawn(async move {
            loop {
                hh.sleep(ms(1)).await;
                c.set(c.get() + 1);
            }
        });
        let reached = sim.run_until(ms(10));
        assert_eq!(reached, ms(10));
        assert_eq!(count.get(), 10);
        sim.run_until(ms(25));
        assert_eq!(count.get(), 25);
        assert_eq!(sim.live_tasks(), 1); // infinite loop task still live
    }

    #[test]
    fn run_until_parks_clock_at_deadline_when_idle() {
        let sim = Sim::new();
        let reached = sim.run_until(ms(5));
        assert_eq!(reached, ms(5));
        assert_eq!(sim.now(), ms(5));
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new();
        let h = sim.handle();
        let out = sim.run_to(async move {
            let jh = h.spawn(async { 41 + 1 });
            jh.await
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn join_handle_across_sleeps() {
        let sim = Sim::new();
        let h = sim.handle();
        let hh = h.clone();
        let out = sim.run_to(async move {
            let inner = hh.clone();
            let jh = hh.spawn(async move {
                inner.sleep(us(100)).await;
                inner.now()
            });
            // The joiner awaits before the task completes.
            jh.await
        });
        assert_eq!(out, us(100));
    }

    #[test]
    fn detached_tasks_still_run() {
        let sim = Sim::new();
        let h = sim.handle();
        let flag: Rc<Cell<bool>> = Rc::default();
        let f = Rc::clone(&flag);
        let hh = h.clone();
        drop(sim.spawn(async move {
            hh.sleep(us(1)).await;
            f.set(true);
        }));
        sim.run();
        assert!(flag.get());
    }

    #[test]
    fn yield_now_lets_peers_run() {
        let sim = Sim::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<&str>>> = Rc::default();
        let l1 = Rc::clone(&log);
        let h1 = h.clone();
        sim.spawn(async move {
            l1.borrow_mut().push("a1");
            h1.yield_now().await;
            l1.borrow_mut().push("a2");
        });
        let l2 = Rc::clone(&log);
        sim.spawn(async move {
            l2.borrow_mut().push("b1");
        });
        sim.run();
        assert_eq!(*log.borrow(), vec!["a1", "b1", "a2"]);
    }

    #[test]
    fn task_slots_are_recycled() {
        let sim = Sim::new();
        for _ in 0..100 {
            sim.spawn(async {});
        }
        sim.run();
        assert_eq!(sim.live_tasks(), 0);
        // All one hundred slots were freed; spawning again reuses them.
        let before = sim.st.tasks.borrow().len();
        for _ in 0..100 {
            sim.spawn(async {});
        }
        sim.run();
        assert_eq!(sim.st.tasks.borrow().len(), before);
    }

    /// Cells parked in the registry, over all kinds.
    fn parked(sim: &Sim) -> usize {
        let kinds = sim.st.kinds.borrow();
        let per_kind = kinds
            .iter()
            .map(|k| usize::from(k.first.is_some()) + k.more.len());
        per_kind.sum()
    }

    /// Appends its name to the log when dropped.
    struct Probe(&'static str, Rc<RefCell<Vec<&'static str>>>);

    impl Drop for Probe {
        fn drop(&mut self) {
            self.1.borrow_mut().push(self.0);
        }
    }

    /// A hand-written future: what it holds goes when the future object is
    /// dropped, not — as an `async` block's locals do — when it returns.
    /// Logs the address it is polled at.
    struct Holding<const KIND: u8> {
        sleep: Sleep,
        at: Rc<RefCell<Vec<usize>>>,
        _held: Option<Probe>,
    }

    impl<const KIND: u8> Future for Holding<KIND> {
        type Output = ();

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let addr = &*self as *const Self as usize;
            self.at.borrow_mut().push(addr);
            Pin::new(&mut self.sleep).poll(cx)
        }
    }

    #[test]
    fn finished_task_is_dropped_at_completion_not_at_refill_or_sim_drop() {
        let sim = Sim::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let holding = |name, until| Holding::<0> {
            sleep: h.sleep_until(until),
            at: Rc::default(),
            _held: Some(Probe(name, Rc::clone(&log))),
        };
        h.spawn_detached(holding("first dropped", us(5)));
        let (l, hh) = (Rc::clone(&log), h.clone());
        h.spawn_detached(async move {
            // Same instant, polled right after the first task finished.
            hh.sleep_until(us(5)).await;
            l.borrow_mut().push("peer ran");
        });
        sim.run();
        assert_eq!(parked(&sim), 2);
        log.borrow_mut().push("refill");
        h.spawn_detached(holding("second dropped", us(9)));
        sim.run();
        log.borrow_mut().push("sim dropped");
        drop(sim);
        assert_eq!(
            *log.borrow(),
            [
                "first dropped",
                "peer ran",
                "refill",
                "second dropped",
                "sim dropped"
            ]
        );
    }

    /// Spawns the next link of its own kind from inside its poll.
    struct Chain {
        h: SimHandle,
        left: u32,
        at: Rc<RefCell<Vec<usize>>>,
    }

    impl Future for Chain {
        type Output = ();

        fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
            self.at.borrow_mut().push(&*self as *const Self as usize);
            if self.left > 0 {
                self.h.spawn_detached(Chain {
                    h: self.h.clone(),
                    left: self.left - 1,
                    at: Rc::clone(&self.at),
                });
            }
            Poll::Ready(())
        }
    }

    #[test]
    fn task_spawning_its_own_kind_mid_poll_gets_a_fresh_box() {
        let sim = Sim::new();
        let at: Rc<RefCell<Vec<usize>>> = Rc::default();
        sim.handle().spawn_detached(Chain {
            h: sim.handle(),
            left: 5,
            at: Rc::clone(&at),
        });
        sim.run();
        let at = at.borrow();
        // The cell being polled is not in the registry, so the first child
        // lands in a second box; from then on the two take turns.
        assert_ne!(at[0], at[1]);
        assert_eq!(*at, [at[0], at[1], at[0], at[1], at[0], at[1]]);
        assert_eq!(parked(&sim), 2);
    }

    #[test]
    fn kinds_of_identical_layout_never_share_a_cell() {
        use std::alloc::Layout;
        assert_eq!(Layout::new::<Holding<0>>(), Layout::new::<Holding<1>>());
        let sim = Sim::new();
        let h = sim.handle();
        let at: Rc<RefCell<Vec<usize>>> = Rc::default();
        fn idle<const KIND: u8>(h: &SimHandle, at: &Rc<RefCell<Vec<usize>>>) -> Holding<KIND> {
            Holding {
                sleep: h.sleep(0),
                at: Rc::clone(at),
                _held: None,
            }
        }
        // One task at a time: kind 0, kind 1, kind 0 again.
        h.spawn_detached(idle::<0>(&h, &at));
        sim.run();
        h.spawn_detached(idle::<1>(&h, &at));
        sim.run();
        h.spawn_detached(idle::<0>(&h, &at));
        sim.run();
        let at = at.borrow();
        assert_ne!(at[0], at[1], "kind 1 ran in kind 0's parked cell");
        assert_eq!(at[0], at[2], "kind 0's respawn did not reuse its cell");
        assert_eq!(parked(&sim), 2);
    }

    #[test]
    fn sim_drop_drops_parked_and_live_futures_exactly_once() {
        let sim = Sim::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let holding = |name, until| Holding::<0> {
            sleep: h.sleep_until(until),
            at: Rc::default(),
            _held: Some(Probe(name, Rc::clone(&log))),
        };
        h.spawn_detached(holding("finished", us(1)));
        h.spawn_detached(holding("finished too", us(2)));
        h.spawn_detached(holding("refilled, live", us(50)));
        h.spawn_detached(holding("live", us(60)));
        sim.run_until(us(3));
        // The two finished tasks' cells: one refilled, one still parked.
        h.spawn_detached(holding("late, live", us(70)));
        assert_eq!((sim.live_tasks(), parked(&sim)), (3, 1));
        let id = sim.st.id;
        drop(sim);
        // Its ready queue left the wakers' table with it.
        assert!(QUEUES.with(|q| q.borrow().iter().all(|(sim, _)| *sim != id)));
        let mut dropped = log.borrow().clone();
        dropped.sort_unstable();
        assert_eq!(
            dropped,
            [
                "finished",
                "finished too",
                "late, live",
                "live",
                "refilled, live"
            ]
        );
    }

    #[test]
    fn live_tasks_and_task_bytes_ignore_parked_cells() {
        let sim = Sim::new();
        let h = sim.handle();
        for i in 0..4u64 {
            let hh = h.clone();
            h.spawn_detached(async move { hh.sleep(us(1 + i)).await });
        }
        h.spawn_detached(std::future::pending::<()>());
        assert_eq!(sim.live_tasks(), 5);
        assert_eq!(sim.task_bytes().len(), 5);
        sim.run();
        assert_eq!(parked(&sim), 4);
        assert_eq!(sim.live_tasks(), 1);
        // What is listed is the live future at its own size, not the cell's.
        let pending = std::mem::size_of::<std::future::Pending<()>>();
        assert_eq!(sim.task_bytes(), [pending]);
    }

    // ---- model test: cell reuse against the always-`Box::pin` executor ----

    /// The spawn of the executor before cells were kept, as the reference: a
    /// new box every time. The parked cell it takes out is freed, as every
    /// finished task's box was.
    fn spawn_boxed_on<F: Future<Output = ()> + 'static>(st: &Rc<SimState>, fut: F) -> TaskId {
        let (kind, _freed) = st.take_parked(TypeId::of::<F>());
        enqueue(st, Box::pin(Some(fut)), kind)
    }

    #[derive(Debug, Clone)]
    enum Op {
        Sleep(SimTime),
        Yield,
        /// Wait for the earlier of two timers; the later one stays in the
        /// wheel and fires at whatever task holds this task's id by then.
        Race(SimTime, SimTime),
        /// Spawn a task of kind `.0 % 3` running `.1`.
        Spawn(u8, Vec<Op>),
    }

    #[derive(Debug, PartialEq)]
    enum Event {
        Spawned { task: u32, tid: TaskId },
        Finished { task: u32, at: SimTime },
    }

    struct Model {
        st: Weak<SimState>,
        /// Spawn through [`spawn_boxed_on`] instead of the executor's own.
        reference: bool,
        log: RefCell<Vec<Event>>,
        spawned: Cell<u32>,
    }

    impl Model {
        fn spawn(self: &Rc<Self>, kind: u8, prog: Vec<Op>) {
            let task = self.spawned.get();
            self.spawned.set(task + 1);
            let tid = match kind % 3 {
                0 => self.spawn_as(Interp::<0>::new(self, task, prog)),
                1 => self.spawn_as(Interp::<1>::new(self, task, prog)),
                _ => self.spawn_as(Interp::<2>::new(self, task, prog)),
            };
            self.log.borrow_mut().push(Event::Spawned { task, tid });
        }

        fn spawn_as<F: Future<Output = ()> + 'static>(&self, fut: F) -> TaskId {
            let st = self.st.upgrade().expect("model outlived its Sim");
            if self.reference {
                spawn_boxed_on(&st, fut)
            } else {
                spawn_detached_on(&st, fut)
            }
        }
    }

    enum Wait {
        Sleep(Sleep),
        Yield(YieldNow),
        Race(Sleep, Sleep),
    }

    /// Runs one task's program; `KIND` only makes three future types of it.
    struct Interp<const KIND: u8> {
        model: Rc<Model>,
        task: u32,
        prog: Vec<Op>,
        pc: usize,
        wait: Option<Wait>,
    }

    impl<const KIND: u8> Interp<KIND> {
        fn new(model: &Rc<Model>, task: u32, prog: Vec<Op>) -> Self {
            Interp {
                model: Rc::clone(model),
                task,
                prog,
                pc: 0,
                wait: None,
            }
        }
    }

    impl<const KIND: u8> Future for Interp<KIND> {
        type Output = ();

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let this = &mut *self;
            let h = SimHandle {
                st: this.model.st.clone(),
            };
            loop {
                let waited = match &mut this.wait {
                    None => Poll::Ready(()),
                    Some(Wait::Sleep(s)) => Pin::new(s).poll(cx),
                    Some(Wait::Yield(y)) => Pin::new(y).poll(cx),
                    Some(Wait::Race(a, b)) => match Pin::new(a).poll(cx) {
                        Poll::Ready(()) => Poll::Ready(()),
                        Poll::Pending => Pin::new(b).poll(cx),
                    },
                };
                if waited.is_pending() {
                    return Poll::Pending;
                }
                let Some(op) = this.prog.get(this.pc) else {
                    let (task, at) = (this.task, h.now());
                    let finished = Event::Finished { task, at };
                    this.model.log.borrow_mut().push(finished);
                    return Poll::Ready(());
                };
                this.pc += 1;
                this.wait = match op {
                    Op::Sleep(d) => Some(Wait::Sleep(h.sleep(*d))),
                    Op::Yield => Some(Wait::Yield(h.yield_now())),
                    Op::Race(a, b) => Some(Wait::Race(h.sleep(*a), h.sleep(*b))),
                    Op::Spawn(kind, prog) => {
                        this.model.spawn(*kind, prog.clone());
                        None
                    }
                };
            }
        }
    }

    fn run_model(prog: &[Op], reference: bool) -> (Vec<Event>, SimCounters) {
        let sim = Sim::new();
        let model = Rc::new(Model {
            st: Rc::downgrade(&sim.st),
            reference,
            log: RefCell::default(),
            spawned: Cell::new(0),
        });
        model.spawn(0, prog.to_vec());
        sim.run();
        assert_eq!(sim.live_tasks(), 0);
        let log = model.log.take();
        (log, sim.counters())
    }

    /// Programs three spawn levels deep; durations are small so that tasks
    /// of all kinds finish and respawn around each other's stale timers.
    fn program() -> impl Strategy<Value = Vec<Op>> {
        fn level<S: Strategy<Value = Vec<Op>>>(child: S) -> impl Strategy<Value = Vec<Op>> {
            let op =
                (0u8..8, 0u64..40, 0u64..40, child).prop_map(|(which, a, b, child)| match which {
                    0 | 1 => Op::Sleep(a),
                    2 => Op::Yield,
                    3 => Op::Race(a, b),
                    _ => Op::Spawn(which, child),
                });
            prop::collection::vec(op, 0..10)
        }
        let leaf = (0u8..3, 0u64..40, 0u64..40).prop_map(|(which, a, b)| match which {
            0 => Op::Sleep(a),
            1 => Op::Yield,
            _ => Op::Race(a, b),
        });
        level(level(prop::collection::vec(leaf, 0..5)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Refilling a parked cell is not observable: the same completion
        /// log, task ids and scheduler counters as boxing every spawn.
        #[test]
        fn cell_reuse_schedules_like_boxing_every_spawn(prog in program()) {
            let (log, counters) = run_model(&prog, false);
            let (ref_log, ref_counters) = run_model(&prog, true);
            prop_assert_eq!(log, ref_log);
            prop_assert_eq!(counters, ref_counters);
        }
    }

    /// Every program whose spawns nest at most `levels` deep, with at most
    /// three ops per task and `budget` ops in all, each with its op count.
    /// The timings let a task finish, and its id and cell be taken, between
    /// a stale timer's registration and its firing.
    fn every_program(levels: u32, budget: usize) -> Vec<(usize, Vec<Op>)> {
        let leaves = [Op::Sleep(1), Op::Sleep(2), Op::Yield, Op::Race(1, 2)];
        let mut ops: Vec<(usize, Op)> = leaves.map(|op| (1, op)).into();
        if levels > 0 && budget > 0 {
            for (size, child) in every_program(levels - 1, budget - 1) {
                ops.extend((0..3).map(|kind| (size + 1, Op::Spawn(kind, child.clone()))));
            }
        }
        // Each pass appends every one-op extension of the previous pass's.
        let (mut all, mut from) = (vec![(0, Vec::new())], 0);
        for _ in 0..3 {
            let to = all.len();
            for i in from..to {
                let (size, prog) = all[i].clone();
                for (op_size, op) in ops.iter().filter(|(s, _)| size + s <= budget) {
                    let longer = [&prog[..], std::slice::from_ref(op)].concat();
                    all.push((size + op_size, longer));
                }
            }
            from = to;
        }
        all
    }

    /// The model test's comparison over every small program instead of
    /// random ones: two spawn levels, three ops per task, three kinds and
    /// four leaf ops, five ops in all.
    #[test]
    fn cell_reuse_schedules_like_boxing_every_spawn_for_every_small_program() {
        let programs = every_program(2, 5);
        assert_eq!(programs.len(), 84_307);
        for (_, prog) in &programs {
            assert_eq!(run_model(prog, false), run_model(prog, true), "{prog:?}");
        }
    }

    #[test]
    fn sleep_until_past_instant_is_immediate() {
        let sim = Sim::new();
        let h = sim.handle();
        let t = sim.run_to(async move {
            h.sleep(us(10)).await;
            h.sleep_until(us(5)).await; // already in the past
            h.now()
        });
        assert_eq!(t, us(10));
    }

    #[test]
    fn timeout_returns_ok_when_future_wins() {
        let sim = Sim::new();
        let h = sim.handle();
        let out = sim.run_to(async move {
            let hh = h.clone();
            let fut = std::pin::pin!(async move {
                hh.sleep(us(3)).await;
                7u32
            });
            h.timeout(us(10), fut).await
        });
        assert_eq!(out, Ok(7));
    }

    #[test]
    fn timeout_returns_elapsed_when_deadline_wins() {
        let sim = Sim::new();
        let h = sim.handle();
        let (out, t) = sim.run_to(async move {
            let hh = h.clone();
            let fut = std::pin::pin!(async move {
                hh.sleep(ms(1)).await;
                7u32
            });
            let r = h.timeout(us(10), fut).await;
            (r, h.now())
        });
        assert_eq!(out, Err(Elapsed));
        assert_eq!(t, us(10));
    }

    #[test]
    fn timeout_at_exact_deadline_prefers_the_future() {
        let sim = Sim::new();
        let h = sim.handle();
        let out = sim.run_to(async move {
            let hh = h.clone();
            let fut = std::pin::pin!(async move {
                hh.sleep(us(10)).await;
                1u32
            });
            h.timeout(us(10), fut).await
        });
        assert_eq!(out, Ok(1));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn run_to_panics_on_deadlock() {
        let sim = Sim::new();
        let h = sim.handle();
        sim.run_to(async move {
            // A sleep that never gets scheduled because we await a handle to
            // a task that itself never finishes.
            let pending = h.spawn(std::future::pending::<()>());
            pending.await;
        });
    }
}
