//! The persistent scheduler behind the shim's parallel iterators.
//!
//! A [`Registry`] is a set of long-lived worker threads plus an injector
//! queue. Jobs (one per top-level `for_each`/`map` call) are described by a
//! [`JobCore`]: the item index space is partitioned into one contiguous
//! range per participant, each range held in a packed `(head, tail)`
//! atomic. Participants pop small chunks from the head of their own range
//! and, when it runs dry, steal the upper half of the richest remaining
//! range — so a balanced workload keeps the cache-friendly static
//! partition while a skewed one rebalances automatically.
//!
//! Width propagation: every worker thread stores its registry in the
//! [`CURRENT`] thread-local at spawn, so a nested parallel call issued from
//! inside a job resubmits to the *same* registry and observes the pool
//! width instead of silently fanning out to full hardware width (the bug
//! in the old per-call scoped-thread implementation).

use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

thread_local! {
    /// The registry this thread submits parallel work to: set permanently
    /// on worker threads at spawn, and temporarily on user threads for the
    /// duration of a [`crate::ThreadPool::install`] call.
    static CURRENT: std::cell::RefCell<Option<Arc<Registry>>> =
        const { std::cell::RefCell::new(None) };
}

pub(crate) fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Width of the registry the calling thread would submit to.
pub(crate) fn current_width() -> usize {
    CURRENT
        .with(|c| c.borrow().as_ref().map(|r| r.width))
        .unwrap_or_else(hardware_threads)
}

/// Restores the previous thread-local registry when dropped.
pub(crate) struct ContextGuard {
    prev: Option<Arc<Registry>>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Make `registry` the calling thread's submission target until the
/// returned guard drops.
pub(crate) fn enter(registry: Arc<Registry>) -> ContextGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(registry));
    ContextGuard { prev }
}

// ---------------------------------------------------------------------------
// Job state
// ---------------------------------------------------------------------------

/// Pack a half-open index range into one atomic word so pop (head += k)
/// and steal (tail -= k) race safely through CAS.
#[inline]
fn pack(head: usize, tail: usize) -> u64 {
    ((head as u64) << 32) | tail as u64
}

#[inline]
fn unpack(v: u64) -> (usize, usize) {
    ((v >> 32) as usize, (v & 0xffff_ffff) as usize)
}

/// Monomorphized entry point: process item `idx` of the job whose typed
/// state lives behind `data`.
type ExecFn = unsafe fn(*const (), usize);

/// Type-erased shared state of one parallel job.
///
/// `data` points at a [`JobData`] on the submitting thread's stack. The
/// ownership protocol that makes the raw pointer sound: an index is
/// dereferenced only by the participant that claimed it through a
/// successful CAS on a slot, each index is claimed at most once, and the
/// submitter does not return until `remaining` hits zero — which happens
/// strictly after the last claimed index has been fully processed. After
/// completion, late participants (workers draining stale injector tickets)
/// touch only the `Arc`-owned fields, never `data`.
pub(crate) struct JobCore {
    /// One packed `(head, tail)` index range per participant.
    slots: Box<[AtomicU64]>,
    /// Items not yet fully processed; the submitter blocks until zero.
    remaining: AtomicUsize,
    panicked: AtomicBool,
    data: *const (),
    exec: ExecFn,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `data` is only dereferenced through `exec` for exclusively
// claimed indices (see the struct docs); the submitting `run_job` enforces
// `I: Send, O: Send, F: Sync` on everything reachable through it.
unsafe impl Send for JobCore {}
unsafe impl Sync for JobCore {}

enum FoundWork {
    Stolen,
    Empty,
}

impl JobCore {
    /// Pop a chunk from the head of `slot`. Chunks shrink as the range
    /// drains (1/8 of the remainder, at least 1) so early pops are cheap
    /// on CAS traffic while the tail stays fine-grained for balancing.
    fn pop_chunk(&self, slot: usize) -> Option<(usize, usize)> {
        let s = &self.slots[slot];
        let mut v = s.load(Ordering::Acquire);
        loop {
            let (head, tail) = unpack(v);
            if head >= tail {
                return None;
            }
            let take = ((tail - head) / 8).max(1);
            match s.compare_exchange_weak(
                v,
                pack(head + take, tail),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((head, head + take)),
                Err(now) => v = now,
            }
        }
    }

    /// Steal the upper half of the richest other slot into `my` (which is
    /// empty: only its owner refills it). Returns [`FoundWork::Empty`] when
    /// every slot is drained and participation should end.
    fn steal_into(&self, my: usize) -> FoundWork {
        loop {
            let mut victim = None;
            let mut best = 0usize;
            for (s, slot) in self.slots.iter().enumerate() {
                if s == my {
                    continue;
                }
                let (head, tail) = unpack(slot.load(Ordering::Acquire));
                let n = tail.saturating_sub(head);
                if n > best {
                    best = n;
                    victim = Some(s);
                }
            }
            let Some(vslot) = victim else {
                return FoundWork::Empty;
            };
            let s = &self.slots[vslot];
            let v = s.load(Ordering::Acquire);
            let (head, tail) = unpack(v);
            if head >= tail {
                continue; // drained while we scanned; rescan
            }
            let take = (tail - head).div_ceil(2);
            if s.compare_exchange(
                v,
                pack(head, tail - take),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
            {
                continue; // lost the race; rescan
            }
            // Single-writer refill: `my` is empty and only its owner (this
            // thread) ever writes an empty slot, so a plain store suffices.
            self.slots[my].store(pack(tail - take, tail), Ordering::Release);
            return FoundWork::Stolen;
        }
    }

    /// Process `[lo, hi)`, trapping panics from the user closure so one
    /// poisoned item cannot kill a persistent worker or strand the
    /// submitter; the panic is re-raised on the submitting thread.
    fn run_range(&self, lo: usize, hi: usize) {
        let r = catch_unwind(AssertUnwindSafe(|| {
            for idx in lo..hi {
                // SAFETY: indices in [lo, hi) were claimed exclusively by a
                // successful CAS, and the submitter keeps `data` alive
                // until `remaining` reaches zero, which we delay below.
                unsafe { (self.exec)(self.data, idx) };
            }
        }));
        if r.is_err() {
            self.panicked.store(true, Ordering::Relaxed);
        }
        if self.remaining.fetch_sub(hi - lo, Ordering::AcqRel) == hi - lo {
            *self.done.lock().unwrap() = true;
            self.done_cv.notify_all();
        }
    }

    /// Work loop of one participant: drain the owned slot, then steal-half
    /// on imbalance; exit (without spinning) once no work is claimable.
    pub(crate) fn participate(&self, my: usize) {
        loop {
            while let Some((lo, hi)) = self.pop_chunk(my) {
                self.run_range(lo, hi);
            }
            match self.steal_into(my) {
                FoundWork::Stolen => continue,
                FoundWork::Empty => return,
            }
        }
    }

    fn wait_done(&self) {
        let mut g = self.done.lock().unwrap();
        while !*g {
            g = self.done_cv.wait(g).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// Registry: persistent workers + injector
// ---------------------------------------------------------------------------

struct Injector {
    queue: VecDeque<Ticket>,
    shutdown: bool,
}

struct Ticket {
    core: Arc<JobCore>,
    slot: usize,
}

/// A persistent pool: `width - 1` worker threads (the submitting thread is
/// the `width`-th participant) sharing an injector queue.
pub(crate) struct Registry {
    pub(crate) width: usize,
    injector: Mutex<Injector>,
    work_ready: Condvar,
}

impl Registry {
    /// Spawn `width - 1` persistent workers.
    pub(crate) fn new(width: usize) -> (Arc<Self>, Vec<JoinHandle<()>>) {
        let registry = Arc::new(Registry {
            width,
            injector: Mutex::new(Injector {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (0..width.saturating_sub(1))
            .map(|i| {
                let r = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("mlmd-rayon-{i}"))
                    .spawn(move || worker_loop(r))
                    .expect("failed to spawn rayon shim worker")
            })
            .collect();
        (registry, handles)
    }

    /// Enqueue helper tickets for slots `1..width` of `core`.
    fn inject(&self, core: &Arc<JobCore>, helpers: usize) {
        if helpers == 0 {
            return;
        }
        let mut inj = self.injector.lock().unwrap();
        for slot in 1..=helpers {
            inj.queue.push_back(Ticket {
                core: Arc::clone(core),
                slot,
            });
        }
        drop(inj);
        self.work_ready.notify_all();
    }

    /// Wake every worker so it can observe shutdown; called by
    /// [`crate::ThreadPool::drop`] before joining.
    pub(crate) fn shut_down(&self) {
        self.injector.lock().unwrap().shutdown = true;
        self.work_ready.notify_all();
    }
}

fn worker_loop(registry: Arc<Registry>) {
    CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&registry)));
    loop {
        let ticket = {
            let mut inj = registry.injector.lock().unwrap();
            loop {
                if inj.shutdown {
                    return;
                }
                if let Some(t) = inj.queue.pop_front() {
                    break t;
                }
                inj = registry.work_ready.wait(inj).unwrap();
            }
        };
        // A stale ticket (job already finished by other participants)
        // finds every slot empty and returns immediately.
        ticket.core.participate(ticket.slot);
    }
}

/// The default registry used outside any `install` context, sized to the
/// hardware and spawned lazily on first parallel call.
fn global_registry() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        // Workers of the process-wide pool live for the process lifetime;
        // their join handles are intentionally dropped (detached).
        Registry::new(hardware_threads()).0
    })
}

/// The registry the calling thread submits to.
fn current_registry() -> Arc<Registry> {
    CURRENT
        .with(|c| c.borrow().clone())
        .unwrap_or_else(|| Arc::clone(global_registry()))
}

// ---------------------------------------------------------------------------
// Job submission
// ---------------------------------------------------------------------------

/// Typed view of one job's buffers; lives on the submitting thread's stack
/// for the duration of [`run_job`].
struct JobData<I, O, F> {
    items: *const I,
    out: *mut O,
    f: *const F,
}

unsafe fn exec_one<I, O, F: Fn(I) -> O>(data: *const (), idx: usize) {
    // SAFETY: caller (JobCore::run_range) holds an exclusive claim on
    // `idx`; `data` points to the live JobData of this job.
    unsafe {
        let d = &*data.cast::<JobData<I, O, F>>();
        let item = std::ptr::read(d.items.add(idx));
        let val = (*d.f)(item);
        std::ptr::write(d.out.add(idx), val);
    }
}

/// Apply `f` to every item on the current registry, preserving item order
/// in the returned vector. Sequential below two effective lanes.
pub(crate) fn run_job<I, O, F>(items: Vec<I>, f: &F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let len = items.len();
    let width = current_width().min(len);
    if width <= 1 {
        return items.into_iter().map(f).collect();
    }
    assert!(len < u32::MAX as usize, "job too large for packed cursors");

    let registry = current_registry();
    let mut items = items;
    let mut out: Vec<MaybeUninit<O>> = Vec::with_capacity(len);
    // SAFETY: MaybeUninit contents need no initialization.
    unsafe { out.set_len(len) };
    let data = JobData::<I, O, F> {
        items: items.as_ptr(),
        out: out.as_mut_ptr().cast::<O>(),
        f,
    };
    // Contiguous partition: slot i owns [i*len/width, (i+1)*len/width).
    let slots: Box<[AtomicU64]> = (0..width)
        .map(|i| AtomicU64::new(pack(i * len / width, (i + 1) * len / width)))
        .collect();
    let core = Arc::new(JobCore {
        slots,
        remaining: AtomicUsize::new(len),
        panicked: AtomicBool::new(false),
        data: (&data as *const JobData<I, O, F>).cast(),
        exec: exec_one::<I, O, F>,
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });
    registry.inject(&core, width - 1);
    // The submitter is participant 0 and can finish the whole job alone if
    // every worker is busy — nested jobs therefore never deadlock.
    core.participate(0);
    core.wait_done();

    // Every index was claimed and processed (ptr::read consumed the items),
    // so drop the vector shell without double-dropping its contents. On the
    // panic path some claimed-but-skipped items leak; acceptable for a
    // shim, and the panic is propagated right after.
    unsafe { items.set_len(0) };
    drop(items);
    if core.panicked.load(Ordering::Relaxed) {
        // Dropping a Vec<MaybeUninit<O>> frees the buffer without running
        // any O destructor, so only the resources owned by the initialized
        // (unknowable) subset of outputs leak, not the buffer itself.
        drop(out);
        panic!("rayon shim worker panicked");
    }
    // SAFETY: all `len` outputs were written exactly once.
    unsafe {
        let mut out = std::mem::ManuallyDrop::new(out);
        Vec::from_raw_parts(out.as_mut_ptr().cast::<O>(), len, out.capacity())
    }
}
