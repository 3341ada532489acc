//! Simulated MPI: ranks as threads, typed tag-matched point-to-point
//! messages, collectives built on top (in a reserved tag namespace
//! disjoint from user traffic), and `MPI_Comm_split`.
//!
//! Each communicator owns one mailbox per member rank, and a mailbox keeps
//! one FIFO queue per (source, tag): a send appends to the destination's
//! queue, and a receive pops the front of its own, so tag matching is a
//! lookup. Every handle of a communicator shares its mailboxes through an
//! `Arc`, so they are reclaimed when the last handle on any rank drops.
//!
//! The goal is functional fidelity, not wire-level fidelity: the DC-MESH
//! and XS-NNQMD drivers are written against this API exactly as the paper's
//! Fortran/C++ is written against MPI, so halo exchanges, excitation-count
//! gathers, and hierarchical band/space decompositions run for real on tens
//! of ranks (the remaining 10⁴× of Aurora is handled by `mlmd-exasim`).

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

type Payload = Box<dyn Any + Send>;

/// Collective traffic lives in its own tag namespace: the high bit is
/// reserved, so no user tag can ever collide with an internal collective
/// message from the same source. User `send`/`recv` reject tags that set
/// this bit (the simulated analogue of MPI's reserved internal tags).
pub const COLLECTIVE_TAG_BIT: u64 = 1 << 63;

const TAG_BARRIER: u64 = COLLECTIVE_TAG_BIT | 1;
const TAG_BCAST: u64 = COLLECTIVE_TAG_BIT | 2;
const TAG_GATHER: u64 = COLLECTIVE_TAG_BIT | 3;
const TAG_SCATTER: u64 = COLLECTIVE_TAG_BIT | 4;

/// Which collective an instrumented counter row belongs to. Composite
/// collectives (`allgather` = gather + bcast, `allreduce` = reduce +
/// bcast) count once under the operation the caller invoked, never
/// under their building blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CollectiveOp {
    Barrier,
    Bcast,
    Gather,
    Allgather,
    AllgatherVec,
    Scatter,
    Reduce,
    Allreduce,
    AllreduceSumVec,
}

/// Accumulated counters for one (communicator, collective) pair.
///
/// Every member rank records once per collective call, so a `p`-rank
/// collective adds `p` to `ops`; divide by the communicator size for
/// per-call figures. `bytes` is the logical per-rank payload (element
/// size × element count) — an estimate that does not chase heap data
/// behind the element type. `wall_secs` sums each rank's time inside
/// the call, including any wait for peers to arrive.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpStats {
    pub ops: u64,
    pub bytes: u64,
    pub wall_secs: f64,
}

impl OpStats {
    /// Mean wall time per recorded entry (one entry = one rank × one
    /// call), or 0 when nothing was recorded.
    pub fn mean_wall_secs(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.wall_secs / self.ops as f64
        }
    }
}

/// One snapshot row: the counters of a single collective on a single
/// communicator (`comm` is the fabric-wide communicator id; the world
/// communicator is id 0).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CollectiveRecord {
    pub comm: u64,
    pub op: CollectiveOp,
    pub stats: OpStats,
}

/// Environment variable overriding the default recv-stall timeout, in
/// (possibly fractional) seconds. Must parse as a positive float.
pub const RECV_STALL_ENV: &str = "MLMD_RECV_STALL_SECS";

/// The recv-stall timeout a world runs with unless overridden: 60 s, or
/// the value of [`RECV_STALL_ENV`] — the knob slow CI machines raise so a
/// long root-side compute before a broadcast (a multigrid solve, a
/// ground-state descent) can't trip a false stall panic.
pub fn default_recv_stall() -> Duration {
    match std::env::var(RECV_STALL_ENV) {
        Ok(s) => {
            let secs: f64 = s.parse().unwrap_or_else(|_| {
                panic!("{RECV_STALL_ENV} must be a number of seconds, got {s:?}")
            });
            assert!(
                secs > 0.0 && secs.is_finite(),
                "{RECV_STALL_ENV} must be positive and finite, got {s:?}"
            );
            Duration::from_secs_f64(secs)
        }
        Err(_) => Duration::from_secs(60),
    }
}

/// Lock a stats or mailbox mutex, recovering the guard if a panicking
/// rank poisoned it: every critical section here leaves its map
/// consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by every communicator of one world.
struct Fabric {
    comm_ids: AtomicU64,
    /// Number of communicators with at least one live handle.
    live: AtomicUsize,
    /// How long a `recv` with no matching envelope waits before it is
    /// declared a protocol error.
    stall: Duration,
    /// Per-(communicator, collective) counters, fed by the public
    /// collective entry points on every member rank.
    stats: Mutex<HashMap<(u64, CollectiveOp), OpStats>>,
}

impl Fabric {
    fn with_stall(stall: Duration) -> Self {
        Self {
            comm_ids: AtomicU64::new(1),
            live: AtomicUsize::new(0),
            stall,
            stats: Mutex::new(HashMap::new()),
        }
    }

    fn record(&self, comm: u64, op: CollectiveOp, bytes: u64, wall_secs: f64) {
        let mut stats = lock(&self.stats);
        let entry = stats.entry((comm, op)).or_default();
        entry.ops += 1;
        entry.bytes += bytes;
        entry.wall_secs += wall_secs;
    }

    fn stats_snapshot(&self) -> Vec<CollectiveRecord> {
        let stats = lock(&self.stats);
        let mut rows: Vec<CollectiveRecord> = stats
            .iter()
            .map(|(&(comm, op), &stats)| CollectiveRecord { comm, op, stats })
            .collect();
        rows.sort_by_key(|r| (r.comm, r.op));
        rows
    }
}

/// The envelopes addressed to one rank of one communicator, queued FIFO
/// per (source rank, tag).
#[derive(Default)]
struct Mailbox {
    queues: Mutex<HashMap<(usize, u64), VecDeque<Payload>>>,
    arrived: Condvar,
}

/// One communicator: its fabric-wide id and one mailbox per member rank.
/// Every handle holds it through an `Arc`, so queued envelopes outlive
/// the handle that sent them and are dropped with the last handle.
struct Group {
    fabric: Arc<Fabric>,
    id: u64,
    mailboxes: Vec<Mailbox>,
}

impl Group {
    fn new(fabric: &Arc<Fabric>, id: u64, size: usize) -> Arc<Self> {
        fabric.live.fetch_add(1, Ordering::Relaxed);
        Arc::new(Self {
            fabric: Arc::clone(fabric),
            id,
            mailboxes: (0..size).map(|_| Mailbox::default()).collect(),
        })
    }
}

impl Drop for Group {
    fn drop(&mut self) {
        self.fabric.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A communicator handle owned by one rank (thread).
///
/// Cheap to clone within a rank; every method is collective or
/// point-to-point exactly as its MPI namesake.
#[derive(Clone)]
pub struct Comm {
    group: Arc<Group>,
    /// This rank's index within the communicator.
    me: usize,
}

impl Comm {
    /// This rank's index within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.me
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.group.mailboxes.len()
    }

    /// Blocking typed send to local rank `dst`. The high tag bit is
    /// reserved for collective traffic ([`COLLECTIVE_TAG_BIT`]).
    pub fn send<T: Send + 'static>(&self, dst: usize, tag: u64, value: T) {
        assert_eq!(
            tag & COLLECTIVE_TAG_BIT,
            0,
            "user tag {tag:#x} sets the reserved collective bit; \
             tags must be < 2^63"
        );
        self.send_internal(dst, tag, value);
    }

    fn send_internal<T: Send + 'static>(&self, dst: usize, tag: u64, value: T) {
        let mailbox = &self.group.mailboxes[dst];
        lock(&mailbox.queues)
            .entry((self.me, tag))
            .or_default()
            .push_back(Box::new(value));
        mailbox.arrived.notify_all();
    }

    /// Blocking typed receive from local rank `src`, matching on `tag`
    /// exactly as MPI does: envelopes of other tags wait in their own
    /// queues until their own `recv` asks for them, so an unconsumed user
    /// send can never corrupt a later collective. Per (src, dst, tag)
    /// triple, delivery is FIFO. The high tag bit is reserved for
    /// collective traffic.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u64) -> T {
        assert_eq!(
            tag & COLLECTIVE_TAG_BIT,
            0,
            "user tag {tag:#x} sets the reserved collective bit; \
             tags must be < 2^63"
        );
        self.recv_internal(src, tag)
    }

    fn recv_internal<T: Send + 'static>(&self, src: usize, tag: u64) -> T {
        // A receive that sees no matching envelope for this long is a
        // protocol error (mismatched tags or collective ordering across
        // ranks): panic with diagnostics instead of hanging the world
        // until an outer CI timeout. Legitimate waits in this codebase
        // (e.g. non-roots parked in a bcast while the root runs a
        // multigrid solve or a ground-state descent) are orders of
        // magnitude shorter; slow machines can raise the limit via
        // [`RECV_STALL_ENV`] or [`World::run_with_stall`].
        let stall = self.group.fabric.stall;
        let deadline = Instant::now() + stall;
        let mailbox = &self.group.mailboxes[self.me];
        let mut queues = lock(&mailbox.queues);
        let payload = loop {
            if let Some(payload) = queues.get_mut(&(src, tag)).and_then(VecDeque::pop_front) {
                break payload;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                let mut pending: Vec<u64> = queues
                    .iter()
                    .filter(|((s, _), q)| *s == src && !q.is_empty())
                    .map(|((_, t), _)| *t)
                    .collect();
                pending.sort_unstable();
                drop(queues);
                panic!(
                    "recv stalled: rank {} waited {stall:?} for tag {tag:#x} from rank {src}; \
                     stashed tags from that source: {pending:x?} \
                     (no matching envelope ever arrived — protocol error)",
                    self.me
                );
            }
            queues = mailbox
                .arrived
                .wait_timeout(queues, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
        *payload
            .downcast::<T>()
            .expect("message type mismatch in simulated MPI")
    }

    /// Time a collective body and charge it to this communicator's
    /// counters. Exactly one record per public entry point per rank —
    /// the `*_impl` bodies composite collectives delegate to are never
    /// themselves recorded.
    fn timed<T>(&self, op: CollectiveOp, bytes: u64, body: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = body();
        self.group
            .fabric
            .record(self.group.id, op, bytes, start.elapsed().as_secs_f64());
        out
    }

    /// Snapshot of the per-collective counters accumulated so far on the
    /// *whole fabric* this communicator belongs to (all communicators,
    /// all ranks), sorted by (communicator id, op) for determinism. The
    /// world communicator is id 0; `split` children get fresh ids.
    pub fn collective_stats(&self) -> Vec<CollectiveRecord> {
        self.group.fabric.stats_snapshot()
    }

    /// Synchronize all ranks (gather-to-0 + broadcast of unit).
    pub fn barrier(&self) {
        self.timed(CollectiveOp::Barrier, 0, || self.barrier_impl());
    }

    fn barrier_impl(&self) {
        if self.me == 0 {
            for src in 1..self.size() {
                let () = self.recv_internal(src, TAG_BARRIER);
            }
            for dst in 1..self.size() {
                self.send_internal(dst, TAG_BARRIER, ());
            }
        } else {
            self.send_internal(0, TAG_BARRIER, ());
            let () = self.recv_internal(0, TAG_BARRIER);
        }
    }

    /// Broadcast `value` from `root` to every rank; returns the value on
    /// all ranks.
    pub fn bcast<T: Send + Clone + 'static>(&self, root: usize, value: Option<T>) -> T {
        self.timed(CollectiveOp::Bcast, std::mem::size_of::<T>() as u64, || {
            self.bcast_impl(root, value)
        })
    }

    fn bcast_impl<T: Send + Clone + 'static>(&self, root: usize, value: Option<T>) -> T {
        if self.me == root {
            let v = value.expect("root must supply the broadcast value");
            for dst in 0..self.size() {
                if dst != root {
                    self.send_internal(dst, TAG_BCAST, v.clone());
                }
            }
            v
        } else {
            self.recv_internal(root, TAG_BCAST)
        }
    }

    /// Gather one value per rank to `root` (None on non-roots).
    pub fn gather<T: Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        self.timed(
            CollectiveOp::Gather,
            std::mem::size_of::<T>() as u64,
            || self.gather_impl(root, value),
        )
    }

    fn gather_impl<T: Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        if self.me == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(value);
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = Some(self.recv_internal(src, TAG_GATHER));
                }
            }
            Some(out.into_iter().map(Option::unwrap).collect())
        } else {
            self.send_internal(root, TAG_GATHER, value);
            None
        }
    }

    /// Gather one value per rank to every rank.
    pub fn allgather<T: Send + Clone + 'static>(&self, value: T) -> Vec<T> {
        self.timed(
            CollectiveOp::Allgather,
            std::mem::size_of::<T>() as u64,
            || self.allgather_impl(value),
        )
    }

    fn allgather_impl<T: Send + Clone + 'static>(&self, value: T) -> Vec<T> {
        let gathered = self.gather_impl(0, value);
        self.bcast_impl(0, gathered)
    }

    /// Variable-length all-gather (`MPI_Allgatherv`): each rank contributes
    /// a vector (lengths may differ per rank, including empty); every rank
    /// receives the concatenation in rank order.
    pub fn allgather_vec<T: Send + Clone + 'static>(&self, value: Vec<T>) -> Vec<T> {
        let bytes = (value.len() * std::mem::size_of::<T>()) as u64;
        self.timed(CollectiveOp::AllgatherVec, bytes, || {
            let parts = self.allgather_impl(value);
            parts.into_iter().flatten().collect()
        })
    }

    /// Scatter one value per rank from `root` (which supplies `size()`
    /// values in rank order; non-roots pass `None`). Returns this rank's
    /// value on every rank.
    pub fn scatter<T: Send + 'static>(&self, root: usize, values: Option<Vec<T>>) -> T {
        self.timed(
            CollectiveOp::Scatter,
            std::mem::size_of::<T>() as u64,
            || self.scatter_impl(root, values),
        )
    }

    fn scatter_impl<T: Send + 'static>(&self, root: usize, values: Option<Vec<T>>) -> T {
        if self.me == root {
            let values = values.expect("root must supply the scatter values");
            assert_eq!(
                values.len(),
                self.size(),
                "scatter needs exactly one value per rank"
            );
            let mut mine = None;
            for (dst, v) in values.into_iter().enumerate() {
                if dst == root {
                    mine = Some(v);
                } else {
                    self.send_internal(dst, TAG_SCATTER, v);
                }
            }
            mine.expect("root owns one scatter slot")
        } else {
            self.recv_internal(root, TAG_SCATTER)
        }
    }

    /// Reduce with a binary op to `root` (None on non-roots).
    pub fn reduce<T, F>(&self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Send + 'static,
        F: Fn(T, T) -> T,
    {
        self.timed(
            CollectiveOp::Reduce,
            std::mem::size_of::<T>() as u64,
            || self.reduce_impl(root, value, op),
        )
    }

    fn reduce_impl<T, F>(&self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Send + 'static,
        F: Fn(T, T) -> T,
    {
        self.gather_impl(root, value)
            .map(|vs| vs.into_iter().reduce(&op).expect("non-empty communicator"))
    }

    /// Allreduce with a binary op.
    pub fn allreduce<T, F>(&self, value: T, op: F) -> T
    where
        T: Send + Clone + 'static,
        F: Fn(T, T) -> T,
    {
        self.timed(
            CollectiveOp::Allreduce,
            std::mem::size_of::<T>() as u64,
            || self.allreduce_impl(value, op),
        )
    }

    fn allreduce_impl<T, F>(&self, value: T, op: F) -> T
    where
        T: Send + Clone + 'static,
        F: Fn(T, T) -> T,
    {
        let reduced = self.reduce_impl(0, value, op);
        self.bcast_impl(0, reduced)
    }

    /// Sum-allreduce for f64 (the most common physics reduction).
    /// Recorded under [`CollectiveOp::Allreduce`].
    pub fn allreduce_sum(&self, value: f64) -> f64 {
        self.allreduce(value, |a, b| a + b)
    }

    /// Element-wise sum-allreduce for vectors. This is the hot collective
    /// of the sharded MESH/SCF drivers, so it gets its own counter row
    /// ([`CollectiveOp::AllreduceSumVec`]) with real payload bytes —
    /// the α/β calibration fit reads exactly this row.
    pub fn allreduce_sum_vec(&self, value: Vec<f64>) -> Vec<f64> {
        let bytes = (value.len() * std::mem::size_of::<f64>()) as u64;
        self.timed(CollectiveOp::AllreduceSumVec, bytes, || {
            self.allreduce_impl(value, |mut a, b| {
                assert_eq!(a.len(), b.len(), "allreduce_sum_vec length mismatch");
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            })
        })
    }

    /// `MPI_Comm_split`: ranks with equal `color` form a new communicator,
    /// ordered by `(key, parent rank)`. Collective over the parent.
    pub fn split(&self, color: u64, key: u64) -> Comm {
        // The root builds every child communicator and hands each member
        // its own handle. Uses the raw impls: split's internal plumbing
        // must not show up in the per-collective counters.
        let fabric = &self.group.fabric;
        let handles = self.gather_impl(0, (color, key)).map(|all| {
            let mut order: Vec<usize> = (0..all.len()).collect();
            order.sort_by_key(|&r| (all[r], r));
            let mut handles: Vec<Option<Comm>> = (0..all.len()).map(|_| None).collect();
            for run in order.chunk_by(|&a, &b| all[a].0 == all[b].0) {
                let id = fabric.comm_ids.fetch_add(1, Ordering::Relaxed);
                let group = Group::new(fabric, id, run.len());
                for (me, &r) in run.iter().enumerate() {
                    handles[r] = Some(Comm {
                        group: Arc::clone(&group),
                        me,
                    });
                }
            }
            handles.into_iter().map(Option::unwrap).collect()
        });
        self.scatter_impl(0, handles)
    }

    /// Number of communicators with at least one live handle (diagnostic;
    /// lets tests pin that dropped communicators are reclaimed rather
    /// than leaked).
    pub fn fabric_live_comm_count(&self) -> usize {
        self.group.fabric.live.load(Ordering::Relaxed)
    }
}

/// The launcher: spawns `n` ranks as threads and runs `f` on each.
pub struct World;

impl World {
    /// Run an SPMD region on `n` ranks; returns each rank's result, indexed
    /// by rank. The recv-stall limit is [`default_recv_stall`] (60 s, or
    /// the [`RECV_STALL_ENV`] override).
    pub fn run<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        Self::run_with_stall(n, default_recv_stall(), f)
    }

    /// [`Self::run`] with an explicit recv-stall limit for this world —
    /// how tests pin the stall diagnostics without waiting a minute, and
    /// how embedders with known-slow root-side compute raise the limit
    /// programmatically.
    pub fn run_with_stall<R, F>(n: usize, stall: Duration, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        let fabric = Arc::new(Fabric::with_stall(stall));
        Self::run_on_fabric(&fabric, n, f)
    }

    /// [`Self::run`] that additionally returns the fabric's per-collective
    /// counters accumulated over the whole world — the measurement side of
    /// the exasim calibration loop. Rows are sorted by (communicator id,
    /// op); the world communicator is id 0.
    pub fn run_probed<R, F>(n: usize, f: F) -> (Vec<R>, Vec<CollectiveRecord>)
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        let fabric = Arc::new(Fabric::with_stall(default_recv_stall()));
        let results = Self::run_on_fabric(&fabric, n, f);
        let stats = fabric.stats_snapshot();
        (results, stats)
    }

    fn run_on_fabric<R, F>(fabric: &Arc<Fabric>, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        assert!(n > 0, "world must have at least one rank");
        let group = Group::new(fabric, 0, n);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for rank in 0..n {
                let comm = Comm {
                    group: Arc::clone(&group),
                    me: rank,
                };
                let f = &f;
                handles.push(scope.spawn(move || f(comm)));
            }
            for (rank, h) in handles.into_iter().enumerate() {
                results[rank] = Some(h.join().expect("rank panicked"));
            }
        });
        results.into_iter().map(Option::unwrap).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_runs_all_ranks() {
        let out = World::run(6, |c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn point_to_point_ring() {
        let n = 5;
        let out = World::run(n, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 7, c.rank());
            c.recv::<usize>(prev, 7)
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn messages_are_ordered_per_pair() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                for i in 0..100u64 {
                    c.send(1, i, i);
                }
                0
            } else {
                let mut sum = 0;
                for i in 0..100u64 {
                    sum += c.recv::<u64>(0, i);
                }
                sum
            }
        });
        assert_eq!(out[1], 4950);
    }

    #[test]
    fn allreduce_sum_matches_serial() {
        let n = 7;
        let out = World::run(n, |c| c.allreduce_sum((c.rank() + 1) as f64));
        let expect = (1..=n).sum::<usize>() as f64;
        for v in out {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn allreduce_vec() {
        let out = World::run(4, |c| c.allreduce_sum_vec(vec![c.rank() as f64; 3]));
        for v in out {
            assert_eq!(v, vec![6.0, 6.0, 6.0]);
        }
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        let out = World::run(5, |c| c.allgather(c.rank() as u32 * 2));
        for v in out {
            assert_eq!(v, vec![0, 2, 4, 6, 8]);
        }
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let out = World::run(4, |c| {
            let v = if c.rank() == 2 { Some(99u8) } else { None };
            c.bcast(2, v)
        });
        assert_eq!(out, vec![99, 99, 99, 99]);
    }

    #[test]
    fn gather_only_root_sees_values() {
        let out = World::run(3, |c| c.gather(1, c.rank() as i64).map(|v| v.len()));
        assert_eq!(out, vec![None, Some(3), None]);
    }

    #[test]
    fn reduce_with_max() {
        let out = World::run(6, |c| c.allreduce((c.rank() * 7 % 5) as u64, u64::max));
        for v in out {
            assert_eq!(v, 4);
        }
    }

    #[test]
    fn barrier_does_not_deadlock() {
        let out = World::run(8, |c| {
            for _ in 0..10 {
                c.barrier();
            }
            true
        });
        assert!(out.into_iter().all(|b| b));
    }

    #[test]
    fn split_into_domains() {
        // 6 ranks → 3 domains of 2 ranks each (the DC-MESH pattern).
        let out = World::run(6, |c| {
            let domain = (c.rank() / 2) as u64;
            let sub = c.split(domain, c.rank() as u64);
            // Sum ranks within each domain.
            let s = sub.allreduce_sum(c.rank() as f64);
            (sub.size(), sub.rank(), s)
        });
        assert_eq!(out[0], (2, 0, 1.0)); // domain 0: ranks 0+1
        assert_eq!(out[1], (2, 1, 1.0));
        assert_eq!(out[2], (2, 0, 5.0)); // domain 1: ranks 2+3
        assert_eq!(out[5], (2, 1, 9.0)); // domain 2: ranks 4+5
    }

    #[test]
    fn split_key_controls_ordering() {
        // Reverse ordering via key.
        let out = World::run(4, |c| {
            let sub = c.split(0, (c.size() - c.rank()) as u64);
            sub.rank()
        });
        assert_eq!(out, vec![3, 2, 1, 0]);
    }

    #[test]
    fn nested_split_band_space() {
        // 8 ranks → 2 domains × (2 bands × 2 spatial) hierarchy.
        let out = World::run(8, |c| {
            let domain = c.split((c.rank() / 4) as u64, c.rank() as u64);
            let band = domain.split((domain.rank() / 2) as u64, domain.rank() as u64);
            (domain.size(), band.size(), band.allreduce_sum(1.0))
        });
        for v in out {
            assert_eq!(v, (4, 2, 2.0));
        }
    }

    #[test]
    fn user_tags_near_reserved_range_no_longer_corrupt_collectives() {
        // Regression: collectives used to claim tags u64::MAX-1..=u64::MAX-4
        // on the same channels as user traffic, so a user send in that range
        // panicked the next barrier/gather with a bogus "tag mismatch".
        // Collective traffic now owns the high tag bit; every user tag below
        // it — including the largest, COLLECTIVE_TAG_BIT - 1 — coexists with
        // any interleaving of collectives.
        let out = World::run(4, |c| {
            let big = COLLECTIVE_TAG_BIT - 1;
            if c.rank() == 0 {
                c.send(1, big, 123u64);
            }
            c.barrier();
            let got = if c.rank() == 1 {
                c.recv::<u64>(0, big)
            } else {
                123
            };
            let sum = c.allreduce_sum(got as f64);
            c.barrier();
            sum
        });
        for v in out {
            assert_eq!(v, 4.0 * 123.0);
        }
    }

    /// Run `op` on a single-rank world and return the panic message it
    /// dies with. (A panicking rank must not leave peers blocked in a
    /// collective — the scoped join would hang — so rejection tests use
    /// one rank and catch the unwind inside it.)
    fn panic_message_of(op: impl Fn(&Comm) + Sync) -> String {
        let mut out = World::run(1, |c| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op(&c)))
                .expect_err("operation must panic");
            err.downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        });
        out.swap_remove(0)
    }

    #[test]
    fn user_send_with_reserved_tag_is_rejected_eagerly() {
        // The old collective tags (u64::MAX-1 etc.) set the high bit; a user
        // send with such a tag now fails at the send site with a clear
        // message instead of corrupting a later collective.
        let msg = panic_message_of(|c| c.send(0, u64::MAX - 1, ()));
        assert!(msg.contains("reserved collective bit"), "got: {msg}");
    }

    #[test]
    fn user_recv_with_reserved_tag_is_rejected_eagerly() {
        let msg = panic_message_of(|c| {
            let () = c.recv(0, COLLECTIVE_TAG_BIT | 7);
        });
        assert!(msg.contains("reserved collective bit"), "got: {msg}");
    }

    #[test]
    fn pending_user_message_does_not_poison_a_collective() {
        // Tag matching: a user send that has not been consumed yet must be
        // skipped past (and kept) by collective recvs on the same channel,
        // then still be deliverable afterwards in FIFO order.
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 5, 1.0f64);
                c.send(1, 5, 2.0f64);
            }
            // Collectives between the sends and the matching recvs.
            c.barrier();
            let s = c.allreduce_sum(1.0);
            if c.rank() == 1 {
                let a: f64 = c.recv(0, 5);
                let b: f64 = c.recv(0, 5);
                s + 10.0 * a + 100.0 * b
            } else {
                s
            }
        });
        assert_eq!(out[0], 2.0);
        assert_eq!(out[1], 2.0 + 10.0 + 200.0);
    }

    #[test]
    fn dropped_split_comms_release_their_channels() {
        // Regression: the fabric only ever grew — every split allocated
        // fresh communicators that were never reclaimed, so drivers that
        // split per step leaked without bound.
        let out = World::run(4, |c| {
            let mut counts = Vec::new();
            for step in 0..10u64 {
                let sub = c.split((c.rank() % 2) as u64, c.rank() as u64);
                sub.allreduce_sum(step as f64);
                drop(sub);
                // Every rank drops its handle before entering the barrier,
                // so after it the sub-communicators are fully retired.
                c.barrier();
                counts.push(c.fabric_live_comm_count());
            }
            counts
        });
        for counts in out {
            assert!(
                counts.iter().all(|&live| live == 1),
                "only the world comm may stay live: {counts:?}"
            );
        }
    }

    #[test]
    fn long_lived_split_keeps_its_channels() {
        // The reclamation must not be over-eager: while any rank still holds
        // a handle, traffic keeps flowing.
        let out = World::run(4, |c| {
            let sub = c.split((c.rank() / 2) as u64, c.rank() as u64);
            c.barrier();
            let live_with_subs = c.fabric_live_comm_count();
            // Everyone must have measured before any group may drop.
            c.barrier();
            let s = sub.allreduce_sum(1.0);
            drop(sub);
            c.barrier();
            (live_with_subs, c.fabric_live_comm_count(), s)
        });
        for (with_subs, after, s) in out {
            assert_eq!(with_subs, 3, "world + two live sub-communicators");
            assert_eq!(after, 1);
            assert_eq!(s, 2.0);
        }
    }

    #[test]
    fn sub_second_stall_timeout_still_reports_stashed_tags() {
        // The stall limit is configurable per world (env:
        // MLMD_RECV_STALL_SECS, or run_with_stall). A world with a
        // 50 ms limit must fail fast AND keep the full diagnostics: the
        // waited-for tag and, in ascending order, the tags still pending
        // from that source.
        let mut out = World::run_with_stall(1, std::time::Duration::from_millis(50), |c| {
            c.send(0, 7, 41u64); // never consumed under its own tag
            c.send(0, 3, 42u64); // nor this one, sent after it
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _: u64 = c.recv(0, 8);
            }))
            .expect_err("recv with no matching envelope must stall-panic");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        });
        let msg = out.swap_remove(0);
        assert!(msg.contains("recv stalled"), "got: {msg}");
        assert!(msg.contains("for tag 0x8"), "got: {msg}");
        assert!(
            msg.contains("stashed tags from that source: [3, 7]"),
            "the pending tag-3 and tag-7 envelopes must be reported in order: {msg}"
        );
        assert!(
            msg.contains("50ms"),
            "the configured limit must be named: {msg}"
        );
    }

    #[test]
    fn scatter_delivers_one_value_per_rank() {
        let out = World::run(5, |c| {
            let values = (c.rank() == 2).then(|| (0..5).map(|r| r * r).collect::<Vec<_>>());
            c.scatter(2, values)
        });
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn allgather_vec_concatenates_ragged_parts_in_rank_order() {
        // Ranks contribute 0, 1, 2, 3 elements — the non-divisible band
        // panel shape of the DC-MESH hierarchy.
        let out = World::run(4, |c| {
            let mine: Vec<u32> = (0..c.rank() as u32)
                .map(|i| c.rank() as u32 * 10 + i)
                .collect();
            c.allgather_vec(mine)
        });
        for v in out {
            assert_eq!(v, vec![10, 20, 21, 30, 31, 32]);
        }
    }

    fn stats_for(rows: &[CollectiveRecord], comm: u64, op: CollectiveOp) -> OpStats {
        rows.iter()
            .find(|r| r.comm == comm && r.op == op)
            .map(|r| r.stats)
            .unwrap_or_default()
    }

    #[test]
    fn probed_world_counts_each_collective_once_per_rank() {
        let n = 4;
        let (_, rows) = World::run_probed(n, |c| {
            c.barrier();
            c.allreduce_sum_vec(vec![0.0; 8]);
            c.allreduce_sum_vec(vec![0.0; 8]);
            let _ = c.allgather_vec(vec![c.rank() as u32; 2]);
            let _ = c.bcast(0, (c.rank() == 0).then_some(7u64));
            let _ = c.scatter(0, (c.rank() == 0).then(|| vec![1u8; 4]));
        });
        let arv = stats_for(&rows, 0, CollectiveOp::AllreduceSumVec);
        assert_eq!(arv.ops, 2 * n as u64, "2 calls × {n} ranks");
        assert_eq!(arv.bytes, 2 * n as u64 * 8 * 8);
        assert!(arv.wall_secs > 0.0);
        assert_eq!(stats_for(&rows, 0, CollectiveOp::Barrier).ops, n as u64);
        assert_eq!(stats_for(&rows, 0, CollectiveOp::Bcast).ops, n as u64);
        assert_eq!(stats_for(&rows, 0, CollectiveOp::Scatter).ops, n as u64);
        let agv = stats_for(&rows, 0, CollectiveOp::AllgatherVec);
        assert_eq!(agv.ops, n as u64);
        assert_eq!(agv.bytes, n as u64 * 2 * 4);
        // No double counting: composite collectives must not leak records
        // for the primitives they are built from.
        assert_eq!(stats_for(&rows, 0, CollectiveOp::Gather).ops, 0);
        assert_eq!(stats_for(&rows, 0, CollectiveOp::Reduce).ops, 0);
        assert_eq!(stats_for(&rows, 0, CollectiveOp::Allreduce).ops, 0);
    }

    #[test]
    fn split_plumbing_is_not_counted_and_children_get_own_rows() {
        let (_, rows) = World::run_probed(4, |c| {
            let sub = c.split((c.rank() / 2) as u64, c.rank() as u64);
            sub.allreduce_sum(1.0);
        });
        // split's internal gather/bcast plumbing is invisible ...
        assert_eq!(stats_for(&rows, 0, CollectiveOp::Gather).ops, 0);
        assert_eq!(stats_for(&rows, 0, CollectiveOp::Bcast).ops, 0);
        // ... while the child communicators' own collectives are charged
        // to their fresh (non-zero) communicator ids.
        let child_allreduce: u64 = rows
            .iter()
            .filter(|r| r.comm != 0 && r.op == CollectiveOp::Allreduce)
            .map(|r| r.stats.ops)
            .sum();
        assert_eq!(child_allreduce, 4, "2 children × 2 ranks each");
    }

    #[test]
    fn collective_stats_visible_from_inside_the_world() {
        let out = World::run(2, |c| {
            c.barrier();
            // A rank records *after* leaving the collective body, so the
            // first barrier's peer record only becomes guaranteed once a
            // second barrier has synchronized past it.
            c.barrier();
            let rows = c.collective_stats();
            stats_for(&rows, 0, CollectiveOp::Barrier).ops
        });
        for ops in out {
            // Both ranks' first-barrier records, own second-barrier record,
            // peer's second-barrier record only if it won the race.
            assert!((3..=4).contains(&ops), "got {ops}");
        }
    }

    #[test]
    fn mean_wall_is_total_over_ops() {
        let s = OpStats {
            ops: 4,
            bytes: 0,
            wall_secs: 2.0,
        };
        assert_eq!(s.mean_wall_secs(), 0.5);
        assert_eq!(OpStats::default().mean_wall_secs(), 0.0);
    }

    #[test]
    fn typed_messages_of_various_kinds() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![1.0f64, 2.0, 3.0]);
                c.send(1, 2, String::from("occupations"));
                c.send(1, 3, (42usize, 2.5f64));
                0.0
            } else {
                let v: Vec<f64> = c.recv(0, 1);
                let s: String = c.recv(0, 2);
                let (a, b): (usize, f64) = c.recv(0, 3);
                v.iter().sum::<f64>() + s.len() as f64 + a as f64 + b
            }
        });
        assert_eq!(out[1], 6.0 + 11.0 + 42.0 + 2.5);
    }

    #[test]
    fn lock_recovers_a_poisoned_mutex() {
        let m = Mutex::new(5);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison the mutex");
        }));
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 6);
    }
}
