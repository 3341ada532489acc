//! The multi-tenant job scheduler.
//!
//! ```text
//! clients ── submit(spec) ──▶ admission control (bounded queue)
//!                │                    │
//!                │  identical key     ▼
//!                ├─▶ dedup group   priority bands (High ▸ Normal ▸ Low)
//!                │   (followers)   round-robin across tenants per band
//!                │                    │
//!                ▼                    ▼
//!            JobHandle ◀── events ── worker threads ──▶ engine runs on
//!            (stream, wait,          (CancelToken,      the shared
//!             cancel)                 ProgressObserver)  work-stealing pool
//! ```
//!
//! Semantics, precisely:
//!
//! * **Admission**: `submit` fails with [`SubmitError::QueueFull`] once
//!   `queue_capacity` jobs are queued — backpressure, never unbounded
//!   memory. Dedup followers coalesce onto an existing execution and so
//!   do not consume queue slots.
//! * **Planning** (when [`ServiceConfig::planner`] is set): every
//!   submission is costed ahead of time by the calibrated
//!   [`Planner`], as the in-process batch [`JobSpec::run`] executes —
//!   a job whose prediction exceeds the planner's limits (or is not
//!   finite) is refused with [`SubmitError::PlanRejected`]
//!   before it can occupy a queue slot; an admitted job carries its
//!   [`Prediction`] (see [`JobHandle::plan`]) and, when predicted longer
//!   than `batch_threshold_secs`, is demoted one priority band so batch
//!   work cannot crowd interactive requests. Workers measure actual
//!   wall-clock, and [`MetricsSnapshot`] reports the running
//!   predicted-vs-actual totals — the feedback that keeps the
//!   calibration honest.
//! * **Fairness**: within a priority band the queue serves tenants
//!   round-robin (one job per turn), so a tenant submitting 100 jobs
//!   cannot starve a tenant submitting 1. Bands are strict: High drains
//!   before Normal before Low.
//! * **Dedup**: a submission whose [`JobSpec::dedup_key`] matches a
//!   queued or running job attaches to that job's group; exactly one
//!   execution runs and every member receives the shared result. Members
//!   see a [`JobEvent::Deduped`] naming the primary whose stream carries
//!   the progress events.
//! * **Cancellation** is cooperative and lands on step boundaries.
//!   Cancelling a *queued* job resolves it immediately (`Unstarted`, no
//!   execution); cancelling a *running* job fires its [`CancelToken`]
//!   and the result carries the partial trace. Cancelling a dedup
//!   primary cancels the group's single execution — followers share its
//!   fate; cancelling a follower detaches only that follower.
//! * **Resolution**: the scheduler has one lock, the queue's. Every job
//!   resolves exactly once, in `settle`, under that lock — whether a
//!   worker finished it or a cancel found it queued — and always in the
//!   same order: the counters move, then the terminal events go out, then
//!   `wait()` returns and `status()` turns terminal.
//! * **Shutdown**: [`Scheduler::shutdown`] stops admission, drains the
//!   queue, and joins the workers. Dropping the scheduler instead
//!   cancels all outstanding work first, so a drop never hangs on a
//!   long-running job and no `wait()` caller is left dangling.

use crate::job::{JobOutput, JobResult, JobSpec, Priority};
use crate::progress::{EventSink, JobEvent, JobId};
use mlmd_core::engine::{CancelToken, SampleStride};
use mlmd_exasim::planner::{PlanVerdict, Planner, Prediction};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Service sizing and behavior knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads executing jobs (each run still fans out onto the
    /// shared work-stealing pool for its inner parallelism).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before `submit` pushes back
    /// with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Stride of streamed [`JobEvent::Progress`] events within each run.
    pub progress_stride: SampleStride,
    /// Coalesce submissions with identical dedup keys onto one
    /// execution. On by default.
    pub dedup: bool,
    /// Ahead-of-time admission planning: when set, every submission is
    /// costed against the planner's calibrated model and limits before
    /// it reaches the queue (see the module docs). `None` (the default)
    /// admits on queue capacity alone.
    pub planner: Option<Planner>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 256,
            progress_stride: SampleStride::default(),
            dedup: true,
            planner: None,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubmitError {
    /// The bounded queue is full — back off and retry (backpressure).
    QueueFull { capacity: usize },
    /// The planner's prediction for the job exceeds the admission
    /// limits — the verdict carries which limit and by how much. Resize
    /// the job (fewer steps, fewer runs) and resubmit; retrying
    /// unchanged can never succeed.
    PlanRejected(PlanVerdict),
    /// The scheduler is shutting down and no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "job queue full ({capacity} jobs queued)")
            }
            SubmitError::PlanRejected(verdict) => {
                write!(f, "planner refused the job: {verdict}")
            }
            SubmitError::ShuttingDown => write!(f, "scheduler is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Lifecycle of one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker (or for its dedup primary).
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; result available and not cancelled.
    Completed,
    /// Resolved by cancellation (possibly with a partial trace).
    Cancelled,
}

/// Shared per-job record: handles, queue entries, and dedup groups all
/// point at the same core.
struct JobCore {
    id: JobId,
    cancel: CancelToken,
    sink: EventSink,
    /// The planner's prediction, when admission planning is on. Dedup
    /// followers carry the same one as their primary (same spec, same
    /// prediction).
    plan: Option<Prediction>,
    /// Set under the queue lock when a worker pops the job.
    running: AtomicBool,
    /// The result, set once by [`SchedInner::settle`].
    output: OnceLock<Arc<JobOutput>>,
}

impl JobCore {
    fn new(id: JobId, sink: EventSink, plan: Option<Prediction>) -> Self {
        Self {
            id,
            cancel: CancelToken::new(),
            sink,
            plan,
            running: AtomicBool::new(false),
            output: OnceLock::new(),
        }
    }

    fn status(&self) -> JobStatus {
        match self.output.get() {
            Some(output) if output.cancelled => JobStatus::Cancelled,
            Some(_) => JobStatus::Completed,
            None if self.running.load(Ordering::Relaxed) => JobStatus::Running,
            None => JobStatus::Queued,
        }
    }

    /// Publish the result. The terminal events go out before the result
    /// becomes visible, so a `wait()`er that drains the event stream
    /// finds them.
    fn resolve(&self, output: &Arc<JobOutput>) {
        self.output.get_or_init(|| {
            let (id, cancelled) = (self.id, output.cancelled);
            if cancelled {
                self.sink.emit(JobEvent::Cancelled { id });
            }
            self.sink.emit(JobEvent::Completed { id, cancelled });
            Arc::clone(output)
        });
    }
}

fn unstarted_cancelled() -> Arc<JobOutput> {
    Arc::new(JobOutput {
        result: JobResult::Unstarted,
        cancelled: true,
        steps_done: 0,
    })
}

/// One queued execution (a dedup group's primary).
struct QueueEntry {
    core: Arc<JobCore>,
    spec: JobSpec,
    key: u64,
}

struct TenantQueue {
    tenant: String,
    jobs: VecDeque<QueueEntry>,
}

/// One priority band: per-tenant FIFOs served round-robin.
#[derive(Default)]
struct Band {
    tenants: Vec<TenantQueue>,
    cursor: usize,
}

impl Band {
    fn push(&mut self, tenant: &str, entry: QueueEntry) {
        match self.tenants.iter_mut().find(|t| t.tenant == tenant) {
            Some(t) => t.jobs.push_back(entry),
            None => self.tenants.push(TenantQueue {
                tenant: tenant.to_string(),
                jobs: VecDeque::from([entry]),
            }),
        }
    }

    /// Serve the tenant at the cursor, round-robin. Every queue in
    /// `tenants` is non-empty: a tenant is dropped when its last job is
    /// popped, and the cursor then already points at the tenant after it.
    fn pop(&mut self) -> Option<QueueEntry> {
        let i = self.cursor;
        let jobs = &mut self.tenants.get_mut(i)?.jobs;
        let entry = jobs.pop_front();
        if jobs.is_empty() {
            self.tenants.remove(i);
        } else {
            self.cursor += 1;
        }
        if self.cursor >= self.tenants.len() {
            self.cursor = 0;
        }
        entry
    }
}

/// An in-flight dedup group: the primary's execution plus the followers
/// waiting to share its result.
struct DedupGroup {
    primary: Arc<JobCore>,
    followers: Vec<Arc<JobCore>>,
}

struct QueueState {
    bands: [Band; 3],
    /// Queued (not yet popped) executions, dead entries included.
    queued: usize,
    accepting: bool,
    /// dedup key → in-flight group (queued or running primary).
    groups: HashMap<u64, DedupGroup>,
    /// Every unresolved job, for drop-time cancellation.
    active: HashMap<JobId, Arc<JobCore>>,
    /// Scheduler-wide event subscribers, attached to every later job.
    subscribers: Vec<Sender<JobEvent>>,
    next_id: u64,
}

#[derive(Default)]
struct Metrics {
    submitted: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    dedup_hits: AtomicU64,
    executed: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    peak_queued: AtomicU64,
    planned: AtomicU64,
    plan_rejected: AtomicU64,
    demoted: AtomicU64,
    /// Wall-clock totals in microseconds (atomics carry no f64).
    predicted_us: AtomicU64,
    actual_us: AtomicU64,
}

/// A point-in-time copy of the service counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsSnapshot {
    /// Submission attempts (admitted + deduped + rejected).
    pub submitted: u64,
    /// Executions admitted into the queue.
    pub admitted: u64,
    /// Submissions pushed back with `QueueFull`.
    pub rejected: u64,
    /// Submissions coalesced onto an identical in-flight job.
    pub dedup_hits: u64,
    /// Executions a worker actually ran.
    pub executed: u64,
    /// Jobs resolved successfully.
    pub completed: u64,
    /// Jobs resolved by cancellation.
    pub cancelled: u64,
    /// High-water mark of the queue.
    pub peak_queued: u64,
    /// Submissions the planner costed and accepted.
    pub planned: u64,
    /// Submissions refused with [`SubmitError::PlanRejected`].
    pub plan_rejected: u64,
    /// Planned jobs demoted one priority band (predicted longer than
    /// the planner's `batch_threshold_secs`).
    pub demoted: u64,
    /// Planner-predicted wall-clock, summed over executed planned jobs (s).
    pub predicted_secs: f64,
    /// Measured wall-clock, summed over every executed job (s) — compare
    /// against `predicted_secs` to audit the calibration.
    pub actual_secs: f64,
}

struct SchedInner {
    config: ServiceConfig,
    queue: Mutex<QueueState>,
    available: Condvar,
    metrics: Metrics,
}

/// Client-side handle to a submitted job: status, cancellation, the
/// event stream, and the (shared) result.
pub struct JobHandle {
    core: Arc<JobCore>,
    inner: Arc<SchedInner>,
    events: Receiver<JobEvent>,
    key: u64,
    deduped: bool,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.core.id)
            .field("status", &self.core.status())
            .field("deduped", &self.deduped)
            .finish()
    }
}

impl JobHandle {
    pub fn id(&self) -> JobId {
        self.core.id
    }

    pub fn status(&self) -> JobStatus {
        self.core.status()
    }

    /// Was this submission coalesced onto an identical in-flight job?
    pub fn is_deduped(&self) -> bool {
        self.deduped
    }

    /// The planner's prediction for this job, when the scheduler was
    /// configured with one ([`ServiceConfig::planner`]). Dedup followers
    /// report the same prediction as their primary.
    pub fn plan(&self) -> Option<Prediction> {
        self.core.plan
    }

    /// This job's event stream (lifecycle + streamed progress).
    pub fn events(&self) -> &Receiver<JobEvent> {
        &self.events
    }

    /// Block until the job resolves; the result is shared (`Arc`) with
    /// any dedup followers.
    pub fn wait(&self) -> Arc<JobOutput> {
        Arc::clone(self.core.output.wait())
    }

    /// Request cancellation (see the module docs for the exact queued /
    /// running / dedup semantics). Idempotent.
    pub fn cancel(&self) {
        self.inner.cancel_job(&self.core, self.key);
    }
}

impl SchedInner {
    fn cancel_job(self: &Arc<Self>, core: &Arc<JobCore>, key: u64) {
        // Fire the token first: a running execution stops at its next
        // step boundary whatever else happens.
        core.cancel.cancel();
        let mut q = self.queue.lock().expect("scheduler queue poisoned");
        if core.output.get().is_some() || core.running.load(Ordering::Relaxed) {
            // Running executions resolve through their worker (with the
            // partial trace); resolved jobs keep their resolution.
            return;
        }
        // Queued: resolve immediately, never execute.
        let followers = match q.groups.get_mut(&key) {
            // Cancelling the group's one execution: followers share its
            // fate. The dead queue entry is skipped on pop.
            Some(group) if Arc::ptr_eq(&group.primary, core) => {
                q.groups.remove(&key).expect("group just found").followers
            }
            // A follower detaches alone; the execution lives on.
            Some(group) => {
                group.followers.retain(|f| !Arc::ptr_eq(f, core));
                Vec::new()
            }
            // Dedup off (or group already gone): solo queued job.
            None => Vec::new(),
        };
        // Resolve before releasing the queue lock: a worker popping the
        // entry in between would find it unresolved and run it.
        self.settle(
            &mut q,
            std::iter::once(core).chain(&followers),
            &unstarted_cancelled(),
        );
    }

    /// The one place a job resolves, always under the queue lock: each
    /// job leaves the active set, is counted, then resolves — so a
    /// `wait()`er already sees its job in the counters.
    fn settle<'a>(
        &self,
        q: &mut QueueState,
        jobs: impl IntoIterator<Item = &'a Arc<JobCore>>,
        output: &Arc<JobOutput>,
    ) {
        let counter = if output.cancelled {
            &self.metrics.cancelled
        } else {
            &self.metrics.completed
        };
        for job in jobs {
            q.active.remove(&job.id);
            counter.fetch_add(1, Ordering::Relaxed);
            job.resolve(output);
        }
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            let entry = {
                let mut q = self.queue.lock().expect("scheduler queue poisoned");
                loop {
                    if let Some(entry) = Self::pop(&mut q) {
                        if entry.core.output.get().is_some() {
                            // Dead entry (cancelled while queued).
                            continue;
                        }
                        // Mark running under the queue lock so a
                        // concurrent cancel sees a consistent status.
                        entry.core.running.store(true, Ordering::Relaxed);
                        break Some(entry);
                    }
                    if !q.accepting {
                        break None;
                    }
                    q = self.available.wait(q).expect("scheduler queue poisoned");
                }
            };
            let Some(entry) = entry else { return };
            entry
                .core
                .sink
                .emit(JobEvent::Started { id: entry.core.id });
            self.metrics.executed.fetch_add(1, Ordering::Relaxed);
            let run_started = Instant::now();
            let output = Arc::new(entry.spec.run(
                &entry.core.cancel,
                &entry.core.sink,
                entry.core.id,
                self.config.progress_stride,
            ));
            // Predicted-vs-actual accounting: actual wall-clock for every
            // execution, the plan's prediction when one was made.
            self.metrics
                .actual_us
                .fetch_add(run_started.elapsed().as_micros() as u64, Ordering::Relaxed);
            if let Some(plan) = &entry.core.plan {
                self.metrics
                    .predicted_us
                    .fetch_add((plan.predicted_secs * 1e6) as u64, Ordering::Relaxed);
            }
            // Detach the group and resolve primary + followers under one
            // lock hold: a follower's cancel finds it either still in the
            // group or already resolved.
            let mut q = self.queue.lock().expect("scheduler queue poisoned");
            let followers = q
                .groups
                .remove(&entry.key)
                .map_or_else(Vec::new, |group| group.followers);
            self.settle(
                &mut q,
                std::iter::once(&entry.core).chain(&followers),
                &output,
            );
        }
    }

    fn pop(q: &mut QueueState) -> Option<QueueEntry> {
        for band in &mut q.bands {
            if let Some(entry) = band.pop() {
                q.queued -= 1;
                return Some(entry);
            }
        }
        None
    }
}

/// The persistent simulation service (see the module docs).
///
/// # Example
///
/// ```
/// use mlmd_service::{JobSpec, Scheduler, ServiceConfig};
///
/// let scheduler = Scheduler::new(ServiceConfig {
///     workers: 1,
///     ..ServiceConfig::default()
/// });
/// let job = scheduler
///     .submit(JobSpec::fdtd_pulse(64, 0.2, 0.3, 25))
///     .expect("admitted");
/// let output = job.wait();
/// assert!(!output.cancelled);
/// assert_eq!(output.steps_done, 25);
/// scheduler.shutdown();
/// ```
pub struct Scheduler {
    inner: Arc<SchedInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Spawn the worker threads and open the queue.
    pub fn new(config: ServiceConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.queue_capacity > 0, "need a non-empty queue");
        let inner = Arc::new(SchedInner {
            config,
            queue: Mutex::new(QueueState {
                bands: [Band::default(), Band::default(), Band::default()],
                queued: 0,
                accepting: true,
                groups: HashMap::new(),
                active: HashMap::new(),
                subscribers: Vec::new(),
                next_id: 0,
            }),
            available: Condvar::new(),
            metrics: Metrics::default(),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mlmd-service-worker-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("failed to spawn service worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// Submit under the default tenant at normal priority.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.submit_for("default", Priority::Normal, spec)
    }

    /// Submit a job for `tenant` at `priority`.
    pub fn submit_for(
        &self,
        tenant: &str,
        priority: Priority,
        spec: JobSpec,
    ) -> Result<JobHandle, SubmitError> {
        let inner = &self.inner;
        inner.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        // Ahead-of-time planning: cost the job before it can touch the
        // queue. Pure arithmetic on the calibrated model — no lock held.
        let mut priority = priority;
        let mut plan = None;
        if let Some(planner) = &inner.config.planner {
            let (predicted, verdict) = planner.plan(&spec.plan_job());
            if !verdict.is_accept() {
                inner.metrics.plan_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::PlanRejected(verdict));
            }
            inner.metrics.planned.fetch_add(1, Ordering::Relaxed);
            if predicted.predicted_secs > planner.limits.batch_threshold_secs {
                let demoted = priority.demote();
                if demoted != priority {
                    inner.metrics.demoted.fetch_add(1, Ordering::Relaxed);
                    priority = demoted;
                }
            }
            plan = Some(predicted);
        }
        let key = spec.dedup_key();
        let mut q = inner.queue.lock().expect("scheduler queue poisoned");
        if !q.accepting {
            return Err(SubmitError::ShuttingDown);
        }
        let id = JobId(q.next_id);
        q.next_id += 1;
        let mut sink = EventSink::new();
        let events = sink.attach();
        for tx in &q.subscribers {
            sink.attach_sender(tx.clone());
        }
        // Dedup: coalesce onto an identical in-flight execution.
        if inner.config.dedup {
            if let Some(group) = q.groups.get_mut(&key) {
                let primary = group.primary.id;
                let core = Arc::new(JobCore::new(id, sink, plan));
                group.followers.push(Arc::clone(&core));
                q.active.insert(id, Arc::clone(&core));
                drop(q);
                inner.metrics.dedup_hits.fetch_add(1, Ordering::Relaxed);
                core.sink.emit(JobEvent::Queued { id });
                core.sink.emit(JobEvent::Deduped { id, primary });
                return Ok(JobHandle {
                    core,
                    inner: Arc::clone(inner),
                    events,
                    key,
                    deduped: true,
                });
            }
        }
        // Admission control: bounded queue, push back when full.
        if q.queued >= inner.config.queue_capacity {
            inner.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull {
                capacity: inner.config.queue_capacity,
            });
        }
        let core = Arc::new(JobCore::new(id, sink, plan));
        if inner.config.dedup {
            q.groups.insert(
                key,
                DedupGroup {
                    primary: Arc::clone(&core),
                    followers: Vec::new(),
                },
            );
        }
        q.active.insert(id, Arc::clone(&core));
        q.bands[priority as usize].push(
            tenant,
            QueueEntry {
                core: Arc::clone(&core),
                spec,
                key,
            },
        );
        q.queued += 1;
        let queued = q.queued as u64;
        drop(q);
        inner.metrics.admitted.fetch_add(1, Ordering::Relaxed);
        inner
            .metrics
            .peak_queued
            .fetch_max(queued, Ordering::Relaxed);
        core.sink.emit(JobEvent::Queued { id });
        inner.available.notify_one();
        Ok(JobHandle {
            core,
            inner: Arc::clone(inner),
            events,
            key,
            deduped: false,
        })
    }

    /// A scheduler-wide event stream carrying every event of every job
    /// submitted *after* this call — the live dashboard feed.
    pub fn subscribe(&self) -> Receiver<JobEvent> {
        let (tx, rx) = channel();
        self.inner
            .queue
            .lock()
            .expect("scheduler queue poisoned")
            .subscribers
            .push(tx);
        rx
    }

    /// Current service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        let m = &self.inner.metrics;
        MetricsSnapshot {
            submitted: m.submitted.load(Ordering::Relaxed),
            admitted: m.admitted.load(Ordering::Relaxed),
            rejected: m.rejected.load(Ordering::Relaxed),
            dedup_hits: m.dedup_hits.load(Ordering::Relaxed),
            executed: m.executed.load(Ordering::Relaxed),
            completed: m.completed.load(Ordering::Relaxed),
            cancelled: m.cancelled.load(Ordering::Relaxed),
            peak_queued: m.peak_queued.load(Ordering::Relaxed),
            planned: m.planned.load(Ordering::Relaxed),
            plan_rejected: m.plan_rejected.load(Ordering::Relaxed),
            demoted: m.demoted.load(Ordering::Relaxed),
            predicted_secs: m.predicted_us.load(Ordering::Relaxed) as f64 * 1e-6,
            actual_secs: m.actual_us.load(Ordering::Relaxed) as f64 * 1e-6,
        }
    }

    /// Stop admission, drain the queue, and join the workers. Queued
    /// jobs still execute; call this for a graceful end of service.
    pub fn shutdown(mut self) {
        self.close_and_join(false);
    }

    fn close_and_join(&mut self, cancel_outstanding: bool) {
        {
            let mut q = self.inner.queue.lock().expect("scheduler queue poisoned");
            q.accepting = false;
            if cancel_outstanding {
                for core in q.active.values() {
                    core.cancel.cancel();
                }
            }
        }
        self.inner.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    /// Dropping the service cancels outstanding work (cooperatively, at
    /// step boundaries) and joins the workers — every `wait()` caller
    /// still gets a resolution, with `cancelled: true` and whatever
    /// partial trace existed.
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.close_and_join(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fdtd(n_steps: usize, omega_tag: f64) -> JobSpec {
        // omega_tag varies the dedup key so tests control coalescing.
        JobSpec::fdtd_pulse(48, 0.2, omega_tag, n_steps)
    }

    /// A job slow enough to still be running when a test cancels it:
    /// per-step cost scales with the grid, so a wide grid makes each
    /// step milliseconds while the trace stays small (16 B/record).
    fn slow_blocker(omega_tag: f64) -> JobSpec {
        JobSpec::fdtd_pulse(100_000, 0.2, omega_tag, 20_000)
    }

    /// Submit a [`slow_blocker`] and block until a worker is inside it,
    /// so whatever is submitted next is ordered by the queue alone.
    fn stall_worker(s: &Scheduler, omega_tag: f64) -> JobHandle {
        let blocker = s.submit(slow_blocker(omega_tag)).unwrap();
        while !matches!(
            blocker.events().recv().expect("blocker resolved unstarted"),
            JobEvent::Started { .. }
        ) {}
        blocker
    }

    fn one_worker() -> Scheduler {
        Scheduler::new(ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            progress_stride: SampleStride::EVERY,
            dedup: true,
            planner: None,
        })
    }

    /// A synthetic fit with deterministic constants — admission decisions
    /// must not depend on this host's actual speed.
    fn test_planner() -> Planner {
        use mlmd_exasim::calibrate::Calibration;
        use mlmd_exasim::Machine;
        let cal = Calibration {
            alpha: 2.0e-6,
            beta: 5.0e-11,
            mesh_step: 0.010,
            n_qd: 30.0,
            construct_cold: 0.008,
            construct_warm: 0.0008,
            md_atom_step: 2.0e-7,
            fdtd_cell_step: 4.0e-9,
        };
        Planner::new(Machine::from_calibration(&cal), cal)
    }

    fn planned_scheduler(planner: Planner) -> Scheduler {
        Scheduler::new(ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            progress_stride: SampleStride::EVERY,
            dedup: true,
            planner: Some(planner),
        })
    }

    #[test]
    fn planner_gate_admits_annotates_and_rejects() {
        let s = planned_scheduler(test_planner());
        // A small job passes and carries its plan.
        let h = s.submit(fdtd(12, 0.33)).unwrap();
        let plan = h.plan().expect("planned scheduler annotates the job");
        assert!(plan.predicted_secs < 1.0);
        assert!(!h.wait().cancelled);
        // An oversized job (predicted ≫ max_wall_secs) is refused with
        // the typed verdict before touching the queue.
        let huge = JobSpec::fdtd_pulse(1_000_000, 0.2, 0.3, 100_000_000);
        let err = s.submit(huge).unwrap_err();
        let SubmitError::PlanRejected(verdict) = err else {
            panic!("expected PlanRejected, got {err:?}");
        };
        assert!(!verdict.is_accept());
        let m = s.metrics();
        assert_eq!(m.planned, 1);
        assert_eq!(m.plan_rejected, 1);
        assert_eq!(m.admitted, 1);
        assert!(m.actual_secs > 0.0, "worker measured the run");
        assert!(m.predicted_secs > 0.0, "prediction accumulated");
        s.shutdown();
    }

    #[test]
    fn long_jobs_are_demoted_to_the_batch_band() {
        let mut planner = test_planner();
        planner.limits.batch_threshold_secs = 1e-9; // everything is "long"
        planner.limits.max_wall_secs = f64::INFINITY;
        planner.limits.max_cost_rank_secs = f64::INFINITY;
        let s = planned_scheduler(planner);
        // Stall the worker so ordering is decided by the queue alone.
        let blocker = stall_worker(&s, 0.95);
        let rx = s.subscribe();
        // Every submission is predicted over the threshold, so each lands
        // one band down: High→Normal and Normal→Low.
        let a = s.submit_for("t", Priority::High, fdtd(3, 0.61)).unwrap();
        let b = s.submit_for("t", Priority::Normal, fdtd(3, 0.62)).unwrap();
        blocker.cancel();
        a.wait();
        b.wait();
        // High→Normal still outranks Normal→Low.
        let started: Vec<JobId> = rx
            .try_iter()
            .filter_map(|e| match e {
                JobEvent::Started { id } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(started, vec![a.id(), b.id()]);
        assert_eq!(s.metrics().demoted, 3, "blocker + both jobs demoted");
        s.shutdown();
    }

    #[test]
    fn dedup_followers_share_the_primary_plan() {
        let s = planned_scheduler(test_planner());
        let blocker = stall_worker(&s, 0.94);
        let first = s.submit(fdtd(30, 0.43)).unwrap();
        let second = s.submit(fdtd(30, 0.43)).unwrap();
        assert!(second.is_deduped());
        assert_eq!(
            first.plan().expect("primary planned"),
            second.plan().expect("follower carries the same plan")
        );
        blocker.cancel();
        first.wait();
        second.wait();
        s.shutdown();
    }

    #[test]
    fn jobs_complete_and_report_events() {
        let s = one_worker();
        let h = s.submit(fdtd(12, 0.31)).unwrap();
        let out = h.wait();
        assert!(!out.cancelled);
        assert_eq!(out.steps_done, 12);
        assert_eq!(h.status(), JobStatus::Completed);
        let events: Vec<JobEvent> = h.events().try_iter().collect();
        assert!(matches!(events.first(), Some(JobEvent::Queued { .. })));
        assert!(events.iter().any(|e| matches!(e, JobEvent::Started { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, JobEvent::Progress { step: 12, .. })));
        assert!(matches!(
            events.last(),
            Some(JobEvent::Completed {
                cancelled: false,
                ..
            })
        ));
        s.shutdown();
    }

    #[test]
    fn identical_jobs_coalesce_to_one_execution() {
        let s = one_worker();
        // Stall the single worker so the identical batch stays queued
        // long enough to coalesce deterministically.
        let blocker = s.submit(slow_blocker(0.99)).unwrap();
        let handles: Vec<JobHandle> = (0..8).map(|_| s.submit(fdtd(30, 0.41)).unwrap()).collect();
        assert!(!handles[0].is_deduped(), "first submission is the primary");
        assert!(handles[1..].iter().all(JobHandle::is_deduped));
        // Free the worker, then drain the batch.
        blocker.cancel();
        let outputs: Vec<_> = handles.iter().map(|h| h.wait()).collect();
        // One execution, one shared result.
        let m = s.metrics();
        assert_eq!(m.dedup_hits, 7);
        for out in &outputs[1..] {
            assert!(Arc::ptr_eq(&outputs[0], out), "result is shared, not rerun");
        }
        s.shutdown();
    }

    #[test]
    fn jobs_cancelled_while_queued_never_start() {
        // Submit-then-cancel races the one worker's pop: a cancel that
        // finds the job queued must resolve it before any worker can
        // pop it unresolved and run it.
        const N: usize = 2_000;
        let s = Scheduler::new(ServiceConfig {
            workers: 1,
            queue_capacity: N + 1,
            progress_stride: SampleStride::EVERY,
            dedup: false,
            planner: None,
        });
        let handles: Vec<JobHandle> = (0..N)
            .map(|_| {
                let h = s.submit(fdtd(2, 0.5)).unwrap();
                h.cancel();
                h
            })
            .collect();
        // The worker serves FIFO: once this completes, every earlier
        // entry has been popped and any execution of it has finished.
        assert!(!s.submit(fdtd(2, 0.5)).unwrap().wait().cancelled);
        for h in &handles {
            let unstarted = matches!(h.wait().result, JobResult::Unstarted);
            let started = h
                .events()
                .try_iter()
                .any(|e| matches!(e, JobEvent::Started { .. }));
            assert!(
                !(unstarted && started),
                "{} resolved unstarted yet started",
                h.id()
            );
        }
        let m = s.metrics();
        assert_eq!(m.cancelled + m.completed, N as u64 + 1);
        s.shutdown();
    }

    #[test]
    fn queue_full_pushes_back() {
        let s = Scheduler::new(ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            progress_stride: SampleStride::EVERY,
            dedup: false,
            planner: None,
        });
        // Occupy the worker, then fill the two queue slots.
        let blocker = stall_worker(&s, 0.98);
        let a = s.submit(fdtd(5, 0.11)).unwrap();
        let b = s.submit(fdtd(5, 0.12)).unwrap();
        let err = s.submit(fdtd(5, 0.13)).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { capacity: 2 });
        let m = s.metrics();
        assert_eq!(m.rejected, 1);
        assert_eq!(
            m.peak_queued, 2,
            "the gate bounds the queue's high-water mark"
        );
        blocker.cancel();
        assert!(blocker.wait().cancelled);
        assert!(!a.wait().cancelled);
        assert!(!b.wait().cancelled);
        s.shutdown();
    }

    #[test]
    fn priority_bands_and_tenant_fairness_order_execution() {
        let s = one_worker();
        // Stall the worker so the whole batch queues before any runs.
        let blocker = stall_worker(&s, 0.97);
        let rx = s.subscribe();
        // tenant A floods normal priority; tenant B submits one normal
        // job and one high-priority job.
        let a: Vec<JobHandle> = (0..3)
            .map(|i| {
                s.submit_for("alice", Priority::Normal, fdtd(3, 0.2 + i as f64 * 0.01))
                    .unwrap()
            })
            .collect();
        let b_normal = s
            .submit_for("bob", Priority::Normal, fdtd(3, 0.51))
            .unwrap();
        let b_high = s.submit_for("bob", Priority::High, fdtd(3, 0.52)).unwrap();
        blocker.cancel();
        for h in a.iter().chain([&b_normal, &b_high]) {
            h.wait();
        }
        let started: Vec<JobId> = rx
            .try_iter()
            .filter_map(|e| match e {
                JobEvent::Started { id } => Some(id),
                _ => None,
            })
            .collect();
        // High band first; then the normal band alternates tenants
        // (alice, bob, alice, alice) instead of draining alice's flood.
        assert_eq!(
            started,
            vec![b_high.id(), a[0].id(), b_normal.id(), a[1].id(), a[2].id()]
        );
        s.shutdown();
    }

    #[test]
    fn drained_tenants_leave_no_queue_behind() {
        // A long-running service sees many tenant names; a tenant whose
        // jobs have all been served must not keep a queue in its band.
        let s = one_worker();
        let handles: Vec<JobHandle> = (0..64)
            .map(|t| {
                let spec = fdtd(1, 0.3 + t as f64 * 1e-3);
                s.submit_for(&format!("tenant-{t}"), Priority::Normal, spec)
                    .unwrap()
            })
            .collect();
        for h in &handles {
            h.wait();
        }
        let queues: usize = {
            let q = s.inner.queue.lock().unwrap();
            q.bands.iter().map(|b| b.tenants.len()).sum()
        };
        s.shutdown();
        assert_eq!(queues, 0, "drained tenants must not keep their queues");
    }

    #[test]
    fn cancelling_queued_job_never_executes() {
        let s = one_worker();
        // The single worker must be inside the blocker before the victim
        // is queued, or cancelling the blocker below leaves `executed` 0.
        let blocker = stall_worker(&s, 0.96);
        let victim = s.submit(fdtd(50, 0.61)).unwrap();
        victim.cancel();
        let out = victim.wait();
        assert!(out.cancelled);
        assert!(matches!(out.result, JobResult::Unstarted));
        assert_eq!(victim.status(), JobStatus::Cancelled);
        let events: Vec<JobEvent> = victim.events().try_iter().collect();
        assert!(
            !events.iter().any(|e| matches!(e, JobEvent::Started { .. })),
            "a queued-cancelled job must never start"
        );
        blocker.cancel();
        blocker.wait();
        // The worker never ran the victim.
        assert_eq!(s.metrics().executed, 1);
        s.shutdown();
    }

    #[test]
    fn cancelling_a_queued_primary_cancels_its_followers_and_a_follower_detaches_alone() {
        let s = one_worker();
        let blocker = stall_worker(&s, 0.93);
        let p1 = s.submit(fdtd(20, 0.44)).unwrap();
        let f1 = s.submit(fdtd(20, 0.44)).unwrap();
        let p2 = s.submit(fdtd(20, 0.45)).unwrap();
        let f2 = s.submit(fdtd(20, 0.45)).unwrap();
        assert!(f1.is_deduped() && f2.is_deduped());
        // The primary takes its whole group down; the follower leaves its
        // group's execution running.
        p1.cancel();
        f2.cancel();
        blocker.cancel();
        for h in [&p1, &f1, &f2] {
            let out = h.wait();
            assert!(out.cancelled);
            assert!(matches!(out.result, JobResult::Unstarted), "{}", h.id());
        }
        assert!(!p2.wait().cancelled);
        let executed = s.metrics().executed;
        s.shutdown();
        for h in [&p1, &f1, &p2, &f2] {
            let completions = h
                .events()
                .try_iter()
                .filter(|e| matches!(e, JobEvent::Completed { .. }))
                .count();
            assert_eq!(completions, 1, "{} resolved {completions} times", h.id());
        }
        assert_eq!(executed, 2, "the blocker and p2 ran; p1 never did");
    }

    #[test]
    fn follower_cancelled_while_its_primary_resolves_is_counted_once() {
        let s = one_worker();
        let blocker = stall_worker(&s, 0.92);
        let primary = s.submit(fdtd(5, 0.46)).unwrap();
        let follower = s.submit(fdtd(5, 0.46)).unwrap();
        blocker.cancel();
        while !matches!(primary.events().recv().unwrap(), JobEvent::Started { .. }) {}
        // Land the cancel around the moment the worker resolves the group.
        std::thread::sleep(Duration::from_millis(10));
        follower.cancel();
        let cancelled = [&blocker, &primary, &follower]
            .iter()
            .filter(|h| h.wait().cancelled)
            .count() as u64;
        // Read the counters once the worker has finished with the group.
        let inner = Arc::clone(&s.inner);
        s.shutdown();
        let completed = inner.metrics.completed.load(Ordering::Relaxed);
        let counted = inner.metrics.cancelled.load(Ordering::Relaxed);
        assert_eq!(
            counted, cancelled,
            "completed={completed} cancelled={counted}"
        );
        assert_eq!(
            completed + counted,
            3,
            "completed={completed} cancelled={counted}"
        );
    }

    #[test]
    fn cancelling_running_job_yields_partial_trace() {
        let s = one_worker();
        let h = s.submit(slow_blocker(0.71)).unwrap();
        // Wait until it is actually running.
        loop {
            if matches!(
                h.events().try_iter().last(),
                Some(JobEvent::Started { .. }) | Some(JobEvent::Progress { .. })
            ) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        h.cancel();
        let out = h.wait();
        assert!(out.cancelled);
        assert!(out.steps_done < 20_000, "stopped early");
        let JobResult::Fdtd(trace) = &out.result else {
            panic!("partial trace expected");
        };
        assert_eq!(trace.len(), out.steps_done, "trace is a valid prefix");
        // The pool is not poisoned: the next job completes normally.
        let next = s.submit(fdtd(10, 0.72)).unwrap();
        assert!(!next.wait().cancelled);
        s.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let s = one_worker();
        let handles: Vec<JobHandle> = (0..5)
            .map(|i| s.submit(fdtd(20, 0.8 + i as f64 * 0.01)).unwrap())
            .collect();
        s.shutdown();
        for h in handles {
            assert!(!h.wait().cancelled, "graceful shutdown runs queued work");
        }
    }

    #[test]
    fn drop_cancels_outstanding_work_without_hanging() {
        let s = one_worker();
        let long = s.submit(slow_blocker(0.91)).unwrap();
        let queued = s.submit(slow_blocker(0.92)).unwrap();
        drop(s);
        assert!(long.wait().cancelled);
        assert!(queued.wait().cancelled);
    }
}
