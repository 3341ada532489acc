//! `service_mix`: the operator's view — one closed-loop stream of seeded
//! small jobs through a planner-gated `Scheduler`, eight in flight, one
//! generator thread blocked on the scheduler-wide event feed. Closed loop
//! because each client waits for its reply before sending the next.

use crate::digest::digest_of;
use crate::inputs::{
    service_material, JobKind, JobSource, JOBS_IN_FLIGHT, SERVICE_QUEUE, SERVICE_WORKERS,
};
use crate::spans::Tracer;
use crate::workloads::cold_mesh_stage;
use mlmd::core::engine::{CancelToken, SampleStride};
use mlmd::exasim::calibrate::{calibrate, CalibrationConfig};
use mlmd::exasim::planner::Planner;
use mlmd::exasim::Machine;
use mlmd::service::progress::EventSink;
use mlmd::service::scheduler::MetricsSnapshot;
use mlmd::service::{JobEvent, JobHandle, JobId, JobSpec, Scheduler, ServiceConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A job not resolved this long after its submit is counted as failed
/// and the stream moves on.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Every this-many-th job is kept and compared with a synchronous run.
pub const VERIFY_EVERY: usize = 50;

/// Set-up of the stream: host calibration, the planner built from it,
/// and the one cold ground-state descent a service process pays.
pub struct ServiceFixture {
    planner: Planner,
}

pub fn setup() -> ServiceFixture {
    let calibration = calibrate(&CalibrationConfig::quick());
    let planner = Planner::new(Machine::from_calibration(&calibration), calibration);
    cold_mesh_stage(&service_material(), 0.0);
    ServiceFixture { planner }
}

impl ServiceFixture {
    pub fn scheduler(&self) -> Scheduler {
        Scheduler::new(ServiceConfig {
            workers: SERVICE_WORKERS,
            queue_capacity: SERVICE_QUEUE,
            progress_stride: SampleStride::default(),
            dedup: true,
            planner: Some(self.planner),
        })
    }
}

/// When the generator stops submitting and starts draining.
#[derive(Clone, Copy, Debug)]
pub enum StopAfter {
    Elapsed(Duration),
    Jobs(usize),
}

/// What the generator saw of one job. Times are nanoseconds on the
/// stream's clock; the event stamps are taken only in a traced stream.
#[derive(Clone, Debug)]
pub struct JobTrace {
    pub kind: JobKind,
    pub submit_ns: u64,
    /// Duration of the `submit` call itself.
    pub submit_call_ns: u64,
    pub queued_ns: Option<u64>,
    pub started_ns: Option<u64>,
    /// `Completed` seen by the generator; `None` if the job never resolved.
    pub completed_ns: Option<u64>,
    /// `Completed` seen → `wait()` returned (traced streams only).
    pub resolve_ns: Option<u64>,
    pub deduped: bool,
}

impl JobTrace {
    pub fn latency_s(&self) -> Option<f64> {
        self.completed_ns
            .map(|c| (c - self.submit_ns) as f64 * 1e-9)
    }
}

pub struct StreamStats {
    /// Every job whose submit was admitted, in submit order.
    pub jobs: Vec<JobTrace>,
    /// Submissions refused (`QueueFull`, `PlanRejected`, `ShuttingDown`).
    pub refused: usize,
    /// Admitted jobs that resolved cancelled or not at all.
    pub unresolved: usize,
    /// First submit → last completion.
    pub makespan_s: f64,
    /// Scheduler counters accumulated over the stream.
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    /// The kept jobs: spec and the digest of the service's result.
    pub sampled: Vec<(JobSpec, u64)>,
}

struct InFlight {
    trace: JobTrace,
    handle: JobHandle,
    keep: Option<JobSpec>,
    deadline: Instant,
}

/// Drive one closed-loop stream through `scheduler`.
pub fn run_stream(
    scheduler: &Scheduler,
    source: &mut JobSource,
    stop: StopAfter,
    traced: bool,
) -> StreamStats {
    let feed = scheduler.subscribe();
    let before = scheduler.metrics();
    let clock = Instant::now();
    let now_ns = || clock.elapsed().as_nanos() as u64;
    let mut in_flight: HashMap<JobId, InFlight> = HashMap::new();
    let mut done: Vec<JobTrace> = Vec::new();
    let mut sampled = Vec::new();
    let (mut refused, mut unresolved, mut submitted) = (0usize, 0usize, 0usize);
    let mut last_completion_ns = 0u64;

    let open = |submitted: usize| match stop {
        StopAfter::Elapsed(limit) => clock.elapsed() < limit,
        StopAfter::Jobs(n) => submitted < n,
    };

    loop {
        // Keep the loop closed at JOBS_IN_FLIGHT.
        while in_flight.len() < JOBS_IN_FLIGHT && open(submitted + refused) {
            let (kind, spec) = source.next().expect("the job source is endless");
            let keep = (submitted % VERIFY_EVERY == 0).then(|| spec.clone());
            let submit_ns = now_ns();
            match scheduler.submit(spec) {
                Ok(handle) => {
                    let submit_call_ns = now_ns() - submit_ns;
                    submitted += 1;
                    in_flight.insert(
                        handle.id(),
                        InFlight {
                            trace: JobTrace {
                                kind,
                                submit_ns,
                                submit_call_ns,
                                queued_ns: None,
                                started_ns: None,
                                completed_ns: None,
                                resolve_ns: None,
                                deduped: handle.is_deduped(),
                            },
                            handle,
                            keep,
                            deadline: Instant::now() + JOB_TIMEOUT,
                        },
                    );
                }
                Err(_) => refused += 1,
            }
        }
        if in_flight.is_empty() {
            break;
        }
        // Block on the feed until the oldest job's deadline.
        let deadline = in_flight
            .values()
            .map(|j| j.deadline)
            .min()
            .expect("in_flight is not empty");
        let wait = deadline.saturating_duration_since(Instant::now());
        let Ok(event) = feed.recv_timeout(wait) else {
            // Timed out (or the scheduler died): give up on every job past
            // its deadline and keep the stream going.
            let now = Instant::now();
            let late: Vec<JobId> = in_flight
                .iter()
                .filter(|(_, j)| j.deadline <= now)
                .map(|(id, _)| *id)
                .collect();
            for id in late {
                let job = in_flight.remove(&id).expect("late job is in flight");
                unresolved += 1;
                done.push(job.trace);
            }
            continue;
        };
        let at = now_ns();
        match event {
            JobEvent::Completed { id, cancelled } => {
                let Some(mut job) = in_flight.remove(&id) else {
                    continue;
                };
                job.trace.completed_ns = Some(at);
                last_completion_ns = at;
                if cancelled {
                    unresolved += 1;
                }
                if traced || job.keep.is_some() {
                    let output = job.handle.wait();
                    job.trace.resolve_ns = Some(now_ns() - at);
                    if let Some(spec) = job.keep.take() {
                        sampled.push((spec, digest_of(&output.result)));
                    }
                }
                done.push(job.trace);
            }
            JobEvent::Queued { id } if traced => {
                if let Some(job) = in_flight.get_mut(&id) {
                    job.trace.queued_ns = Some(at);
                }
            }
            JobEvent::Started { id } if traced => {
                if let Some(job) = in_flight.get_mut(&id) {
                    job.trace.started_ns = Some(at);
                }
            }
            _ => {}
        }
    }
    done.sort_by_key(|j| j.submit_ns);
    let first_submit_ns = done.first().map_or(0, |j| j.submit_ns);
    StreamStats {
        jobs: done,
        refused,
        unresolved,
        makespan_s: last_completion_ns.saturating_sub(first_submit_ns) as f64 * 1e-9,
        before,
        after: scheduler.metrics(),
        sampled,
    }
}

impl StreamStats {
    /// Operations attempted: every submit, admitted or not.
    pub fn attempted(&self) -> usize {
        self.jobs.len() + self.refused
    }

    /// Submit→resolved latencies of the resolved jobs, in seconds.
    pub fn latencies_s(&self) -> Vec<f64> {
        self.jobs.iter().filter_map(JobTrace::latency_s).collect()
    }

    /// Each kept job's service result against a synchronous
    /// `JobSpec::run` of the same spec; returns how many differ.
    pub fn mismatches(&self) -> usize {
        self.sampled
            .iter()
            .filter(|(spec, served)| {
                let sync = spec.run(
                    &CancelToken::new(),
                    &EventSink::new(),
                    JobId(0),
                    SampleStride::default(),
                );
                digest_of(&sync.result) != *served
            })
            .count()
    }

    /// Spans of a traced stream, built from the per-job event stamps: a
    /// `job` root from submit to `Completed` seen, with the queue wait
    /// and the run (named for the layer the job kind exercises) beneath.
    pub fn record_spans(&self, tracer: &Tracer) {
        for (op, job) in self.jobs.iter().enumerate() {
            let Some(completed) = job.completed_ns else {
                continue;
            };
            let op = op as u32;
            let root = Some(tracer.record("job", None, op, job.submit_ns, completed));
            let submit_end = job.submit_ns + job.submit_call_ns;
            tracer.record("service.submit", root, op, job.submit_ns, submit_end);
            let run_name = match job.kind {
                JobKind::Fdtd => "maxwell.fdtd_job",
                JobKind::Md => "qxmd.md_job",
                JobKind::Mesh => "dcmesh.mesh_job",
                JobKind::Sweep => "dcmesh.sweep_job",
                JobKind::Floquet => "floquet.sweep_job",
            };
            match (job.queued_ns, job.started_ns) {
                (Some(queued), Some(started)) => {
                    tracer.record(
                        "service.queue_wait",
                        root,
                        op,
                        queued.max(submit_end),
                        started,
                    );
                    tracer.record(run_name, root, op, started, completed);
                }
                // A coalesced follower never starts: it waits for its primary.
                _ if job.deduped => {
                    tracer.record("service.dedup_wait", root, op, submit_end, completed);
                }
                _ => {}
            }
        }
    }
}
