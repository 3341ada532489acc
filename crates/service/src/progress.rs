//! Structured progress and lifecycle streaming.
//!
//! Built on the engine's `Observer` seam: [`ProgressObserver`] wraps any
//! inner observer (delegating every record to it unchanged) and
//! additionally publishes [`JobEvent::Progress`] envelopes over a
//! `std::sync::mpsc` channel at a configurable [`SampleStride`]. The scheduler
//! publishes the remaining lifecycle events ([`JobEvent::Queued`],
//! `Started`, `Deduped`, `Cancelled`, `Completed`) on the same channels,
//! so a client watching a [`crate::scheduler::JobHandle`]'s event stream
//! sees the whole story of its job in order.

use mlmd_core::engine::{Observer, SampleStride, StepInfo, Stepper};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Service-assigned job identifier, unique within one scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// One envelope of a job's event stream.
#[derive(Clone, Debug)]
pub enum JobEvent {
    /// Admitted into the queue.
    Queued { id: JobId },
    /// Coalesced onto an identical in-flight job (the dedup primary):
    /// this job will complete with the primary's shared result.
    Deduped { id: JobId, primary: JobId },
    /// A worker started executing the job.
    Started { id: JobId },
    /// Streamed from inside the run by [`ProgressObserver`]: `step` of
    /// `of` completed in run `run` (a sweep executes several runs; single
    /// drivers report `run == 0`), at driver time `time_fs`.
    Progress {
        id: JobId,
        run: usize,
        step: usize,
        of: usize,
        time_fs: f64,
    },
    /// Cancelled — before starting if no `Started` event preceded this,
    /// else mid-run (the result then carries the partial trace).
    Cancelled { id: JobId },
    /// Execution finished and the result is available.
    Completed { id: JobId, cancelled: bool },
}

impl JobEvent {
    /// The job this event belongs to.
    pub fn id(&self) -> JobId {
        match *self {
            JobEvent::Queued { id }
            | JobEvent::Deduped { id, .. }
            | JobEvent::Started { id }
            | JobEvent::Progress { id, .. }
            | JobEvent::Cancelled { id }
            | JobEvent::Completed { id, .. } => id,
        }
    }
}

/// Fan-out sink for [`JobEvent`]s: one send clones the event to every
/// attached channel (the job's own handle stream plus any scheduler-wide
/// subscribers). Sends never block (channels are unbounded), and an event
/// for a dropped receiver is discarded at send — a client that walked
/// away neither wedges a worker nor leaves a queue growing behind it.
#[derive(Clone, Default)]
pub struct EventSink {
    senders: Vec<Sender<JobEvent>>,
}

impl EventSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach another channel; returns the receiving end.
    pub fn attach(&mut self) -> Receiver<JobEvent> {
        let (tx, rx) = channel();
        self.senders.push(tx);
        rx
    }

    /// Attach an existing sender (a scheduler-wide subscriber).
    pub fn attach_sender(&mut self, tx: Sender<JobEvent>) {
        self.senders.push(tx);
    }

    /// Publish to every attached channel.
    pub fn emit(&self, event: JobEvent) {
        for tx in &self.senders {
            let _ = tx.send(event.clone());
        }
    }
}

/// Observer adapter that streams progress while delegating every record
/// to the wrapped inner observer — the run's trace collection and its
/// progress reporting are one engine pass, not two.
pub struct ProgressObserver<O> {
    inner: O,
    stride: SampleStride,
    sink: EventSink,
    id: JobId,
    run: usize,
    n_steps: usize,
}

impl<O> ProgressObserver<O> {
    /// Wrap `inner`; progress events go to `sink` every `stride` steps
    /// (plus always the final step), labelled with `id` and the batch
    /// run index `run` out of `n_steps` total steps.
    pub fn new(
        inner: O,
        stride: SampleStride,
        sink: EventSink,
        id: JobId,
        run: usize,
        n_steps: usize,
    ) -> Self {
        Self {
            inner,
            stride,
            sink,
            id,
            run,
            n_steps,
        }
    }

    /// The wrapped observer (e.g. to read its trace after the run).
    pub fn into_inner(self) -> O {
        self.inner
    }

    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<S: Stepper, O: Observer<S>> Observer<S> for ProgressObserver<O> {
    fn observe(&mut self, info: StepInfo, stepper: &S, record: &S::Record) {
        self.inner.observe(info, stepper, record);
        if self.stride.should_sample(info) {
            self.sink.emit(JobEvent::Progress {
                id: self.id,
                run: self.run,
                step: info.index + 1,
                of: self.n_steps,
                time_fs: stepper.time_fs(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlmd_core::engine::{Engine, TraceObserver};

    struct Counter(usize);

    impl Stepper for Counter {
        type Record = usize;

        fn step(&mut self) -> usize {
            self.0 += 1;
            self.0
        }

        fn time_fs(&self) -> f64 {
            self.0 as f64
        }
    }

    #[test]
    fn progress_streams_at_stride_and_delegates_records() {
        let mut sink = EventSink::new();
        let rx = sink.attach();
        let mut obs = ProgressObserver::new(
            TraceObserver::every(),
            SampleStride::new(4),
            sink,
            JobId(7),
            2,
            10,
        );
        Engine::run(&mut Counter(0), 10, &mut obs);
        // Inner observer saw every record.
        assert_eq!(obs.inner().trace.len(), 10);
        // Progress sampled at steps 1, 5, 9 (indices 0, 4, 8) + final.
        let steps: Vec<usize> = rx
            .try_iter()
            .map(|e| match e {
                JobEvent::Progress {
                    step, of, run, id, ..
                } => {
                    assert_eq!(of, 10);
                    assert_eq!(run, 2);
                    assert_eq!(id, JobId(7));
                    step
                }
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(steps, vec![1, 5, 9, 10]);
    }

    #[test]
    fn sink_fans_out_to_every_attachment() {
        let mut sink = EventSink::new();
        let a = sink.attach();
        let b = sink.attach();
        sink.emit(JobEvent::Queued { id: JobId(1) });
        assert!(matches!(a.recv().unwrap(), JobEvent::Queued { id } if id == JobId(1)));
        assert!(matches!(b.recv().unwrap(), JobEvent::Queued { id } if id == JobId(1)));
        // A dropped receiver must not wedge emission.
        drop(a);
        sink.emit(JobEvent::Completed {
            id: JobId(1),
            cancelled: false,
        });
        assert!(matches!(
            b.try_iter().last(),
            Some(JobEvent::Completed { .. })
        ));
    }
}
