//! The engine layer: one driver contract for every time-stepping loop in
//! the workspace, plus the observation and batch machinery built on it.
//!
//! The paper's central claim is that a single multiscale loop (Eq. (2),
//! Fig. 1) composes Maxwell, Ehrenfest, surface-hopping, QXMD, and NNQMD
//! propagators into one pipeline. This module is that seam in code:
//!
//! * [`Stepper`] — the driver contract: `step()` advances the underlying
//!   propagator exactly once and yields a typed per-step record.
//!   Implemented here for [`MeshDriver`] (DC-MESH), [`MdStage`] (velocity
//!   Verlet + Langevin + any [`ForceField`] — the pipeline's prepare and
//!   respond stages, and the XS-NNQMD MD loop when the force field is an
//!   `NnForceField`), [`PulsedYee`] (FDTD light), and [`NnMdEnsemble`]
//!   (lockstep NNQMD domains, one inference call).
//! * [`Observer`] — what to do with each record. Sampling cadence is a
//!   [`SampleStride`] config value, not a hardcoded `step % 10`.
//! * [`Engine`] — the run loop gluing a stepper to an observer.
//!   [`Engine::run_cancellable`] threads a [`CancelToken`] check through
//!   the loop (checked before each step, so cancellation lands on a step
//!   boundary and the observer's trace stays a valid prefix); a default
//!   token never fires, pinning `Engine::run` bit-for-bit.
//! * [`RunPlan`] — a batch of independent stepper runs executed
//!   concurrently on the work-stealing pool (the `rayon` shim). The
//!   pump–probe lit/dark pair and N-amplitude sweeps run as one batch;
//!   later sharding/batching work plugs in behind the same interface.
//!
//! Every parallel kernel under these drivers is bit-deterministic across
//! pool widths (pinned since PR 2), and each run in a [`RunPlan`] is
//! internally serial, so batched execution reproduces sequential results
//! bit-for-bit — asserted in `tests/engine_pipeline.rs`.

use mlmd_dcmesh::dist_mesh::DistributedMeshDriver;
use mlmd_dcmesh::mesh::{MeshDriver, MeshStepRecord};
use mlmd_maxwell::driver::{FieldRecord, PulsedYee};
use mlmd_nnqmd::md::{NnForceField, NnMdRecord};
use mlmd_nnqmd::NnMdEnsemble;
use mlmd_qxmd::ferro::FerroModel;
use mlmd_qxmd::integrator::ForceField;
use mlmd_qxmd::md_stage::{MdRecord, MdStage};
use mlmd_topo::polarization::PolarizationField;
use mlmd_topo::switching::TextureReport;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// ------------------------------------------------------- cancellation

/// Cooperative cancellation handle for engine runs.
///
/// A token is a cheap, cloneable flag shared between the party driving a
/// run and the party that may want to stop it. [`Engine::run_cancellable`]
/// checks the token *before every step*, so cancellation lands on a step
/// boundary: the stepper is never interrupted mid-step, the observer has
/// seen every completed step, and the partial trace is a valid prefix of
/// the full run.
///
/// A fresh (default) token never fires, so code paths threaded through
/// the cancellable entry points with a default token behave bit-for-bit
/// like the uncancellable originals.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A token that has not been cancelled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has [`Self::cancel`] been called on any clone of this token?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// How an engine run ended: either it took every requested step, or a
/// [`CancelToken`] stopped it at a step boundary first.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Steps actually taken (== the requested count unless cancelled).
    pub steps_done: usize,
    /// Whether the run stopped early on a cancelled token.
    pub cancelled: bool,
}

// ------------------------------------------------------------- contract

/// A time-stepping driver: one call advances the propagator exactly one
/// step and yields its per-step record.
///
/// `time_fs` reports the driver's native simulation clock — femtoseconds
/// for the MD-side drivers, natural `c = 1` units for the FDTD wrappers.
pub trait Stepper {
    /// The typed per-step measurement this driver produces.
    type Record;

    /// Advance exactly one step.
    fn step(&mut self) -> Self::Record;

    /// Simulation time on the driver's native clock after the steps taken.
    fn time_fs(&self) -> f64;
}

/// Per-step metadata handed to observers alongside the record.
#[derive(Clone, Copy, Debug)]
pub struct StepInfo {
    /// 0-based index of the step that just completed.
    pub index: usize,
    /// Whether this was the final step of the engine run.
    pub is_last: bool,
}

/// Consumes the records of an engine run. Observers see the stepper
/// *after* the step, so they can derive measurements the record does not
/// carry (e.g. a polarization analysis of the full system).
pub trait Observer<S: Stepper> {
    fn observe(&mut self, info: StepInfo, stepper: &S, record: &S::Record);
}

/// Sampling cadence for trace observers: sample every `stride`-th step
/// (0, stride, 2·stride, …) plus always the final step.
///
/// `SampleStride::EVERY` records each step; the pipeline's response trace
/// defaults to `SampleStride::new(10)`, which reproduces the historical
/// `step % 10 == 0 || last` cadence bit-for-bit.
///
/// A stride of zero is rejected at construction ([`SampleStride::new`]),
/// so a held `SampleStride` is always valid and `should_sample` never has
/// to re-validate on the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleStride(usize);

impl SampleStride {
    /// Record every step.
    pub const EVERY: SampleStride = SampleStride(1);

    /// A validated stride: sample steps 0, `stride`, `2·stride`, … plus
    /// always the final step.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero — a zero stride samples nothing and
    /// was historically only caught deep inside the run loop.
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0, "sample stride must be non-zero");
        Self(stride)
    }

    /// The validated stride value.
    pub fn get(self) -> usize {
        self.0
    }

    pub fn should_sample(self, info: StepInfo) -> bool {
        info.index.is_multiple_of(self.0) || info.is_last
    }
}

impl Default for SampleStride {
    /// The pipeline's historical response-trace cadence.
    fn default() -> Self {
        SampleStride(10)
    }
}

/// Discards every record (pure side-effect runs, e.g. GS relaxation).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl<S: Stepper> Observer<S> for NullObserver {
    fn observe(&mut self, _info: StepInfo, _stepper: &S, _record: &S::Record) {}
}

/// Collects the records sampled by a [`SampleStride`] into a trace.
#[derive(Clone, Debug)]
pub struct TraceObserver<R> {
    pub stride: SampleStride,
    pub trace: Vec<R>,
}

impl<R> TraceObserver<R> {
    /// Record every step.
    pub fn every() -> Self {
        Self::with_stride(SampleStride::EVERY)
    }

    pub fn with_stride(stride: SampleStride) -> Self {
        Self {
            stride,
            trace: Vec::new(),
        }
    }
}

impl<S: Stepper> Observer<S> for TraceObserver<S::Record>
where
    S::Record: Clone,
{
    fn observe(&mut self, info: StepInfo, _stepper: &S, record: &S::Record) {
        if self.stride.should_sample(info) {
            self.trace.push(record.clone());
        }
    }
}

// --------------------------------------------------------------- engine

/// The run loop: step `n_steps` times, notifying the observer after each
/// step with the record and [`StepInfo`].
pub struct Engine;

impl Engine {
    pub fn run<S: Stepper, O: Observer<S>>(stepper: &mut S, n_steps: usize, observer: &mut O) {
        // A fresh token never fires, so this is the plain loop bit-for-bit.
        Self::run_cancellable(stepper, n_steps, observer, &CancelToken::new());
    }

    /// The run loop with cooperative cancellation: the token is checked
    /// *before* each step, so a cancelled run stops on a step boundary
    /// with every completed step already observed — the observer's trace
    /// is a valid prefix of the full run, never a torn state.
    pub fn run_cancellable<S: Stepper, O: Observer<S>>(
        stepper: &mut S,
        n_steps: usize,
        observer: &mut O,
        cancel: &CancelToken,
    ) -> RunOutcome {
        for index in 0..n_steps {
            if cancel.is_cancelled() {
                return RunOutcome {
                    steps_done: index,
                    cancelled: true,
                };
            }
            let record = stepper.step();
            let info = StepInfo {
                index,
                is_last: index + 1 == n_steps,
            };
            observer.observe(info, stepper, &record);
        }
        RunOutcome {
            steps_done: n_steps,
            cancelled: false,
        }
    }

    /// Convenience: run and return every record (the engine-shaped
    /// replacement for the old `MeshDriver::run`).
    pub fn run_collect<S: Stepper>(stepper: &mut S, n_steps: usize) -> Vec<S::Record>
    where
        S::Record: Clone,
    {
        let mut obs = TraceObserver::every();
        Self::run(stepper, n_steps, &mut obs);
        obs.trace
    }
}

// ------------------------------------------------------------- run plan

/// One entry of a [`RunPlan`]: a stepper, its observer, how many steps to
/// drive it, and the run's cancellation token (a fresh token — which
/// never fires — unless the run was pushed with
/// [`RunPlan::push_cancellable`]).
///
/// After [`RunPlan::execute`], `outcome` reports how the run ended; a
/// cancelled run's observer holds the partial trace of the steps that
/// completed before the token fired.
pub struct PlannedRun<S, O> {
    pub stepper: S,
    pub observer: O,
    pub n_steps: usize,
    /// Cooperative cancellation handle checked before each step.
    pub cancel: CancelToken,
    /// Filled in by `execute`: steps taken and whether the token fired.
    pub outcome: RunOutcome,
}

/// A batch of independent stepper runs executed concurrently on the
/// work-stealing pool. Results come back in submission order; each run is
/// internally serial, so the batch is bit-identical to executing the runs
/// one after another (pinned in `tests/engine_pipeline.rs` at pool widths
/// 1/2/4).
///
/// # Example
///
/// Batch two runs of a toy stepper and read the traces back in
/// submission order:
///
/// ```
/// use mlmd_core::engine::{RunPlan, Stepper, TraceObserver};
///
/// /// Counts up from a starting value; the record is the new count.
/// struct Counter(u64);
///
/// impl Stepper for Counter {
///     type Record = u64;
///     fn step(&mut self) -> u64 {
///         self.0 += 1;
///         self.0
///     }
///     fn time_fs(&self) -> f64 {
///         self.0 as f64
///     }
/// }
///
/// let mut plan = RunPlan::new();
/// plan.push(Counter(0), TraceObserver::every(), 3);
/// plan.push(Counter(100), TraceObserver::every(), 2);
/// let done = plan.execute();
/// assert_eq!(done[0].observer.trace, vec![1, 2, 3]);
/// assert_eq!(done[1].observer.trace, vec![101, 102]);
/// ```
#[derive(Default)]
pub struct RunPlan<S, O> {
    runs: Vec<PlannedRun<S, O>>,
}

impl<S, O> RunPlan<S, O>
where
    S: Stepper + Send,
    O: Observer<S> + Send,
{
    pub fn new() -> Self {
        Self { runs: Vec::new() }
    }

    pub fn push(&mut self, stepper: S, observer: O, n_steps: usize) -> &mut Self {
        self.push_cancellable(stepper, observer, n_steps, CancelToken::new())
    }

    /// Push a run wired to an externally held [`CancelToken`]. Cancelling
    /// the token stops that run at its next step boundary; the other runs
    /// of the batch are unaffected (unless they share the same token) and
    /// the pool stays healthy — a cancelled run is an early return, not a
    /// panic. Results still come back in submission order, the cancelled
    /// run reporting its partial trace and `outcome.cancelled == true`.
    pub fn push_cancellable(
        &mut self,
        stepper: S,
        observer: O,
        n_steps: usize,
        cancel: CancelToken,
    ) -> &mut Self {
        self.runs.push(PlannedRun {
            stepper,
            observer,
            n_steps,
            cancel,
            outcome: RunOutcome::default(),
        });
        self
    }

    pub fn len(&self) -> usize {
        self.runs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Execute every run concurrently on the current pool (the innermost
    /// installed [`rayon::ThreadPool`], or the global one), returning the
    /// completed runs in submission order.
    pub fn execute(self) -> Vec<PlannedRun<S, O>> {
        self.runs
            .into_par_iter()
            .map(|mut run| {
                run.outcome = Engine::run_cancellable(
                    &mut run.stepper,
                    run.n_steps,
                    &mut run.observer,
                    &run.cancel,
                );
                run
            })
            .collect()
    }

    /// Execute on a dedicated pool of the given width (`0` = hardware
    /// default, matching the rayon contract).
    pub fn execute_with_width(self, width: usize) -> Vec<PlannedRun<S, O>> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .expect("failed to build RunPlan pool");
        pool.install(|| self.execute())
    }
}

// -------------------------------------------------------- stepper impls

impl Stepper for MeshDriver {
    type Record = MeshStepRecord;

    fn step(&mut self) -> MeshStepRecord {
        MeshDriver::step(self)
    }

    fn time_fs(&self) -> f64 {
        MeshDriver::time_fs(self)
    }
}

/// The rank-distributed MESH driver is a stepper too: inside a
/// `World::run` region each rank engine-drives its replica in lockstep
/// (every `step()` is collective over the world), so observers, traces,
/// and `RunPlan`-style batch logic compose with the sharded driver
/// exactly as with the serial one.
impl Stepper for DistributedMeshDriver {
    type Record = MeshStepRecord;

    fn step(&mut self) -> MeshStepRecord {
        DistributedMeshDriver::step(self)
    }

    fn time_fs(&self) -> f64 {
        DistributedMeshDriver::time_fs(self)
    }
}

impl<F: ForceField> Stepper for MdStage<F> {
    type Record = MdRecord;

    fn step(&mut self) -> MdRecord {
        self.advance()
    }

    fn time_fs(&self) -> f64 {
        MdStage::time_fs(self)
    }
}

impl Stepper for PulsedYee {
    type Record = FieldRecord;

    fn step(&mut self) -> FieldRecord {
        self.advance()
    }

    fn time_fs(&self) -> f64 {
        self.time()
    }
}

/// The cross-domain batched ensemble advances all member domains in
/// lockstep; its per-step record is the vector of member records, in
/// domain order.
impl Stepper for NnMdEnsemble {
    type Record = Vec<NnMdRecord>;

    fn step(&mut self) -> Vec<NnMdRecord> {
        self.advance()
    }

    fn time_fs(&self) -> f64 {
        NnMdEnsemble::time_fs(self)
    }
}

// ------------------------------------------------- supercell force model

/// The supercell force model of the pipeline's MD stages: the analytic
/// excitation-reshaped ferroelectric landscape, plus an optional
/// neural-network term evaluated through batched
/// [`mlmd_nnqmd::infer::block_evaluate`] inference (the ROADMAP's
/// "wire `block_evaluate` into the pipeline response stage" path —
/// neighbor-list construction is amortized per inference batch).
pub struct SupercellForce {
    pub ferro: FerroModel,
    pub network: Option<NnForceField>,
}

impl SupercellForce {
    /// Analytic landscape only (the default pipeline configuration).
    pub fn analytic(ferro: FerroModel) -> Self {
        Self {
            ferro,
            network: None,
        }
    }
}

impl ForceField for SupercellForce {
    fn accumulate(&self, sys: &mut mlmd_qxmd::atoms::AtomsSystem) -> f64 {
        let mut e = self.ferro.accumulate(sys);
        if let Some(nn) = &self.network {
            e += nn.accumulate(sys);
        }
        e
    }
}

/// Polarization texture of a supercell — the one field construction both
/// the switching verdict (`Pipeline::polarization`) and the response-trace
/// observer analyze, so the two measurements cannot diverge.
pub fn polarization_of(
    cells: (usize, usize, usize),
    ferro: &FerroModel,
    system: &mlmd_qxmd::atoms::AtomsSystem,
) -> PolarizationField {
    let (nx, ny, nz) = cells;
    PolarizationField::new(nx, ny, nz, ferro.displacement_field(system))
}

// ------------------------------------------------------------ observers

/// Samples the polarization texture of an [`MdStage`] over a
/// [`SupercellForce`] at the configured stride — the engine-shaped
/// replacement for the pipeline's hand-rolled response-trace loop.
pub struct ResponseTraceObserver {
    pub stride: SampleStride,
    cells: (usize, usize, usize),
    dt_fs: f64,
    pub trace: Vec<crate::pipeline::ResponsePoint>,
}

impl ResponseTraceObserver {
    pub fn new(cells: (usize, usize, usize), dt_fs: f64, stride: SampleStride) -> Self {
        Self {
            stride,
            cells,
            dt_fs,
            trace: Vec::new(),
        }
    }
}

impl Observer<MdStage<SupercellForce>> for ResponseTraceObserver {
    fn observe(&mut self, info: StepInfo, stage: &MdStage<SupercellForce>, _record: &MdRecord) {
        if !self.stride.should_sample(info) {
            return;
        }
        let field = polarization_of(self.cells, &stage.force().ferro, stage.system());
        let report = TextureReport::analyze(&field);
        self.trace.push(crate::pipeline::ResponsePoint {
            // (index + 1) · dt, not an accumulated sum — bit-compatible
            // with the historical trace timestamps.
            time_fs: (info.index + 1) as f64 * self.dt_fs,
            polar_order: report.polar_order,
            mean_charge: report.mean_charge,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlmd_maxwell::source::GaussianPulse;
    use mlmd_maxwell::yee1d::Yee1d;
    use mlmd_numerics::rng::Xoshiro256;
    use mlmd_numerics::vec3::Vec3;
    use mlmd_qxmd::atoms::{AtomsSystem, Species};

    /// Deterministic toy stepper: record = index².
    struct Counter {
        n: usize,
    }

    impl Stepper for Counter {
        type Record = usize;

        fn step(&mut self) -> usize {
            let r = self.n * self.n;
            self.n += 1;
            r
        }

        fn time_fs(&self) -> f64 {
            self.n as f64
        }
    }

    #[test]
    fn stride_matches_historical_cadence() {
        // step % 10 == 0 || step + 1 == n  over n = 23 steps.
        let n = 23;
        let stride = SampleStride::default();
        let sampled: Vec<usize> = (0..n)
            .filter(|&index| {
                stride.should_sample(StepInfo {
                    index,
                    is_last: index + 1 == n,
                })
            })
            .collect();
        let historical: Vec<usize> = (0..n)
            .filter(|&step| step % 10 == 0 || step + 1 == n)
            .collect();
        assert_eq!(sampled, historical);
        assert_eq!(sampled, vec![0, 10, 20, 22]);
    }

    #[test]
    #[should_panic(expected = "sample stride must be non-zero")]
    fn zero_stride_rejected_at_construction() {
        let _ = SampleStride::new(0);
    }

    #[test]
    fn stride_constructors_agree() {
        assert_eq!(SampleStride::new(1), SampleStride::EVERY);
        assert_eq!(SampleStride::default(), SampleStride::new(10));
        assert_eq!(SampleStride::new(7).get(), 7);
    }

    #[test]
    fn default_token_never_cancels() {
        let mut obs = TraceObserver::every();
        let out =
            Engine::run_cancellable(&mut Counter { n: 0 }, 5, &mut obs, &CancelToken::default());
        assert_eq!(
            out,
            RunOutcome {
                steps_done: 5,
                cancelled: false
            }
        );
        assert_eq!(obs.trace, vec![0, 1, 4, 9, 16]);
    }

    /// A stepper that cancels its own token during step number `at`
    /// (1-based), so the engine — which checks *before* each step —
    /// stops deterministically after exactly `at` steps.
    struct SelfCancel {
        n: usize,
        at: usize,
        token: CancelToken,
    }

    impl Stepper for SelfCancel {
        type Record = usize;

        fn step(&mut self) -> usize {
            self.n += 1;
            if self.n == self.at {
                self.token.cancel();
            }
            self.n
        }

        fn time_fs(&self) -> f64 {
            self.n as f64
        }
    }

    #[test]
    fn cancellation_lands_on_a_step_boundary() {
        let token = CancelToken::new();
        let mut obs = TraceObserver::every();
        let mut stepper = SelfCancel {
            n: 0,
            at: 3,
            token: token.clone(),
        };
        let out = Engine::run_cancellable(&mut stepper, 10, &mut obs, &token);
        assert_eq!(
            out,
            RunOutcome {
                steps_done: 3,
                cancelled: true
            }
        );
        // The partial trace is a valid prefix: every completed step
        // observed, nothing after the boundary.
        assert_eq!(obs.trace, vec![1, 2, 3]);
    }

    #[test]
    fn pre_cancelled_run_takes_no_steps() {
        let token = CancelToken::new();
        token.cancel();
        let mut obs = TraceObserver::every();
        let out = Engine::run_cancellable(&mut Counter { n: 0 }, 4, &mut obs, &token);
        assert_eq!(
            out,
            RunOutcome {
                steps_done: 0,
                cancelled: true
            }
        );
        assert!(obs.trace.is_empty());
    }

    #[test]
    fn run_plan_cancelled_run_reports_partial_trace() {
        let token = CancelToken::new();
        let mut plan = RunPlan::new();
        plan.push(
            SelfCancel {
                n: 0,
                at: usize::MAX,
                token: CancelToken::new(),
            },
            TraceObserver::every(),
            6,
        );
        plan.push_cancellable(
            SelfCancel {
                n: 0,
                at: 2,
                token: token.clone(),
            },
            TraceObserver::every(),
            6,
            token,
        );
        let done = plan.execute_with_width(2);
        assert_eq!(done[0].outcome.steps_done, 6);
        assert!(!done[0].outcome.cancelled);
        assert_eq!(done[0].observer.trace.len(), 6);
        assert!(done[1].outcome.cancelled);
        assert_eq!(done[1].outcome.steps_done, 2);
        assert_eq!(done[1].observer.trace, vec![1, 2]);
    }

    #[test]
    fn every_stride_records_all_steps() {
        let mut obs = TraceObserver::every();
        Engine::run(&mut Counter { n: 0 }, 7, &mut obs);
        assert_eq!(obs.trace, vec![0, 1, 4, 9, 16, 25, 36]);
        let collected = Engine::run_collect(&mut Counter { n: 0 }, 7);
        assert_eq!(collected, obs.trace);
    }

    #[test]
    fn ensemble_stepper_matches_direct_advances() {
        use mlmd_nnqmd::{AllegroLite, ModelConfig};
        let model = AllegroLite::new(
            ModelConfig {
                hidden: 6,
                k_max: 4,
                rcut: 3.5,
            },
            41,
        );
        let domains: Vec<AtomsSystem> = (0..2)
            .map(|d| {
                let mut sys = mlmd_qxmd::perovskite::PerovskiteLattice::uniform(
                    2,
                    2,
                    2,
                    Vec3::new(0.0, 0.0, 0.1),
                )
                .system;
                let mut rng = Xoshiro256::new(7 + d as u64);
                sys.thermalize(40.0, &mut rng);
                sys
            })
            .collect();
        let mut direct = NnMdEnsemble::new(domains.clone(), model.clone(), 0.5, 2);
        let mut stepped = NnMdEnsemble::new(domains, model, 0.5, 2);
        let collected = Engine::run_collect(&mut stepped, 3);
        assert_eq!(collected.len(), 3);
        for _ in 0..3 {
            let want = direct.advance();
            let got = &collected[direct.steps_taken() - 1];
            assert_eq!(want.len(), got.len());
            for (w, g) in want.iter().zip(got) {
                assert_eq!(w.potential_energy.to_bits(), g.potential_energy.to_bits());
                assert_eq!(w.kinetic_energy.to_bits(), g.kinetic_energy.to_bits());
            }
        }
        assert_eq!(stepped.time_fs(), direct.time_fs());
    }

    #[test]
    fn run_plan_preserves_submission_order() {
        let mut plan: RunPlan<Counter, TraceObserver<usize>> = RunPlan::new();
        for n0 in 0..8 {
            plan.push(Counter { n: n0 * 100 }, TraceObserver::every(), 2);
        }
        let done = plan.execute_with_width(4);
        assert_eq!(done.len(), 8);
        for (i, run) in done.iter().enumerate() {
            let n0 = i * 100;
            assert_eq!(run.observer.trace, vec![n0 * n0, (n0 + 1) * (n0 + 1)]);
        }
    }

    #[test]
    fn run_plan_batches_field_steppers() {
        // Two independent FDTD runs through the plan vs sequentially.
        let make = |amp: f64| {
            PulsedYee::new(
                Yee1d::new(120, 1.0, 0.5),
                GaussianPulse::new(amp, 0.3, 20.0, 8.0),
                30,
            )
        };
        let mut seq_a = make(0.1);
        let mut seq_b = make(0.2);
        let ra = Engine::run_collect(&mut seq_a, 100);
        let rb = Engine::run_collect(&mut seq_b, 100);
        let mut plan = RunPlan::new();
        plan.push(make(0.1), TraceObserver::every(), 100);
        plan.push(make(0.2), TraceObserver::every(), 100);
        let done = plan.execute_with_width(2);
        for (seq, run) in [ra, rb].iter().zip(&done) {
            for (a, b) in seq.iter().zip(&run.observer.trace) {
                assert_eq!(a.energy.to_bits(), b.energy.to_bits());
            }
        }
    }

    #[test]
    fn md_stage_is_a_stepper() {
        let sys = AtomsSystem::new(
            vec![Species::O],
            vec![Vec3::new(0.3, 0.0, 0.0)],
            Vec3::splat(50.0),
        );
        struct Spring;
        impl ForceField for Spring {
            fn accumulate(&self, sys: &mut AtomsSystem) -> f64 {
                let mut e = 0.0;
                for i in 0..sys.len() {
                    e += sys.positions[i].norm_sqr();
                    sys.forces[i] -= sys.positions[i] * 2.0;
                }
                e
            }
        }
        let mut stage = MdStage::new(sys, Spring, 0.1, None, Xoshiro256::new(1));
        let trace = Engine::run_collect(&mut stage, 5);
        assert_eq!(trace.len(), 5);
        assert_eq!(Stepper::time_fs(&stage), 5.0 * 0.1);
        assert!(trace.iter().all(|r| r.potential_energy.is_finite()));
    }
}
