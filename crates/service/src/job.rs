//! The service's workload vocabulary: every `Pipeline`/engine workload
//! re-expressed as a [`JobSpec`] value, so the scheduler and the existing
//! synchronous API share one code path.
//!
//! A sweep job executes through `Pipeline::mesh_batch_observed` +
//! `Pipeline::sweep_runs` — exactly the functions
//! `Pipeline::pump_probe_sweep` is built from; a MESH job engine-drives
//! `Pipeline::mesh_stage`, an MD job `Pipeline::supercell_md_stage`, an
//! FDTD job the `PulsedYee` wrapper. The service adds only the envelope:
//! cancellation tokens, progress observers, and a canonical
//! [`JobSpec::dedup_key`].
//!
//! ## Dedup-key discipline
//!
//! The key hashes *exactly the inputs that determine the job's result*,
//! and nothing else:
//!
//! * mesh-family jobs fold in the ground-state config hash
//!   (`MeshDriverBuilder::config_key`, i.e.
//!   `mlmd_dcmesh::checkpoint::ground_state_key`) — "same material" —
//!   plus the measurement knobs (amplitudes, step counts, Ehrenfest
//!   settings, carrier frequency, time step);
//! * execution-form knobs that are pinned bit-identical
//!   (`mesh_ranks_per_domain`, `mesh_warm_start`, pool width) are
//!   deliberately excluded: two clients asking for the same physics
//!   coalesce even if they would have executed it differently;
//! * every variant starts from its own salt, so an MD job can never
//!   collide with a MESH job.

use crate::progress::{EventSink, JobId, ProgressObserver};
use mlmd_core::config::PipelineConfig;
use mlmd_core::engine::{CancelToken, Engine, SampleStride, Stepper, TraceObserver};
use mlmd_core::pipeline::{Pipeline, PumpProbeRun, MESH_STAGE_NGRID, MESH_STAGE_NORB};
use mlmd_dcmesh::mesh::MeshStepRecord;
use mlmd_dcmesh::WarmStartPolicy;
use mlmd_exasim::planner::PlanJob;
use mlmd_floquet::sweep::{SuperlatticeSweep, SweepPoint};
use mlmd_maxwell::driver::{FieldRecord, PulsedYee};
use mlmd_maxwell::source::{Drive, GaussianPulse};
use mlmd_maxwell::yee1d::Yee1d;
use mlmd_numerics::codec::Fnv64;
use mlmd_qxmd::md_stage::MdRecord;

/// Scheduling priority band; within a band tenants are served round-robin.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Interactive / latency-sensitive requests.
    High,
    /// The default band.
    #[default]
    Normal,
    /// Batch backfill.
    Low,
}

impl Priority {
    /// All bands, highest first — the queue's service order.
    pub const BANDS: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// One band down — what the scheduler applies to jobs the planner
    /// predicts longer than [`PlanLimits::batch_threshold_secs`], so
    /// batch-scale work cannot crowd the interactive band. `Low` is the
    /// floor.
    ///
    /// [`PlanLimits::batch_threshold_secs`]: mlmd_exasim::planner::PlanLimits::batch_threshold_secs
    pub fn demote(self) -> Priority {
        match self {
            Priority::High => Priority::Normal,
            Priority::Normal | Priority::Low => Priority::Low,
        }
    }
}

/// Per-variant key salts (distinct leading bytes per workload class).
const SWEEP_SALT: u64 = u64::from_le_bytes(*b"job-swp\0");
const MESH_SALT: u64 = u64::from_le_bytes(*b"job-mesh");
const MD_SALT: u64 = u64::from_le_bytes(*b"job-md\0\0");
const FDTD_SALT: u64 = u64::from_le_bytes(*b"job-fdtd");
const FLOQUET_SALT: u64 = u64::from_le_bytes(*b"job-flq\0");

/// The FDTD job's fixed geometry: cell size, time step (Courant-stable),
/// and the Gaussian envelope's centre and width.
const FDTD_DZ: f64 = 1.0;
const FDTD_DT: f64 = 0.5;
const FDTD_T0: f64 = 20.0;
const FDTD_SIGMA: f64 = 8.0;

/// One simulation request, as data.
#[derive(Clone, Debug)]
pub enum JobSpec {
    /// N-amplitude pump–probe sweep sharing one dark reference — the
    /// workload of `Pipeline::pump_probe_sweep` (and, with a single
    /// amplitude, the lit/dark pair of `Pipeline::run`'s pulse stage).
    PumpProbeSweep {
        config: PipelineConfig,
        amplitudes: Vec<f64>,
    },
    /// A single MESH driver run at one pulse amplitude.
    MeshRun {
        config: PipelineConfig,
        e0: f64,
        n_steps: usize,
    },
    /// A supercell MD run with the respond stage's force/dissipation
    /// wiring at the given uniform excitation fraction.
    MdRun {
        config: PipelineConfig,
        excitation_fraction: f64,
        n_steps: usize,
    },
    /// A 1-D FDTD vacuum pulse propagation on the engine-suite geometry:
    /// dz 1.0, dt 0.5 (Courant-stable), source at `n_cells / 4`, Gaussian
    /// envelope centred at t₀ = 20 with width 8.
    FdtdPulse {
        n_cells: usize,
        e0: f64,
        omega: f64,
        n_steps: usize,
    },
    /// An SSH-dimer superlattice geometry scan under a fixed periodic
    /// drive, with streaming Floquet spectra and per-configuration band
    /// invariants — the workload of
    /// [`SuperlatticeSweep::execute`].
    FloquetSweep { sweep: SuperlatticeSweep },
}

/// What a finished job hands back.
#[derive(Clone, Debug)]
pub enum JobResult {
    /// Cancelled before execution started — nothing ran, no trace.
    Unstarted,
    PumpProbe(Vec<PumpProbeRun>),
    Mesh(Vec<MeshStepRecord>),
    Md(Vec<MdRecord>),
    Fdtd(Vec<FieldRecord>),
    Floquet(Vec<SweepPoint>),
}

/// A job's result plus how the execution ended. A cancelled job reports
/// the partial trace of the steps that completed before the token fired
/// (a valid prefix — cancellation lands on step boundaries).
#[derive(Clone, Debug)]
pub struct JobOutput {
    pub result: JobResult,
    /// Whether a cancel token stopped the execution early.
    pub cancelled: bool,
    /// Steps actually taken, summed over the job's runs.
    pub steps_done: usize,
}

fn hash_ehrenfest(h: &mut Fnv64, cfg: &PipelineConfig) {
    h.write_f64(cfg.ehrenfest.dt_qd);
    h.write_u64(cfg.ehrenfest.n_qd as u64);
    h.write_u64(cfg.ehrenfest.self_consistent as u64);
}

/// The supercell-texture inputs (what `Pipeline::new` builds from).
fn hash_supercell(h: &mut Fnv64, cfg: &PipelineConfig) {
    h.write_u64(cfg.cells.0 as u64);
    h.write_u64(cfg.cells.1 as u64);
    h.write_u64(cfg.cells.2 as u64);
    h.write_u64(cfg.skyrmions.0 as u64);
    h.write_u64(cfg.skyrmions.1 as u64);
    h.write_f64(cfg.skyrmion_radius);
    h.write_f64(cfg.u0);
}

/// Every parameter of a [`Drive`] that enters the field values, tagged
/// per variant so a CW drive can never collide with a Gaussian pulse of
/// the same amplitudes.
fn hash_drive(h: &mut Fnv64, drive: &Drive) {
    match drive {
        Drive::Gaussian(p) => {
            h.write_u64(1);
            h.write_f64(p.e0);
            h.write_f64(p.omega);
            h.write_f64(p.t0);
            h.write_f64(p.sigma);
            h.write_f64(p.phase);
        }
        Drive::Cw(d) => {
            h.write_u64(2);
            h.write_f64(d.e0);
            h.write_f64(d.omega);
            h.write_f64(d.phase);
            h.write_f64(d.ramp_time);
        }
    }
}

impl JobSpec {
    /// The sweep workload of [`Pipeline::pump_probe_sweep`].
    pub fn pump_probe_sweep(config: PipelineConfig, amplitudes: Vec<f64>) -> Self {
        assert!(!amplitudes.is_empty(), "sweep needs at least one amplitude");
        JobSpec::PumpProbeSweep { config, amplitudes }
    }

    /// One MESH driver run at amplitude `e0` for `n_steps`.
    pub fn mesh_run(config: PipelineConfig, e0: f64, n_steps: usize) -> Self {
        JobSpec::MeshRun {
            config,
            e0,
            n_steps,
        }
    }

    /// A supercell MD response run at the given excitation fraction.
    pub fn md_run(config: PipelineConfig, excitation_fraction: f64, n_steps: usize) -> Self {
        JobSpec::MdRun {
            config,
            excitation_fraction,
            n_steps,
        }
    }

    /// A 1-D FDTD pulse on an `n_cells` vacuum grid (see
    /// [`JobSpec::FdtdPulse`] for the fixed geometry).
    pub fn fdtd_pulse(n_cells: usize, e0: f64, omega: f64, n_steps: usize) -> Self {
        JobSpec::FdtdPulse {
            n_cells,
            e0,
            omega,
            n_steps,
        }
    }

    /// A superlattice geometry scan under a fixed periodic drive.
    pub fn floquet_sweep(sweep: SuperlatticeSweep) -> Self {
        assert!(
            !sweep.configs.is_empty(),
            "sweep needs at least one geometry"
        );
        JobSpec::FloquetSweep { sweep }
    }

    /// A short human label for logs and progress displays.
    pub fn label(&self) -> &'static str {
        match self {
            JobSpec::PumpProbeSweep { .. } => "pump-probe-sweep",
            JobSpec::MeshRun { .. } => "mesh-run",
            JobSpec::MdRun { .. } => "md-run",
            JobSpec::FdtdPulse { .. } => "fdtd-pulse",
            JobSpec::FloquetSweep { .. } => "floquet-sweep",
        }
    }

    /// Total engine steps this job will take (the denominator of its
    /// progress events).
    pub fn total_steps(&self) -> usize {
        match self {
            JobSpec::PumpProbeSweep { config, amplitudes } => {
                (amplitudes.len() + 1) * config.mesh_steps
            }
            JobSpec::MeshRun { n_steps, .. }
            | JobSpec::MdRun { n_steps, .. }
            | JobSpec::FdtdPulse { n_steps, .. } => *n_steps,
            JobSpec::FloquetSweep { sweep } => sweep.total_steps(),
        }
    }

    /// The canonical cross-request deduplication key (see the module
    /// docs for the discipline). Two specs with equal keys produce
    /// bit-identical results, so the scheduler may run one and share.
    pub fn dedup_key(&self) -> u64 {
        let mut h = Fnv64::new();
        match self {
            JobSpec::PumpProbeSweep { config, amplitudes } => {
                h.write_u64(SWEEP_SALT);
                h.write_u64(Self::material_key(config));
                h.write_f64(config.dt_fs);
                h.write_f64(config.pulse_omega);
                hash_ehrenfest(&mut h, config);
                h.write_u64(config.mesh_steps as u64);
                h.write_u64(amplitudes.len() as u64);
                for &e0 in amplitudes {
                    h.write_f64(e0);
                }
            }
            JobSpec::MeshRun {
                config,
                e0,
                n_steps,
            } => {
                h.write_u64(MESH_SALT);
                h.write_u64(Self::material_key(config));
                h.write_f64(config.dt_fs);
                h.write_f64(config.pulse_omega);
                hash_ehrenfest(&mut h, config);
                h.write_f64(*e0);
                h.write_u64(*n_steps as u64);
            }
            JobSpec::MdRun {
                config,
                excitation_fraction,
                n_steps,
            } => {
                h.write_u64(MD_SALT);
                hash_supercell(&mut h, config);
                h.write_f64(config.dt_fs);
                h.write_u64(config.seed);
                h.write_f64(*excitation_fraction);
                h.write_u64(*n_steps as u64);
            }
            JobSpec::FdtdPulse {
                n_cells,
                e0,
                omega,
                n_steps,
            } => {
                h.write_u64(FDTD_SALT);
                h.write_u64(*n_cells as u64);
                h.write_f64(*e0);
                h.write_f64(*omega);
                h.write_u64(*n_steps as u64);
            }
            JobSpec::FloquetSweep { sweep } => {
                h.write_u64(FLOQUET_SALT);
                hash_drive(&mut h, &sweep.drive);
                h.write_u64(sweep.n_cells as u64);
                h.write_f64(sweep.dz);
                h.write_f64(sweep.dt);
                h.write_u64(sweep.n_steps as u64);
                h.write_f64(sweep.sigma_patch);
                h.write_u64(sweep.n_harmonics as u64);
                h.write_u64(sweep.invariant_grid as u64);
                h.write_u64(sweep.chain_pairs as u64);
                h.write_u64(sweep.configs.len() as u64);
                for c in &sweep.configs {
                    h.write_f64(c.dimerization);
                    h.write_u64(c.patch_period as u64);
                }
            }
        }
        h.finish()
    }

    /// This job's workload shape for the ahead-of-time planner — the
    /// quantities the calibrated cost model needs, nothing more. Mesh
    /// jobs report the pipeline's one domain shape
    /// ([`MESH_STAGE_NGRID`] × [`MESH_STAGE_NORB`], the calibration
    /// fixture's shape), so fitted fixture times transfer directly.
    pub fn plan_job(&self) -> PlanJob {
        match self {
            JobSpec::PumpProbeSweep { config, amplitudes } => PlanJob::MeshBatch {
                // The sweep runs every amplitude plus the shared dark
                // reference (see `run`).
                runs: amplitudes.len() + 1,
                steps: config.mesh_steps,
                ngrid: MESH_STAGE_NGRID,
                norb: MESH_STAGE_NORB,
                n_qd: config.ehrenfest.n_qd,
                warm_shared: matches!(config.mesh_warm_start, WarmStartPolicy::ProcessCache),
            },
            JobSpec::MeshRun {
                config, n_steps, ..
            } => PlanJob::MeshBatch {
                runs: 1,
                steps: *n_steps,
                ngrid: MESH_STAGE_NGRID,
                norb: MESH_STAGE_NORB,
                n_qd: config.ehrenfest.n_qd,
                warm_shared: matches!(config.mesh_warm_start, WarmStartPolicy::ProcessCache),
            },
            JobSpec::MdRun {
                config, n_steps, ..
            } => PlanJob::Md {
                steps: *n_steps,
                atoms: config.n_atoms(),
            },
            JobSpec::FdtdPulse {
                n_cells, n_steps, ..
            } => PlanJob::Fdtd {
                steps: *n_steps,
                cells: *n_cells,
            },
            JobSpec::FloquetSweep { sweep } => PlanJob::FloquetSweep {
                runs: sweep.configs.len(),
                steps: sweep.n_steps,
                cells: sweep.n_cells,
            },
        }
    }

    /// The ground-state config hash of this configuration's MESH stage —
    /// `ground_state_key` through the builder seam, amplitude-independent
    /// by construction (the pulse does not enter the descent).
    pub fn material_key(config: &PipelineConfig) -> u64 {
        Pipeline::new(*config).mesh_stage_builder(0.0).config_key()
    }

    /// Execute the job: drive the underlying engine workload with
    /// cooperative cancellation and progress streaming. Runs on the
    /// calling thread; inner batches use the work-stealing pool exactly
    /// as the synchronous API does.
    pub fn run(
        &self,
        cancel: &CancelToken,
        sink: &EventSink,
        id: JobId,
        progress_stride: SampleStride,
    ) -> JobOutput {
        match self {
            JobSpec::PumpProbeSweep { config, amplitudes } => {
                let pipeline = Pipeline::new(*config);
                let mut all = amplitudes.clone();
                all.push(0.0); // the shared dark reference
                let pairs =
                    pipeline.mesh_batch_observed(&all, config.mesh_steps, cancel, |run, _e0| {
                        ProgressObserver::new(
                            TraceObserver::every(),
                            progress_stride,
                            sink.clone(),
                            id,
                            run,
                            config.mesh_steps,
                        )
                    });
                let cancelled = pairs.iter().any(|(_, outcome)| outcome.cancelled);
                let steps_done = pairs.iter().map(|(_, outcome)| outcome.steps_done).sum();
                let traces: Vec<Vec<MeshStepRecord>> = pairs
                    .into_iter()
                    .map(|(obs, _)| obs.into_inner().trace)
                    .collect();
                JobOutput {
                    result: JobResult::PumpProbe(Pipeline::sweep_runs(amplitudes, traces)),
                    cancelled,
                    steps_done,
                }
            }
            JobSpec::MeshRun { config, e0, .. } => self.run_single(
                Pipeline::new(*config).mesh_stage(*e0),
                JobResult::Mesh,
                cancel,
                sink,
                id,
                progress_stride,
            ),
            JobSpec::MdRun {
                config,
                excitation_fraction,
                ..
            } => self.run_single(
                Pipeline::new(*config).supercell_md_stage(*excitation_fraction),
                JobResult::Md,
                cancel,
                sink,
                id,
                progress_stride,
            ),
            JobSpec::FdtdPulse {
                n_cells, e0, omega, ..
            } => self.run_single(
                PulsedYee::new(
                    Yee1d::new(*n_cells, FDTD_DZ, FDTD_DT),
                    GaussianPulse::new(*e0, *omega, FDTD_T0, FDTD_SIGMA),
                    *n_cells / 4,
                ),
                JobResult::Fdtd,
                cancel,
                sink,
                id,
                progress_stride,
            ),
            JobSpec::FloquetSweep { sweep } => {
                // One engine pass per geometry: the progress observer
                // wraps the spectral accumulator, so streaming events
                // and the Floquet bins come from the same step loop.
                let per_run = sweep.n_steps;
                let points = sweep.execute_observed(
                    cancel,
                    |run, obs| {
                        ProgressObserver::new(obs, progress_stride, sink.clone(), id, run, per_run)
                    },
                    |obs| obs.into_inner(),
                );
                let cancelled = points.iter().any(|p| p.outcome.cancelled);
                let steps_done = points.iter().map(|p| p.outcome.steps_done).sum();
                JobOutput {
                    result: JobResult::Floquet(points),
                    cancelled,
                    steps_done,
                }
            }
        }
    }

    /// The body of every single-run job: engine-drive `stepper` for this
    /// job's [`Self::total_steps`] under a progress observer that keeps
    /// the full trace, and wrap the (possibly cancelled-prefix) trace.
    fn run_single<S: Stepper<Record: Clone>>(
        &self,
        mut stepper: S,
        wrap: fn(Vec<S::Record>) -> JobResult,
        cancel: &CancelToken,
        sink: &EventSink,
        id: JobId,
        progress_stride: SampleStride,
    ) -> JobOutput {
        let n_steps = self.total_steps();
        let mut obs = ProgressObserver::new(
            TraceObserver::every(),
            progress_stride,
            sink.clone(),
            id,
            0,
            n_steps,
        );
        let outcome = Engine::run_cancellable(&mut stepper, n_steps, &mut obs, cancel);
        JobOutput {
            result: wrap(obs.into_inner().trace),
            cancelled: outcome.cancelled,
            steps_done: outcome.steps_done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> PipelineConfig {
        let mut cfg = PipelineConfig::small_demo();
        cfg.cells = (4, 4, 1);
        cfg.prepare_steps = 2;
        cfg.mesh_steps = 2;
        cfg.response_steps = 10;
        cfg
    }

    #[test]
    fn dedup_keys_are_canonical_and_discriminating() {
        let cfg = tiny_config();
        let a = JobSpec::pump_probe_sweep(cfg, vec![0.05, 0.1]);
        let b = JobSpec::pump_probe_sweep(cfg, vec![0.05, 0.1]);
        assert_eq!(a.dedup_key(), b.dedup_key(), "identical specs, one key");
        // Different amplitudes, steps, or workload class: different keys.
        assert_ne!(
            a.dedup_key(),
            JobSpec::pump_probe_sweep(cfg, vec![0.05, 0.2]).dedup_key()
        );
        assert_ne!(
            JobSpec::mesh_run(cfg, 0.05, 2).dedup_key(),
            JobSpec::mesh_run(cfg, 0.05, 3).dedup_key()
        );
        assert_ne!(
            JobSpec::mesh_run(cfg, 0.05, 2).dedup_key(),
            JobSpec::pump_probe_sweep(cfg, vec![0.05]).dedup_key()
        );
    }

    #[test]
    fn mesh_keys_cover_exactly_what_the_mesh_stage_reads() {
        // Every field of the MESH stage's input is either hashed into the
        // key or does not change the trajectory; the material key itself
        // is one value for every config.
        let base = tiny_config();
        let run = |cfg: PipelineConfig| {
            let spec = JobSpec::mesh_run(cfg, 0.08, 2);
            let out = spec.run(
                &CancelToken::new(),
                &EventSink::new(),
                JobId(1),
                SampleStride::EVERY,
            );
            let JobResult::Mesh(records) = out.result else {
                panic!("mesh result expected");
            };
            let bits: Vec<u64> = records
                .iter()
                .flat_map(|r| {
                    let p = r.mean_polarization;
                    [
                        r.time_fs,
                        r.n_exc,
                        r.absorbed_energy,
                        p.x,
                        p.y,
                        p.z,
                        r.atom_potential_energy,
                        r.topological_charge,
                    ]
                    .into_iter()
                    .chain(r.occupations.iter().copied())
                    .map(f64::to_bits)
                    .collect::<Vec<_>>()
                })
                .collect();
            (spec.dedup_key(), bits)
        };
        let (key, bits) = run(base);
        let material = JobSpec::material_key(&base);

        type Vary = (&'static str, fn(&mut PipelineConfig));
        let unread: [Vary; 13] = [
            ("cells", |c| c.cells = (6, 5, 2)),
            ("skyrmions", |c| c.skyrmions = (2, 1)),
            ("skyrmion_radius", |c| c.skyrmion_radius = 1.5),
            ("u0", |c| c.u0 = 0.2),
            ("prepare_steps", |c| c.prepare_steps = 7),
            ("response_steps", |c| c.response_steps = 3),
            ("response_sample_stride", |c| c.response_sample_stride = 1),
            ("respond_nn_batches Some(1)", |c| {
                c.respond_nn_batches = Some(1)
            }),
            ("respond_nn_batches Some(3)", |c| {
                c.respond_nn_batches = Some(3)
            }),
            ("excitation_gain", |c| c.excitation_gain = 2.0),
            ("seed", |c| c.seed = 7),
            ("pulse_e0", |c| c.pulse_e0 = 0.3),
            ("mesh_steps", |c| c.mesh_steps = 9),
        ];
        for (field, vary) in unread {
            let mut cfg = base;
            vary(&mut cfg);
            assert_eq!(JobSpec::material_key(&cfg), material, "{field}");
            let (k, b) = run(cfg);
            assert_eq!(k, key, "{field} is not read by the MESH stage");
            assert_eq!(b, bits, "{field} must not move the MESH trajectory");
        }

        let read: [Vary; 5] = [
            ("dt_fs", |c| c.dt_fs = 0.1),
            ("pulse_omega", |c| c.pulse_omega = 0.5),
            ("ehrenfest.dt_qd", |c| c.ehrenfest.dt_qd = 0.04),
            ("ehrenfest.n_qd", |c| c.ehrenfest.n_qd = 31),
            ("ehrenfest.self_consistent", |c| {
                c.ehrenfest.self_consistent = true
            }),
        ];
        for (field, vary) in read {
            let mut cfg = base;
            vary(&mut cfg);
            assert_eq!(JobSpec::material_key(&cfg), material, "{field}");
            let k = JobSpec::mesh_run(cfg, 0.08, 2).dedup_key();
            assert_ne!(k, key, "{field} is read by the MESH stage");
        }
    }

    #[test]
    fn execution_form_does_not_enter_the_key() {
        // Bit-identical execution forms (distributed batch, warm-start
        // policy) must coalesce with their in-process twins.
        let cfg = tiny_config();
        let mut dist = cfg;
        dist.mesh_ranks_per_domain = Some(2);
        let mut fresh = cfg;
        fresh.mesh_warm_start = mlmd_dcmesh::WarmStartPolicy::Fresh;
        let base = JobSpec::pump_probe_sweep(cfg, vec![0.1]).dedup_key();
        assert_eq!(base, JobSpec::pump_probe_sweep(dist, vec![0.1]).dedup_key());
        assert_eq!(
            base,
            JobSpec::pump_probe_sweep(fresh, vec![0.1]).dedup_key()
        );
    }

    #[test]
    fn sweep_job_matches_synchronous_sweep_bit_for_bit() {
        // One code path: the job-service execution of a sweep must equal
        // Pipeline::pump_probe_sweep exactly.
        let cfg = tiny_config();
        let amplitudes = [0.05, 0.1];
        let sync = Pipeline::new(cfg).pump_probe_sweep(&amplitudes);
        let spec = JobSpec::pump_probe_sweep(cfg, amplitudes.to_vec());
        let out = spec.run(
            &CancelToken::new(),
            &EventSink::new(),
            JobId(1),
            SampleStride::EVERY,
        );
        assert!(!out.cancelled);
        assert_eq!(out.steps_done, spec.total_steps());
        let JobResult::PumpProbe(runs) = out.result else {
            panic!("sweep job must produce a sweep result");
        };
        assert_eq!(runs.len(), sync.len());
        for (a, b) in sync.iter().zip(&runs) {
            assert_eq!(a.e0, b.e0);
            assert_eq!(a.n_exc_peak.to_bits(), b.n_exc_peak.to_bits());
            assert_eq!(a.records.len(), b.records.len());
            for (ra, rb) in a.records.iter().zip(&b.records) {
                assert_eq!(ra.n_exc.to_bits(), rb.n_exc.to_bits());
            }
        }
    }

    #[test]
    fn floquet_keys_fold_drive_and_geometry() {
        use mlmd_floquet::sweep::DimerConfig;
        let configs = |etas: &[f64]| -> Vec<DimerConfig> {
            etas.iter()
                .map(|&dimerization| DimerConfig {
                    dimerization,
                    patch_period: 20,
                })
                .collect()
        };
        let base = SuperlatticeSweep::canonical(configs(&[0.5, 2.0]));
        let key = JobSpec::floquet_sweep(base.clone()).dedup_key();
        assert_eq!(
            key,
            JobSpec::floquet_sweep(base.clone()).dedup_key(),
            "identical sweeps, one key"
        );
        // A different geometry list, drive, or workload class breaks it.
        let mut other = base.clone();
        other.configs = configs(&[0.5, 2.5]);
        assert_ne!(key, JobSpec::floquet_sweep(other).dedup_key());
        let mut other = base.clone();
        other.drive = GaussianPulse::new(0.08, 0.3, 20.0, 8.0).into();
        assert_ne!(key, JobSpec::floquet_sweep(other).dedup_key());
        assert_ne!(
            key,
            JobSpec::fdtd_pulse(base.n_cells, 0.08, 0.3, base.n_steps).dedup_key()
        );
    }

    #[test]
    fn floquet_job_runs_and_cancels() {
        use mlmd_floquet::sweep::DimerConfig;
        let mut sweep = SuperlatticeSweep::canonical(
            [0.5, 2.0]
                .into_iter()
                .map(|dimerization| DimerConfig {
                    dimerization,
                    patch_period: 20,
                })
                .collect(),
        );
        sweep.n_steps = 120;
        let spec = JobSpec::floquet_sweep(sweep);
        let out = spec.run(
            &CancelToken::new(),
            &EventSink::new(),
            JobId(7),
            SampleStride::new(40),
        );
        assert!(!out.cancelled);
        assert_eq!(out.steps_done, spec.total_steps());
        let JobResult::Floquet(points) = out.result else {
            panic!("floquet result expected");
        };
        assert_eq!(points.len(), 2);
        assert!(!points[0].topological && points[1].topological);
        // Pre-cancelled: zero steps, every point flagged.
        let token = CancelToken::new();
        token.cancel();
        let out = spec.run(&token, &EventSink::new(), JobId(8), SampleStride::EVERY);
        assert!(out.cancelled);
        assert_eq!(out.steps_done, 0);
    }

    #[test]
    fn fdtd_job_runs_and_cancels() {
        let spec = JobSpec::fdtd_pulse(64, 0.2, 0.3, 40);
        let out = spec.run(
            &CancelToken::new(),
            &EventSink::new(),
            JobId(2),
            SampleStride::new(10),
        );
        assert!(!out.cancelled);
        let JobResult::Fdtd(trace) = out.result else {
            panic!("fdtd result expected");
        };
        assert_eq!(trace.len(), 40);
        // Pre-cancelled: no steps, empty trace, cancelled flag set.
        let token = CancelToken::new();
        token.cancel();
        let out = spec.run(&token, &EventSink::new(), JobId(3), SampleStride::EVERY);
        assert!(out.cancelled);
        assert_eq!(out.steps_done, 0);
    }
}
