//! The Fig. 3 pipeline: light-induced switching of a ferroelectric
//! skyrmion superlattice.
//!
//! "We adopt a multiscale simulation approach, where we first prepare a
//! complex polar topology, i.e., a superlattice of skyrmions using
//! GS-NNQMD. These atomic positions are fed to DC-MESH to simulate
//! electronic and structural responses to a femtosecond laser pulse.
//! Informed by the resulting electronic-excitation number from DC-MESH,
//! XS-NNQMD simulation is then performed to study larger
//! spatiotemporal-scale topological dynamics." (paper Sec. VI.A)
//!
//! Stage 1 (prepare) and stage 3 (response) run on the supercell with the
//! ground-state / excitation-reshaped force field; stage 2 runs the full
//! DC-MESH driver on an embedded quantum region (the XN of the XN/NN
//! coupling, MSA-3) whose excitation count is extrapolated to the
//! supercell. Dissipation during the response stage (Langevin friction)
//! models the electron–phonon and phonon–phonon energy drain of the real
//! material.
//!
//! Every stage is an engine run (see [`crate::engine`]): prepare and
//! respond drive an [`MdStage`] over the [`SupercellForce`], and the
//! pump–probe measurement executes its lit and dark [`MeshDriver`] runs
//! as one [`Pipeline::mesh_batch`] ([`Pipeline::pump_probe_sweep`]
//! generalizes the pair to an N-amplitude sweep). The batch has two
//! bit-identical execution forms: a concurrent [`RunPlan`] on the
//! work-stealing pool (the default), or — with
//! `PipelineConfig::mesh_ranks_per_domain` set — a simulated-MPI
//! [`World::run`] region with one rank-sharded
//! [`DistributedMeshDriver`] domain per run (`tests/mesh_dist.rs` pins
//! the equivalence).

use crate::config::PipelineConfig;
use crate::engine::{
    polarization_of, CancelToken, Engine, NullObserver, Observer, ResponseTraceObserver,
    RunOutcome, RunPlan, SampleStride, SupercellForce, TraceObserver,
};
use crate::msa::XnNnCoupling;
use mlmd_dcmesh::dist_mesh::DistributedMeshDriver;
use mlmd_dcmesh::mesh::{MeshConfig, MeshDriver, MeshDriverBuilder, MeshStepRecord};
use mlmd_lfd::occupation::Occupations;
use mlmd_lfd::potential::AtomSite;
use mlmd_lfd::wavefunction::WaveFunctions;
use mlmd_maxwell::source::GaussianPulse;
use mlmd_nnqmd::md::NnForceField;
use mlmd_nnqmd::model::{AllegroLite, ModelConfig};
use mlmd_numerics::grid::Grid3;
use mlmd_numerics::rng::Xoshiro256;
use mlmd_numerics::vec3::Vec3;
use mlmd_parallel::comm::World;
use mlmd_qxmd::atoms::AtomsSystem;
use mlmd_qxmd::ferro::{FerroModel, FerroParams};
use mlmd_qxmd::md_stage::MdStage;
use mlmd_qxmd::perovskite::PerovskiteLattice;
use mlmd_qxmd::thermostat::Langevin;
use mlmd_topo::polarization::PolarizationField;
use mlmd_topo::superlattice::Texture;
use mlmd_topo::switching::{compare, SwitchingVerdict, TextureReport};

/// Edge length of the MESH stage's cubic FD grid — every pipeline MESH
/// run (and the calibration fixture) uses this one domain shape.
pub const MESH_STAGE_EDGE: usize = 8;
/// FD grid points of the MESH stage ([`MESH_STAGE_EDGE`]³).
pub const MESH_STAGE_NGRID: usize = MESH_STAGE_EDGE * MESH_STAGE_EDGE * MESH_STAGE_EDGE;
/// KS states in the MESH stage's panel (2 occupied + 6 virtual).
pub const MESH_STAGE_NORB: usize = 8;

/// One point of the response-stage trajectory.
#[derive(Clone, Copy, Debug)]
pub struct ResponsePoint {
    pub time_fs: f64,
    pub polar_order: f64,
    pub mean_charge: f64,
}

/// One lit run of a pump–probe amplitude sweep.
#[derive(Clone, Debug)]
pub struct PumpProbeRun {
    /// Pulse amplitude of this run (a.u.).
    pub e0: f64,
    /// Full MESH trajectory of the lit run.
    pub records: Vec<MeshStepRecord>,
    /// Peak excitation above the shared dark reference.
    pub n_exc_peak: f64,
}

/// The end-to-end result.
#[derive(Clone, Debug)]
pub struct PipelineOutcome {
    pub initial_topological_charge: f64,
    pub final_topological_charge: f64,
    pub verdict: SwitchingVerdict,
    pub n_exc_peak: f64,
    pub excitation_fraction: f64,
    pub mesh_records: Vec<MeshStepRecord>,
    pub response_trace: Vec<ResponsePoint>,
}

/// The pipeline state.
pub struct Pipeline {
    pub config: PipelineConfig,
    lattice: PerovskiteLattice,
    ferro: FerroModel,
}

/// Peak excitation over a MESH trajectory.
fn peak_exc(records: &[MeshStepRecord]) -> f64 {
    records.iter().map(|r| r.n_exc).fold(0.0f64, f64::max)
}

impl Pipeline {
    /// Stage 0: build the skyrmion-superlattice supercell.
    pub fn new(config: PipelineConfig) -> Self {
        assert!(
            config.respond_nn_batches != Some(0),
            "PipelineConfig::respond_nn_batches must be at least 1 inference batch, got Some(0)"
        );
        let (nx, ny, nz) = config.cells;
        let tex = Texture::skyrmion_lattice(
            config.skyrmions.0,
            config.skyrmions.1,
            nx as f64,
            ny as f64,
            config.skyrmion_radius,
        );
        let u0 = config.u0;
        let lattice = PerovskiteLattice::build(nx, ny, nz, |kx, ky, _| {
            tex.direction(kx as f64 + 0.5, ky as f64 + 0.5) * u0
        });
        let ferro = FerroModel::new(&lattice, FerroParams::pbtio3());
        Self {
            config,
            lattice,
            ferro,
        }
    }

    /// Current polarization field of the supercell.
    pub fn polarization(&self) -> PolarizationField {
        polarization_of(self.config.cells, &self.ferro, &self.lattice.system)
    }

    /// Move the supercell system out of the pipeline for an MD stage.
    fn take_system(&mut self) -> AtomsSystem {
        std::mem::replace(
            &mut self.lattice.system,
            AtomsSystem::new(Vec::new(), Vec::new(), Vec3::splat(1.0)),
        )
    }

    /// Run a supercell MD stage and reclaim its system and force model.
    fn run_md_stage<O: Observer<MdStage<SupercellForce>>>(
        &mut self,
        force: SupercellForce,
        n_steps: usize,
        thermostat: Option<Langevin>,
        rng: Xoshiro256,
        observer: &mut O,
    ) {
        let system = self.take_system();
        let mut stage = MdStage::new(system, force, self.config.dt_fs, thermostat, rng);
        Engine::run(&mut stage, n_steps, observer);
        let (system, force) = stage.into_parts();
        self.lattice.system = system;
        self.ferro = force.ferro;
    }

    /// Stage 1: NVE relaxation of the quenched texture on the ground-state
    /// landscape.
    fn prepare(&mut self) {
        let cfg = self.config;
        self.ferro.set_uniform_excitation(0.0);
        let force = SupercellForce::analytic(self.ferro.clone());
        let rng = Xoshiro256::new(cfg.seed);
        self.run_md_stage(force, cfg.prepare_steps, None, rng, &mut NullObserver);
    }

    /// The embedded-region MESH driver with the given pulse amplitude,
    /// assembled through [`MeshDriverBuilder`]. The QM patch starts at the
    /// *coupled* ferroelectric minimum u* = √((3J−a₂)/2a₄), so with no
    /// pulse the atoms are force-free and the electronic state is
    /// stationary. Public so tests, the benchmark, and sweeps can
    /// engine-drive the same driver the pipeline measures.
    pub fn mesh_stage(&self, e0: f64) -> MeshDriver {
        self.mesh_stage_builder(e0).build()
    }

    /// The builder of [`Self::mesh_stage`]'s driver, with the configured
    /// warm-start source attached but not yet resolved. The distributed
    /// batch path hands this to every rank so the domain root resolves
    /// the ground state once and broadcasts it; `PipelineConfig`'s
    /// default `ProcessCache` policy additionally shares that one descent
    /// across every amplitude and batch in the process, since the pulse
    /// amplitude does not enter the ground-state config hash.
    pub fn mesh_stage_builder(&self, e0: f64) -> MeshDriverBuilder {
        let cfg = self.config;
        let grid = Grid3::new(MESH_STAGE_EDGE, MESH_STAGE_EDGE, MESH_STAGE_EDGE, 0.5);
        // 8-state panel, 2 occupied + 6 virtual (see MeshDriver docs).
        let wf = WaveFunctions::plane_waves(grid, MESH_STAGE_NORB);
        let occ = Occupations::aufbau(MESH_STAGE_NORB, 4.0);
        let params = FerroParams::pbtio3();
        let u_star = ((3.0 * params.j_nn - params.a2) / (2.0 * params.a4)).sqrt();
        let qm_lat = PerovskiteLattice::uniform(3, 3, 3, Vec3::new(0.0, 0.0, u_star));
        let qm_ferro = FerroModel::new(&qm_lat, params);
        MeshDriverBuilder::new(wf, occ, qm_lat.system.clone(), qm_ferro)
            .config(MeshConfig {
                dt_md_fs: cfg.dt_fs,
                ehrenfest: cfg.ehrenfest,
                ..Default::default()
            })
            .pulse(GaussianPulse::new(e0, cfg.pulse_omega, 4.0, 2.0))
            .track_site(
                0,
                AtomSite {
                    pos: Vec3::new(2.0, 2.0, 2.0),
                    z_eff: 1.0,
                    sigma: 0.8,
                },
            )
            .warm_start(cfg.mesh_warm_start.to_warm_start())
    }

    /// Execute one MESH driver per amplitude for `n_steps` each and
    /// return the trajectories in amplitude order. This is the one batch
    /// seam both the lit/dark pulse measurement and the N-amplitude sweep
    /// go through, in one of two bit-identical forms:
    ///
    /// * `mesh_ranks_per_domain: None` — an in-process [`RunPlan`] batch
    ///   on the work-stealing pool (each run internally serial);
    /// * `mesh_ranks_per_domain: Some(r)` — a simulated-MPI
    ///   [`World::run`] region of `amplitudes.len() × r` ranks: one
    ///   [`DistributedMeshDriver`] domain per run, `r` ranks sharding each
    ///   driver's band-local work, every rank engine-driving its replica
    ///   in lockstep. The ROADMAP's "engine runs as simulated-MPI jobs".
    ///
    /// `tests/mesh_dist.rs` pins the two forms bit-identical.
    pub fn mesh_batch(&self, amplitudes: &[f64], n_steps: usize) -> Vec<Vec<MeshStepRecord>> {
        assert!(!amplitudes.is_empty(), "need at least one MESH run");
        match self.config.mesh_ranks_per_domain {
            None => self
                .mesh_batch_observed(amplitudes, n_steps, &CancelToken::default(), |_, _| {
                    TraceObserver::every()
                })
                .into_iter()
                .map(|(obs, _)| obs.trace)
                .collect(),
            Some(ranks_per_domain) => {
                let n_domains = amplitudes.len();
                let results = World::run(n_domains * ranks_per_domain, |world| {
                    let mut drv = DistributedMeshDriver::new(world, n_domains, |d| {
                        self.mesh_stage_builder(amplitudes[d])
                    });
                    let mut obs = TraceObserver::every();
                    Engine::run(&mut drv, n_steps, &mut obs);
                    obs.trace
                });
                // Replicas within a domain are identical; keep each
                // domain root's trace, in domain (= amplitude) order.
                results.into_iter().step_by(ranks_per_domain).collect()
            }
        }
    }

    /// The observer-generic, cancellable form of the in-process MESH
    /// batch — the seam the job service streams progress and threads
    /// cancellation through while sharing this exact code path with the
    /// synchronous API ([`Self::mesh_batch`] with
    /// `mesh_ranks_per_domain: None` delegates here with a default token
    /// and plain [`TraceObserver`]s).
    ///
    /// `make_observer(run_index, e0)` builds each run's observer; every
    /// run is pushed with a clone of `cancel`, so cancelling the token
    /// stops the whole batch at the next step boundaries, each run
    /// reporting its partial trace through its observer and its
    /// [`RunOutcome`]. A default token pins current behavior bit-for-bit.
    ///
    /// The rank-distributed batch form (`mesh_ranks_per_domain: Some(r)`)
    /// does not support cancellation or per-run observers: ranks step in
    /// lockstep inside `World::run`, where stopping early would need a
    /// collective agreement protocol.
    pub fn mesh_batch_observed<O, F>(
        &self,
        amplitudes: &[f64],
        n_steps: usize,
        cancel: &CancelToken,
        mut make_observer: F,
    ) -> Vec<(O, RunOutcome)>
    where
        O: Observer<MeshDriver> + Send,
        F: FnMut(usize, f64) -> O,
    {
        assert!(!amplitudes.is_empty(), "need at least one MESH run");
        let mut plan = RunPlan::new();
        for (run, &e0) in amplitudes.iter().enumerate() {
            plan.push_cancellable(
                self.mesh_stage(e0),
                make_observer(run, e0),
                n_steps,
                cancel.clone(),
            );
        }
        plan.execute()
            .into_iter()
            .map(|run| (run.observer, run.outcome))
            .collect()
    }

    /// Stage 2: DC-MESH pulse on the embedded quantum region, measured
    /// pump–probe style: the excitation count is the *difference* between
    /// the driven run and a dark reference run, removing the residual
    /// baseline from eigenstate imperfection. The lit and dark drivers
    /// execute as one [`Self::mesh_batch`] (an in-process [`RunPlan`] or,
    /// with `mesh_ranks_per_domain` set, rank-sharded inside
    /// [`World::run`]).
    fn pulse(&mut self) -> (Vec<MeshStepRecord>, f64) {
        let cfg = self.config;
        let with_dark = cfg.pulse_e0 != 0.0;
        let mut amplitudes = vec![cfg.pulse_e0];
        if with_dark {
            amplitudes.push(0.0);
        }
        let mut traces = self.mesh_batch(&amplitudes, cfg.mesh_steps);
        let peak_dark = if with_dark {
            peak_exc(&traces.pop().expect("dark run"))
        } else {
            0.0
        };
        let records = traces.pop().expect("lit run");
        let delta = if with_dark {
            (peak_exc(&records) - peak_dark).max(0.0)
        } else {
            0.0
        };
        (records, delta)
    }

    /// Pump–probe amplitude sweep: N lit drivers plus one shared dark
    /// reference, all executed as a single [`Self::mesh_batch`].
    pub fn pump_probe_sweep(&self, amplitudes: &[f64]) -> Vec<PumpProbeRun> {
        let mut all = amplitudes.to_vec();
        all.push(0.0);
        let traces = self.mesh_batch(&all, self.config.mesh_steps);
        Self::sweep_runs(amplitudes, traces)
    }

    /// Reduce a sweep's raw trajectories to [`PumpProbeRun`]s: the last
    /// trace is the shared dark reference, and each lit run's peak is
    /// measured above it. This is the one summarization both
    /// [`Self::pump_probe_sweep`] and the job service's sweep jobs use,
    /// so the two APIs cannot diverge. Partial (cancelled) traces
    /// summarize too — the peak is taken over the steps that ran.
    pub fn sweep_runs(
        amplitudes: &[f64],
        mut traces: Vec<Vec<MeshStepRecord>>,
    ) -> Vec<PumpProbeRun> {
        assert_eq!(
            traces.len(),
            amplitudes.len() + 1,
            "traces must be the lit runs plus one trailing dark reference"
        );
        let peak_dark = peak_exc(&traces.pop().expect("dark reference"));
        amplitudes
            .iter()
            .zip(traces)
            .map(|(&e0, records)| {
                let n_exc_peak = (peak_exc(&records) - peak_dark).max(0.0);
                PumpProbeRun {
                    e0,
                    records,
                    n_exc_peak,
                }
            })
            .collect()
    }

    /// A supercell MD stage over the current texture with the respond
    /// stage's force and dissipation wiring (analytic excitation-reshaped
    /// landscape, low-temperature Langevin drain, the respond RNG
    /// stream), built over a *clone* of the system so the pipeline is
    /// untouched — the engine-drivable form of the XS-NNQMD response the
    /// job service's MD jobs run.
    pub fn supercell_md_stage(&self, excitation_fraction: f64) -> MdStage<SupercellForce> {
        let cfg = self.config;
        let mut ferro = self.ferro.clone();
        ferro.set_uniform_excitation(excitation_fraction);
        let force = SupercellForce::analytic(ferro);
        let thermostat = Some(Langevin::new(1.0, 0.3));
        MdStage::new(
            self.lattice.system.clone(),
            force,
            cfg.dt_fs,
            thermostat,
            Xoshiro256::new(cfg.seed ^ 0x5eed),
        )
    }

    /// Stage 3: XS-NNQMD response of the full supercell. With
    /// `respond_nn_batches: Some(n)` the force model gains a network term
    /// evaluated through batched `block_evaluate` inference.
    fn respond(&mut self, excitation_fraction: f64) -> Vec<ResponsePoint> {
        let cfg = self.config;
        self.ferro.set_uniform_excitation(excitation_fraction);
        // Dissipation channel (electron-phonon drain) at low temperature.
        let thermostat = Some(Langevin::new(1.0, 0.3));
        let rng = Xoshiro256::new(cfg.seed ^ 0x5eed);
        let network = cfg.respond_nn_batches.map(|n_batches| {
            let model = AllegroLite::new(
                ModelConfig {
                    hidden: 6,
                    k_max: 4,
                    rcut: 3.5,
                },
                cfg.seed,
            );
            NnForceField::with_batches(model, n_batches)
        });
        let force = SupercellForce {
            ferro: self.ferro.clone(),
            network,
        };
        let mut observer = ResponseTraceObserver::new(
            cfg.cells,
            cfg.dt_fs,
            SampleStride::new(cfg.response_sample_stride),
        );
        self.run_md_stage(force, cfg.response_steps, thermostat, rng, &mut observer);
        observer.trace
    }

    /// Run all stages.
    ///
    /// # Example
    ///
    /// The laptop-scale demo, shrunk to a few steps per stage so the
    /// example stays fast:
    ///
    /// ```
    /// use mlmd_core::config::PipelineConfig;
    /// use mlmd_core::pipeline::Pipeline;
    ///
    /// let mut cfg = PipelineConfig::small_demo();
    /// cfg.cells = (4, 4, 1);
    /// cfg.prepare_steps = 2;
    /// cfg.mesh_steps = 1;
    /// cfg.response_steps = 10;
    /// let out = Pipeline::new(cfg).run();
    /// assert_eq!(out.mesh_records.len(), 1);
    /// assert!(out.n_exc_peak >= 0.0);
    /// assert!(out.response_trace.last().unwrap().polar_order.is_finite());
    /// ```
    pub fn run(&mut self) -> PipelineOutcome {
        self.prepare();
        let before = self.polarization();
        let report_before = TextureReport::analyze(&before);
        let (mesh_records, n_exc_peak) = self.pulse();
        let coupling = XnNnCoupling {
            domain_electrons: 4.0,
            supercell_cells: self.config.n_cells() as f64,
            gain: self.config.excitation_gain,
        };
        let excitation_fraction = coupling.cell_fraction(n_exc_peak);
        let response_trace = self.respond(excitation_fraction);
        let after = self.polarization();
        let verdict = compare(&before, &after);
        PipelineOutcome {
            initial_topological_charge: report_before.mean_charge,
            final_topological_charge: verdict.after.mean_charge,
            verdict,
            n_exc_peak,
            excitation_fraction,
            mesh_records,
            response_trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "respond_nn_batches must be at least 1")]
    fn zero_respond_nn_batches_is_rejected_at_construction() {
        Pipeline::new(PipelineConfig {
            respond_nn_batches: Some(0),
            ..PipelineConfig::small_demo()
        });
    }

    #[test]
    fn prepared_superlattice_carries_charge() {
        let mut p = Pipeline::new(PipelineConfig::small_demo());
        p.prepare();
        let f = p.polarization();
        let r = TextureReport::analyze(&f);
        assert!(
            (r.mean_charge.abs() - 1.0).abs() < 0.2,
            "one skyrmion per layer: Q = {}",
            r.mean_charge
        );
    }

    #[test]
    fn full_pipeline_switches_topology() {
        let mut p = Pipeline::new(PipelineConfig::small_demo());
        let out = p.run();
        assert!(
            out.initial_topological_charge.abs() > 0.5,
            "starts with a skyrmion: {}",
            out.initial_topological_charge
        );
        assert!(out.n_exc_peak > 0.0, "pulse must excite");
        assert!(out.excitation_fraction > 0.1, "excitation above critical");
        assert!(
            out.verdict.topology_switched,
            "strong pulse must erase the skyrmion: Q {} → {}",
            out.initial_topological_charge, out.final_topological_charge
        );
        assert!(
            out.verdict.order_suppression > 0.3,
            "polar order must collapse: {}",
            out.verdict.order_suppression
        );
    }

    #[test]
    fn dark_pipeline_preserves_topology() {
        let mut cfg = PipelineConfig::small_demo();
        cfg.pulse_e0 = 0.0;
        let mut p = Pipeline::new(cfg);
        let out = p.run();
        assert!(
            !out.verdict.topology_switched,
            "no pulse, no switch: Q {} → {}",
            out.initial_topological_charge, out.final_topological_charge
        );
        assert!(out.excitation_fraction < 0.05);
    }

    #[test]
    fn response_trace_records_decay() {
        let mut p = Pipeline::new(PipelineConfig::small_demo());
        let out = p.run();
        assert!(out.response_trace.len() >= 2);
        let first = out.response_trace.first().unwrap().polar_order;
        let last = out.response_trace.last().unwrap().polar_order;
        assert!(last < first, "excited order must decay: {first} → {last}");
    }

    /// A shrunken configuration for mechanics tests: tiny supercell, one
    /// MESH step, a handful of response steps.
    fn tiny_config() -> PipelineConfig {
        let mut cfg = PipelineConfig::small_demo();
        cfg.cells = (4, 4, 1);
        cfg.prepare_steps = 2;
        cfg.mesh_steps = 1;
        cfg.response_steps = 25;
        cfg
    }

    #[test]
    fn sample_stride_controls_trace_cadence() {
        // stride 10 over 25 steps: samples at 0, 10, 20, 24 → 4 points.
        let mut p = Pipeline::new(tiny_config());
        let out = p.run();
        assert_eq!(out.response_trace.len(), 4);
        // stride 1: every step.
        let mut cfg = tiny_config();
        cfg.response_sample_stride = 1;
        let mut p = Pipeline::new(cfg);
        let out_dense = p.run();
        assert_eq!(out_dense.response_trace.len(), 25);
        // The shared sample points are identical: denser sampling must not
        // perturb the trajectory.
        for pt in &out.response_trace {
            let twin = out_dense
                .response_trace
                .iter()
                .find(|q| q.time_fs == pt.time_fs)
                .expect("coarse sample must exist in the dense trace");
            assert_eq!(twin.polar_order.to_bits(), pt.polar_order.to_bits());
        }
    }

    #[test]
    fn network_respond_path_is_blocking_invariant() {
        // The NN term rides through block_evaluate, whose batched and
        // monolithic evaluations are exact — so the *trajectory* must be
        // bit-identical across batch counts.
        let run = |n_batches: usize| {
            let mut cfg = tiny_config();
            cfg.respond_nn_batches = Some(n_batches);
            let mut p = Pipeline::new(cfg);
            let out = p.run();
            (
                out.final_topological_charge,
                out.response_trace.last().unwrap().polar_order,
            )
        };
        let (q1, p1) = run(1);
        let (q2, p2) = run(2);
        assert_eq!(
            q1.to_bits(),
            q2.to_bits(),
            "blocking must not change physics"
        );
        assert_eq!(p1.to_bits(), p2.to_bits());
        assert!(p1.is_finite());
    }

    #[test]
    fn pump_probe_sweep_monotone_in_amplitude() {
        let mut cfg = tiny_config();
        cfg.mesh_steps = 3;
        let p = Pipeline::new(cfg);
        let runs = p.pump_probe_sweep(&[0.0, 0.1]);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].e0, 0.0);
        // The zero-amplitude run measures zero above the dark reference.
        assert_eq!(runs[0].n_exc_peak, 0.0);
        assert!(
            runs[1].n_exc_peak > runs[0].n_exc_peak,
            "stronger pulse must excite more: {} vs {}",
            runs[1].n_exc_peak,
            runs[0].n_exc_peak
        );
        assert_eq!(runs[1].records.len(), 3);
    }
}
