//! Workload inputs, generated from the `--seed` argument.
//!
//! The seed changes only *values* — pulse amplitudes, the pipeline's RNG
//! seed, initial displacements, FDTD carrier frequencies, job order —
//! never a shape or a step count, so every seed does the same amount of
//! work. The program receives only what is generated here.

use mlmd::core::config::PipelineConfig;
use mlmd::floquet::sweep::{DimerConfig, SuperlatticeSweep};
use mlmd::numerics::rng::{Rng64, SplitMix64};
use mlmd::service::JobSpec;

/// MESH steps per driver in `mesh_pulse`.
pub const MESH_PULSE_STEPS: usize = 24;
/// MESH steps of the one rank-sharded domain in `mesh_dist`.
pub const MESH_DIST_STEPS: usize = 48;
/// Ranks per domain in `mesh_dist`: no more than the cores of the
/// reference host, so its wall-clock is meaningful.
pub const MESH_DIST_RANKS: usize = 2;
/// Inference batches of the NN respond stage in `nn_response_f64`.
pub const NN_RESPONSE_BATCHES: usize = 4;
/// `nn_ensemble_bf16`: domains, cells per domain (× 5 atoms), lock-step
/// steps, time step and per-domain inference batches.
pub const ENSEMBLE_DOMAINS: usize = 4;
pub const ENSEMBLE_CELLS: (usize, usize, usize) = (4, 4, 2);
pub const ENSEMBLE_STEPS: usize = 60;
pub const ENSEMBLE_DT_FS: f64 = 0.2;
pub const ENSEMBLE_BATCHES: usize = 2;

/// The FDTD job of `service_mix`: Yee cells and steps.
pub const FDTD_CELLS: usize = 96;
pub const FDTD_STEPS: usize = 400;
/// Base dimerizations of a `FloquetSweep` job's four geometries, two on
/// each side of the η = 1 transition.
pub const FLOQUET_DIMERIZATIONS: [f64; 4] = [0.5, 0.8, 1.25, 2.0];

/// `service_mix`: the closed loop keeps this many jobs in flight.
pub const JOBS_IN_FLIGHT: usize = 8;
pub const SERVICE_WORKERS: usize = 2;
pub const SERVICE_QUEUE: usize = 64;
/// Jobs are generated in blocks of this size, each holding the mix
/// exactly, so every run sees the same composition whatever its length.
pub const BLOCK: usize = 100;
/// Jobs of each kind per block, in [`JobKind::ALL`] order.
pub const BLOCK_MIX: [usize; 5] = [60, 15, 12, 8, 5];

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobKind {
    Fdtd,
    Md,
    Mesh,
    Sweep,
    Floquet,
}

impl JobKind {
    pub const ALL: [JobKind; 5] = [
        JobKind::Fdtd,
        JobKind::Md,
        JobKind::Mesh,
        JobKind::Sweep,
        JobKind::Floquet,
    ];
}

/// One domain of the bf16 ensemble: a uniformly polarized patch with a
/// seeded off-centering, thermalized from a seeded stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DomainInput {
    pub u_z: f64,
    pub thermal_seed: u64,
}

/// Everything the six workloads are given.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// `switching_e2e`: `small_demo()` with a seeded pulse and RNG seed.
    pub switching: PipelineConfig,
    /// `mesh_pulse`: 24-step MESH stage and three ascending amplitudes.
    pub mesh_pulse: PipelineConfig,
    pub sweep_amplitudes: [f64; 3],
    /// `mesh_dist`: the same stage at 2 ranks per domain, one amplitude.
    pub mesh_dist: PipelineConfig,
    pub dist_amplitude: f64,
    /// `nn_response_f64`: 640 atoms, NN respond stage in 4 batches.
    pub nn_response: PipelineConfig,
    /// `nn_ensemble_bf16`.
    pub model_seed: u64,
    pub domains: [DomainInput; ENSEMBLE_DOMAINS],
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x6d6c_6d64_2d62_6e63);
        let base = PipelineConfig::small_demo();

        // Amplitudes stay where the 2000-step response still switches the
        // skyrmion (checked output): 0.09 is the edge, 0.10 has margin.
        let switching = PipelineConfig {
            pulse_e0: rng.range(0.10, 0.12),
            seed: rng.next_u64(),
            ..base
        };

        let mesh_pulse = PipelineConfig {
            mesh_steps: MESH_PULSE_STEPS,
            ..base
        };
        // One amplitude per band, so the three stay strictly ascending.
        let sweep_amplitudes = [
            rng.range(0.03, 0.05),
            rng.range(0.06, 0.08),
            rng.range(0.09, 0.12),
        ];

        let mesh_dist = PipelineConfig {
            mesh_ranks_per_domain: Some(MESH_DIST_RANKS),
            ..base
        };
        let dist_amplitude = rng.range(0.05, 0.12);

        let nn_response = PipelineConfig {
            cells: (8, 8, 2),
            prepare_steps: 5,
            mesh_steps: 1,
            response_steps: 12,
            respond_nn_batches: Some(NN_RESPONSE_BATCHES),
            pulse_e0: rng.range(0.10, 0.12),
            seed: rng.next_u64(),
            ..base
        };

        let model_seed = rng.next_u64();
        let domains = std::array::from_fn(|_| DomainInput {
            u_z: rng.range(0.05, 0.15),
            thermal_seed: rng.next_u64(),
        });

        Self {
            switching,
            mesh_pulse,
            sweep_amplitudes,
            mesh_dist,
            dist_amplitude,
            nn_response,
            model_seed,
            domains,
        }
    }

    /// The shapes and step counts of the iteration workloads — what a
    /// seed must never change.
    #[cfg(test)]
    pub fn shapes(&self) -> String {
        let shape = |c: &PipelineConfig| {
            format!(
                "{:?} {:?} prepare {} mesh {} n_qd {} response {} stride {} nn {:?} ranks {:?}",
                c.cells,
                c.skyrmions,
                c.prepare_steps,
                c.mesh_steps,
                c.ehrenfest.n_qd,
                c.response_steps,
                c.response_sample_stride,
                c.respond_nn_batches,
                c.mesh_ranks_per_domain
            )
        };
        format!(
            "{} | {} x{} | {} | {} | {}x{:?}x{}",
            shape(&self.switching),
            shape(&self.mesh_pulse),
            self.sweep_amplitudes.len(),
            shape(&self.mesh_dist),
            shape(&self.nn_response),
            self.domains.len(),
            ENSEMBLE_CELLS,
            ENSEMBLE_STEPS
        )
    }
}

/// The material every MESH-family and MD job of the stream runs on: an
/// 80-atom supercell around the pipeline's one MESH domain shape.
pub fn service_material() -> PipelineConfig {
    PipelineConfig {
        cells: (4, 4, 1),
        prepare_steps: 2,
        mesh_steps: 2,
        response_steps: 10,
        ..PipelineConfig::small_demo()
    }
}

/// The seeded job stream of `service_mix`, generated block by block.
pub struct JobSource {
    rng: SplitMix64,
    /// The identical-key sweep: fixed for the run so concurrent
    /// submissions coalesce.
    sweep: JobSpec,
    block: Vec<(JobKind, JobSpec)>,
}

impl JobSource {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x7365_7276_6963_6521);
        let sweep = JobSpec::pump_probe_sweep(
            service_material(),
            vec![rng.range(0.04, 0.06), rng.range(0.09, 0.11)],
        );
        Self {
            rng,
            sweep,
            block: Vec::new(),
        }
    }

    fn make(&mut self, kind: JobKind) -> JobSpec {
        let rng = &mut self.rng;
        match kind {
            // A seeded carrier frequency makes every FDTD key unique.
            JobKind::Fdtd => JobSpec::fdtd_pulse(FDTD_CELLS, 0.2, rng.range(0.2, 0.4), FDTD_STEPS),
            JobKind::Md => {
                let config = PipelineConfig {
                    seed: rng.next_u64(),
                    ..service_material()
                };
                JobSpec::md_run(config, rng.range(0.0, 0.4), 200)
            }
            JobKind::Mesh => JobSpec::mesh_run(service_material(), rng.range(0.03, 0.12), 2),
            JobKind::Sweep => self.sweep.clone(),
            JobKind::Floquet => {
                let configs = FLOQUET_DIMERIZATIONS
                    .into_iter()
                    .map(|eta| DimerConfig {
                        dimerization: eta * rng.range(0.95, 1.05),
                        patch_period: 20,
                    })
                    .collect();
                JobSpec::floquet_sweep(SuperlatticeSweep::canonical(configs))
            }
        }
    }

    fn refill(&mut self) {
        let mut kinds: Vec<JobKind> = JobKind::ALL
            .into_iter()
            .zip(BLOCK_MIX)
            .flat_map(|(kind, count)| std::iter::repeat_n(kind, count))
            .collect();
        // Fisher–Yates: the seed orders the block, the mix stays exact.
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, self.rng.next_below(i + 1));
        }
        self.block = kinds
            .into_iter()
            .map(|kind| (kind, self.make(kind)))
            .collect();
        // `next` pops from the back.
        self.block.reverse();
    }
}

impl Iterator for JobSource {
    type Item = (JobKind, JobSpec);

    fn next(&mut self) -> Option<(JobKind, JobSpec)> {
        if self.block.is_empty() {
            self.refill();
        }
        self.block.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(seed: u64, n: usize) -> Vec<(JobKind, JobSpec)> {
        JobSource::new(seed).take(n).collect()
    }

    #[test]
    fn same_seed_generates_byte_identical_inputs() {
        assert_eq!(
            format!("{:?}", Inputs::generate(11)),
            format!("{:?}", Inputs::generate(11))
        );
        assert_eq!(
            format!("{:?}", jobs(11, 250)),
            format!("{:?}", jobs(11, 250))
        );
    }

    #[test]
    fn different_seeds_differ_in_values() {
        let (a, b) = (Inputs::generate(1), Inputs::generate(2));
        assert_ne!(a.sweep_amplitudes, b.sweep_amplitudes);
        assert_ne!(a.switching.pulse_e0, b.switching.pulse_e0);
        assert_ne!(a.switching.seed, b.switching.seed);
        assert_ne!(a.domains, b.domains);
        assert_ne!(format!("{:?}", jobs(1, 100)), format!("{:?}", jobs(2, 100)));
    }

    #[test]
    fn seed_never_changes_a_shape_or_step_count() {
        let reference = Inputs::generate(0).shapes();
        // The planner's view of a job is its shape: kind, sizes, steps.
        let shapes = |seed: u64| {
            let mut s: Vec<String> = jobs(seed, 3 * BLOCK)
                .iter()
                .map(|(kind, spec)| format!("{kind:?} {:?}", spec.plan_job()))
                .collect();
            s.sort();
            s
        };
        let reference_jobs = shapes(0);
        for seed in [1, 2, 3, 99, u64::MAX] {
            let inputs = Inputs::generate(seed);
            assert_eq!(inputs.shapes(), reference);
            assert!(inputs.sweep_amplitudes.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(shapes(seed), reference_jobs);
        }
    }

    #[test]
    fn every_block_holds_the_mix_exactly() {
        assert_eq!(BLOCK_MIX.iter().sum::<usize>(), BLOCK);
        let stream = jobs(5, 2 * BLOCK);
        for block in stream.chunks(BLOCK) {
            for (kind, want) in JobKind::ALL.into_iter().zip(BLOCK_MIX) {
                assert_eq!(block.iter().filter(|(k, _)| *k == kind).count(), want);
            }
        }
        // Only the sweep repeats a key; every other job is unique.
        let mut keys: Vec<u64> = stream
            .iter()
            .filter(|(k, _)| *k != JobKind::Sweep)
            .map(|(_, s)| s.dedup_key())
            .collect();
        let unique = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), unique);
        let sweeps: Vec<u64> = stream
            .iter()
            .filter(|(k, _)| *k == JobKind::Sweep)
            .map(|(_, s)| s.dedup_key())
            .collect();
        assert!(sweeps.windows(2).all(|w| w[0] == w[1]));
    }
}
