//! Cross-domain force-request batching (the "one inference call per MD
//! step" discipline of the paper's divide-and-conquer drivers).
//!
//! When several domain threads advance in lockstep — one rank per DC
//! domain, all hitting the force model at the same point of each velocity
//! Verlet step — issuing one `block_evaluate` per domain wastes the
//! batching capacity of the accelerator. [`ForceBatch`] is a rendezvous:
//! each of the `expected` participants submits its request and blocks;
//! the last arrival evaluates the whole batch with a single inference
//! call ([`crate::infer`], deduplicating byte-identical requests) and
//! wakes everyone with their results.
//!
//! Per-request results are bit-identical to standalone `block_evaluate`
//! calls — aggregation changes *where* inference runs, never *what* it
//! computes.
//!
//! No driver submits to a `ForceBatch` today: the MESH QXMD stage has no
//! network term, and the NN respond stage runs on one thread. Its callers
//! are its own tests and the benchmark's `nnqmd.force_batch_unique_ratio`
//! probe, and it stays only while that probe does.
//!
//! Deadlock discipline: `expected` must equal the number of threads that
//! actually call [`ForceBatch::submit`] each step. The rendezvous is for
//! genuinely concurrent domain threads (e.g. `mlmd_parallel` world
//! ranks); single-threaded drivers should use
//! [`NnMdEnsemble`](crate::ensemble::NnMdEnsemble), which batches
//! requests in program order without blocking. A stall watchdog panics
//! (rather than hangs) if a participant never shows up.

use crate::infer::{BlockEvalResult, ForceRequest, InferenceModel};
use crate::model::AllegroLite;
use mlmd_numerics::codec::Fnv64;
use mlmd_numerics::vec3::Vec3;
use mlmd_qxmd::atoms::Species;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// FNV hash of a force request, the cheap first test when deduplicating
/// byte-identical submissions (replicated domains submit the same
/// system); [`OwnedRequest::matches`] then compares full contents.
fn request_key(species: &[Species], positions: &[Vec3], box_lengths: Vec3) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(species.len() as u64);
    for &s in species {
        h.write_u64(s as u64);
    }
    for p in positions.iter().chain([&box_lengths]) {
        h.write_f64(p.x);
        h.write_f64(p.y);
        h.write_f64(p.z);
    }
    h.finish()
}

/// An owned copy of a submitted request (the rendezvous outlives the
/// submitting thread's borrows).
struct OwnedRequest {
    key: u64,
    species: Vec<Species>,
    positions: Vec<Vec3>,
    box_lengths: Vec3,
}

impl OwnedRequest {
    fn matches(&self, key: u64, species: &[Species], positions: &[Vec3], bl: Vec3) -> bool {
        self.key == key
            && self.species == species
            && self.box_lengths == bl
            && self.positions.len() == positions.len()
            && self.positions.iter().zip(positions).all(|(a, b)| {
                a.x.to_bits() == b.x.to_bits()
                    && a.y.to_bits() == b.y.to_bits()
                    && a.z.to_bits() == b.z.to_bits()
            })
    }
}

struct BatchState {
    /// Monotone window counter; one generation per completed rendezvous.
    generation: u64,
    /// True while the current window accepts submissions.
    accepting: bool,
    pending: Vec<OwnedRequest>,
    results: Vec<BlockEvalResult>,
    submitted: usize,
    taken: usize,
}

/// A per-step force-inference rendezvous shared by `expected` domain
/// threads. See the module docs for the protocol.
pub struct ForceBatch {
    net: InferenceModel,
    n_batches: usize,
    expected: usize,
    /// The stall watchdog: 30 s (a unit test sets it shorter).
    stall_timeout: Duration,
    state: Mutex<BatchState>,
    cv: Condvar,
    rounds: AtomicU64,
    unique_evals: AtomicU64,
    served: AtomicU64,
}

impl ForceBatch {
    /// A rendezvous for `expected` participating threads, forwarding
    /// `n_batches` as the per-request blocking factor.
    pub fn new(model: AllegroLite, n_batches: usize, expected: usize) -> Self {
        assert!(expected >= 1, "a rendezvous needs at least one participant");
        assert!(
            n_batches >= 1,
            "ForceBatch::new: n_batches must be at least 1"
        );
        Self {
            net: InferenceModel::new(model),
            n_batches,
            expected,
            stall_timeout: Duration::from_secs(30),
            state: Mutex::new(BatchState {
                generation: 0,
                accepting: true,
                pending: Vec::new(),
                results: Vec::new(),
                submitted: 0,
                taken: 0,
            }),
            cv: Condvar::new(),
            rounds: AtomicU64::new(0),
            unique_evals: AtomicU64::new(0),
            served: AtomicU64::new(0),
        }
    }

    /// Completed rendezvous rounds (one batched inference call each).
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Unique (post-dedup) requests actually evaluated across all rounds.
    pub fn unique_evaluations(&self) -> u64 {
        self.unique_evals.load(Ordering::Relaxed)
    }

    /// Total submissions served (dedup hits included).
    pub fn requests_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Submit one domain's force request and block until the batch result
    /// is available. Bit-identical to a standalone
    /// [`crate::infer::block_evaluate`] with the same arguments.
    ///
    /// # Panics
    /// If the rendezvous stalls longer than the 30 s watchdog —
    /// i.e. fewer than `expected` threads are participating.
    pub fn submit(
        &self,
        species: &[Species],
        positions: &[Vec3],
        box_lengths: Vec3,
    ) -> BlockEvalResult {
        let start = Instant::now();
        let tick = Duration::from_millis(50);
        let mut st = self.state.lock().expect("force batch poisoned");
        // Wait for an accepting window (a previous round may be draining).
        while !st.accepting {
            let (guard, _) = self
                .cv
                .wait_timeout(st, tick)
                .expect("force batch poisoned");
            st = guard;
            assert!(
                start.elapsed() < self.stall_timeout,
                "ForceBatch stalled waiting for a submission window: \
                 expected {} participants per step",
                self.expected
            );
        }
        let generation = st.generation;
        let key = request_key(species, positions, box_lengths);
        let slot = st
            .pending
            .iter()
            .position(|p| p.matches(key, species, positions, box_lengths))
            .unwrap_or_else(|| {
                st.pending.push(OwnedRequest {
                    key,
                    species: species.to_vec(),
                    positions: positions.to_vec(),
                    box_lengths,
                });
                st.pending.len() - 1
            });
        st.submitted += 1;
        if st.submitted == self.expected {
            // Last arrival: evaluate the whole batch, then wake everyone.
            let requests: Vec<ForceRequest<'_>> = st
                .pending
                .iter()
                .map(|p| ForceRequest {
                    species: &p.species,
                    positions: &p.positions,
                    box_lengths: p.box_lengths,
                    n_batches: self.n_batches,
                })
                .collect();
            let results = self.net.evaluate_many(&requests);
            drop(requests);
            self.rounds.fetch_add(1, Ordering::Relaxed);
            self.unique_evals
                .fetch_add(st.pending.len() as u64, Ordering::Relaxed);
            st.results = results;
            st.accepting = false;
            self.cv.notify_all();
        } else {
            while st.accepting || st.generation != generation {
                let (guard, _) = self
                    .cv
                    .wait_timeout(st, tick)
                    .expect("force batch poisoned");
                st = guard;
                assert!(
                    start.elapsed() < self.stall_timeout,
                    "ForceBatch stalled at {}/{} submissions: a participant \
                     never arrived (deadlock guard)",
                    st.submitted,
                    self.expected
                );
            }
        }
        let result = st.results[slot].clone();
        st.taken += 1;
        self.served.fetch_add(1, Ordering::Relaxed);
        if st.taken == self.expected {
            // Everyone has their result: open the next window.
            st.generation += 1;
            st.accepting = true;
            st.pending.clear();
            st.results.clear();
            st.submitted = 0;
            st.taken = 0;
            self.cv.notify_all();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::block_evaluate;
    use crate::model::ModelConfig;
    use mlmd_numerics::rng::{Rng64, Xoshiro256};
    use std::sync::Arc;

    fn model() -> AllegroLite {
        AllegroLite::new(
            ModelConfig {
                hidden: 6,
                k_max: 4,
                rcut: 3.5,
            },
            41,
        )
    }

    #[test]
    #[should_panic(expected = "ForceBatch::new: n_batches must be at least 1")]
    fn zero_batches_are_rejected() {
        ForceBatch::new(model(), 0, 1);
    }

    fn random_system(seed: u64, n: usize) -> (Vec<Species>, Vec<Vec3>, Vec3) {
        let mut rng = Xoshiro256::new(seed);
        let l = 11.0;
        let species = (0..n)
            .map(|i| match i % 3 {
                0 => Species::Pb,
                1 => Species::Ti,
                _ => Species::O,
            })
            .collect();
        let positions = (0..n)
            .map(|_| Vec3::new(rng.range(0.0, l), rng.range(0.0, l), rng.range(0.0, l)))
            .collect();
        (species, positions, Vec3::splat(l))
    }

    #[test]
    fn single_participant_is_a_passthrough() {
        let (sp, ps, bl) = random_system(1, 20);
        let batch = ForceBatch::new(model(), 2, 1);
        let res = batch.submit(&sp, &ps, bl);
        let direct = block_evaluate(&model(), &sp, &ps, bl, 2);
        assert_eq!(res.energy.to_bits(), direct.energy.to_bits());
        assert_eq!(batch.rounds(), 1);
        assert_eq!(batch.unique_evaluations(), 1);
    }

    #[test]
    fn identical_requests_deduplicate_to_one_evaluation() {
        let (sp, ps, bl) = random_system(2, 24);
        let batch = Arc::new(ForceBatch::new(model(), 2, 4));
        let direct = block_evaluate(&model(), &sp, &ps, bl, 2);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let batch = Arc::clone(&batch);
                let (sp, ps) = (sp.clone(), ps.clone());
                std::thread::spawn(move || batch.submit(&sp, &ps, bl))
            })
            .collect();
        for h in handles {
            let res = h.join().expect("submitter panicked");
            assert_eq!(res.energy.to_bits(), direct.energy.to_bits());
            for (a, b) in res.forces.iter().zip(&direct.forces) {
                assert_eq!(a.x.to_bits(), b.x.to_bits());
                assert_eq!(a.z.to_bits(), b.z.to_bits());
            }
        }
        assert_eq!(batch.rounds(), 1, "one rendezvous round");
        assert_eq!(
            batch.unique_evaluations(),
            1,
            "4 identical requests → 1 eval"
        );
        assert_eq!(batch.requests_served(), 4);
    }

    #[test]
    fn distinct_domains_each_get_their_own_result() {
        let systems: Vec<_> = (0..3).map(|s| random_system(10 + s, 18)).collect();
        let batch = Arc::new(ForceBatch::new(model(), 2, 3));
        let handles: Vec<_> = systems
            .iter()
            .map(|(sp, ps, bl)| {
                let batch = Arc::clone(&batch);
                let (sp, ps, bl) = (sp.clone(), ps.clone(), *bl);
                std::thread::spawn(move || batch.submit(&sp, &ps, bl))
            })
            .collect();
        let m = model();
        for (h, (sp, ps, bl)) in handles.into_iter().zip(&systems) {
            let res = h.join().expect("submitter panicked");
            let direct = block_evaluate(&m, sp, ps, *bl, 2);
            assert_eq!(res.energy.to_bits(), direct.energy.to_bits());
            for (a, b) in res.forces.iter().zip(&direct.forces) {
                assert_eq!(a.y.to_bits(), b.y.to_bits());
            }
        }
        assert_eq!(batch.rounds(), 1);
        assert_eq!(
            batch.unique_evaluations(),
            3,
            "distinct requests all evaluate"
        );
    }

    #[test]
    fn consecutive_steps_reuse_the_rendezvous() {
        // Two lockstep "MD steps" from each of two threads: the sliding
        // window must serve both generations without mixing them up.
        let batch = Arc::new(ForceBatch::new(model(), 2, 2));
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let batch = Arc::clone(&batch);
                std::thread::spawn(move || {
                    let mut energies = Vec::new();
                    for step in 0..2 {
                        let (sp, ps, bl) = random_system(100 + step, 16 + t);
                        energies.push(batch.submit(&sp, &ps, bl).energy);
                    }
                    energies
                })
            })
            .collect();
        let outputs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("submitter panicked"))
            .collect();
        let m = model();
        for (t, energies) in outputs.iter().enumerate() {
            for (step, &e) in energies.iter().enumerate() {
                let (sp, ps, bl) = random_system(100 + step as u64, 16 + t);
                let direct = block_evaluate(&m, &sp, &ps, bl, 2);
                assert_eq!(e.to_bits(), direct.energy.to_bits());
            }
        }
        assert_eq!(batch.rounds(), 2, "one round per lockstep step");
        assert_eq!(batch.unique_evaluations(), 4);
    }

    #[test]
    #[should_panic(expected = "ForceBatch stalled")]
    fn missing_participant_trips_the_watchdog() {
        let (sp, ps, bl) = random_system(3, 12);
        let mut batch = ForceBatch::new(model(), 2, 2);
        batch.stall_timeout = Duration::from_millis(200);
        // Only one of two expected participants ever submits.
        batch.submit(&sp, &ps, bl);
    }
}
