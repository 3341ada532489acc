//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no crates.io access, so this workspace-local
//! shim provides the slice of rayon's API the MLMD kernels use: parallel
//! mutable slice chunking, `par_iter_mut`, parallel ranges, and sized
//! thread pools. Since PR 2 it is backed by a persistent work-stealing
//! scheduler (the private `registry` module): workers are spawned once per pool (lazily
//! for the implicit global pool), each job's index space is partitioned
//! into per-participant ranges held in atomic cursors, and a participant
//! whose range runs dry steals the upper half of the richest remaining
//! range — so balanced workloads keep contiguous cache-friendly blocks
//! while skewed ones rebalance automatically. `for_each` and `map` run on
//! the pool and `map`/`collect` preserve item order; `sum`, `count`, and
//! `collect` are sequential folds over the already-computed items, so put
//! the expensive work in a preceding `map`.
//!
//! [`ThreadPool::install`] propagates the pool width into submitted jobs:
//! worker threads carry their registry in a thread-local set at spawn, so
//! a nested parallel call inside a worker fans out to the pool width, not
//! to full hardware width (the oversubscription bug of the old per-call
//! scoped-thread implementation).

mod registry;

use registry::hardware_threads;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Width parallel iterators fan out to from the calling thread: the
/// innermost installed [`ThreadPool`]'s size, or the hardware parallelism.
pub fn current_num_threads() -> usize {
    registry::current_width()
}

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefMutIterator, ParallelIterator, ParallelSliceMut,
    };
}

/// An eagerly materialized list of work items scheduled onto the current
/// pool by the work-stealing registry.
pub struct ParIter<I> {
    items: Vec<I>,
}

pub trait ParallelIterator: Sized {
    type Item: Send;

    fn into_items(self) -> Vec<Self::Item>;

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        registry::run_job(self.into_items(), &f);
    }

    fn enumerate(self) -> ParIter<(usize, Self::Item)> {
        ParIter {
            items: self.into_items().into_iter().enumerate().collect(),
        }
    }

    fn map<O, F>(self, f: F) -> ParIter<O>
    where
        O: Send,
        F: Fn(Self::Item) -> O + Sync,
    {
        ParIter {
            items: registry::run_job(self.into_items(), &f),
        }
    }

    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        self.into_items().into_iter().sum()
    }

    fn count(self) -> usize {
        self.into_items().len()
    }

    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        self.into_items().into_iter().collect()
    }
}

impl<I: Send> ParallelIterator for ParIter<I> {
    type Item = I;

    fn into_items(self) -> Vec<I> {
        self.items
    }
}

/// `par_chunks_mut` on slices.
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

/// `par_iter_mut` on collections of `Send` elements.
pub trait IntoParallelRefMutIterator<'a> {
    type Item: Send;
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;

    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;

    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

/// `into_par_iter` on anything iterable (ranges, vectors, ...).
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<C> IntoParallelIterator for C
where
    C: IntoIterator,
    C::Item: Send,
{
    type Item = C::Item;

    fn into_par_iter(self) -> ParIter<C::Item> {
        ParIter {
            items: self.into_iter().collect(),
        }
    }
}

/// A sized pool with persistent workers. `install` runs the closure on the
/// calling thread but routes every parallel call inside it (the caller's
/// and, transitively, the workers') onto this pool, bounded by its width.
pub struct ThreadPool {
    registry: Arc<registry::Registry>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    pub fn current_num_threads(&self) -> usize {
        self.registry.width
    }

    /// Run `op` with this pool as the submission target: parallel calls
    /// inside it fan out to at most `self.current_num_threads()` lanes
    /// (the calling thread participates as one of them), and nested
    /// parallel calls issued from worker threads stay on this pool.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let _guard = registry::enter(Arc::clone(&self.registry));
        op()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.shut_down();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[derive(Default)]
pub struct ThreadPoolBuilder {
    width: Option<usize>,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request a pool of `n` threads. Matching real rayon's documented
    /// contract, `n == 0` means "use the default": the built pool is sized
    /// to the hardware parallelism, exactly as if `num_threads` had never
    /// been called.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.width = Some(n);
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let width = match self.width {
            Some(0) | None => hardware_threads(),
            Some(n) => n,
        };
        let (registry, workers) = registry::Registry::new(width);
        Ok(ThreadPool { registry, workers })
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn range_sum() {
        let s: u64 = (0..1000u64).into_par_iter().sum();
        assert_eq!(s, 499_500);
    }

    #[test]
    fn chunks_mut_writes_every_element() {
        let mut v = vec![0usize; 1003];
        v.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = i * 10 + j;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i);
        }
    }

    #[test]
    fn map_preserves_order_across_workers() {
        let doubled: Vec<usize> = (0..997usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(doubled.len(), 997);
        for (i, &v) in doubled.iter().enumerate() {
            assert_eq!(v, i * 2);
        }
        let s: usize = (0..100usize).into_par_iter().map(|i| i * i).sum();
        assert_eq!(s, 328_350);
    }

    #[test]
    fn install_overrides_width() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        let inside = pool.install(crate::current_num_threads);
        assert_eq!(inside, 3);
    }

    #[test]
    fn builder_zero_threads_means_default() {
        // Pinned behavior: real rayon documents `num_threads(0)` as "let
        // the builder choose", i.e. identical to not calling it at all.
        let implicit = crate::ThreadPoolBuilder::new().build().unwrap();
        let explicit = crate::ThreadPoolBuilder::new()
            .num_threads(0)
            .build()
            .unwrap();
        assert_eq!(
            explicit.current_num_threads(),
            implicit.current_num_threads()
        );
        assert!(explicit.current_num_threads() >= 1);
    }

    /// The nested-fan-out regression (tentpole bug): a parallel call made
    /// *inside* a pool's worker must observe the pool width, not the
    /// hardware width, and concurrent closure executions must never exceed
    /// the installed width.
    #[test]
    fn nested_install_keeps_pool_width() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let widths: Vec<(usize, Vec<usize>)> = pool.install(|| {
            (0..4usize)
                .into_par_iter()
                .map(|_| {
                    let outer_width = crate::current_num_threads();
                    let inner: Vec<usize> = (0..4usize)
                        .into_par_iter()
                        .map(|_| {
                            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(1));
                            active.fetch_sub(1, Ordering::SeqCst);
                            crate::current_num_threads()
                        })
                        .collect();
                    (outer_width, inner)
                })
                .collect()
        });
        for (outer, inner) in &widths {
            assert_eq!(*outer, 2, "outer closure saw width {outer}, wanted 2");
            for w in inner {
                assert_eq!(*w, 2, "nested closure saw width {w}, wanted 2");
            }
        }
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "nested fan-out oversubscribed: peak {} live workers in a width-2 pool",
            peak.load(Ordering::SeqCst)
        );
    }

    /// Work stealing must not perturb output order: a heavily skewed
    /// per-item workload (item 0 dwarfs the rest) still collects in item
    /// order.
    #[test]
    fn stealing_preserves_order_under_skew() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let out: Vec<u64> = pool.install(|| {
            (0..257u64)
                .into_par_iter()
                .map(|i| {
                    let spins = if i == 0 { 200_000 } else { 50 };
                    let mut acc = i;
                    for k in 0..spins {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                    i * 3
                })
                .collect()
        });
        assert_eq!(out.len(), 257);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u64 * 3, "order violated at index {i}");
        }
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0..64usize).into_par_iter().for_each(|i| {
                    if i == 13 {
                        panic!("boom");
                    }
                });
            })
        }));
        assert!(r.is_err(), "worker panic must reach the caller");
        // The pool stays usable afterwards.
        let s: usize = pool.install(|| (0..10usize).into_par_iter().sum());
        assert_eq!(s, 45);
    }

    #[test]
    fn pools_drop_cleanly_after_use() {
        for _ in 0..3 {
            let pool = crate::ThreadPoolBuilder::new()
                .num_threads(3)
                .build()
                .unwrap();
            let v: Vec<u32> = pool.install(|| (0..100u32).into_par_iter().map(|x| x + 1).collect());
            assert_eq!(v[99], 100);
        }
    }
}
