//! The per-layer table: every crate measured from outside, by timing
//! calls into its public functions at the workloads' own shapes (8³ grid
//! × 8 orbitals; 2560 / 640 / 160 atoms; 96-cell Yee). No span, counter or
//! flag inside the program is read that the program did not already
//! expose. `*_us` / `*_ms` / `*_ns` are medians per call; counts repeat
//! exactly and carry the unit `count`.

mod drivers;
mod kernels;
mod service;

pub use service::service_layer;

use crate::inputs::Inputs;
use crate::metrics::Report;
use crate::stats::median;
use mlmd::core::probe::time_secs;
use std::time::Instant;

/// Median wall-clock of one call of `f`, in seconds, over `samples`
/// timed samples of `batch` back-to-back calls each (a batch makes calls
/// far shorter than the clock's resolution measurable).
pub(crate) fn per_call(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy state
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&times)
}

/// [`per_call`] for two alternatives whose ratio or difference is the
/// metric: sampled alternately, so a drift in the host's speed hits both.
pub(crate) fn per_call_pair(
    samples: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64) {
    let once = |f: &mut dyn FnMut()| time_secs(f).1;
    once(&mut a);
    once(&mut b);
    let (times_a, times_b): (Vec<f64>, Vec<f64>) =
        (0..samples).map(|_| (once(&mut a), once(&mut b))).unzip();
    (median(&times_a), median(&times_b))
}

pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Measure every layer metric that does not depend on which workload ran
/// (the service rows come from a job stream: see [`service_layer`]).
pub fn probe_layers(report: &mut Report, inputs: &Inputs) {
    // Each layer's probe time is printed, so a slow probe is visible.
    let mut timed = |layer: &str, probe: &mut dyn FnMut(&mut Report)| {
        let start = Instant::now();
        probe(report);
        println!("# probed {layer} in {:.2} s", start.elapsed().as_secs_f64());
    };
    timed("lfd", &mut kernels::lfd);
    timed("qxmd", &mut kernels::qxmd);
    timed("nnqmd", &mut |r| kernels::nnqmd(r, inputs));
    timed("maxwell", &mut kernels::maxwell);
    timed("topo", &mut kernels::topo);
    timed("dcmesh", &mut |r| drivers::dcmesh(r, inputs));
    timed("parallel", &mut |r| drivers::parallel(r, inputs));
    timed("floquet", &mut drivers::floquet);
    timed("exasim", &mut drivers::exasim);
    timed("core", &mut |r| drivers::core(r, inputs));
    // Last: the bandwidth probe's first touch of gigabytes disturbs the
    // host for a while.
    timed("numerics", &mut kernels::numerics);
}
