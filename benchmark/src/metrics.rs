//! The metric tables: every name the benchmark prints, with its unit and
//! better-direction. `BENCHMARK.json` lists the same names; a unit test
//! keeps the two in step.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// Measured with tracing off, on every workload. Every bound is the
/// ceiling the driver's contract allows: the reference host's own
/// run-to-run spread reaches 10–18 % (see the README), and a bound near
/// the A/A noise would reject changes that changed nothing.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("wall_p75_s", "s", Better::Lower, 0.25),
    e2e("jobs_per_s", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_p99_ms", "ms", Better::Lower, 0.25),
];

/// Collected in the traced run, by crate.
pub const PER_LAYER: [MetricDef; 72] = [
    higher("numerics.host_peak_gflops", "GFLOP/s"),
    higher("numerics.host_stream_gbs", "GB/s"),
    higher("numerics.gemm_square256_gflops", "GFLOP/s"),
    higher("numerics.gemm_skewed_panel_gflops", "GFLOP/s"),
    higher("numerics.gemm_skewed_roofline_frac", "ratio"),
    lower("numerics.cgemm_overlap_us", "us"),
    lower("numerics.cgemm_rank_update_us", "us"),
    lower("numerics.fft3d_us", "us"),
    higher("numerics.laplacian_gbs", "GB/s"),
    lower("numerics.gemm_flops_per_mesh_step", "count"),
    lower("lfd.kin_prop_us", "us"),
    lower("lfd.nlp_prop_us", "us"),
    lower("lfd.propagator_step_us", "us"),
    lower("lfd.hartree_mg_us", "us"),
    lower("lfd.hartree_mg_cycles", "count"),
    higher("qxmd.md_atom_steps_per_s", "1/s"),
    lower("qxmd.nac_us", "us"),
    lower("qxmd.hop_us", "us"),
    lower("qxmd.celllist_build_us", "us"),
    higher("nnqmd.infer_f64_atoms_per_s", "1/s"),
    higher("nnqmd.infer_bf16_atoms_per_s", "1/s"),
    lower("nnqmd.many_vs_single_ratio", "ratio"),
    lower("nnqmd.bf16_force_err", "eV/A"),
    lower("nnqmd.quantize_ms", "ms"),
    lower("nnqmd.force_batch_unique_ratio", "ratio"),
    higher("maxwell.yee_cell_steps_per_s", "1/s"),
    lower("maxwell.pulsed_yee_step_ns", "ns"),
    lower("dcmesh.step_us", "us"),
    lower("dcmesh.inner_loop_us", "us"),
    lower("dcmesh.band_energies_us", "us"),
    lower("dcmesh.step_residual_frac", "ratio"),
    lower("dcmesh.construct_cold_ms", "ms"),
    lower("dcmesh.construct_warm_ms", "ms"),
    lower("dcmesh.gs_cache_computes", "count"),
    higher("dcmesh.ckpt_encode_mbs", "MB/s"),
    higher("dcmesh.ckpt_decode_mbs", "MB/s"),
    lower("dcmesh.scf_iterate_ms", "ms"),
    lower("parallel.world_spawn_us", "us"),
    lower("parallel.allreduce_us", "us"),
    lower("parallel.allgather_panel_us", "us"),
    lower("parallel.collectives_per_step", "count"),
    lower("parallel.bytes_per_step", "count"),
    lower("parallel.collective_time_frac", "ratio"),
    lower("parallel.dist2_over_serial", "ratio"),
    lower("parallel.dist4_collectives_per_step", "count"),
    lower("topo.texture_analyze_us", "us"),
    lower("topo.compare_us", "us"),
    lower("floquet.sweep4_ms", "ms"),
    lower("floquet.observer_overhead_frac", "ratio"),
    lower("floquet.invariant_us", "us"),
    lower("exasim.calibrate_ms", "ms"),
    lower("exasim.plan_ns", "ns"),
    lower("exasim.pred_over_actual", "ratio"),
    lower("core.engine_ns_per_step", "ns"),
    lower("core.response_observer_frac", "ratio"),
    higher("core.runplan_pair_efficiency", "ratio"),
    lower("core.pipeline_residual_frac", "ratio"),
    lower("core.peak_rss_mb", "MB"),
    lower("core.trace_overhead_frac", "ratio"),
    lower("service.submit_us", "us"),
    lower("service.queue_wait_ms_p50", "ms"),
    lower("service.queue_wait_ms_p99", "ms"),
    lower("service.run_ms_p50", "ms"),
    lower("service.resolve_us", "us"),
    higher("service.dedup_hit_ratio", "ratio"),
    higher("service.worker_busy_frac", "ratio"),
    lower("service.peak_queued", "count"),
    lower("service.latency_p50_ms.fdtd", "ms"),
    lower("service.latency_p50_ms.md", "ms"),
    lower("service.latency_p50_ms.mesh", "ms"),
    lower("service.latency_p50_ms.sweep", "ms"),
    lower("service.latency_p50_ms.floquet", "ms"),
];

/// The values of one run, keyed by metric name. Setting a name that is in
/// neither table, or finishing with one unset, is a bug in the benchmark
/// and panics before a result line is printed.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Values for every metric of `table`, in table order.
    pub fn complete(&self, table: &[MetricDef]) -> Vec<(MetricDef, f64)> {
        table
            .iter()
            .map(|m| {
                let v = self
                    .get(m.name)
                    .unwrap_or_else(|| panic!("metric {} was never measured", m.name));
                (*m, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }

    /// `BENCHMARK.json` is written by hand; this keeps its metric and
    /// workload names, units, directions and bounds equal to the tables
    /// the program prints from.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let entry = |m: &MetricDef| match m.bound {
            Some(b) => format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {b}}}",
                m.name,
                m.unit,
                m.better.as_str()
            ),
            None => format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            ),
        };
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                json.contains(&entry(m)),
                "BENCHMARK.json lacks {}",
                entry(m)
            );
        }
        let listed = json.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in crate::workloads::NAMES {
            assert!(json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
        assert_eq!(
            json.matches("\"why\"").count(),
            crate::workloads::NAMES.len()
        );
    }
}
