//! `to_bits` FNV digests of the records the program returns: two results
//! digest equal exactly when every recorded number is bit-identical.

use mlmd::core::pipeline::{PipelineOutcome, PumpProbeRun, ResponsePoint};
use mlmd::dcmesh::mesh::MeshStepRecord;
use mlmd::floquet::sweep::SweepPoint;
use mlmd::maxwell::driver::FieldRecord;
use mlmd::nnqmd::NnMdRecord;
use mlmd::numerics::codec::Fnv64;
use mlmd::qxmd::md_stage::MdRecord;
use mlmd::service::JobResult;

pub trait Digest {
    fn feed(&self, h: &mut Fnv64);
}

pub fn digest_of<T: Digest + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv64::new();
    value.feed(&mut h);
    h.finish()
}

impl Digest for f64 {
    fn feed(&self, h: &mut Fnv64) {
        h.write_f64(*self);
    }
}

impl<T: Digest> Digest for [T] {
    fn feed(&self, h: &mut Fnv64) {
        h.write_u64(self.len() as u64);
        for item in self {
            item.feed(h);
        }
    }
}

impl<T: Digest> Digest for Vec<T> {
    fn feed(&self, h: &mut Fnv64) {
        self.as_slice().feed(h);
    }
}

impl Digest for MeshStepRecord {
    fn feed(&self, h: &mut Fnv64) {
        for v in [
            self.time_fs,
            self.n_exc,
            self.absorbed_energy,
            self.mean_polarization.x,
            self.mean_polarization.y,
            self.mean_polarization.z,
            self.atom_potential_energy,
            self.topological_charge,
        ] {
            h.write_f64(v);
        }
        self.occupations.feed(h);
    }
}

impl Digest for PumpProbeRun {
    fn feed(&self, h: &mut Fnv64) {
        h.write_f64(self.e0);
        h.write_f64(self.n_exc_peak);
        self.records.feed(h);
    }
}

impl Digest for ResponsePoint {
    fn feed(&self, h: &mut Fnv64) {
        h.write_f64(self.time_fs);
        h.write_f64(self.polar_order);
        h.write_f64(self.mean_charge);
    }
}

impl Digest for PipelineOutcome {
    fn feed(&self, h: &mut Fnv64) {
        for v in [
            self.initial_topological_charge,
            self.final_topological_charge,
            self.verdict.order_suppression,
            self.n_exc_peak,
            self.excitation_fraction,
        ] {
            h.write_f64(v);
        }
        h.write_u64(self.verdict.topology_switched as u64);
        self.mesh_records.feed(h);
        self.response_trace.feed(h);
    }
}

impl Digest for MdRecord {
    fn feed(&self, h: &mut Fnv64) {
        h.write_f64(self.time_fs);
        h.write_f64(self.potential_energy);
    }
}

impl Digest for NnMdRecord {
    fn feed(&self, h: &mut Fnv64) {
        h.write_f64(self.time_fs);
        h.write_f64(self.potential_energy);
        h.write_f64(self.kinetic_energy);
    }
}

impl Digest for FieldRecord {
    fn feed(&self, h: &mut Fnv64) {
        h.write_f64(self.time);
        h.write_f64(self.energy);
    }
}

impl Digest for SweepPoint {
    fn feed(&self, h: &mut Fnv64) {
        h.write_f64(self.config.dimerization);
        h.write_u64(self.config.patch_period as u64);
        h.write_u64(self.charge as u64);
        h.write_f64(self.charge_residual);
        h.write_f64(self.edge_score);
        h.write_u64(self.topological as u64);
        h.write_u64(self.outcome.steps_done as u64);
        for bin in &self.spectrum.bins {
            h.write_f64(bin.amplitude.re);
            h.write_f64(bin.amplitude.im);
            h.write_f64(bin.power);
        }
        self.spectrum.stroboscopic.feed(h);
    }
}

impl Digest for JobResult {
    fn feed(&self, h: &mut Fnv64) {
        match self {
            JobResult::Unstarted => h.write_u64(0),
            JobResult::PumpProbe(runs) => {
                h.write_u64(1);
                runs.feed(h);
            }
            JobResult::Mesh(trace) => {
                h.write_u64(2);
                trace.feed(h);
            }
            JobResult::Md(trace) => {
                h.write_u64(3);
                trace.feed(h);
            }
            JobResult::Fdtd(trace) => {
                h.write_u64(4);
                trace.feed(h);
            }
            JobResult::Floquet(points) => {
                h.write_u64(5);
                points.feed(h);
            }
        }
    }
}
