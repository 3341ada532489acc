//! O(N) cell-list neighbor search for periodic orthorhombic boxes.
//!
//! The neighbour search of the Allegro-lite descriptors (XS-NNQMD, cutoff
//! 5.2 Å per paper Sec. VII.A.2). Builds half-lists (each pair once, `i < j`
//! convention by construction of cell scan order) and the full per-atom
//! lists the inference kernel reads.

use mlmd_numerics::vec3::Vec3;

/// A found neighbor pair with its minimum-image displacement.
#[derive(Clone, Copy, Debug)]
pub struct Pair {
    pub i: usize,
    pub j: usize,
    /// Displacement r_j − r_i (minimum image).
    pub dr: Vec3,
    pub r: f64,
}

/// Cell-list structure over one snapshot of positions.
pub struct CellList {
    cells: Vec<Vec<u32>>,
    n_cells: [usize; 3],
    box_lengths: Vec3,
    rcut: f64,
}

impl CellList {
    /// Build for the given cutoff. Falls back to a single cell per axis if
    /// the box is small (then the scan is O(N²) but still correct).
    pub fn build(positions: &[Vec3], box_lengths: Vec3, rcut: f64) -> Self {
        assert!(rcut > 0.0);
        let n_cells = [
            ((box_lengths.x / rcut).floor() as usize).max(1),
            ((box_lengths.y / rcut).floor() as usize).max(1),
            ((box_lengths.z / rcut).floor() as usize).max(1),
        ];
        let total = n_cells[0] * n_cells[1] * n_cells[2];
        let mut cells = vec![Vec::new(); total];
        for (idx, p) in positions.iter().enumerate() {
            let w = p.wrap_into(box_lengths);
            let cx = ((w.x / box_lengths.x * n_cells[0] as f64) as usize).min(n_cells[0] - 1);
            let cy = ((w.y / box_lengths.y * n_cells[1] as f64) as usize).min(n_cells[1] - 1);
            let cz = ((w.z / box_lengths.z * n_cells[2] as f64) as usize).min(n_cells[2] - 1);
            cells[cx + n_cells[0] * (cy + n_cells[1] * cz)].push(idx as u32);
        }
        Self {
            cells,
            n_cells,
            box_lengths,
            rcut,
        }
    }

    fn cell_of(&self, c: [usize; 3]) -> &[u32] {
        &self.cells[c[0] + self.n_cells[0] * (c[1] + self.n_cells[1] * c[2])]
    }

    /// All pairs within the cutoff, each counted once.
    pub fn pairs(&self, positions: &[Vec3]) -> Vec<Pair> {
        let mut out = Vec::new();
        let rc2 = self.rcut * self.rcut;
        let nc = self.n_cells;
        // With fewer than 3 cells along an axis, neighbor-cell scanning
        // would double-count images; fall back to all-pairs there.
        if nc[0] < 3 || nc[1] < 3 || nc[2] < 3 {
            for i in 0..positions.len() {
                for j in (i + 1)..positions.len() {
                    let dr = (positions[j] - positions[i]).min_image(self.box_lengths);
                    let r2 = dr.norm_sqr();
                    if r2 < rc2 && r2 > 0.0 {
                        out.push(Pair {
                            i,
                            j,
                            dr,
                            r: r2.sqrt(),
                        });
                    }
                }
            }
            return out;
        }
        for cz in 0..nc[2] {
            for cy in 0..nc[1] {
                for cx in 0..nc[0] {
                    let home = self.cell_of([cx, cy, cz]);
                    // Half-shell of neighbor cells (13 + home) to count
                    // each pair once.
                    for (dx, dy, dz) in HALF_SHELL {
                        let nx = (cx as isize + dx).rem_euclid(nc[0] as isize) as usize;
                        let ny = (cy as isize + dy).rem_euclid(nc[1] as isize) as usize;
                        let nz = (cz as isize + dz).rem_euclid(nc[2] as isize) as usize;
                        let other = self.cell_of([nx, ny, nz]);
                        let same = (dx, dy, dz) == (0, 0, 0);
                        for (ai, &a) in home.iter().enumerate() {
                            let b_iter: &[u32] = if same { &home[ai + 1..] } else { other };
                            for &b in b_iter {
                                let (i, j) = (a as usize, b as usize);
                                let dr = (positions[j] - positions[i]).min_image(self.box_lengths);
                                let r2 = dr.norm_sqr();
                                if r2 < rc2 && r2 > 0.0 {
                                    out.push(Pair {
                                        i,
                                        j,
                                        dr,
                                        r: r2.sqrt(),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Full neighbor lists: for each atom, every neighbor within cutoff
    /// (both directions). Built from [`Self::pairs`].
    pub fn full_lists(&self, positions: &[Vec3]) -> Vec<Vec<Pair>> {
        let mut lists: Vec<Vec<Pair>> = vec![Vec::new(); positions.len()];
        for p in self.pairs(positions) {
            lists[p.i].push(p);
            lists[p.j].push(Pair {
                i: p.j,
                j: p.i,
                dr: -p.dr,
                r: p.r,
            });
        }
        lists
    }
}

/// Home cell plus 13 half-shell neighbors.
const HALF_SHELL: [(isize, isize, isize); 14] = [
    (0, 0, 0),
    (1, 0, 0),
    (-1, 1, 0),
    (0, 1, 0),
    (1, 1, 0),
    (-1, -1, 1),
    (0, -1, 1),
    (1, -1, 1),
    (-1, 0, 1),
    (0, 0, 1),
    (1, 0, 1),
    (-1, 1, 1),
    (0, 1, 1),
    (1, 1, 1),
];

#[cfg(test)]
mod tests {
    use super::*;
    use mlmd_numerics::rng::{Rng64, Xoshiro256};

    fn brute_force(positions: &[Vec3], l: Vec3, rcut: f64) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                let dr = (positions[j] - positions[i]).min_image(l);
                if dr.norm() < rcut {
                    out.push((i, j));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn random_positions(n: usize, l: f64, seed: u64) -> Vec<Vec3> {
        let mut rng = Xoshiro256::new(seed);
        (0..n)
            .map(|_| Vec3::new(rng.range(0.0, l), rng.range(0.0, l), rng.range(0.0, l)))
            .collect()
    }

    #[test]
    fn matches_brute_force_large_box() {
        let l = Vec3::splat(20.0);
        let pos = random_positions(200, 20.0, 3);
        let cl = CellList::build(&pos, l, 3.0);
        let mut got: Vec<(usize, usize)> = cl
            .pairs(&pos)
            .into_iter()
            .map(|p| (p.i.min(p.j), p.i.max(p.j)))
            .collect();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got, brute_force(&pos, l, 3.0));
    }

    #[test]
    fn matches_brute_force_small_box_fallback() {
        let l = Vec3::splat(6.0);
        let pos = random_positions(40, 6.0, 4);
        let cl = CellList::build(&pos, l, 3.0); // only 2 cells per axis → fallback
        let mut got: Vec<(usize, usize)> = cl
            .pairs(&pos)
            .into_iter()
            .map(|p| (p.i.min(p.j), p.i.max(p.j)))
            .collect();
        got.sort_unstable();
        assert_eq!(got, brute_force(&pos, l, 3.0));
    }

    #[test]
    fn no_duplicate_pairs() {
        let l = Vec3::splat(15.0);
        let pos = random_positions(150, 15.0, 5);
        let cl = CellList::build(&pos, l, 3.5);
        let mut keys: Vec<(usize, usize)> = cl
            .pairs(&pos)
            .into_iter()
            .map(|p| (p.i.min(p.j), p.i.max(p.j)))
            .collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(before, keys.len(), "duplicate pairs found");
    }

    #[test]
    fn full_lists_symmetric() {
        let l = Vec3::splat(12.0);
        let pos = random_positions(60, 12.0, 6);
        let cl = CellList::build(&pos, l, 3.0);
        let lists = cl.full_lists(&pos);
        for (i, list) in lists.iter().enumerate() {
            for p in list {
                assert_eq!(p.i, i);
                assert!(
                    lists[p.j].iter().any(|q| q.j == i),
                    "asymmetric neighbor list"
                );
            }
        }
    }

    #[test]
    fn displacement_signs() {
        let l = Vec3::splat(10.0);
        let pos = vec![Vec3::new(1.0, 1.0, 1.0), Vec3::new(2.0, 1.0, 1.0)];
        let cl = CellList::build(&pos, l, 2.0);
        let pairs = cl.pairs(&pos);
        assert_eq!(pairs.len(), 1);
        let p = pairs[0];
        // dr points from i to j.
        let expect = if p.i == 0 { 1.0 } else { -1.0 };
        assert!((p.dr.x - expect).abs() < 1e-12);
        assert!((p.r - 1.0).abs() < 1e-12);
    }
}
