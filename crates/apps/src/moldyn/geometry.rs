//! Workload generation and the shared physics kernel.
//!
//! Every build (sequential, the four Tmk builds, CHAOS) uses the
//! same seeded geometry, the same interaction-list construction, and the
//! same pair force, so their results agree to summation-order tolerance.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::MoldynConfig;

/// The generated molecular system.
#[derive(Debug, Clone)]
pub struct MoldynWorld {
    /// Initial positions (original numbering).
    pub pos: Vec<[f64; 3]>,
    /// Edge length of the (open, non-periodic) box.
    pub box_l: f64,
    /// Cutoff radius.
    pub cutoff: f64,
}

/// Perturbed-lattice positions: deterministic for a given seed.
pub fn gen_positions(cfg: &MoldynConfig) -> MoldynWorld {
    let side = (cfg.n as f64).cbrt().ceil() as usize;
    let box_l = side as f64;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut pos = Vec::with_capacity(cfg.n);
    'outer: for gx in 0..side {
        for gy in 0..side {
            for gz in 0..side {
                if pos.len() == cfg.n {
                    break 'outer;
                }
                let jitter = |r: &mut StdRng| r.gen_range(-0.3..0.3);
                pos.push([
                    gx as f64 + 0.5 + jitter(&mut rng),
                    gy as f64 + 0.5 + jitter(&mut rng),
                    gz as f64 + 0.5 + jitter(&mut rng),
                ]);
            }
        }
    }
    MoldynWorld {
        pos,
        box_l,
        cutoff: box_l * cfg.cutoff_frac,
    }
}

/// The interaction list's pairs `(i, j)`, `i < j`, within the cutoff
/// whose first molecule lies in `[first, last)`, sorted by `(i, j)` —
/// one processor's section; over `0..n`, the whole list. Cell lists keep
/// the *wall-clock* cost near O(N); the 1997 code's O(N²/2) pair scan
/// is what the *simulated* cost model charges (`work::MOLDYN_PAIRTEST_US`).
pub fn build_interaction_list_for(
    pos: &[[f64; 3]],
    cutoff: f64,
    box_l: f64,
    first: usize,
    last: usize,
) -> Vec<(u32, u32)> {
    let ncell = (box_l / cutoff).floor().max(1.0) as i64;
    let coord = |v: f64| ((v / box_l * ncell as f64) as i64).clamp(0, ncell - 1);
    let cell = |x: i64, y: i64, z: i64| ((x * ncell + y) * ncell + z) as usize;
    let cell_of = |p: &[f64; 3]| cell(coord(p[0]), coord(p[1]), coord(p[2]));
    // Bucket all molecules with a counting sort over the dense grid:
    // cell `c` holds `by_cell[start[c]..start[c + 1]]`, ascending.
    let cells: Vec<usize> = pos.iter().map(cell_of).collect();
    let mut start = vec![0usize; (ncell * ncell * ncell) as usize + 1];
    for &c in &cells {
        start[c + 1] += 1;
    }
    for c in 1..start.len() {
        start[c] += start[c - 1];
    }
    let mut fill = start.clone();
    let mut by_cell = vec![0u32; pos.len()];
    for (i, &c) in cells.iter().enumerate() {
        by_cell[fill[c]] = i as u32;
        fill[c] += 1;
    }
    let rc2 = cutoff * cutoff;
    let mut list = Vec::new();
    for i in first..last {
        let pi = &pos[i];
        let (cx, cy, cz) = (coord(pi[0]), coord(pi[1]), coord(pi[2]));
        let row = list.len();
        for x in (cx - 1).max(0)..=(cx + 1).min(ncell - 1) {
            for y in (cy - 1).max(0)..=(cy + 1).min(ncell - 1) {
                for z in (cz - 1).max(0)..=(cz + 1).min(ncell - 1) {
                    let c = cell(x, y, z);
                    let bucket = &by_cell[start[c]..start[c + 1]];
                    let later = bucket.partition_point(|&j| j as usize <= i);
                    for &j in &bucket[later..] {
                        let pj = &pos[j as usize];
                        let d0 = pi[0] - pj[0];
                        let d1 = pi[1] - pj[1];
                        let d2 = pi[2] - pj[2];
                        if d0 * d0 + d1 * d1 + d2 * d2 < rc2 {
                            list.push((i as u32, j));
                        }
                    }
                }
            }
        }
        list[row..].sort_unstable();
    }
    list
}

/// The pair force kernel — identical in every build. A smooth, bounded,
/// deterministic stand-in for the CHARMM non-bonded force: attractive ∝
/// displacement × (rc² − r²), clamped to zero beyond the cutoff (pairs
/// drift while the list is stale, exactly as in the original programs).
#[inline]
pub fn pair_force(xi: &[f64; 3], xj: &[f64; 3], rc2: f64) -> [f64; 3] {
    let d = [xi[0] - xj[0], xi[1] - xj[1], xi[2] - xj[2]];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    let w = (rc2 - r2).max(0.0) * 5e-4;
    [d[0] * w, d[1] * w, d[2] * w]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> MoldynWorld {
        gen_positions(&MoldynConfig::small())
    }

    use super::super::MoldynConfig;

    #[test]
    fn generation_is_deterministic() {
        let a = small_world();
        let b = small_world();
        assert_eq!(a.pos, b.pos);
        assert_eq!(a.pos.len(), 512);
        // All molecules inside the box.
        for p in &a.pos {
            for &c in p {
                assert!(c > -0.5 && c < a.box_l + 0.5);
            }
        }
    }

    #[test]
    fn cell_list_matches_naive() {
        let w = small_world();
        let fast = build_interaction_list_for(&w.pos, w.cutoff, w.box_l, 0, w.pos.len());
        let rc2 = w.cutoff * w.cutoff;
        let mut naive = Vec::new();
        for i in 0..w.pos.len() {
            for j in i + 1..w.pos.len() {
                let (a, b) = (&w.pos[i], &w.pos[j]);
                let r2 = (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2);
                if r2 < rc2 {
                    naive.push((i as u32, j as u32));
                }
            }
        }
        assert_eq!(fast, naive);
    }

    #[test]
    fn per_range_lists_concatenate() {
        let w = small_world();
        let whole = build_interaction_list_for(&w.pos, w.cutoff, w.box_l, 0, w.pos.len());
        let mut parts = Vec::new();
        for k in 0..4 {
            let lo = k * 128;
            parts.extend(build_interaction_list_for(
                &w.pos,
                w.cutoff,
                w.box_l,
                lo,
                lo + 128,
            ));
        }
        assert_eq!(whole, parts);
    }

    #[test]
    fn force_is_antisymmetric_and_cut() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.5, 2.0, 3.0];
        let rc2 = 4.0;
        let fab = pair_force(&a, &b, rc2);
        let fba = pair_force(&b, &a, rc2);
        for d in 0..3 {
            assert_eq!(fab[d], -fba[d]);
        }
        // Beyond cutoff: exactly zero.
        let far = [9.0, 2.0, 3.0];
        assert_eq!(pair_force(&a, &far, rc2), [0.0; 3]);
    }

    #[test]
    fn paper_scale_interaction_density() {
        // The paper-scale workload must land near ~1.1M interactions
        // (that is what the cost calibration assumes) — checked here at
        // reduced scale via density: partners/molecule ≈ (4/3)π rc³.
        let w = small_world();
        let list = build_interaction_list_for(&w.pos, w.cutoff, w.box_l, 0, w.pos.len());
        let per_mol = 2.0 * list.len() as f64 / w.pos.len() as f64;
        let expect = 4.0 / 3.0 * std::f64::consts::PI * w.cutoff.powi(3);
        assert!(
            per_mol > 0.4 * expect && per_mol < 1.2 * expect,
            "density {per_mol} vs {expect}"
        );
    }
}
