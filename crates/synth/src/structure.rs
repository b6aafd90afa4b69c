//! Interaction-structure generators: parameterized families of
//! indirection pair lists, each a different corner of the irregular
//! design space the paper's three fixed kernels only sample.
//!
//! A *raw* list is a fixed-length vector of candidate endpoint pairs —
//! the thing the dynamics layer mutates in place (drift) or regenerates
//! (remap). The *effective* list every kernel iterates is
//! [`normalize`]d: endpoints ordered `a < b`, self-pairs dropped,
//! sorted, deduplicated — the same canonical global order umesh's
//! fixed-order owner-side reduction replays, which is what buys the
//! bitwise six-variant contract.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A family of interaction structures.
#[derive(Debug, Clone, PartialEq)]
pub enum Structure {
    /// Both endpoints uniform over all elements — the worst case for
    /// locality: every processor's read set spans every page.
    Uniform,
    /// Skewed degree: one endpoint drawn as `⌊n·u^alpha⌋` (`u` uniform
    /// in `[0,1)`, `alpha > 1`), concentrating interactions on
    /// low-numbered "hub" elements; the other endpoint uniform.
    PowerLaw { alpha: f64 },
    /// Grid-local: partners within `width` elements (a banded matrix) —
    /// the best case for a BLOCK partition, most traffic at block
    /// boundaries. `width` is clamped to `(n-1)/2` at generation time
    /// (a band wider than half the matrix is not banded, and the clamp
    /// is what keeps the boundary reflection in range).
    Banded { width: usize },
}

impl Structure {
    /// Short tag for scenario labels.
    pub fn tag(&self) -> String {
        match self {
            Structure::Uniform => "uniform".into(),
            Structure::PowerLaw { alpha } => format!("powerlaw{alpha}"),
            Structure::Banded { width } => format!("banded{width}"),
        }
    }

    /// One fresh candidate pair over `n` elements.
    pub fn gen_pair(&self, n: usize, rng: &mut StdRng) -> (u32, u32) {
        match *self {
            Structure::Uniform => (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)),
            Structure::PowerLaw { alpha } => {
                let u: f64 = rng.gen_range(0.0..1.0);
                let a = ((n as f64 * u.powf(alpha)) as usize).min(n - 1) as u32;
                (a, rng.gen_range(0..n as u32))
            }
            Structure::Banded { width } => {
                let a = rng.gen_range(0..n as u32) as usize;
                // Clamped so the reflection below cannot underflow: if
                // a + d >= n then a >= n - d >= n - w, and n - w > w - 1
                // for w <= (n-1)/2 — so a >= d always holds.
                let w = width.min((n - 1) / 2).max(1);
                let d = rng.gen_range(1..w as u32 + 1) as usize;
                let b = if a + d < n { a + d } else { a - d };
                (a as u32, b as u32)
            }
        }
    }

    /// A raw candidate list of exactly `refs` pairs, deterministic in
    /// `seed`.
    pub fn gen_raw(&self, n: usize, refs: usize, seed: u64) -> Vec<(u32, u32)> {
        assert!(n >= 2, "need at least two elements");
        let mut rng = StdRng::seed_from_u64(seed);
        (0..refs).map(|_| self.gen_pair(n, &mut rng)).collect()
    }
}

/// Canonicalize a raw candidate list into the effective interaction
/// list: `a < b`, no self-pairs, sorted, deduplicated.
pub fn normalize(raw: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut list: Vec<(u32, u32)> = raw
        .iter()
        .filter(|&&(a, b)| a != b)
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();
    list.sort_unstable();
    list.dedup();
    list
}

/// Per-element degree of an effective list.
pub fn degrees(n: usize, list: &[(u32, u32)]) -> Vec<usize> {
    let mut deg = vec![0usize; n];
    for &(a, b) in list {
        deg[a as usize] += 1;
        deg[b as usize] += 1;
    }
    deg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for s in [
            Structure::Uniform,
            Structure::PowerLaw { alpha: 2.0 },
            Structure::Banded { width: 16 },
        ] {
            assert_eq!(s.gen_raw(256, 1000, 7), s.gen_raw(256, 1000, 7));
            assert_ne!(s.gen_raw(256, 1000, 7), s.gen_raw(256, 1000, 8));
            assert_eq!(s.gen_raw(256, 1000, 7).len(), 1000);
        }
    }

    #[test]
    fn normalize_orders_and_dedups() {
        let list = normalize(&[(5, 3), (3, 5), (1, 1), (0, 2), (2, 0)]);
        assert_eq!(list, vec![(0, 2), (3, 5)]);
    }

    #[test]
    fn powerlaw_skews_toward_hubs() {
        let n = 1024;
        let list = normalize(&Structure::PowerLaw { alpha: 3.0 }.gen_raw(n, 4096, 3));
        let deg = degrees(n, &list);
        let low: usize = deg[..n / 8].iter().sum();
        let high: usize = deg[n - n / 8..].iter().sum();
        assert!(
            low > 3 * high,
            "low-numbered hubs must dominate: {low} vs {high}"
        );
        // And the hottest hub is far above the uniform average.
        let avg = 2.0 * list.len() as f64 / n as f64;
        let max = *deg.iter().max().unwrap();
        assert!(max as f64 > 4.0 * avg, "max {max} vs avg {avg}");
    }

    #[test]
    fn banded_stays_local() {
        let n = 1024;
        let list = normalize(&Structure::Banded { width: 16 }.gen_raw(n, 4096, 3));
        assert!(list.iter().all(|&(a, b)| (b - a) as usize <= 16));
    }

    #[test]
    fn banded_oversized_width_is_clamped_not_panicking() {
        // width > n/2 used to underflow `a - d` at the high boundary.
        for (n, width) in [(1024usize, 700usize), (1024, 10_000), (2, 5), (16, 8)] {
            let list = normalize(&Structure::Banded { width }.gen_raw(n, 2048, 11));
            let w = width.min((n - 1) / 2).max(1);
            assert!(
                list.iter().all(|&(a, b)| (b as usize) < n && (b - a) as usize <= w),
                "n={n} width={width}"
            );
        }
    }

    #[test]
    fn uniform_spans_the_space() {
        let n = 1024;
        let list = normalize(&Structure::Uniform.gen_raw(n, 4096, 3));
        let deg = degrees(n, &list);
        assert!(deg.iter().filter(|&&d| d > 0).count() > n * 9 / 10);
    }
}
