//! The cost model: how many microseconds of simulated time each primitive
//! operation takes.
//!
//! The defaults are calibrated so the *sequential* applications land near
//! the paper's numbers (moldyn 16 384 molecules / 40 steps ≈ 267 s when the
//! interaction list is rebuilt once; nbf 64×1024 / 10 steps ≈ 78 s) and the
//! communication-bound deltas have the right magnitude (per-message cost in
//! the 10²-µs range, bandwidth in the tens of MB/s — user-level UDP over
//! the SP2 switch as TreadMarks 1.0.1 used it).
//!
//! Absolute values are *modeled*, not measured; the reproduction targets
//! the shape of the comparison (see ARCHITECTURE.md §Simulation honesty
//! rules). All constants are public, so a caller can scale any of them
//! (`synth/tests/invariance.rs` perturbs every field).

use crate::SimTime;

/// Cost constants, in microseconds unless noted.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    // ---- network ----
    /// Fixed cost of putting one message on the wire (send + receive side
    /// software overhead + switch latency).
    pub msg_latency_us: f64,
    /// Per-byte transmission cost. 0.025 µs/B ≈ 40 MB/s.
    pub per_byte_us: f64,
    /// Cost charged to a processor for fielding a remote request
    /// (TreadMarks services requests in a SIGIO handler; this models the
    /// stolen cycles).
    pub handler_us: f64,

    // ---- virtual-memory protocol ----
    /// Taking a protection violation and entering the user-level handler.
    pub page_fault_us: f64,
    /// Making a twin (copy) of one page, per byte.
    pub twin_per_byte_us: f64,
    /// Comparing a page against its twin and run-length encoding the
    /// result, per byte scanned.
    pub diff_create_per_byte_us: f64,
    /// Applying a diff, per byte of diff payload.
    pub diff_apply_per_byte_us: f64,
    /// Fixed per-barrier manager overhead (on top of message costs).
    pub barrier_us: f64,

    // ---- run-time library work ----
    /// `Validate` scanning one indirection-array element and folding its
    /// target page into the page set (paper §5.1.1: 0.6 s for ~2 M entries
    /// over 40 iterations on 8 processors).
    pub index_scan_us: f64,
    /// CHAOS inspector: hashing one indirection entry for duplicate
    /// elimination (paper §4: "Because of the time to hash the indirection
    /// array ... the inspector can be expensive").
    pub hash_us: f64,
    /// CHAOS inspector: one translation-table lookup (local part).
    pub translate_us: f64,
    /// CHAOS executor: packing/unpacking one byte of gather/scatter data.
    pub pack_per_byte_us: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Calibration notes (1997 SP2, TreadMarks over UDP/IP):
        // * TreadMarks' own SP2 studies put a page fetch at ~1.5 ms and a
        //   barrier at 1-2 ms — so user-level message latency ≈ 600 µs,
        //   not the raw switch latency.
        // * Effective DSM bandwidth ~20 MB/s → 0.05 µs/byte.
        // * CHAOS inspector: paper §5.1.1 reports 4.6 s per processor for
        //   two calls over ~272 k indirection entries per processor per
        //   call → ≈ 8 µs per hashed entry; §5.2.1's nbf numbers agree
        //   (5.2 s for ~820 k entries).
        // * Validate's indirection scan: 0.6 s over 2×~272 k entries per
        //   processor (moldyn, §5.1.1) → ≈ 0.3 µs/entry; nbf's 0.3 s for
        //   819 k entries → ≈ 0.35 µs/entry. We use 0.3.
        CostModel {
            msg_latency_us: 600.0,
            per_byte_us: 0.05,
            handler_us: 150.0,
            page_fault_us: 100.0,
            twin_per_byte_us: 0.010,
            diff_create_per_byte_us: 0.015,
            diff_apply_per_byte_us: 0.010,
            barrier_us: 100.0,
            index_scan_us: 0.3,
            hash_us: 8.0,
            translate_us: 0.35,
            pack_per_byte_us: 0.004,
        }
    }
}

impl CostModel {
    #[inline]
    pub fn handler(&self) -> SimTime {
        SimTime::from_us(self.handler_us)
    }

    #[inline]
    pub fn page_fault(&self) -> SimTime {
        SimTime::from_us(self.page_fault_us)
    }

    #[inline]
    pub fn twin(&self, page_size: usize) -> SimTime {
        SimTime::from_us(self.twin_per_byte_us * page_size as f64)
    }

    #[inline]
    pub fn diff_create(&self, page_size: usize) -> SimTime {
        SimTime::from_us(self.diff_create_per_byte_us * page_size as f64)
    }

    #[inline]
    pub fn diff_apply(&self, payload: usize) -> SimTime {
        SimTime::from_us(self.diff_apply_per_byte_us * payload as f64)
    }

    #[inline]
    pub fn index_scan(&self, entries: usize) -> SimTime {
        SimTime::from_us(self.index_scan_us * entries as f64)
    }

    #[inline]
    pub fn inspector_hash(&self, entries: usize) -> SimTime {
        SimTime::from_us(self.hash_us * entries as f64)
    }

    #[inline]
    pub fn translate(&self, lookups: usize) -> SimTime {
        SimTime::from_us(self.translate_us * lookups as f64)
    }

    #[inline]
    pub fn pack(&self, bytes: usize) -> SimTime {
        SimTime::from_us(self.pack_per_byte_us * bytes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let m = CostModel::default();
        // A remote request interrupts the server, and a fetch round's
        // latency dwarfs that interruption.
        assert!(m.handler() > SimTime::ZERO);
        assert!(2.0 * m.msg_latency_us > m.handler_us);
        // The calibration above: per-message cost in the 10²-µs range,
        // bandwidth (1 / per_byte_us, in MB/s) in the tens.
        assert!((100.0..1000.0).contains(&m.msg_latency_us));
        assert!((10.0..100.0).contains(&(1.0 / m.per_byte_us)));
    }

    #[test]
    fn hash_dominates_index_scan() {
        // The paper's core asymmetry: the CHAOS inspector is an order of
        // magnitude more expensive per entry than Validate's page-set scan.
        let m = CostModel::default();
        assert!(m.hash_us + m.translate_us > 8.0 * m.index_scan_us);
    }

    #[test]
    fn costs_scale_linearly() {
        let m = CostModel::default();
        assert_eq!(m.index_scan(10).as_ns(), 10 * m.index_scan(1).as_ns());
        assert_eq!(m.pack(1000).as_ns(), 10 * m.pack(100).as_ns());
    }
}
