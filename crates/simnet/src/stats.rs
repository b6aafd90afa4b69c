//! Message and byte accounting.
//!
//! Counters are per (sending processor × message kind) so the table
//! harnesses can report both the paper's aggregate "Messages"/"Data"
//! columns and a per-protocol breakdown.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::{PolicyAct, ProcId};

/// Category of a protocol message, for breakdown reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum MsgKind {
    /// DSM: request for diffs of one page (base TreadMarks demand fetch).
    DiffRequest,
    /// DSM: reply carrying diffs / full pages.
    DiffReply,
    /// DSM: aggregated request for many pages at once (`Validate`).
    AggRequest,
    /// DSM: aggregated reply.
    AggReply,
    /// DSM: aggregated prefetch request issued by a runtime-adaptive
    /// protocol policy at a barrier (no compiler hints involved).
    AdaptRequest,
    /// DSM: adaptive-prefetch reply.
    AdaptReply,
    /// DSM: writer-initiated update push (adaptive update-push mode) —
    /// one one-way data message per writer/consumer pair, no request
    /// leg at all.
    AdaptPush,
    /// DSM: one-way push-schedule subscription — a consumer in
    /// update-push mode teaching a writer which pages to push at its
    /// barriers. Sent once per peer per *changed* schedule, so a stable
    /// per-phase plan subscribes once and then rides free.
    AdaptSub,
    /// DSM: barrier arrival/departure traffic (write notices ride along).
    Barrier,
    /// DSM: lock acquire/forward/grant traffic.
    Lock,
    /// CHAOS: inspector translation-table traffic.
    Translate,
    /// CHAOS: inspector schedule exchange.
    Schedule,
    /// CHAOS: executor gather (owner → consumer data push).
    Gather,
    /// CHAOS: executor scatter (consumer → owner contributions).
    Scatter,
    /// Application-level broadcast/reduction outside the DSM (rare).
    Other,
}

impl MsgKind {
    pub const COUNT: usize = 15;

    pub const ALL: [MsgKind; MsgKind::COUNT] = [
        MsgKind::DiffRequest,
        MsgKind::DiffReply,
        MsgKind::AggRequest,
        MsgKind::AggReply,
        MsgKind::AdaptRequest,
        MsgKind::AdaptReply,
        MsgKind::AdaptPush,
        MsgKind::AdaptSub,
        MsgKind::Barrier,
        MsgKind::Lock,
        MsgKind::Translate,
        MsgKind::Schedule,
        MsgKind::Gather,
        MsgKind::Scatter,
        MsgKind::Other,
    ];

    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            MsgKind::DiffRequest => "diff-req",
            MsgKind::DiffReply => "diff-rep",
            MsgKind::AggRequest => "agg-req",
            MsgKind::AggReply => "agg-rep",
            MsgKind::AdaptRequest => "adapt-req",
            MsgKind::AdaptReply => "adapt-rep",
            MsgKind::AdaptPush => "adapt-push",
            MsgKind::AdaptSub => "adapt-sub",
            MsgKind::Barrier => "barrier",
            MsgKind::Lock => "lock",
            MsgKind::Translate => "translate",
            MsgKind::Schedule => "schedule",
            MsgKind::Gather => "gather",
            MsgKind::Scatter => "scatter",
            MsgKind::Other => "other",
        }
    }
}

/// Lock-free counters: `[proc][kind]` message counts and payload bytes.
#[derive(Debug)]
pub struct Stats {
    msgs: Vec<[AtomicU64; MsgKind::COUNT]>,
    bytes: Vec<[AtomicU64; MsgKind::COUNT]>,
}

impl Stats {
    pub fn new(nprocs: usize) -> Self {
        let make = || {
            (0..nprocs)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect::<Vec<_>>()
        };
        Stats {
            msgs: make(),
            bytes: make(),
        }
    }

    /// Record one message of `payload` bytes sent by `from`.
    #[inline]
    pub fn record(&self, from: ProcId, kind: MsgKind, payload: usize) {
        self.msgs[from][kind.index()].fetch_add(1, Ordering::Relaxed);
        self.bytes[from][kind.index()].fetch_add(payload as u64, Ordering::Relaxed);
    }

    /// Record `n` messages totalling `payload` bytes.
    #[inline]
    pub fn record_n(&self, from: ProcId, kind: MsgKind, n: u64, payload: usize) {
        self.msgs[from][kind.index()].fetch_add(n, Ordering::Relaxed);
        self.bytes[from][kind.index()].fetch_add(payload as u64, Ordering::Relaxed);
    }

    pub fn total_messages(&self) -> u64 {
        self.msgs
            .iter()
            .flat_map(|a| a.iter())
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.bytes
            .iter()
            .flat_map(|a| a.iter())
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    pub fn messages_of(&self, kind: MsgKind) -> u64 {
        self.msgs
            .iter()
            .map(|a| a[kind.index()].load(Ordering::Relaxed))
            .sum()
    }

    pub fn bytes_of(&self, kind: MsgKind) -> u64 {
        self.bytes
            .iter()
            .map(|a| a[kind.index()].load(Ordering::Relaxed))
            .sum()
    }

    pub fn reset(&self) {
        for row in self.msgs.iter().chain(self.bytes.iter()) {
            for c in row {
                c.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// Per-epoch policy-decision counters for runtime-adaptive protocol
/// engines: how often the engine chose batched prefetch over demand
/// paging, and how its per-page modes churned. Only the DSM's protocol
/// layer writes them, and only for a processor with a policy installed
/// — plain runs never touch them, so they stay zero and cost nothing.
///
/// Every number is kept once: one shard per recording processor holding
/// that processor's per-**phase** rows (the barrier site that issued
/// each plan) and its three phase-less mode-flip counters. A shard's
/// mutex is uncontended (only its own processor locks it), so 256
/// processors recording an epoch simultaneously never serialize on one
/// global lock; [`PolicyReport::capture`] merges the shards, and the
/// whole-run totals are the sum of the merged rows.
#[derive(Debug)]
pub struct PolicyStats {
    shards: Vec<Mutex<PolicyShard>>,
}

#[derive(Debug, Default)]
struct PolicyShard {
    rows: BTreeMap<u32, PhasePolicyRow>,
    promotions: u64,
    demotions: u64,
    probes: u64,
}

impl PolicyStats {
    pub fn new(nprocs: usize) -> Self {
        PolicyStats {
            shards: (0..nprocs).map(|_| Mutex::default()).collect(),
        }
    }

    fn shard(&self, p: ProcId) -> MutexGuard<'_, PolicyShard> {
        self.shards[p].lock().expect("a recording processor panicked")
    }

    /// Add `delta`'s counters to `p`'s row for `delta.phase`.
    fn add(&self, p: ProcId, delta: PhasePolicyRow) {
        add_row(&mut self.shard(p).rows, delta);
    }

    /// One barrier epoch (tagged `phase`) observed by `p`'s policy,
    /// which made the per-page decisions `acts` (`(page, action)`, as in
    /// [`TraceEvent::Policy`](crate::TraceEvent::Policy)) while
    /// answering it: each promotion, demotion and probe is counted.
    pub fn record_epoch(&self, p: ProcId, phase: u32, acts: &[(u32, PolicyAct)]) {
        let mut shard = self.shard(p);
        let epoch = PhasePolicyRow {
            phase,
            epochs: 1,
            ..Default::default()
        };
        add_row(&mut shard.rows, epoch);
        for &(_, act) in acts {
            match act {
                PolicyAct::Promote => shard.promotions += 1,
                PolicyAct::Demote => shard.demotions += 1,
                PolicyAct::Probe => shard.probes += 1,
            }
        }
    }

    /// `p` issued one plan's worth of aggregated prefetch covering
    /// `pages` pages, on behalf of `phase`. Rounds count *plans fired*,
    /// not wire exchanges: when one fault triggers several phases'
    /// deferred plans they merge into a single exchange, and a plan
    /// partially quiesced at a cross-phase barrier can contribute both
    /// a quiesce record and, later, a round for its live remainder.
    pub fn record_prefetch(&self, p: ProcId, phase: u32, pages: usize) {
        let delta = PhasePolicyRow {
            phase,
            prefetch_rounds: 1,
            prefetch_pages: pages as u64,
            ..Default::default()
        };
        self.add(p, delta);
    }

    /// `p` absorbed one round of writer-initiated update pushes covering
    /// `pages` pages (update-push mode: no request leg on the wire),
    /// predicted by `phase`'s plan.
    pub fn record_push(&self, p: ProcId, phase: u32, pages: usize) {
        let delta = PhasePolicyRow {
            phase,
            push_rounds: 1,
            push_pages: pages as u64,
            ..Default::default()
        };
        self.add(p, delta);
    }

    /// `p`'s policy deferred `phase`'s batched fetch to the epoch's
    /// first demand fault instead of issuing it eagerly at the barrier.
    pub fn record_deferred(&self, p: ProcId, phase: u32) {
        let delta = PhasePolicyRow {
            phase,
            deferred_plans: 1,
            ..Default::default()
        };
        self.add(p, delta);
    }

    /// A deferred plan of `pages` pages owned by `phase` at `p` was
    /// discarded untriggered — its window closed (or the run ended)
    /// without anything touching the predicted pages, so the exchange
    /// was saved. A plan whose pages' windows close at *different*
    /// barriers (cross-phase page sharing) quiesces in parts and can
    /// contribute more than one record here.
    pub fn record_quiesced(&self, p: ProcId, phase: u32, pages: usize) {
        let delta = PhasePolicyRow {
            phase,
            quiesced_plans: 1,
            quiesced_pages: pages as u64,
            ..Default::default()
        };
        self.add(p, delta);
    }

    /// `p` (a push-mode consumer) sent `peers` one-way subscription
    /// messages because `phase`'s push schedule changed.
    pub fn record_subscribe(&self, p: ProcId, phase: u32, peers: usize) {
        let delta = PhasePolicyRow {
            phase,
            subscriptions: peers as u64,
            ..Default::default()
        };
        self.add(p, delta);
    }

    pub fn reset(&self) {
        for p in 0..self.shards.len() {
            *self.shard(p) = PolicyShard::default();
        }
    }
}

/// One phase's share of the policy-decision stream — the per-plan
/// breakdown that shows *which barrier site* earned each quiesce or
/// push round (summed over processors).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhasePolicyRow {
    /// The barrier-site tag this row describes.
    pub phase: u32,
    /// Barrier epochs carrying this tag.
    pub epochs: u64,
    /// Aggregated prefetch exchanges issued by this phase's plans.
    pub prefetch_rounds: u64,
    /// Pages covered by those exchanges.
    pub prefetch_pages: u64,
    /// Writer-initiated push rounds predicted by this phase.
    pub push_rounds: u64,
    /// Pages covered by those push rounds.
    pub push_pages: u64,
    /// Plans this phase deferred to a first fault.
    pub deferred_plans: u64,
    /// Deferred plans of this phase discarded untriggered.
    pub quiesced_plans: u64,
    /// Pages covered by those quiesced plans.
    pub quiesced_pages: u64,
    /// One-way push-schedule subscription messages this phase cost.
    pub subscriptions: u64,
}

/// Adds the nine counters; `self.phase` is left alone.
impl std::ops::AddAssign for PhasePolicyRow {
    fn add_assign(&mut self, o: PhasePolicyRow) {
        self.epochs += o.epochs;
        self.prefetch_rounds += o.prefetch_rounds;
        self.prefetch_pages += o.prefetch_pages;
        self.push_rounds += o.push_rounds;
        self.push_pages += o.push_pages;
        self.deferred_plans += o.deferred_plans;
        self.quiesced_plans += o.quiesced_plans;
        self.quiesced_pages += o.quiesced_pages;
        self.subscriptions += o.subscriptions;
    }
}

/// Add `delta` to `rows`' entry for its phase (created zeroed).
fn add_row(rows: &mut BTreeMap<u32, PhasePolicyRow>, delta: PhasePolicyRow) {
    let zero = PhasePolicyRow {
        phase: delta.phase,
        ..Default::default()
    };
    *rows.entry(delta.phase).or_insert(zero) += delta;
}

/// Frozen totals of [`PolicyStats`] (summed over processors). The first
/// nine totals are always the sums of the same columns of `per_phase`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyReport {
    /// Barrier epochs the policies observed (summed over processors).
    pub epochs: u64,
    /// Aggregated prefetch exchanges issued.
    pub prefetch_rounds: u64,
    /// Pages covered by those exchanges.
    pub prefetch_pages: u64,
    /// Writer-initiated update-push rounds absorbed (no request leg).
    pub push_rounds: u64,
    /// Pages covered by those push rounds.
    pub push_pages: u64,
    /// Batched fetches deferred to the epoch's first demand fault.
    pub deferred_plans: u64,
    /// Deferred plans discarded untriggered (the quiesce win: one whole
    /// exchange per peer saved, typically at the run's final barrier).
    pub quiesced_plans: u64,
    /// Pages covered by those quiesced plans.
    pub quiesced_pages: u64,
    /// One-way push-schedule subscription messages (update-push mode:
    /// one per peer per *changed* per-phase schedule).
    pub subscriptions: u64,
    /// Demand → prefetch mode switches.
    pub promotions: u64,
    /// Prefetch → demand mode switches.
    pub demotions: u64,
    /// Probe epochs (prefetch withheld to re-validate the pattern).
    pub probes: u64,
    /// Per-phase breakdown of the decision stream, sorted by phase tag.
    /// Untagged runs put everything in phase 0.
    pub per_phase: Vec<PhasePolicyRow>,
}

impl PolicyReport {
    pub fn capture(stats: &PolicyStats) -> Self {
        let mut report = PolicyReport::default();
        // BTreeMap keeps the merged rows sorted by phase tag, as the
        // report promises.
        let mut merged = BTreeMap::new();
        for p in 0..stats.shards.len() {
            let shard = stats.shard(p);
            for &row in shard.rows.values() {
                add_row(&mut merged, row);
            }
            report.promotions += shard.promotions;
            report.demotions += shard.demotions;
            report.probes += shard.probes;
        }
        report.per_phase = merged.into_values().collect();
        report.retotal();
        report
    }

    /// Set the nine per-phase totals to the column sums of `per_phase`.
    fn retotal(&mut self) {
        let mut sum = PhasePolicyRow::default();
        for &row in &self.per_phase {
            sum += row;
        }
        self.epochs = sum.epochs;
        self.prefetch_rounds = sum.prefetch_rounds;
        self.prefetch_pages = sum.prefetch_pages;
        self.push_rounds = sum.push_rounds;
        self.push_pages = sum.push_pages;
        self.deferred_plans = sum.deferred_plans;
        self.quiesced_plans = sum.quiesced_plans;
        self.quiesced_pages = sum.quiesced_pages;
        self.subscriptions = sum.subscriptions;
    }

    /// This report's row for `phase`, if the phase made any decisions.
    pub fn phase(&self, phase: u32) -> Option<&PhasePolicyRow> {
        self.per_phase.iter().find(|r| r.phase == phase)
    }

    /// Accumulate `other` into `self` field-wise, merging the per-phase
    /// breakdowns by tag. Associative and commutative, so concurrent
    /// runs (the serve driver's workers) can each fold their own jobs'
    /// reports locally and the partial sums merge in any order into one
    /// report — no global lock anywhere on the hot path.
    pub fn merge(&mut self, other: &PolicyReport) {
        for &row in &other.per_phase {
            match self.per_phase.binary_search_by_key(&row.phase, |r| r.phase) {
                Ok(i) => self.per_phase[i] += row,
                Err(i) => self.per_phase.insert(i, row),
            }
        }
        self.retotal();
        self.promotions += other.promotions;
        self.demotions += other.demotions;
        self.probes += other.probes;
    }

    /// Did any adaptive decision actually happen?
    pub fn is_active(&self) -> bool {
        self.promotions > 0 || self.prefetch_rounds > 0 || self.push_rounds > 0
    }
}

/// A frozen snapshot of the counters, for reports and table rows.
#[derive(Debug, Clone, PartialEq)]
pub struct NetReport {
    pub messages: u64,
    pub bytes: u64,
    pub per_kind: Vec<(MsgKind, u64, u64)>,
    /// Scenario label of the cluster the snapshot came from (set via
    /// `Net::set_label` by scenario-matrix harnesses), `None` elsewhere.
    pub label: Option<String>,
    /// Per-proc stall-attribution rows (one per rank, indexed by
    /// `ProcId`), filled by [`crate::Net::report`]; empty when the
    /// snapshot was assembled from bare [`Stats`] counters.
    pub stalls: Vec<crate::trace::StallRow>,
}

impl NetReport {
    pub fn capture(stats: &Stats) -> Self {
        NetReport {
            messages: stats.total_messages(),
            bytes: stats.total_bytes(),
            per_kind: MsgKind::ALL
                .iter()
                .map(|&k| (k, stats.messages_of(k), stats.bytes_of(k)))
                .filter(|&(_, m, b)| m > 0 || b > 0)
                .collect(),
            label: None,
            stalls: Vec::new(),
        }
    }

    pub fn megabytes(&self) -> f64 {
        self.bytes as f64 / 1e6
    }

    pub fn messages_per_kind(&self, kind: MsgKind) -> u64 {
        self.per_kind
            .iter()
            .find(|&&(k, _, _)| k == kind)
            .map_or(0, |&(_, m, _)| m)
    }

    pub fn bytes_per_kind(&self, kind: MsgKind) -> u64 {
        self.per_kind
            .iter()
            .find(|&&(k, _, _)| k == kind)
            .map_or(0, |&(_, _, b)| b)
    }

    /// Accumulate `other` into `self`: totals add, per-kind rows merge
    /// by kind (kept in [`MsgKind::ALL`] order). Labels: a merged report
    /// keeps its own label only while every contribution agrees —
    /// merging reports of different scenarios produces an unlabelled
    /// aggregate rather than mislabelling it. Associative and
    /// commutative, so concurrent runs can be folded worker-locally and
    /// the partials merged in any order without a global lock.
    pub fn merge(&mut self, other: &NetReport) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        for &(k, m, b) in &other.per_kind {
            match self.per_kind.iter_mut().find(|&&mut (k0, _, _)| k0 == k) {
                Some(row) => {
                    row.1 += m;
                    row.2 += b;
                }
                None => {
                    let pos = self
                        .per_kind
                        .iter()
                        .position(|&(k0, _, _)| k0.index() > k.index())
                        .unwrap_or(self.per_kind.len());
                    self.per_kind.insert(pos, (k, m, b));
                }
            }
        }
        if self.label != other.label {
            self.label = None;
        }
        // Stall rows merge rank-wise (element-wise bucket adds), extending
        // to the longer cluster — commutative and associative like the
        // per-kind rows, so worker-local partial folds stay order-free.
        if self.stalls.len() < other.stalls.len() {
            self.stalls
                .resize(other.stalls.len(), crate::trace::StallRow::default());
        }
        for (row, o) in self.stalls.iter_mut().zip(&other.stalls) {
            row.merge(o);
        }
    }

    /// Difference between two snapshots (for per-phase accounting).
    pub fn delta(&self, earlier: &NetReport) -> NetReport {
        let mut per_kind = Vec::new();
        for &(k, m, b) in &self.per_kind {
            let (m0, b0) = earlier
                .per_kind
                .iter()
                .find(|&&(k0, _, _)| k0 == k)
                .map(|&(_, m0, b0)| (m0, b0))
                .unwrap_or((0, 0));
            if m > m0 || b > b0 {
                per_kind.push((k, m - m0, b - b0));
            }
        }
        NetReport {
            messages: self.messages - earlier.messages,
            bytes: self.bytes - earlier.bytes,
            per_kind,
            label: self.label.clone(),
            stalls: self
                .stalls
                .iter()
                .enumerate()
                .map(|(p, row)| match earlier.stalls.get(p) {
                    Some(e) => row.delta(e),
                    None => *row,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let s = Stats::new(2);
        s.record(0, MsgKind::DiffRequest, 16);
        s.record(1, MsgKind::DiffReply, 4096);
        s.record_n(0, MsgKind::Barrier, 3, 120);
        assert_eq!(s.total_messages(), 5);
        assert_eq!(s.total_bytes(), 16 + 4096 + 120);
        assert_eq!(s.messages_of(MsgKind::Barrier), 3);
        assert_eq!(s.bytes_of(MsgKind::DiffReply), 4096);
    }

    #[test]
    fn report_delta() {
        let s = Stats::new(1);
        s.record(0, MsgKind::Gather, 100);
        let before = NetReport::capture(&s);
        s.record(0, MsgKind::Gather, 50);
        s.record(0, MsgKind::Scatter, 10);
        let after = NetReport::capture(&s);
        let d = after.delta(&before);
        assert_eq!(d.messages, 2);
        assert_eq!(d.bytes, 60);
        assert_eq!(d.per_kind.len(), 2);
    }

    #[test]
    fn reset_clears() {
        let s = Stats::new(1);
        s.record(0, MsgKind::Other, 9);
        s.reset();
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.total_bytes(), 0);
    }

    #[test]
    fn policy_counters_roundtrip() {
        use PolicyAct::{Demote, Probe, Promote};
        let s = PolicyStats::new(2);
        let acts0 = [Promote, Promote, Probe, Promote, Probe, Promote];
        s.record_epoch(0, 1, &acts0.map(|act| (7, act)));
        s.record_epoch(1, 2, &[(9, Demote)]);
        s.record_prefetch(0, 1, 12);
        s.record_prefetch(1, 2, 3);
        s.record_push(0, 1, 5);
        s.record_deferred(1, 2);
        s.record_quiesced(1, 2, 4);
        s.record_subscribe(0, 1, 3);
        let r = PolicyReport::capture(&s);
        assert_eq!(r.epochs, 2);
        assert_eq!(r.prefetch_rounds, 2);
        assert_eq!(r.prefetch_pages, 15);
        assert_eq!(r.push_rounds, 1);
        assert_eq!(r.push_pages, 5);
        assert_eq!(r.deferred_plans, 1);
        assert_eq!(r.quiesced_plans, 1);
        assert_eq!(r.quiesced_pages, 4);
        assert_eq!(r.subscriptions, 3);
        assert_eq!(r.promotions, 4);
        assert_eq!(r.demotions, 1);
        assert_eq!(r.probes, 2);
        assert!(r.is_active());
        // The per-phase breakdown splits the same stream by plan owner.
        assert_eq!(r.per_phase.len(), 2);
        let p1 = r.phase(1).unwrap();
        assert_eq!(
            (p1.epochs, p1.prefetch_rounds, p1.prefetch_pages, p1.push_rounds, p1.subscriptions),
            (1, 1, 12, 1, 3)
        );
        let p2 = r.phase(2).unwrap();
        assert_eq!(
            (p2.prefetch_pages, p2.deferred_plans, p2.quiesced_plans, p2.quiesced_pages),
            (3, 1, 1, 4)
        );
        assert!(r.phase(7).is_none());
        s.reset();
        let z = PolicyReport::capture(&s);
        assert_eq!(z, PolicyReport::default());
        assert!(!z.is_active());
    }

    #[test]
    fn net_report_merge_adds_and_orders_kinds() {
        let s = Stats::new(1);
        s.record(0, MsgKind::DiffRequest, 16);
        s.record(0, MsgKind::Barrier, 8);
        let mut a = NetReport::capture(&s);
        a.label = Some("cell-a".into());
        let t = Stats::new(1);
        t.record(0, MsgKind::DiffRequest, 4);
        t.record(0, MsgKind::AggReply, 100);
        let mut b = NetReport::capture(&t);
        b.label = Some("cell-a".into());
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.messages, 4);
        assert_eq!(ab.bytes, 128);
        assert_eq!(ab.messages_per_kind(MsgKind::DiffRequest), 2);
        assert_eq!(ab.bytes_per_kind(MsgKind::AggReply), 100);
        // Rows stay in MsgKind::ALL order after an out-of-order insert.
        let idx: Vec<usize> = ab.per_kind.iter().map(|&(k, _, _)| k.index()).collect();
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        // Same label: kept. Commutativity: b.merge(a) gives equal totals.
        assert_eq!(ab.label.as_deref(), Some("cell-a"));
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!((ba.messages, ba.bytes, ba.per_kind), (ab.messages, ab.bytes, ab.per_kind));
        // Conflicting labels merge to None.
        let mut c = a.clone();
        c.label = Some("cell-b".into());
        c.merge(&b);
        assert_eq!(c.label, None);
    }

    #[test]
    fn policy_report_merge_adds_and_merges_phases() {
        let s = PolicyStats::new(1);
        s.record_epoch(0, 1, &[(3, PolicyAct::Promote), (4, PolicyAct::Promote)]);
        s.record_prefetch(0, 1, 4);
        let a = PolicyReport::capture(&s);
        let t = PolicyStats::new(1);
        t.record_epoch(0, 2, &[]);
        t.record_push(0, 2, 3);
        t.record_epoch(0, 1, &[]);
        t.record_quiesced(0, 1, 2);
        let b = PolicyReport::capture(&t);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.epochs, 3);
        assert_eq!(ab.prefetch_pages, 4);
        assert_eq!(ab.push_pages, 3);
        assert_eq!(ab.promotions, 2);
        assert_eq!(ab.per_phase.len(), 2);
        let p1 = ab.phase(1).unwrap();
        assert_eq!((p1.epochs, p1.prefetch_pages, p1.quiesced_pages), (2, 4, 2));
        assert_eq!(ab.phase(2).unwrap().push_pages, 3);
        // Commutative.
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ba, ab);
        // Merging a default report is the identity.
        let mut id = ab.clone();
        id.merge(&PolicyReport::default());
        assert_eq!(id, ab);
    }

    #[test]
    fn kind_indices_are_dense_and_unique() {
        let mut seen = [false; MsgKind::COUNT];
        for k in MsgKind::ALL {
            assert!(!seen[k.index()], "duplicate index {}", k.index());
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
