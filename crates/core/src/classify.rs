//! The per-configuration classification model (§5.1, Fig 12).
//!
//! A [`ClassifierModel`] holds one centroid per key — the counter delta of
//! that key's popup frame on one `(phone, OS, resolution, refresh rate,
//! keyboard)` configuration — plus the acceptance threshold `C_th`, chosen
//! offline to eliminate false positives, and the auxiliary signatures the
//! detectors of §5.2/§5.3 need.
//!
//! Distances are computed in a *whitened* space (each counter scaled by the
//! inverse inter-centroid spread), so small-but-informative counters such as
//! primitive counts are not drowned out by pixel counts.

use adreno_sim::counters::{CounterSet, NUM_TRACKED};
use android_ui::{
    AndroidVersion, DeviceConfig, KeyboardKind, PhoneModel, RefreshRate, Resolution, TargetApp,
};
use std::fmt;

/// One key's trained centroid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyCentroid {
    /// The key this centroid was trained on.
    pub ch: char,
    /// Mean per-press counter deltas across the training presses.
    pub values: CounterSet,
}

/// Identifies the configuration a model was trained for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelMeta {
    /// Phone the training traces came from.
    pub phone: PhoneModel,
    /// Android version of the training device.
    pub android: AndroidVersion,
    /// Screen resolution (affects tile counts).
    pub resolution: Resolution,
    /// Display refresh rate (affects frame cadence).
    pub refresh: RefreshRate,
    /// Keyboard app the victim types on.
    pub keyboard: KeyboardKind,
    /// Target app whose text field receives the input.
    pub app: TargetApp,
}

impl ModelMeta {
    /// The device configuration part of the metadata.
    pub fn device_config(&self) -> DeviceConfig {
        DeviceConfig {
            phone: self.phone,
            android: self.android,
            resolution: self.resolution,
            refresh: self.refresh,
        }
    }
}

impl fmt::Display for ModelMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / Android {} / {} / {} / {} / {}",
            self.phone.name(),
            self.android.name(),
            self.resolution.name(),
            self.refresh,
            self.keyboard,
            self.app
        )
    }
}

/// Bucket edges of the per-call classification-latency histogram
/// (`core.classify.latency_ns`): 1 µs, 10 µs, 0.1 ms (the paper's Fig 25
/// bound), 1 ms, overflow.
pub const CLASSIFY_LATENCY_EDGES: &[u64] = &[1_000, 10_000, 100_000, 1_000_000];

/// Result of classifying one counter delta.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Classification {
    /// Accepted as the key press of `ch` (weighted distance below `C_th`).
    Key {
        /// The inferred key.
        ch: char,
        /// Weighted distance to that key's centroid.
        distance: f64,
    },
    /// Rejected: not close enough to any centroid.
    Rejected {
        /// The closest centroid's key.
        nearest: char,
        /// Weighted distance to that nearest centroid (≥ `C_th`).
        distance: f64,
    },
}

impl Classification {
    /// The accepted character, if any.
    pub fn key(&self) -> Option<char> {
        match self {
            Classification::Key { ch, .. } => Some(*ch),
            Classification::Rejected { .. } => None,
        }
    }
}

/// Hot-path lookup data derived from the centroids at construction time.
/// Never serialised — [`crate::registry::decode_model`] rebuilds it.
#[derive(Debug, Clone, PartialEq)]
struct PreparedCentroids {
    /// One fixed-length *pre-whitened* `f64` row per centroid
    /// (`value * weight`, the whitening applied once at build time), so the
    /// scan loop streams one contiguous row per candidate and its inner
    /// body is pure subtract-square-accumulate — no per-element weight
    /// multiply, no `u64` re-conversion. The fixed row length keeps every
    /// kernel call on the compile-time-sized `simdlite::*_fixed` path
    /// (fully unrolled, no bounds checks).
    rows: Vec<[f64; NUM_TRACKED]>,
    /// Per centroid, the total magnitude the §5.1 gate compares against:
    /// that of the *first* centroid sharing the key, exactly what the
    /// previous by-key linear scan found.
    gate_totals: Vec<f64>,
    /// Centroid indices sorted by whitened norm (ties by index): the
    /// best-first visit order of the outward scan. A probe's nearest
    /// centroid tends to sit nearby in norm, so scanning outward from the
    /// probe's own norm finds a tight `best_acc` almost immediately — and
    /// because the norm-gap lower bound only grows with the gap, the first
    /// candidate a direction *excludes* ends that entire direction.
    order: Vec<u32>,
    /// `norms[order[k]]` — the norms in visit order, one contiguous array
    /// for the outward scan's binary search and gap tests.
    sorted_norms: Vec<f64>,
    /// Inclusive integer range of probe totals the magnitude gate could
    /// accept against *some* centroid: `[min gate_total·(1−tol),
    /// max gate_total·(1+tol)]`, widened by [`SCREEN_REL_SLACK`] and ±2 so
    /// the gate's own float rounding never lands outside it. Empty
    /// (`lo > hi`) when no centroid has a positive total. The accept
    /// probe's first screen.
    gate_hull: (u64, u64),
}

impl PreparedCentroids {
    fn build(centroids: &[KeyCentroid], weights: &[f64; NUM_TRACKED]) -> Self {
        let rows: Vec<[f64; NUM_TRACKED]> =
            centroids.iter().map(|c| whiten(&c.values, weights)).collect();
        let norms: Vec<f64> = rows.iter().map(|r| simdlite::sq_norm_fixed(r).sqrt()).collect();
        let gate_totals: Vec<f64> = centroids
            .iter()
            .map(|c| {
                centroids.iter().find(|o| o.ch == c.ch).map(|o| o.values.total()).unwrap_or(0)
                    as f64
            })
            .collect();
        let mut order: Vec<u32> = (0..rows.len() as u32).collect();
        order.sort_by(|&a, &b| norms[a as usize].total_cmp(&norms[b as usize]).then(a.cmp(&b)));
        let sorted_norms = order.iter().map(|&i| norms[i as usize]).collect();
        let gate_hull = gate_hull(&gate_totals);
        PreparedCentroids { rows, gate_totals, order, sorted_norms, gate_hull }
    }
}

/// Relative widening of [`PreparedCentroids::gate_hull`] and of the accept
/// probe's distance bound. The float error of the gate's comparison and of
/// `fl(sqrt(acc)) ≤ C_th` is a few `2⁻⁵³` relative; `2⁻⁴⁰` dwarfs it, so
/// both screens only ever drop probes the full classification rejects.
const SCREEN_REL_SLACK: f64 = 1.0 / (1u64 << 40) as f64;

/// The integer hull of probe totals the magnitude gate can accept (see
/// [`PreparedCentroids::gate_hull`]). `as u64` saturates, so huge totals
/// stay ordered.
fn gate_hull(gate_totals: &[f64]) -> (u64, u64) {
    let positive = gate_totals.iter().copied().filter(|&t| t > 0.0);
    let (Some(min), Some(max)) = (positive.clone().reduce(f64::min), positive.reduce(f64::max))
    else {
        return (1, 0);
    };
    let tol = ClassifierModel::MAGNITUDE_TOLERANCE;
    let lo = (min * (1.0 - tol) * (1.0 - SCREEN_REL_SLACK)).floor() as u64;
    let hi = (max * (1.0 + tol) * (1.0 + SCREEN_REL_SLACK)).ceil() as u64;
    (lo.saturating_sub(2), hi.saturating_add(2))
}

/// Outcome of one [`ClassifierModel::probe`], by the step that decided it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Probe {
    /// Dropped by the magnitude or norm screen before any kernel distance.
    Screened,
    /// Reached the bounded scan and was not accepted.
    Rejected,
    /// Accepted: exactly [`Classification::Key`]'s `(ch, distance)`.
    Key(char, f64),
}

/// Upper bound on the *relative* floating-point error of a computed norm
/// `fl(sqrt(Σ v_i²))`: the chain is ~13 roundings at `2⁻⁵³` each, bounded
/// here by a generous `2⁻⁴⁵`.
const NORM_REL_ERR: f64 = 1.0 / (1u64 << 45) as f64;

/// Whether the norm gap between probe and candidate *provably* excludes the
/// candidate: returns `true` only when the candidate's computed squared
/// distance is guaranteed to come out `>= best_acc`. The ordered scan
/// passes its tie-guarded cutoff (`best · TIE_GUARD`) as `best_acc`, so an
/// excluded candidate cannot even tie the incumbent in rounded `sqrt`
/// space, and skipping it cannot change which centroid is selected.
///
/// Soundness: with `g` the computed norm gap and `t = (an + bn)·2⁻⁴⁵` an
/// upper bound on its absolute error (the true gap lies in `g ± t`), the
/// reverse triangle inequality gives
/// `dist² ≥ gap_true² ≥ (|g| - t)² ≥ g² - 2|g|t - t²` — and the computed
/// squared distance itself only adds relative error far below the slack in
/// `t`'s margin (`2⁻⁴⁵` vs the true `~13·2⁻⁵³`) and one extra `t²`. So when
/// `g² - 2|g|t - 2t² ≥ best_acc`, the kernel's completed sum could not beat
/// `best_acc` either. A probe bitwise-equal to a centroid computes the
/// *same* norm (identical input, deterministic chain), gap exactly `0.0`,
/// and is never skipped.
#[inline]
fn norm_gap_excludes(an: f64, bn: f64, best_acc: f64) -> bool {
    let g = (an - bn).abs();
    let t = (an + bn) * NORM_REL_ERR;
    g * g - 2.0 * g * t - 2.0 * t * t >= best_acc
}

/// Tie guard for the out-of-order scan's pruning cutoff.
///
/// The ordered scan resolves equal *distances* to the lowest centroid
/// index, which is what the in-index-order scans get for free from their
/// strict `<` update. But two different squared sums within ~4 ulp of each
/// other can round to the *same* `sqrt`, so pruning at exactly the best
/// squared sum could drop a candidate that ties in distance while holding a
/// smaller index. Pruning at `best_acc * TIE_GUARD` instead is safe in both
/// directions:
///
/// * any `acc` whose rounded `sqrt` equals the best distance satisfies
///   `acc <= best_acc * (1 + 2⁻⁵⁰)` (the sqrt-preimage of one `f64` spans a
///   relative range ≲ 4·2⁻⁵³), so no potential tie is ever pruned;
/// * any `acc` above the guard has `sqrt(acc)/sqrt(best_acc) ≥ 1 + 2⁻⁵¹`,
///   more than an ulp apart, so its rounded distance is strictly larger and
///   it could not have won anyway.
const TIE_GUARD: f64 = 1.0 + 1.0 / (1u64 << 50) as f64;

/// Maps a counter vector into the whitened `f64` space the classifier
/// measures distances in: `out[i] = (v[i] as f64) * w[i]`.
///
/// Every distance in this module subtracts two vectors whitened by this
/// exact expression and squares the difference — `aw[i] - bw[i]`, not
/// `(a[i] - b[i]) * w[i]`. The two forms differ in their rounding, so the
/// choice is part of the bit-exactness contract: prepared rows, per-call
/// probes and the naive oracle's operands all go through this one function,
/// which is what keeps the pruned scan, the batched scan and
/// [`ClassifierModel::distance`] bit-identical to each other.
#[inline]
fn whiten(v: &CounterSet, w: &[f64; NUM_TRACKED]) -> [f64; NUM_TRACKED] {
    let mut out = v.to_f64();
    for (o, wi) in out.iter_mut().zip(w) {
        *o *= wi;
    }
    out
}

/// Per-probe state of one batched nearest-centroid search.
#[derive(Debug, Clone, Copy)]
struct ProbeState {
    /// The probe whitened into the kernel's `f64` domain, once per burst.
    av: [f64; NUM_TRACKED],
    /// `‖av‖`, the outward scan's starting point and prescreen operand.
    an: f64,
    best_idx: usize,
    best_d: f64,
}

/// Reusable per-burst search state for [`ClassifierModel::classify_batch`].
/// Callers on the streaming hot path keep one of these alive across bursts
/// so batched classification never allocates in steady state (the backing
/// `Vec` grows to the largest burst seen, then stays).
#[derive(Debug, Default)]
pub struct BatchScratch {
    states: Vec<ProbeState>,
}

/// A trained classification model for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierModel {
    meta: ModelMeta,
    centroids: Vec<KeyCentroid>,
    prepared: PreparedCentroids,
    /// Per-counter whitening weights (1 / inter-centroid spread).
    weights: [f64; NUM_TRACKED],
    /// Acceptance threshold in whitened distance.
    threshold: f64,
    /// Base keyboard redraw delta (a popup-hide frame): the configuration's
    /// fingerprint, used for device recognition (§3.2).
    kb_signature: CounterSet,
    /// Field-region redraw with empty text and the cursor visible: the
    /// baseline echo delta, anchor for the §5.3 correction detector.
    app_signature: CounterSet,
    /// Exact field-redraw signatures for every input length the attacker
    /// anticipates, alternating cursor-off/cursor-on per length. Rendered
    /// offline — text cells straddle supertile boundaries, so the
    /// signatures are *not* an affine function of the length and must be
    /// precomputed rather than extrapolated.
    field_signatures: Vec<CounterSet>,
    /// The target app's cold-launch burst (login screen + keyboard + status
    /// bar rendering together): the §3.2 trigger the monitoring service
    /// waits for.
    launch_signature: CounterSet,
    /// Delta magnitude above which a change is app-switch-sized (§5.2).
    switch_threshold: u64,
}

impl ClassifierModel {
    /// Assembles a model from trained parts. Normally produced by
    /// [`crate::offline::Trainer`].
    ///
    /// # Panics
    ///
    /// Panics if `centroids` is empty or `threshold` is not positive.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        meta: ModelMeta,
        centroids: Vec<KeyCentroid>,
        weights: [f64; NUM_TRACKED],
        threshold: f64,
        kb_signature: CounterSet,
        app_signature: CounterSet,
        field_signatures: Vec<CounterSet>,
        launch_signature: CounterSet,
        switch_threshold: u64,
    ) -> Self {
        assert!(!centroids.is_empty(), "a model needs at least one key centroid");
        assert!(threshold > 0.0, "C_th must be positive");
        let prepared = PreparedCentroids::build(&centroids, &weights);
        ClassifierModel {
            meta,
            centroids,
            prepared,
            weights,
            threshold,
            kb_signature,
            app_signature,
            field_signatures,
            launch_signature,
            switch_threshold,
        }
    }

    /// The configuration this model was trained for.
    pub fn meta(&self) -> &ModelMeta {
        &self.meta
    }

    /// The trained key centroids.
    pub fn centroids(&self) -> &[KeyCentroid] {
        &self.centroids
    }

    /// The acceptance threshold `C_th`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The whitening weights.
    pub fn weights(&self) -> &[f64; NUM_TRACKED] {
        &self.weights
    }

    /// The keyboard base-redraw fingerprint.
    pub fn kb_signature(&self) -> &CounterSet {
        &self.kb_signature
    }

    /// The app echo-frame anchor (field redraw, empty text, cursor on).
    pub fn app_signature(&self) -> &CounterSet {
        &self.app_signature
    }

    /// The target app's cold-launch render burst.
    pub fn launch_signature(&self) -> &CounterSet {
        &self.launch_signature
    }

    /// The ambient redraw signatures an attacker can expect to find summed
    /// into a read window: field redraws at every anticipated input length,
    /// with and without the cursor. Algorithm 1's peeling step subtracts
    /// these from otherwise-unclassifiable changes (a popup frame and a
    /// cursor blink can share a vsync and therefore a read window).
    pub fn ambient_signatures(&self) -> &[CounterSet] {
        &self.field_signatures
    }

    /// The app-switch burst magnitude threshold.
    pub fn switch_threshold(&self) -> u64 {
        self.switch_threshold
    }

    /// Returns a copy of the model with a different acceptance threshold
    /// (used by the threshold-sweep ablation).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive.
    pub fn with_threshold(&self, threshold: f64) -> ClassifierModel {
        assert!(threshold > 0.0, "C_th must be positive");
        ClassifierModel { threshold, ..self.clone() }
    }

    /// Returns a copy of the model with replacement key centroids, rebuilding
    /// the prepared hot-path data. Used by the registry's online-adaptation
    /// fold, which nudges centroids toward a corrected session's observations.
    ///
    /// # Panics
    ///
    /// Panics if `centroids` is empty.
    pub fn with_centroids(&self, centroids: Vec<KeyCentroid>) -> ClassifierModel {
        assert!(!centroids.is_empty(), "a model needs at least one key centroid");
        let prepared = PreparedCentroids::build(&centroids, &self.weights);
        ClassifierModel { centroids, prepared, ..self.clone() }
    }

    /// Weighted (whitened) Euclidean distance between two counter vectors.
    ///
    /// Both vectors are mapped through `whiten` and the squared distance
    /// is computed with the `simdlite` chunked kernel. Every distance in
    /// this module — here, the pruned scan, the batched scan, `nearest_k` —
    /// whitens with the same expression and sums with the same kernel lane
    /// order, which is what makes the pruned/batched paths *bit-identical*
    /// to the naive references rather than merely close.
    pub fn distance(&self, a: &CounterSet, b: &CounterSet) -> f64 {
        simdlite::sq_dist_fixed(&whiten(a, &self.weights), &whiten(b, &self.weights)).sqrt()
    }

    /// The `k` nearest centroids to `v`, closest first, with whitened
    /// distances. Rank 0 is what [`ClassifierModel::classify`] would pick;
    /// the rest are the alternatives a guessing attacker tries (§7.1:
    /// "single errors in inference could be addressed with a small number
    /// of guesses").
    ///
    /// `k` is tiny ([`crate::online::CANDIDATES_PER_KEY`] = 8) against tens
    /// of centroids, so this keeps a bounded sorted buffer of the best `k`
    /// seen — one insertion into a ≤ `k`-element `Vec` per surviving
    /// candidate — instead of materialising and fully sorting all centroids
    /// per call. Ties break deterministically to the earliest centroid
    /// (distances are never NaN: they are square roots of non-negative
    /// sums), matching what the previous stable full sort produced.
    pub fn nearest_k(&self, v: &CounterSet, k: usize) -> Vec<(char, f64)> {
        let k = k.min(self.centroids.len());
        let av = whiten(v, &self.weights);
        let mut top: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        for (idx, row) in self.prepared.rows.iter().enumerate() {
            let d = simdlite::sq_dist_fixed(&av, row).sqrt();
            // Insertion point after every entry at or below `d`: equal
            // distances keep centroid order (earlier centroid first).
            let pos = top.partition_point(|&(td, _)| td <= d);
            if pos < k {
                top.insert(pos, (d, idx));
                top.truncate(k);
            }
        }
        top.into_iter().map(|(d, idx)| (self.centroids[idx].ch, d)).collect()
    }

    /// The nearest centroid to `v` and its whitened distance.
    pub fn nearest(&self, v: &CounterSet) -> (char, f64) {
        let (idx, d) = self.nearest_pruned(v);
        (self.centroids[idx].ch, d)
    }

    /// Nearest-centroid search, best-first by norm.
    fn nearest_pruned(&self, v: &CounterSet) -> (usize, f64) {
        let av = whiten(v, &self.weights);
        let an = simdlite::sq_norm_fixed(&av).sqrt();
        self.nearest_ordered(&av, an, f64::INFINITY)
    }

    /// The shared nearest-centroid kernel scan (per-delta and batched paths
    /// both land here). Three pruning layers compound:
    ///
    /// * **Best-first order.** Candidates are visited outward from the
    ///   probe's own whitened norm (binary search into `sorted_norms`, then
    ///   a two-cursor walk that always takes the side with the smaller norm
    ///   gap). The true nearest centroid is usually among the first few
    ///   visited, so `best_acc` collapses almost immediately.
    /// * **Directional cutoff.** `(‖a‖-‖b‖)² ≤ ‖a-b‖²`, so a candidate
    ///   whose norm gap already rules it out ([`norm_gap_excludes`], with
    ///   the documented rounding margins) is skipped — and since the gap
    ///   only grows moving away from the probe's norm while the bound is
    ///   monotone in the gap (it fires only once `g` clears `(1+√3)t`, past
    ///   which it increases with `g`), the *first* excluded candidate on a
    ///   side retires that whole direction. An accept probe typically costs
    ///   one kernel call plus two gap tests.
    /// * **Chunked partial-distance exit.** [`simdlite::sq_dist_pruned_fixed`]
    ///   aborts a surviving candidate at the first 4-lane chunk boundary
    ///   where its running sum reaches the cutoff.
    ///
    /// Equivalence with the in-index-order naive scan: that scan's strict
    /// `d < best` update keeps the lowest-indexed centroid among those
    /// tying at the minimal rounded distance. Visiting out of order, the
    /// update here breaks equal distances by index explicitly, and both the
    /// kernel cutoff and the prescreen use `best_acc * TIE_GUARD` so a
    /// candidate that could still *tie* in `sqrt`-space is never pruned.
    /// Completed sums come from the same kernel in the same lane order, so
    /// the selected centroid and reported distance stay bit-identical to
    /// [`ClassifierModel::nearest_naive`].
    ///
    /// `cutoff` is the initial pruning bound: `f64::INFINITY` for a full
    /// nearest-centroid search. A finite bound acts as a phantom incumbent —
    /// every candidate whose squared distance is provably `>= cutoff` is
    /// skipped — so the result is the true nearest centroid whenever that
    /// centroid lies inside the bound, and `(0, ∞)` or some farther
    /// in-bound centroid otherwise.
    fn nearest_ordered(&self, av: &[f64; NUM_TRACKED], an: f64, mut cutoff: f64) -> (usize, f64) {
        let p = &self.prepared;
        let n = p.order.len();
        let mut best_idx = 0usize;
        let mut best_d = f64::INFINITY;
        // Rows below `an` live at [0, lo), rows at/above it at [hi, n);
        // retiring a direction empties its interval.
        let mut hi = p.sorted_norms.partition_point(|&x| x < an);
        let mut lo = hi;
        loop {
            let take_lo = if lo > 0 && hi < n {
                an - p.sorted_norms[lo - 1] <= p.sorted_norms[hi] - an
            } else if lo > 0 {
                true
            } else if hi < n {
                false
            } else {
                break;
            };
            let k = if take_lo { lo - 1 } else { hi };
            if norm_gap_excludes(an, p.sorted_norms[k], cutoff) {
                if take_lo {
                    lo = 0;
                } else {
                    hi = n;
                }
                continue;
            }
            if take_lo {
                lo -= 1;
            } else {
                hi += 1;
            }
            let idx = p.order[k] as usize;
            if let Some(acc) = simdlite::sq_dist_pruned_fixed(av, &p.rows[idx], cutoff) {
                let d = acc.sqrt();
                if d < best_d || (d == best_d && idx < best_idx) {
                    best_idx = idx;
                    best_d = d;
                    cutoff = acc * TIE_GUARD;
                }
            }
        }
        (best_idx, best_d)
    }

    /// Reference nearest-centroid scan without pruning: computes the full
    /// whitened distance to every centroid via [`ClassifierModel::distance`].
    /// Semantically identical to [`ClassifierModel::nearest`]; kept as the
    /// oracle for the equivalence proptest and the `hotpath` benchmark.
    pub fn nearest_naive(&self, v: &CounterSet) -> (char, f64) {
        let mut best = (self.centroids[0].ch, f64::INFINITY);
        for c in &self.centroids {
            let d = self.distance(v, &c.values);
            if d < best.1 {
                best = (c.ch, d);
            }
        }
        best
    }

    /// Relative tolerance of the magnitude gate: a candidate's total
    /// counter activity must be within this fraction of the matched
    /// centroid's total. Two failure modes motivate the gate:
    ///
    /// * the whitened metric deliberately down-weights the base-redraw
    ///   dimensions (they carry no per-key information), so without the
    ///   gate the *sum of two unrelated base redraws* — e.g. a popup-hide
    ///   frame plus a page-switch frame — could recombine into a phantom
    ///   key press;
    /// * a *split* read that caught most (e.g. 7/8) of a popup frame can
    ///   land near a neighbouring key's centroid; gating on magnitude sends
    ///   it to split recombination instead, which then reconstructs the
    ///   exact frame.
    ///
    /// True key deltas match their centroid totals almost exactly, so 8 %
    /// is generous for signal while excluding both failure modes.
    pub const MAGNITUDE_TOLERANCE: f64 = 0.08;

    /// Classifies a delta: nearest centroid, accepted iff within `C_th`
    /// (the `SearchMinDist` + threshold test of Algorithm 1) *and* of
    /// key-frame-sized total magnitude.
    pub fn classify(&self, v: &CounterSet) -> Classification {
        let started = std::time::Instant::now();
        let out = self.classify_inner(v);
        // Fig 25's headline claim is <0.1 ms per inference; the 100 µs edge
        // of this histogram checks it on every call of every experiment.
        spansight::record(
            "core.classify.latency_ns",
            CLASSIFY_LATENCY_EDGES,
            started.elapsed().as_nanos() as u64,
        );
        match out {
            Classification::Key { .. } => spansight::count("core.classify.accepted", 1),
            Classification::Rejected { .. } => spansight::count("core.classify.rejected", 1),
        }
        out
    }

    fn classify_inner(&self, v: &CounterSet) -> Classification {
        let (idx, distance) = self.nearest_pruned(v);
        self.gate(idx, distance, v)
    }

    /// The acceptance decision after the nearest-centroid search: within
    /// `C_th` *and* of key-frame-sized total magnitude. Shared by the
    /// per-delta and batched paths so both gate identically.
    fn gate(&self, idx: usize, distance: f64, v: &CounterSet) -> Classification {
        let ch = self.centroids[idx].ch;
        if distance <= self.threshold {
            let centroid_total = self.prepared.gate_totals[idx];
            let total = v.total() as f64;
            if centroid_total > 0.0
                && (total - centroid_total).abs() <= centroid_total * Self::MAGNITUDE_TOLERANCE
            {
                return Classification::Key { ch, distance };
            }
            return Classification::Rejected { nearest: ch, distance };
        }
        Classification::Rejected { nearest: ch, distance }
    }

    /// Classifies a burst of deltas in one pass, appending one
    /// [`Classification`] per probe (in order) to `out`.
    ///
    /// Equivalent to calling [`ClassifierModel::classify`] on each probe —
    /// every probe runs the same `nearest_ordered` scan,
    /// so every result (including reported distances) is bit-identical; a
    /// proptest pins that. The win is structural: probe conversion
    /// (whiten + norm) happens in one data-parallel pass over the burst,
    /// the scans then run back-to-back against cache-warm prepared rows,
    /// and the per-call overhead (telemetry, timestamping, dispatch) is
    /// paid once per burst instead of once per delta.
    ///
    /// `scratch` carries the per-probe search state between calls so the
    /// steady-state streaming path does not allocate.
    pub fn classify_batch(
        &self,
        probes: &[CounterSet],
        scratch: &mut BatchScratch,
        out: &mut Vec<Classification>,
    ) {
        if probes.is_empty() {
            return;
        }
        let started = std::time::Instant::now();
        scratch.states.clear();
        scratch.states.extend(probes.iter().map(|p| {
            let av = whiten(p, &self.weights);
            ProbeState {
                av,
                an: simdlite::sq_norm_fixed(&av).sqrt(),
                best_idx: 0,
                best_d: f64::INFINITY,
            }
        }));
        for st in scratch.states.iter_mut() {
            let (idx, d) = self.nearest_ordered(&st.av, st.an, f64::INFINITY);
            st.best_idx = idx;
            st.best_d = d;
        }
        // One histogram entry per probe at the amortised per-inference cost,
        // so the latency histogram's population matches the per-delta path
        // (Fig 25's claim is per inference, and the batch is one inference
        // pass over `probes.len()` deltas). Every probe lands in the same
        // bucket, so the burst publishes one pre-bucketed record and two
        // counts instead of three map updates per probe.
        let per_probe_ns = started.elapsed().as_nanos() as u64 / probes.len() as u64;
        let mut latency = [0u64; CLASSIFY_LATENCY_EDGES.len() + 1];
        latency[spansight::Hist::bucket_of(CLASSIFY_LATENCY_EDGES, per_probe_ns)] =
            probes.len() as u64;
        let mut accepted = 0u64;
        for (st, probe) in scratch.states.iter().zip(probes) {
            let c = self.gate(st.best_idx, st.best_d, probe);
            accepted += u64::from(c.key().is_some());
            out.push(c);
        }
        spansight::record_bucketed("core.classify.latency_ns", CLASSIFY_LATENCY_EDGES, &latency);
        count_nonzero("core.classify.accepted", accepted);
        count_nonzero("core.classify.rejected", probes.len() as u64 - accepted);
    }

    /// The accept-only probe: `Some((ch, distance))` exactly when
    /// [`ClassifierModel::classify`] would return
    /// `Classification::Key { ch, distance }` (bit-identical distance),
    /// `None` otherwise, and no telemetry.
    ///
    /// Algorithm 1's fallback cascade only ever asks whether a candidate
    /// vector *is accepted*, and nearly all of its candidates are not, so
    /// the probe screens before it searches:
    ///
    /// 1. **Magnitude screen.** A total outside the integer hull
    ///    `[min gate_total·(1−tol), max gate_total·(1+tol)]` (precomputed,
    ///    with slack) fails the magnitude gate against every centroid.
    /// 2. **Norm screen.** Acceptance needs a centroid at rounded distance
    ///    `≤ C_th`, i.e. squared distance below
    ///    `cutoff = (C_th·(1+2⁻⁴⁰))²`. If the norm-gap lower bound rules out
    ///    both norm-order neighbours of the probe against `cutoff`, the
    ///    outward scan could not visit anything either.
    /// 3. **Bounded scan.** `nearest_ordered` starts from `cutoff` instead
    ///    of `∞`. Every centroid that could be accepted lies inside it, so
    ///    when the nearest centroid is within `C_th` the scan returns that
    ///    centroid — same argmin, same index tie-break, same distance.
    /// 4. **Gate.** The unchanged acceptance decision.
    pub fn accepts(&self, v: &CounterSet) -> Option<(char, f64)> {
        match self.probe(v) {
            Probe::Key(ch, distance) => Some((ch, distance)),
            Probe::Screened | Probe::Rejected => None,
        }
    }

    /// [`ClassifierModel::accepts`], reporting which step decided a
    /// non-accept so the cascade can tally screened probes apart from
    /// searched ones.
    pub(crate) fn probe(&self, v: &CounterSet) -> Probe {
        let p = &self.prepared;
        let total = v.total();
        if total < p.gate_hull.0 || total > p.gate_hull.1 {
            return Probe::Screened;
        }
        let av = whiten(v, &self.weights);
        let an = simdlite::sq_norm_fixed(&av).sqrt();
        let bound = self.threshold * (1.0 + SCREEN_REL_SLACK);
        let cutoff = bound * bound;
        let k = p.sorted_norms.partition_point(|&x| x < an);
        let below = k > 0 && !norm_gap_excludes(an, p.sorted_norms[k - 1], cutoff);
        let above = k < p.sorted_norms.len() && !norm_gap_excludes(an, p.sorted_norms[k], cutoff);
        if !below && !above {
            return Probe::Screened;
        }
        let (idx, distance) = self.nearest_ordered(&av, an, cutoff);
        match self.gate(idx, distance, v) {
            Classification::Key { ch, distance } => Probe::Key(ch, distance),
            Classification::Rejected { .. } => Probe::Rejected,
        }
    }

    /// Reference classification built on [`ClassifierModel::nearest_naive`]
    /// and the original by-key magnitude-gate scan, with no telemetry.
    /// The equivalence proptest pins [`ClassifierModel::classify`] to this.
    pub fn classify_naive(&self, v: &CounterSet) -> Classification {
        let (ch, distance) = self.nearest_naive(v);
        if distance <= self.threshold {
            let centroid_total =
                self.centroids.iter().find(|c| c.ch == ch).map(|c| c.values.total()).unwrap_or(0)
                    as f64;
            let total = v.total() as f64;
            if centroid_total > 0.0
                && (total - centroid_total).abs() <= centroid_total * Self::MAGNITUDE_TOLERANCE
            {
                return Classification::Key { ch, distance };
            }
            return Classification::Rejected { nearest: ch, distance };
        }
        Classification::Rejected { nearest: ch, distance }
    }
}

/// Adds `n` to counter `name` unless it is zero, so a burst never creates
/// an empty counter entry.
pub(crate) fn count_nonzero(name: &'static str, n: u64) {
    if n > 0 {
        spansight::count(name, n);
    }
}

/// Errors from decoding a serialised model
/// ([`crate::registry::decode_model`]) or a model store
/// ([`crate::offline::ModelStore::from_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelDecodeError {
    /// The byte slice ended before the encoded model did.
    Truncated,
    /// The leading magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// A field decoded to an out-of-range value.
    BadField(&'static str),
}

impl fmt::Display for ModelDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelDecodeError::Truncated => write!(f, "model bytes truncated"),
            ModelDecodeError::BadMagic => write!(f, "not a GPMR model"),
            ModelDecodeError::BadVersion(v) => write!(f, "unsupported model version {v}"),
            ModelDecodeError::BadField(name) => write!(f, "invalid field: {name}"),
        }
    }
}

impl std::error::Error for ModelDecodeError {}

macro_rules! enum_codes {
    ($to:ident, $from:ident, $ty:ty, [$(($variant:path, $code:expr)),+ $(,)?]) => {
        // `pub(crate)`: the registry's GPMR codec is the one user of these
        // byte codes.
        pub(crate) fn $to(v: $ty) -> u8 {
            match v {
                $($variant => $code),+
            }
        }
        pub(crate) fn $from(code: u8) -> Option<$ty> {
            match code {
                $($code => Some($variant)),+,
                _ => None,
            }
        }
    };
}

enum_codes!(
    phone_code,
    phone_from,
    PhoneModel,
    [
        (PhoneModel::LgV30Plus, 0),
        (PhoneModel::GooglePixel2, 1),
        (PhoneModel::OnePlus7Pro, 2),
        (PhoneModel::OnePlus8Pro, 3),
        (PhoneModel::OnePlus9, 4),
        (PhoneModel::GalaxyS21, 5),
    ]
);
enum_codes!(
    android_code,
    android_from,
    AndroidVersion,
    [
        (AndroidVersion::V8_1, 0),
        (AndroidVersion::V9, 1),
        (AndroidVersion::V10, 2),
        (AndroidVersion::V11, 3),
    ]
);
enum_codes!(
    resolution_code,
    resolution_from,
    Resolution,
    [(Resolution::Fhd, 0), (Resolution::Qhd, 1),]
);
enum_codes!(
    refresh_code,
    refresh_from,
    RefreshRate,
    [(RefreshRate::Hz60, 0), (RefreshRate::Hz120, 1),]
);
enum_codes!(
    keyboard_code,
    keyboard_from,
    KeyboardKind,
    [
        (KeyboardKind::Gboard, 0),
        (KeyboardKind::Swift, 1),
        (KeyboardKind::Sogou, 2),
        (KeyboardKind::GooglePinyin, 3),
        (KeyboardKind::Go, 4),
        (KeyboardKind::Grammarly, 5),
    ]
);
enum_codes!(
    app_code,
    app_from,
    TargetApp,
    [
        (TargetApp::Chase, 0),
        (TargetApp::Amex, 1),
        (TargetApp::Fidelity, 2),
        (TargetApp::Schwab, 3),
        (TargetApp::MyFico, 4),
        (TargetApp::Experian, 5),
        (TargetApp::ChromeChase, 6),
        (TargetApp::ChromeSchwab, 7),
        (TargetApp::ChromeExperian, 8),
        (TargetApp::Pnc, 9),
        (TargetApp::Gedit, 10),
        (TargetApp::GmailWeb, 11),
        (TargetApp::DropboxClient, 12),
    ]
);

#[cfg(test)]
mod tests {
    use super::*;
    use adreno_sim::counters::TrackedCounter;

    fn meta() -> ModelMeta {
        ModelMeta {
            phone: PhoneModel::OnePlus8Pro,
            android: AndroidVersion::V11,
            resolution: Resolution::Fhd,
            refresh: RefreshRate::Hz60,
            keyboard: KeyboardKind::Gboard,
            app: TargetApp::Chase,
        }
    }

    fn set(base: u64, prims: u64) -> CounterSet {
        let mut c = CounterSet::ZERO;
        c[TrackedCounter::Ras8x4Tiles] = base;
        c[TrackedCounter::VpcPcPrimitives] = prims;
        c
    }

    fn model() -> ClassifierModel {
        let centroids = vec![
            KeyCentroid { ch: 'a', values: set(1000, 150) },
            KeyCentroid { ch: 'b', values: set(1040, 160) },
            KeyCentroid { ch: 'c', values: set(980, 170) },
        ];
        let mut weights = [1.0; NUM_TRACKED];
        weights[TrackedCounter::VpcPcPrimitives.index()] = 2.0;
        ClassifierModel::new(
            meta(),
            centroids,
            weights,
            25.0,
            set(900, 140),
            set(5000, 40),
            vec![set(20, 2), set(24, 4)],
            set(9000, 300),
            50_000,
        )
    }

    #[test]
    fn exact_centroid_classifies() {
        let m = model();
        assert_eq!(m.classify(&set(1040, 160)).key(), Some('b'));
    }

    #[test]
    fn near_centroid_within_threshold_classifies() {
        let m = model();
        assert_eq!(m.classify(&set(1005, 151)).key(), Some('a'));
    }

    #[test]
    fn far_vectors_are_rejected_with_nearest_reported() {
        let m = model();
        match m.classify(&set(5000, 40)) {
            Classification::Rejected { nearest, distance } => {
                assert_eq!(nearest, 'b');
                assert!(distance > 25.0);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn nearest_k_ranks_by_distance() {
        let m = model();
        let ranked = m.nearest_k(&set(1000, 150), 3);
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0].0, 'a');
        assert_eq!(ranked[0].1, 0.0);
        assert!(ranked[0].1 <= ranked[1].1 && ranked[1].1 <= ranked[2].1);
        // Truncation works.
        assert_eq!(m.nearest_k(&set(1000, 150), 2).len(), 2);
        assert_eq!(m.nearest_k(&set(1000, 150), 99).len(), 3, "capped at centroid count");
    }

    #[test]
    fn weights_change_the_metric() {
        let m = model();
        // 10 apart in prims (weight 2) is "further" than 15 apart in tiles.
        let d_prims = m.distance(&set(1000, 150), &set(1000, 160));
        let d_tiles = m.distance(&set(1000, 150), &set(1015, 150));
        assert!(d_prims > d_tiles);
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn empty_model_rejected() {
        let _ = ClassifierModel::new(
            meta(),
            vec![],
            [1.0; NUM_TRACKED],
            25.0,
            CounterSet::ZERO,
            CounterSet::ZERO,
            vec![],
            CounterSet::ZERO,
            1,
        );
    }
}
