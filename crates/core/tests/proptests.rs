//! Property-based tests of the attack's invariants.

use adreno_sim::counters::{CounterSet, NUM_TRACKED};
use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::{AndroidVersion, KeyboardKind, PhoneModel, RefreshRate, Resolution, TargetApp};
use gpu_sc_attack::classify::{
    BatchScratch, Classification, ClassifierModel, KeyCentroid, ModelMeta,
};
use gpu_sc_attack::metrics::edit_distance;
use gpu_sc_attack::online::{infer_full_trace, infer_stream, OnlineConfig};
use gpu_sc_attack::sampler::SamplerReport;
use gpu_sc_attack::service::{AttackService, ServiceConfig};
use gpu_sc_attack::trace::{extract_deltas, extract_deltas_with_resets, Delta, Trace};
use gpu_sc_attack::ModelStore;
use proptest::prelude::*;

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

fn arb_set(max: u64) -> impl Strategy<Value = CounterSet> {
    prop::collection::vec(0..max, NUM_TRACKED)
        .prop_map(|v| CounterSet::from_array(v.try_into().unwrap()))
}

/// An arbitrary well-formed model: distinct chars, positive threshold.
fn arb_model() -> impl Strategy<Value = ClassifierModel> {
    arb_model_with(2_000_000)
}

/// [`arb_model`] with centroid counters below `centroid_max`. Small
/// centroids put the magnitude gate's ±8 % band within reach of `C_th`, so
/// probes at its edges can still be accepted on distance.
fn arb_model_with(centroid_max: u64) -> impl Strategy<Value = ClassifierModel> {
    (
        prop::collection::btree_map(
            prop::char::range('a', 'z'),
            arb_set(centroid_max).prop_filter("nonzero centroid", |s| s.total() > 0),
            1..12,
        ),
        0.1f64..200.0,
        arb_set(1_000_000),
        arb_set(60_000),
        prop::collection::vec(arb_set(60_000), 0..6),
        arb_set(3_000_000),
        1u64..2_000_000,
    )
        .prop_map(|(centroids, threshold, kb, app, sigs, launch, switch)| {
            let centroids: Vec<KeyCentroid> =
                centroids.into_iter().map(|(ch, values)| KeyCentroid { ch, values }).collect();
            ClassifierModel::new(
                meta(),
                centroids,
                [1.0; NUM_TRACKED],
                threshold,
                kb,
                app,
                sigs,
                launch,
                switch,
            )
        })
}

fn arb_deltas() -> impl Strategy<Value = Vec<Delta>> {
    prop::collection::vec((0u64..20_000u64, arb_set(500_000)), 0..40).prop_map(|mut v| {
        v.sort_by_key(|(ms, _)| *ms);
        v.into_iter()
            .map(|(ms, values)| Delta { at: SimInstant::from_millis(ms), values })
            .collect()
    })
}

/// One counter-activity window of a generated session.
#[derive(Debug, Clone)]
enum SessionStep {
    /// Arbitrary system activity (may look like an app switch, an ambient
    /// echo, or nothing of interest).
    Noise(CounterSet),
    /// An exact keyboard-redraw fingerprint — recognition commits here.
    KeyboardRedraw,
    /// An exact replay of training centroid `i` (a key press).
    Press(usize),
    /// An exact cold-launch burst of the target app.
    Launch,
}

/// A generated session: steps with the gap (ms) since the previous sample.
fn arb_session() -> impl Strategy<Value = Vec<(SessionStep, u64)>> {
    prop::collection::vec(
        (
            prop_oneof![
                arb_set(400_000).prop_map(SessionStep::Noise),
                Just(SessionStep::KeyboardRedraw),
                (0usize..16).prop_map(SessionStep::Press),
                Just(SessionStep::Launch),
            ],
            1u64..300,
        ),
        0..50,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_serialisation_round_trips(models in prop::collection::vec(arb_model(), 0..4)) {
        let mut store = ModelStore::new();
        for m in models {
            store.add(m);
        }
        let back = ModelStore::from_bytes(store.to_bytes()).unwrap();
        // Each blob is re-served verbatim, so a decoded store re-encodes to
        // the same bytes.
        prop_assert_eq!(back.to_bytes(), store.to_bytes());
        prop_assert_eq!(back.len(), store.len());
    }

    #[test]
    fn exact_centroids_always_classify_correctly(model in arb_model()) {
        for c in model.centroids() {
            // An exact replay of the training delta must classify as that
            // key (degenerate equal-distance centroids may tie).
            let got = model.classify(&c.values).key();
            prop_assert!(got.is_some(), "exact centroid must be accepted");
            let (_, dist) = model.nearest(&c.values);
            prop_assert_eq!(dist, 0.0);
        }
    }

    #[test]
    fn algorithm1_output_is_bounded_and_ordered(
        model in arb_model(),
        deltas in arb_deltas(),
    ) {
        for full in [false, true] {
            let (keys, noise, stats) = if full {
                infer_full_trace(&model, &deltas, OnlineConfig::default())
            } else {
                infer_stream(&model, &deltas, OnlineConfig::default())
            };
            // Every input change is accounted for at most once.
            prop_assert!(keys.len() + noise.len() <= deltas.len());
            prop_assert_eq!(stats.direct + stats.peeled + stats.splits_recovered, keys.len());
            // Inferred presses are time-ordered and spaced by T_l.
            for w in keys.windows(2) {
                prop_assert!(w[0].at <= w[1].at);
                prop_assert!(
                    (w[1].at - w[0].at) >= SimDuration::from_millis(75),
                    "accepted presses must respect the duplication window"
                );
            }
            for w in noise.windows(2) {
                prop_assert!(w[0].at <= w[1].at);
            }
        }
    }

    #[test]
    fn streaming_pipeline_matches_batch_passes(
        model in arb_model(),
        session in arb_session(),
        full_trace in any::<bool>(),
        require_launch in any::<bool>(),
    ) {
        // The tentpole invariant of the stage refactor: driving the stages
        // one sample at a time (process_trace_streaming) must produce the
        // same SessionResult — or the same error — as the whole-trace batch
        // passes (process_trace), for any trace, in both inference modes,
        // with launch gating on or off.
        let kb = *model.kb_signature();
        let launch = *model.launch_signature();
        let presses: Vec<CounterSet> =
            model.centroids().iter().map(|c| c.values).collect();
        let mut store = ModelStore::new();
        store.add(model);

        let mut trace = Trace::new();
        let mut acc = CounterSet::ZERO;
        let mut at = 0u64;
        trace.push(SimInstant::from_millis(at), acc);
        for (step, gap) in session {
            at += gap;
            acc += match step {
                SessionStep::Noise(v) => v,
                SessionStep::KeyboardRedraw => kb,
                SessionStep::Press(i) => presses[i % presses.len()],
                SessionStep::Launch => launch,
            };
            trace.push(SimInstant::from_millis(at), acc);
        }

        let config = ServiceConfig { full_trace, require_launch, ..ServiceConfig::default() };
        let service = AttackService::new(store, config);
        let report = SamplerReport::default();
        let batch = service.process_trace(&trace, &report);
        prop_assert_eq!(service.process_trace_streaming(&trace, &report), batch.clone());
        // Burst pushes (the shape of the live driver's sample bursts) must be
        // indistinguishable from per-sample pushes, whatever the burst
        // boundaries.
        let samples: Vec<_> = trace.iter().collect();
        for chunk in [3usize, 64] {
            let mut session = service.streaming_session();
            for c in samples.chunks(chunk) {
                session.push_samples(c);
            }
            prop_assert_eq!(session.finish(&report), batch.clone());
        }
    }

    #[test]
    fn edit_distance_is_a_metric(
        a in "[a-z0-9]{0,12}",
        b in "[a-z0-9]{0,12}",
        c in "[a-z0-9]{0,12}",
    ) {
        prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        prop_assert_eq!(edit_distance(&a, &a), 0);
        let ab = edit_distance(&a, &b);
        let bc = edit_distance(&b, &c);
        let ac = edit_distance(&a, &c);
        prop_assert!(ac <= ab + bc, "triangle inequality");
        let (la, lb) = (a.chars().count(), b.chars().count());
        prop_assert!(ab >= la.abs_diff(lb));
        prop_assert!(ab <= la.max(lb));
    }

    #[test]
    fn deltas_reconstruct_trace_totals(
        values in prop::collection::vec(arb_set(10_000), 2..20),
        start in 0u64..1_000,
    ) {
        // Build a monotone trace by accumulating arbitrary increments.
        let mut trace = Trace::new();
        let mut acc = CounterSet::ZERO;
        for (i, v) in values.iter().enumerate() {
            acc += *v;
            trace.push(SimInstant::from_millis(start + i as u64 * 8), acc);
        }
        let deltas = extract_deltas(&trace);
        let sum = deltas.iter().fold(CounterSet::ZERO, |s, d| s + d.values);
        let first = trace.sample(0).values;
        let last = trace.sample(trace.len() - 1).values;
        prop_assert_eq!(sum + first, last, "deltas must sum to the end-to-end change");
    }

    #[test]
    fn counter_resets_reanchor_without_fabricating_deltas(
        segments in prop::collection::vec(
            prop::collection::vec(arb_set(10_000), 1..8),
            1..6,
        ),
    ) {
        // Each segment models one GPU power-up span: a first read right after
        // the registers restarted (all zeros), then monotone accumulation.
        // Every increment gets +1 on one counter so each span's final value
        // is nonzero — making every span boundary a *detectable* backward
        // jump for the extractor.
        let mut trace = Trace::new();
        let mut at = 0u64;
        let mut expected_total = CounterSet::ZERO;
        for increments in &segments {
            let mut acc = CounterSet::ZERO;
            trace.push(SimInstant::from_millis(at), acc);
            at += 8;
            for v in increments {
                let mut bump = *v;
                bump[adreno_sim::counters::TrackedCounter::Ras8x4Tiles] += 1;
                acc += bump;
                trace.push(SimInstant::from_millis(at), acc);
                at += 8;
            }
            expected_total += acc;
        }

        let (deltas, resets) = extract_deltas_with_resets(&trace);
        // Exactly the span boundaries are reported as resets...
        prop_assert_eq!(resets, segments.len() - 1);
        // ...and the surviving deltas are exactly the within-span activity:
        // nothing from a reset window leaks through, nothing real is lost.
        let sum = deltas.iter().fold(CounterSet::ZERO, |s, d| s + d.values);
        prop_assert_eq!(sum, expected_total, "re-anchoring must keep all within-span activity");
        for d in &deltas {
            prop_assert!(!d.values.is_zero(), "idle windows are never emitted");
        }
        // The plain extractor is the same function minus the reset count.
        prop_assert_eq!(extract_deltas(&trace), deltas);
    }

    #[test]
    fn pruned_classification_matches_naive(
        model in arb_model(),
        probes in prop::collection::vec(arb_set(2_500_000), 1..40),
    ) {
        // The hot-path invariant of the prepared-centroid rewrite: the
        // pruned nearest-centroid search (early exit on the running squared
        // sum) must return the exact same Classification as the naive
        // full-distance scan — same accept/reject, same `nearest` char and
        // bit-identical `distance`, including on rejects.
        for v in &probes {
            let naive = model.classify_naive(v);
            let pruned = model.classify(v);
            prop_assert_eq!(pruned, naive);
            let (nn_ch, nn_d) = model.nearest_naive(v);
            let (pr_ch, pr_d) = model.nearest(v);
            prop_assert_eq!(pr_ch, nn_ch);
            prop_assert_eq!(pr_d.to_bits(), nn_d.to_bits(), "distance must be bit-identical");
        }
    }

    #[test]
    fn accept_probe_matches_naive_key_payload(
        model in arb_model(),
        compact in arb_model_with(300),
        jitters in prop::collection::vec(prop::collection::vec(-40i64..40, NUM_TRACKED), 1..6),
        raw in prop::collection::vec(arb_set(2_500_000), 0..8),
    ) {
        // The accept probe skips work the full classification does (the
        // magnitude hull, the norm screen, the bounded scan), so it must
        // return `Some((ch, distance))` exactly when the naive oracle says
        // `Key { ch, distance }` — distance bit-identical — and `None`
        // otherwise. Probes sit on every screen's edge.
        let offset = |c: &CounterSet, d: &[i64]| {
            let mut out = *c.as_array();
            for (o, &x) in out.iter_mut().zip(d) {
                *o = o.saturating_add_signed(x);
            }
            CounterSet::from_array(out)
        };
        for model in [&model, &compact] {
            let th = model.threshold();
            let mut probes = raw.clone();
            for c in model.centroids() {
                probes.push(c.values);
                // Jittered centroids.
                for j in &jitters {
                    probes.push(offset(&c.values, j));
                }
                // A popup frame sharing a read window with a field redraw.
                for sig in model.ambient_signatures() {
                    probes.push(c.values + *sig);
                }
                // Totals one either side of the magnitude gate's edges,
                // spread over every counter so the distance stays small.
                let t = c.values.total() as f64;
                let tol = ClassifierModel::MAGNITUDE_TOLERANCE;
                for edge in [t * (1.0 - tol), t * (1.0 + tol)] {
                    for target in [edge.floor() - 1.0, edge.round(), edge.ceil() + 1.0] {
                        let diff = target as i64 - t as i64;
                        let n = NUM_TRACKED as i64;
                        let (base, rem) = (diff / n, diff % n);
                        let spread: Vec<i64> = (0..n)
                            .map(|i| base + i64::from(i < rem.abs()) * rem.signum())
                            .collect();
                        probes.push(offset(&c.values, &spread));
                    }
                }
                // Along one counter, distance is the exact integer offset:
                // floor(C_th) lands inside, floor(C_th) + 1 just outside.
                let inside = th.floor() as i64;
                for (axis, sign) in [(0, 1), (NUM_TRACKED - 1, -1)] {
                    for k in [inside, inside + 1] {
                        let mut d = vec![0i64; NUM_TRACKED];
                        d[axis] = sign * k;
                        probes.push(offset(&c.values, &d));
                    }
                }
                // Along a jitter direction, the last multiple inside C_th and
                // the first outside.
                for j in &jitters {
                    let norm = j.iter().map(|&x| (x * x) as f64).sum::<f64>().sqrt();
                    if norm == 0.0 {
                        continue;
                    }
                    let k_in = (th / norm).floor() as i64;
                    for k in [k_in, k_in + 1] {
                        let d: Vec<i64> = j.iter().map(|&x| x * k).collect();
                        probes.push(offset(&c.values, &d));
                    }
                }
            }
            let mut accepted = 0;
            for v in &probes {
                let want = match model.classify_naive(v) {
                    Classification::Key { ch, distance } => Some((ch, distance.to_bits())),
                    Classification::Rejected { .. } => None,
                };
                let got = model.accepts(v).map(|(ch, d)| (ch, d.to_bits()));
                prop_assert_eq!(got, want, "probe {:?}", v);
                accepted += usize::from(got.is_some());
            }
            // Exact centroids are accepted, so the property is never vacuous.
            prop_assert!(accepted > 0);
        }
    }

    #[test]
    fn simd_kernels_match_scalar_reference_bitwise(
        a in prop::collection::vec(0u64..3_000_000, 0..24),
        b in prop::collection::vec(0u64..3_000_000, 0..24),
        w in prop::collection::vec(1u64..64, 0..24),
    ) {
        // The vendored kernels promise an exact summation order (lane j
        // accumulates elements j, j+4, …; reduction tree (l0+l1)+(l2+l3)).
        // Pin them, bit for bit, against a plain scalar spelling of that
        // order — for every length, including ragged tails — and pin the
        // pruned variant's completion to the full kernel.
        let n = a.len().min(b.len()).min(w.len());
        let a: Vec<f64> = a[..n].iter().map(|&v| v as f64).collect();
        let b: Vec<f64> = b[..n].iter().map(|&v| v as f64).collect();
        let w: Vec<f64> = w[..n].iter().map(|&v| 1.0 / v as f64).collect();

        let mut lanes = [0.0f64; simdlite::LANES];
        for i in 0..n {
            let d = (a[i] - b[i]) * w[i];
            lanes[i % simdlite::LANES] += d * d;
        }
        let reference = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);

        let full = simdlite::weighted_sq_dist(&a, &b, &w);
        prop_assert_eq!(full.to_bits(), reference.to_bits(), "chunked ≡ scalar, len {}", n);
        let completed = simdlite::weighted_sq_dist_pruned(&a, &b, &w, f64::INFINITY)
            .expect("infinite cutoff never prunes");
        prop_assert_eq!(completed.to_bits(), full.to_bits(), "pruned completion ≡ full scan");
        // Pruning decisions are consistent with the full sum: at or above
        // the cutoff the scan aborts, below it the scan completes exactly.
        prop_assert_eq!(simdlite::weighted_sq_dist_pruned(&a, &b, &w, full), None);
        prop_assert_eq!(
            simdlite::weighted_sq_dist_pruned(&a, &b, &w, full + 1.0).map(f64::to_bits),
            Some(full.to_bits())
        );
    }

    #[test]
    fn batch_classification_matches_per_delta(
        model in arb_model(),
        probes in prop::collection::vec(arb_set(2_500_000), 0..40),
    ) {
        // The batched entry point must be a pure amortisation: one
        // row-outer traversal per burst, but per probe the same candidate
        // order, the same pruning cutoff, and therefore the same
        // Classification — bit-identical distances included.
        let dist_bits = |c: &Classification| match c {
            Classification::Key { distance, .. } => distance.to_bits(),
            Classification::Rejected { distance, .. } => distance.to_bits(),
        };
        let mut scratch = BatchScratch::default();
        let mut batched = Vec::new();
        model.classify_batch(&probes, &mut scratch, &mut batched);
        prop_assert_eq!(batched.len(), probes.len());
        for (v, got) in probes.iter().zip(&batched) {
            let single = model.classify(v);
            prop_assert_eq!(dist_bits(got), dist_bits(&single), "distance must be bit-identical");
            prop_assert_eq!(*got, single);
        }
        // Scratch reuse across bursts must not leak state between calls.
        let mut again = Vec::new();
        model.classify_batch(&probes, &mut scratch, &mut again);
        prop_assert_eq!(again, batched);
    }

    #[test]
    fn burst_inference_matches_per_change_pushes(
        model in arb_model(),
        deltas in arb_deltas(),
        chunk in 1usize..9,
        lookahead in any::<bool>(),
    ) {
        // Feeding Algorithm 1 whole bursts (as the streaming driver does)
        // must replay the per-change push sequence exactly: same
        // events in the same order, same stats, for any burst boundaries,
        // in both greedy and lookahead modes.
        use gpu_sc_attack::online::InferStage;
        use gpu_sc_attack::stage::Stage;
        let mk = || if lookahead {
            InferStage::lookahead(&model, OnlineConfig::default())
        } else {
            InferStage::greedy(&model, OnlineConfig::default())
        };

        let mut single = mk();
        let mut single_out = Vec::new();
        for d in &deltas {
            single.push(*d, &mut single_out);
        }
        single.finish(&mut single_out);

        let mut burst = mk();
        let mut burst_out = Vec::new();
        for c in deltas.chunks(chunk) {
            burst.push_burst(c, &mut burst_out);
        }
        burst.finish(&mut burst_out);

        prop_assert_eq!(burst_out, single_out);
        prop_assert_eq!(burst.stats(), single.stats());
    }

    #[test]
    fn soa_trace_matches_aos_reference(
        values in prop::collection::vec(arb_set(50_000), 0..40),
        start in 0u64..1_000,
    ) {
        // The columnar Trace must behave exactly like the old
        // array-of-samples form: same per-index views, same iteration
        // order, and batch delta extraction identical to pushing every
        // sample through the streaming DeltaStage (the AoS reference
        // implementation).
        use gpu_sc_attack::stage::Stage;
        use gpu_sc_attack::trace::{DeltaStage, Sample};

        // Non-monotone accumulation: flip between adding and resetting so
        // reset windows are exercised too.
        let mut aos: Vec<Sample> = Vec::with_capacity(values.len());
        let mut acc = CounterSet::ZERO;
        for (i, v) in values.iter().enumerate() {
            if i % 7 == 3 {
                acc = *v; // register reset: restart from an arbitrary point
            } else {
                acc += *v;
            }
            aos.push(Sample { at: SimInstant::from_millis(start + i as u64 * 8), values: acc });
        }
        let trace: Trace = aos.iter().copied().collect();

        prop_assert_eq!(trace.len(), aos.len());
        prop_assert_eq!(trace.is_empty(), aos.is_empty());
        for (i, s) in aos.iter().enumerate() {
            prop_assert_eq!(trace.at(i), s.at);
            prop_assert_eq!(trace.sample(i), *s);
        }
        let iterated: Vec<Sample> = trace.iter().collect();
        prop_assert_eq!(&iterated, &aos);
        let ts: Vec<_> = aos.iter().map(|s| s.at).collect();
        prop_assert_eq!(trace.timestamps(), &ts[..]);
        for c in adreno_sim::counters::ALL_TRACKED {
            let col: Vec<u64> = aos.iter().map(|s| s.values[c]).collect();
            prop_assert_eq!(trace.column(c), &col[..]);
        }

        // Columnar batch extraction ≡ streaming AoS extraction.
        let mut stage = DeltaStage::new();
        let mut streamed = Vec::new();
        for s in &aos {
            stage.push(*s, &mut streamed);
        }
        stage.finish(&mut streamed);
        let (batch, resets) = extract_deltas_with_resets(&trace);
        prop_assert_eq!(batch, streamed);
        prop_assert_eq!(resets, stage.resets());
    }
}
