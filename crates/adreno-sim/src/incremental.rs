//! Incremental frame-delta rendering: layer-granularity reuse between
//! consecutive frames of one surface.
//!
//! The UI simulation submits nearly-identical draw lists frame after frame —
//! a keyboard frame differs from its predecessor by one key popup, an
//! animated login frame by one decoration layer. The full pipeline
//! ([`crate::pipeline::render`]) reprocesses every primitive whenever the
//! whole-list memo misses; a [`FrameRenderer`] instead diffs the new
//! [`DrawList`] against the previous frame and recomputes only what changed:
//!
//! * **Layer fingerprints** — every layer gets a 128-bit content fingerprint
//!   (the `memo::Mixer` idiom) plus an *occlusion-above*
//!   fingerprint over the opaque quads of all higher layers.
//! * **Mask reuse** — a layer whose occlusion-above fingerprint is unchanged
//!   keeps its previous occlusion-mask `Arc` untouched; only layers at or
//!   below the topmost changed occluder are re-masked, top-down, exactly as
//!   the full renderer's pass 1 builds them.
//! * **Stats reuse** — a layer whose content fingerprint is unchanged *and*
//!   whose visible occlusion-region bits (the
//!   `memo::glyph_occlusion_fingerprint` over the layer's bounds)
//!   are unchanged reuses its cached per-prim stats `Arc`. Dirty layers go
//!   through a process-global per-layer stats cache keyed by
//!   `(content, region bits, params, viewport)`, so a layer recurring in any
//!   session is computed once per process.
//! * **Bit-identical assembly** — the merged per-prim stream, in submission
//!   order, is folded through the same
//!   `pipeline::fold_prim_stream` the full renderer uses, so
//!   totals, cycles and checkpoints are bit-identical to
//!   [`crate::pipeline::render_uncached`] (pinned by the frame-sequence
//!   proptests in `tests/incremental_proptests.rs`).
//!
//! A renderer also interoperates with the whole-list memo: the whole-frame
//! fingerprint it derives during the diff pass equals
//! [`crate::memo::fingerprint`], so identical frames — including frames
//! first rendered by *another* session — are served from the global cache
//! without touching a single primitive, and every incremental result is
//! published back into it.
//!
//! [`RendererSet`] keys renderers by viewport so one GPU timeline with
//! interleaved surfaces (keyboard window, app window, status bar) diffs each
//! surface against its own previous frame; submissions beyond the stream cap
//! fall back to [`crate::memo::render_cached`].

use std::sync::{Arc, OnceLock};

use crate::geom::Rect;
use crate::memo::{self, Fingerprint, Mixer};
use crate::model::GpuParams;
use crate::pipeline::{self, OcclusionGrid, PrimStats, RenderOutput};
use crate::scene::{DrawList, Primitive};

/// Streams (distinct viewports) one [`RendererSet`] tracks before falling
/// back to the whole-list cache. Simulations use a handful of surface sizes.
const MAX_STREAMS: usize = 8;

/// Entry cap of the process-global per-layer stats cache.
fn layer_cache() -> &'static memo::GlyphCache<Vec<PrimStats>> {
    static CACHE: OnceLock<memo::GlyphCache<Vec<PrimStats>>> = OnceLock::new();
    CACHE.get_or_init(|| {
        memo::GlyphCache::with_counters(
            "adreno.incremental.layer_hits",
            "adreno.incremental.layer_misses",
        )
    })
}

/// Per-layer stats cache hit/miss counters.
pub fn layer_cache_stats() -> memo::CacheStats {
    layer_cache().stats()
}

pub(crate) fn reset_layer_cache() {
    layer_cache().reset()
}

/// Counters of one renderer's (or one renderer set's) reuse behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Frames submitted through the incremental path.
    pub frames: u64,
    /// Frames served without any per-layer work (previous-frame or
    /// whole-list cache hit).
    pub identical_frames: u64,
    /// Layers whose cached per-prim stats were reused as-is.
    pub layers_reused: u64,
    /// Layers recomputed (content or visible occlusion region changed).
    pub layers_dirty: u64,
    /// Per-prim stats actually recomputed (layer-cache misses only).
    pub prims_recomputed: u64,
    /// Occlusion-mask snapshots reused from the previous frame.
    pub mask_reuse: u64,
    /// Submissions routed to the plain whole-list cache (stream cap hit).
    pub fallback_frames: u64,
}

impl IncrementalStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &IncrementalStats) {
        self.frames += other.frames;
        self.identical_frames += other.identical_frames;
        self.layers_reused += other.layers_reused;
        self.layers_dirty += other.layers_dirty;
        self.prims_recomputed += other.prims_recomputed;
        self.mask_reuse += other.mask_reuse;
        self.fallback_frames += other.fallback_frames;
    }
}

/// Per-layer fingerprints of the frame being rendered.
#[derive(Debug)]
struct LayerFp {
    /// Fingerprint of the layer's primitive stream.
    content: Fingerprint,
    /// Fingerprint of the opaque quads of every layer above, top-down.
    occ_above: Fingerprint,
    /// Union of the layer's primitive bounds in screen space.
    bounds: Rect,
    has_opaque: bool,
}

/// One retained layer of the previous frame.
#[derive(Debug)]
struct Slot {
    content_fp: Fingerprint,
    occ_above_fp: Fingerprint,
    bounds: Rect,
    mask: Arc<OcclusionGrid>,
    /// Occlusion bits of `mask` inside `bounds`, computed lazily the first
    /// time a content-identical layer needs the comparison.
    region_fp: Option<Fingerprint>,
    stats: Arc<Vec<PrimStats>>,
}

/// The previous frame's retained state.
#[derive(Debug)]
struct PrevFrame {
    width: i32,
    height: i32,
    params_fp: Fingerprint,
    whole_fp: Fingerprint,
    output: Arc<RenderOutput>,
    slots: Vec<Slot>,
}

/// A persistent renderer for one surface: diffs each submitted [`DrawList`]
/// against the previous frame at layer granularity and recomputes only dirty
/// layers. Output is bit-identical to [`crate::pipeline::render_uncached`].
///
/// # Examples
///
/// ```
/// use adreno_sim::geom::Rect;
/// use adreno_sim::incremental::FrameRenderer;
/// use adreno_sim::model::GpuModel;
/// use adreno_sim::pipeline::render_uncached;
/// use adreno_sim::scene::DrawList;
///
/// let params = GpuModel::Adreno650.params();
/// let mut r = FrameRenderer::new();
/// let mut dl = DrawList::new(256, 256);
/// dl.layer("bg").quad(Rect::from_xywh(0, 0, 256, 256), true);
/// let a = r.render(&dl, &params);
/// dl.layer("popup").glyph('w', Rect::from_xywh(40, 40, 90, 110), 8);
/// let b = r.render(&dl, &params); // only the popup layer is computed
/// assert_eq!(*a, render_uncached(&a_list(), &params));
/// # fn a_list() -> DrawList {
/// #     let mut dl = DrawList::new(256, 256);
/// #     dl.layer("bg").quad(Rect::from_xywh(0, 0, 256, 256), true);
/// #     dl
/// # }
/// assert_eq!(*b, render_uncached(&dl, &params));
/// ```
#[derive(Debug, Default)]
pub struct FrameRenderer {
    prev: Option<PrevFrame>,
    stats: IncrementalStats,
    /// Reusable per-frame scratch, high-water-marked so steady-state frames
    /// do not allocate for fingerprinting or mask bookkeeping.
    fp_scratch: Vec<LayerFp>,
    mask_scratch: Vec<Arc<OcclusionGrid>>,
    slots_spare: Vec<Slot>,
}

impl FrameRenderer {
    /// Creates a renderer with no previous frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reuse counters accumulated by this renderer.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Renders `draw_list`, reusing layer results from the previous frame
    /// where fingerprints prove them unchanged. A viewport or parameter
    /// change (a non-sequential submission) simply renders every layer dirty
    /// through the per-layer cache; correctness never depends on the diff.
    pub fn render(&mut self, draw_list: &DrawList, params: &GpuParams) -> Arc<RenderOutput> {
        self.stats.frames += 1;
        spansight::count("adreno.incremental.frames", 1);
        let _span = spansight::span("adreno", "render.incremental");
        let (w, h) = (draw_list.width(), draw_list.height());
        let layers = draw_list.layers();

        let mut pm = Mixer::new();
        memo::write_params(&mut pm, params);
        let params_fp = pm.finish();

        // Fingerprint pass: per-layer content fingerprints and bounds, plus
        // the whole-list fingerprint (identical to `memo::fingerprint`, so
        // the global whole-list cache can be probed without re-hashing).
        let base_fp = Mixer::new().finish();
        self.fp_scratch.clear();
        let mut whole = Mixer::new();
        whole.write_i32(w);
        whole.write_i32(h);
        for layer in layers {
            whole.write(0xA5A5_A5A5);
            let mut cm = Mixer::new();
            let mut bounds = Rect::EMPTY;
            let mut has_opaque = false;
            for prim in &layer.prims {
                memo::write_prim(&mut whole, prim);
                memo::write_prim(&mut cm, prim);
                bounds = bounds.union(&prim.bounds());
                if let Primitive::Quad { rect, opaque: true } = prim {
                    if !rect.is_empty() {
                        has_opaque = true;
                    }
                }
            }
            self.fp_scratch.push(LayerFp {
                content: cm.finish(),
                occ_above: base_fp,
                bounds,
                has_opaque,
            });
        }
        memo::write_params(&mut whole, params);
        let whole_fp = whole.finish();
        debug_assert_eq!(whole_fp, memo::fingerprint(draw_list, params));

        // Occlusion-above fingerprints, top-down: layer i's value hashes the
        // opaque quads of layers i+1.. in submission order. Layer boundaries
        // are irrelevant here — masks depend only on the rect stream.
        {
            let mut om = Mixer::new();
            for i in (0..self.fp_scratch.len()).rev() {
                self.fp_scratch[i].occ_above = om.finish();
                if self.fp_scratch[i].has_opaque {
                    for prim in &layers[i].prims {
                        if let Primitive::Quad { rect, opaque: true } = prim {
                            if !rect.is_empty() {
                                om.write_i32(rect.x0);
                                om.write_i32(rect.y0);
                                om.write_i32(rect.x1);
                                om.write_i32(rect.y1);
                            }
                        }
                    }
                }
            }
        }

        // Identical to the previous frame: nothing to do at all.
        if let Some(prev) = &self.prev {
            if prev.whole_fp == whole_fp {
                self.stats.identical_frames += 1;
                spansight::count("adreno.incremental.identical_frames", 1);
                return Arc::clone(&prev.output);
            }
        }
        // Identical to *some* frame rendered before, by any session: serve
        // from the global whole-list cache. The diff baseline stays at the
        // last locally-diffed frame, which is only a reuse heuristic.
        if let Some(hit) = memo::render_cache_lookup(whole_fp) {
            self.stats.identical_frames += 1;
            spansight::count("adreno.incremental.identical_frames", 1);
            return hit;
        }

        let sequential = self
            .prev
            .as_ref()
            .is_some_and(|p| p.width == w && p.height == h && p.params_fp == params_fp);
        let n = layers.len();
        let Self { prev, fp_scratch, mask_scratch, slots_spare, stats } = self;
        let fps = &fp_scratch[..];
        let prev_slots: &mut [Slot] = match (sequential, prev.as_mut()) {
            (true, Some(p)) => &mut p.slots,
            _ => &mut [],
        };

        // Occlusion pass: rebuild masks top-down, reusing the previous
        // frame's snapshot `Arc` for every layer whose occlusion-above
        // fingerprint is unchanged. Only layers at or below the topmost
        // changed occluder accumulate a fresh grid, and — like the full
        // renderer's pass 1 — a layer adding no opaque content shares its
        // upper neighbour's snapshot instead of cloning it.
        let pass1 = spansight::span("adreno", "render.occlusion_pass");
        mask_scratch.clear();
        {
            let mut cur: Option<Arc<OcclusionGrid>> = None;
            for i in (0..n).rev() {
                let reusable =
                    prev_slots.get(i).is_some_and(|s| s.occ_above_fp == fps[i].occ_above);
                let mask_i = if reusable {
                    stats.mask_reuse += 1;
                    spansight::count("adreno.incremental.mask_reuse", 1);
                    Arc::clone(&prev_slots[i].mask)
                } else if let Some(above) = &cur {
                    if fps[i + 1].has_opaque {
                        let mut g = (**above).clone();
                        for prim in &layers[i + 1].prims {
                            if let Primitive::Quad { rect, opaque: true } = prim {
                                if !rect.is_empty() {
                                    g.add_opaque_rect(rect);
                                }
                            }
                        }
                        Arc::new(g)
                    } else {
                        Arc::clone(above)
                    }
                } else {
                    Arc::new(OcclusionGrid::new(w, h))
                };
                mask_scratch.push(Arc::clone(&mask_i));
                cur = Some(mask_i);
            }
            mask_scratch.reverse();
        }
        drop(pass1);

        // Prim pass: reuse stats for layers whose content and visible
        // occlusion-region bits are unchanged; everything else recomputes
        // through the process-global per-layer cache.
        let pass2 = spansight::span("adreno", "render.prim_pass");
        let mut new_slots = std::mem::take(slots_spare);
        let mut recomputed = 0u64;
        for (i, fp) in fps.iter().enumerate() {
            let mask_i = &mask_scratch[i];
            let mut reused: Option<(Arc<Vec<PrimStats>>, Option<Fingerprint>)> = None;
            let mut fresh_region: Option<Fingerprint> = None;
            if let Some(ps) = prev_slots.get_mut(i) {
                if ps.content_fp == fp.content {
                    if Arc::ptr_eq(&ps.mask, mask_i) {
                        // Same mask snapshot → same region bits, trivially.
                        reused = Some((Arc::clone(&ps.stats), ps.region_fp));
                    } else {
                        let new_fp = memo::glyph_occlusion_fingerprint(&fp.bounds, mask_i);
                        fresh_region = Some(new_fp);
                        let prev_fp = *ps.region_fp.get_or_insert_with(|| {
                            memo::glyph_occlusion_fingerprint(&ps.bounds, &ps.mask)
                        });
                        if new_fp == prev_fp {
                            reused = Some((Arc::clone(&ps.stats), Some(new_fp)));
                        }
                    }
                }
            }
            let slot = match reused {
                Some((stats_arc, region_fp)) => {
                    stats.layers_reused += 1;
                    spansight::count("adreno.incremental.layers_reused", 1);
                    Slot {
                        content_fp: fp.content,
                        occ_above_fp: fp.occ_above,
                        bounds: fp.bounds,
                        mask: Arc::clone(mask_i),
                        region_fp,
                        stats: stats_arc,
                    }
                }
                None => {
                    stats.layers_dirty += 1;
                    spansight::count("adreno.incremental.layers_dirty", 1);
                    let region = fresh_region
                        .unwrap_or_else(|| memo::glyph_occlusion_fingerprint(&fp.bounds, mask_i));
                    let mut km = Mixer::new();
                    km.write(fp.content.lo);
                    km.write(fp.content.hi);
                    km.write(region.lo);
                    km.write(region.hi);
                    km.write(params_fp.lo);
                    km.write(params_fp.hi);
                    km.write_i32(w);
                    km.write_i32(h);
                    let stats_arc = layer_cache().get_or_insert_with(km.finish(), || {
                        let s = pipeline::layer_stats(&layers[i], mask_i, params);
                        recomputed += s.len() as u64;
                        s
                    });
                    Slot {
                        content_fp: fp.content,
                        occ_above_fp: fp.occ_above,
                        bounds: fp.bounds,
                        mask: Arc::clone(mask_i),
                        region_fp: Some(region),
                        stats: stats_arc,
                    }
                }
            };
            new_slots.push(slot);
        }
        drop(pass2);
        stats.prims_recomputed += recomputed;
        if recomputed > 0 {
            spansight::count("adreno.incremental.prims_recomputed", recomputed);
        }

        // Assemble the merged per-prim stream in submission order through
        // the same fold the full renderer uses — bit-identical output.
        let total_prims: usize = new_slots.iter().map(|s| s.stats.len()).sum();
        let output = Arc::new(pipeline::fold_prim_stream(
            new_slots.iter().flat_map(|s| s.stats.iter().copied()),
            total_prims,
        ));
        memo::render_cache_insert(whole_fp, Arc::clone(&output));
        let old = prev.replace(PrevFrame {
            width: w,
            height: h,
            params_fp,
            whole_fp,
            output: Arc::clone(&output),
            slots: new_slots,
        });
        if let Some(mut o) = old {
            o.slots.clear();
            *slots_spare = o.slots;
        }
        output
    }
}

/// A small set of [`FrameRenderer`]s keyed by viewport, so one GPU timeline
/// carrying interleaved surfaces (keyboard window, full-screen windows,
/// status bar) diffs each surface against its own previous frame.
/// Submissions beyond `MAX_STREAMS` (8) distinct viewports fall back to
/// the plain whole-list cache.
#[derive(Debug, Default)]
pub struct RendererSet {
    streams: Vec<((i32, i32), FrameRenderer)>,
    fallback_frames: u64,
}

impl RendererSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders through the stream for `draw_list`'s viewport, creating it on
    /// first use.
    pub fn render(&mut self, draw_list: &DrawList, params: &GpuParams) -> Arc<RenderOutput> {
        let key = (draw_list.width(), draw_list.height());
        if let Some(idx) = self.streams.iter().position(|(k, _)| *k == key) {
            return self.streams[idx].1.render(draw_list, params);
        }
        if self.streams.len() < MAX_STREAMS {
            self.streams.push((key, FrameRenderer::new()));
            let (_, renderer) = self.streams.last_mut().expect("just pushed");
            return renderer.render(draw_list, params);
        }
        self.fallback_frames += 1;
        spansight::count("adreno.incremental.fallback_frames", 1);
        memo::render_cached(draw_list, params)
    }

    /// Reuse counters summed over every stream, plus fallback submissions.
    pub fn stats(&self) -> IncrementalStats {
        let mut total =
            IncrementalStats { fallback_frames: self.fallback_frames, ..Default::default() };
        for (_, r) in &self.streams {
            total.merge(&r.stats);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GpuModel;
    use crate::pipeline::render_uncached;

    fn params() -> GpuParams {
        GpuModel::Adreno650.params()
    }

    /// `vw` must be unique per test: the whole-list cache is process-global,
    /// and a cache hit on another test's identical frame would bypass the
    /// diff machinery under assertion here.
    fn keyboard_frame(vw: i32, popup: Option<char>, field_len: i32) -> DrawList {
        let mut dl = DrawList::new(vw, 512);
        dl.layer("bg").quad(Rect::from_xywh(0, 0, vw, 512), true);
        let field = dl.layer("field");
        field.quad(Rect::from_xywh(20, 20, 400, 40), true);
        for i in 0..field_len {
            field.quad(Rect::from_xywh(24 + i * 12, 28, 8, 24), false);
        }
        let keys = dl.layer("keys");
        for i in 0..10 {
            keys.quad(Rect::from_xywh(i * 50, 300, 46, 60), true);
            keys.glyph((b'a' + i as u8) as char, Rect::from_xywh(i * 50 + 8, 308, 30, 44), 4);
        }
        if let Some(ch) = popup {
            dl.layer("popup").quad(Rect::from_xywh(200, 180, 90, 110), true);
            dl.layer("popup-glyph").glyph(ch, Rect::from_xywh(205, 185, 80, 100), 8);
        }
        dl
    }

    #[test]
    fn frame_sequence_matches_uncached() {
        let _caches = crate::memo::test_lock::shared();
        let params = params();
        let mut r = FrameRenderer::new();
        let frames = [
            keyboard_frame(512, None, 0),
            keyboard_frame(512, Some('w'), 0),
            keyboard_frame(512, Some('w'), 1), // popup held, cursor advances
            keyboard_frame(512, None, 1),
            keyboard_frame(512, Some('x'), 1),
            keyboard_frame(512, Some('x'), 1), // identical repeat
            keyboard_frame(512, None, 2),
            keyboard_frame(512, None, 0), // back to the first frame
        ];
        for dl in &frames {
            assert_eq!(*r.render(dl, &params), render_uncached(dl, &params));
        }
        let s = r.stats();
        assert_eq!(s.frames, frames.len() as u64);
        assert!(s.identical_frames >= 2, "repeat + revisit must shortcut: {s:?}");
        assert!(s.layers_reused > 0, "static layers must be reused: {s:?}");
        // The popup-held transition changes no opaque content: all five
        // masks carry over.
        assert!(s.mask_reuse >= 5, "unchanged upper masks must be reused: {s:?}");
    }

    #[test]
    fn non_occluding_change_reuses_every_other_layer() {
        let _caches = crate::memo::test_lock::shared();
        let params = params();
        let mut r = FrameRenderer::new();
        let mut base = keyboard_frame(520, None, 0);
        base.layer("anim").quad(Rect::from_xywh(100, 100, 200, 200), false);
        let _ = r.render(&base, &params);
        let mut next = keyboard_frame(520, None, 0);
        next.layer("anim").quad(Rect::from_xywh(104, 100, 200, 200), false);
        let before = r.stats();
        assert_eq!(*r.render(&next, &params), render_uncached(&next, &params));
        let d = r.stats();
        // A translucent layer's movement occludes nothing: every mask is
        // reused and only the animated layer recomputes.
        assert_eq!(d.mask_reuse - before.mask_reuse, 4);
        assert_eq!(d.layers_dirty - before.layers_dirty, 1);
        assert_eq!(d.layers_reused - before.layers_reused, 3);
    }

    #[test]
    fn occluder_change_remasks_only_below() {
        let _caches = crate::memo::test_lock::shared();
        let params = params();
        let mut r = FrameRenderer::new();
        let _ = r.render(&keyboard_frame(528, Some('w'), 0), &params);
        let before = r.stats();
        // Moving the opaque popup re-masks layers below it; the popup glyph
        // layer above keeps its mask.
        let mut moved = keyboard_frame(528, None, 0);
        moved.layer("popup").quad(Rect::from_xywh(240, 180, 90, 110), true);
        moved.layer("popup-glyph").glyph('w', Rect::from_xywh(245, 185, 80, 100), 8);
        assert_eq!(*r.render(&moved, &params), render_uncached(&moved, &params));
        let d = r.stats();
        assert_eq!(d.mask_reuse - before.mask_reuse, 2, "popup + glyph masks unchanged");
    }

    #[test]
    fn identical_frame_returns_previous_output_arc() {
        let _caches = crate::memo::test_lock::shared();
        let params = params();
        let mut r = FrameRenderer::new();
        let dl = keyboard_frame(536, Some('q'), 3);
        let a = r.render(&dl, &params);
        let b = r.render(&dl, &params);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn viewport_change_is_handled_as_non_sequential() {
        let _caches = crate::memo::test_lock::shared();
        let params = params();
        let mut r = FrameRenderer::new();
        let _ = r.render(&keyboard_frame(544, None, 0), &params);
        let mut small = DrawList::new(128, 128);
        small.layer("bg").quad(Rect::from_xywh(0, 0, 128, 128), true);
        assert_eq!(*r.render(&small, &params), render_uncached(&small, &params));
        // And diffing resumes against the new frame.
        let mut small2 = small.clone();
        small2.layer("dot").quad(Rect::from_xywh(10, 10, 8, 8), false);
        assert_eq!(*r.render(&small2, &params), render_uncached(&small2, &params));
    }

    #[test]
    fn empty_draw_list_renders_to_zero() {
        let _caches = crate::memo::test_lock::shared();
        let params = params();
        let mut r = FrameRenderer::new();
        let dl = DrawList::new(64, 64);
        let out = r.render(&dl, &params);
        assert!(out.totals.is_zero());
        assert_eq!(out.total_cycles, 0);
        assert!(out.checkpoints.is_empty());
    }

    #[test]
    fn layer_insert_and_delete_stay_identical() {
        let _caches = crate::memo::test_lock::shared();
        let params = params();
        let mut r = FrameRenderer::new();
        // Grow and shrink the layer stack; positional slot alignment shifts
        // but fingerprints keep the output exact.
        for n in [1usize, 3, 2, 5, 1, 4] {
            let mut dl = DrawList::new(300, 300);
            for i in 0..n {
                let layer = dl.layer("stack");
                layer.quad(Rect::from_xywh(10 * i as i32, 10 * i as i32, 120, 120), i % 2 == 0);
                layer.glyph('k', Rect::from_xywh(150, 10 + 30 * i as i32, 24, 28), 4);
            }
            assert_eq!(*r.render(&dl, &params), render_uncached(&dl, &params));
        }
    }

    #[test]
    fn renderer_set_keys_streams_by_viewport_and_falls_back() {
        let _caches = crate::memo::test_lock::shared();
        let params = params();
        let mut set = RendererSet::new();
        // Interleave two viewports: each keeps its own diff stream.
        for round in 0..3 {
            for (w, h) in [(256, 256), (512, 384)] {
                let mut dl = DrawList::new(w, h);
                dl.layer("bg").quad(Rect::from_xywh(0, 0, w, h), true);
                dl.layer("blob").quad(Rect::from_xywh(10, 10 + round, 50, 50), false);
                assert_eq!(*set.render(&dl, &params), render_uncached(&dl, &params));
            }
        }
        assert!(set.stats().layers_reused > 0, "streams must reuse across interleaving");
        // Exhaust the stream cap: extra viewports still render correctly.
        for i in 0..(MAX_STREAMS as i32 + 3) {
            let mut dl = DrawList::new(600 + i, 100);
            dl.layer("bg").quad(Rect::from_xywh(0, 0, 600 + i, 100), true);
            assert_eq!(*set.render(&dl, &params), render_uncached(&dl, &params));
        }
        assert!(set.stats().fallback_frames > 0, "cap overflow must fall back");
    }
}
