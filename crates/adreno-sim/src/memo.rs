//! Render memoization: process-global caches over the deterministic
//! pipeline.
//!
//! [`crate::pipeline::render`] is a pure function of `(DrawList, GpuParams)`
//! — the property the side channel itself exploits — so its outputs can be
//! cached without changing any observable result. The experiment suite
//! re-renders the same lists constantly: every keyboard frame of every
//! trial, and the calibration / field-update signature renders repeated by
//! every `Trainer::train` call. Two cache layers capture that reuse:
//!
//! 1. **Whole-list cache** ([`render_cached`]) — keyed by a 128-bit
//!    fingerprint of the draw-list contents plus the GPU parameters, valued
//!    by the complete [`RenderOutput`] behind an `Arc`.
//! 2. **Per-glyph stroke-stats cache** (used inside `render` itself) —
//!    keyed by `(ch, dest, thickness, occlusion fingerprint, params)`,
//!    valued by the per-stroke pipeline stats. This hits even when whole
//!    lists differ, e.g. the same popup glyph over different backgrounds.
//!
//! Both caches are thread-safe and deterministic: values are pure functions
//! of their keys, so concurrent fills from different threads are benign.
//! [`render_cache_stats`] exposes hit/miss counters;
//! [`reset_render_caches`] drops everything (benchmarks measuring the cold
//! path, and tests).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::model::GpuParams;
use crate::pipeline::{self, OcclusionGrid, RenderOutput, LRZ_TILE};
use crate::scene::{DrawList, Primitive};

/// Entry cap of the whole-list cache; on overflow the cache is dropped
/// wholesale (the working set of the experiment suite is far below this, so
/// eviction is a backstop, not a policy).
const RENDER_CACHE_CAP: usize = 4096;
/// Entry cap of the per-glyph cache (entries are a few hundred bytes).
const GLYPH_CACHE_CAP: usize = 65_536;

/// A 128-bit content fingerprint. Two independently-mixed 64-bit lanes make
/// accidental collisions across the few thousand distinct draw lists the
/// suite produces vanishingly unlikely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    pub(crate) lo: u64,
    pub(crate) hi: u64,
}

/// Incremental two-lane mixer behind [`Fingerprint`]: FNV-1a in one lane,
/// a murmur-style multiply-shift in the other.
#[derive(Debug, Clone)]
pub(crate) struct Mixer {
    lo: u64,
    hi: u64,
}

impl Mixer {
    pub(crate) fn new() -> Self {
        Mixer { lo: 0xcbf2_9ce4_8422_2325, hi: 0x9e37_79b9_7f4a_7c15 }
    }

    pub(crate) fn write(&mut self, v: u64) {
        self.lo = (self.lo ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        let mut h = self.hi ^ v.rotate_left(31);
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        self.hi = h.wrapping_add(self.lo.rotate_left(17));
    }

    pub(crate) fn write_i32(&mut self, v: i32) {
        self.write(v as u32 as u64);
    }

    pub(crate) fn finish(&self) -> Fingerprint {
        Fingerprint { lo: self.lo, hi: self.hi }
    }
}

pub(crate) fn write_params(m: &mut Mixer, params: &GpuParams) {
    m.write_i32(params.supertile_w);
    m.write_i32(params.supertile_h);
    m.write(params.clock_mhz as u64);
    m.write(params.pixels_per_cycle as u64);
    m.write(params.prim_setup_cycles as u64);
}

pub(crate) fn write_prim(m: &mut Mixer, prim: &Primitive) {
    match prim {
        Primitive::Quad { rect, opaque } => {
            m.write(1);
            m.write_i32(rect.x0);
            m.write_i32(rect.y0);
            m.write_i32(rect.x1);
            m.write_i32(rect.y1);
            m.write(u64::from(*opaque));
        }
        Primitive::Glyph { ch, dest, thickness } => {
            m.write(2);
            m.write(*ch as u64);
            m.write_i32(dest.x0);
            m.write_i32(dest.y0);
            m.write_i32(dest.x1);
            m.write_i32(dest.y1);
            m.write_i32(*thickness);
        }
        Primitive::Stroke { seg, dest, thickness } => {
            m.write(3);
            m.write(seg.x0.to_bits() as u64);
            m.write(seg.y0.to_bits() as u64);
            m.write(seg.x1.to_bits() as u64);
            m.write(seg.y1.to_bits() as u64);
            m.write_i32(dest.x0);
            m.write_i32(dest.y0);
            m.write_i32(dest.x1);
            m.write_i32(dest.y1);
            m.write_i32(*thickness);
        }
    }
}

/// Fingerprints everything `render` consumes: the viewport, every
/// primitive of every layer in order, and the GPU parameters. Layer tags
/// are debug metadata the pipeline never reads, so they are excluded.
pub fn fingerprint(draw_list: &DrawList, params: &GpuParams) -> Fingerprint {
    let mut m = Mixer::new();
    m.write_i32(draw_list.width());
    m.write_i32(draw_list.height());
    for layer in draw_list.layers() {
        m.write(0xA5A5_A5A5); // layer boundary marker
        for prim in &layer.prims {
            write_prim(&mut m, prim);
        }
    }
    write_params(&mut m, params);
    m.finish()
}

/// Fingerprints the occlusion state a glyph at `(dest, thickness)` can
/// observe: the `is_occluded` bit of every LRZ cell in the glyph's padded
/// bounding region. Strokes only ever query cells inside their
/// `screen_bounds`, so agreeing on this region implies identical stats.
pub(crate) fn glyph_occlusion_fingerprint(
    bounds: &crate::geom::Rect,
    grid: &OcclusionGrid,
) -> Fingerprint {
    let mut m = Mixer::new();
    if bounds.is_empty() {
        return m.finish();
    }
    // One extra cell of padding on every side absorbs float rounding in the
    // stroke walk.
    let cx0 = bounds.x0.div_euclid(LRZ_TILE) - 1;
    let cx1 = (bounds.x1 - 1).div_euclid(LRZ_TILE) + 1;
    let cy0 = bounds.y0.div_euclid(LRZ_TILE) - 1;
    let cy1 = (bounds.y1 - 1).div_euclid(LRZ_TILE) + 1;
    for cy in cy0..=cy1 {
        let mut row = 0u64;
        for cx in cx0..=cx1 {
            row = (row << 1) | u64::from(grid.is_occluded(cx, cy));
            if (cx - cx0) % 64 == 63 {
                m.write(row);
                row = 0;
            }
        }
        m.write(row);
    }
    m.finish()
}

/// Hit/miss counters of one cache layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction in `0.0..=1.0` (1.0 when the cache was never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

struct RenderCache {
    map: Mutex<HashMap<Fingerprint, Arc<RenderOutput>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

fn render_cache() -> &'static RenderCache {
    static CACHE: OnceLock<RenderCache> = OnceLock::new();
    CACHE.get_or_init(|| RenderCache {
        map: Mutex::new(HashMap::new()),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
    })
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Renders `draw_list`, satisfying the request from the whole-list cache
/// when an identical list was rendered before. Byte-identical to
/// [`pipeline::render`]; strictly faster on repeats.
pub fn render_cached(draw_list: &DrawList, params: &GpuParams) -> Arc<RenderOutput> {
    let fp = fingerprint(draw_list, params);
    let cache = render_cache();
    if let Some(hit) = lock(&cache.map).get(&fp) {
        cache.hits.fetch_add(1, Ordering::Relaxed);
        spansight::count("adreno.memo.render_hits", 1);
        return Arc::clone(hit);
    }
    cache.misses.fetch_add(1, Ordering::Relaxed);
    spansight::count("adreno.memo.render_misses", 1);
    // Render outside the lock: a concurrent miss on the same key computes
    // the same pure value, and the first insert wins.
    let out = Arc::new(pipeline::render(draw_list, params));
    let mut map = lock(&cache.map);
    if map.len() >= RENDER_CACHE_CAP {
        map.clear();
    }
    Arc::clone(map.entry(fp).or_insert(out))
}

/// Probes the whole-list cache for a fingerprint computed by the caller
/// (the incremental renderer derives the identical fingerprint during its
/// layer-diff pass, so it shares this cache without re-hashing the list).
pub(crate) fn render_cache_lookup(fp: Fingerprint) -> Option<Arc<RenderOutput>> {
    let cache = render_cache();
    if let Some(hit) = lock(&cache.map).get(&fp) {
        cache.hits.fetch_add(1, Ordering::Relaxed);
        spansight::count("adreno.memo.render_hits", 1);
        return Some(Arc::clone(hit));
    }
    cache.misses.fetch_add(1, Ordering::Relaxed);
    spansight::count("adreno.memo.render_misses", 1);
    None
}

/// Publishes an output computed outside [`render_cached`] (the incremental
/// renderer) under its whole-list fingerprint, so later submissions of the
/// same list — from any session — hit without rendering.
pub(crate) fn render_cache_insert(fp: Fingerprint, out: Arc<RenderOutput>) {
    let mut map = lock(&render_cache().map);
    if map.len() >= RENDER_CACHE_CAP {
        map.clear();
    }
    map.entry(fp).or_insert(out);
}

/// Whole-list cache hit/miss counters since process start (or the last
/// [`reset_render_caches`]).
pub fn render_cache_stats() -> CacheStats {
    let c = render_cache();
    CacheStats { hits: c.hits.load(Ordering::Relaxed), misses: c.misses.load(Ordering::Relaxed) }
}

/// Per-glyph stroke-stats cache hit/miss counters.
pub fn glyph_cache_stats() -> CacheStats {
    pipeline::glyph_cache_stats()
}

/// Empties every cache layer (whole-list, per-glyph, per-layer) and zeroes
/// their counters.
pub fn reset_render_caches() {
    let c = render_cache();
    lock(&c.map).clear();
    c.hits.store(0, Ordering::Relaxed);
    c.misses.store(0, Ordering::Relaxed);
    pipeline::reset_glyph_cache();
    crate::incremental::reset_layer_cache();
}

pub(crate) struct GlyphCache<V> {
    map: Mutex<HashMap<Fingerprint, Arc<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Telemetry counter names bumped on hit / miss.
    hit_counter: &'static str,
    miss_counter: &'static str,
}

impl<V> GlyphCache<V> {
    pub(crate) fn new() -> Self {
        Self::with_counters("adreno.memo.glyph_hits", "adreno.memo.glyph_misses")
    }

    /// A cache with the same policy but custom telemetry counter names (the
    /// incremental renderer's per-layer cache reuses this machinery).
    pub(crate) fn with_counters(hit_counter: &'static str, miss_counter: &'static str) -> Self {
        GlyphCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            hit_counter,
            miss_counter,
        }
    }

    pub(crate) fn get_or_insert_with(
        &self,
        key: Fingerprint,
        compute: impl FnOnce() -> V,
    ) -> Arc<V> {
        if let Some(hit) = lock(&self.map).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            spansight::count(self.hit_counter, 1);
            return Arc::clone(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        spansight::count(self.miss_counter, 1);
        let value = Arc::new(compute());
        let mut map = lock(&self.map);
        if map.len() >= GLYPH_CACHE_CAP {
            map.clear();
        }
        Arc::clone(map.entry(key).or_insert(value))
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        lock(&self.map).clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// Isolates this crate's unit tests from each other around the
/// process-global render caches: tests that render through them share the
/// lock, a test that resets the caches or reads their global counters holds
/// it alone.
#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    static CACHES: RwLock<()> = RwLock::new(());

    /// For a test that renders through the global caches.
    pub(crate) fn shared() -> RwLockReadGuard<'static, ()> {
        CACHES.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// For a test that resets the global caches or asserts on their counters.
    pub(crate) fn exclusive() -> RwLockWriteGuard<'static, ()> {
        CACHES.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Rect;
    use crate::model::GpuModel;
    use crate::pipeline::render_uncached;

    fn sample_list(glyph: char) -> DrawList {
        let mut dl = DrawList::new(512, 512);
        dl.layer("bg").quad(Rect::from_xywh(0, 0, 512, 512), true);
        dl.layer("popup").glyph(glyph, Rect::from_xywh(100, 100, 90, 110), 8);
        dl
    }

    #[test]
    fn cached_render_matches_uncached() {
        let _caches = test_lock::shared();
        let params = GpuModel::Adreno650.params();
        for ch in ['a', 'w', '#'] {
            let dl = sample_list(ch);
            let cached = render_cached(&dl, &params);
            let fresh = render_uncached(&dl, &params);
            assert_eq!(*cached, fresh);
            // Second lookup is a hit and still identical.
            assert_eq!(*render_cached(&dl, &params), fresh);
        }
    }

    #[test]
    fn fingerprint_separates_lists_params_and_tags() {
        let params = GpuModel::Adreno650.params();
        let a = fingerprint(&sample_list('a'), &params);
        assert_eq!(a, fingerprint(&sample_list('a'), &params));
        assert_ne!(a, fingerprint(&sample_list('b'), &params));
        assert_ne!(a, fingerprint(&sample_list('a'), &GpuModel::Adreno540.params()));

        // Layer tags are render-irrelevant and excluded.
        let mut tagged = DrawList::new(512, 512);
        tagged.layer("renamed").quad(Rect::from_xywh(0, 0, 512, 512), true);
        tagged.layer("other").glyph('a', Rect::from_xywh(100, 100, 90, 110), 8);
        assert_eq!(a, fingerprint(&tagged, &params));
    }

    #[test]
    fn layer_boundaries_are_part_of_the_fingerprint() {
        let params = GpuModel::Adreno650.params();
        // Same prims, different layer split → different occlusion → must
        // not collide.
        let mut merged = DrawList::new(256, 256);
        let layer = merged.layer("one");
        layer.quad(Rect::from_xywh(0, 0, 256, 256), true);
        layer.quad(Rect::from_xywh(10, 10, 50, 50), true);
        let mut split = DrawList::new(256, 256);
        split.layer("a").quad(Rect::from_xywh(0, 0, 256, 256), true);
        split.layer("b").quad(Rect::from_xywh(10, 10, 50, 50), true);
        assert_ne!(fingerprint(&merged, &params), fingerprint(&split, &params));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        // Alone: concurrent renders would move the global counters between
        // the two reads, and the reset would race their cache use.
        let _caches = test_lock::exclusive();
        reset_render_caches();
        let params = GpuModel::Adreno650.params();
        let dl = sample_list('q');
        let before = render_cache_stats();
        let _ = render_cached(&dl, &params);
        let _ = render_cached(&dl, &params);
        let after = render_cache_stats();
        assert_eq!(after.misses - before.misses, 1);
        assert!(after.hits > before.hits);
        assert!(after.hit_rate() > 0.0);
    }

    #[test]
    fn occlusion_fingerprint_sees_region_bits() {
        let mut grid = OcclusionGrid::new(256, 256);
        let bounds = Rect::from_xywh(96, 96, 90, 110);
        let clear = glyph_occlusion_fingerprint(&bounds, &grid);
        grid.add_opaque_rect(&Rect::from_xywh(96, 96, 32, 32)); // inside region
        let covered = glyph_occlusion_fingerprint(&bounds, &grid);
        assert_ne!(clear, covered);

        // Occlusion far outside the region is invisible to the glyph.
        let mut far = OcclusionGrid::new(256, 256);
        far.add_opaque_rect(&Rect::from_xywh(0, 0, 24, 24));
        assert_eq!(clear, glyph_occlusion_fingerprint(&bounds, &far));
    }
}
