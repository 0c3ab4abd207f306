//! Content-addressed compile-artifact cache and the cache-aware module
//! driver used by the `snslpd` compile service.
//!
//! The cache is keyed by *what is being compiled*, not where it came
//! from: a [`CacheKey`] combines the 128-bit stable hash of a function's
//! canonical printed form ([`snslp_ir::stable_function_hash`]) with the
//! 64-bit [`SlpConfig::fingerprint`] of the requested configuration.
//! Resubmitting a module therefore recompiles only functions whose bodies
//! (or config) actually changed — every unchanged function is answered
//! with the previously committed artifact, byte-identical to a cold
//! compile (modulo wall-clock timing, which is zeroed on the cached
//! copy precisely so replays are deterministic).
//!
//! Eviction is LRU over a fixed entry budget. Hit/miss/eviction counts
//! are kept twice, deliberately: process-wide atomics on the cache itself
//! (for the service's report) and the thread-local `snslp-trace` metrics
//! registry counters [`Counter::ArtifactCacheHits`] /
//! [`Counter::ArtifactCacheMisses`] / [`Counter::ArtifactCacheEvictions`]
//! (so per-request metric deltas attribute cache behaviour to the thread
//! that did the lookup).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use snslp_ir::{stable_function_hash, Function, FxHashMap, Module};
use snslp_trace::{bump, Counter};

use crate::config::SlpConfig;
use crate::pass::{run_slp, FunctionReport};

/// Identity of one compile artifact: function content × configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Stable hash of the function's canonical printed form.
    pub body: u128,
    /// [`SlpConfig::fingerprint`] of the configuration it was compiled
    /// under.
    pub config: u64,
}

impl CacheKey {
    /// Key for compiling `f` under `cfg`.
    pub fn new(f: &Function, cfg: &SlpConfig) -> CacheKey {
        CacheKey {
            body: stable_function_hash(f),
            config: cfg.fingerprint(),
        }
    }
}

/// One committed compile: the rewritten function plus its report.
///
/// The stored report's `elapsed` is [`Duration::ZERO`] — cache replays
/// must be deterministic, and the original compile's wall time is not a
/// property of the artifact.
#[derive(Debug, Clone)]
pub struct CachedCompile {
    /// The function after the pass ran (vector IR committed).
    pub function: Function,
    /// The report the pass produced, with timing zeroed.
    pub report: FunctionReport,
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a compile.
    pub misses: u64,
    /// Entries evicted to stay under capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; `None` before the first lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

#[derive(Debug, Default)]
struct CacheInner {
    /// Key → (last-touched tick, artifact).
    map: FxHashMap<CacheKey, (u64, Arc<CachedCompile>)>,
    tick: u64,
}

/// Thread-safe LRU cache of compile artifacts, shared by every worker of
/// the compile service.
///
/// Values are `Arc`-shared so a hit clones a pointer, not a function
/// body; the interior mutex is held only for map operations, never
/// across a compile.
#[derive(Debug)]
pub struct ArtifactCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ArtifactCache {
    /// Creates a cache holding at most `capacity` artifacts (minimum 1).
    pub fn new(capacity: usize) -> ArtifactCache {
        ArtifactCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up an artifact, refreshing its LRU position. Counts a hit or
    /// a miss on both the cache and the calling thread's metrics registry.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedCompile>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some((touched, artifact)) => {
                *touched = tick;
                let artifact = artifact.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                bump(Counter::ArtifactCacheHits);
                Some(artifact)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                bump(Counter::ArtifactCacheMisses);
                None
            }
        }
    }

    /// Records `n` function lookups answered *upstream* of this cache
    /// (e.g. the compile service's whole-request memo, which returns a
    /// rendered reply without ever doing per-function lookups). They
    /// count as hits so that the hit rate keeps meaning "fraction of
    /// function lookups answered without compiling".
    pub fn note_upstream_hits(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.hits.fetch_add(n, Ordering::Relaxed);
        snslp_trace::add(Counter::ArtifactCacheHits, n);
    }

    /// Inserts (or replaces) an artifact, evicting the least-recently
    /// used entries if over capacity.
    pub fn insert(&self, key: CacheKey, artifact: Arc<CachedCompile>) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key, (tick, artifact));
        while inner.map.len() > self.capacity {
            let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, (touched, _))| *touched)
                .map(|(k, _)| *k)
            else {
                break;
            };
            inner.map.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            bump(Counter::ArtifactCacheEvictions);
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
        }
    }
}

/// Cache-aware variant of
/// [`run_slp_module_with_threads`](crate::run_slp_module_with_threads):
/// functions whose `(body, config)` key is cached are answered from the
/// cache; the rest are compiled on the calling thread, in module order,
/// and committed back. Reports come back in module function order.
///
/// Duplicate keys *within* the module (`parse_module` accepts a module
/// that repeats a function) are compiled once and fanned out to every
/// occurrence.
pub fn run_slp_module_cached(
    m: &mut Module,
    cfg: &SlpConfig,
    cache: &ArtifactCache,
) -> Vec<FunctionReport> {
    let config_fp = cfg.fingerprint();
    let keys: Vec<CacheKey> = m
        .functions()
        .iter()
        .map(|f| CacheKey {
            body: stable_function_hash(f),
            config: config_fp,
        })
        .collect();

    let mut slots: Vec<Option<Arc<CachedCompile>>> = keys.iter().map(|k| cache.get(k)).collect();

    // In-module dedupe: compile each missing key once.
    let mut fresh: FxHashMap<CacheKey, Arc<CachedCompile>> = FxHashMap::default();
    for (i, slot) in slots.iter_mut().enumerate() {
        if slot.is_some() {
            continue;
        }
        let artifact = fresh.entry(keys[i]).or_insert_with(|| {
            let mut function = m.functions()[i].clone();
            let mut report = run_slp(&mut function, cfg);
            report.elapsed = Duration::ZERO;
            let artifact = Arc::new(CachedCompile { function, report });
            cache.insert(keys[i], artifact.clone());
            artifact
        });
        *slot = Some(artifact.clone());
    }

    let mut out = Vec::with_capacity(slots.len());
    for (i, slot) in slots.into_iter().enumerate() {
        let artifact = slot.expect("every module function resolves to an artifact");
        m.functions_mut()[i] = artifact.function.clone();
        out.push(artifact.report.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlpMode;
    use snslp_ir::{FunctionBuilder, Param, ScalarType, Type};

    fn sample(name: &str, k: i64) -> Function {
        let mut fb = FunctionBuilder::new(name, vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        for lane in 0..4 {
            let addr = fb.ptradd_const(p, lane * 8);
            let v = fb.load(ScalarType::I64, addr);
            let c = fb.const_i64(k);
            let s = fb.add(v, c);
            fb.store(addr, s);
        }
        fb.ret(None);
        fb.finish()
    }

    fn module(names_ks: &[(&str, i64)]) -> Module {
        let mut m = Module::new("m");
        for &(n, k) in names_ks {
            m.add_function(sample(n, k));
        }
        m
    }

    #[test]
    fn warm_run_is_identical_and_all_hits() {
        let cache = ArtifactCache::new(64);
        let cfg = SlpConfig::new(SlpMode::SnSlp);

        let mut cold = module(&[("a", 1), ("b", 2)]);
        let cold_reports = run_slp_module_cached(&mut cold, &cfg, &cache);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);

        let mut warm = module(&[("a", 1), ("b", 2)]);
        let warm_reports = run_slp_module_cached(&mut warm, &cfg, &cache);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cold.to_string(), warm.to_string());
        for (c, w) in cold_reports.iter().zip(&warm_reports) {
            assert_eq!(c.function, w.function);
            assert_eq!(c.graphs, w.graphs);
            assert_eq!(
                c.remarks.iter().map(|r| r.machine()).collect::<Vec<_>>(),
                w.remarks.iter().map(|r| r.machine()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn body_change_recompiles_only_the_changed_function() {
        let cache = ArtifactCache::new(64);
        let cfg = SlpConfig::new(SlpMode::SnSlp);
        let mut m1 = module(&[("a", 1), ("b", 2)]);
        run_slp_module_cached(&mut m1, &cfg, &cache);

        let mut m2 = module(&[("a", 1), ("b", 3)]);
        run_slp_module_cached(&mut m2, &cfg, &cache);
        let s = cache.stats();
        assert_eq!(s.hits, 1, "unchanged @a should hit");
        assert_eq!(s.misses, 3, "initial two plus changed @b");
    }

    #[test]
    fn config_is_part_of_the_key() {
        let cache = ArtifactCache::new(64);
        let mut m = module(&[("a", 1)]);
        run_slp_module_cached(&mut m, &SlpConfig::new(SlpMode::SnSlp), &cache);
        let mut m = module(&[("a", 1)]);
        run_slp_module_cached(&mut m, &SlpConfig::new(SlpMode::Slp), &cache);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn duplicate_functions_in_one_batch_compile_once() {
        let cache = ArtifactCache::new(64);
        let cfg = SlpConfig::new(SlpMode::SnSlp);
        let mut m = module(&[("a", 1), ("a", 1), ("a", 1)]);
        let reports = run_slp_module_cached(&mut m, &cfg, &cache);
        assert_eq!(reports.len(), 3);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(reports[0].graphs, reports[1].graphs);
        assert_eq!(reports[1].graphs, reports[2].graphs);
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let cache = ArtifactCache::new(2);
        let cfg = SlpConfig::new(SlpMode::SnSlp);
        for (n, k) in [("a", 1), ("b", 2)] {
            let mut m = module(&[(n, k)]);
            run_slp_module_cached(&mut m, &cfg, &cache);
        }
        // Touch @a so @b becomes the LRU entry.
        let mut m = module(&[("a", 1)]);
        run_slp_module_cached(&mut m, &cfg, &cache);
        // Inserting @c must evict @b, not @a.
        let mut m = module(&[("c", 3)]);
        run_slp_module_cached(&mut m, &cfg, &cache);
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        let mut m = module(&[("a", 1)]);
        run_slp_module_cached(&mut m, &cfg, &cache);
        assert_eq!(cache.stats().hits, 2, "@a must still be resident");
    }

    #[test]
    fn cached_reports_have_zeroed_elapsed() {
        let cache = ArtifactCache::new(8);
        let cfg = SlpConfig::new(SlpMode::SnSlp);
        let mut m = module(&[("a", 1)]);
        run_slp_module_cached(&mut m, &cfg, &cache);
        let mut m = module(&[("a", 1)]);
        let reports = run_slp_module_cached(&mut m, &cfg, &cache);
        assert_eq!(reports[0].elapsed, Duration::ZERO);
    }
}
