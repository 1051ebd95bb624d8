//! Property-based tests on the micro-architectural models: cache
//! invariants, predictor sanity, and remote-memory accounting.
//!
//! Uses the in-repo `marshal-qcheck` harness (offline build environment);
//! every case derives from a fixed seed and replays deterministically.

use marshal_qcheck::cases;
use marshal_sim_rtl::bpred::{
    build_predictor, BimodalPredictor, DirectionPredictor, GsharePredictor, TagePredictor,
};
use marshal_sim_rtl::cache::{Access, Cache, CacheStats};
use marshal_sim_rtl::config::{BpredConfig, CacheConfig};
use marshal_sim_rtl::pfa::{RemoteMemory, RemoteMode, RemoteTimings};

/// Misses never exceed accesses; stats count every access.
#[test]
fn cache_miss_bounds() {
    cases(128, |rng| {
        let addrs: Vec<u64> = (0..rng.range_usize(1, 200))
            .map(|_| rng.range_u64(0, 1_000_000))
            .collect();
        let mut c = Cache::new(CacheConfig::l1_16k());
        for a in &addrs {
            c.access(*a);
        }
        let s = c.stats();
        assert!(s.misses <= s.accesses);
        assert_eq!(s.accesses, addrs.len() as u64);
    });
}

/// A working set that fits entirely in the cache reaches steady-state
/// all-hits.
#[test]
fn cache_small_working_set_hits() {
    cases(64, |rng| {
        let lines = rng.range_u64(1, 32);
        let mut c = Cache::new(CacheConfig::l1_16k());
        let addrs: Vec<u64> = (0..lines).map(|i| i * 64).collect();
        for a in &addrs {
            c.access(*a);
        }
        for a in &addrs {
            assert_eq!(c.access(*a), Access::Hit);
        }
    });
}

/// Caches are deterministic: the same trace gives the same stats.
#[test]
fn cache_deterministic() {
    cases(64, |rng| {
        let addrs: Vec<u64> = (0..rng.range_usize(1, 100))
            .map(|_| rng.any_u64())
            .collect();
        let run = || {
            let mut c = Cache::new(CacheConfig::l1_16k());
            for a in &addrs {
                c.access(*a);
            }
            c.stats()
        };
        assert_eq!(run(), run());
    });
}

/// The set-associative LRU cache written the plain way: runtime divisions
/// and one `Vec` per set. [`Cache`] must behave exactly like it.
struct ReferenceCache {
    line_bytes: u64,
    sets: Vec<Vec<RefWay>>,
    tick: u64,
    stats: CacheStats,
}

#[derive(Clone)]
struct RefWay {
    tag: u64,
    valid: bool,
    lru: u64,
}

impl ReferenceCache {
    fn new(config: CacheConfig) -> ReferenceCache {
        let way = RefWay {
            tag: 0,
            valid: false,
            lru: 0,
        };
        ReferenceCache {
            line_bytes: config.line_bytes as u64,
            sets: vec![vec![way; config.ways as usize]; config.sets as usize],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, addr: u64) -> Access {
        self.tick += 1;
        self.stats.accesses += 1;
        let line = addr / self.line_bytes;
        let nsets = self.sets.len() as u64;
        let set = &mut self.sets[(line % nsets) as usize];
        let tag = line / nsets;
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = self.tick;
            return Access::Hit;
        }
        self.stats.misses += 1;
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru } else { 0 })
            .expect("ways > 0");
        *victim = RefWay {
            tag,
            valid: true,
            lru: self.tick,
        };
        Access::Miss
    }

    fn flush(&mut self) {
        for way in self.sets.iter_mut().flatten() {
            way.valid = false;
        }
    }
}

/// The flat, shift-indexed cache with its same-line path returns the same
/// hit or miss as the reference model on every access, and ends with the
/// same statistics. Traces stress what the fast paths could get wrong:
/// long runs within one line, lines that conflict for one set, and
/// flushes in between.
#[test]
fn cache_matches_reference_model() {
    cases(256, |rng| {
        let config = CacheConfig {
            sets: 1 << rng.range_u64(0, 6),
            ways: rng.range_u64(1, 6) as u32,
            line_bytes: 1 << rng.range_u64(0, 8),
            hit_latency: 1,
        };
        let line = config.line_bytes as u64;
        let set_stride = line * config.sets as u64;
        let mut cache = Cache::new(config);
        let mut reference = ReferenceCache::new(config);
        let mut addr = rng.range_u64(0, 1 << 20);
        for i in 0..rng.range_usize(1, 400) {
            match rng.below(20) {
                0 => {
                    cache.flush();
                    reference.flush();
                    continue;
                }
                // Same line again.
                1..=8 => addr = addr / line * line + rng.below(line),
                // Another line of the same set.
                9..=14 => addr = addr % set_stride + rng.below(8) * set_stride,
                // A nearby line.
                15..=17 => addr += line,
                _ => addr = rng.range_u64(0, 1 << 20),
            }
            assert_eq!(
                cache.access(addr),
                reference.access(addr),
                "{config:?}: access {i} to {addr:#x}"
            );
        }
        assert_eq!(cache.stats(), reference.stats, "{config:?}");
    });
}

/// Every predictor predicts deterministically and trains without
/// panicking on arbitrary traces.
#[test]
fn predictors_total_and_deterministic() {
    cases(64, |rng| {
        let trace: Vec<(u64, bool)> = (0..rng.range_usize(1, 300))
            .map(|_| (rng.range_u64(0, 1024), rng.bool()))
            .collect();
        for cfg in [
            BpredConfig::AlwaysTaken,
            BpredConfig::NeverTaken,
            BpredConfig::Bimodal { table_bits: 8 },
            BpredConfig::default_gshare(),
            BpredConfig::default_tage(),
        ] {
            let run = |trace: &[(u64, bool)]| {
                let mut p = build_predictor(&cfg);
                let mut predictions = Vec::new();
                for (pc, taken) in trace {
                    predictions.push(p.predict(pc * 4));
                    p.update(pc * 4, *taken);
                }
                predictions
            };
            assert_eq!(run(&trace), run(&trace), "{cfg:?}");
        }
    });
}

/// On a perfectly biased branch every adaptive predictor converges to
/// at least 90% accuracy.
#[test]
fn adaptive_predictors_learn_bias() {
    cases(64, |rng| {
        let taken = rng.bool();
        let pc = rng.range_u64(0, 4096);
        let mut predictors: Vec<Box<dyn DirectionPredictor>> = vec![
            Box::new(BimodalPredictor::new(10)),
            Box::new(GsharePredictor::new(12, 12)),
            Box::new(TagePredictor::new(4, 10, 4, 64)),
        ];
        for p in &mut predictors {
            let mut correct = 0;
            for _ in 0..200 {
                if p.predict(pc * 4) == taken {
                    correct += 1;
                }
                p.update(pc * 4, taken);
            }
            assert!(correct >= 180, "{} got {correct}/200", p.name());
        }
    });
}

/// Remote memory: fault count equals the number of distinct pages
/// touched, independent of access order or repetition.
#[test]
fn remote_faults_count_unique_pages() {
    cases(64, |rng| {
        let offsets: Vec<u64> = (0..rng.range_usize(1, 300))
            .map(|_| rng.range_u64(0, 64 * 4096))
            .collect();
        let mode = if rng.bool() {
            RemoteMode::Pfa
        } else {
            RemoteMode::SoftwarePaging
        };
        let mut m = RemoteMemory::new(mode, RemoteTimings::default(), 4096);
        let mut unique = std::collections::BTreeSet::new();
        for off in &offsets {
            m.access(*off);
            unique.insert(off / 4096);
        }
        assert_eq!(m.stats().faults, unique.len() as u64);
        assert_eq!(m.resident_pages(), unique.len());
    });
}

/// The PFA's critical path is never longer than software paging for
/// the same trace.
#[test]
fn pfa_never_slower() {
    cases(64, |rng| {
        let offsets: Vec<u64> = (0..rng.range_usize(1, 200))
            .map(|_| rng.range_u64(0, 256 * 4096))
            .collect();
        let t = RemoteTimings::default();
        let mut sw = RemoteMemory::new(RemoteMode::SoftwarePaging, t, 4096);
        let mut hw = RemoteMemory::new(RemoteMode::Pfa, t, 4096);
        let sw_total: u64 = offsets.iter().map(|o| sw.access(*o)).sum();
        let hw_total: u64 = offsets.iter().map(|o| hw.access(*o)).sum();
        assert!(hw_total <= sw_total);
    });
}
