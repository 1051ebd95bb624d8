//! Set-associative caches with LRU replacement.
//!
//! The model sits on the timing model's hottest path: every fetch and
//! every load or store accesses a cache. Geometry is a power of two, so a
//! line, its set and its tag come from shifts and masks, and all ways live
//! in one flat set-major array.
//!
//! Consecutive accesses mostly touch the same line (straight-line fetch,
//! walking an array), so the cache remembers where the last accessed line
//! sits and answers a repeat from there. That path is exact: the last
//! accessed line is resident (nothing has been filled since, and `flush`
//! forgets it), and it is already the most recently used way of its set,
//! so stamping it with the new tick changes no later victim choice. It
//! updates `tick`, the way's LRU stamp and the statistics exactly as the
//! set walk would.

use crate::config::CacheConfig;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Line present.
    Hit,
    /// Line fetched from the next level.
    Miss,
}

/// Per-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Way {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// A set-associative cache model (tags only — data lives in the functional
/// memory).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Every way, set-major: set `s` is `ways[s * assoc..(s + 1) * assoc]`.
    ways: Vec<Way>,
    assoc: usize,
    /// `log2(line_bytes)`: address to line number.
    line_shift: u32,
    /// `log2(sets)`: line number to tag.
    set_shift: u32,
    /// `sets - 1`: line number to set index.
    set_mask: u64,
    /// The last accessed line and the index in `ways` of the way holding it.
    last: Option<(u64, usize)>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if sets or line size are not powers of two, or ways is zero.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways > 0, "cache needs at least one way");
        let assoc = config.ways as usize;
        let empty = Way {
            tag: 0,
            valid: false,
            lru: 0,
        };
        Cache {
            config,
            ways: vec![empty; config.sets as usize * assoc],
            assoc,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: config.sets.trailing_zeros(),
            set_mask: config.sets as u64 - 1,
            last: None,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Accesses `addr`, updating LRU state and statistics.
    pub fn access(&mut self, addr: u64) -> Access {
        self.tick += 1;
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        if let Some((last_line, i)) = self.last {
            if last_line == line {
                self.ways[i].lru = self.tick;
                return Access::Hit;
            }
        }
        let base = (line & self.set_mask) as usize * self.assoc;
        let tag = line >> self.set_shift;
        let set = &mut self.ways[base..base + self.assoc];
        let (i, access) = match set.iter().position(|w| w.valid && w.tag == tag) {
            Some(i) => (i, Access::Hit),
            None => {
                self.stats.misses += 1;
                // Fill the invalid or least-recently-used way (the first
                // one on a tie).
                let victim = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| if w.valid { w.lru } else { 0 })
                    .map(|(i, _)| i)
                    .expect("ways > 0");
                set[victim].tag = tag;
                set[victim].valid = true;
                (victim, Access::Miss)
            }
        };
        set[i].lru = self.tick;
        self.last = Some((line, base + i));
        access
    }

    /// Invalidates all lines (keeps statistics).
    pub fn flush(&mut self) {
        for way in &mut self.ways {
            way.valid = false;
        }
        self.last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            sets: 4,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert_eq!(c.access(0x100), Access::Miss);
        assert_eq!(c.access(0x100), Access::Hit);
        assert_eq!(c.access(0x13f), Access::Hit); // same line
        assert_eq!(c.access(0x140), Access::Miss); // next line
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction() {
        let mut c = small();
        // Three lines mapping to the same set (sets=4, line=64 → set stride 256).
        let a = 0x0000;
        let b = 0x0400;
        let d = 0x0800;
        assert_eq!(c.access(a), Access::Miss);
        assert_eq!(c.access(b), Access::Miss);
        assert_eq!(c.access(a), Access::Hit); // a is now MRU
        assert_eq!(c.access(d), Access::Miss); // evicts b
        assert_eq!(c.access(a), Access::Hit);
        assert_eq!(c.access(b), Access::Miss); // b was evicted
    }

    #[test]
    fn working_set_within_capacity_stays_resident() {
        let mut c = Cache::new(CacheConfig::l1_16k());
        let lines = c.config().capacity() / c.config().line_bytes as u64;
        for round in 0..3 {
            for i in 0..lines / 2 {
                let access = c.access(i * 64);
                if round > 0 {
                    assert_eq!(access, Access::Hit, "line {i} round {round}");
                }
            }
        }
    }

    #[test]
    fn streaming_misses() {
        let mut c = Cache::new(CacheConfig::l1_16k());
        let lines = 4 * c.config().capacity() / 64;
        for i in 0..lines {
            c.access(i * 64);
        }
        // Pure streaming: every access a distinct line → all misses.
        assert_eq!(c.stats().misses, c.stats().accesses);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.access(0);
        c.flush();
        assert_eq!(c.access(0), Access::Miss);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig {
            sets: 3,
            ways: 1,
            line_bytes: 64,
            hit_latency: 1,
        });
    }
}
