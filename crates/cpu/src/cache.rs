//! Set-associative cache model with LRU replacement and write-back lines.
//!
//! The model is a *performance* model: it tracks which lines are present
//! and dirty, not their data. Both the private L1 data cache and the
//! private L2 of the paper's Table 5 are instances of this type.

use fqms_sim::snapshot::{SectionReader, SectionWriter, Snapshot, SnapshotError};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Access latency in CPU cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// The paper's L1 D-cache: 32 KB, 4-way, 64-byte lines, 2-cycle.
    pub const fn paper_l1d() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 4,
            line_bytes: 64,
            latency: 2,
        }
    }

    /// The paper's private L2: 512 KB, 8-way, 64-byte lines, 12-cycle.
    pub const fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 512 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 12,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.line_bytes)
    }

    /// Validates the configuration (power-of-two sets and line size,
    /// non-zero everything).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated requirement.
    pub fn validate(&self) -> Result<(), String> {
        if self.size_bytes == 0 || self.ways == 0 || self.line_bytes == 0 {
            return Err("cache dimensions must be non-zero".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line size {} must be a power of two",
                self.line_bytes
            ));
        }
        if !self
            .size_bytes
            .is_multiple_of(self.ways as u64 * self.line_bytes)
        {
            return Err("size must be divisible by ways * line".into());
        }
        if !self.sets().is_power_of_two() {
            return Err(format!("set count {} must be a power of two", self.sets()));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    dirty: bool,
    lru: u64,
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line is present.
    Hit,
    /// The line is absent.
    Miss,
}

/// A set-associative, write-back cache (performance model).
///
/// # Example
///
/// ```
/// use fqms_cpu::cache::{Cache, CacheConfig, Lookup};
///
/// let mut c = Cache::new(CacheConfig::paper_l1d()).unwrap();
/// assert_eq!(c.probe(0x1000, false), Lookup::Miss);
/// c.fill(0x1000, false);
/// assert_eq!(c.probe(0x1000, false), Lookup::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// The line directory, `ways` slots per set: set `s` holds its
    /// `lens[s]` lines in `lines[s * ways..]`, in insertion order with
    /// evictions back-filled from the end of the set.
    lines: Vec<Line>,
    lens: Vec<u32>,
    /// `log2(line_bytes)`: a byte address shifted right by this is its
    /// line index.
    line_shift: u32,
    /// `log2(sets)`: a line index shifted right by this is its tag.
    set_bits: u32,
    /// `sets - 1`: a line index masked by this is its set.
    set_mask: u64,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Errors
    ///
    /// Returns a description if the configuration is invalid.
    pub fn new(config: CacheConfig) -> Result<Self, String> {
        config.validate()?;
        // `validate` guarantees power-of-two line and set counts, so the
        // divisions of set/tag extraction reduce to shifts and a mask.
        let sets = config.sets();
        let empty = Line {
            tag: 0,
            dirty: false,
            lru: 0,
        };
        Ok(Cache {
            config,
            lines: vec![empty; (sets * config.ways as u64) as usize],
            lens: vec![0; sets as usize],
            line_shift: config.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: sets - 1,
            stamp: 0,
            hits: 0,
            misses: 0,
        })
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.set_bits)
    }

    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        ((tag << self.set_bits) | set as u64) << self.line_shift
    }

    /// The resident lines of `set`.
    fn set_lines(&self, set: usize) -> &[Line] {
        let start = set * self.config.ways as usize;
        &self.lines[start..start + self.lens[set] as usize]
    }

    /// One scan of `set`: `Ok(slot)` holding `tag`, else `Err(victim)`,
    /// the slot of the first line with the oldest LRU stamp (meaningful
    /// once the set is full). Slots index `lines`.
    fn scan(&self, set: usize, tag: u64) -> Result<usize, usize> {
        let lines = self.set_lines(set);
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (way, line) in lines.iter().enumerate() {
            if line.tag == tag {
                return Ok(set * self.config.ways as usize + way);
            }
            if line.lru < oldest {
                oldest = line.lru;
                victim = way;
            }
        }
        Err(set * self.config.ways as usize + victim)
    }

    /// Marks a resident line most recently used (and dirty, if `write`).
    fn touch(&mut self, slot: usize, write: bool) {
        let line = &mut self.lines[slot];
        line.lru = self.stamp;
        line.dirty |= write;
    }

    /// Inserts an absent line, evicting the one in slot `victim` if the
    /// set is full; returns the byte address of an evicted dirty line.
    fn insert(&mut self, set: usize, tag: u64, write: bool, victim: usize) -> Option<u64> {
        let ways = self.config.ways as usize;
        let len = self.lens[set] as usize;
        let new = Line {
            tag,
            dirty: write,
            lru: self.stamp,
        };
        if len < ways {
            self.lines[set * ways + len] = new;
            self.lens[set] += 1;
            return None;
        }
        // As `Vec::swap_remove` then `push`: the set's last line moves
        // into the victim's slot and the new line goes last.
        let last = set * ways + ways - 1;
        let v = self.lines[victim];
        self.lines[victim] = self.lines[last];
        self.lines[last] = new;
        v.dirty.then(|| self.line_addr(set, v.tag))
    }

    /// Looks up `addr`; on a hit updates LRU and, if `write`, marks the
    /// line dirty. Does **not** allocate on miss — use [`Cache::fill`].
    pub fn probe(&mut self, addr: u64, write: bool) -> Lookup {
        let (set, tag) = self.index_tag(addr);
        self.stamp += 1;
        match self.scan(set, tag) {
            Ok(slot) => {
                self.touch(slot, write);
                self.hits += 1;
                Lookup::Hit
            }
            Err(_) => {
                self.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Inserts the line containing `addr` (marking it dirty if `write`),
    /// evicting the LRU line of the set if full.
    ///
    /// Returns the *byte address* of an evicted dirty line (a writeback the
    /// caller must propagate), if any.
    pub fn fill(&mut self, addr: u64, write: bool) -> Option<u64> {
        let (set, tag) = self.index_tag(addr);
        self.stamp += 1;
        match self.scan(set, tag) {
            // Already present (e.g. racing fills); just refresh.
            Ok(slot) => {
                self.touch(slot, write);
                None
            }
            Err(victim) => self.insert(set, tag, write, victim),
        }
    }

    /// [`Cache::probe`] followed, on a miss, by [`Cache::fill`], in one
    /// scan of the set. Stamps, counters, the victim and the order of
    /// lines within the set come out exactly as from the two calls; the
    /// second element is what `fill` would return.
    pub fn probe_fill(&mut self, addr: u64, write: bool) -> (Lookup, Option<u64>) {
        let (set, tag) = self.index_tag(addr);
        self.stamp += 1;
        match self.scan(set, tag) {
            Ok(slot) => {
                self.touch(slot, write);
                self.hits += 1;
                (Lookup::Hit, None)
            }
            Err(victim) => {
                self.misses += 1;
                self.stamp += 1;
                (Lookup::Miss, self.insert(set, tag, write, victim))
            }
        }
    }

    /// Accounts `n` [`Cache::probe`]s of an absent line: stamps and
    /// counters advance exactly as those probes would advance them, and no
    /// line is touched.
    pub fn repeat_misses(&mut self, n: u64) {
        self.stamp += n;
        self.misses += n;
    }

    /// `(hits, misses)` counted so far.
    pub fn hit_miss_counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Geometry is configuration (validated against the restore target); the
/// line directory, LRU stamp, and hit/miss counters are state.
impl Snapshot for Cache {
    fn save(&self, w: &mut SectionWriter) {
        w.put_u64(self.config.size_bytes);
        w.put_u32(self.config.ways);
        w.put_u64(self.config.line_bytes);
        w.put_seq_len(self.lens.len());
        for set in 0..self.lens.len() {
            let lines = self.set_lines(set);
            w.put_seq_len(lines.len());
            for line in lines {
                w.put_u64(line.tag);
                w.put_bool(line.dirty);
                w.put_u64(line.lru);
            }
        }
        w.put_u64(self.stamp);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        let size = r.get_u64()?;
        let ways = r.get_u32()?;
        let line_bytes = r.get_u64()?;
        if size != self.config.size_bytes
            || ways != self.config.ways
            || line_bytes != self.config.line_bytes
        {
            return Err(r.malformed(format!(
                "cache geometry {size}B/{ways}-way/{line_bytes}B line != configured \
                 {}B/{}-way/{}B line",
                self.config.size_bytes, self.config.ways, self.config.line_bytes
            )));
        }
        let nsets = r.seq_len()?;
        if nsets != self.lens.len() {
            return Err(r.malformed(format!(
                "snapshot has {nsets} sets, cache has {}",
                self.lens.len()
            )));
        }
        let ways = self.config.ways as usize;
        for set in 0..nsets {
            let n = r.seq_len()?;
            if n > self.config.ways as usize {
                return Err(r.malformed(format!(
                    "{n} lines in a set exceed {}-way associativity",
                    self.config.ways
                )));
            }
            self.lens[set] = n as u32;
            for slot in set * ways..set * ways + n {
                self.lines[slot] = Line {
                    tag: r.get_u64()?,
                    dirty: r.get_bool()?,
                    lru: r.get_u64()?,
                };
            }
        }
        self.stamp = r.get_u64()?;
        self.hits = r.get_u64()?;
        self.misses = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
        .unwrap()
    }

    #[test]
    fn paper_configs_are_valid() {
        CacheConfig::paper_l1d().validate().unwrap();
        CacheConfig::paper_l2().validate().unwrap();
        assert_eq!(CacheConfig::paper_l1d().sets(), 128);
        assert_eq!(CacheConfig::paper_l2().sets(), 1024);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.probe(0, false), Lookup::Miss);
        assert_eq!(c.fill(0, false), None);
        assert_eq!(c.probe(0, false), Lookup::Hit);
        assert_eq!(c.hit_miss_counts(), (1, 1));
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = tiny();
        c.fill(0x40, false);
        assert_eq!(c.probe(0x7F, false), Lookup::Hit);
        assert_eq!(c.probe(0x80, false), Lookup::Miss);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Set 0 holds lines 0 and 2 (line index even -> set 0).
        c.fill(0, false);
        c.fill(2 * 64, false);
        c.probe(0, false); // touch line 0: line 2 is now LRU
        let evicted = c.fill(4 * 64, false);
        assert_eq!(evicted, None); // clean eviction is silent
        assert_eq!(c.probe(0, false), Lookup::Hit);
        assert_eq!(c.probe(2 * 64, false), Lookup::Miss);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(0, true); // dirty
        c.fill(2 * 64, false);
        let evicted = c.fill(4 * 64, false); // evicts line 0 (LRU, dirty)
        assert_eq!(evicted, Some(0));
    }

    #[test]
    fn write_probe_marks_dirty() {
        let mut c = tiny();
        c.fill(0, false);
        c.probe(0, true); // dirty via store hit
        c.fill(2 * 64, false);
        let evicted = c.fill(4 * 64, false);
        assert_eq!(evicted, Some(0));
    }

    #[test]
    fn refill_of_present_line_is_silent() {
        let mut c = tiny();
        c.fill(0, true);
        assert_eq!(c.fill(0, false), None);
        // Dirty bit preserved.
        c.fill(2 * 64, false);
        assert_eq!(c.fill(4 * 64, false), Some(0));
    }

    #[test]
    fn shift_mask_indexing_matches_division() {
        for cfg in [
            CacheConfig::paper_l1d(),
            CacheConfig::paper_l2(),
            *tiny().config(),
        ] {
            let c = Cache::new(cfg).unwrap();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..10_000 {
                x = x.rotate_left(17).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ 0x94D0;
                let line = x / cfg.line_bytes;
                let (set, tag) = c.index_tag(x);
                assert_eq!(set as u64, line % cfg.sets());
                assert_eq!(tag, line / cfg.sets());
                assert_eq!(c.line_addr(set, tag), line * cfg.line_bytes);
            }
        }
    }

    #[test]
    fn probe_fill_fuses_probe_and_fill_on_miss() {
        let mut c = tiny();
        assert_eq!(c.probe_fill(0, true), (Lookup::Miss, None));
        assert_eq!(c.probe_fill(0x3F, false), (Lookup::Hit, None));
        assert_eq!(c.probe_fill(2 * 64, false), (Lookup::Miss, None));
        // Line 0 is dirty and least recently used.
        assert_eq!(c.probe_fill(4 * 64, false), (Lookup::Miss, Some(0)));
        assert_eq!(c.hit_miss_counts(), (1, 3));
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(Cache::new(CacheConfig {
            size_bytes: 100,
            ways: 3,
            line_bytes: 64,
            latency: 1
        })
        .is_err());
    }
}
