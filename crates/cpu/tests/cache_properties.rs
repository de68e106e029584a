//! Differential tests for the cache model: the set-associative LRU cache
//! must agree with a naive reference implementation (per-set ordered
//! lists) on hit/miss outcomes and dirty-eviction addresses for random
//! access sequences.
//!
//! Randomness comes from the in-tree deterministic [`fqms_sim::rng::SimRng`]
//! with fixed seeds, so the build stays hermetic (no external `proptest`
//! dependency) and every run explores exactly the same cases.

use fqms_cpu::cache::{Cache, CacheConfig, Lookup};
use fqms_sim::rng::SimRng;
use std::collections::VecDeque;

/// A deliberately simple reference model: per set, an LRU-ordered deque of
/// (tag, dirty) with most-recently-used at the back.
struct RefCache {
    cfg: CacheConfig,
    sets: Vec<VecDeque<(u64, bool)>>,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        RefCache {
            sets: vec![VecDeque::new(); cfg.sets() as usize],
            cfg,
        }
    }

    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.cfg.line_bytes;
        ((line % self.cfg.sets()) as usize, line / self.cfg.sets())
    }

    fn probe(&mut self, addr: u64, write: bool) -> bool {
        let (set, tag) = self.index_tag(addr);
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|&(t, _)| t == tag) {
            let (t, d) = s.remove(pos).unwrap();
            s.push_back((t, d || write));
            true
        } else {
            false
        }
    }

    fn fill(&mut self, addr: u64, write: bool) -> Option<u64> {
        let (set, tag) = self.index_tag(addr);
        let sets_count = self.cfg.sets();
        let line_bytes = self.cfg.line_bytes;
        let ways = self.cfg.ways as usize;
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|&(t, _)| t == tag) {
            let (t, d) = s.remove(pos).unwrap();
            s.push_back((t, d || write));
            return None;
        }
        let mut evicted = None;
        if s.len() >= ways {
            let (vt, vd) = s.pop_front().unwrap();
            if vd {
                evicted = Some((vt * sets_count + set as u64) * line_bytes);
            }
        }
        s.push_back((tag, write));
        evicted
    }
}

/// Random probe/fill sequences produce identical hit/miss outcomes and
/// identical dirty writebacks in both implementations.
#[test]
fn cache_matches_reference_model() {
    for case in 0..64u64 {
        let mut rng = SimRng::new(0xC_AC4E_0000 + case);
        let cfg = CacheConfig {
            size_bytes: 1024, // 4 sets x 4 ways
            ways: 4,
            line_bytes: 64,
            latency: 1,
        };
        let mut cache = Cache::new(cfg).unwrap();
        let mut reference = RefCache::new(cfg);
        let ops = 1 + rng.next_below(400) as usize;
        for i in 0..ops {
            let line = rng.next_below(64);
            let write = rng.chance(0.5);
            let do_fill = rng.chance(0.5);
            let addr = line * 64;
            if do_fill {
                let a = cache.fill(addr, write);
                let b = reference.fill(addr, write);
                assert_eq!(a, b, "fill divergence at case {case} op {i}");
            } else {
                let a = cache.probe(addr, write) == Lookup::Hit;
                let b = reference.probe(addr, write);
                assert_eq!(a, b, "probe divergence at case {case} op {i}");
            }
        }
    }
}

/// Capacity invariant: a footprint that fits is fully resident after one
/// pass, whatever the access order.
#[test]
fn fitting_footprint_is_fully_resident() {
    for case in 0..64u64 {
        let mut rng = SimRng::new(0xF007_0000 + case);
        let cfg = CacheConfig {
            size_bytes: 1024, // holds exactly 16 lines
            ways: 4,
            line_bytes: 64,
            latency: 1,
        };
        let mut cache = Cache::new(cfg).unwrap();
        let extra = 16 + rng.next_below(48) as usize;
        let mut lines: Vec<u64> = (0..extra).map(|_| rng.next_below(16)).collect();
        lines.extend(0..16); // make sure every line appears at least once
        for &l in &lines {
            if cache.probe(l * 64, false) == Lookup::Miss {
                cache.fill(l * 64, false);
            }
        }
        for l in 0..16u64 {
            assert_eq!(
                cache.probe(l * 64, false),
                Lookup::Hit,
                "case {case}: line {l} evicted"
            );
        }
    }
}

/// The geometries the fused and shifted paths are checked on: the paper's
/// L1 and L2 and a tiny cache that evicts constantly.
fn geometries() -> [CacheConfig; 3] {
    [
        CacheConfig::paper_l1d(),
        CacheConfig::paper_l2(),
        CacheConfig {
            size_bytes: 256, // 2 sets x 2 ways
            ways: 2,
            line_bytes: 64,
            latency: 1,
        },
    ]
}

fn state_bytes(cache: &Cache) -> Vec<u8> {
    use fqms_sim::snapshot::{Snapshot, SnapshotWriter};
    let mut w = SnapshotWriter::new(0);
    w.section("cache", |s| cache.save(s));
    w.into_bytes()
}

/// `probe_fill` is `probe` followed, on a miss, by `fill`: same hit/miss,
/// same evicted address, and byte-identical state afterwards (stamps,
/// counters and the order of lines within each set).
#[test]
fn probe_fill_matches_probe_then_fill() {
    for cfg in geometries() {
        let capacity_lines = cfg.size_bytes / cfg.line_bytes;
        for case in 0..16u64 {
            let mut rng = SimRng::new(0xF05E_D000 + case);
            let mut fused = Cache::new(cfg).unwrap();
            let mut split = Cache::new(cfg).unwrap();
            // Up to 4x capacity: hits, clean and dirty evictions all occur.
            let span = capacity_lines * (1 + rng.next_below(4));
            for i in 0..20_000 {
                let addr = rng.next_below(span) * cfg.line_bytes + rng.next_below(cfg.line_bytes);
                let write = rng.chance(0.3);
                if rng.chance(0.1) {
                    // Plain fills too, as the run path issues them.
                    assert_eq!(fused.fill(addr, write), split.fill(addr, write));
                    continue;
                }
                let got = fused.probe_fill(addr, write);
                let hit = split.probe(addr, write);
                let evicted = if hit == Lookup::Miss {
                    split.fill(addr, write)
                } else {
                    None
                };
                assert_eq!(got, (hit, evicted), "{cfg:?} case {case} op {i}");
            }
            assert_eq!(fused.hit_miss_counts(), split.hit_miss_counts());
            assert_eq!(
                state_bytes(&fused),
                state_bytes(&split),
                "{cfg:?} case {case}"
            );
        }
    }
}

/// Shift/mask set and tag extraction agrees with the division oracle of
/// `RefCache` over the whole address space: addresses are built from
/// (tag, set, offset) by the oracle's arithmetic with tags up to the top
/// bit, and both models must agree on every hit, miss and writeback
/// address.
#[test]
fn shift_mask_indexing_matches_division_oracle() {
    for cfg in geometries() {
        let sets = cfg.sets();
        let max_tag = u64::MAX / (sets * cfg.line_bytes);
        for case in 0..16u64 {
            let mut rng = SimRng::new(0x5E7_7A60 + case);
            let mut cache = Cache::new(cfg).unwrap();
            let mut reference = RefCache::new(cfg);
            // A few more tags than ways, spread over the full tag range.
            let tags: Vec<u64> = (0..cfg.ways as u64 + 2)
                .map(|_| rng.next_below(max_tag + 1))
                .collect();
            for i in 0..4_000 {
                let tag = tags[rng.next_below(tags.len() as u64) as usize];
                let set = rng.next_below(sets.min(8));
                let addr = (tag * sets + set) * cfg.line_bytes + rng.next_below(cfg.line_bytes);
                let write = rng.chance(0.5);
                if rng.chance(0.5) {
                    let a = cache.fill(addr, write);
                    let b = reference.fill(addr, write);
                    assert_eq!(a, b, "{cfg:?} case {case} op {i}: fill of {addr:#x}");
                } else {
                    let a = cache.probe(addr, write) == Lookup::Hit;
                    let b = reference.probe(addr, write);
                    assert_eq!(a, b, "{cfg:?} case {case} op {i}: probe of {addr:#x}");
                }
            }
        }
    }
}

/// `repeat_misses(n)` is `n` probes of an absent line: byte-identical
/// state (stamps and counters) whatever the cache holds, and later
/// fills and evictions come out the same.
#[test]
fn repeat_misses_matches_missing_probes() {
    for cfg in geometries() {
        let mut rng = SimRng::new(0x2E9E_A700);
        let mut bulk = Cache::new(cfg).unwrap();
        let mut probed = Cache::new(cfg).unwrap();
        let span = 2 * cfg.size_bytes / cfg.line_bytes;
        for round in 0..200 {
            for _ in 0..50 {
                let addr = rng.next_below(span) * cfg.line_bytes;
                let write = rng.chance(0.3);
                assert_eq!(bulk.probe_fill(addr, write), probed.probe_fill(addr, write));
            }
            // An address beyond the span is never resident.
            let absent = (span + rng.next_below(span)) * cfg.line_bytes;
            let n = rng.next_below(20);
            bulk.repeat_misses(n);
            for _ in 0..n {
                assert_eq!(probed.probe(absent, false), Lookup::Miss);
            }
            assert_eq!(
                state_bytes(&bulk),
                state_bytes(&probed),
                "{cfg:?} round {round}"
            );
        }
    }
}
