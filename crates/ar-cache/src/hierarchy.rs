//! The two-level coherent cache hierarchy.

use crate::array::CacheArray;
use ar_types::config::{CacheConfig, MAX_CORES};
use ar_types::hash::FastHashMap;
use ar_types::json::{Json, JsonError};
use ar_types::Addr;

/// The kind of access performed by a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
    /// An atomic read-modify-write (costs a write plus an extra coherence
    /// round trip; used by the baseline `atomic += ` kernels).
    Atomic,
}

impl AccessKind {
    /// Returns true if the access needs exclusive ownership of the block.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Atomic)
    }
}

/// Which level of the hierarchy served the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Served by the core's private L1.
    L1,
    /// Served by the shared S-NUCA L2.
    L2,
}

/// The outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Level that served the access; `None` means main memory must be accessed.
    pub hit: Option<HitLevel>,
    /// The S-NUCA L2 bank the block maps to (also the directory home).
    pub l2_bank: usize,
    /// Number of remote L1 copies invalidated by this access.
    pub invalidations: u32,
    /// Number of dirty blocks evicted to main memory by this access.
    pub writebacks: u32,
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total L1 accesses.
    pub l1_accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// Total L2 accesses (i.e. L1 misses).
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Coherence invalidation messages sent to L1s.
    pub invalidations: u64,
    /// Dirty blocks written back to memory.
    pub writebacks: u64,
    /// Back-invalidations performed on behalf of offloaded updates.
    pub back_invalidations: u64,
}

impl CacheStats {
    /// L1 miss ratio in `[0, 1]`.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            1.0 - self.l1_hits as f64 / self.l1_accesses as f64
        }
    }

    /// L2 miss ratio in `[0, 1]`.
    pub fn l2_miss_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            1.0 - self.l2_hits as f64 / self.l2_accesses as f64
        }
    }
}

/// Directory entry: which cores hold the block in their L1. A fixed
/// bitmask covers machines up to [`MAX_CORES`] cores (the weak-scaling
/// configuration has 160) without a heap allocation per entry.
#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    sharers: [u64; MAX_CORES / 64],
}

impl DirEntry {
    fn add(&mut self, core: usize) {
        self.sharers[core / 64] |= 1 << (core % 64);
    }
    fn remove(&mut self, core: usize) {
        self.sharers[core / 64] &= !(1 << (core % 64));
    }
    fn contains(&self, core: usize) -> bool {
        self.sharers[core / 64] & (1 << (core % 64)) != 0
    }
    fn count(&self) -> u32 {
        self.sharers.iter().map(|w| w.count_ones()).sum()
    }
    /// Iterates the set core indices in ascending order, without allocating.
    fn iter(&self) -> impl Iterator<Item = usize> {
        self.sharers.into_iter().enumerate().flat_map(|(word, mut bits)| {
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(word * 64 + bit)
            })
        })
    }
}

/// The coherent two-level cache hierarchy shared by all cores.
#[derive(Debug)]
pub struct CacheHierarchy {
    l1: Vec<CacheArray>,
    l2: Vec<CacheArray>,
    directory: FastHashMap<u64, DirEntry>,
    cfg: CacheConfig,
    stats: CacheStats,
}

impl CacheHierarchy {
    /// Builds the hierarchy for `cores` cores with the given configuration.
    pub fn new(cores: usize, cfg: &CacheConfig) -> Self {
        assert!(cores <= MAX_CORES, "the directory sharer mask supports at most {MAX_CORES} cores");
        let bank_bytes = (cfg.l2_bytes / cfg.l2_banks).max(cfg.block_bytes * cfg.l2_ways);
        CacheHierarchy {
            l1: (0..cores)
                .map(|_| CacheArray::new(cfg.l1_bytes, cfg.l1_ways, cfg.block_bytes))
                .collect(),
            l2: (0..cfg.l2_banks)
                .map(|_| CacheArray::new(bank_bytes, cfg.l2_ways, cfg.block_bytes))
                .collect(),
            directory: FastHashMap::default(),
            cfg: cfg.clone(),
            stats: CacheStats::default(),
        }
    }

    /// The S-NUCA bank (and directory home) of an address.
    pub fn l2_bank_of(&self, addr: Addr) -> usize {
        (addr.block_index() % self.l2.len() as u64) as usize
    }

    /// Configuration this hierarchy was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Performs an access by `core` to `addr` and returns what happened.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, addr: Addr, kind: AccessKind) -> AccessResult {
        let addr = addr.block_aligned();
        let block = addr.block_index();
        let l2_bank = self.l2_bank_of(addr);
        let mut invalidations = 0u32;
        let mut writebacks = 0u32;

        self.stats.l1_accesses += 1;
        let l1_hit = self.l1[core].access(addr, kind.is_write());

        if l1_hit {
            // On a write hit we may still need to invalidate other sharers
            // (upgrade from Shared to Modified).
            if kind.is_write() {
                invalidations += self.invalidate_other_sharers(core, addr);
            }
            self.stats.l1_hits += 1;
            self.stats.invalidations += u64::from(invalidations);
            return AccessResult { hit: Some(HitLevel::L1), l2_bank, invalidations, writebacks };
        }

        // L1 miss: go to the home L2 bank / directory.
        self.stats.l2_accesses += 1;
        let l2_hit = self.l2[l2_bank].access(addr, kind.is_write());
        if kind.is_write() {
            invalidations += self.invalidate_other_sharers(core, addr);
        }

        // Install in L1 (inclusive hierarchy).
        if let Some(victim) = self.l1[core].insert(addr, kind.is_write()) {
            // The victim's data lives in L2 (inclusive); propagate dirtiness.
            if victim.dirty {
                let vbank = self.l2_bank_of(victim.addr);
                self.l2[vbank].mark_dirty(victim.addr);
            }
            if let Some(e) = self.directory.get_mut(&victim.addr.block_index()) {
                e.remove(core);
            }
        }
        self.directory.entry(block).or_default().add(core);

        if l2_hit {
            self.stats.l2_hits += 1;
            self.stats.invalidations += u64::from(invalidations);
            return AccessResult { hit: Some(HitLevel::L2), l2_bank, invalidations, writebacks };
        }

        // L2 miss: install in the bank; a dirty victim goes back to memory and
        // its L1 copies are back-invalidated (inclusivity).
        if let Some(victim) = self.l2[l2_bank].insert(addr, kind.is_write()) {
            let mut victim_dirty = victim.dirty;
            if let Some(entry) = self.directory.remove(&victim.addr.block_index()) {
                for sharer in entry.iter() {
                    if sharer < self.l1.len() {
                        if let Some(line) = self.l1[sharer].invalidate(victim.addr) {
                            victim_dirty |= line.dirty;
                        }
                        invalidations += 1;
                    }
                }
            }
            if victim_dirty {
                writebacks += 1;
            }
        }

        self.stats.invalidations += u64::from(invalidations);
        self.stats.writebacks += u64::from(writebacks);
        AccessResult { hit: None, l2_bank, invalidations, writebacks }
    }

    fn invalidate_other_sharers(&mut self, core: usize, addr: Addr) -> u32 {
        let block = addr.block_index();
        let Some(entry) = self.directory.get_mut(&block) else { return 0 };
        let mut others = *entry;
        others.remove(core);
        let count = others.count();
        if count > 0 {
            // Only the writer's own copy survives.
            let keep = entry.contains(core);
            *entry = DirEntry::default();
            if keep {
                entry.add(core);
            }
            for s in others.iter() {
                if s < self.l1.len() {
                    self.l1[s].invalidate(addr);
                }
            }
        }
        count
    }

    /// Removes a block from every cache (L1s and L2) — the back-invalidation
    /// performed before an address is offloaded for Active-Routing processing
    /// (Section 3.4.2). Returns the number of copies that were found, and
    /// whether any of them was dirty (in which case the caller must write the
    /// block back to memory before offloading).
    pub fn back_invalidate(&mut self, addr: Addr) -> (u32, bool) {
        let addr = addr.block_aligned();
        let mut copies = 0u32;
        let mut dirty = false;
        if let Some(entry) = self.directory.remove(&addr.block_index()) {
            for sharer in entry.iter() {
                if sharer < self.l1.len() {
                    if let Some(line) = self.l1[sharer].invalidate(addr) {
                        copies += 1;
                        dirty |= line.dirty;
                    }
                }
            }
        }
        let bank = self.l2_bank_of(addr);
        if let Some(line) = self.l2[bank].invalidate(addr) {
            copies += 1;
            dirty |= line.dirty;
        }
        if copies > 0 {
            self.stats.back_invalidations += 1;
        }
        (copies, dirty)
    }

    /// Returns true if any cache currently holds the block.
    pub fn is_cached(&self, addr: Addr) -> bool {
        let addr = addr.block_aligned();
        let bank = self.l2_bank_of(addr);
        self.l2[bank].probe(addr) || self.l1.iter().any(|l1| l1.probe(addr))
    }

    /// Number of cores this hierarchy serves.
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// Serializes the hierarchy's dynamic state: all tag arrays, the
    /// directory (sorted by block for stable output, sharer masks as hex
    /// words) and the aggregate statistics.
    pub fn state_to_json(&self) -> Json {
        let mut directory: Vec<(&u64, &DirEntry)> = self.directory.iter().collect();
        directory.sort_by_key(|(block, _)| **block);
        Json::obj([
            ("l1", Json::Arr(self.l1.iter().map(CacheArray::state_to_json).collect())),
            ("l2", Json::Arr(self.l2.iter().map(CacheArray::state_to_json).collect())),
            (
                "directory",
                Json::Arr(
                    directory
                        .into_iter()
                        .map(|(block, entry)| {
                            Json::obj([
                                ("block", Json::hex_u64(*block)),
                                (
                                    "sharers",
                                    Json::Arr(
                                        entry.sharers.iter().copied().map(Json::hex_u64).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "stats",
                Json::obj([
                    ("l1_accesses", Json::from(self.stats.l1_accesses)),
                    ("l1_hits", Json::from(self.stats.l1_hits)),
                    ("l2_accesses", Json::from(self.stats.l2_accesses)),
                    ("l2_hits", Json::from(self.stats.l2_hits)),
                    ("invalidations", Json::from(self.stats.invalidations)),
                    ("writebacks", Json::from(self.stats.writebacks)),
                    ("back_invalidations", Json::from(self.stats.back_invalidations)),
                ]),
            ),
        ])
    }

    /// Restores dynamic state onto a freshly constructed hierarchy.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the document is malformed, the array
    /// counts disagree with this hierarchy's configuration, or the directory
    /// holds duplicate blocks.
    pub fn load_state(&mut self, doc: &Json) -> Result<(), JsonError> {
        let l1 = doc.req_array("l1")?;
        if l1.len() != self.l1.len() {
            return Err(JsonError::state(format!(
                "checkpoint has {} L1 arrays but the hierarchy serves {} cores",
                l1.len(),
                self.l1.len()
            )));
        }
        for (array, state) in self.l1.iter_mut().zip(l1) {
            array.load_state(state)?;
        }
        let l2 = doc.req_array("l2")?;
        if l2.len() != self.l2.len() {
            return Err(JsonError::state(format!(
                "checkpoint has {} L2 banks but the hierarchy is configured with {}",
                l2.len(),
                self.l2.len()
            )));
        }
        for (array, state) in self.l2.iter_mut().zip(l2) {
            array.load_state(state)?;
        }
        self.directory.clear();
        for entry in doc.req_array("directory")? {
            let block = entry.req_hex_u64("block")?;
            let words = entry.req_array("sharers")?;
            if words.len() != 4 {
                return Err(JsonError::state("directory sharer mask must hold 4 words"));
            }
            let mut sharers = [0u64; 4];
            for (word, doc) in sharers.iter_mut().zip(words) {
                *word = doc.as_hex_u64().ok_or_else(|| {
                    JsonError::state("directory sharer word is not a hex bit pattern")
                })?;
            }
            if self.directory.insert(block, DirEntry { sharers }).is_some() {
                return Err(JsonError::state("duplicate block in directory state"));
            }
        }
        let stats = doc.req("stats")?;
        self.stats = CacheStats {
            l1_accesses: stats.req_u64("l1_accesses")?,
            l1_hits: stats.req_u64("l1_hits")?,
            l2_accesses: stats.req_u64("l2_accesses")?,
            l2_hits: stats.req_u64("l2_hits")?,
            invalidations: stats.req_u64("invalidations")?,
            writebacks: stats.req_u64("writebacks")?,
            back_invalidations: stats.req_u64("back_invalidations")?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CacheConfig {
        CacheConfig {
            l1_bytes: 512,
            l1_ways: 2,
            l2_bytes: 4096,
            l2_ways: 4,
            l2_banks: 2,
            ..CacheConfig::default()
        }
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut h = CacheHierarchy::new(2, &small_cfg());
        let a = Addr::new(0x1000);
        let first = h.access(0, a, AccessKind::Read);
        assert_eq!(first.hit, None);
        let second = h.access(0, a, AccessKind::Read);
        assert_eq!(second.hit, Some(HitLevel::L1));
        assert_eq!(h.stats().l1_hits, 1);
    }

    #[test]
    fn shared_block_served_from_l2_for_second_core() {
        let mut h = CacheHierarchy::new(2, &small_cfg());
        let a = Addr::new(0x2000);
        h.access(0, a, AccessKind::Read);
        let r = h.access(1, a, AccessKind::Read);
        assert_eq!(r.hit, Some(HitLevel::L2));
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut h = CacheHierarchy::new(4, &small_cfg());
        let a = Addr::new(0x3000);
        for core in 0..4 {
            h.access(core, a, AccessKind::Read);
        }
        let w = h.access(0, a, AccessKind::Write);
        assert_eq!(w.invalidations, 3);
        // Core 1 must now miss in its L1 (copy invalidated) but hit in L2.
        let r = h.access(1, a, AccessKind::Read);
        assert_eq!(r.hit, Some(HitLevel::L2));
    }

    #[test]
    fn atomic_counts_as_write_for_coherence() {
        let mut h = CacheHierarchy::new(2, &small_cfg());
        let a = Addr::new(0x4000);
        h.access(0, a, AccessKind::Read);
        h.access(1, a, AccessKind::Read);
        let r = h.access(0, a, AccessKind::Atomic);
        assert_eq!(r.invalidations, 1);
        assert!(AccessKind::Atomic.is_write());
    }

    #[test]
    fn capacity_eviction_generates_writeback_for_dirty_data() {
        let cfg = CacheConfig {
            l1_bytes: 128,
            l1_ways: 1,
            l2_bytes: 256,
            l2_ways: 1,
            l2_banks: 1,
            ..CacheConfig::default()
        };
        let mut h = CacheHierarchy::new(1, &cfg);
        // Dirty a block, then stream enough conflicting blocks through the
        // single-way L2 to evict it.
        h.access(0, Addr::new(0), AccessKind::Write);
        let mut wb = 0;
        for i in 1..16u64 {
            let r = h.access(0, Addr::new(i * 256), AccessKind::Read);
            wb += r.writebacks;
        }
        assert!(wb >= 1, "dirty block must be written back");
        assert!(h.stats().writebacks >= 1);
    }

    #[test]
    fn back_invalidate_removes_all_copies() {
        let mut h = CacheHierarchy::new(2, &small_cfg());
        let a = Addr::new(0x5000);
        h.access(0, a, AccessKind::Write);
        h.access(1, a, AccessKind::Read);
        assert!(h.is_cached(a));
        let (copies, dirty) = h.back_invalidate(a);
        assert!(copies >= 2);
        assert!(dirty, "block was written by core 0");
        assert!(!h.is_cached(a));
        // A second back-invalidation finds nothing.
        assert_eq!(h.back_invalidate(a), (0, false));
    }

    #[test]
    fn miss_rates_are_sane() {
        let mut h = CacheHierarchy::new(1, &small_cfg());
        for i in 0..64u64 {
            h.access(0, Addr::new(i * 64), AccessKind::Read);
        }
        let s = h.stats();
        assert!(s.l1_miss_rate() > 0.0 && s.l1_miss_rate() <= 1.0);
        assert!(s.l2_miss_rate() > 0.0 && s.l2_miss_rate() <= 1.0);
        assert_eq!(s.l1_accesses, 64);
    }

    #[test]
    fn bank_mapping_spreads_blocks() {
        let h = CacheHierarchy::new(1, &small_cfg());
        assert_ne!(h.l2_bank_of(Addr::new(0)), h.l2_bank_of(Addr::new(64)));
        assert_eq!(h.cores(), 1);
    }

    #[test]
    fn state_json_round_trip_resumes_identically() {
        let cfg = small_cfg();
        let mut original = CacheHierarchy::new(4, &cfg);
        // Build up sharing, dirtiness and eviction history.
        for i in 0..48u64 {
            let core = (i % 4) as usize;
            let kind = match i % 3 {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => AccessKind::Atomic,
            };
            original.access(core, Addr::new((i % 13) * 192), kind);
        }
        original.back_invalidate(Addr::new(0));

        let doc = ar_types::json::Json::parse(&original.state_to_json().render())
            .expect("state renders to valid JSON");
        let mut restored = CacheHierarchy::new(4, &cfg);
        restored.load_state(&doc).expect("state loads");

        assert_eq!(restored.stats(), original.stats());
        // Both hierarchies must behave identically from here on.
        for i in 0..48u64 {
            let core = ((i + 1) % 4) as usize;
            let addr = Addr::new((i % 17) * 128);
            let kind = if i % 2 == 0 { AccessKind::Write } else { AccessKind::Read };
            assert_eq!(
                original.access(core, addr, kind),
                restored.access(core, addr, kind),
                "divergence at access {i}"
            );
        }
        assert_eq!(restored.stats(), original.stats());
    }

    #[test]
    fn load_state_rejects_inconsistent_configuration() {
        let cfg = small_cfg();
        let mut donor = CacheHierarchy::new(2, &cfg);
        donor.access(0, Addr::new(0x100), AccessKind::Write);
        let state = donor.state_to_json();

        // Wrong core count.
        let mut wrong_cores = CacheHierarchy::new(3, &cfg);
        assert!(wrong_cores.load_state(&state).is_err());

        // Wrong associativity (way count inside each set differs).
        let narrow = CacheConfig { l1_ways: 1, ..cfg.clone() };
        let mut wrong_ways = CacheHierarchy::new(2, &narrow);
        assert!(wrong_ways.load_state(&state).is_err());
    }
}
