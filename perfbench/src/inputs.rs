//! The benchmark's inputs: the nine built-in workloads behind a wrapper that
//! times [`Workload::generate`] and, for a non-zero seed, moves the data.
//!
//! Seed 0 runs the built-in inputs unchanged. Any other seed applies a
//! seeded bijection to every address of the generated streams, memory image
//! and functional references: the pages the workload touches are shuffled
//! among themselves (moving data across cubes, banks and rows), and the
//! cache blocks of each page are permuted by a per-page XOR on the vault bits
//! (moving data across vaults). Values travel with their addresses, so the
//! gathered results stay checkable against the remapped references.

use ar_sim::SimRng;
use ar_types::addr::{CACHE_BLOCK_BYTES, PAGE_BYTES};
use ar_types::{Addr, WorkItem, WorkStream};
use ar_workloads::{GeneratedWorkload, SizeClass, Variant, Workload, WorkloadKind};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Cache blocks per page; a block's vault is its block index modulo the
/// (power-of-two) vault count, so XOR keys below 32 move it between vaults
/// without leaving its page or changing its bank.
const BLOCKS_PER_PAGE: u64 = PAGE_BYTES / CACHE_BLOCK_BYTES;
const VAULT_KEY_MASK: u64 = 31;

/// Refuses remap tables beyond this many pages; the built-in layouts span a
/// few tens of thousands.
const MAX_REMAPPED_PAGES: u64 = 1 << 24;

/// Host time of one [`Workload::generate`] call.
#[derive(Debug, Clone, Copy)]
pub struct GenTiming {
    /// When the call started.
    pub start: Instant,
    /// Time inside the built-in generator.
    pub generate: Duration,
    /// Time spent remapping addresses for the seed (benchmark overhead, not
    /// simulator work; subtracted from build and set-up times).
    pub remap: Duration,
}

/// A built-in workload, remapped for a seed, whose generator calls are timed.
pub struct BenchWorkload {
    kind: WorkloadKind,
    seed: u64,
    timings: Mutex<Vec<GenTiming>>,
}

impl BenchWorkload {
    pub fn new(kind: WorkloadKind, seed: u64) -> Self {
        BenchWorkload { kind, seed, timings: Mutex::new(Vec::new()) }
    }

    /// Removes and returns the timings recorded since the last call.
    pub fn take_timings(&self) -> Vec<GenTiming> {
        std::mem::take(&mut *self.timings.lock().expect("timing log poisoned"))
    }
}

impl Workload for BenchWorkload {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn generate(&self, threads: usize, size: SizeClass, variant: Variant) -> GeneratedWorkload {
        let start = Instant::now();
        let mut generated = self.kind.generate(threads, size, variant);
        let generate = start.elapsed();
        let remap_start = Instant::now();
        if self.seed != 0 {
            remap(&mut generated, self.seed);
        }
        let remap = remap_start.elapsed();
        self.timings.lock().expect("timing log poisoned").push(GenTiming {
            start,
            generate,
            remap,
        });
        generated
    }
}

/// A seeded bijection on addresses, identity outside `[first, first + len)`
/// pages.
struct AddressMap {
    first: u64,
    /// Destination page offset and vault XOR key, per source page offset.
    pages: Vec<(u64, u64)>,
}

impl AddressMap {
    fn new(first: u64, last: u64, seed: u64) -> Self {
        let len = last - first + 1;
        assert!(len <= MAX_REMAPPED_PAGES, "workload spans {len} pages; too many to remap");
        let mut rng = SimRng::seed_from_u64(seed);
        let mut order: Vec<u64> = (0..len).collect();
        rng.shuffle(&mut order);
        let pages = order.into_iter().map(|dest| (dest, rng.next_u64() & VAULT_KEY_MASK)).collect();
        AddressMap { first, pages }
    }

    fn map(&self, addr: Addr) -> Addr {
        let page = addr.page_index();
        let Some(&(dest, key)) =
            page.checked_sub(self.first).and_then(|i| self.pages.get(i as usize))
        else {
            return addr;
        };
        let block = (addr.block_index() % BLOCKS_PER_PAGE) ^ key;
        Addr::new(
            (self.first + dest) * PAGE_BYTES + block * CACHE_BLOCK_BYTES + addr.block_offset(),
        )
    }

    fn item(&self, item: WorkItem) -> WorkItem {
        match item {
            WorkItem::Load(a) => WorkItem::Load(self.map(a)),
            WorkItem::Store(a) => WorkItem::Store(self.map(a)),
            WorkItem::AtomicRmw { addr } => WorkItem::AtomicRmw { addr: self.map(addr) },
            WorkItem::Update { op, src1, src2, imm, target } => WorkItem::Update {
                op,
                src1: self.map(src1),
                src2: src2.map(|a| self.map(a)),
                imm,
                target: self.map(target),
            },
            WorkItem::Gather { target, op, num_threads, wait } => {
                WorkItem::Gather { target: self.map(target), op, num_threads, wait }
            }
            other @ (WorkItem::Compute(_) | WorkItem::Barrier { .. }) => other,
        }
    }
}

fn item_addresses(item: &WorkItem) -> impl Iterator<Item = Addr> {
    let (a, b, c) = match *item {
        WorkItem::Load(a) | WorkItem::Store(a) | WorkItem::AtomicRmw { addr: a } => {
            (Some(a), None, None)
        }
        WorkItem::Update { src1, src2, target, .. } => (Some(src1), src2, Some(target)),
        WorkItem::Gather { target, .. } => (Some(target), None, None),
        WorkItem::Compute(_) | WorkItem::Barrier { .. } => (None, None, None),
    };
    [a, b, c].into_iter().flatten()
}

/// Applies the seed's address bijection to streams, memory image and
/// references alike.
pub fn remap(generated: &mut GeneratedWorkload, seed: u64) {
    let pages = generated
        .streams
        .iter()
        .flat_map(|s| s.iter().flat_map(item_addresses))
        .chain(generated.memory.iter().map(|&(a, _)| a))
        .chain(generated.references.iter().map(|&(a, _)| a))
        .map(Addr::page_index);
    let Some((first, last)) = pages.fold(None, |range, p| match range {
        None => Some((p, p)),
        Some((lo, hi)) => Some((p.min(lo), p.max(hi))),
    }) else {
        return;
    };
    let map = AddressMap::new(first, last, seed);
    for stream in &mut generated.streams {
        let mut remapped = WorkStream::new(stream.thread);
        remapped.extend(std::iter::from_fn(|| stream.pop()).map(|item| map.item(item)));
        *stream = remapped;
    }
    for (addr, _) in generated.memory.iter_mut().chain(generated.references.iter_mut()) {
        *addr = map.map(*addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn address_map_is_a_bijection_that_moves_cubes_and_vaults() {
        let map = AddressMap::new(100, 163, 7);
        let addrs: Vec<Addr> =
            (100 * PAGE_BYTES..164 * PAGE_BYTES).step_by(8).map(Addr::new).collect();
        let mapped: HashSet<Addr> = addrs.iter().map(|&a| map.map(a)).collect();
        assert_eq!(mapped.len(), addrs.len(), "two addresses share a destination");
        assert!(mapped.iter().all(|a| (100..164).contains(&a.page_index())));
        assert!(addrs.iter().any(|&a| map.map(a).page_index() % 16 != a.page_index() % 16));
        assert!(addrs.iter().any(|&a| map.map(a).block_index() % 32 != a.block_index() % 32));
        assert_eq!(map.map(Addr::new(5)), Addr::new(5), "pages outside the range stay put");
    }

    #[test]
    fn seed_zero_keeps_the_builtin_inputs() {
        let plain = WorkloadKind::Reduce.generate(4, SizeClass::Tiny, Variant::Active);
        let wrapped = BenchWorkload::new(WorkloadKind::Reduce, 0).generate(
            4,
            SizeClass::Tiny,
            Variant::Active,
        );
        assert_eq!(plain.streams, wrapped.streams);
        assert_eq!(plain.memory, wrapped.memory);
        assert_eq!(plain.references, wrapped.references);
    }
}
