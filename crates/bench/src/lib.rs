//! Helpers shared by the Criterion benchmark harness.
//!
//! Every table and figure of the evaluation has a benchmark group in
//! `benches/figures.rs`; the helpers here build the reduced-scale run
//! matrices those groups measure, and print each regenerated artefact once so
//! that `cargo bench` output contains the same rows/series the paper reports.

use ar_experiments::{latency, speedup, traffic, Artifact, ExperimentScale, Matrix, Table};
use ar_types::config::NamedConfig;
use ar_types::{Addr, ThreadId, WorkItem, WorkStream};
use ar_workloads::{GeneratedWorkload, SizeClass, Variant, Workload, WorkloadKind};

/// The scale every benchmark runs at. Benchmarks exist to exercise and time
/// the figure-regeneration path, not to produce publication numbers; the
/// `ar-experiments` binary runs the larger scales.
pub const BENCH_SCALE: ExperimentScale = ExperimentScale::Quick;

/// A reduced benchmark matrix: every workload of the requested set, but only
/// the HMC baseline and the two forest configurations, so one Criterion
/// sample stays in the tens-of-milliseconds range.
pub fn bench_matrix(workloads: &[WorkloadKind]) -> Matrix {
    Matrix::run(
        workloads,
        &[NamedConfig::Dram, NamedConfig::Hmc, NamedConfig::ArfTid, NamedConfig::ArfAddr],
        BENCH_SCALE,
    )
}

/// One-workload matrix used by the per-simulation benchmarks.
pub fn single_workload_matrix(workload: WorkloadKind) -> Matrix {
    bench_matrix(&[workload])
}

/// Builds the Fig. 5.1-style speedup table from a matrix.
pub fn speedup_table(matrix: &Matrix) -> Table {
    speedup::figure_5_1(matrix, "Figure 5.1 (bench scale)")
}

/// Builds the Fig. 5.2-style latency table from a matrix.
pub fn latency_table(matrix: &Matrix) -> Table {
    latency::figure_5_2(matrix, "Figure 5.2 (bench scale)")
}

/// Builds the Fig. 5.4-style traffic table from a matrix.
pub fn traffic_table(matrix: &Matrix) -> Table {
    traffic::figure_5_4(matrix, "Figure 5.4 (bench scale)")
}

/// A synthetic compute-burst workload for the fast-forward kernel
/// benchmarks and regression gates: every thread alternates a cache-miss
/// load with a long compute block, so the core model's bulk fast-forward
/// path (`ar_cpu::fastforward`) dominates the run. The nine built-in
/// workloads carry only short compute blocks (their streams are memory- and
/// offload-bound, the regime the paper evaluates), which is exactly why the
/// fast path needs its own discriminating benchmark.
#[derive(Debug, Clone, Copy)]
pub struct ComputeBursts {
    /// Compute blocks per thread.
    pub blocks_per_thread: usize,
    /// Instructions per block (one block runs `insns / issue_width` cycles).
    pub block_insns: u32,
}

impl Workload for ComputeBursts {
    fn name(&self) -> &str {
        "compute_bursts"
    }

    fn generate(&self, threads: usize, _size: SizeClass, variant: Variant) -> GeneratedWorkload {
        let streams = (0..threads)
            .map(|t| {
                let mut s = WorkStream::new(ThreadId::new(t));
                for i in 0..self.blocks_per_thread {
                    let line = (t * self.blocks_per_thread + i) * 64;
                    s.push(WorkItem::Load(Addr::new(0x4_0000 + line as u64)));
                    s.push(WorkItem::Compute(3));
                    s.push(WorkItem::Compute(self.block_insns));
                }
                s
            })
            .collect();
        GeneratedWorkload {
            name: "compute_bursts".to_string(),
            variant,
            streams,
            memory: Vec::new(),
            references: Vec::new(),
            updates: 0,
        }
    }
}

/// A synthetic offload-burst workload for the weak-scaling benchmark and
/// gate: every thread issues one long uninterrupted `Update` run against a
/// back-pressuring Message Interface and closes its flow with one gather,
/// so the per-thread offload work is identical on every machine size.
#[derive(Debug, Clone, Copy)]
pub struct OffloadBursts {
    /// `Update` items per thread.
    pub updates_per_thread: usize,
}

impl Workload for OffloadBursts {
    fn name(&self) -> &str {
        "offload_bursts"
    }

    fn generate(&self, threads: usize, _size: SizeClass, variant: Variant) -> GeneratedWorkload {
        let streams = (0..threads)
            .map(|t| {
                let mut s = WorkStream::new(ThreadId::new(t));
                let target = Addr::new(0x3000_0000 + t as u64 * 64);
                for i in 0..self.updates_per_thread {
                    let src1 =
                        Addr::new(0x1000_0000 + ((t * self.updates_per_thread + i) * 8) as u64);
                    s.push(WorkItem::Update {
                        op: ar_types::ReduceOp::Sum,
                        src1,
                        src2: None,
                        imm: None,
                        target,
                    });
                }
                s.push(WorkItem::Gather {
                    target,
                    op: ar_types::ReduceOp::Sum,
                    num_threads: 1,
                    wait: true,
                });
                s
            })
            .collect();
        GeneratedWorkload {
            name: "offload_bursts".to_string(),
            variant,
            streams,
            memory: Vec::new(),
            references: Vec::new(),
            updates: (threads * self.updates_per_thread) as u64,
        }
    }
}

/// Prints an artefact once (outside the measured closures) so the bench log
/// carries the regenerated rows.
pub fn print_artifact(artifact: Artifact) {
    println!("==== {} (scale: {}) ====", artifact.name(), BENCH_SCALE);
    println!("{}", artifact.render(BENCH_SCALE));
}

/// A counting wrapper around the system allocator, for the zero-alloc
/// steady-state regression gate and the weak-scaling snapshot.
///
/// Install it as the test binary's `#[global_allocator]` and read
/// [`CountingAlloc::allocations`] before and after a region: the delta is the
/// number of heap allocations (`alloc`, `alloc_zeroed` and growing
/// `realloc`s) the region performed. Frees are not counted — the gates care
/// about allocation *pressure*, and a steady-state loop that frees must have
/// allocated first anyway.
pub struct CountingAlloc;

static ALLOCATION_COUNT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl CountingAlloc {
    /// Total allocations observed since process start.
    pub fn allocations() -> u64 {
        ALLOCATION_COUNT.load(std::sync::atomic::Ordering::Relaxed)
    }
}

// SAFETY: delegates verbatim to the system allocator; the counter is a
// relaxed atomic with no further side effects.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_matrix_contains_all_requested_workloads() {
        let m = single_workload_matrix(WorkloadKind::Reduce);
        assert_eq!(m.workloads, vec![WorkloadKind::Reduce]);
        assert_eq!(m.configs.len(), 4);
        let table = speedup_table(&m);
        assert_eq!(table.rows.len(), 2, "one workload row plus gmean");
        assert!(!latency_table(&m).rows.is_empty());
        assert!(!traffic_table(&m).rows.is_empty());
    }
}
