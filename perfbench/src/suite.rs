//! The benchmark's four workloads and the passes that time them.
//!
//! Every cell is built through [`CellKey::configure`] with default
//! [`ar_system::CellKnobs`], the construction path [`Sweep::run`] and the
//! sweep server share, and starts with empty caches. Layers are timed from
//! outside: [`Workload::generate`] through [`BenchWorkload`],
//! [`ar_system::SimulationBuilder::build`], [`ar_system::Simulation::run`],
//! [`Sweep::run`], and IPC windows through [`WindowTimer`].

use crate::inputs::BenchWorkload;
use crate::trace::{Trace, Window, WindowTimer};
use ar_system::{verify_gathers, CellKey, SimReport, SimulationBuilder, Sweep};
use ar_types::config::{NamedConfig, SystemConfig};
use ar_workloads::{SizeClass, Workload, WorkloadKind};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Benchmark workload names. `BENCHMARK.json` gates the first three;
/// `arf_tid_160` is run by hand (see `manifest.json`): its host times spread
/// more from run to run on a shared 2-vCPU host than the largest bound allows.
pub const WORKLOADS: [&str; 4] = ["figures_standard", "arf_tid_paper", "hmc_paper", "arf_tid_160"];

/// One benchmark workload: a matrix of cells, run serially or as a sweep.
pub struct Suite {
    base: SystemConfig,
    configs: Vec<NamedConfig>,
    size: SizeClass,
    workloads: Vec<Arc<BenchWorkload>>,
    /// Whether the timed passes go through [`Sweep::run`] (the figure
    /// matrix) rather than one cell at a time.
    pub sweep: bool,
}

/// One cell of a serial pass.
pub struct CellRun {
    /// Host time inside the workload generator.
    pub generate: Duration,
    /// Host time of `build`, generation included and seed remapping excluded.
    pub build: Duration,
    /// Host time of `run`.
    pub run: Duration,
    pub report: SimReport,
    /// Completed and matched every functional reference.
    pub verified: bool,
    /// IPC-window timings (traced passes only).
    pub windows: Vec<Window>,
}

impl CellRun {
    /// Host time of the cell: build plus run.
    pub fn host(&self) -> Duration {
        self.build + self.run
    }
}

/// One pass over every cell, one cell at a time.
pub struct Pass {
    /// Wall time of the pass, seed remapping excluded.
    pub wall: Duration,
    pub cells: Vec<CellRun>,
    pub traced: bool,
}

impl Suite {
    /// The named benchmark workload at `seed`; `smoke` shrinks every cell to
    /// [`SizeClass::Tiny`].
    pub fn new(name: &str, seed: u64, smoke: bool) -> Option<Suite> {
        let (base, configs, size, sweep) = match name {
            "figures_standard" => {
                (SystemConfig::paper(), NamedConfig::ALL.to_vec(), SizeClass::Small, true)
            }
            "arf_tid_paper" => {
                (SystemConfig::paper(), vec![NamedConfig::ArfTid], SizeClass::Paper, false)
            }
            "hmc_paper" => (SystemConfig::paper(), vec![NamedConfig::Hmc], SizeClass::Paper, false),
            "arf_tid_160" => {
                (SystemConfig::scaled(), vec![NamedConfig::ArfTid], SizeClass::Paper, false)
            }
            _ => return None,
        };
        let workloads =
            WorkloadKind::ALL.iter().map(|&k| Arc::new(BenchWorkload::new(k, seed))).collect();
        let size = if smoke { SizeClass::Tiny } else { size };
        Some(Suite { base, configs, size, workloads, sweep })
    }

    pub fn size(&self) -> SizeClass {
        self.size
    }

    pub fn cell_count(&self) -> usize {
        self.workloads.len() * self.configs.len()
    }

    /// The cells in [`Sweep`] order: workload-major, then configuration.
    fn cells(&self) -> impl Iterator<Item = (&Arc<BenchWorkload>, NamedConfig)> {
        self.workloads.iter().flat_map(|w| self.configs.iter().map(move |&c| (w, c)))
    }

    fn builder(&self, workload: &Arc<BenchWorkload>, config: NamedConfig) -> SimulationBuilder {
        CellKey::new(workload.name(), config, self.size).configure(&self.base, workload.clone())
    }

    /// Builds every cell and drops it unrun; returns the host time of the
    /// `build` calls, seed remapping excluded: the set-up cost of one pass.
    pub fn setup_pass(&self) -> Duration {
        let mut total = Duration::ZERO;
        for (workload, config) in self.cells() {
            let builder = self.builder(workload, config);
            let start = Instant::now();
            let sim = builder.build().expect("benchmark cells are valid configurations");
            let build = start.elapsed();
            drop(sim);
            let remap: Duration = workload.take_timings().iter().map(|t| t.remap).sum();
            total += build.saturating_sub(remap);
        }
        total
    }

    /// Builds and runs every cell, one at a time. With a trace, records
    /// cell, generate, build, run and IPC-window spans.
    pub fn serial_pass(&self, mut trace: Option<&mut Trace>) -> Pass {
        let traced = trace.is_some();
        let start = Instant::now();
        let mut remap = Duration::ZERO;
        let mut cells = Vec::with_capacity(self.cell_count());
        for (workload, config) in self.cells() {
            let windows = Rc::new(RefCell::new(Vec::new()));
            let mut builder = self.builder(workload, config);
            if traced {
                builder = builder.observer(WindowTimer::new(windows.clone()));
            }
            let t0 = Instant::now();
            let sim = builder.build().expect("benchmark cells are valid configurations");
            let t1 = Instant::now();
            let references = sim.references().to_vec();
            let t2 = Instant::now();
            let report = sim.run();
            let t3 = Instant::now();
            let [gen] = workload.take_timings()[..] else {
                panic!("one build must generate its workload exactly once")
            };
            remap += gen.remap;
            if let Some(trace) = trace.as_deref_mut() {
                let label = format!("{}/{}", workload.name(), config);
                let cell = trace.span("cell", &label, None, t0, t3);
                let build = trace.span("build", &label, Some(cell), t0, t1);
                trace.span("generate", &label, Some(build), gen.start, gen.start + gen.generate);
                trace.span("run", &label, Some(cell), t2, t3);
                trace.windows(cell, &label, &windows.borrow());
            }
            let verified = report.completed && verify_gathers(&report, &references) == 0;
            let windows = windows.take();
            cells.push(CellRun {
                generate: gen.generate,
                build: (t1 - t0).saturating_sub(gen.remap),
                run: t3 - t2,
                report,
                verified,
                windows,
            });
        }
        Pass { wall: start.elapsed().saturating_sub(remap), cells, traced }
    }

    /// Runs every cell through one [`Sweep::run`] on `workers` threads and
    /// returns its wall time and reports in sweep order. For a non-zero seed
    /// the wall time includes remapping the inputs, about 1% of it.
    pub fn sweep_pass(&self, workers: usize) -> (Duration, Vec<SimReport>) {
        let mut sweep = Sweep::new(self.base.clone())
            .configs(self.configs.iter().copied())
            .size(self.size)
            .threads(workers);
        for workload in &self.workloads {
            sweep = sweep.workload_arc(workload.clone());
        }
        let start = Instant::now();
        let results = sweep.run().expect("benchmark cells are valid configurations");
        let wall = start.elapsed();
        for workload in &self.workloads {
            workload.take_timings();
        }
        (wall, results.cells.into_iter().map(|c| c.report).collect())
    }
}
