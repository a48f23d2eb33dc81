//! Benchmark of the Active-Routing simulator: one process per workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The process repeats rounds until `--seconds` have elapsed. A round builds
//! every cell without running it (a set-up pass), then builds and runs every
//! cell one at a time (a serial pass), then, for the figure matrix, runs
//! every cell again through one sweep. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` alternates untraced and traced passes, prints the
//! per-layer metrics and writes the traced spans to `perfbench/traces/`.
//! `--smoke` runs every cell at the tiny size class. The last line of standard
//! output is a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.
//!
//! Simulated time (network cycles, instructions) and host time (ms, s) are
//! named apart. The model is unvalidated: the repository holds no hardware
//! reference, so no accuracy error is reported.

mod inputs;
mod suite;
mod trace;

use ar_types::json::Json;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use suite::{CellRun, Pass, Suite, WORKLOADS};
use trace::Trace;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]";

/// The manifest beside this crate, which records the seed-0 report digests.
const MANIFEST: &str = include_str!("../manifest.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number {value:?}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {}", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let suite = Suite::new(&args.workload, args.seed, args.smoke).expect("workload name checked");
    let env = environment();
    println!("env {}", env.render());
    println!(
        "workload {} seed {} size {} cells {} workers {}",
        args.workload,
        args.seed,
        suite.size(),
        suite.cell_count(),
        workers()
    );
    let mut trace = args.trace.then(Trace::new);
    let m = measure(&suite, &args, trace.as_mut());
    print_digest(&args, &m);
    let metrics = if args.trace { per_layer(&m) } else { end_to_end(&suite, &m) };
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    if let Some(trace) = &trace {
        if let Err(err) = write_trace(&args, env, trace) {
            eprintln!("perfbench: writing the trace failed: {err}");
            return ExitCode::FAILURE;
        }
    }
    let metrics = Json::obj(metrics.into_iter().map(|(name, value, unit)| {
        (name, Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]))
    }));
    let result = Json::obj([
        ("correct", Json::from(m.failed == 0)),
        ("attempted", Json::from(m.attempted)),
        ("failed", Json::from(m.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}

fn workers() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// How busy the workers of one untraced timed pass were: for the figure
/// matrix, the serial pass's cell time against the wall time of the sweep
/// that followed it on every worker; otherwise the serial pass against its own
/// wall time on one worker.
struct Occupancy {
    wall: Duration,
    workers: usize,
    cell_time: Duration,
    slowest_cell: Duration,
}

struct Measurement {
    /// Host time of each set-up pass.
    setup: Vec<Duration>,
    passes: Vec<Pass>,
    occupancy: Vec<Occupancy>,
    attempted: u64,
    failed: u64,
}

impl Measurement {
    fn untraced(&self) -> impl Iterator<Item = &Pass> {
        self.passes.iter().filter(|p| !p.traced)
    }

    fn traced(&self) -> impl Iterator<Item = &Pass> {
        self.passes.iter().filter(|p| p.traced)
    }
}

/// Repeats whole rounds until `--seconds` have elapsed: one round at least,
/// and in trace mode one untraced and one traced pass at least. Host speed
/// drifts for seconds at a time on shared machines, so set-up passes are
/// spread over the run instead of all preceding it.
fn measure(suite: &Suite, args: &Args, mut trace: Option<&mut Trace>) -> Measurement {
    let mut m = Measurement {
        setup: Vec::new(),
        passes: Vec::new(),
        occupancy: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    loop {
        let traced = trace.is_some() && m.untraced().count() > m.traced().count();
        if trace.is_none() {
            m.setup.push(suite.setup_pass());
        }
        let pass = suite.serial_pass(if traced { trace.as_deref_mut() } else { None });
        m.attempted += pass.cells.len() as u64;
        // A cell fails when it does not complete, misses a functional
        // reference, or reports differently from the first pass: the
        // simulator is deterministic, so a repeat must be byte-identical.
        let first = m.passes.first().unwrap_or(&pass);
        m.failed += pass
            .cells
            .iter()
            .zip(&first.cells)
            .filter(|(cell, first)| !cell.verified || cell.report != first.report)
            .count() as u64;
        let (wall, workers) = if suite.sweep {
            let (wall, reports) = suite.sweep_pass(workers());
            m.attempted += reports.len() as u64;
            m.failed += reports
                .iter()
                .zip(&pass.cells)
                .filter(|(report, cell)| **report != cell.report || !cell.verified)
                .count() as u64;
            (wall, workers())
        } else {
            (pass.wall, 1)
        };
        if !pass.traced {
            m.occupancy.push(Occupancy {
                wall,
                workers,
                cell_time: pass.cells.iter().map(CellRun::host).sum(),
                slowest_cell: pass.cells.iter().map(CellRun::host).max().unwrap_or_default(),
            });
        }
        m.passes.push(pass);
        let enough = trace.is_none() || m.traced().count() > 0;
        if enough && Instant::now() >= deadline {
            return m;
        }
    }
}

/// Prints the digest of the first pass's canonical reports beside the one
/// recorded for seed 0. A mismatch is flagged here, not counted as a
/// failure: it shows that simulated statistics changed.
fn print_digest(args: &Args, m: &Measurement) {
    let reports = Json::arr(m.passes[0].cells.iter().map(|c| c.report.to_json()));
    let digest = format!("{:016x}", reports.content_hash());
    let recorded = Json::parse(MANIFEST)
        .ok()
        .and_then(|doc| doc.get("digests_seed0")?.get(&args.workload)?.as_str().map(String::from));
    let verdict = match recorded {
        _ if args.seed != 0 || args.smoke => "no digest is recorded for this input".to_string(),
        Some(r) if r == digest => "matches the recorded seed-0 digest".to_string(),
        Some(r) => format!("DIFFERS from the recorded seed-0 digest {r}"),
        None => "no seed-0 digest is recorded".to_string(),
    };
    println!("digest {digest} ({verdict})");
}

type Metric = (&'static str, f64, &'static str);

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile (0 for no values): over a fixed cell list it
/// always names one cell's value rather than blending two.
fn percentile(mut values: Vec<f64>, p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Simulated totals of one pass.
fn totals(pass: &Pass, f: impl Fn(&ar_system::SimReport) -> u64) -> f64 {
    pass.cells.iter().map(|c| f(&c.report)).sum::<u64>() as f64
}

fn run_time(pass: &Pass) -> Duration {
    pass.cells.iter().map(|c| c.run).sum()
}

/// Best (lowest) time of cell `i` over the passes, for every cell.
fn cell_best(passes: &[&Pass], f: impl Fn(&CellRun) -> Duration) -> Vec<f64> {
    (0..passes[0].cells.len())
        .map(|i| passes.iter().map(|p| secs(f(&p.cells[i]))).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Host times are best-of-N per cell, the repository's A/B convention: on a
/// shared host the same work runs 20-30% slower for many seconds at a time,
/// which moves medians of a short run far more than minima. `setup_s` stays
/// the median of the run's set-up passes.
fn end_to_end(suite: &Suite, m: &Measurement) -> Vec<Metric> {
    let passes: Vec<&Pass> = m.untraced().collect();
    let host = cell_best(&passes, CellRun::host);
    let run: f64 = cell_best(&passes, |c| c.run).iter().sum();
    let cells_per_s = if suite.sweep {
        let best = m.occupancy.iter().map(|o| secs(o.wall)).fold(f64::INFINITY, f64::min);
        suite.cell_count() as f64 / best
    } else {
        host.len() as f64 / host.iter().sum::<f64>()
    };
    println!("cells {} serial passes {}", host.len(), passes.len());
    let cell_ms: Vec<f64> = host.iter().map(|s| s * 1e3).collect();
    let per_run_second = |f: fn(&ar_system::SimReport) -> u64| totals(passes[0], f) / run / 1e6;
    vec![
        ("cells_per_s", cells_per_s, "1/s"),
        ("cell_ms_p50", percentile(cell_ms.clone(), 0.5), "ms"),
        ("cell_ms_p90", percentile(cell_ms, 0.9), "ms"),
        ("sim_mcycles_per_s", per_run_second(|r| r.network_cycles), "Mcycles/s"),
        ("sim_minsns_per_s", per_run_second(|r| r.instructions), "Minsns/s"),
        ("setup_s", median(m.setup.iter().copied().map(secs).collect()), "s"),
        ("peak_rss_mib", peak_rss_kib() as f64 / 1024.0, "MiB"),
    ]
}

fn per_layer(m: &Measurement) -> Vec<Metric> {
    let traced: Vec<&Pass> = m.traced().collect();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(traced.iter().map(|p| f(p)).collect());
    let run_ns_per = |f: fn(&ar_system::SimReport) -> u64| {
        per_pass(&|p| ratio(run_time(p).as_nanos() as f64, totals(p, f)))
    };
    let busy = median(
        m.occupancy.iter().map(|o| secs(o.cell_time) / (secs(o.wall) * o.workers as f64)).collect(),
    );
    let slowest = median(m.occupancy.iter().map(|o| secs(o.slowest_cell) / secs(o.wall)).collect());
    let windows: Vec<f64> = traced
        .iter()
        .flat_map(|p| {
            p.cells.iter().flat_map(|c| c.windows.iter().filter_map(|w| w.ns_per_cycle()))
        })
        .collect();
    let overhead = median(traced.iter().map(|p| secs(p.wall)).collect())
        / median(m.untraced().map(|p| secs(p.wall)).collect())
        - 1.0;

    // Work counts are simulated, identical in every pass; read the first.
    let first = &m.passes[0];
    let sum = |f: fn(&ar_system::SimReport) -> u64| totals(first, f);
    let updates = sum(|r| r.updates_offloaded);
    let latency: f64 = first
        .cells
        .iter()
        .map(|c| c.report.update_latency.total() * c.report.updates_offloaded as f64)
        .sum();
    vec![
        ("failed_ratio", ratio(m.failed as f64, m.attempted as f64), "ratio"),
        (
            "ar-workloads.generate_ms",
            per_pass(&|p| p.cells.iter().map(|c| ms(c.generate)).sum()),
            "ms",
        ),
        (
            "ar-system.build_ms",
            per_pass(&|p| p.cells.iter().map(|c| ms(c.build.saturating_sub(c.generate))).sum()),
            "ms",
        ),
        ("ar-system.run_ms", per_pass(&|p| ms(run_time(p))), "ms"),
        ("ar-system.run_ns_per_update", run_ns_per(|r| r.updates_offloaded), "ns"),
        ("ar-system.run_ns_per_insn", run_ns_per(|r| r.instructions), "ns"),
        ("ar-system.run_ns_per_cycle", run_ns_per(|r| r.network_cycles), "ns"),
        ("ar-system.sweep_busy_ratio", busy, "ratio"),
        ("ar-system.sweep_slowest_cell_share", slowest, "ratio"),
        ("trace.window_ns_per_cycle_p50", percentile(windows.clone(), 0.5), "ns"),
        ("trace.window_ns_per_cycle_p90", percentile(windows, 0.9), "ns"),
        ("trace.overhead_ratio", overhead, "ratio"),
        ("ar-cpu.instructions", sum(|r| r.instructions), "count"),
        ("ar-cpu.stall_cycles.memory", sum(|r| r.stalls.memory), "cycles"),
        ("ar-cpu.stall_cycles.offload", sum(|r| r.stalls.offload), "cycles"),
        ("ar-cpu.stall_cycles.gather", sum(|r| r.stalls.gather), "cycles"),
        ("ar-cpu.stall_cycles.barrier", sum(|r| r.stalls.barrier), "cycles"),
        ("ar-cpu.stall_cycles.rob_full", sum(|r| r.stalls.rob_full), "cycles"),
        ("ar-cache.l1_hit_ratio", ratio(sum(|r| r.l1_hits), sum(|r| r.l1_accesses)), "ratio"),
        ("ar-cache.l2_hit_ratio", ratio(sum(|r| r.l2_hits), sum(|r| r.l2_accesses)), "ratio"),
        ("ar-cache.invalidations", sum(|r| r.invalidations), "count"),
        ("ar-network.byte_hops", sum(|r| r.network_byte_hops), "byte-hops"),
        ("ar-network.noc_byte_hops", sum(|r| r.noc_byte_hops), "byte-hops"),
        ("ar-hmc.bytes", sum(|r| r.hmc_bytes), "bytes"),
        ("ar-dram.bytes", sum(|r| r.dram_bytes), "bytes"),
        ("active-routing.updates", updates, "count"),
        ("active-routing.are_ops", sum(|r| r.are_ops), "count"),
        (
            "active-routing.operand_stalls",
            sum(|r| r.cube_activity.operand_buffer_stalls.iter().sum()),
            "cycles",
        ),
        ("active-routing.update_latency_cycles", ratio(latency, updates), "cycles"),
        ("sim.network_cycles", sum(|r| r.network_cycles), "cycles"),
    ]
}

/// The host the result was measured on.
fn environment() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("nproc", Json::from(workers())),
        ("cpu_model", Json::from(cpu)),
        ("rustc", Json::from(env!("PERFBENCH_RUSTC_VERSION"))),
        ("profile", Json::from(env!("PERFBENCH_PROFILE"))),
    ])
}

/// The process's peak resident set in KiB, from `VmHWM` in
/// `/proc/self/status` (0 where the file is unavailable).
fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn write_trace(args: &Args, env: Json, trace: &Trace) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let doc = Json::obj([
        ("workload", Json::from(args.workload.clone())),
        ("seed", Json::from(args.seed)),
        ("env", env),
        ("spans", trace.to_json()),
    ]);
    std::fs::write(&path, doc.render())?;
    println!("trace {}", path.display());
    Ok(())
}
