//! Host processor model: out-of-order cores executing per-thread work
//! streams, plus the Message Interface that turns `Update`/`Gather`
//! instructions into offload commands for the memory network.
//!
//! The core model is deliberately at the granularity the evaluation needs:
//! an ROB-limited window with a configurable issue width, non-blocking loads
//! bounded by an MSHR-like outstanding-request limit, blocking `Gather` and
//! barrier semantics, and fire-and-forget `Update` offloading that only
//! stalls when the Message Interface back-pressures. This reproduces the
//! first-order behaviour the paper relies on: baseline runs are limited by
//! memory stalls, Active-Routing runs are limited by offload bandwidth and
//! gather latency.
//!
//! Stall cycles are accounted lazily: a core whose ROB head waits on an
//! external event (memory response, gather result, barrier release) *parks*
//! ([`Core::is_parked`]) and may be skipped by an event-driven driver; the
//! first tick after the event settles the whole skipped interval into the
//! stall counter per-cycle ticking would have used, so both driving styles
//! produce byte-identical statistics.
//!
//! Bulk compute work is scheduled analytically: when a core's ROB holds
//! only retirable slots and its stream head is a compute run, the whole
//! retire/issue schedule of the run is a closed-form function of the issue
//! width and ROB capacity ([`fastforward`]). An event-driven driver arms
//! the interval through [`Core::try_fast_forward`] and sleeps the core
//! until [`Core::fast_forward_until`]; samples and truncations landing
//! inside the interval split it with [`Core::settle_compute_to`], so the
//! statistics stay byte-identical to per-cycle ticking at every boundary.

pub mod core_model;
pub mod fastforward;
pub mod mi;

pub use core_model::{
    offload_command_from_json, offload_command_to_json, Core, CoreOutput, MemAccess, MemAccessKind,
    StallBreakdown, StallCause,
};
pub use fastforward::{MIN_SKIPPED_CYCLES, PROFITABLE_BLOCK_INSNS};
pub use mi::{MessageInterface, OffloadCommand, OffloadKind};
