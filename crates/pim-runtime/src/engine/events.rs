//! Facade over the component-based discrete-event core.
//!
//! This module once held the whole event core in one file; it is now
//! split by concern and re-exported here so existing paths keep working:
//!
//! * [`components`](super::components) — the [`Component`] trait
//!   (`next_tick()`/`advance(to)`), the per-device lanes, the link/sync
//!   model, the flat SoA resource state, the component slab, the clock,
//!   and the event heap,
//! * [`observe`](super::observe) — timeline sinks and the driver-facing
//!   `Observer`,
//! * [`drivers`](super::drivers) — the execution drivers every
//!   configuration runs through.
//!
//! [`Component`]: super::components::Component

pub use super::components::PROGR_KERNEL_SLOTS;
pub use super::drivers::{run_device_serial, DeviceRun};
pub(crate) use super::drivers::{run_scheduled, run_serialized};
pub use super::observe::{NullSink, ResourceClass, TimelineEntry, TimelineSink, VecSink};
pub(crate) use super::observe::{Observer, SCHED_TRACK};
