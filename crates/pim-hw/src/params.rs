//! Shared device-parameter vocabulary and the common timing/energy formula.
//!
//! Every compute element — host CPU, GPU, fixed-function PIM pool,
//! programmable ARM PIM, Neurocube baseline — is described by a
//! [`DeviceParams`] record and estimated with [`estimate`]:
//!
//! ```text
//! t_compute = ma_work / ma_throughput + other_work / other_throughput
//! t_memory  = bytes / (bandwidth * pattern_efficiency)
//! t_op      = max(t_compute, t_memory) + dispatch_overhead
//! energy    = dynamic_power * t_op + path_energy(bytes)
//! ```
//!
//! **Calibration note (see DESIGN.md §4.4):** the throughput constants are
//! calibrated against the paper's *reported ratios*, since the authors'
//! silicon models (Synopsys DC/PrimeTime, McPAT on their netlists, real
//! Xeon/1080 Ti measurements) are not reproducible. Every constant is an
//! explicit field here, not a buried magic number.

use pim_common::fingerprint::Fingerprint;
use pim_common::units::{Bytes, Joules, Seconds, Watts};
use pim_mem::energy::MemoryPath;
use pim_mem::traffic::{bandwidth_efficiency, AccessPattern};
use pim_tensor::cost::CostProfile;
use serde::Serialize;
use std::hash::{Hash, Hasher};

/// Static description of one compute element.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceParams {
    /// Display name ("CPU", "Fixed PIM", ...).
    pub name: &'static str,
    /// Peak multiply/add throughput in flops/second.
    pub ma_throughput: f64,
    /// Throughput for non-multiply/add arithmetic (compares, exp, div) in
    /// flops/second.
    pub other_throughput: f64,
    /// Throughput for control/bookkeeping instructions in ops/second.
    pub control_throughput: f64,
    /// Peak main-memory bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Fixed cost to dispatch one kernel/op onto this device.
    pub dispatch_overhead: Seconds,
    /// Dynamic power drawn while the device is busy.
    pub dynamic_power: Watts,
    /// Which memory path this device's traffic takes (determines pJ/bit).
    pub memory_path: MemoryPath,
}

impl Fingerprint for DeviceParams {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        let DeviceParams {
            name,
            ma_throughput,
            other_throughput,
            control_throughput,
            bandwidth,
            dispatch_overhead,
            dynamic_power,
            memory_path,
        } = self;
        name.hash(state);
        for rate in [
            ma_throughput,
            other_throughput,
            control_throughput,
            bandwidth,
        ] {
            rate.fingerprint(state);
        }
        dispatch_overhead.fingerprint(state);
        dynamic_power.fingerprint(state);
        memory_path.hash(state);
    }
}

/// Timing/energy estimate for one operation on one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ComputeEstimate {
    /// Total operation latency including dispatch.
    pub time: Seconds,
    /// Arithmetic component.
    pub compute_time: Seconds,
    /// Memory component (overlapped with compute; the max is taken).
    pub memory_time: Seconds,
    /// Dispatch overhead component.
    pub dispatch_time: Seconds,
    /// Dynamic energy: device power over latency plus DRAM access energy.
    pub energy: Joules,
}

impl ComputeEstimate {
    /// An estimate of zero cost.
    pub fn zero() -> Self {
        ComputeEstimate {
            time: Seconds::ZERO,
            compute_time: Seconds::ZERO,
            memory_time: Seconds::ZERO,
            dispatch_time: Seconds::ZERO,
            energy: Joules::ZERO,
        }
    }
}

/// Applies the common device formula to a cost profile.
///
/// `ma_scale` scales the multiply/add throughput for devices whose usable
/// parallelism depends on the op (the fixed-function pool passes
/// `units_granted / total_units`); pass 1.0 elsewhere.
///
/// # Examples
///
/// ```
/// use pim_hw::params::estimate;
/// use pim_hw::cpu::CpuDevice;
/// use pim_tensor::cost::{CostProfile, OffloadClass};
/// use pim_common::units::Bytes;
///
/// let cpu = CpuDevice::xeon_e5_2630_v3();
/// let cost = CostProfile::compute(
///     1e9, 1e9, 0.0, Bytes::new(1e8), Bytes::new(1e8),
///     OffloadClass::FullyMulAdd, 100,
/// );
/// let est = estimate(cpu.params(), &cost, 1.0);
/// assert!(est.time.seconds() > 0.0);
/// assert!(est.energy.joules() > 0.0);
/// ```
///
/// # Panics
///
/// Panics in debug builds when `ma_scale` is not in `(0, 1]` or the params
/// contain non-positive throughputs.
pub fn estimate(params: &DeviceParams, cost: &CostProfile, ma_scale: f64) -> ComputeEstimate {
    debug_assert!(ma_scale > 0.0 && ma_scale <= 1.0, "ma_scale out of range");
    debug_assert!(params.ma_throughput > 0.0 && params.other_throughput > 0.0);
    let compute_time = Seconds::new(
        cost.ma_flops() / (params.ma_throughput * ma_scale)
            + cost.other_flops / params.other_throughput
            + cost.control_ops / params.control_throughput,
    );
    let memory_time = memory_time(params, cost.total_bytes(), cost.pattern);
    let busy = compute_time.max(memory_time);
    let time = busy + params.dispatch_overhead;
    let energy =
        params.dynamic_power * time + params.memory_path.transfer_energy(cost.total_bytes());
    ComputeEstimate {
        time,
        compute_time,
        memory_time,
        dispatch_time: params.dispatch_overhead,
        energy,
    }
}

/// Time to move `bytes` through this device's memory system.
pub fn memory_time(params: &DeviceParams, bytes: Bytes, pattern: AccessPattern) -> Seconds {
    Seconds::new(bytes.bytes() / (params.bandwidth * bandwidth_efficiency(pattern)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_tensor::cost::OffloadClass;

    fn params() -> DeviceParams {
        DeviceParams {
            name: "test",
            ma_throughput: 1e9,
            other_throughput: 1e9,
            control_throughput: 1e10,
            bandwidth: 1e9,
            dispatch_overhead: Seconds::new(1e-6),
            dynamic_power: Watts::new(10.0),
            memory_path: MemoryPath::HostDdr4,
        }
    }

    fn cost(ma: f64, bytes: f64) -> CostProfile {
        CostProfile::compute(
            ma / 2.0,
            ma / 2.0,
            0.0,
            Bytes::new(bytes / 2.0),
            Bytes::new(bytes / 2.0),
            OffloadClass::FullyMulAdd,
            1,
        )
    }

    #[test]
    fn compute_bound_op_is_limited_by_flops() {
        let est = estimate(&params(), &cost(1e9, 64.0), 1.0);
        assert!(est.compute_time > est.memory_time);
        // ~1 second of MA work plus control overhead.
        assert!(est.time.seconds() >= 1.0);
    }

    #[test]
    fn memory_bound_op_is_limited_by_bandwidth() {
        let est = estimate(&params(), &cost(8.0, 1e9), 1.0);
        assert!(est.memory_time > est.compute_time);
        // 1 GB over 0.9 GB/s effective.
        assert!((est.time.seconds() - 1.0 / 0.9).abs() < 0.01);
    }

    #[test]
    fn ma_scale_slows_down_partial_allocation() {
        let full = estimate(&params(), &cost(1e9, 64.0), 1.0);
        let half = estimate(&params(), &cost(1e9, 64.0), 0.5);
        assert!(half.time > full.time);
    }

    #[test]
    fn dispatch_overhead_always_charged() {
        let est = estimate(&params(), &CostProfile::empty(), 1.0);
        assert_eq!(est.time, Seconds::new(1e-6));
    }

    #[test]
    fn energy_includes_dram_access_component() {
        let small = estimate(&params(), &cost(1e6, 64.0), 1.0);
        let big = estimate(&params(), &cost(1e6, 1e9), 1.0);
        assert!(big.energy > small.energy);
    }
}
