//! The host CPU device model (Table IV: Intel Xeon E5-2630 v3 @ 2.4 GHz,
//! 16 GB DDR4).

use crate::params::{estimate, ComputeEstimate, DeviceParams};
use pim_common::fingerprint::Fingerprint;
use pim_common::units::{Seconds, Watts};
use pim_mem::energy::MemoryPath;
use pim_mem::planar::Ddr4Config;
use pim_tensor::cost::CostProfile;
use serde::Serialize;
use std::hash::Hasher;

/// The host CPU.
///
/// # Examples
///
/// ```
/// use pim_hw::cpu::CpuDevice;
/// let cpu = CpuDevice::xeon_e5_2630_v3();
/// assert_eq!(cpu.params().name, "CPU");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CpuDevice {
    params: DeviceParams,
}

impl CpuDevice {
    /// The paper's host: 8 cores x 2.4 GHz with AVX2 FMA.
    ///
    /// Effective multiply/add throughput reflects what multi-threaded
    /// TensorFlow conv/matmul kernels sustain on such a part (~50% of the
    /// 307 Gflop/s peak); non-mul/add and control work run near scalar
    /// rates.
    pub fn xeon_e5_2630_v3() -> Self {
        CpuDevice {
            params: DeviceParams {
                name: "CPU",
                ma_throughput: 220e9,
                other_throughput: 55e9,
                control_throughput: 220e9,
                bandwidth: Ddr4Config::xeon_host().config().peak_bytes_per_sec,
                dispatch_overhead: Seconds::new(2e-6),
                dynamic_power: Watts::new(70.0),
                memory_path: MemoryPath::HostDdr4,
            },
        }
    }

    /// A host CPU with caller-supplied parameters — non-Xeon hosts
    /// profile and schedule against their own part, not the paper's.
    ///
    /// # Examples
    ///
    /// ```
    /// use pim_hw::cpu::CpuDevice;
    /// let mut params = CpuDevice::xeon_e5_2630_v3().params().clone();
    /// params.name = "EPYC";
    /// params.ma_throughput *= 2.0;
    /// let epyc = CpuDevice::custom(params);
    /// assert_eq!(epyc.params().name, "EPYC");
    /// ```
    pub fn custom(params: DeviceParams) -> Self {
        CpuDevice { params }
    }

    /// The device parameters.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// Estimates one operation executed entirely on the CPU.
    pub fn estimate_op(&self, cost: &CostProfile) -> ComputeEstimate {
        estimate(&self.params, cost, 1.0)
    }
}

impl Fingerprint for CpuDevice {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        self.params.fingerprint(state);
    }
}

impl Default for CpuDevice {
    fn default() -> Self {
        CpuDevice::xeon_e5_2630_v3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::units::Bytes;
    use pim_tensor::cost::OffloadClass;

    #[test]
    fn memory_intensive_ops_are_bandwidth_bound() {
        let cpu = CpuDevice::xeon_e5_2630_v3();
        // BiasAddGrad-like op: 1 add per 8.8 bytes.
        let cost = CostProfile::compute(
            0.0,
            1e8,
            0.0,
            Bytes::new(8.8e8),
            Bytes::new(1e4),
            OffloadClass::FullyMulAdd,
            64,
        );
        let est = cpu.estimate_op(&cost);
        assert!(est.memory_time > est.compute_time);
    }

    #[test]
    fn compute_intensive_ops_are_flop_bound() {
        let cpu = CpuDevice::xeon_e5_2630_v3();
        // Conv-like op: high arithmetic intensity.
        let cost = CostProfile::compute(
            1e10,
            1e10,
            0.0,
            Bytes::new(1e8),
            Bytes::new(1e8),
            OffloadClass::FullyMulAdd,
            64,
        );
        let est = cpu.estimate_op(&cost);
        assert!(est.compute_time > est.memory_time);
        // 20 Gflop at 220 Gflop/s = 91 ms plus control.
        assert!(est.time.seconds() > 0.08 && est.time.seconds() < 0.3);
    }
}
