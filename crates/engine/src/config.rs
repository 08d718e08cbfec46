//! Cluster and hardware-model configuration.
//!
//! The paper evaluates on 11 r5a.2xlarge instances (one master, ten workers,
//! two executors each) with gp2 SSDs (§7.1). We reproduce that topology at
//! laptop scale: the executor count, slot count, memory-store capacity and
//! the throughput constants below are the knobs that define the simulated
//! performance model. Defaults are calibrated so that the *ratios* between
//! compute, (de)serialization, disk and network costs match a commodity
//! cloud node (SSD ~200 MB/s sustained, ~1 GB/s effective network per
//! executor, serialization slower than raw disk bandwidth).

use crate::fault::FaultPlan;
use blaze_common::error::{BlazeError, Result};
use blaze_common::{ByteSize, SimDuration};

/// Throughput constants of the simulated hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareModel {
    /// Sequential disk write throughput in bytes/second.
    pub disk_write_bps: f64,
    /// Sequential disk read throughput in bytes/second.
    pub disk_read_bps: f64,
    /// Serialization throughput in bytes/second (memory -> wire/disk form).
    pub ser_bps: f64,
    /// Deserialization throughput in bytes/second.
    pub deser_bps: f64,
    /// Per-executor effective network throughput in bytes/second.
    pub network_bps: f64,
    /// Footprint factor of the serialized in-memory representation: an
    /// s-state block occupies `logical_bytes × ser_footprint` in the memory
    /// store (Alluxio-style packed bytes, §7.2). Must be in (0, 1].
    pub ser_footprint: f64,
}

impl Default for HardwareModel {
    fn default() -> Self {
        Self {
            disk_write_bps: 180.0e6,
            disk_read_bps: 220.0e6,
            // JVM object serialization is far slower than raw disk
            // bandwidth; these rates make (de)serialization the dominant
            // part of cache disk I/O, as the paper measures (Fig. 4).
            ser_bps: 120.0e6,
            deser_bps: 160.0e6,
            network_bps: 1.0e9,
            // Packed serialized rows are ~40% smaller than the object graph
            // (§7.2's Alluxio regime).
            ser_footprint: 0.6,
        }
    }
}

impl HardwareModel {
    /// Time to serialize `bytes` of data with the given type factor.
    ///
    /// A negative `ser_factor` is a plan-construction bug: it is rejected at
    /// preflight by the `BA009` audit, so it must never reach cost math,
    /// where it would produce negative durations.
    pub fn ser_time(&self, bytes: ByteSize, ser_factor: f64) -> SimDuration {
        debug_assert!(ser_factor >= 0.0, "negative ser_factor {ser_factor} reached ser_time");
        SimDuration::from_secs_f64(bytes.as_bytes() as f64 * ser_factor / self.ser_bps)
    }

    /// Time to deserialize `bytes` of data with the given type factor.
    ///
    /// See [`Self::ser_time`] on why `ser_factor` is not clamped here.
    pub fn deser_time(&self, bytes: ByteSize, ser_factor: f64) -> SimDuration {
        debug_assert!(ser_factor >= 0.0, "negative ser_factor {ser_factor} reached deser_time");
        SimDuration::from_secs_f64(bytes.as_bytes() as f64 * ser_factor / self.deser_bps)
    }

    /// Time to write `bytes` to disk (raw I/O, excluding serialization).
    pub fn disk_write_time(&self, bytes: ByteSize) -> SimDuration {
        SimDuration::from_secs_f64(bytes.as_bytes() as f64 / self.disk_write_bps)
    }

    /// Time to read `bytes` from disk (raw I/O, excluding deserialization).
    pub fn disk_read_time(&self, bytes: ByteSize) -> SimDuration {
        SimDuration::from_secs_f64(bytes.as_bytes() as f64 / self.disk_read_bps)
    }

    /// Time to transfer `bytes` over the network.
    pub fn network_time(&self, bytes: ByteSize) -> SimDuration {
        SimDuration::from_secs_f64(bytes.as_bytes() as f64 / self.network_bps)
    }

    /// Full cost of spilling a block to disk: serialize + write.
    ///
    /// This is the write half of the paper's disk cost (Eq. 3); data
    /// (de)serialization is included in disk I/O time as in Fig. 4.
    pub fn spill_time(&self, bytes: ByteSize, ser_factor: f64) -> SimDuration {
        self.ser_time(bytes, ser_factor) + self.disk_write_time(bytes)
    }

    /// Full cost of recovering a block from disk: read + deserialize.
    pub fn fetch_from_disk_time(&self, bytes: ByteSize, ser_factor: f64) -> SimDuration {
        self.disk_read_time(bytes) + self.deser_time(bytes, ser_factor)
    }
}

/// Configuration of the simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of executors.
    pub executors: usize,
    /// Concurrent task slots per executor (vCPUs devoted to tasks).
    pub slots_per_executor: usize,
    /// Memory-store capacity per executor (the cache budget, not total
    /// executor memory; cf. the paper's empirical 34% bound, §7.1).
    pub memory_capacity: ByteSize,
    /// Disk-store capacity per executor ("abundant" in the paper, §5.5).
    pub disk_capacity: ByteSize,
    /// Simulated hardware throughput model.
    pub hardware: HardwareModel,
    /// Real OS threads used to execute a stage's tasks in parallel.
    ///
    /// This only affects wall-clock time: metrics, simulated completion
    /// time and every cache decision are bit-identical for any value (see
    /// the plan/execute/commit pipeline in `cluster.rs`). Defaults to the
    /// host's available parallelism.
    pub worker_threads: usize,
    /// Deterministic fault-injection schedule. The default plan is fully
    /// disabled and the engine takes no fault path at all (zero cost;
    /// byte-identical results and metrics to a build without the feature).
    pub fault: FaultPlan,
    /// Retain the engine's event stream (see [`crate::tracing`]) in a
    /// deterministic [`crate::tracing::TraceLog`] retrievable via
    /// [`crate::cluster::Cluster::trace`]. Off by default. The engine emits
    /// the same events and folds them into [`crate::metrics::Metrics`]
    /// either way; only the policy rationale strings are skipped when off.
    pub tracing: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            executors: 4,
            slots_per_executor: 2,
            memory_capacity: ByteSize::from_mib(64),
            disk_capacity: ByteSize::from_gib(8),
            hardware: HardwareModel::default(),
            worker_threads: default_worker_threads(),
            fault: FaultPlan::default(),
            tracing: false,
        }
    }
}

/// Host parallelism, or 1 when it cannot be determined.
pub fn default_worker_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl ClusterConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.executors == 0 {
            return Err(BlazeError::Config("executors must be > 0".into()));
        }
        if self.slots_per_executor == 0 {
            return Err(BlazeError::Config("slots_per_executor must be > 0".into()));
        }
        if self.memory_capacity.is_zero() {
            return Err(BlazeError::Config("memory_capacity must be > 0".into()));
        }
        if self.worker_threads == 0 {
            return Err(BlazeError::Config("worker_threads must be > 0".into()));
        }
        let hw = &self.hardware;
        for (name, v) in [
            ("disk_write_bps", hw.disk_write_bps),
            ("disk_read_bps", hw.disk_read_bps),
            ("ser_bps", hw.ser_bps),
            ("deser_bps", hw.deser_bps),
            ("network_bps", hw.network_bps),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(BlazeError::Config(format!("{name} must be positive, got {v}")));
            }
        }
        let fp = hw.ser_footprint;
        if !fp.is_finite() || fp <= 0.0 || fp > 1.0 {
            return Err(BlazeError::Config(format!("ser_footprint must be in (0, 1], got {fp}")));
        }
        self.fault.validate(self.executors)?;
        Ok(())
    }

    /// Aggregate memory-store capacity across the cluster.
    pub fn total_memory(&self) -> ByteSize {
        self.memory_capacity * self.executors as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ClusterConfig::default().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = ClusterConfig { executors: 0, ..Default::default() };
        assert!(c.validate().is_err());
        let c = ClusterConfig { memory_capacity: ByteSize::ZERO, ..Default::default() };
        assert!(c.validate().is_err());
        let c = ClusterConfig {
            hardware: HardwareModel { disk_read_bps: 0.0, ..Default::default() },
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ClusterConfig {
            hardware: HardwareModel { network_bps: f64::NAN, ..Default::default() },
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ClusterConfig { worker_threads: 0, ..Default::default() };
        assert!(c.validate().is_err());
        for bad in [0.0, -0.3, 1.5, f64::NAN] {
            let c = ClusterConfig {
                hardware: HardwareModel { ser_footprint: bad, ..Default::default() },
                ..Default::default()
            };
            assert!(c.validate().is_err(), "ser_footprint {bad} must be rejected");
        }
    }

    #[test]
    fn fault_plan_is_validated_with_the_config() {
        use crate::fault::{ExecutorCrash, FaultPlan};
        use blaze_common::SimTime;
        let bad = ClusterConfig {
            fault: FaultPlan { task_failure_rate: 0.1, max_task_retries: 0, ..Default::default() },
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        // A crash targeting executor >= executors is rejected with the
        // config's own executor count.
        let out_of_range = ClusterConfig {
            executors: 2,
            fault: FaultPlan {
                crashes: vec![ExecutorCrash { at: SimTime::ZERO, executor: 2 }],
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(out_of_range.validate().is_err());
        let ok = ClusterConfig {
            fault: FaultPlan { task_failure_rate: 0.05, ..Default::default() },
            ..Default::default()
        };
        ok.validate().unwrap();
    }

    #[test]
    fn default_worker_threads_is_positive() {
        assert!(default_worker_threads() >= 1);
        assert!(ClusterConfig::default().worker_threads >= 1);
    }

    #[test]
    fn hardware_times_scale_with_bytes() {
        let hw = HardwareModel::default();
        let one = hw.disk_write_time(ByteSize::from_mib(1));
        let ten = hw.disk_write_time(ByteSize::from_mib(10));
        assert!(ten.as_secs_f64() > 9.0 * one.as_secs_f64());
        assert!(ten.as_secs_f64() < 11.0 * one.as_secs_f64());
    }

    #[test]
    fn ser_factor_scales_serialization_only() {
        let hw = HardwareModel::default();
        let plain = hw.spill_time(ByteSize::from_mib(8), 1.0);
        let heavy = hw.spill_time(ByteSize::from_mib(8), 4.0);
        assert!(heavy > plain);
        // Raw disk write component is unchanged.
        assert_eq!(
            heavy - hw.ser_time(ByteSize::from_mib(8), 4.0),
            plain - hw.ser_time(ByteSize::from_mib(8), 1.0)
        );
    }

    #[test]
    fn total_memory_multiplies_out() {
        let c = ClusterConfig {
            executors: 3,
            memory_capacity: ByteSize::from_mib(10),
            ..Default::default()
        };
        assert_eq!(c.total_memory(), ByteSize::from_mib(30));
    }
}
