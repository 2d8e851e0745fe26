#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"

/// Hardware platform descriptions.
///
/// A platform is a host CPU plus zero or more accelerators connected by a
/// host<->device interconnect. The shipped reference platform reproduces the
/// paper's Table III (Intel Xeon E5-2620 + Nvidia Tesla K20m); alternative
/// platforms support the what-if benches (PCIe sweeps, weaker GPUs).
namespace hetsched::hw {

enum class DeviceClass {
  kCpu,  ///< Host multi-core CPU; one execution lane per hardware thread.
  kGpu,  ///< Discrete GPU; one in-order command queue (one lane).
  /// Other offload accelerators behind the link (Xeon Phi class). They use
  /// the kernel's accelerator-side efficiencies, like GPUs.
  kAccelerator,
};

/// True for any device reached over the host link (not the host CPU).
constexpr bool is_offload_device(DeviceClass cls) {
  return cls != DeviceClass::kCpu;
}

const char* device_class_name(DeviceClass cls);

enum class Precision { kSingle, kDouble };

struct DeviceSpec {
  std::string name;
  DeviceClass cls = DeviceClass::kCpu;

  /// Physical compute units: CPU cores or GPU SMX count (informational).
  int cores = 1;
  /// Concurrent execution lanes. CPU: schedulable hardware threads (12 for a
  /// 6C/12T part). GPU: 1 — the runtime dispatches one task instance at a
  /// time per device queue, like one OpenCL in-order queue.
  int lanes = 1;

  double frequency_ghz = 1.0;
  double peak_sp_gflops = 0.0;
  double peak_dp_gflops = 0.0;
  double mem_bandwidth_gbs = 0.0;
  double mem_capacity_gb = 0.0;

  /// Partition-size granularity (items). GPU partitions are rounded up to a
  /// multiple of the warp size, per the paper's footnote 5; CPU uses 1.
  int partition_granularity = 1;

  /// Per-kernel-invocation fixed cost (driver/launch for GPUs, loop spawn
  /// for CPU task instances).
  SimTime launch_overhead = 0;

  double peak_gflops(Precision p) const {
    return p == Precision::kSingle ? peak_sp_gflops : peak_dp_gflops;
  }

  /// Peak FLOP/s available to ONE lane of this device.
  double lane_peak_flops(Precision p) const {
    return peak_gflops(p) * 1e9 / static_cast<double>(lanes);
  }

  /// Memory bandwidth (bytes/s) available to ONE lane when all lanes are
  /// busy. Lanes share the memory system, so per-lane bandwidth is the
  /// total divided by the lane count.
  double lane_bandwidth_bytes() const {
    return mem_bandwidth_gbs * 1e9 / static_cast<double>(lanes);
  }

  void validate() const;
};

/// Host <-> accelerator interconnect (PCIe in the reference platform).
struct LinkSpec {
  std::string name = "pcie";
  /// Effective end-to-end bandwidth, GB/s (pinned-memory PCIe gen2 x16 on
  /// the paper's testbed sustains ~6 GB/s).
  double bandwidth_gbs = 6.0;
  /// Per-transfer fixed latency (driver + DMA setup).
  SimTime latency = 10 * kMicrosecond;

  void validate() const;
};

struct PlatformSpec {
  std::string name;
  DeviceSpec cpu;
  std::vector<DeviceSpec> accelerators;
  LinkSpec link;

  /// All devices, CPU first. Device index 0 is always the host CPU.
  std::vector<DeviceSpec> all_devices() const;
  std::size_t device_count() const { return 1 + accelerators.size(); }

  void validate() const;
};

/// Index of a device within a platform: 0 = CPU, 1.. = accelerators.
using DeviceId = std::size_t;
inline constexpr DeviceId kCpuDevice = 0;

/// The paper's Table III platform: Xeon E5-2620 (6C/12T, 2.0 GHz, 384/192
/// SP/DP GFLOPS, 42.6 GB/s) + Tesla K20m (13 SMX, 0.705 GHz, 3519.3/1173.1
/// GFLOPS, 208 GB/s, 5 GB), PCIe at 6 GB/s effective.
PlatformSpec make_reference_platform();

/// Reference platform with a different host<->device bandwidth (GB/s); used
/// by the PCIe ablation bench.
PlatformSpec make_reference_platform_with_link(double bandwidth_gbs);

/// A platform with a low-end GPU (roughly GT 640 class): exercises decisions
/// where the CPU should win more often.
PlatformSpec make_small_gpu_platform();

/// A CPU-only platform (no accelerators): degenerate configuration used in
/// tests of the hardware-configuration decision.
PlatformSpec make_cpu_only_platform();

/// Reference CPU with TWO K20m GPUs sharing the PCIe link — exercises the
/// multi-accelerator partitioning the paper names as Glinda's general case.
PlatformSpec make_dual_gpu_platform();

/// Reference CPU + K20m + a Xeon Phi 5110P-class coprocessor: the
/// non-identical multi-accelerator configuration (and the "other types of
/// accelerators" of the paper's future work).
PlatformSpec make_cpu_gpu_phi_platform();

/// big.LITTLE-style asymmetric CPU: a big out-of-order cluster as the host
/// plus a LITTLE in-order cluster modeled as an accelerator-class device
/// behind a coherent on-chip fabric (high bandwidth, negligible latency).
/// Exercises partitioning when the "accelerator" is barely faster than one
/// host lane and transfers are nearly free.
PlatformSpec make_big_little_platform();

/// Four-device paper-successor configuration: reference CPU + 2x Tesla K20m
/// + Xeon Phi 5110P, all sharing one PCIe link. The widest shipped preset.
PlatformSpec make_quad_platform();

/// Deterministic synthetic multi-accelerator platform drawn from `seed`
/// (pure function of the seed): 1-3 accelerators with asymmetric
/// throughput, bandwidth, granularity, and launch-overhead draws around the
/// reference CPU. Named "synth-<seed>", so it round-trips through
/// platform_by_name and the sweep scenario key (which embeds the full spec).
PlatformSpec make_synthetic_platform(std::uint64_t seed);

/// Looks a shipped platform variant up by name: "reference" (or ""),
/// "small-gpu", "dual-gpu", "cpu-gpu-phi", "cpu-only", "big-little",
/// "quad", or a parametric "synth-<decimal seed>" (see
/// make_synthetic_platform). Throws InvalidArgument on an unknown name.
PlatformSpec platform_by_name(const std::string& name);

/// The preset names accepted by `platform_by_name`, in presentation order
/// (the parametric synth-<seed> family is not enumerated here).
const std::vector<std::string>& platform_names();

}  // namespace hetsched::hw
