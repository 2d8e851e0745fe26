#pragma once

#include "runtime/scheduler.hpp"

/// Work-stealing variant of the breadth-first scheduler.
///
/// The paper's DP-Dep never moves a task off its dependency chain's device:
/// it minimizes transfers but leaves a fast device idle once its own work
/// is done (the MatrixMul pathology: the GPU gets one of twelve instances
/// and then watches the CPU grind). This scheduler relaxes exactly that
/// rule: an idle lane that finds neither local-chain nor fresh work STEALS
/// a task bound to another device's chain, accepting the transfer.
///
/// Still performance-blind — it cannot tell whether a steal pays off, only
/// that idling earns nothing. bench/ablation_scheduler quantifies where
/// stealing helps (compute-imbalanced workloads) and where it hurts
/// (transfer-bound chains), explaining why the paper's ranking needs the
/// performance-aware policy rather than mere stealing.
namespace hetsched::rt {

class WorkStealingScheduler final : public Scheduler {
 public:
  explicit WorkStealingScheduler(SimTime decision_cost = 1 * kMicrosecond)
      : decision_cost_(decision_cost) {}

  std::string name() const override { return "work-stealing"; }
  SimTime decision_cost() const override { return decision_cost_; }

  std::optional<ReadyPool::Handle> pick(hw::DeviceId device,
                                        const ReadyPool& pool,
                                        SimTime now) override {
    (void)now;
    if (auto local = pool.oldest(device, ReadyPool::Affinity::kLocal))
      return local;
    if (auto fresh = pool.oldest(device, ReadyPool::Affinity::kFree))
      return fresh;
    auto foreign = pool.oldest(device, ReadyPool::Affinity::kForeign);
    if (foreign) ++steals_;
    return foreign;
  }

  /// Number of cross-chain steals performed so far.
  std::size_t steal_count() const { return steals_; }

 private:
  SimTime decision_cost_;
  std::size_t steals_ = 0;
};

}  // namespace hetsched::rt
