/// Bringing your own application to the analyzer.
///
/// Defines a small two-kernel image pipeline (horizontal blur, then
/// threshold) as an Application subclass: real host data, kernel bodies,
/// byte-range access patterns and a cost descriptor. The analyzer
/// classifies it (MK-Seq, no inter-kernel synchronization needed), selects
/// SP-Unified, and the strategy runner profiles, partitions and executes
/// it — and we check the pixels are right.
#include <iostream>
#include <vector>

#include "analyzer/matchmaker.hpp"
#include "apps/app.hpp"
#include "common/strings.hpp"
#include "hw/platform.hpp"
#include "strategies/strategy_runner.hpp"

namespace {

using namespace hetsched;

class ImagePipelineApp final : public apps::Application {
 public:
  ImagePipelineApp(const hw::PlatformSpec& platform, std::int64_t rows,
                   std::int64_t cols)
      : Application(platform,
                    Config{.items = rows,
                           .iterations = 1,
                           .functional = true,
                           .costs = rt::RuntimeCosts{}},
                    make_descriptor(), /*sync_each_iteration=*/false),
        rows_(rows),
        cols_(cols) {
    const std::int64_t row_bytes = cols_ * 4;
    input_ = executor_->register_buffer("input", rows_ * row_bytes);
    blurred_ = executor_->register_buffer("blurred", rows_ * row_bytes);
    mask_ = executor_->register_buffer("mask", rows_ * row_bytes);
    reset_data();

    // Kernel 1: horizontal 3-tap blur, row-partitioned.
    hw::KernelTraits blur_traits;
    blur_traits.name = "blur";
    blur_traits.flops_per_item = 5.0 * static_cast<double>(cols_);
    blur_traits.device_bytes_per_item = 2.0 * static_cast<double>(row_bytes);
    blur_traits.cpu_compute_efficiency = 0.2;
    blur_traits.gpu_compute_efficiency = 0.4;
    rt::KernelDef blur;
    blur.name = "blur";
    blur.traits = blur_traits;
    blur.accesses = [this, row_bytes](std::int64_t begin, std::int64_t end) {
      return std::vector<mem::RegionAccess>{
          {{input_, {begin * row_bytes, end * row_bytes}},
           mem::AccessMode::kRead},
          {{blurred_, {begin * row_bytes, end * row_bytes}},
           mem::AccessMode::kWrite},
      };
    };
    blur.body = [this](std::int64_t begin, std::int64_t end) {
      for (std::int64_t r = begin; r < end; ++r)
        for (std::int64_t c = 0; c < cols_; ++c)
          host_blurred_[r * cols_ + c] = blur_at(r, c);
    };

    // Kernel 2: threshold the blurred image into a binary mask.
    hw::KernelTraits thr_traits;
    thr_traits.name = "threshold";
    thr_traits.flops_per_item = 1.0 * static_cast<double>(cols_);
    thr_traits.device_bytes_per_item = 2.0 * static_cast<double>(row_bytes);
    rt::KernelDef thr;
    thr.name = "threshold";
    thr.traits = thr_traits;
    thr.accesses = [this, row_bytes](std::int64_t begin, std::int64_t end) {
      return std::vector<mem::RegionAccess>{
          {{blurred_, {begin * row_bytes, end * row_bytes}},
           mem::AccessMode::kRead},
          {{mask_, {begin * row_bytes, end * row_bytes}},
           mem::AccessMode::kWrite},
      };
    };
    thr.body = [this](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin * cols_; i < end * cols_; ++i)
        host_mask_[i] = host_blurred_[i] > 0.5f ? 1.0f : 0.0f;
    };

    set_kernels({executor_->register_kernel(std::move(blur)),
                 executor_->register_kernel(std::move(thr))});
  }

  void verify() const override {
    for (std::int64_t r = 0; r < rows_; ++r) {
      for (std::int64_t c = 0; c < cols_; ++c) {
        const float expected_blur = blur_at(r, c);
        apps::check_close(host_blurred_[r * cols_ + c], expected_blur, 1e-4,
                          "blurred pixel");
        apps::check_close(host_mask_[r * cols_ + c],
                          expected_blur > 0.5f ? 1.0f : 0.0f, 1e-6,
                          "mask pixel");
      }
    }
  }

  void reset_data() override {
    host_input_.resize(static_cast<std::size_t>(rows_ * cols_));
    host_blurred_.assign(host_input_.size(), 0.0f);
    host_mask_.assign(host_input_.size(), 0.0f);
    for (std::int64_t i = 0; i < rows_ * cols_; ++i)
      host_input_[i] = static_cast<float>((i * 2654435761u % 1000)) / 1000.0f;
  }

 private:
  static analyzer::AppDescriptor make_descriptor() {
    analyzer::AppDescriptor descriptor;
    descriptor.name = "image-pipeline";
    descriptor.structure =
        analyzer::KernelGraph::sequence({"blur", "threshold"});
    descriptor.sync = analyzer::SyncReason::kNone;  // pure producer-consumer
    return descriptor;
  }

  float blur_at(std::int64_t r, std::int64_t c) const {
    auto pixel = [&](std::int64_t cc) {
      cc = std::clamp<std::int64_t>(cc, 0, cols_ - 1);
      return host_input_[r * cols_ + cc];
    };
    return (pixel(c - 1) + pixel(c) + pixel(c + 1)) / 3.0f;
  }

  std::int64_t rows_, cols_;
  mem::BufferId input_ = 0, blurred_ = 0, mask_ = 0;
  std::vector<float> host_input_, host_blurred_, host_mask_;
};

}  // namespace

int main() {
  using namespace hetsched;
  const hw::PlatformSpec platform = hw::make_reference_platform();
  ImagePipelineApp app(platform, /*rows=*/512, /*cols=*/512);

  std::cout << analyzer::Matchmaker{}.explain(app.descriptor()) << "\n";

  strategies::StrategyRunner runner(app);
  const auto matched = runner.run_matched();
  const auto only_cpu = runner.run(analyzer::StrategyKind::kOnlyCpu);

  app.verify();
  std::cout << "results verified against the sequential reference.\n\n";
  std::cout << analyzer::strategy_name(matched.result.kind) << ": "
            << format_fixed(matched.result.time_ms(), 3) << " ms (GPU share "
            << format_percent(matched.result.gpu_fraction_overall)
            << "), Only-CPU: " << format_fixed(only_cpu.time_ms(), 3)
            << " ms\n";
  return 0;
}
