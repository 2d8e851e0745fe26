#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// Order statistics over raw samples (never histogram buckets).
namespace perfbench {

/// Linear-interpolated quantile q in [0, 1] of `samples` (sorted in place);
/// 0 for an empty sample.
double quantile(std::vector<double>& samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(samples, 0.5);
}

double sum(const std::vector<double>& samples);

/// Peak resident set of process `pid` (0 = this process) in MB, from
/// /proc/<pid>/status VmHWM; 0 when unavailable.
double peak_rss_mb(int pid = 0);

/// Waits until the file system holding `dir` has written back its dirty
/// data and metadata (syncfs), so file churn before this point - an
/// earlier run's deleted stores - cannot slow what comes after it.
void settle_disk(const std::string& dir);

}  // namespace perfbench
