#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace hetsched::obs {
namespace {

// Splits `name{a=b,c=d}` into the bare name and label pairs. Returns false
// when the key is structurally malformed.
bool split_key(std::string_view key, std::string& name,
               std::vector<std::pair<std::string, std::string>>& labels) {
  name.clear();
  labels.clear();
  const std::size_t brace = key.find('{');
  if (brace == std::string_view::npos) {
    if (key.empty() || key.find('}') != std::string_view::npos) return false;
    name.assign(key);
    return true;
  }
  if (brace == 0 || key.back() != '}') return false;
  name.assign(key.substr(0, brace));
  std::string_view body = key.substr(brace + 1, key.size() - brace - 2);
  if (body.empty()) return false;
  while (!body.empty()) {
    const std::size_t comma = body.find(',');
    const std::string_view item =
        comma == std::string_view::npos ? body : body.substr(0, comma);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) return false;
    labels.emplace_back(std::string(item.substr(0, eq)),
                        std::string(item.substr(eq + 1)));
    if (comma == std::string_view::npos) break;
    body.remove_prefix(comma + 1);
  }
  return true;
}

// Prometheus metric names allow [a-zA-Z0-9_:] only.
std::string prom_name(std::string_view raw) {
  std::string out = "hs_";
  for (char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string prom_labels(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const char* extra_key = nullptr, const std::string& extra_value = "") {
  if (labels.empty() && extra_key == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + json::escape(v) + "\"";
  }
  if (extra_key != nullptr) {
    if (!first) out += ",";
    out += std::string(extra_key) + "=\"" + json::escape(extra_value) + "\"";
  }
  out += "}";
  return out;
}

struct PromEntry {
  std::string labels;  // rendered {..} suffix, may be empty
  std::string body;    // the sample line(s), already name-prefixed
};

}  // namespace

std::string metric_key(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string key(name);
  if (labels.size() == 0) return key;
  std::vector<std::pair<std::string_view, std::string_view>> sorted(labels);
  std::sort(sorted.begin(), sorted.end());
  key.push_back('{');
  bool first = true;
  for (const auto& [k, v] : sorted) {
    if (!first) key.push_back(',');
    first = false;
    key.append(k);
    key.push_back('=');
    key.append(v);
  }
  key.push_back('}');
  return key;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  weights_.assign(bounds_.size() + 1, 0.0);
  exemplars_.assign(bounds_.size() + 1, Exemplar{});
}

void Histogram::observe(double value, double weight,
                        std::string_view exemplar_trace) {
  std::size_t bucket = bounds_.size();
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  weights_[bucket] += weight;
  sum_ += value * weight;
  total_weight_ += weight;
  if (!exemplar_trace.empty()) {
    // Last writer wins: the exemplar is a *recent* representative of the
    // bucket, not an extreme, matching OpenMetrics practice.
    exemplars_[bucket] = {value, std::string(exemplar_trace), true};
    has_exemplars_ = true;
  }
}

std::vector<double> Histogram::default_bounds() {
  // 0.01 ms .. ~164 s, powers of 4: wide enough for chunk computes and
  // whole-run distributions alike.
  std::vector<double> bounds;
  double b = 0.01;
  for (int i = 0; i < 12; ++i) {
    bounds.push_back(b);
    b *= 4.0;
  }
  return bounds;
}

std::vector<CounterTrack::Sample> CounterTrack::series() const {
  std::vector<Event> sorted = events_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event& a, const Event& b) { return a.time < b.time; });
  std::vector<Sample> out;
  double value = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i].absolute) {
      value = sorted[i].value;
    } else {
      value += sorted[i].value;
    }
    // Emit one sample per distinct timestamp: the value after the last
    // event at that instant.
    if (i + 1 == sorted.size() || sorted[i + 1].time != sorted[i].time) {
      out.push_back({sorted[i].time, value});
    }
  }
  return out;
}

void MetricsRegistry::counter_add(std::string_view key, std::int64_t delta) {
  if (!enabled_) return;
  counters_[std::string(key)] += delta;
}

void MetricsRegistry::gauge_set(std::string_view key, double value) {
  if (!enabled_) return;
  gauges_[std::string(key)] = value;
}

void MetricsRegistry::observe(std::string_view key, double value,
                              double weight,
                              std::string_view exemplar_trace) {
  if (!enabled_) return;
  auto it = histograms_.find(std::string(key));
  if (it == histograms_.end()) {
    std::vector<double> bounds = Histogram::default_bounds();
    auto pending = pending_bounds_.find(std::string(key));
    if (pending != pending_bounds_.end()) {
      bounds = pending->second;
      pending_bounds_.erase(pending);
    }
    it = histograms_.emplace(std::string(key), Histogram(std::move(bounds)))
             .first;
  }
  it->second.observe(value, weight, exemplar_trace);
}

void MetricsRegistry::histogram_bounds(std::string_view key,
                                       std::vector<double> bounds) {
  if (!enabled_) return;
  if (histograms_.count(std::string(key)) != 0) return;
  pending_bounds_[std::string(key)] = std::move(bounds);
}

void MetricsRegistry::track_add(std::string_view key, SimTime time,
                                double delta) {
  if (!enabled_) return;
  tracks_[std::string(key)].add(time, delta);
}

void MetricsRegistry::track_set(std::string_view key, SimTime time,
                                double value) {
  if (!enabled_) return;
  tracks_[std::string(key)].set(time, value);
}

std::int64_t MetricsRegistry::counter(std::string_view key) const {
  auto it = counters_.find(std::string(key));
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(std::string_view key) const {
  auto it = gauges_.find(std::string(key));
  return it == gauges_.end() ? 0.0 : it->second;
}

const CounterTrack* MetricsRegistry::find_track(std::string_view key) const {
  auto it = tracks_.find(std::string(key));
  return it == tracks_.end() ? nullptr : &it->second;
}

json::Value MetricsRegistry::to_json() const {
  json::Value root = json::Value(json::Value::Object{});
  root.set("enabled", json::Value(enabled_));
  json::Value counters = json::Value(json::Value::Object{});
  for (const auto& [key, value] : counters_) {
    counters.set(key, json::Value(static_cast<double>(value)));
  }
  root.set("counters", std::move(counters));
  json::Value gauges = json::Value(json::Value::Object{});
  for (const auto& [key, value] : gauges_) {
    gauges.set(key, json::Value(value));
  }
  root.set("gauges", std::move(gauges));
  json::Value histograms = json::Value(json::Value::Object{});
  for (const auto& [key, hist] : histograms_) {
    json::Value h = json::Value(json::Value::Object{});
    json::Value bounds = json::Value(json::Value::Array{});
    for (double b : hist.bounds()) bounds.push_back(json::Value(b));
    h.set("bounds", std::move(bounds));
    json::Value weights = json::Value(json::Value::Array{});
    for (double w : hist.weights()) weights.push_back(json::Value(w));
    h.set("weights", std::move(weights));
    h.set("sum", json::Value(hist.sum()));
    h.set("count", json::Value(hist.total_weight()));
    // Only histograms that actually carry exemplars grow the member, so
    // pre-exemplar documents (and cache payloads) stay byte-identical.
    if (hist.has_exemplars()) {
      json::Value exemplars = json::Value(json::Value::Array{});
      for (std::size_t i = 0; i < hist.exemplars().size(); ++i) {
        const Histogram::Exemplar& ex = hist.exemplars()[i];
        if (!ex.valid) continue;
        json::Value e = json::Value(json::Value::Object{});
        e.set("bucket", json::Value(static_cast<double>(i)));
        e.set("value", json::Value(ex.value));
        e.set("trace_id", json::Value(ex.trace_id));
        exemplars.push_back(std::move(e));
      }
      h.set("exemplars", std::move(exemplars));
    }
    histograms.set(key, std::move(h));
  }
  root.set("histograms", std::move(histograms));
  json::Value tracks = json::Value(json::Value::Object{});
  for (const auto& [key, track] : tracks_) {
    json::Value series = json::Value(json::Value::Array{});
    for (const auto& sample : track.series()) {
      json::Value point = json::Value(json::Value::Array{});
      point.push_back(json::Value(static_cast<double>(sample.time)));
      point.push_back(json::Value(sample.value));
      series.push_back(std::move(point));
    }
    tracks.set(key, std::move(series));
  }
  root.set("tracks", std::move(tracks));
  return root;
}

std::string MetricsRegistry::to_prometheus() const {
  // Group samples by bare metric name so each `# TYPE` line covers one
  // contiguous block, as the exposition format requires.
  std::ostringstream out;
  auto emit_section = [&out](const std::map<std::string, std::vector<PromEntry>>&
                                 groups,
                             const char* type) {
    for (const auto& [name, entries] : groups) {
      out << "# TYPE " << name << " " << type << "\n";
      for (const auto& entry : entries) out << entry.body;
    }
  };

  std::map<std::string, std::vector<PromEntry>> counter_groups;
  for (const auto& [key, value] : counters_) {
    std::string name;
    std::vector<std::pair<std::string, std::string>> labels;
    if (!split_key(key, name, labels)) continue;
    const std::string pname = prom_name(name);
    counter_groups[pname].push_back(
        {prom_labels(labels),
         pname + prom_labels(labels) + " " + std::to_string(value) + "\n"});
  }
  emit_section(counter_groups, "counter");

  std::map<std::string, std::vector<PromEntry>> gauge_groups;
  for (const auto& [key, value] : gauges_) {
    std::string name;
    std::vector<std::pair<std::string, std::string>> labels;
    if (!split_key(key, name, labels)) continue;
    const std::string pname = prom_name(name);
    gauge_groups[pname].push_back(
        {prom_labels(labels),
         pname + prom_labels(labels) + " " + json::format_double(value) +
             "\n"});
  }
  // Counter tracks expose their final value as a gauge.
  for (const auto& [key, track] : tracks_) {
    std::string name;
    std::vector<std::pair<std::string, std::string>> labels;
    if (!split_key(key, name, labels)) continue;
    const auto series = track.series();
    const double last = series.empty() ? 0.0 : series.back().value;
    const std::string pname = prom_name(name);
    gauge_groups[pname].push_back(
        {prom_labels(labels),
         pname + prom_labels(labels) + " " + json::format_double(last) +
             "\n"});
  }
  emit_section(gauge_groups, "gauge");

  std::map<std::string, std::vector<PromEntry>> hist_groups;
  for (const auto& [key, hist] : histograms_) {
    std::string name;
    std::vector<std::pair<std::string, std::string>> labels;
    if (!split_key(key, name, labels)) continue;
    const std::string pname = prom_name(name);
    std::ostringstream body;
    // Exemplar suffixes follow OpenMetrics: `# {trace_id="..."} value`
    // appended to the bucket line, emitted only when a traced observation
    // actually landed in that bucket (untraced output is byte-identical
    // to the pre-exemplar format).
    auto exemplar_suffix = [&hist](std::size_t bucket) -> std::string {
      const Histogram::Exemplar& ex = hist.exemplars()[bucket];
      if (!ex.valid) return "";
      return " # {trace_id=\"" + json::escape(ex.trace_id) + "\"} " +
             json::format_double(ex.value);
    };
    double cumulative = 0.0;
    for (std::size_t i = 0; i < hist.bounds().size(); ++i) {
      cumulative += hist.weights()[i];
      body << pname << "_bucket"
           << prom_labels(labels, "le", json::format_double(hist.bounds()[i]))
           << " " << json::format_double(cumulative) << exemplar_suffix(i)
           << "\n";
    }
    cumulative += hist.weights().back();
    body << pname << "_bucket" << prom_labels(labels, "le", "+Inf") << " "
         << json::format_double(cumulative)
         << exemplar_suffix(hist.bounds().size()) << "\n";
    body << pname << "_sum" << prom_labels(labels) << " "
         << json::format_double(hist.sum()) << "\n";
    body << pname << "_count" << prom_labels(labels) << " "
         << json::format_double(hist.total_weight()) << "\n";
    hist_groups[pname].push_back({prom_labels(labels), body.str()});
  }
  emit_section(hist_groups, "histogram");
  return out.str();
}

std::vector<std::string> MetricsRegistry::validate() const {
  std::vector<std::string> problems;
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  auto check_key = [&](const std::string& key, const char* kind) {
    if (!split_key(key, name, labels)) {
      problems.push_back(std::string(kind) + " key '" + key +
                         "' is malformed");
    }
  };
  for (const auto& [key, value] : counters_) {
    check_key(key, "counter");
    if (value < 0) {
      problems.push_back("counter '" + key + "' is negative (" +
                         std::to_string(value) + ")");
    }
  }
  for (const auto& [key, value] : gauges_) {
    check_key(key, "gauge");
    if (!std::isfinite(value)) {
      problems.push_back("gauge '" + key + "' is not finite");
    }
  }
  for (const auto& [key, hist] : histograms_) {
    check_key(key, "histogram");
    for (double w : hist.weights()) {
      if (w < 0.0 || !std::isfinite(w)) {
        problems.push_back("histogram '" + key + "' has an invalid weight");
        break;
      }
    }
    if (!std::isfinite(hist.sum())) {
      problems.push_back("histogram '" + key + "' sum is not finite");
    }
  }
  for (const auto& [key, track] : tracks_) {
    check_key(key, "track");
    for (const auto& sample : track.series()) {
      if (sample.time < 0) {
        problems.push_back("track '" + key + "' has a negative-time sample");
        break;
      }
      if (!std::isfinite(sample.value)) {
        problems.push_back("track '" + key + "' has a non-finite sample");
        break;
      }
    }
  }
  return problems;
}

void observe_time_weighted(MetricsRegistry& registry,
                           std::string_view hist_key,
                           const std::vector<CounterTrack::Sample>& series,
                           SimTime horizon) {
  for (std::size_t i = 0; i < series.size(); ++i) {
    const SimTime start = series[i].time;
    const SimTime end = i + 1 < series.size()
                            ? std::min(series[i + 1].time, horizon)
                            : horizon;
    if (end <= start) continue;
    registry.observe(hist_key, series[i].value, to_millis(end - start));
  }
}

}  // namespace hetsched::obs
