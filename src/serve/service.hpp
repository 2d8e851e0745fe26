#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "hw/platform.hpp"
#include "obs/span.hpp"
#include "serve/protocol.hpp"

/// Request handlers of the matchmaker service.
///
/// `answer` is the single source of truth for what a query returns: the
/// CLI's offline match/explain/analyze verbs print answer()'s bytes, and
/// the daemon serves answer()'s bytes — which is what makes the protocol's
/// "byte-identical to the offline invocation" contract hold by
/// construction instead of by parallel maintenance.
namespace hetsched::serve {

/// Instantiates the application named `name` (a paper app id or one of the
/// extension apps) on `platform`, with the small functional configuration
/// when `small`. Throws InvalidArgument on an unknown name. This is the
/// app-construction policy every CLI verb uses.
std::unique_ptr<apps::Application> make_named_app(
    const std::string& name, const hw::PlatformSpec& platform, bool small,
    bool record_trace = false, bool record_obs = false);

/// The query operations `answer` implements ("shutdown" is handled by the
/// Server, not here).
const std::vector<std::string>& served_ops();

/// Per-answer observability side channel. Recording is passive: an answer
/// computed with a non-null AnswerTrace is byte-identical to one computed
/// without (the obs::SpanLog rides on the simulation without touching its
/// outcome), which keeps the cache-transparency contract intact.
struct AnswerTrace {
  /// Chunk-lifecycle spans of the simulation that computed the answer
  /// (populated for `analyze`; match/explain run no simulation).
  obs::SpanLog chunk_spans;
};

/// Computes the offline answer for `request`: exactly the bytes the
/// equivalent `hetsched_cli match|explain|analyze` invocation writes to
/// stdout. Deterministic — equal requests produce byte-identical answers,
/// which is the soundness premise of the daemon's scenario cache. Throws
/// hetsched::Error on an invalid request (unknown op/app/strategy).
/// With a non-null `trace`, the run's chunk spans are captured into it
/// (the answer bytes are unaffected).
std::string answer(const QueryRequest& request, AnswerTrace* trace);
std::string answer(const QueryRequest& request);

}  // namespace hetsched::serve
