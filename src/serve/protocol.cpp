#include "serve/protocol.hpp"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hpp"

namespace hetsched::serve {

json::Value QueryRequest::to_json() const {
  json::Value value;
  value.set("version", json::Value(kProtocolVersion));
  value.set("op", json::Value(op));
  value.set("app", json::Value(app));
  value.set("platform", json::Value(platform));
  value.set("strategy", json::Value(strategy));
  value.set("sync", json::Value(sync));
  value.set("small", json::Value(small));
  value.set("tasks", json::Value(tasks));
  value.set("gantt", json::Value(gantt));
  value.set("json", json::Value(json));
  value.set("trace", json::Value(trace));
  return value;
}

QueryRequest QueryRequest::from_json(const json::Value& value) {
  const std::string version = value.at("version").as_string();
  HS_REQUIRE(version == kProtocolVersion,
             "protocol version mismatch: peer speaks '"
                 << version << "', this build speaks '" << kProtocolVersion
                 << "'");
  QueryRequest request;
  request.op = value.at("op").as_string();
  if (const json::Value* app = value.find("app"))
    request.app = app->as_string();
  if (const json::Value* platform = value.find("platform"))
    request.platform = platform->as_string();
  if (const json::Value* strategy = value.find("strategy"))
    request.strategy = strategy->as_string();
  if (const json::Value* sync = value.find("sync"))
    request.sync = sync->as_bool();
  if (const json::Value* small = value.find("small"))
    request.small = small->as_bool();
  if (const json::Value* tasks = value.find("tasks")) {
    const std::int64_t count = tasks->as_int64();
    HS_REQUIRE(count >= 0 && count <= kMaxServedTasks,
               "tasks must be in [0, " << kMaxServedTasks << "], got "
                                       << count);
    request.tasks = static_cast<int>(count);
  }
  if (const json::Value* gantt = value.find("gantt"))
    request.gantt = gantt->as_bool();
  if (const json::Value* json_flag = value.find("json"))
    request.json = json_flag->as_bool();
  if (const json::Value* trace = value.find("trace"))
    request.trace = trace->as_string();
  return request;
}

std::string QueryRequest::cache_key() const {
  std::string key;
  key.reserve(128);
  key += "serve-version=";
  key += kProtocolVersion;
  key += "\nop=" + op;
  key += "\napp=" + app;
  key += "\nplatform=" + platform;
  key += "\nstrategy=" + strategy;
  key += "\nsync=" + std::string(sync ? "1" : "0");
  key += "\nsmall=" + std::string(small ? "1" : "0");
  key += "\ntasks=" + std::to_string(tasks);
  key += "\ngantt=" + std::string(gantt ? "1" : "0");
  key += "\njson=" + std::string(json ? "1" : "0");
  key += "\n";
  return key;
}

const char* response_status_name(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kError: return "error";
    case ResponseStatus::kOverload: return "overload";
    case ResponseStatus::kShuttingDown: return "shutting-down";
  }
  return "?";
}

ResponseStatus response_status_from_name(const std::string& name) {
  if (name == "ok") return ResponseStatus::kOk;
  if (name == "error") return ResponseStatus::kError;
  if (name == "overload") return ResponseStatus::kOverload;
  if (name == "shutting-down") return ResponseStatus::kShuttingDown;
  throw InvalidArgument("unknown response status '" + name + "'");
}

json::Value QueryResponse::to_json() const {
  json::Value value;
  value.set("version", json::Value(kProtocolVersion));
  value.set("status", json::Value(response_status_name(status)));
  value.set("output", json::Value(output));
  value.set("error", json::Value(error));
  value.set("retry_after_ms", json::Value(retry_after_ms));
  value.set("cache_hit", json::Value(cache_hit));
  value.set("trace_id", json::Value(trace_id));
  return value;
}

QueryResponse QueryResponse::from_json(const json::Value& value) {
  const std::string version = value.at("version").as_string();
  HS_REQUIRE(version == kProtocolVersion,
             "protocol version mismatch: peer speaks '"
                 << version << "', this build speaks '" << kProtocolVersion
                 << "'");
  QueryResponse response;
  response.status = response_status_from_name(value.at("status").as_string());
  response.output = value.at("output").as_string();
  response.error = value.at("error").as_string();
  response.retry_after_ms = value.at("retry_after_ms").as_number();
  response.cache_hit = value.at("cache_hit").as_bool();
  if (const json::Value* trace_id = value.find("trace_id"))
    response.trace_id = trace_id->as_string();
  return response;
}

bool write_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                  errno == EWOULDBLOCK))
      continue;
    return false;
  }
  return true;
}

bool write_frame(int fd, const json::Value& value) {
  return write_all(fd, value.dump() + "\n");
}

FrameReader::Result FrameReader::read(std::string& frame,
                                      const std::atomic<bool>* give_up) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      frame = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      // HTTP request lines end \r\n; JSON frames never contain a bare \r.
      if (!frame.empty() && frame.back() == '\r') frame.pop_back();
      return Result::kFrame;
    }
    if (buffer_.size() > kMaxFrameBytes) return Result::kOverflow;

    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return Result::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // SO_RCVTIMEO expired: an idle peer, which is fine — unless the
      // daemon is draining, in which case the wait ends here.
      if (give_up != nullptr && give_up->load(std::memory_order_relaxed))
        return Result::kGaveUp;
      continue;
    }
    return Result::kClosed;
  }
}

}  // namespace hetsched::serve
