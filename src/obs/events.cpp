#include "obs/events.hpp"

#include <chrono>
#include <ostream>

#include "api/status.hpp"
#include "obs/metrics_registry.hpp"
#include "support/json.hpp"

namespace dmpc::obs {

const char* event_type_name(EventType type) {
  switch (type) {
    case EventType::kSolveStarted: return "solve_started";
    case EventType::kSolveFinished: return "solve_finished";
    case EventType::kRoundCompleted: return "round_completed";
    case EventType::kCheckpointTaken: return "checkpoint_taken";
    case EventType::kRecoveryAttempt: return "recovery_attempt";
    case EventType::kRecovered: return "recovered";
    case EventType::kStorageDegraded: return "storage_degraded";
    case EventType::kCertificateClaim: return "certificate_claim";
  }
  return "?";
}

const char* event_section_name(EventSection section) {
  return section == EventSection::kModel ? "model" : "recovery";
}

EventSection event_section(EventType type) {
  switch (type) {
    case EventType::kSolveStarted:
    case EventType::kSolveFinished:
    case EventType::kRoundCompleted:
    case EventType::kCertificateClaim:
      return EventSection::kModel;
    case EventType::kCheckpointTaken:
    case EventType::kRecoveryAttempt:
    case EventType::kRecovered:
    case EventType::kStorageDegraded:
      return EventSection::kRecovery;
  }
  return EventSection::kModel;
}

namespace {

std::uint32_t category_bit(EventType type) {
  switch (type) {
    case EventType::kSolveStarted:
    case EventType::kSolveFinished:
      return EventFilter::kSolve;
    case EventType::kRoundCompleted: return EventFilter::kRound;
    case EventType::kCheckpointTaken: return EventFilter::kCheckpoint;
    case EventType::kRecoveryAttempt:
    case EventType::kRecovered:
      return EventFilter::kRecovery;
    case EventType::kStorageDegraded: return EventFilter::kStorage;
    case EventType::kCertificateClaim: return EventFilter::kCertificate;
  }
  return 0;
}

struct CategoryName {
  const char* name;
  std::uint32_t bit;
};

// Declaration order here is the canonical print order for
// event_filter_to_string.
constexpr CategoryName kCategories[] = {
    {"solve", EventFilter::kSolve},
    {"round", EventFilter::kRound},
    {"checkpoint", EventFilter::kCheckpoint},
    {"recovery", EventFilter::kRecovery},
    {"storage", EventFilter::kStorage},
    {"certificate", EventFilter::kCertificate},
};

[[noreturn]] void reject_filter(const std::string& message) {
  throw OptionsError(
      Status::error(StatusCode::kInvalidEventFilter, message));
}

std::int64_t unix_time_ms() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::milliseconds>(now).count();
}

}  // namespace

bool EventFilter::passes(EventType type) const {
  return (mask_ & category_bit(type)) != 0;
}

EventFilter parse_event_filter(const std::string& text) {
  if (text.empty()) reject_filter("event filter must name at least one category");
  std::uint32_t mask = 0;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = text.find(',', begin);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    const std::string token = text.substr(begin, end - begin);
    if (token.empty()) reject_filter("empty category in event filter");
    std::uint32_t bit = 0;
    if (token == "all") {
      bit = EventFilter::kAll;
    } else {
      for (const CategoryName& cat : kCategories) {
        if (token == cat.name) {
          bit = cat.bit;
          break;
        }
      }
    }
    if (bit == 0) reject_filter("unknown event category '" + token + "'");
    if ((mask & bit) == bit) {
      reject_filter("duplicate event category '" + token + "'");
    }
    mask |= bit;
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return EventFilter(mask);
}

std::string event_filter_to_string(const EventFilter& filter) {
  if (filter.passes_all()) return "all";
  std::string out;
  for (const CategoryName& cat : kCategories) {
    if ((filter.mask() & cat.bit) == 0) continue;
    if (!out.empty()) out += ',';
    out += cat.name;
  }
  return out;
}

bool EventBus::subscribe(EventSink* sink) {
  if (sink == nullptr || sinks_.size() >= kMaxSubscribers) return false;
  sinks_.push_back(sink);
  return true;
}

void EventBus::emit(ProgressEvent event) {
  if (finished_) return;
  event.section = event_section(event.type);
  std::uint64_t& seq = event.section == EventSection::kModel
                           ? model_seq_
                           : recovery_seq_;
  event.seq = seq++;
  event.host_wall_ns = wall_time_ns();
  event.host_unix_ms = unix_time_ms();
  if (!filter_.passes(event.type)) {
    ++filtered_;
    return;
  }
  for (EventSink* sink : sinks_) sink->on_event(event);
}

void EventBus::finish() {
  if (finished_) return;
  finished_ = true;
  for (EventSink* sink : sinks_) sink->finish();
}

std::string event_to_jsonl(const ProgressEvent& event, bool include_host) {
  Json line = Json::object()
                  .set("v", static_cast<std::int64_t>(kEventStreamVersion))
                  .set("section", event_section_name(event.section))
                  .set("seq", event.seq)
                  .set("type", event_type_name(event.type))
                  .set("label", event.label)
                  .set("round", event.round)
                  .set("rounds", event.rounds)
                  .set("comm_words", event.comm_words)
                  .set("load_max", event.load_max)
                  .set("gini_ppm", event.gini_ppm)
                  .set("value", event.value)
                  .set("detail", event.detail);
  if (include_host) {
    line.set("host", Json::object()
                         .set("wall_ns", event.host_wall_ns)
                         .set("unix_ms", event.host_unix_ms));
  }
  return line.dump();
}

void JsonlEventSink::on_event(const ProgressEvent& event) {
  *out_ << event_to_jsonl(event, include_host_) << '\n';
}

void JsonlEventSink::finish() { out_->flush(); }

void ProgressLineSink::on_event(const ProgressEvent& event) {
  bool urgent = false;
  switch (event.type) {
    case EventType::kSolveStarted:
    case EventType::kSolveFinished:
    case EventType::kRecoveryAttempt:
    case EventType::kRecovered:
    case EventType::kStorageDegraded:
      urgent = true;
      break;
    case EventType::kCertificateClaim:
      urgent = event.value == 0;  // failed claims always surface
      break;
    default:
      break;
  }
  if (!urgent) {
    if (event.type != EventType::kRoundCompleted) return;
    if (printed_any_ &&
        event.host_wall_ns - last_round_print_ns_ < min_interval_ns_) {
      return;
    }
    last_round_print_ns_ = event.host_wall_ns;
  }
  printed_any_ = true;
  *out_ << "[dmpc] " << event_type_name(event.type);
  if (!event.label.empty()) *out_ << ' ' << event.label;
  if (event.type == EventType::kRoundCompleted ||
      event.type == EventType::kSolveFinished) {
    *out_ << " round=" << event.round << " comm_words=" << event.comm_words;
  }
  if (event.type == EventType::kRecoveryAttempt) {
    *out_ << " attempt=" << event.value << " round=" << event.round;
  }
  if (event.type == EventType::kCertificateClaim && event.value == 0) {
    *out_ << " FAILED " << event.detail;
  }
  *out_ << '\n';
  out_->flush();
}

void ProgressLineSink::finish() { out_->flush(); }

std::string model_projection(const std::vector<ProgressEvent>& events) {
  std::string out;
  for (const ProgressEvent& event : events) {
    if (event.section != EventSection::kModel) continue;
    out += event_to_jsonl(event, /*include_host=*/false);
    out += '\n';
  }
  return out;
}

}  // namespace dmpc::obs
