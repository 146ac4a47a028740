#include "mpc/faults.hpp"

#include <sstream>

#include "obs/metrics_registry.hpp"
#include "support/parse_error.hpp"

namespace dmpc::mpc {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kStraggler:
      return "straggler";
  }
  return "unknown";
}

const char* checkpoint_mode_name(CheckpointMode mode) {
  switch (mode) {
    case CheckpointMode::kOff:
      return "off";
    case CheckpointMode::kRound:
      return "round";
    case CheckpointMode::kPhase:
      return "phase";
  }
  return "unknown";
}

std::vector<const FaultEvent*> FaultPlan::active(std::uint64_t begin,
                                                 std::uint64_t end,
                                                 std::uint32_t attempt) const {
  std::vector<const FaultEvent*> out;
  for (const FaultEvent& event : events_) {
    if (event.round >= begin && event.round < end && attempt < event.attempts) {
      out.push_back(&event);
    }
  }
  return out;
}

std::vector<const IoFaultEvent*> FaultPlan::io_active(
    std::uint64_t shard, std::uint64_t access, std::uint32_t attempt) const {
  std::vector<const IoFaultEvent*> out;
  for (const IoFaultEvent& event : io_events_) {
    if (event.shard == shard && event.access == access &&
        attempt < event.attempts) {
      out.push_back(&event);
    }
  }
  return out;
}

std::string FaultPlan::check() const {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& event = events_[i];
    if (event.attempts == 0) {
      return "fault event #" + std::to_string(i) +
             " has attempts=0 (an event must fire on at least one attempt)";
    }
    if (event.kind == FaultKind::kStraggler && event.delay == 0) {
      return "fault event #" + std::to_string(i) +
             " is a straggler with delay=0 (must delay by >= 1 round)";
    }
  }
  for (std::size_t i = 0; i < io_events_.size(); ++i) {
    const IoFaultEvent& event = io_events_[i];
    if (event.attempts == 0) {
      return "io fault event #" + std::to_string(i) +
             " has attempts=0 (an event must fire on at least one attempt)";
    }
    if (event.kind == IoFaultKind::kSlow && event.delay == 0) {
      return "io fault event #" + std::to_string(i) +
             " is a slow fault with delay=0 (must delay by >= 1 unit)";
    }
  }
  return "";
}

namespace {

bool parse_kind(const std::string& token, FaultKind* kind) {
  for (FaultKind k : {FaultKind::kCrash, FaultKind::kDrop,
                      FaultKind::kDuplicate, FaultKind::kStraggler}) {
    if (token == fault_kind_name(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

bool parse_kind(const std::string& token, IoFaultKind* kind) {
  for (IoFaultKind k : {IoFaultKind::kShortRead, IoFaultKind::kEio,
                        IoFaultKind::kCorrupt, IoFaultKind::kMapFail,
                        IoFaultKind::kSlow}) {
    if (token == io_fault_kind_name(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

// Set one key of a model event; false for a key outside its key space.
bool set_field(FaultEvent* event, const std::string& key,
               const parse::Token& value, std::uint64_t line) {
  const std::uint64_t v = parse::require_u64(value, line);
  if (key == "round") {
    event->round = v;
  } else if (key == "machine") {
    event->machine = v;
  } else if (key == "message") {
    event->message = v;
  } else if (key == "delay") {
    event->delay = v;
  } else if (key == "attempts") {
    event->attempts = static_cast<std::uint32_t>(v);
  } else {
    return false;
  }
  return true;
}

// Set one key of an I/O event; false for a key outside its key space.
bool set_field(IoFaultEvent* event, const std::string& key,
               const parse::Token& value, std::uint64_t line) {
  if (key == "shard" && value.text == "manifest") {
    event->shard = kManifestShard;
    return true;
  }
  const std::uint64_t v = parse::require_u64(value, line);
  if (key == "shard") {
    event->shard = v;
  } else if (key == "access") {
    event->access = v;
  } else if (key == "delay") {
    event->delay = v;
  } else if (key == "attempts") {
    event->attempts = static_cast<std::uint32_t>(v);
  } else {
    return false;
  }
  return true;
}

// The key=value pairs after the kind token, applied in order to `event`.
// An `attempts` value over the retry cap is kOutOfRange before the key is
// applied.
template <typename Event>
Event parse_fields(Event event, const std::vector<parse::Token>& toks,
                   std::uint64_t line, const char* key_error) {
  for (std::size_t i = 1; i < toks.size(); ++i) {
    const parse::Token& tok = toks[i];
    const auto eq = tok.text.find('=');
    if (eq == std::string::npos) {
      throw ParseError(ParseErrorCode::kMalformedLine, "expected key=value",
                       line, tok.column, parse::clip(tok.text));
    }
    const std::string key = tok.text.substr(0, eq);
    // Locate the value token precisely: its column is just past the '='.
    const parse::Token value{tok.text.substr(eq + 1), tok.column + eq + 1};
    if (key == "attempts" &&
        parse::require_u64(value, line) > RecoveryOptions::kMaxRetries + 1) {
      throw ParseError(ParseErrorCode::kOutOfRange,
                       "attempts exceeds retry cap of " +
                           std::to_string(RecoveryOptions::kMaxRetries),
                       line, value.column, parse::clip(value.text));
    }
    if (!set_field(&event, key, value, line)) {
      throw ParseError(ParseErrorCode::kBadToken, key_error, line, tok.column,
                       parse::clip(key));
    }
  }
  return event;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream lines(text);
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.size() > kMaxLineBytes) {
      throw ParseError(ParseErrorCode::kLimitExceeded,
                       "line exceeds " + std::to_string(kMaxLineBytes) +
                           " byte limit",
                       line_no);
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    const std::vector<parse::Token> toks = parse::tokenize(line);
    if (toks.empty()) continue;  // blank / comment-only line
    FaultEvent event;
    IoFaultEvent io_event;
    const bool model = parse_kind(toks[0].text, &event.kind);
    if (!model && !parse_kind(toks[0].text, &io_event.kind)) {
      throw ParseError(ParseErrorCode::kBadToken,
                       "unknown fault kind (expected crash|drop|duplicate|"
                       "straggler|short_read|eio|corrupt|map_fail|slow)",
                       line_no, toks[0].column, parse::clip(toks[0].text));
    }
    if (model) {
      event = parse_fields(event, toks, line_no,
                           "unknown key (expected "
                           "round|machine|message|delay|attempts)");
    } else {
      io_event = parse_fields(io_event, toks, line_no,
                              "unknown key (expected shard|access|delay|"
                              "attempts)");
    }
    if (plan.events_.size() + plan.io_events_.size() >= kMaxEvents) {
      throw ParseError(ParseErrorCode::kLimitExceeded,
                       "plan exceeds " + std::to_string(kMaxEvents) +
                           " event limit",
                       line_no);
    }
    if (model) {
      plan.add(event);
    } else {
      plan.add(io_event);
    }
  }
  if (const std::string problem = plan.check(); !problem.empty()) {
    throw ParseError(ParseErrorCode::kOutOfRange, problem);
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::ostringstream out;
  for (const FaultEvent& event : events_) {
    out << fault_kind_name(event.kind) << " round=" << event.round
        << " machine=" << event.machine;
    if (event.kind == FaultKind::kDrop || event.kind == FaultKind::kDuplicate) {
      out << " message=" << event.message;
    }
    if (event.kind == FaultKind::kStraggler) out << " delay=" << event.delay;
    if (event.attempts != 1) out << " attempts=" << event.attempts;
    out << "\n";
  }
  for (const IoFaultEvent& event : io_events_) {
    out << io_fault_kind_name(event.kind);
    if (event.shard == kManifestShard) {
      out << " shard=manifest";
    } else {
      out << " shard=" << event.shard;
    }
    out << " access=" << event.access;
    if (event.kind == IoFaultKind::kSlow) out << " delay=" << event.delay;
    if (event.attempts != 1) out << " attempts=" << event.attempts;
    out << "\n";
  }
  return out.str();
}

void RecoveryStats::merge(const RecoveryStats& other) {
  faults_injected += other.faults_injected;
  crashes += other.crashes;
  messages_dropped += other.messages_dropped;
  duplicates_suppressed += other.duplicates_suppressed;
  straggler_rounds += other.straggler_rounds;
  retries += other.retries;
  replayed_rounds += other.replayed_rounds;
  checkpoints += other.checkpoints;
  checkpoint_words += other.checkpoint_words;
  for (const auto& [label, count] : other.retries_by_label) {
    retries_by_label[label] += count;
  }
  storage.merge(other.storage);
}

void RecoveryStats::export_to(obs::MetricsRegistry& registry) const {
  const auto section = obs::MetricSection::kRecovery;
  registry.counter("recovery/faults_injected", section).add(faults_injected);
  registry.counter("recovery/crashes", section).add(crashes);
  registry.counter("recovery/messages_dropped", section).add(messages_dropped);
  registry.counter("recovery/duplicates_suppressed", section)
      .add(duplicates_suppressed);
  registry.counter("recovery/straggler_rounds", section).add(straggler_rounds);
  registry.counter("recovery/retries", section).add(retries);
  registry.counter("recovery/replayed_rounds", section).add(replayed_rounds);
  registry.counter("recovery/checkpoints", section).add(checkpoints);
  registry.counter("recovery/checkpoint_words", section).add(checkpoint_words);
  for (const auto& [label, count] : retries_by_label) {
    registry.counter("recovery/retries", label, section).add(count);
  }
  storage.export_to(registry);
}

}  // namespace dmpc::mpc
