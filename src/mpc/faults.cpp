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
  return "";
}

namespace {

bool parse_kind(const std::string& token, FaultKind* kind) {
  if (token == "crash") {
    *kind = FaultKind::kCrash;
  } else if (token == "drop") {
    *kind = FaultKind::kDrop;
  } else if (token == "duplicate") {
    *kind = FaultKind::kDuplicate;
  } else if (token == "straggler") {
    *kind = FaultKind::kStraggler;
  } else {
    return false;
  }
  return true;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& text) {
  const parse::PlanGrammar grammar{
      kMaxLineBytes, kMaxEvents, RecoveryOptions::kMaxRetries,
      "unknown fault kind (expected crash|drop|duplicate|straggler)",
      "unknown key (expected round|machine|message|delay|attempts)"};
  FaultPlan plan;
  FaultEvent event;
  parse::scan_plan(
      text, grammar,
      [&](const std::string& kind) {
        event = FaultEvent{};
        return parse_kind(kind, &event.kind);
      },
      [&](const std::string& key, const parse::Token& value_tok,
          std::uint64_t line) {
        const std::uint64_t value = parse::require_u64(value_tok, line);
        if (key == "round") {
          event.round = value;
        } else if (key == "machine") {
          event.machine = value;
        } else if (key == "message") {
          event.message = value;
        } else if (key == "delay") {
          event.delay = value;
        } else if (key == "attempts") {
          event.attempts = static_cast<std::uint32_t>(value);
        } else {
          return false;
        }
        return true;
      },
      [&] { plan.add(event); });
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
