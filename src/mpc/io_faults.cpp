#include "mpc/io_faults.hpp"

#include <sstream>

#include "mpc/faults.hpp"
#include "obs/metrics_registry.hpp"
#include "support/parse_error.hpp"

namespace dmpc::mpc {

const char* io_fault_kind_name(IoFaultKind kind) {
  switch (kind) {
    case IoFaultKind::kShortRead:
      return "short_read";
    case IoFaultKind::kEio:
      return "eio";
    case IoFaultKind::kCorrupt:
      return "corrupt";
    case IoFaultKind::kMapFail:
      return "map_fail";
    case IoFaultKind::kSlow:
      return "slow";
  }
  return "unknown";
}

std::vector<const IoFaultEvent*> IoFaultPlan::active(
    std::uint64_t shard, std::uint64_t access, std::uint32_t attempt) const {
  std::vector<const IoFaultEvent*> out;
  for (const IoFaultEvent& event : events_) {
    if (event.shard == shard && event.access == access &&
        attempt < event.attempts) {
      out.push_back(&event);
    }
  }
  return out;
}

std::string IoFaultPlan::check() const {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const IoFaultEvent& event = events_[i];
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

bool parse_io_kind(const std::string& token, IoFaultKind* kind) {
  if (token == "short_read") {
    *kind = IoFaultKind::kShortRead;
  } else if (token == "eio") {
    *kind = IoFaultKind::kEio;
  } else if (token == "corrupt") {
    *kind = IoFaultKind::kCorrupt;
  } else if (token == "map_fail") {
    *kind = IoFaultKind::kMapFail;
  } else if (token == "slow") {
    *kind = IoFaultKind::kSlow;
  } else {
    return false;
  }
  return true;
}

}  // namespace

IoFaultPlan IoFaultPlan::parse(const std::string& text) {
  const parse::PlanGrammar grammar{
      kMaxLineBytes, kMaxEvents, RecoveryOptions::kMaxRetries,
      "unknown io fault kind (expected short_read|eio|corrupt|map_fail|slow)",
      "unknown key (expected shard|access|delay|attempts)"};
  IoFaultPlan plan;
  IoFaultEvent event;
  parse::scan_plan(
      text, grammar,
      [&](const std::string& kind) {
        event = IoFaultEvent{};
        return parse_io_kind(kind, &event.kind);
      },
      [&](const std::string& key, const parse::Token& value_tok,
          std::uint64_t line) {
        if (key == "shard" && value_tok.text == "manifest") {
          event.shard = kManifestShard;
          return true;
        }
        const std::uint64_t value = parse::require_u64(value_tok, line);
        if (key == "shard") {
          event.shard = value;
        } else if (key == "access") {
          event.access = value;
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

std::string IoFaultPlan::to_string() const {
  std::ostringstream out;
  for (const IoFaultEvent& event : events_) {
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

void IoRecoveryStats::merge(const IoRecoveryStats& other) {
  io_faults_injected += other.io_faults_injected;
  retries += other.retries;
  backoff_units += other.backoff_units;
  checksum_failures += other.checksum_failures;
  quarantined_shards += other.quarantined_shards;
  degraded += other.degraded;
  shards_verified += other.shards_verified;
}

void IoRecoveryStats::export_to(obs::MetricsRegistry& registry) const {
  const auto section = obs::MetricSection::kRecovery;
  registry.counter("storage/io_faults_injected", section)
      .add(io_faults_injected);
  registry.counter("storage/retries", section).add(retries);
  registry.counter("storage/backoff_units", section).add(backoff_units);
  registry.counter("storage/checksum_failures", section)
      .add(checksum_failures);
  registry.counter("storage/quarantined_shards", section)
      .add(quarantined_shards);
  registry.counter("storage/degraded", section).add(degraded);
  registry.counter("storage/shards_verified", section).add(shards_verified);
}

}  // namespace dmpc::mpc
