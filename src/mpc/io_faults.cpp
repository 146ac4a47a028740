#include "mpc/io_faults.hpp"

#include "obs/metrics_registry.hpp"

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
