// Deterministic host-I/O fault injection for the storage layer.
//
// The model events of a FaultPlan (mpc/faults.hpp) are machine crashes and
// message drops on the logical round clock. The same plan also schedules
// host-side events: filesystem misbehavior (short reads, EIO, checksum
// corruption, mmap refusals, slow-I/O stragglers) keyed on (shard index,
// access ordinal) instead of (round, machine). The storage layer assigns
// access ordinals deterministically (0 = open/map, 1 = checksum verify,
// 2 = quarantine re-read), and an event fires on attempts 0 .. attempts-1 of
// its access, so a transient fault with attempts=k is survivable iff
// k <= RecoveryOptions::max_retries.
//
// The hard guarantee mirrors docs/FAULTS.md: a solve under any admissible
// plan within the retry budget produces byte-identical solutions, report
// JSON (modulo the "recovery" block), and golden traces to the fault-free
// run — injected I/O failures are absorbed by the recovery ladder in
// storage.cpp (retry -> quarantine -> degrade) and ledgered in
// IoRecoveryStats, never in the model.
#pragma once

#include <cstdint>

#include "mpc/storage_error.hpp"

namespace dmpc::obs {
class MetricsRegistry;
}

namespace dmpc::mpc {

enum class IoFaultKind : std::uint8_t {
  kShortRead,  ///< The access sees fewer bytes than the manifest promises.
  kEio,        ///< The access fails with a transient I/O error.
  kCorrupt,    ///< The access observes checksum-corrupted bytes.
  kMapFail,    ///< mmap refuses the mapping for this access.
  kSlow,       ///< The access completes late; backoff units are recorded.
};

const char* io_fault_kind_name(IoFaultKind kind);

/// Access ordinals the storage layer charges against a shard. Every retry of
/// an access reuses its ordinal with an incremented attempt counter.
inline constexpr std::uint64_t kAccessOpen = 0;
inline constexpr std::uint64_t kAccessVerify = 1;
inline constexpr std::uint64_t kAccessQuarantine = 2;

/// One scheduled I/O fault. `shard` is the shard index (kManifestShard for
/// the manifest read); `access` the deterministic access ordinal above.
struct IoFaultEvent {
  IoFaultKind kind = IoFaultKind::kEio;
  std::uint64_t shard = 0;
  std::uint64_t access = kAccessOpen;
  std::uint64_t delay = 1;     ///< Slow-I/O delay in backoff units (>= 1).
  std::uint32_t attempts = 1;  ///< Consecutive attempts the fault fires on.
};

/// Side ledger of everything the storage recovery ladder did, embedded in
/// RecoveryStats as its `storage` sub-block (report schema 6) and exported
/// into the kRecovery registry section as storage/<field> counters. Like
/// the cluster ledger, it is excluded from byte-identity comparisons: the
/// model never sees host I/O.
struct IoRecoveryStats {
  std::uint64_t io_faults_injected = 0;  ///< Injected events that fired.
  std::uint64_t retries = 0;             ///< Accesses retried after a fault.
  std::uint64_t backoff_units = 0;       ///< Exponential backoff consumed.
  std::uint64_t checksum_failures = 0;   ///< CRC64 mismatches observed.
  std::uint64_t quarantined_shards = 0;  ///< Shards served from heap copies.
  std::uint64_t degraded = 0;            ///< Whole-backend mmap->memory falls.
  std::uint64_t shards_verified = 0;     ///< Shard checksums that matched.

  /// True when no I/O fault fired and no recovery work happened
  /// (successful verification alone keeps a run clean).
  bool clean() const {
    return io_faults_injected == 0 && retries == 0 && checksum_failures == 0 &&
           quarantined_shards == 0 && degraded == 0;
  }

  void reset() { *this = IoRecoveryStats{}; }
  void merge(const IoRecoveryStats& other);

  /// Export into the kRecovery registry section ("storage/<field>"
  /// counters). Adds, like every export; read back via snapshot deltas.
  void export_to(obs::MetricsRegistry& registry) const;
};

}  // namespace dmpc::mpc
