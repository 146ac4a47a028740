#include "mpc/cluster.hpp"

#include <algorithm>
#include <cmath>

#include "obs/events.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "support/math.hpp"

namespace dmpc::mpc {

ClusterConfig provision(ClusterConfig requested, std::uint64_t n,
                        std::uint64_t m, double eps, double space_headroom,
                        std::uint64_t min_space) {
  DMPC_CHECK_MSG(eps > 0.0 && eps <= 1.0,
                 "eps must be in (0, 1], got " << eps);
  const double n_eps =
      std::pow(static_cast<double>(std::max<std::uint64_t>(n, 2)), eps);
  const std::uint64_t space = std::max<std::uint64_t>(
      min_space, static_cast<std::uint64_t>(space_headroom * n_eps));
  const auto total = static_cast<std::uint64_t>(
      kTotalSpaceFactor * static_cast<double>(m + n + 2));
  if (requested.num_machines == 0) {
    requested.num_machines = ceil_div(total, space) + 1;
  }
  if (requested.machine_space == 0) requested.machine_space = space;
  return requested;
}

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      executor_(exec::Executor::with_threads(config_.threads)) {
  DMPC_CHECK_MSG(config_.machine_space >= 2, "machine space must be >= 2");
  if (config_.num_machines == 0) config_.num_machines = 1;
  const std::string problem = config_.faults.check();
  DMPC_CHECK_MSG(problem.empty(), "inadmissible fault plan: " << problem);
  DMPC_CHECK_MSG(config_.recovery.backoff_rounds >= 1,
                 "backoff_rounds must be >= 1");
  DMPC_CHECK_MSG(config_.recovery.max_retries <= RecoveryOptions::kMaxRetries,
                 "max_retries " << config_.recovery.max_retries
                                << " exceeds cap "
                                << RecoveryOptions::kMaxRetries);
  if (config_.trace != nullptr) config_.trace->attach_metrics(&metrics_);
}

Cluster::~Cluster() {
  if (config_.trace != nullptr && config_.trace->metrics() == &metrics_) {
    config_.trace->attach_metrics(nullptr);
  }
}

void Cluster::commit(const std::string& label, std::uint64_t rounds) {
  if (config_.profiler != nullptr) {
    config_.profiler->commit(label, metrics_.rounds(), rounds,
                             metrics_.total_communication());
  }
  if (!obs::events_enabled(config_.events)) return;
  obs::ProgressEvent e;
  e.type = obs::EventType::kRoundCompleted;
  e.label = label;
  e.round = metrics_.rounds();
  e.rounds = rounds;
  e.comm_words = metrics_.total_communication();
  if (config_.profiler != nullptr) {
    if (const obs::ProfileRecord* rec = config_.profiler->last_record()) {
      e.load_max = rec->load_max;
      e.gini_ppm = rec->gini_ppm;
    }
  }
  config_.events->emit(std::move(e));
}

void Cluster::emit_recovery_event(obs::EventType type, const std::string& label,
                                  std::uint64_t round, std::int64_t value,
                                  const std::string& detail) {
  if (!obs::events_enabled(config_.events)) return;
  obs::ProgressEvent e;
  e.type = type;
  e.label = label;
  e.round = round;
  e.comm_words = metrics_.total_communication();
  e.value = value;
  e.detail = detail;
  config_.events->emit(std::move(e));
}

std::uint64_t Cluster::tree_depth(std::uint64_t items) const {
  if (items <= 1) return 1;
  const double depth = std::log(static_cast<double>(items)) /
                       std::log(static_cast<double>(config_.machine_space));
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(depth)));
}

namespace {

std::string machine_tag(std::uint64_t machine) {
  return machine == Cluster::kAnyMachine ? std::string("any")
                                         : std::to_string(machine);
}

}  // namespace

void Cluster::check_load(std::uint64_t words, const std::string& what,
                         const std::string& label, std::uint64_t machine) {
  metrics_.observe_load(words, label);
  if (config_.profiler != nullptr) {
    config_.profiler->observe_load(words, machine);
  }
  if (config_.enforce_space) {
    DMPC_CHECK_MSG(words <= config_.machine_space,
                   what << ": machine load exceeds S [machine="
                        << machine_tag(machine) << " measured=" << words
                        << " limit=" << config_.machine_space << "]");
  }
}

void Cluster::load(std::vector<std::vector<Word>> inputs) {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    check_load(inputs[i].size(), "load: machine " + std::to_string(i), "", i);
  }
  locals_ = std::move(inputs);
}

const std::vector<Word>& Cluster::local(std::uint64_t machine) const {
  DMPC_CHECK(machine < locals_.size());
  return locals_[machine];
}

void Cluster::route_and_deliver(std::vector<std::vector<Message>>& outboxes,
                                const std::string& label) {
  const std::uint64_t m = locals_.size();
  // Route with capacity accounting.
  std::vector<std::uint64_t> recv_volume(m, 0);
  for (std::uint64_t i = 0; i < m; ++i) {
    std::uint64_t sent = 0;
    for (const Message& msg : outboxes[i]) {
      DMPC_CHECK_MSG(msg.to < m, "message to nonexistent machine");
      sent += msg.payload.size();
      recv_volume[msg.to] += msg.payload.size();
    }
    check_load(sent, label + ": send volume of machine " + std::to_string(i),
               label, i);
    metrics_.add_communication(sent, label);
  }
  for (std::uint64_t i = 0; i < m; ++i) {
    check_load(recv_volume[i],
               label + ": receive volume of machine " + std::to_string(i),
               label, i);
  }
  // Deliver: received words are appended to local storage in sender order.
  for (std::uint64_t i = 0; i < m; ++i) {
    for (Message& msg : outboxes[i]) {
      auto& dst = locals_[msg.to];
      dst.insert(dst.end(), msg.payload.begin(), msg.payload.end());
    }
  }
  for (std::uint64_t i = 0; i < m; ++i) {
    check_load(locals_[i].size(),
               label + ": local storage of machine " + std::to_string(i),
               label, i);
  }
  metrics_.charge_rounds(1, label);
  commit(label, 1);
}

void Cluster::note_checkpoint(const std::string& label, std::uint64_t words) {
  recovery_stats_.checkpoints += 1;
  recovery_stats_.checkpoint_words += words;
  emit_recovery_event(obs::EventType::kCheckpointTaken, label,
                      metrics_.rounds(), static_cast<std::int64_t>(words), "");
}

void Cluster::register_retry(const std::string& label, std::uint64_t round,
                             std::uint64_t cost, std::uint32_t attempt) {
  const std::uint32_t spent = attempt + 1;  // attempts consumed so far
  // Emitted before the budget checks so a terminal FaultError still leaves
  // the failing attempt visible in the event stream.
  emit_recovery_event(obs::EventType::kRecoveryAttempt, label, round,
                      static_cast<std::int64_t>(spent), "");
  if (config_.recovery.checkpoint == CheckpointMode::kOff) {
    throw FaultError(label, round, spent,
                     "checkpointing is off (checkpoint=off), no snapshot to "
                     "restore");
  }
  if (spent > config_.recovery.max_retries) {
    throw FaultError(label, round, spent,
                     "retry budget exhausted (max_retries=" +
                         std::to_string(config_.recovery.max_retries) + ")");
  }
  recovery_stats_.retries += 1;
  recovery_stats_.retries_by_label[label] += 1;
  // kPhase restores the last phase mark, so the replay re-executes every
  // round since that mark; kRound restores the snapshot taken at the top of
  // this superstep. Retry k of a c-round superstep consumes
  // backoff_rounds * (c + rollback) * 2^{k-1} rounds of the recovery budget.
  std::uint64_t rollback = 0;
  if (config_.recovery.checkpoint == CheckpointMode::kPhase &&
      round > phase_round_) {
    rollback = round - phase_round_;
  }
  const std::uint64_t backoff = config_.recovery.backoff_rounds
                                << std::min<std::uint32_t>(attempt, 32);
  recovery_stats_.replayed_rounds += (cost + rollback) * backoff;
}

obs::Span Cluster::phase(const std::string& label,
                         std::uint64_t state_words) {
  if (faulty()) {
    phase_round_ = metrics_.rounds();
    if (config_.recovery.checkpoint == CheckpointMode::kPhase) {
      note_checkpoint(label, state_words);
    }
  }
  return obs::Span(config_.trace, label);
}

void Cluster::charge(const std::string& label, std::uint64_t rounds,
                     std::uint64_t words, std::uint64_t state_words,
                     const std::function<void()>& body) {
  const std::uint64_t round = metrics_.rounds();
  const std::uint64_t cost = std::max<std::uint64_t>(rounds, 1);
  // Each window starts where the previous charge's or step's ended, so
  // windows tile the round axis and every in-range event fires exactly
  // once. An empty plan has no active events: the body runs once.
  const std::uint64_t begin = std::min(fault_covered_round_, round);
  const std::uint64_t end = round + cost;
  fault_covered_round_ = end;
  if (faulty() && config_.recovery.checkpoint == CheckpointMode::kRound) {
    note_checkpoint(label, state_words);
  }
  for (std::uint32_t attempt = 0;; ++attempt) {
    bool failed = false;
    for (const FaultEvent* event :
         config_.faults.active(begin, end, attempt)) {
      recovery_stats_.faults_injected += 1;
      switch (event->kind) {
        case FaultKind::kCrash:
          recovery_stats_.crashes += 1;
          failed = true;
          break;
        case FaultKind::kDrop:
          recovery_stats_.messages_dropped += 1;
          failed = true;
          break;
        case FaultKind::kDuplicate:
          // The aggregation-tree router tags fragments with (round, source),
          // so a redelivery is recognized and discarded centrally.
          recovery_stats_.duplicates_suppressed += 1;
          break;
        case FaultKind::kStraggler:
          // Lemma-4 primitives synchronize at every tree level; a straggler
          // stretches the barrier but changes no data.
          recovery_stats_.straggler_rounds += event->delay;
          break;
      }
    }
    // The body is deterministic and overwrites its outputs, so re-running it
    // after a failed attempt models the lost work while producing the exact
    // fault-free result.
    if (body) body();
    if (!failed) {
      if (attempt > 0) {
        emit_recovery_event(obs::EventType::kRecovered, label, round,
                            static_cast<std::int64_t>(attempt), "");
      }
      break;
    }
    register_retry(label, round, cost, attempt);
  }
  metrics_.charge_rounds(rounds, label);
  // A superstep that sends nothing leaves communication_by_label untouched.
  if (words > 0) metrics_.add_communication(words, label);
  commit(label, rounds);
}

void Cluster::step(const std::function<void(MachineContext&)>& compute,
                   const std::string& label) {
  obs::Span span(config_.trace, label);
  const std::uint64_t m = locals_.size();
  if (!faulty()) {
    std::vector<std::vector<Message>> outboxes(m);
    // Machines are independent within a round: each compute touches only its
    // own locals_[i] / outboxes[i], so host-parallel execution is safe and
    // (machine i's work being fixed) deterministic.
    executor_.for_each(0, m, [&](std::uint64_t i) {
      MachineContext ctx(i, &locals_[i], &outboxes[i]);
      compute(ctx);
    });
    route_and_deliver(outboxes, label);
    return;
  }

  // Faulty path: snapshot, attempt, and replay until the superstep commits.
  // All routing/metrics accounting happens only on the committing attempt,
  // so Metrics (rounds, peak load, communication) stays byte-identical to
  // the fault-free run; every fault and replay lands in RecoveryStats.
  const std::uint64_t round = metrics_.rounds();
  const std::uint64_t begin = std::min(fault_covered_round_, round);
  const std::uint64_t end = round + 1;
  fault_covered_round_ = end;
  std::vector<std::vector<Word>> checkpoint;
  if (config_.recovery.checkpoint != CheckpointMode::kOff) {
    // The snapshot itself is needed to restore state whichever granularity
    // is charged; under kPhase its *cost* was accounted at the last
    // phase(), so only kRound records it here.
    checkpoint = locals_;
    if (config_.recovery.checkpoint == CheckpointMode::kRound) {
      std::uint64_t words = 0;
      for (const auto& local : checkpoint) words += local.size();
      note_checkpoint(label, words);
    }
  }
  std::uint32_t attempt = 0;
  while (true) {
    const auto active = config_.faults.active(begin, end, attempt);
    bool failed = false;
    std::vector<char> crashed(m, 0);
    for (const FaultEvent* event : active) {
      if (event->kind == FaultKind::kCrash && event->machine < m) {
        recovery_stats_.faults_injected += 1;
        recovery_stats_.crashes += 1;
        crashed[event->machine] = 1;
        failed = true;
      } else if (event->kind == FaultKind::kStraggler && event->machine < m) {
        recovery_stats_.faults_injected += 1;
        recovery_stats_.straggler_rounds += event->delay;
      }
    }
    std::vector<std::vector<Message>> outboxes(m);
    executor_.for_each(0, m, [&](std::uint64_t i) {
      if (crashed[i]) return;  // lost worker: compute + sends discarded
      MachineContext ctx(i, &locals_[i], &outboxes[i]);
      compute(ctx);
    });
    for (const FaultEvent* event : active) {
      if (event->machine >= m) continue;
      if (event->kind == FaultKind::kDrop &&
          event->message < outboxes[event->machine].size()) {
        recovery_stats_.faults_injected += 1;
        recovery_stats_.messages_dropped += 1;
        failed = true;
      } else if (event->kind == FaultKind::kDuplicate &&
                 event->message < outboxes[event->machine].size()) {
        // The router deduplicates the second copy on (sender, ordinal), so
        // delivery is unchanged; only the ledger notices.
        recovery_stats_.faults_injected += 1;
        recovery_stats_.duplicates_suppressed += 1;
      }
    }
    if (!failed) {
      route_and_deliver(outboxes, label);
      if (attempt > 0) {
        emit_recovery_event(obs::EventType::kRecovered, label, round,
                            static_cast<std::int64_t>(attempt), "");
      }
      return;
    }
    register_retry(label, round, 1, attempt);
    locals_ = checkpoint;
    attempt += 1;
  }
}

}  // namespace dmpc::mpc
