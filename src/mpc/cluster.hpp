// The MPC cluster model (paper §1, "The MPC model").
//
// M machines with S words of local space run in synchronous rounds. The
// simulator has two levels:
//
//  1. A *message-passing* level (`step`): user code runs per machine against
//     its local words and posts messages; the router enforces that every
//     machine's sent and received volume fits in S. This level is used by
//     the CONGESTED CLIQUE adapter and by tests that pin down the model
//     semantics.
//
//  2. A *primitive* level (mpc/primitives.hpp): sorting, prefix sums, and
//     segmented aggregation over distributed arrays, the Lemma-4 toolbox the
//     paper builds everything from. Primitives execute centrally (we are one
//     process) but lay data out in machine-sized blocks, verify every block
//     fits in S, and charge the honest round cost: a fan-in-S aggregation
//     tree has depth ceil(log N / log S), which is the O(1/eps) "constant"
//     of the fully scalable model — and exactly the source of the
//     O(log log n) additive term in Theorem 1, so we model it faithfully
//     rather than hard-coding 1.
//
// A Cluster is provisioned from (n, m, eps) like the paper (provision()
// below): S = Theta(n^eps) words per machine, M = O((m + n) / S) machines.
// Space checks throw CheckFailure.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "mpc/faults.hpp"
#include "mpc/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace dmpc::obs {
class EventBus;
enum class EventType : std::uint8_t;
class RoundProfiler;
}

namespace dmpc::mpc {

using Word = std::uint64_t;

/// Everything a Cluster is built from: its geometry, its host threads, its
/// fault schedule and the observers it reports to. The constructor is the
/// only place any of these is attached.
struct ClusterConfig {
  std::uint64_t machine_space = 0;  ///< S in words; 0 = provision it.
  std::uint64_t num_machines = 0;   ///< M; 0 = provision it.
  bool enforce_space = true;        ///< Disable only for ablation (E11).

  /// Host threads for per-machine local computation (0 = hardware
  /// concurrency, 1 = serial). The model is unchanged: the simulated
  /// machines are independent within a round, and every loop dispatched
  /// through the executor uses the deterministic helpers in
  /// exec/parallel.hpp, so results are identical for any value.
  std::uint32_t threads = 1;

  /// Deterministic fault schedule plus the recovery policy that tolerates
  /// it. The cluster reads only the plan's model events; without any (the
  /// default, or an I/O-only plan) every fault/recovery code path is off:
  /// no checkpoints are taken and the run is bit-for-bit the fault-free
  /// execution with an all-zero RecoveryStats ledger.
  FaultPlan faults{};
  RecoveryOptions recovery{};

  /// Trace session (non-owning; null = off). It is wired to the cluster's
  /// metrics so spans report round/communication deltas, and unwired again
  /// when the cluster is destroyed.
  obs::TraceSession* trace = nullptr;
  /// Round profiler (non-owning; null = off). check_load() forwards every
  /// observation and each charge commits a window, so the profiler sees the
  /// skew timeline the aggregate Metrics erases. All hooks run on the
  /// orchestrating thread, and faulted attempts never charge Metrics, so
  /// the profile is byte-identical across thread counts and admissible
  /// fault plans (same contract as kModel metrics).
  obs::RoundProfiler* profiler = nullptr;
  /// Progress-event bus (non-owning; null = off). Every charge emits a
  /// model-section round_completed event (with per-window load max / Gini
  /// when a profiler is also attached); the recovery engine emits
  /// checkpoint/retry/recovered events into the recovery section. All
  /// emission happens on the orchestrating thread, after the corresponding
  /// Metrics charge, so the model event stream inherits the kModel
  /// determinism contract.
  obs::EventBus* events = nullptr;
};

/// Total-space constant of the provisioning rule: M machines hold
/// kTotalSpaceFactor * (m + n + 2) words, i.e. O(m + n) total space.
inline constexpr double kTotalSpaceFactor = 8.0;

/// The model's one provisioning decision (Theorems 7 and 14): S =
/// max(min_space, floor(space_headroom * n^eps)) words per machine and
/// M = ceil(floor(kTotalSpaceFactor * (m + n + 2)) / S) + 1 machines, so the
/// total space is O(m + n^{1+eps}). Fills only the geometry fields of
/// `requested` that are zero; M is sized from the derived S even when S is
/// given. Every other field passes through. Throws CheckFailure unless
/// 0 < eps <= 1.
ClusterConfig provision(ClusterConfig requested, std::uint64_t n,
                        std::uint64_t m, double eps, double space_headroom,
                        std::uint64_t min_space = 64);

/// User-facing geometry overrides (SolveOptions::cluster). A zero field
/// means "provision it"; dmpc::Solver copies these into the ClusterConfig
/// it hands to provision().
struct ClusterOverrides {
  std::uint64_t machine_space = 0;  ///< Words per machine; 0 = auto.
  std::uint64_t num_machines = 0;   ///< Machine count; 0 = auto.
  bool enforce_space = true;        ///< Disable only for ablation (E11).
};

/// A message in the low-level interface.
struct Message {
  std::uint64_t to = 0;
  std::vector<Word> payload;
};

/// Per-machine view during a low-level step.
class MachineContext {
 public:
  MachineContext(std::uint64_t id, std::vector<Word>* local,
                 std::vector<Message>* outbox)
      : id_(id), local_(local), outbox_(outbox) {}

  std::uint64_t id() const { return id_; }
  std::vector<Word>& local() { return *local_; }
  void send(std::uint64_t to, std::vector<Word> payload) {
    outbox_->push_back({to, std::move(payload)});
  }

 private:
  std::uint64_t id_;
  std::vector<Word>* local_;
  std::vector<Message>* outbox_;
};

class Cluster {
 public:
  /// Validates the geometry and the fault plan, starts the executor and
  /// wires the trace session to this cluster's metrics.
  explicit Cluster(ClusterConfig config);
  /// Unwires the trace session if it still reads this cluster's metrics.
  ~Cluster();
  /// Not copyable, hence not movable: the trace session holds the address
  /// of this cluster's metrics. By-value returns are prvalues, which C++17
  /// elides.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::uint64_t space() const { return config_.machine_space; }
  std::uint64_t machines() const { return config_.num_machines; }
  bool enforce_space() const { return config_.enforce_space; }

  /// Read-only: model cost enters Metrics only through charge() and step(),
  /// so every charge reaches the attached observers.
  const Metrics& metrics() const { return metrics_; }

  obs::TraceSession* trace() const { return config_.trace; }
  obs::RoundProfiler* profiler() const { return config_.profiler; }
  obs::EventBus* events() const { return config_.events; }
  const exec::Executor& executor() const { return executor_; }

  // ---- Fault injection & recovery ----

  const FaultPlan& fault_plan() const { return config_.faults; }
  const RecoveryOptions& recovery_options() const { return config_.recovery; }

  RecoveryStats& recovery_stats() { return recovery_stats_; }
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// The logical round clock faults are keyed on: the number of rounds the
  /// fault-free run has charged so far (recovery overhead is accounted in
  /// RecoveryStats, never here, so this clock is identical with and without
  /// faults).
  std::uint64_t logical_round() const { return metrics_.rounds(); }

  /// Open pipeline phase `label`: the returned span (named `label`) covers
  /// the phase in the trace. Under CheckpointMode::kPhase this boundary is
  /// where snapshots are charged; a replay rolls back to the latest phase.
  /// `state_words` is the distributed state a phase snapshot would persist.
  /// Without model fault events only the span is opened.
  [[nodiscard]] obs::Span phase(const std::string& label,
                                std::uint64_t state_words);

  /// Charge one superstep: the only way model cost enters Metrics outside
  /// step(). `body` (the centrally-executed work, if any) runs under the
  /// fault + recovery engine; then `rounds` and `words` are added to Metrics
  /// under `label`, and the profiler window and round_completed event are
  /// committed once, with this superstep's words in them.
  ///
  /// The fault window ends at logical_round() + max(rounds, 1) and starts
  /// at the end of the previous charge's window, so windows tile the whole
  /// round axis. `state_words` sizes the checkpoint taken before the
  /// attempt. `body` must be deterministic and idempotent under
  /// re-execution (all repo primitives overwrite their outputs); a
  /// centrally-simulated superstep without a body replays as pure
  /// accounting. Faults scheduled in the window abort the attempt, charge
  /// retry backoff to RecoveryStats, and re-run `body`; exhaustion throws
  /// FaultError.
  void charge(const std::string& label, std::uint64_t rounds,
              std::uint64_t words, std::uint64_t state_words = 0,
              const std::function<void()>& body = {});

  /// Depth of a fan-in-S aggregation tree over `items` leaves; >= 1.
  /// This is the round cost of prefix sums / broadcast / reduction over a
  /// distributed array of `items` records (Lemma 4 with S = n^eps gives a
  /// constant depth of ceil(1/eps)).
  std::uint64_t tree_depth(std::uint64_t items) const;

  /// Sentinel for check_load's machine argument when the load is aggregate
  /// (not attributable to one machine).
  static constexpr std::uint64_t kAnyMachine = ~0ull;

  /// Assert a hypothetical machine load fits in S (counts toward peak load).
  /// A non-empty `label` attributes the load to that label's peak-load
  /// metric (`what` stays free-form for the failure message). The failure
  /// message always carries the machine index, the measured load, and the
  /// limit S in a stable `[machine=... measured=... limit=...]` suffix.
  void check_load(std::uint64_t words, const std::string& what,
                  const std::string& label = "",
                  std::uint64_t machine = kAnyMachine);

  // ---- Low-level message-passing interface ----

  /// Number of machines with materialized local storage.
  std::uint64_t low_level_machines() const { return locals_.size(); }

  /// (Re)initialize local storage: machine i receives inputs[i].
  void load(std::vector<std::vector<Word>> inputs);

  /// Access machine-local words (test/debug).
  const std::vector<Word>& local(std::uint64_t machine) const;

  /// Run one synchronous round: `compute` runs on every machine, messages
  /// are routed, and capacity constraints (send volume <= S, receive volume
  /// <= S, local words <= S) are enforced. Charges exactly 1 round.
  /// Under a parallel executor, `compute` may run concurrently for distinct
  /// machines and must touch only its MachineContext (machine-local state).
  void step(const std::function<void(MachineContext&)>& compute,
            const std::string& label = "step");

 private:
  /// Route messages, enforce capacities, deliver, and charge 1 round — the
  /// commit half of a (successful) step attempt.
  void route_and_deliver(std::vector<std::vector<Message>>& outboxes,
                         const std::string& label);

  /// Close the superstep just added to Metrics (`rounds` rounds under
  /// `label`): commit the profiler window, then emit round_completed with
  /// that window's skew. Shared by charge() and step().
  void commit(const std::string& label, std::uint64_t rounds);

  /// Account one retry of `label` covering `cost` rounds at logical round
  /// `round` after 0-based `attempt` failed. Throws FaultError when
  /// checkpointing is off or the retry budget is exhausted.
  void register_retry(const std::string& label, std::uint64_t round,
                      std::uint64_t cost, std::uint32_t attempt);

  /// True when the plan schedules model faults: the only case in which the
  /// checkpoint and replay machinery runs.
  bool faulty() const { return !config_.faults.events().empty(); }

  /// Account one checkpoint of `words` words.
  void note_checkpoint(const std::string& label, std::uint64_t words);

  /// Emit a recovery-section event with the standard round/comm fields.
  void emit_recovery_event(obs::EventType type, const std::string& label,
                           std::uint64_t round, std::int64_t value,
                           const std::string& detail);

  ClusterConfig config_;
  Metrics metrics_;
  exec::Executor executor_;
  std::vector<std::vector<Word>> locals_;
  RecoveryStats recovery_stats_;
  std::uint64_t phase_round_ = 0;  ///< Logical round of the last phase.
  /// End of the last fault window. Successive windows tile [0, rounds), so
  /// events keyed on rounds charged outside any recoverable superstep still
  /// fire (at the first recoverable superstep after them).
  std::uint64_t fault_covered_round_ = 0;
};

}  // namespace dmpc::mpc
