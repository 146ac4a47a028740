// Paper-specific data distribution schemes.
//
// §3.2 / §4.2 distribute each node's incident edge list across a *group* of
// machines holding `group_size` items each ("type A" / "type B" machines);
// §3.3 / §4.3 assign each good node a machine x_v that gathers its 2-hop
// neighborhood in the sparsified graph. These helpers build the layouts,
// space-check them against the cluster, and charge the O(1) distribution
// rounds (a constant number of sort/scan invocations, per §2.2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/cluster.hpp"

namespace dmpc::mpc {

/// One machine of a type-A/type-B group: it holds items
/// [begin, end) of its owner's item list.
struct GroupMachine {
  std::uint64_t owner = 0;  ///< Node (or other entity) the group belongs to.
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t size() const { return end - begin; }
};

/// Split each owner's `count` items into machines of `group_size` items, all
/// but at most one full (paper: "n^{4 delta} edges on all but at most one
/// machine"). Space-checks group_size*arity against the cluster and charges
/// one distribution step (a sort).
std::vector<GroupMachine> build_machine_groups(
    Cluster& cluster, const std::vector<std::uint64_t>& counts_per_owner,
    std::uint64_t group_size, std::uint64_t arity, const std::string& label);

/// Space accounting for the §3.3 gather: the machine x_v of each center
/// v = centers[i] (input-graph node ids) stores every incident item plus
/// the neighborhoods of the other endpoints — `two_hop_words[i]` words.
/// Checks each against S, in list order, and charges the O(1) gather rounds
/// (sort to collect 1-hop lists + one request/response exchange, per §2.2).
void charge_two_hop_gather(Cluster& cluster,
                           const std::vector<graph::NodeId>& centers,
                           const std::vector<std::uint64_t>& two_hop_words,
                           const std::string& label);

}  // namespace dmpc::mpc
