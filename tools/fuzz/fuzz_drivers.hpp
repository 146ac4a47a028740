// Shared fuzz drivers for the untrusted-input surfaces.
//
// Each driver feeds raw bytes to one hardened parser and swallows only the
// typed rejection path (ParseError, OptionsError). Anything else escaping —
// a raw DMPC_CHECK failure, a std::bad_alloc from an unclamped allocation,
// or sanitizer-detected UB — is a finding: the libFuzzer targets
// (fuzz_*.cpp) report it as a crash, and the corpus replay binary
// (replay_corpus.cpp) fails the ctest run.
//
// The same drivers back both entry points so a crash found by the fuzzer
// and checked into the corpus is replayed forever by plain test runs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dmpc::fuzz {

/// graph::read_edge_list with small hard caps, under both duplicate
/// policies: it must agree with the line-at-a-time oracle
/// (edge_list_oracle.hpp) on the graph or on the typed error, and accepted
/// graphs must survive a write/re-read round trip.
int drive_edge_list(const std::uint8_t* data, std::size_t size);

/// mpc::FaultPlan::parse (the throwing overload), both key spaces, with a
/// print/re-parse round trip on admissible plans.
int drive_fault_plan(const std::uint8_t* data, std::size_t size);

/// Newline-split argv through ArgParser + parse_solve_options, i.e. the
/// exact flag-parsing surface of the dmpc CLI.
int drive_cli_args(const std::uint8_t* data, std::size_t size);

/// mpc::parse_shard_manifest over raw bytes (the binary header/entry-table
/// validator of the dshard storage format, v1 and checksummed v2), with an
/// encode/re-parse round trip on accepted manifests.
int drive_shard_header(const std::uint8_t* data, std::size_t size);

/// obs::parse_event_filter (the --events-filter grammar), with a
/// to_string/re-parse round trip on accepted filters.
int drive_event_filter(const std::uint8_t* data, std::size_t size);

}  // namespace dmpc::fuzz
