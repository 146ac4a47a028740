// Partition-aware binary CSR shard format ("dshard") and its streaming
// builder.
//
// A shard directory holds one `manifest.dshard` plus `shard-NNNNNN.dshard`
// files. Each shard is a contiguous CSR slice — a node range with its
// offsets/adjacency/incident rows and the canonical edges whose lower
// endpoint falls in the range — cut at a target word count derived from
// n^eps (see ShardBuildOptions::shard_words; a 2^20-word floor dominates
// at small n). `MmapShardStorage` (mpc/storage.hpp) maps the
// shards read-only and exposes them to algorithms as `graph::GraphExtent`s,
// so solving out of core never materializes the full CSR in RAM.
//
// Every field is little-endian (the only supported host order; enforced at
// compile time). The manifest is an untrusted-input boundary with the same
// contract as the text reader: malformed bytes of any kind — bad magic,
// unknown version, inconsistent ranges, truncated files — raise a typed
// dmpc::ParseError, and `graph::EdgeListLimits` caps are enforced on the
// declared n/m via ParseErrorCode::kShardLimitExceeded so both ingest paths
// reject oversized inputs identically.
//
// On-disk layout (all offsets in bytes):
//
//   manifest.dshard (version 2; any other version is kBadHeader)
//     0   8  magic "DSHARDm1"
//     8   4  version (= 2)
//     12  4  flags (= 0)
//     16  8  n (node count; 1 <= n <= 2^32 - 2)
//     24  8  m (canonical edge count)
//     32  8  total_slots (= 2m)
//     40  4  max_degree
//     44  4  reserved (= 0)
//     48  8  shard_count (>= 1, <= n)
//     56  8  shard_words (target words per shard the build used)
//     64  shard_count x 64-byte entries:
//           node_begin, node_end, edge_begin, edge_end,
//           slot_begin, slot_end, file_bytes   (all u64)
//           crc64 of the shard's whole file    (u64)
//     then 8 bytes: CRC64 of every preceding manifest byte.
//
//   shard-NNNNNN.dshard
//     0   8  magic "DSHARDs1"
//     8   8  shard index
//     16      offsets   (node_count + 1) x u64   -- global slot values
//             incident  slot_count x u64         -- EdgeIds, row-aligned
//             edges     edge_count x {u32 u, u32 v}  -- canonical order
//             adjacency slot_count x u32         -- sorted per row
//
// The 8-byte arrays precede the 4-byte ones so every array is naturally
// aligned at its mapped address (the 16-byte header keeps 8-alignment).
//
// The checksums are CRC-64/XZ (ECMA-182 polynomial, reflected). Parsing
// validates *structure* only — checksum enforcement is the storage layer's
// job (StorageOptions::verify, docs/STORAGE.md "Integrity & degraded
// mode"), so `parse_shard_manifest` stays a pure ParseError surface that
// fuzzers can hammer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/io.hpp"

namespace dmpc::mpc {

inline constexpr char kManifestMagic[8] = {'D', 'S', 'H', 'A',
                                           'R', 'D', 'm', '1'};
inline constexpr char kShardMagic[8] = {'D', 'S', 'H', 'A', 'R', 'D', 's', '1'};
inline constexpr std::uint32_t kShardFormatVersion = 2;
inline constexpr std::size_t kManifestHeaderBytes = 64;
inline constexpr std::size_t kManifestEntryBytes = 64;
inline constexpr std::size_t kManifestDigestBytes = 8;
inline constexpr std::size_t kShardHeaderBytes = 16;
inline constexpr char kManifestFileName[] = "manifest.dshard";

/// CRC-64/XZ (ECMA-182, reflected) over `size` bytes. The shard builder
/// stamps one per shard file plus a whole-manifest digest; the storage layer
/// re-computes them under verify=open|paranoid.
std::uint64_t crc64(const unsigned char* data, std::size_t size);

/// Streaming form: feed chunks with `crc` carried between calls (start at 0).
std::uint64_t crc64_update(std::uint64_t crc, const unsigned char* data,
                           std::size_t size);

/// One shard's ranges, as recorded in the manifest. Ranges are half-open and
/// must tile [0, n) / [0, m) / [0, 2m) contiguously across entries.
struct ShardEntry {
  std::uint64_t node_begin = 0;
  std::uint64_t node_end = 0;
  std::uint64_t edge_begin = 0;
  std::uint64_t edge_end = 0;
  std::uint64_t slot_begin = 0;
  std::uint64_t slot_end = 0;
  std::uint64_t file_bytes = 0;  ///< Exact size of the shard's file.
  std::uint64_t crc64 = 0;       ///< CRC-64/XZ of the whole file.
};

struct ShardManifest {
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint32_t max_degree = 0;
  std::uint64_t shard_words = 0;
  /// Stored whole-manifest digest. Parsing records it without enforcing
  /// it — compare against `manifest_digest` of the raw bytes to verify.
  std::uint64_t digest = 0;
  std::vector<ShardEntry> shards;
};

/// The digest a well-formed manifest buffer of `size` bytes must trail with:
/// CRC64 over its first `size - kManifestDigestBytes` bytes. Call only on
/// buffers that already parsed.
std::uint64_t manifest_digest(const unsigned char* data, std::size_t size);

/// The exact file size a shard with these ranges must have.
std::uint64_t shard_file_bytes(const ShardEntry& entry);

/// Name of shard i's file within the directory ("shard-000042.dshard").
std::string shard_file_name(std::uint64_t index);

/// Parse and fully validate manifest bytes. Throws ParseError on any defect:
/// kBadHeader (magic/version/field ranges), kShardLimitExceeded (n/m exceed
/// `limits`), kCountMismatch (ranges do not tile, totals disagree, size
/// wrong), kOutOfRange (inverted ranges). Allocation is bounded by `size`.
ShardManifest parse_shard_manifest(const unsigned char* data, std::size_t size,
                                   const graph::EdgeListLimits& limits = {});

/// Serialize a manifest (inverse of parse for valid manifests).
std::vector<unsigned char> encode_shard_manifest(const ShardManifest& manifest);

/// Streaming shard-build options.
struct ShardBuildOptions {
  /// Caps applied to the text input. `duplicates` must be kReject: dedupe
  /// would shift offsets computed in pass 1, so the builder rejects
  /// duplicate edges (at shard finalization) instead of dropping them.
  graph::EdgeListLimits limits;
  /// Target words per shard; 0 derives it as
  /// max(2^20, floor(space_headroom * max(16, floor(n^eps)))): the
  /// mpc::provision machine space with headroom 1 and a 16-word minimum,
  /// scaled by space_headroom after that floor, then floored at 2^20 words.
  /// This is not the Solver's S (minimum 64, headroom inside the floor).
  std::uint64_t shard_words = 0;
  double eps = 0.5;
  double space_headroom = 8.0;
  /// Approximate dirty-page budget for pass 2: mapped shard writes are
  /// msync'd and dropped (madvise DONTNEED) whenever the estimate crosses
  /// this, bounding peak RSS at O(n) + this budget regardless of m.
  std::uint64_t rss_budget_bytes = 256ull << 20;
  /// Test-only crash hook, invoked after every shard file is written and
  /// synced but *before* the manifest commits the build. A hook that throws
  /// simulates the builder dying mid-way; the manifest-last design
  /// guarantees the partial directory is never openable.
  std::function<void()> abort_before_manifest;
};

struct ShardBuildStats {
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t shards = 0;
  std::uint64_t total_bytes = 0;  ///< Manifest + shard files.
};

/// Build a shard directory from a text edge list in two streaming passes
/// (count/provision, then scatter/finalize). Peak host memory is O(n) words
/// plus the rss_budget — never O(m); edges live only in the mapped files.
/// The resulting shards reproduce Graph::from_edges byte-for-byte: same
/// offsets, sorted adjacency rows, canonical edge order, and incident
/// EdgeIds. Throws ParseError for malformed input (including duplicate
/// edges) and filesystem failures (kIoError).
ShardBuildStats shard_build(const std::string& input_path,
                            const std::string& out_dir,
                            const ShardBuildOptions& options = {});

}  // namespace dmpc::mpc
