#include "mpc/shard_format.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "mpc/cluster.hpp"
#include "mpc/mapped_file.hpp"
#include "support/check.hpp"
#include "support/parse_error.hpp"

namespace dmpc::mpc {

static_assert(std::endian::native == std::endian::little,
              "dshard files are little-endian; big-endian hosts need a "
              "byte-swapping reader");
static_assert(sizeof(graph::Edge) == 8 && alignof(graph::Edge) == 4,
              "Edge must be two packed u32 for the on-disk edges array");

namespace {

std::uint64_t read_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t read_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void append_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  unsigned char buf[8];
  std::memcpy(buf, &v, sizeof(v));
  out.insert(out.end(), buf, buf + 8);
}

void append_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  unsigned char buf[4];
  std::memcpy(buf, &v, sizeof(v));
  out.insert(out.end(), buf, buf + 4);
}

[[noreturn]] void bad_manifest(ParseErrorCode code, const std::string& what) {
  throw ParseError(code, "shard manifest: " + what);
}

/// Words shard-packing charges node v: 1 offset word, deg incident words,
/// cdeg edge words, and deg adjacency half-words rounded up.
std::uint64_t node_words(std::uint64_t deg, std::uint64_t cdeg) {
  return 1 + deg + cdeg + (deg + 1) / 2;
}

/// CRC-64/XZ lookup table (ECMA-182 polynomial 0x42F0E1EBA9EA3693,
/// reflected form 0xC96C5795D7870F42), built once at first use.
const std::uint64_t* crc64_table() {
  static const auto table = [] {
    std::array<std::uint64_t, 256> t{};
    constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ull;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint64_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table.data();
}

}  // namespace

std::uint64_t crc64_update(std::uint64_t crc, const unsigned char* data,
                           std::size_t size) {
  const std::uint64_t* table = crc64_table();
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint64_t crc64(const unsigned char* data, std::size_t size) {
  return crc64_update(0, data, size);
}

std::uint64_t manifest_digest(const unsigned char* data, std::size_t size) {
  DMPC_CHECK(size >= kManifestDigestBytes);
  return crc64(data, size - kManifestDigestBytes);
}

std::uint64_t shard_file_bytes(const ShardEntry& entry) {
  const std::uint64_t nodes = entry.node_end - entry.node_begin;
  const std::uint64_t slots = entry.slot_end - entry.slot_begin;
  const std::uint64_t edges = entry.edge_end - entry.edge_begin;
  return kShardHeaderBytes + (nodes + 1) * 8 + slots * 8 + edges * 8 +
         slots * 4;
}

std::string shard_file_name(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%06llu.dshard",
                static_cast<unsigned long long>(index));
  return buf;
}

ShardManifest parse_shard_manifest(const unsigned char* data, std::size_t size,
                                   const graph::EdgeListLimits& limits) {
  if (size < kManifestHeaderBytes) {
    bad_manifest(ParseErrorCode::kBadHeader,
                 "too short (" + std::to_string(size) + " bytes, header is " +
                     std::to_string(kManifestHeaderBytes) + ")");
  }
  if (std::memcmp(data, kManifestMagic, sizeof(kManifestMagic)) != 0) {
    bad_manifest(ParseErrorCode::kBadHeader, "bad magic");
  }
  const std::uint32_t version = read_u32(data + 8);
  if (version != kShardFormatVersion) {
    bad_manifest(ParseErrorCode::kBadHeader,
                 "unsupported version " + std::to_string(version));
  }
  const std::uint32_t flags = read_u32(data + 12);
  if (flags != 0) {
    bad_manifest(ParseErrorCode::kBadHeader,
                 "unknown flags " + std::to_string(flags));
  }
  ShardManifest manifest;
  manifest.n = read_u64(data + 16);
  manifest.m = read_u64(data + 24);
  const std::uint64_t total_slots = read_u64(data + 32);
  manifest.max_degree = read_u32(data + 40);
  const std::uint32_t reserved = read_u32(data + 44);
  const std::uint64_t shard_count = read_u64(data + 48);
  manifest.shard_words = read_u64(data + 56);
  if (manifest.n == 0 || manifest.n >= graph::kNoNode) {
    bad_manifest(ParseErrorCode::kBadHeader,
                 "node count must be in [1, 2^32 - 2]");
  }
  if (reserved != 0) {
    bad_manifest(ParseErrorCode::kBadHeader, "nonzero reserved field");
  }
  // Same caps as the text parser, under the shard-specific code so callers
  // can tell which ingest path rejected the input.
  if (manifest.n > limits.max_nodes) {
    bad_manifest(ParseErrorCode::kShardLimitExceeded,
                 "declared node count " + std::to_string(manifest.n) +
                     " exceeds cap of " + std::to_string(limits.max_nodes));
  }
  if (manifest.m > limits.max_edges) {
    bad_manifest(ParseErrorCode::kShardLimitExceeded,
                 "declared edge count " + std::to_string(manifest.m) +
                     " exceeds cap of " + std::to_string(limits.max_edges));
  }
  if (total_slots != 2 * manifest.m) {
    bad_manifest(ParseErrorCode::kCountMismatch,
                 "total_slots " + std::to_string(total_slots) +
                     " != 2m = " + std::to_string(2 * manifest.m));
  }
  if (shard_count == 0 || shard_count > manifest.n) {
    bad_manifest(ParseErrorCode::kCountMismatch,
                 "shard count " + std::to_string(shard_count) +
                     " not in [1, n]");
  }
  const std::uint64_t expected_size = kManifestHeaderBytes +
                                      shard_count * kManifestEntryBytes +
                                      kManifestDigestBytes;
  if (size != expected_size) {
    bad_manifest(ParseErrorCode::kCountMismatch,
                 "file is " + std::to_string(size) + " bytes, expected " +
                     std::to_string(expected_size) + " for " +
                     std::to_string(shard_count) + " v" +
                     std::to_string(version) + " shards");
  }
  manifest.shards.reserve(static_cast<std::size_t>(shard_count));
  std::uint64_t node_cursor = 0, edge_cursor = 0, slot_cursor = 0;
  for (std::uint64_t i = 0; i < shard_count; ++i) {
    const unsigned char* p =
        data + kManifestHeaderBytes + i * kManifestEntryBytes;
    ShardEntry e;
    e.node_begin = read_u64(p);
    e.node_end = read_u64(p + 8);
    e.edge_begin = read_u64(p + 16);
    e.edge_end = read_u64(p + 24);
    e.slot_begin = read_u64(p + 32);
    e.slot_end = read_u64(p + 40);
    e.file_bytes = read_u64(p + 48);
    e.crc64 = read_u64(p + 56);
    const std::string at = "shard " + std::to_string(i) + ": ";
    if (e.node_end < e.node_begin || e.edge_end < e.edge_begin ||
        e.slot_end < e.slot_begin) {
      bad_manifest(ParseErrorCode::kOutOfRange, at + "inverted range");
    }
    if (e.node_begin != node_cursor || e.edge_begin != edge_cursor ||
        e.slot_begin != slot_cursor) {
      bad_manifest(ParseErrorCode::kCountMismatch,
                   at + "ranges do not tile the previous shard's end");
    }
    if (e.node_end == e.node_begin) {
      bad_manifest(ParseErrorCode::kCountMismatch, at + "empty node range");
    }
    if (e.file_bytes != shard_file_bytes(e)) {
      bad_manifest(ParseErrorCode::kCountMismatch,
                   at + "file_bytes " + std::to_string(e.file_bytes) +
                       " does not match ranges (" +
                       std::to_string(shard_file_bytes(e)) + ")");
    }
    node_cursor = e.node_end;
    edge_cursor = e.edge_end;
    slot_cursor = e.slot_end;
    manifest.shards.push_back(e);
  }
  if (node_cursor != manifest.n || edge_cursor != manifest.m ||
      slot_cursor != total_slots) {
    bad_manifest(ParseErrorCode::kCountMismatch,
                 "shards cover (" + std::to_string(node_cursor) + ", " +
                     std::to_string(edge_cursor) + ", " +
                     std::to_string(slot_cursor) + ") of (n, m, 2m) = (" +
                     std::to_string(manifest.n) + ", " +
                     std::to_string(manifest.m) + ", " +
                     std::to_string(total_slots) + ")");
  }
  if (manifest.max_degree > manifest.n - 1) {
    bad_manifest(ParseErrorCode::kOutOfRange,
                 "max_degree " + std::to_string(manifest.max_degree) +
                     " exceeds n - 1");
  }
  // The stored digest is recorded, not enforced: checksum verification is a
  // storage-layer policy (StorageOptions::verify), not a parse defect.
  manifest.digest = read_u64(data + size - 8);
  return manifest;
}

std::vector<unsigned char> encode_shard_manifest(
    const ShardManifest& manifest) {
  std::vector<unsigned char> out;
  out.reserve(kManifestHeaderBytes +
              manifest.shards.size() * kManifestEntryBytes);
  out.insert(out.end(), kManifestMagic, kManifestMagic + 8);
  append_u32(out, kShardFormatVersion);
  append_u32(out, 0);  // flags
  append_u64(out, manifest.n);
  append_u64(out, manifest.m);
  append_u64(out, 2 * manifest.m);
  append_u32(out, manifest.max_degree);
  append_u32(out, 0);  // reserved
  append_u64(out, manifest.shards.size());
  append_u64(out, manifest.shard_words);
  for (const ShardEntry& e : manifest.shards) {
    append_u64(out, e.node_begin);
    append_u64(out, e.node_end);
    append_u64(out, e.edge_begin);
    append_u64(out, e.edge_end);
    append_u64(out, e.slot_begin);
    append_u64(out, e.slot_end);
    append_u64(out, e.file_bytes);
    append_u64(out, e.crc64);
  }
  append_u64(out, crc64(out.data(), out.size()));
  return out;
}

namespace {

/// Writable views into one mapped shard during the build.
struct ShardTarget {
  ShardEntry entry;
  MappedFile map;

  std::uint64_t* offsets() {
    return reinterpret_cast<std::uint64_t*>(map.mutable_data() +
                                            kShardHeaderBytes);
  }
  std::uint64_t* incident() {
    return offsets() + (entry.node_end - entry.node_begin + 1);
  }
  graph::Edge* edges() {
    return reinterpret_cast<graph::Edge*>(
        incident() + (entry.slot_end - entry.slot_begin));
  }
  graph::NodeId* adjacency() {
    return reinterpret_cast<graph::NodeId*>(edges() +
                                            (entry.edge_end - entry.edge_begin));
  }
};

/// Rejects an input in which finalization found the duplicated canonical
/// edges `keys`: re-streams it once and reports the first line whose edge
/// was already seen, with read_edge_list's (code, line, column, message).
/// Memory is O(keys); valid input never gets here.
[[noreturn]] void throw_first_duplicate(const std::string& input_path,
                                        const graph::EdgeListLimits& limits,
                                        std::vector<graph::Edge> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const auto duplicate = [](const graph::Edge& e, std::uint64_t line = 0,
                            std::uint64_t column = 0) {
    return ParseError(ParseErrorCode::kDuplicateEdge,
                      "duplicate edge {" + std::to_string(e.u) + ", " +
                          std::to_string(e.v) + "}",
                      line, column);
  };
  std::vector<bool> seen(keys.size());
  std::ifstream in(input_path);
  if (in.good()) {
    graph::scan_edge_list(
        in, limits, [](const graph::EdgeListHeader&) {},
        [&](graph::NodeId a, graph::NodeId b, std::uint64_t line,
            std::uint64_t column) {
          const graph::Edge e{std::min(a, b), std::max(a, b)};
          const auto it = std::lower_bound(keys.begin(), keys.end(), e);
          if (it == keys.end() || *it != e) return;
          if (seen[it - keys.begin()]) throw duplicate(e, line, column);
          seen[it - keys.begin()] = true;
        });
  }
  // The input changed during the build: report the edge without a position.
  throw duplicate(keys.front());
}

/// Pass 1 counts edges without detecting duplicates, so when its scan
/// fails, an earlier duplicate must still win, as in read_edge_list:
/// re-streams the input up to the scan error and throws the first
/// duplicate before it, if any. Returns otherwise. Error path only; memory
/// is O(edges before the error).
void throw_duplicate_before_error(const std::string& input_path,
                                  const graph::EdgeListLimits& limits) {
  std::vector<graph::Edge> edges;
  std::ifstream in(input_path);
  if (!in.good()) return;
  try {
    graph::scan_edge_list(
        in, limits, [](const graph::EdgeListHeader&) {},
        [&](graph::NodeId a, graph::NodeId b, std::uint64_t, std::uint64_t) {
          edges.push_back({std::min(a, b), std::max(a, b)});
        });
  } catch (const ParseError&) {
    // The error pass 1 already holds; only the edges before it matter.
  }
  std::sort(edges.begin(), edges.end());
  std::vector<graph::Edge> keys;
  for (std::size_t i = 1; i < edges.size(); ++i) {
    if (edges[i] == edges[i - 1]) keys.push_back(edges[i]);
  }
  if (!keys.empty()) throw_first_duplicate(input_path, limits, std::move(keys));
}

}  // namespace

ShardBuildStats shard_build(const std::string& input_path,
                            const std::string& out_dir,
                            const ShardBuildOptions& options) {
  DMPC_CHECK_MSG(options.limits.duplicates == graph::DuplicatePolicy::kReject,
                 "shard_build requires DuplicatePolicy::kReject (dedupe "
                 "would shift pass-1 offsets)");
  namespace fs = std::filesystem;
  {
    std::error_code ec;
    fs::create_directories(out_dir, ec);
    if (ec) {
      throw ParseError(ParseErrorCode::kIoError,
                       "cannot create shard directory '" + out_dir +
                           "': " + ec.message());
    }
  }

  // ---- Pass 1: stream the input, counting degrees. O(n) memory. ----
  graph::NodeId n = 0;
  std::uint64_t declared_m = 0;
  std::uint64_t m = 0;
  std::vector<std::uint32_t> deg;   // symmetric degree
  std::vector<std::uint32_t> cdeg;  // canonical (lower-endpoint) degree
  {
    errno = 0;
    std::ifstream in(input_path);
    if (!in.good()) {
      throw ParseError(ParseErrorCode::kIoError,
                       "cannot open '" + input_path + "' for reading: " +
                           std::strerror(errno ? errno : EINVAL));
    }
    // Duplicate edges are still counted here — they are detected (and
    // rejected) at finalization, where rows are sorted.
    try {
      graph::scan_edge_list(
          in, options.limits,
          [&](const graph::EdgeListHeader& header) {
            n = header.n;
            declared_m = header.declared_m;
            deg.assign(n, 0);
            cdeg.assign(n, 0);
          },
          [&](graph::NodeId a, graph::NodeId b, std::uint64_t,
              std::uint64_t) {
            ++deg[a];
            ++deg[b];
            ++cdeg[std::min(a, b)];
            ++m;
          });
    } catch (const ParseError&) {
      throw_duplicate_before_error(input_path, options.limits);
      throw;
    }
  }

  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::uint64_t> coffsets(static_cast<std::size_t>(n) + 1, 0);
  std::uint32_t max_degree = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + deg[v];
    coffsets[v + 1] = coffsets[v] + cdeg[v];
    max_degree = std::max(max_degree, deg[v]);
  }
  deg.clear();
  deg.shrink_to_fit();

  // ---- Cut shards at a multiple of the machine space n^eps. ----
  std::uint64_t target_words = options.shard_words;
  if (target_words == 0) {
    const std::uint64_t space =
        provision({}, n, m, options.eps, /*space_headroom=*/1.0,
                  /*min_space=*/16)
            .machine_space;
    const double s = options.space_headroom * static_cast<double>(space);
    // Shards hold whole machine slices; floor the capacity so a tiny S
    // (small n or eps) cannot explode the file/mapping count.
    constexpr std::uint64_t kMinShardWords = 1ull << 20;
    target_words = std::max<std::uint64_t>(
        kMinShardWords, static_cast<std::uint64_t>(s));
  }

  ShardManifest manifest;
  manifest.n = n;
  manifest.m = m;
  manifest.max_degree = max_degree;
  manifest.shard_words = target_words;
  {
    ShardEntry cur;
    std::uint64_t cur_words = 0;
    for (graph::NodeId v = 0; v < n; ++v) {
      const std::uint64_t w =
          node_words(offsets[v + 1] - offsets[v], coffsets[v + 1] - coffsets[v]);
      if (cur_words > 0 && cur_words + w > target_words) {
        cur.node_end = v;
        cur.edge_end = coffsets[v];
        cur.slot_end = offsets[v];
        cur.file_bytes = shard_file_bytes(cur);
        manifest.shards.push_back(cur);
        cur = ShardEntry{v, 0, coffsets[v], 0, offsets[v], 0, 0};
        cur_words = 0;
      }
      cur_words += w;
    }
    cur.node_end = n;
    cur.edge_end = coffsets[n];
    cur.slot_end = offsets[n];
    cur.file_bytes = shard_file_bytes(cur);
    manifest.shards.push_back(cur);
  }

  // Create, map, and pre-fill every shard (header + offsets slice).
  std::vector<ShardTarget> shards;
  shards.reserve(manifest.shards.size());
  for (std::uint64_t i = 0; i < manifest.shards.size(); ++i) {
    const ShardEntry& e = manifest.shards[i];
    ShardTarget t;
    t.entry = e;
    t.map = MappedFile::create_readwrite(
        (fs::path(out_dir) / shard_file_name(i)).string(), e.file_bytes);
    std::memcpy(t.map.mutable_data(), kShardMagic, sizeof(kShardMagic));
    std::memcpy(t.map.mutable_data() + 8, &i, sizeof(i));
    std::memcpy(t.offsets(), offsets.data() + e.node_begin,
                (e.node_end - e.node_begin + 1) * sizeof(std::uint64_t));
    shards.push_back(std::move(t));
  }

  // shard index owning a node; shards tile [0, n) so a last-hit memo makes
  // the common (locally clustered) case O(1).
  std::uint64_t memo = 0;
  const auto shard_of_node = [&](graph::NodeId v) -> ShardTarget& {
    if (!(shards[memo].entry.node_begin <= v && v < shards[memo].entry.node_end)) {
      std::uint64_t lo = 0, hi = shards.size() - 1;
      while (lo < hi) {
        const std::uint64_t mid = (lo + hi) / 2;
        if (shards[mid].entry.node_end <= v) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      memo = lo;
    }
    return shards[memo];
  };

  const auto flush_all = [&] {
    for (ShardTarget& t : shards) t.map.sync_and_drop();
  };

  // ---- Pass 2: re-stream the input, scatter-writing adjacency slots. ----
  {
    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    std::uint64_t dirty_bytes = 0;
    errno = 0;
    std::ifstream in(input_path);
    if (!in.good()) {
      throw ParseError(ParseErrorCode::kIoError,
                       "cannot reopen '" + input_path + "' for pass 2: " +
                           std::strerror(errno ? errno : EINVAL));
    }
    graph::scan_edge_list(
        in, options.limits,
        [&](const graph::EdgeListHeader& header) {
          if (header.n != n || header.declared_m != declared_m) {
            throw ParseError(ParseErrorCode::kCountMismatch,
                             "input changed between passes");
          }
        },
        [&](graph::NodeId a, graph::NodeId b, std::uint64_t line_no,
            std::uint64_t) {
          const auto scatter = [&](graph::NodeId from, graph::NodeId to) {
            if (cursor[from] >= offsets[from + 1]) {
              throw ParseError(ParseErrorCode::kCountMismatch,
                               "input changed between passes", line_no);
            }
            ShardTarget& t = shard_of_node(from);
            t.adjacency()[cursor[from]++ - t.entry.slot_begin] = to;
          };
          scatter(a, b);
          scatter(b, a);
          dirty_bytes += 2 * sizeof(graph::NodeId);
          if (dirty_bytes >= options.rss_budget_bytes) {
            flush_all();
            dirty_bytes = 0;
          }
        });
    for (graph::NodeId v = 0; v < n; ++v) {
      if (cursor[v] != offsets[v + 1]) {
        throw ParseError(ParseErrorCode::kCountMismatch,
                         "input changed between passes");
      }
    }
  }

  // ---- Finalize: sort rows, collect duplicates, derive EdgeIds. ----
  //
  // Nodes are processed in ascending order, so when node v resolves a lower
  // neighbor w < v, w's row is already sorted and the EdgeId of {w, v} is
  // coffsets[w] + (rank of v among w's higher neighbors) — a binary search
  // in w's (possibly already flushed; pages fault back in) mapped row. A
  // duplicate {v, w} shows as a repeat in the lower endpoint's row; the
  // counts include repeats, so the derivation stays inside the shard and its
  // output is dropped when any were found.
  std::vector<graph::Edge> duplicates;
  {
    std::uint64_t dirty_bytes = 0;
    for (graph::NodeId v = 0; v < n; ++v) {
      ShardTarget& t = shard_of_node(v);
      graph::NodeId* row = t.adjacency() + (offsets[v] - t.entry.slot_begin);
      const std::uint64_t d = offsets[v + 1] - offsets[v];
      std::sort(row, row + d);
      for (std::uint64_t i = 1; i < d; ++i) {
        if (row[i - 1] == row[i] && v < row[i]) {
          duplicates.push_back({v, row[i]});
        }
      }
      std::uint64_t* inc = t.incident() + (offsets[v] - t.entry.slot_begin);
      const std::uint64_t first_higher =
          std::upper_bound(row, row + d, v) - row;
      for (std::uint64_t i = first_higher; i < d; ++i) {
        const std::uint64_t eid = coffsets[v] + (i - first_higher);
        t.edges()[eid - t.entry.edge_begin] = {v, row[i]};
        inc[i] = eid;
      }
      for (std::uint64_t i = 0; i < first_higher; ++i) {
        const graph::NodeId w = row[i];
        ShardTarget& tw = shard_of_node(w);
        const graph::NodeId* wrow =
            tw.adjacency() + (offsets[w] - tw.entry.slot_begin);
        const std::uint64_t wd = offsets[w + 1] - offsets[w];
        const graph::NodeId* wh = std::upper_bound(wrow, wrow + wd, w);
        const graph::NodeId* pos = std::lower_bound(wh, wrow + wd, v);
        inc[i] = coffsets[w] + static_cast<std::uint64_t>(pos - wh);
      }
      dirty_bytes += d * (sizeof(std::uint64_t) + sizeof(graph::NodeId));
      if (dirty_bytes >= options.rss_budget_bytes) {
        flush_all();
        dirty_bytes = 0;
      }
    }
  }
  if (!duplicates.empty()) {
    throw_first_duplicate(input_path, options.limits, std::move(duplicates));
  }

  // Stamp each shard's CRC64 into its manifest entry. Synced shards are
  // streamed back through the CRC and dropped one at a time, so peak RSS
  // stays bounded by a single shard, not the whole directory.
  std::uint64_t total_bytes = 0;
  for (std::uint64_t i = 0; i < shards.size(); ++i) {
    ShardTarget& t = shards[i];
    t.map.sync_and_drop();
    manifest.shards[i].crc64 = crc64(
        reinterpret_cast<const unsigned char*>(t.map.data()),
        static_cast<std::size_t>(t.entry.file_bytes));
    t.map.sync_and_drop();
    total_bytes += t.entry.file_bytes;
  }
  shards.clear();  // unmap + close before the manifest commits the build

  // Crash-simulation point: every shard is on disk, the manifest is not.
  if (options.abort_before_manifest) options.abort_before_manifest();

  const std::vector<unsigned char> bytes = encode_shard_manifest(manifest);
  const std::string manifest_path =
      (fs::path(out_dir) / kManifestFileName).string();
  {
    errno = 0;
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      throw ParseError(ParseErrorCode::kIoError,
                       "cannot open '" + manifest_path + "' for writing: " +
                           std::strerror(errno ? errno : EINVAL));
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      throw ParseError(ParseErrorCode::kIoError,
                       "write failure on '" + manifest_path + "'");
    }
  }
  total_bytes += bytes.size();

  ShardBuildStats stats;
  stats.n = n;
  stats.m = m;
  stats.shards = manifest.shards.size();
  stats.total_bytes = total_bytes;
  return stats;
}

}  // namespace dmpc::mpc
