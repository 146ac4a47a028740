// Replay the checked-in fuzz regression corpus through the shared drivers.
//
//   replay_corpus <corpus-root>
//
// <corpus-root> contains one subdirectory per target (edge_list/,
// fault_plan/, cli_args/, shard_header/, event_filter/); every regular
// file inside is fed to the matching driver. Runs as a plain ctest test in
// every build (no fuzzer runtime needed), so crashes found by fuzzing and
// checked into the corpus stay fixed. Exits non-zero if a directory is
// missing/empty or a driver lets an untyped error escape.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz_drivers.hpp"

namespace {

using Driver = int (*)(const std::uint8_t*, std::size_t);

int replay_dir(const std::filesystem::path& dir, Driver driver) {
  if (!std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "replay_corpus: missing corpus directory %s\n",
                 dir.string().c_str());
    return 1;
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  if (files.empty()) {
    std::fprintf(stderr, "replay_corpus: empty corpus directory %s\n",
                 dir.string().c_str());
    return 1;
  }
  // Sort for a deterministic replay order across filesystems.
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::string data = bytes.str();
    try {
      driver(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "replay_corpus: %s escaped the driver on %s: %s\n",
                   "untyped error", path.string().c_str(), e.what());
      return 1;
    }
  }
  std::printf("replayed %zu inputs from %s\n", files.size(),
              dir.string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: replay_corpus <corpus-root>\n");
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  int rc = 0;
  rc |= replay_dir(root / "edge_list", &dmpc::fuzz::drive_edge_list);
  rc |= replay_dir(root / "fault_plan", &dmpc::fuzz::drive_fault_plan);
  rc |= replay_dir(root / "cli_args", &dmpc::fuzz::drive_cli_args);
  rc |= replay_dir(root / "shard_header", &dmpc::fuzz::drive_shard_header);
  rc |= replay_dir(root / "event_filter", &dmpc::fuzz::drive_event_filter);
  return rc;
}
