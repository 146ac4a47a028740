// repro_report — renders a directory of bench_runner artifacts
// (BENCH_<EXP>.json) as the measured tables of EXPERIMENTS.md. It runs no
// experiment itself: bench_runner is the only place one is defined.
//
//   ./bench_runner --experiments=all --out=artifacts
//   ./repro_report artifacts > report.md
//
// One table per artifact, in experiment order: the sweep axis plus every
// numeric "model" field (and E19's "rss" fields), and a certificate column
// ("ok passed/claims") when points carry a "certificate" block (E1/E2).
// E16 also gets its point's registry block. Every experiment with a theorem
// envelope (bench_json.hpp's kLogEnvelopes: E1, E2, E6) gets log-fit
// footers, computed with obs::check_envelope and the default slack
// tools/scaling_check gates on.
//
// Exit 0 on success; 2 when the directory is missing, holds no BENCH_*.json,
// or a file is not a well-formed artifact.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "obs/scaling.hpp"
#include "support/check.hpp"
#include "support/json.hpp"

namespace {

using dmpc::Json;

struct Artifact {
  std::uint64_t number = 0;  ///< 17 for "e17"
  Json doc;
};

/// Every BENCH_*.json under `dir`, parsed and ordered by experiment number.
/// Throws on a bad directory or a malformed artifact.
std::vector<Artifact> load_artifacts(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    throw std::runtime_error("not a directory: " + dir);
  }
  std::vector<Artifact> artifacts;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json") {
      continue;
    }
    Artifact artifact;
    artifact.doc = Json::parse_file(entry.path().string());
    const std::string& bench = artifact.doc.at("bench").as_string();
    if (bench.size() < 2 || bench[0] != 'e') {
      throw std::runtime_error(name + ": bench id '" + bench +
                               "' is not e<N>");
    }
    artifact.number = std::stoull(bench.substr(1));
    artifacts.push_back(std::move(artifact));
  }
  if (artifacts.empty()) {
    throw std::runtime_error("no BENCH_*.json files in " + dir);
  }
  std::sort(artifacts.begin(), artifacts.end(),
            [](const Artifact& a, const Artifact& b) {
              return a.number < b.number;
            });
  return artifacts;
}

std::string cell(const Json& value) {
  if (value.is_int()) return std::to_string(value.as_int64());
  if (value.is_string()) return value.as_string();
  if (value.is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", value.as_double());
    return buf;
  }
  return "—";
}

void print_row(const std::vector<std::string>& cells) {
  std::string line = "|";
  for (const auto& c : cells) line += " " + c + " |";
  std::printf("%s\n", line.c_str());
}

/// The axis column, every numeric model field (first-seen order across
/// points; "—" where a point lacks one; the axis itself is not repeated),
/// E19's host-measured rss fields, and the certificate verdict.
void print_points_table(const Json& doc) {
  const auto& points = doc.at("points").items();
  const std::string& axis = doc.at("axis").as_string();
  std::vector<std::pair<std::string, std::string>> columns;  // block, field
  bool certified = false;
  for (const Json& point : points) {
    for (const char* block : {"model", "rss"}) {
      const Json* fields = point.find(block);
      if (fields == nullptr) continue;
      for (const auto& [name, value] : fields->fields()) {
        const std::pair<std::string, std::string> column{block, name};
        if (value.is_number() && name != axis &&
            std::find(columns.begin(), columns.end(), column) ==
                columns.end()) {
          columns.push_back(column);
        }
      }
    }
    certified = certified || point.find("certificate") != nullptr;
  }
  std::vector<std::string> header = {axis};
  for (const auto& column : columns) header.push_back(column.second);
  if (certified) header.push_back("certificate");
  print_row(header);
  print_row(std::vector<std::string>(header.size(), "---"));
  for (const Json& point : points) {
    std::vector<std::string> row = {cell(point.at("axis_value"))};
    for (const auto& [block, name] : columns) {
      const Json* fields = point.find(block);
      const Json* value = fields != nullptr ? fields->find(name) : nullptr;
      row.push_back(value != nullptr ? cell(*value) : "—");
    }
    if (certified) {
      const Json* c = point.find("certificate");
      row.push_back(c == nullptr ? "—"
                                 : "ok " + cell(c->at("passed")) + "/" +
                                       cell(c->at("claims")));
    }
    print_row(row);
  }
}

/// E16: the traced solve's registry delta, one row per metric; histograms
/// show their observation count and sum.
void print_registry_table(const Json& doc) {
  std::printf("\n| metric | value |\n|---|---|\n");
  for (const Json& point : doc.at("points").items()) {
    for (const auto& [name, value] : point.at("registry").fields()) {
      const std::string shown =
          value.is_object() ? "total=" + cell(value.at("total")) +
                                  " sum=" + cell(value.at("sum"))
                            : cell(value);
      print_row({name, shown});
    }
  }
}

/// Least-squares fit of one kLogEnvelopes entry, with the pass/fail verdict
/// scaling_check applies.
void print_log_fit(const Json& doc, const dmpc::bench::LogEnvelope& envelope) {
  const auto series = dmpc::bench::envelope_series(doc, envelope.field);
  DMPC_CHECK_MSG(!series.empty(), doc.at("bench").as_string()
                                      << ": no numeric points for "
                                      << envelope.field);
  const auto fit = dmpc::obs::check_envelope(
      series, envelope.kind, dmpc::bench::kDefaultEnvelopeSlack);
  const std::string& axis = doc.at("axis").as_string();
  const std::string x = envelope.kind == dmpc::obs::EnvelopeKind::kLogX
                            ? "log2(" + axis + ")"
                            : "log2(log2(" + axis + "))";
  std::printf("\n%s vs %s: %.2f + %.2f * %s, r^2 %.2f, "
              "max residual %.3f -> %s\n",
              envelope.field, x.c_str(), fit.intercept, fit.slope, x.c_str(),
              fit.r_squared, fit.max_rel_residual,
              fit.pass ? "within envelope" : "VIOLATED");
}

void render(const Artifact& artifact) {
  const Json& doc = artifact.doc;
  std::printf("\n### E%llu — %s%s\n\n",
              static_cast<unsigned long long>(artifact.number),
              doc.at("title").as_string().c_str(),
              doc.at("quick").as_bool() ? " (quick)" : "");
  print_points_table(doc);
  const std::string& bench = doc.at("bench").as_string();
  if (bench == "e16") print_registry_table(doc);
  for (const auto& envelope : dmpc::bench::kLogEnvelopes) {
    if (bench == envelope.bench) print_log_fit(doc, envelope);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: repro_report <dir of BENCH_*.json>\n");
    return 2;
  }
  try {
    const auto artifacts = load_artifacts(argv[1]);
    std::printf("# dmpc experiment report\n");
    for (const Artifact& artifact : artifacts) render(artifact);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}
