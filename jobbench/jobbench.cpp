// jobbench — the measurement half of the end-to-end job benchmark.
//
// Two subcommands, each one process, each printing one JSON object on its
// last stdout line:
//
//   jobbench setup --workload W --seed S --dir D
//       Generate the workload's graph from the seed, write it as a text edge
//       list (and, for the mmap workload, shard_build it). Times each call.
//
//   jobbench job --workload W --dir D [--threads T] [--trace 0|1]
//       Run the job a user runs on the inputs in D: open the input, solve
//       with dmpc::Solver (certify=answer), serialize the report. Each public
//       call is timed from here. With --trace 1 an obs::TraceSession with a
//       CollectorSink is attached and the job's own root spans wrap each
//       call, so every span's self time can be computed from parent ids.
//       After the timed region the solution is re-checked with the
//       independent graph validators and digested.
//
// The job process sees only the files setup wrote: the seed never reaches
// it. Peak RSS is the job process's own (getrusage), so set-up is excluded.
// Orchestration, medians, and the metric names live in run.py.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/validate.hpp"
#include "mpc/shard_format.hpp"
#include "mpc/storage.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"

namespace {

using Clock = std::chrono::steady_clock;

enum class Job { kMisText, kMatchingMmap };

struct Workload {
  const char* name;
  Job job;
  std::uint32_t threads;
};

constexpr std::uint32_t kN = 1u << 17;

// The benchmark's workloads; run.py and README.md describe why each exists.
constexpr Workload kWorkloads[] = {
    {"mis_gnm_text", Job::kMisText, 1},
    {"matching_powerlaw_mmap", Job::kMatchingMmap, 4},
    {"mis_lowdeg_regular", Job::kMisText, 4},
};

dmpc::graph::Graph generate(const std::string& workload, std::uint64_t seed) {
  if (workload == "mis_gnm_text") {
    return dmpc::graph::gnm(kN, 16ull * kN, seed);
  }
  if (workload == "matching_powerlaw_mmap") {
    return dmpc::graph::power_law(kN, 8ull * kN, 2.1, seed);
  }
  return dmpc::graph::random_regular(kN, 8, seed);
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Minimal writer for one flat-or-nested JSON object on one line.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return raw(key, buf);
  }
  JsonLine& num(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& text(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  JsonLine& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonLine& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += "\"" + key + "\":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Args {
  std::map<std::string, std::string> values;
  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw std::runtime_error(std::string("unexpected argument ") + argv[i]);
    }
    args.values[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

std::string input_text(const std::string& dir) { return dir + "/graph.txt"; }
std::string shard_dir(const std::string& dir) { return dir + "/shards"; }

int run_setup(const Workload& w, std::uint64_t seed, const std::string& dir) {
  std::filesystem::create_directories(dir);
  const auto t0 = Clock::now();
  dmpc::graph::Graph g = generate(w.name, seed);
  const auto t1 = Clock::now();
  dmpc::graph::write_edge_list_file(g, input_text(dir));
  const auto t2 = Clock::now();
  double shard_build_s = 0.0;
  if (w.job == Job::kMatchingMmap) {
    std::filesystem::remove_all(shard_dir(dir));
    const auto s0 = Clock::now();
    dmpc::mpc::shard_build(input_text(dir), shard_dir(dir));
    shard_build_s = seconds_between(s0, Clock::now());
  }
  const double generate_s = seconds_between(t0, t1);
  const double write_s = seconds_between(t1, t2);
  JsonLine out;
  out.num("generate_s", generate_s)
      .num("write_edge_list_s", write_s)
      .num("shard_build_s", shard_build_s)
      .num("setup_s", generate_s + write_s + shard_build_s)
      .num("n", static_cast<std::uint64_t>(g.num_nodes()))
      .num("m", static_cast<std::uint64_t>(g.num_edges()))
      .num("max_degree", static_cast<std::uint64_t>(g.max_degree()))
      .num("input_bytes",
           static_cast<std::uint64_t>(std::filesystem::file_size(input_text(dir))));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

/// Per-span-name totals over a collected stream: wall (begin->end) and self
/// (wall minus the wall of direct children, matched through parent ids).
std::string span_table(const std::vector<dmpc::obs::TraceEvent>& events) {
  struct Open {
    std::string name;
    std::uint64_t begin_ns;
    std::uint64_t parent;
  };
  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t wall_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::uint64_t, Open> open;
  std::map<std::string, Totals> totals;
  std::map<std::uint64_t, std::uint64_t> child_wall;  // span id -> children
  for (const auto& e : events) {
    if (e.kind == dmpc::obs::EventKind::kSpanBegin) {
      open[e.span] = {e.name, e.wall_ns, e.parent};
    } else if (e.kind == dmpc::obs::EventKind::kSpanEnd) {
      auto it = open.find(e.span);
      if (it == open.end()) continue;
      const std::uint64_t wall = e.wall_ns - it->second.begin_ns;
      Totals& t = totals[it->second.name];
      t.count += 1;
      t.wall_ns += wall;
      t.self_ns += static_cast<std::int64_t>(wall - child_wall[e.span]);
      if (it->second.parent != 0) child_wall[it->second.parent] += wall;
      child_wall.erase(e.span);
      open.erase(it);
    }
  }
  JsonLine table;
  for (const auto& [name, t] : totals) {
    JsonLine row;
    row.num("count", t.count)
        .num("wall_s", t.wall_ns * 1e-9)
        .num("self_s", static_cast<double>(t.self_ns) * 1e-9);
    table.raw(name, row.str());
  }
  return table.str();
}

/// The registry entries of the last solve under the layers the benchmark
/// reads (derand/, host/derand/, exec/, storage/).
std::string registry_table(const dmpc::obs::MetricsSnapshot& snapshot) {
  static const char* kPrefixes[] = {"derand/", "host/derand/", "exec/",
                                    "storage/"};
  JsonLine table;
  for (const auto& entry : snapshot.entries) {
    for (const char* prefix : kPrefixes) {
      if (entry.name.rfind(prefix, 0) == 0) {
        table.raw(entry.name, std::to_string(entry.value));
        break;
      }
    }
  }
  return table.str();
}

int run_job(const Workload& w, const std::string& dir, std::uint32_t threads,
            bool traced) {
  dmpc::obs::CollectorSink sink;
  dmpc::obs::TraceSession session(traced ? &sink : nullptr);

  dmpc::SolveOptions options;
  options.threads = threads;
  options.certify = dmpc::verify::CertifyMode::kAnswer;
  if (traced) options.trace = &session;
  if (w.job == Job::kMatchingMmap) {
    options.storage.backend = dmpc::mpc::StorageBackend::kMmap;
    options.storage.shard_dir = shard_dir(dir);
    options.storage.verify = dmpc::mpc::VerifyMode::kOpen;
  }
  const dmpc::Solver solver(options);

  // The timed region is open -> solve -> report; `solve_and_report` covers
  // the last two for either solution type. Peak RSS is read at its end, so
  // the untimed check and digest below do not count.
  Clock::time_point solve_begin, solve_end, report_end;
  double cpu_before = 0.0, cpu_after = 0.0, rss_mb = 0.0;
  std::uint64_t report_bytes = 0;
  auto solve_and_report = [&](const char* span_name, auto solve) {
    cpu_before = cpu_seconds();
    solve_begin = Clock::now();
    decltype(solve()) solution;
    {
      dmpc::obs::Span span(&session, span_name);
      solution = solve();
    }
    solve_end = Clock::now();
    cpu_after = cpu_seconds();
    {
      dmpc::obs::Span span(&session, "jobbench/report_json");
      report_bytes = solver.report_json(solution.report).size();
    }
    report_end = Clock::now();
    rss_mb = peak_rss_mb();
    return solution;
  };

  bool valid = false;
  std::vector<unsigned char> digest_bytes;
  dmpc::SolveReport solve_report;
  const auto job_begin = Clock::now();
  if (w.job == Job::kMisText) {
    dmpc::graph::Graph g;
    {
      dmpc::obs::Span span(&session, "jobbench/read_edge_list_file");
      g = dmpc::graph::read_edge_list_file(input_text(dir));
    }
    auto solution = solve_and_report("jobbench/solver_mis",
                                     [&] { return solver.mis(g); });
    valid = dmpc::graph::is_maximal_independent_set(g, solution.in_set);
    for (bool b : solution.in_set) digest_bytes.push_back(b ? 1 : 0);
    solve_report = std::move(solution.report);
  } else {
    std::unique_ptr<dmpc::mpc::Storage> storage;
    {
      dmpc::obs::Span span(&session, "jobbench/open_storage");
      storage = solver.open_storage("");
    }
    auto solution = solve_and_report("jobbench/solver_maximal_matching", [&] {
      return solver.maximal_matching(*storage);
    });
    valid = dmpc::graph::is_maximal_matching(storage->graph(),
                                             solution.matching);
    for (dmpc::graph::EdgeId e : solution.matching) {
      for (int i = 0; i < 8; ++i) {
        digest_bytes.push_back(static_cast<unsigned char>(
            static_cast<std::uint64_t>(e) >> (8 * i)));
      }
    }
    solve_report = std::move(solution.report);
  }
  session.finish();

  JsonLine out;
  out.num("threads", static_cast<std::uint64_t>(threads))
      .num("job_s", seconds_between(job_begin, report_end))
      .num("solve_s", seconds_between(solve_begin, solve_end))
      .num("report_json_s", seconds_between(solve_end, report_end))
      .num("solve_cpu_s", cpu_after - cpu_before)
      .num("peak_rss_mb", rss_mb)
      .num("model_rounds", solve_report.metrics.rounds())
      .num("comm_words", solve_report.metrics.total_communication())
      .num("peak_load_words", solve_report.metrics.peak_machine_load())
      .text("algorithm", solve_report.algorithm_used)
      .text("digest", hex64(dmpc::mpc::crc64(digest_bytes.data(),
                                             digest_bytes.size())))
      .boolean("valid", valid)
      .boolean("certified", !solve_report.certificate.empty())
      .num("claims_failed", solve_report.certificate.failures())
      .num("report_bytes", report_bytes)
      .raw("registry", registry_table(solver.metrics_snapshot()));
  if (traced) out.raw("spans", span_table(sink.events()));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: jobbench setup --workload W --seed S --dir D\n"
               "       jobbench job --workload W --dir D [--threads T] "
               "[--trace 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "jobbench: refusing to run an unoptimised build\n");
  return 3;
#endif
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const Args args = parse_args(argc, argv);
    const Workload* w = find_workload(args.get("workload", ""));
    if (w == nullptr) {
      std::fprintf(stderr, "jobbench: unknown workload '%s'\n",
                   args.get("workload", "").c_str());
      return 2;
    }
    const std::string dir = args.get("dir", "");
    if (dir.empty()) return usage();
    if (command == "setup") {
      return run_setup(*w, std::stoull(args.get("seed", "1")), dir);
    }
    if (command == "job") {
      const std::uint32_t threads = static_cast<std::uint32_t>(
          std::stoul(args.get("threads", std::to_string(w->threads))));
      if (threads == 0) return usage();
      return run_job(*w, dir, threads, args.get("trace", "0") == "1");
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jobbench: %s failed: %s\n", command.c_str(), e.what());
    return 1;
  }
}
