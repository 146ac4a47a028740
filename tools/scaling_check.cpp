// scaling_check — CI regression gate over BENCH_*.json artifacts.
//
//   ./scaling_check [--baseline-dir=bench/baselines] [--slack=0.25]
//                   [--tolerance=0.10] [--gini-cap=PPM]
//                   [--rss-factor=0.5] [--rss-floor-mb=96]
//                   [--wall-tolerance=0.50] [--wall-floor-ms=50]
//                   BENCH_E1.json [BENCH_E2.json ...]
//
// Two independent gates, both judged on the artifacts' integer "model"
// fields only (the "wall"/"toolchain" blocks are host-dependent by design):
//
//  1. Theorem envelopes (obs/scaling.hpp): the measured series must fit the
//     paper's scaling shape within a relative residual `--slack`:
//       e1/e2: mpc_rounds and iterations vs log2(n)     (Theorems 7 / 14)
//       e6:    lowdeg_rounds vs log2(Delta)             (Theorem 1)
//              (these log fits are bench/bench_json.hpp's kLogEnvelopes,
//              over the numeric-axis points only)
//       e8:    peak_load <= s_budget, per point         (S = O(n^eps) cap)
//       e19:   shard-build peak RSS <= --rss-floor-mb MB
//              + --rss-factor * model.csr_bytes, per sweep point (the
//              streaming builder's O(n)+budget bound vs an O(m) regression)
//       e20:   model.identical == 1 on every storage-fault scenario (I/O
//              recovery must never change a solution or comparable report)
//     Experiments without a registered envelope are baseline-gated only.
//
//  1b. Skew band: points that embed a "profile" block (E1/E2 run with the
//     round profiler on) must keep their worst per-round load Gini at or
//     below --gini-cap parts-per-million. The profile block is
//     model-deterministic, so this is a golden gate like the envelopes.
//
//  2. Baseline comparison: when --baseline-dir holds a BENCH_<EXP>.json with
//     the same name, every model field of every baseline point must match
//     the measured value within relative `--tolerance` (absolute floor of 1
//     for near-zero counters). Points are matched positionally and must
//     agree on axis_value — a re-ordered or truncated sweep is a failure,
//     not a skip.
//
//  3. Wall-clock band (off by default; enable with --wall-tolerance=F > 0):
//     each measured point's wall.wall_ms must stay at or below
//     max(--wall-floor-ms, baseline wall_ms * (1 + F)). Upper bound only —
//     getting faster always passes — and host-section (kHost) by nature, so
//     it is meaningful only on a runner comparable to the one that wrote the
//     baselines; hence opt-in, with a generous default band and an absolute
//     floor absorbing timer noise on sub-floor benches.
//
// Exit 0 when every gate passes; exit 1 with one line per offending series
// ("<exp>.<axis>=<value>.<field>: ..."); exit 2 on usage/parse errors.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "obs/scaling.hpp"
#include "support/json.hpp"
#include "support/options.hpp"
#include "support/parse_error.hpp"

namespace {

using dmpc::Json;
using dmpc::obs::EnvelopeKind;
using dmpc::obs::SeriesPoint;

int g_failures = 0;

void fail(const std::string& series, const std::string& message) {
  std::fprintf(stderr, "FAIL %s: %s\n", series.c_str(), message.c_str());
  ++g_failures;
}

std::string axis_value_str(const Json& point) {
  const Json& v = point.at("axis_value");
  if (v.is_string()) return v.as_string();
  if (v.is_int()) return std::to_string(v.as_int64());
  return std::to_string(v.as_double());
}

/// "<exp>.<axis>=<value>" — the series prefix used in failure lines.
std::string series_name(const Json& doc, const Json& point) {
  return doc.at("bench").as_string() + "." + doc.at("axis").as_string() + "=" +
         axis_value_str(point);
}

void check_log_envelope(const Json& doc, const std::string& field,
                        EnvelopeKind kind, double slack) {
  const auto series = dmpc::bench::envelope_series(doc, field);
  const std::string exp = doc.at("bench").as_string();
  if (series.empty()) {
    fail(exp + "." + field, "no numeric points to fit");
    return;
  }
  const auto fit = dmpc::obs::check_envelope(series, kind, slack);
  const char* shape = kind == EnvelopeKind::kLogX ? "log2(x)" : "log2(log2(x))";
  if (!fit.pass) {
    const auto& worst = series[fit.worst_index];
    fail(exp + "." + doc.at("axis").as_string() + "=" +
             std::to_string(static_cast<long long>(worst.x)) + "." + field,
         fit.detail);
    return;
  }
  std::printf("ok   %s.%s ~ %.2f + %.2f * %s (r^2=%.3f, max residual %.3f "
              "<= slack %.2f)\n",
              exp.c_str(), field.c_str(), fit.intercept, fit.slope, shape,
              fit.r_squared, fit.max_rel_residual, slack);
}

void check_space_cap(const Json& doc) {
  std::vector<SeriesPoint> series;
  std::vector<double> caps;
  std::vector<std::string> names;
  for (const Json& point : doc.at("points").items()) {
    const Json& model = point.at("model");
    series.push_back({point.at("axis_value").as_double(),
                      model.at("peak_load").as_double()});
    caps.push_back(model.at("s_budget").as_double());
    names.push_back(series_name(doc, point) + ".peak_load");
  }
  const auto fit = dmpc::obs::check_cap(series, caps);
  if (!fit.pass) {
    fail(names[fit.worst_index], fit.detail);
    return;
  }
  std::printf("ok   %s.peak_load <= s_budget on all %zu points\n",
              doc.at("bench").as_string().c_str(), series.size());
}

/// Gate 1b: worst per-round load Gini of every profiled point within the
/// skew band. A regression here means some primitive started concentrating
/// its communication on few machines even though totals still fit.
void check_skew_band(const Json& doc, std::uint64_t gini_cap_ppm) {
  std::size_t profiled = 0;
  std::uint64_t worst = 0;
  const int failures_before = g_failures;
  for (const Json& point : doc.at("points").items()) {
    const Json* profile = point.find("profile");
    if (profile == nullptr) continue;
    ++profiled;
    const Json* gini = profile->find("gini_max_ppm");
    if (gini == nullptr || !gini->is_number()) {
      fail(series_name(doc, point) + ".profile", "gini_max_ppm missing");
      continue;
    }
    const auto value = static_cast<std::uint64_t>(gini->as_int64());
    worst = std::max(worst, value);
    if (value > gini_cap_ppm) {
      fail(series_name(doc, point) + ".profile.gini_max_ppm",
           std::to_string(value) + " > skew band " +
               std::to_string(gini_cap_ppm) + " ppm");
    }
  }
  if (profiled > 0 && g_failures == failures_before) {
    std::printf("ok   %s: load gini <= %llu ppm on all %zu profiled points "
                "(worst %llu)\n",
                doc.at("bench").as_string().c_str(),
                static_cast<unsigned long long>(gini_cap_ppm), profiled,
                static_cast<unsigned long long>(worst));
  }
}

/// E19 gate: the streaming shard build's peak RSS must stay below an
/// absolute floor plus a fraction of the in-memory CSR footprint at every
/// point. The builder is O(n) + dirty-page budget, so as m grows the ratio
/// falls; a regression to materializing the graph (O(m) resident) blows the
/// cap at the largest point. Points without an "rss" block (the identity
/// point) are exempt. The RSS reading is a host measurement, but the bound
/// is coarse enough (floor + factor * csr) to be runner-independent.
void check_rss_bound(const Json& doc, double rss_factor,
                     double rss_floor_mb) {
  const int failures_before = g_failures;
  std::size_t checked = 0;
  for (const Json& point : doc.at("points").items()) {
    const Json* rss = point.find("rss");
    if (rss == nullptr) continue;
    const Json* peak = rss->find("build_peak_rss_bytes");
    const Json* csr = point.at("model").find("csr_bytes");
    if (peak == nullptr || !peak->is_number() || csr == nullptr ||
        !csr->is_number()) {
      fail(series_name(doc, point) + ".rss",
           "build_peak_rss_bytes / model.csr_bytes missing");
      continue;
    }
    const double cap = rss_floor_mb * 1048576.0 + rss_factor * csr->as_double();
    if (peak->as_double() > cap) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "build peak RSS %.1f MB > cap %.1f MB (floor %.0f MB + "
                    "%.2f * csr %.1f MB)",
                    peak->as_double() / 1048576.0, cap / 1048576.0,
                    rss_floor_mb, rss_factor, csr->as_double() / 1048576.0);
      fail(series_name(doc, point) + ".build_peak_rss_bytes", buf);
    }
    ++checked;
  }
  if (checked == 0) {
    fail(doc.at("bench").as_string() + ".rss", "no points carry an rss block");
  } else if (g_failures == failures_before) {
    std::printf("ok   %s: build peak RSS under floor+%.2f*csr cap on all %zu "
                "sweep points\n",
                doc.at("bench").as_string().c_str(), rss_factor, checked);
  }
}

/// E20 gate: every storage-fault scenario must report model.identical == 1
/// — recovery is only allowed to add ledger entries, never to change an
/// answer or a comparable report byte. The ledger counters themselves are
/// deterministic and covered by the baseline comparison (gate 2); this
/// envelope is the absolute floor that holds even without a baseline.
void check_recovery_identity(const Json& doc) {
  const int failures_before = g_failures;
  std::size_t checked = 0;
  for (const Json& point : doc.at("points").items()) {
    const Json* identical = point.at("model").find("identical");
    if (identical == nullptr || !identical->is_number()) {
      fail(series_name(doc, point) + ".identical", "field missing");
      continue;
    }
    if (identical->as_int64() != 1) {
      fail(series_name(doc, point) + ".identical",
           "recovered solve differs from the fault-free run");
    }
    ++checked;
  }
  if (checked == 0) {
    fail(doc.at("bench").as_string() + ".identical", "no points to check");
  } else if (g_failures == failures_before) {
    std::printf("ok   %s: recovery identity holds on all %zu scenarios\n",
                doc.at("bench").as_string().c_str(), checked);
  }
}

void check_envelopes(const Json& doc, double slack, double rss_factor,
                     double rss_floor_mb) {
  const std::string exp = doc.at("bench").as_string();
  for (const auto& envelope : dmpc::bench::kLogEnvelopes) {
    if (exp == envelope.bench) {
      check_log_envelope(doc, envelope.field, envelope.kind, slack);
    }
  }
  if (exp == "e8") {
    check_space_cap(doc);
  } else if (exp == "e19") {
    check_rss_bound(doc, rss_factor, rss_floor_mb);
  } else if (exp == "e20") {
    check_recovery_identity(doc);
  }
}

/// Gate 2: every model field of every baseline point within `tolerance`
/// (relative, absolute floor 1) of the measured artifact.
void compare_to_baseline(const Json& measured, const Json& baseline,
                         double tolerance) {
  const int failures_before = g_failures;
  const std::string exp = measured.at("bench").as_string();
  const auto& measured_points = measured.at("points").items();
  const auto& baseline_points = baseline.at("points").items();
  if (measured_points.size() != baseline_points.size()) {
    fail(exp + ".points",
         "point count " + std::to_string(measured_points.size()) +
             " != baseline " + std::to_string(baseline_points.size()));
    return;
  }
  std::size_t checked = 0;
  for (std::size_t i = 0; i < baseline_points.size(); ++i) {
    const Json& bp = baseline_points[i];
    const Json& mp = measured_points[i];
    const std::string series = series_name(measured, mp);
    if (axis_value_str(bp) != axis_value_str(mp)) {
      fail(series, "axis_value mismatch vs baseline " + axis_value_str(bp));
      continue;
    }
    for (const auto& [field, base_value] : bp.at("model").fields()) {
      if (!base_value.is_number()) continue;
      const Json* m = mp.at("model").find(field);
      if (m == nullptr || !m->is_number()) {
        fail(series + "." + field, "field missing from measured artifact");
        continue;
      }
      const double base = base_value.as_double();
      const double got = m->as_double();
      const double limit = tolerance * std::max(1.0, std::fabs(base));
      if (std::fabs(got - base) > limit) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "measured %.0f vs baseline %.0f (|delta| %.0f > "
                      "allowed %.1f)",
                      got, base, std::fabs(got - base), limit);
        fail(series + "." + field, buf);
      }
      ++checked;
    }
  }
  if (g_failures == failures_before) {
    std::printf("ok   %s: %zu model fields within %.0f%% of baseline\n",
                exp.c_str(), checked, tolerance * 100);
  }
}

/// Gate 3: measured wall_ms at or below the tolerance band over baseline.
/// Points without a wall block (on either side) are skipped, not failed:
/// older artifacts predate the block.
void compare_wall_to_baseline(const Json& measured, const Json& baseline,
                              double wall_tolerance, double wall_floor_ms) {
  const int failures_before = g_failures;
  const std::string exp = measured.at("bench").as_string();
  const auto& measured_points = measured.at("points").items();
  const auto& baseline_points = baseline.at("points").items();
  if (measured_points.size() != baseline_points.size()) return;  // gate 2 fails
  std::size_t checked = 0;
  for (std::size_t i = 0; i < baseline_points.size(); ++i) {
    const Json* bw = baseline_points[i].find("wall");
    const Json* mw = measured_points[i].find("wall");
    if (bw == nullptr || mw == nullptr) continue;
    const Json* base_ms = bw->find("wall_ms");
    const Json* got_ms = mw->find("wall_ms");
    if (base_ms == nullptr || !base_ms->is_number() || got_ms == nullptr ||
        !got_ms->is_number()) {
      continue;
    }
    const double base = base_ms->as_double();
    const double got = got_ms->as_double();
    const double limit =
        std::max(wall_floor_ms, base * (1.0 + wall_tolerance));
    if (got > limit) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "measured %.1f ms vs baseline %.1f ms (> allowed %.1f)",
                    got, base, limit);
      fail(series_name(measured, measured_points[i]) + ".wall_ms", buf);
    }
    ++checked;
  }
  if (g_failures == failures_before && checked > 0) {
    std::printf("ok   %s: wall_ms within +%.0f%% of baseline on %zu points\n",
                exp.c_str(), wall_tolerance * 100, checked);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const dmpc::ArgParser args(argc, argv);
  const double slack =
      args.get_double("slack", dmpc::bench::kDefaultEnvelopeSlack);
  const double tolerance = args.get_double("tolerance", 0.10);
  const double wall_tolerance = args.get_double("wall-tolerance", 0.0);
  const double wall_floor_ms = args.get_double("wall-floor-ms", 50.0);
  const auto gini_cap_ppm =
      static_cast<std::uint64_t>(args.get_int("gini-cap", 900000));
  const double rss_factor = args.get_double("rss-factor", 0.5);
  const double rss_floor_mb = args.get_double("rss-floor-mb", 96.0);
  const std::string baseline_dir = args.get("baseline-dir", "");
  const std::vector<std::string>& files = args.positional();
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: scaling_check [--baseline-dir=<dir>] [--slack=F] "
                 "[--tolerance=F] [--gini-cap=PPM] [--rss-factor=F] "
                 "[--rss-floor-mb=F] [--wall-tolerance=F] "
                 "[--wall-floor-ms=F] BENCH_*.json...\n");
    return 2;
  }

  for (const std::string& file : files) {
    Json doc;
    try {
      doc = Json::parse_file(file);
    } catch (const dmpc::ParseError& e) {
      std::fprintf(stderr, "error: %s: %s\n", file.c_str(), e.what());
      return 2;
    }
    std::printf("== %s (%s) ==\n", doc.at("bench").as_string().c_str(),
                file.c_str());
    check_envelopes(doc, slack, rss_factor, rss_floor_mb);
    check_skew_band(doc, gini_cap_ppm);
    if (!baseline_dir.empty()) {
      std::string name = file;
      const auto slash = name.find_last_of('/');
      if (slash != std::string::npos) name = name.substr(slash + 1);
      const std::string baseline_path = baseline_dir + "/" + name;
      try {
        const Json baseline = Json::parse_file(baseline_path);
        compare_to_baseline(doc, baseline, tolerance);
        if (wall_tolerance > 0.0) {
          compare_wall_to_baseline(doc, baseline, wall_tolerance,
                                   wall_floor_ms);
        }
      } catch (const dmpc::ParseError& e) {
        fail(doc.at("bench").as_string() + ".baseline",
             baseline_path + ": " + e.what());
      }
    }
  }

  if (g_failures > 0) {
    std::fprintf(stderr, "scaling_check: %d failing series\n", g_failures);
    return 1;
  }
  std::printf("scaling_check: all gates passed\n");
  return 0;
}
