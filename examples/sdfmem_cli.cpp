// sdfmem_cli: command-line front end for the full compiler pipeline.
//
//   sdfmem_cli report   [graph.sdf]   # table-1 style memory report
//   sdfmem_cli schedule [graph.sdf]   # print the optimized looped schedule
//   sdfmem_cli codegen  [graph.sdf]   # emit threaded C on stdout
//   sdfmem_cli dump     [graph.sdf]   # echo the parsed graph
//   sdfmem_cli explore  [graph.sdf]   # code-size / memory Pareto frontier
//   sdfmem_cli gantt    [graph.sdf]   # buffer lifetimes and pool offsets
//   sdfmem_cli dot      [graph.sdf]   # Graphviz rendering of the graph
//   sdfmem_cli hsdf     [graph.sdf]   # homogeneous (HSDF) expansion
//   sdfmem_cli stats    [graph.sdf]   # per-stage wall times + counters
//
// Every subcommand accepts `--trace <file.json>`: telemetry is enabled for
// the run and a `sdfmem.telemetry.v1` report (see docs/OBSERVABILITY.md)
// is written to the file on exit.
//
// `--jobs N` sets the worker-thread count for the parallel paths (design-
// space exploration in `explore`, the two pipeline sides in `report`);
// N must be a positive integer — leave the flag unset to honor
// $SDFMEM_JOBS and otherwise run serial. Output is byte-identical for
// every jobs value.
//
// Resource governance (docs/ERRORS.md): `--deadline-ms N` and
// `--dp-mem-mb N` (both strictly positive) install a per-run
// ResourceGovernor; a tripped budget
// degrades the loop optimizer (chainx -> sdppo -> dppo -> flat) instead of
// failing, and the degradation chain is reported in the output and in the
// trace file. `--json` switches errors to a machine-readable
// {"error": {code, message, loc}} object on stdout; exit codes are per
// ErrorCode (0 ok, 2 usage, 11..21 — see docs/ERRORS.md). The
// SDFMEM_FAULTS / SDFMEM_FAULT_SEED environment variables arm deterministic
// fault injection (util/fault.h).
//
// With no graph file, a built-in demo (the satellite receiver) is used so
// the tool is runnable out of the box.
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "codegen/c_codegen.h"
#include "graphs/satellite.h"
#include "obs/counters.h"
#include "obs/json_report.h"
#include "obs/trace.h"
#include "pipeline/compile.h"
#include "pipeline/explore.h"
#include "pipeline/governor.h"
#include "lifetime/schedule_tree.h"
#include "sdf/diagnostics.h"
#include "sdf/dot.h"
#include "sdf/io.h"
#include "sdf/transform.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace {

constexpr int kUsageExit = 2;

void usage() {
  std::fprintf(
      stderr,
      "usage: sdfmem_cli "
      "<report|schedule|codegen|dump|explore|gantt|dot|hsdf|stats> "
      "[graph.sdf] [--trace file.json] [--jobs N]\n"
      "                  [--deadline-ms N] [--dp-mem-mb N] [--json]\n");
}

/// Prints the collected spans (indented by depth) and all counters/gauges.
void print_stats() {
  using namespace sdf;
  std::printf("\nstage timings:\n");
  for (const obs::SpanRecord& rec : obs::spans()) {
    std::printf("  %*s%-*s %10.3f ms\n", rec.depth * 2, "",
                32 - rec.depth * 2, rec.name.c_str(),
                static_cast<double>(rec.duration_ns()) / 1e6);
  }
  std::printf("\ncounters:\n");
  for (const auto& [name, value] : obs::counters()) {
    std::printf("  %-36s %12lld\n", name.c_str(),
                static_cast<long long>(value));
  }
  if (!obs::gauges().empty()) {
    std::printf("\ngauges:\n");
    for (const auto& [name, value] : obs::gauges()) {
      std::printf("  %-36s %12lld\n", name.c_str(),
                  static_cast<long long>(value));
    }
  }
}

/// Emits one diagnostic the way the run was asked to: a {"error": ...}
/// object on stdout under --json, a human line on stderr otherwise.
/// Returns the process exit code for the diagnostic.
int report_error(const sdf::Diagnostic& diag, bool json) {
  using namespace sdf;
  if (json) {
    obs::Json doc = obs::Json::object();
    doc["error"] = diagnostic_to_json(diag);
    std::printf("%s\n", doc.dump(2).c_str());
  } else {
    std::fprintf(stderr, "error[%s]: %s\n",
                 std::string(error_code_name(diag.code)).c_str(),
                 diag.message.c_str());
    if (!diag.actor.empty()) {
      std::fprintf(stderr, "  actor: %s\n", diag.actor.c_str());
    }
    if (!diag.edge.empty()) {
      std::fprintf(stderr, "  edge: %s\n", diag.edge.c_str());
    }
  }
  return exit_code_for(diag.code);
}

/// Builds the telemetry report (with graph context, when a graph is in
/// play) and writes it to `path`. A write failure — ENOSPC, closed pipe,
/// unwritable path — comes back as a structured kIo diagnostic for
/// report_error() instead of a silently truncated report.
std::optional<sdf::Diagnostic> write_trace(const std::string& path,
                                           const sdf::Graph* g,
                                           const std::string& degraded_from,
                                           bool order_degraded) {
  using namespace sdf;
  obs::Json doc = obs::report();
  doc["tool"] = "sdfmem_cli";
  if (g != nullptr) {
    obs::Json graph = obs::Json::object();
    graph["name"] = g->name();
    graph["actors"] = static_cast<std::int64_t>(g->num_actors());
    graph["edges"] = static_cast<std::int64_t>(g->num_edges());
    doc["graph"] = std::move(graph);
  }
  if (!degraded_from.empty()) doc["degraded_from"] = degraded_from;
  if (order_degraded) doc["order_degraded"] = true;
  return obs::write_file_checked(path, doc);
}

/// Flushes everything the mode wrote to stdout and surfaces a kIo
/// diagnostic when any of it was lost (closed pipe, full disk). Returns
/// the process exit code: 0 on success.
int finish_stdout(bool json_errors) {
  using namespace sdf;
  std::cout.flush();
  const bool cout_bad = !std::cout;
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0 || cout_bad) {
    Diagnostic diag;
    diag.code = ErrorCode::kIo;
    diag.message = "stdout write failed (closed pipe or full disk); "
                   "output is incomplete";
    return report_error(diag, json_errors);
  }
  return 0;
}

/// Parses a strictly positive integer flag value (util/flags.h); nullopt
/// (after a usage message) on zero, negatives, or anything non-numeric —
/// the values atoi() used to swallow silently.
std::optional<std::int64_t> parse_positive(const char* flag,
                                           const char* text) {
  const auto v = sdf::util::parse_positive_flag(text);
  if (!v) {
    std::fprintf(stderr, "error: %s expects a positive integer, got %s\n",
                 flag, text);
    usage();
    return std::nullopt;
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sdf;

  std::vector<std::string> positional;
  std::string trace_path;
  int jobs_flag = 0;  // 0 = $SDFMEM_JOBS or serial
  ResourceBudget budget;
  bool json_errors = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      trace_path = argv[++i];
    } else if (arg == "--jobs") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_positive("--jobs", argv[++i]);
      if (!v) return kUsageExit;
      jobs_flag = static_cast<int>(*v);
    } else if (arg == "--deadline-ms") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_positive("--deadline-ms", argv[++i]);
      if (!v) return kUsageExit;
      budget.deadline_ms = *v;
    } else if (arg == "--dp-mem-mb") {
      if (i + 1 >= argc) {
        usage();
        return kUsageExit;
      }
      const auto v = parse_positive("--dp-mem-mb", argv[++i]);
      if (!v) return kUsageExit;
      budget.dp_mem_bytes = *v * 1024 * 1024;
    } else if (arg == "--json") {
      json_errors = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      usage();
      return kUsageExit;
    } else {
      positional.push_back(arg);
    }
  }
  const int jobs = util::ThreadPool::resolve_jobs(jobs_flag);

  const std::string mode = positional.empty() ? "report" : positional[0];
  if (mode != "report" && mode != "schedule" && mode != "codegen" &&
      mode != "dump" && mode != "explore" && mode != "gantt" &&
      mode != "dot" && mode != "hsdf" && mode != "stats") {
    usage();
    return kUsageExit;
  }

  try {
    fault::configure_from_env();
  } catch (const std::exception& e) {
    return report_error(diagnostic_from_exception(e), json_errors);
  }

  Graph g;
  try {
    g = positional.size() > 1 ? load_graph(positional[1])
                              : satellite_receiver();
  } catch (const std::exception& e) {
    return report_error(diagnostic_from_exception(e), json_errors);
  }

  if (!trace_path.empty() || mode == "stats") {
    obs::set_enabled(true);
    obs::reset();
  }

  // The governor is installed for everything downstream of parsing; a
  // tripped budget degrades the compile (see pipeline/compile.cpp), and
  // only a trip at the ladder's floor surfaces as resource-exhausted.
  ResourceGovernor governor(budget);
  const ResourceGovernor::Scope governed(governor);

  std::string degraded_from;
  bool order_degraded = false;
  const auto note_degradation = [&](const CompileResult& res) {
    degraded_from = res.degradation_path();
    order_degraded = res.order_degraded;
    if (!degraded_from.empty() && !json_errors) {
      std::fprintf(stderr, "note: optimizer degraded (%s -> %s)\n",
                   degraded_from.c_str(),
                   std::string(optimizer_name(res.effective_optimizer))
                       .c_str());
    }
  };

  try {
    if (mode == "dump") {
      std::cout << write_graph_text(g);
    } else if (mode == "dot") {
      std::cout << graph_to_dot(g);
    } else if (mode == "hsdf") {
      const HsdfExpansion x =
          expand_to_homogeneous(g, repetitions_vector(g));
      std::cout << write_graph_text(x.graph);
    } else if (mode == "stats") {
      const CompileResult res = compile(g);
      note_degradation(res);
      std::printf("graph:          %s (%zu actors, %zu edges)\n",
                  g.name().c_str(), g.num_actors(), g.num_edges());
      std::printf("schedule:       %s\n", res.schedule.to_string(g).c_str());
      std::printf("non-shared:     %lld tokens\n",
                  static_cast<long long>(res.nonshared_bufmem));
      std::printf("shared pool:    %lld tokens\n",
                  static_cast<long long>(res.shared_size));
      if (!degraded_from.empty()) {
        std::printf("degraded from:  %s\n", degraded_from.c_str());
      }
      print_stats();
    } else if (mode == "schedule") {
      const CompileResult res = compile(g);
      note_degradation(res);
      std::cout << res.schedule.to_string(g) << "\n";
    } else if (mode == "gantt") {
      const CompileResult res = compile(g);
      note_degradation(res);
      const ScheduleTree tree(g, res.schedule);
      std::cout << res.schedule.to_string(g) << "\n"
                << lifetime_gantt(g, res.lifetimes, tree.total_duration(),
                                  &res.allocation);
    } else if (mode == "explore") {
      ExploreOptions eopts;
      eopts.jobs = jobs;
      const ExploreResult r = explore_designs(g, eopts);
      std::printf("%zu strategies; pareto frontier:\n", r.points.size());
      for (const DesignPoint& p : r.frontier) {
        std::printf("  code %6lld  sharedMem %6lld   %s%s%s\n",
                    static_cast<long long>(p.code_size),
                    static_cast<long long>(p.shared_memory),
                    p.strategy.c_str(),
                    p.degraded_from.empty() ? "" : "  degraded:",
                    p.degraded_from.c_str());
      }
      if (r.points_dropped > 0) {
        std::fprintf(stderr, "note: %lld design point(s) dropped (budget)\n",
                     static_cast<long long>(r.points_dropped));
      }
    } else if (mode == "codegen") {
      const CompileResult res = compile(g);
      note_degradation(res);
      std::cout << generate_c_source(g, res.q, res.schedule, res.lifetimes,
                                     res.allocation);
    } else {
      const CompileResult res = compile(g);
      note_degradation(res);
      const Table1Row row = table1_row(g, jobs);
      std::printf("graph:          %s (%zu actors, %zu edges)\n",
                  g.name().c_str(), g.num_actors(), g.num_edges());
      std::printf("schedule:       %s\n", res.schedule.to_string(g).c_str());
      std::printf("non-shared:     %lld tokens (best of RPMC/APGAN + DPPO)\n",
                  static_cast<long long>(row.best_nonshared()));
      std::printf("shared pool:    %lld tokens (best first-fit)\n",
                  static_cast<long long>(row.best_shared()));
      std::printf("BMLB:           %lld tokens\n",
                  static_cast<long long>(row.bmlb));
      std::printf("improvement:    %.1f%%\n", row.improvement_percent());
    }
  } catch (const std::exception& e) {
    return report_error(diagnostic_from_exception(e), json_errors);
  }

  if (!trace_path.empty()) {
    if (const auto diag =
            write_trace(trace_path, &g, degraded_from, order_degraded)) {
      return report_error(*diag, json_errors);
    }
  }
  return finish_stdout(json_errors);
}
