// dmbench: the repository benchmark. One run builds the crater terrain
// through the public pipeline, runs one workload for a fixed time,
// checks every answer, and prints one JSON line of results.
//
//   dmbench --workload <paper_cold|flythrough_warm|sharded_open>
//           --seed <n> --seconds <s> --trace <0|1>
//           --data-dir <dir> --trace-dir <dir>
//   dmbench --small --data-dir <dir> --trace-dir <dir>
//
// See README.md in this directory (run it through run.py, which builds
// the binary first).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace dmbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--small") {
      a->small = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--data-dir") {
      a->data_dir = v;
    } else if (k == "--trace-dir") {
      a->trace_dir = v;
    } else {
      return false;
    }
  }
  return !a->data_dir.empty() && !a->trace_dir.empty() &&
         (a->small || !a->workload.empty()) && a->seconds > 0;
}

std::string Json(const RunResult& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    s += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + vu.second + "\"}";
  }
  s += "}}";
  return s;
}

int RunOne(const Args& args, const Scale& scale, RunResult* r) {
  const dm::Status st = RunWorkload(args, scale, r);
  if (!st.ok()) {
    std::fprintf(stderr, "[dmbench] %s: %s\n", args.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  for (const auto& [name, vu] : r->metrics) {
    if (!std::isfinite(vu.first)) r->Fail("metric " + name + " is not finite");
  }
  for (const std::string& p : r->problems) {
    std::fprintf(stderr, "[dmbench] CHECK FAILED: %s\n", p.c_str());
  }
  return 0;
}

/// Every workload untraced and traced on a small terrain, then the
/// tampered-result checks. Exits non-zero unless everything passes.
int RunSmall(Args args) {
  Scale scale;
  scale.side = 65;
  scale.setup_reps = 1;
  args.seconds = 1.0;
  bool ok = true;
  RunResult total;
  for (const char* w : {"paper_cold", "flythrough_warm", "sharded_open"}) {
    for (bool trace : {false, true}) {
      args.workload = w;
      args.trace = trace;
      RunResult r;
      if (RunOne(args, scale, &r) != 0) return 1;
      std::printf("%s trace=%d %s\n", w, trace ? 1 : 0, Json(r).c_str());
      ok = ok && r.correct;
      total.attempted += r.attempted;
      total.failed += r.failed;
    }
  }
  for (const std::string& p : TamperSelfTest(args, scale)) {
    std::fprintf(stderr, "[dmbench] TAMPER CHECK FAILED: %s\n", p.c_str());
    ok = false;
  }
  total.correct = ok;
  std::printf("%s\n", Json(total).c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dmbench

int main(int argc, char** argv) {
  dmbench::Args args;
  if (!dmbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dmbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --data-dir <dir> --trace-dir <dir>\n"
                 "       dmbench --small --data-dir <dir> --trace-dir <dir>\n");
    return 2;
  }
  if (args.small) return dmbench::RunSmall(args);
  dmbench::RunResult r;
  if (dmbench::RunOne(args, dmbench::Scale{}, &r) != 0) return 1;
  std::printf("%s\n", dmbench::Json(r).c_str());
  return 0;
}
