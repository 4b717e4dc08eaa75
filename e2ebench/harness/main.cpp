// nfbench subcommands (each prints one JSON object on stdout):
//
//   nfbench env
//       Build type, compiler, optimisation and sanitizer flags, core count.
//   nfbench gen --kind cenic|busy --seed N --out DIR
//       Simulate and write a workload bundle.
//   nfbench reference --dir B --work W
//       Write the reference outputs the verbs are checked against into W;
//       print the bundle's sizes and the batch reconstruction counts.
//   nfbench setup --dir B
//       Time one set-up: bundle read + mine_archive, then the serve
//       workload's gateway and HTTP start until listening.
//   nfbench trace --dir B --out FILE
//       Re-run each verb's call sequence in-process, traced and untraced,
//       and write the spans and timings to FILE.
//   nfbench serve --dir B --expect-digest FILE --work W
//       Run serve passes until 1000 queries are in, checking each pass's
//       merged digest against FILE.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "harness.hpp"

namespace nfbench {
namespace {

using Flags = std::map<std::string, std::string>;

// Traced and untraced repetitions of each verb sequence.
constexpr int kTraceReps = 2;

Flags parse_flags(int argc, char** argv) {
  Flags f;
  for (int i = 2; i + 1 < argc; i += 2) f[argv[i]] = argv[i + 1];
  return f;
}

std::string flag(const Flags& f, const std::string& name,
                 const std::string& fallback = "") {
  const auto it = f.find(name);
  return it == f.end() ? fallback : it->second;
}

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  out << body;
  return static_cast<bool>(out.flush());
}

int fail(const std::string& what) {
  std::fprintf(stderr, "nfbench: %s\n", what.c_str());
  return 1;
}

bool load_or_report(const std::string& dir, Bundle& b, Tracer& t) {
  std::string err;
  if (load_bundle(dir, b, t, err)) return true;
  std::fprintf(stderr, "nfbench: %s\n", err.c_str());
  return false;
}

int cmd_env() {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
#else
  const bool sanitized = false;
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf("%s\n",
              JsonObject()
                  .str("build_type", NFBENCH_BUILD_TYPE)
                  .str("compiler", compiler)
                  .integer("optimized", optimized ? 1 : 0)
                  .integer("sanitized", sanitized ? 1 : 0)
                  .integer("cores", std::thread::hardware_concurrency())
                  .done()
                  .c_str());
  return 0;
}

int cmd_gen(const Flags& f) {
  std::string err;
  if (!write_bundle(flag(f, "--kind"),
                    std::strtoull(flag(f, "--seed", "0").c_str(), nullptr, 10),
                    flag(f, "--out"), err)) {
    return fail(err);
  }
  return 0;
}

std::string counts_json(const ReconCounts& c) {
  return JsonObject()
      .integer("failures", c.failures)
      .integer("flap_episodes", c.flap_episodes)
      .integer("double_downs", c.double_downs)
      .integer("double_ups", c.double_ups)
      .integer("merged", c.merged)
      .integer("unterminated", c.unterminated)
      .done();
}

int cmd_setup(const Flags& f) {
  Tracer off(false);
  Bundle b;
  const std::int64_t t0 = now_ns();
  if (!load_or_report(flag(f, "--dir"), b, off)) return 1;
  const double load = static_cast<double>(now_ns() - t0) / 1e9;
  const double start = serve_start_seconds(b);
  if (start < 0) return fail("gateway or http server failed to start");
  std::printf("%s\n", JsonObject()
                          .num("setup_s", load + start)
                          .num("load_s", load)
                          .num("serve_start_s", start)
                          .done()
                          .c_str());
  return 0;
}

int cmd_reference(const Flags& f) {
  const std::string work = flag(f, "--work");
  Tracer off(false);
  Bundle b;
  if (!load_or_report(flag(f, "--dir"), b, off)) return 1;
  if (!write_file(work + "/analyze.expected", analyze_sequence(b, off)) ||
      !write_file(work + "/export.expected", export_sequence(b, off)) ||
      !write_file(work + "/serve.digest", alerts_sorted(serial_digest(b)))) {
    return fail("cannot write reference outputs to " + work);
  }
  const auto [isis, syslog] = batch_counts(b);
  std::printf("%s\n",
              JsonObject()
                  .integer("links", b.census.size())
                  .integer("syslog_lines", b.collector.size())
                  .integer("lsps", b.records.size())
                  .raw("isis", counts_json(isis))
                  .raw("syslog", counts_json(syslog))
                  .done()
                  .c_str());
  return 0;
}

int cmd_trace(const Flags& f) {
  const std::string dir = flag(f, "--dir");
  Tracer traced(true);
  Tracer off(false);
  std::map<std::string, std::vector<double>> untraced_s;
  std::vector<double> detect_on_s, detect_off_s;
  std::uint64_t mismatches = 0;
  std::string analyze_text;

  // Each root mirrors one verb: load (io + config spans) then its calls.
  const auto run_verb = [&](const std::string& verb, Tracer& t) {
    const int root = t.begin_run(verb);
    Bundle b;
    if (!load_or_report(dir, b, t)) std::exit(1);
    if (verb == "analyze") {
      const std::string text = analyze_sequence(b, t);
      if (analyze_text.empty()) analyze_text = text;
      if (text != analyze_text) ++mismatches;
    } else if (verb == "stream") {
      stream_sequence(b, t, /*detect=*/false);
    } else if (verb == "export") {
      (void)export_sequence(b, t);
    } else {
      (void)table7_sequence(b, t);
    }
    t.close(root);
  };
  for (int i = 0; i < kTraceReps; ++i) {
    for (const char* verb : {"analyze", "stream", "export", "table7"}) {
      run_verb(verb, traced);
      const std::int64_t t0 = now_ns();
      run_verb(verb, off);
      untraced_s[verb].push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  }
  // Detection overhead: the same engine pass with the detector on and off.
  {
    Bundle b;
    if (!load_or_report(dir, b, off)) return 1;
    for (int i = 0; i < kTraceReps + 1; ++i) {
      for (const bool detect : {true, false}) {
        const std::int64_t t0 = now_ns();
        stream_sequence(b, off, detect);
        (detect ? detect_on_s : detect_off_s)
            .push_back(static_cast<double>(now_ns() - t0) / 1e9);
      }
    }
  }
  JsonObject untraced;
  for (const auto& [verb, v] : untraced_s) untraced.raw(verb, json_array(v));
  const std::string body = JsonObject()
                                .raw("trace", traced.to_json())
                                .raw("untraced_s", untraced.done())
                                .raw("detect_on_s", json_array(detect_on_s))
                                .raw("detect_off_s", json_array(detect_off_s))
                                .integer("analyze_mismatches", mismatches)
                                .done();
  if (!write_file(flag(f, "--out"), body)) return fail("cannot write trace");
  std::printf("{\"ok\": 1}\n");
  return 0;
}

int cmd_serve(const Flags& f) {
  const std::string path = flag(f, "--expect-digest");
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string expect_digest = ss.str();
  if (expect_digest.empty()) return fail("no reference digest in " + path);
  Tracer off(false);
  Bundle b;
  if (!load_or_report(flag(f, "--dir"), b, off)) return 1;
  std::printf("%s\n",
              serve_workload(b, expect_digest, flag(f, "--work")).c_str());
  return 0;
}

}  // namespace
}  // namespace nfbench

int main(int argc, char** argv) {
  using namespace nfbench;
  if (argc < 2) {
    return fail("usage: nfbench env|gen|reference|setup|trace|serve ...");
  }
  const std::string cmd = argv[1];
  const Flags f = parse_flags(argc, argv);
  if (cmd == "env") return cmd_env();
  if (cmd == "gen") return cmd_gen(f);
  if (cmd == "reference") return cmd_reference(f);
  if (cmd == "setup") return cmd_setup(f);
  if (cmd == "trace") return cmd_trace(f);
  if (cmd == "serve") return cmd_serve(f);
  return fail("unknown subcommand " + cmd);
}
