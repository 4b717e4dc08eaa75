// render_bundle DIR NAMES [--preintern]
//
// Loads the capture bundle in DIR and prints what `netfail analyze`,
// `netfail export` and `netfail export --anonymize` print for it, each
// under a `==== <verb>` line. NAMES holds one name per line. With
// --preintern they are interned in file order before the bundle loads, so
// they get the lowest symbol ids; either way the first output line is
// `symbol ids:` followed by the id each name ended up with.
//
// symbol_order_test.cpp runs this in fresh processes to pin that the
// outputs do not depend on the order in which symbols were interned.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/flaps.hpp"
#include "src/analysis/pipeline.hpp"
#include "src/analysis/tables.hpp"
#include "src/common/sym.hpp"
#include "src/io/bundle.hpp"
#include "src/svc/export.hpp"

namespace {

using namespace netfail;

/// The export inputs, assembled as `netfail export` assembles them.
svc::ExportInputs export_inputs(const analysis::CaptureView& view,
                                const LinkCensus& census) {
  analysis::Reconstructed r = analysis::extract_and_reconstruct(view);
  svc::ExportInputs in;
  in.census = &census;
  in.isis_episodes = analysis::detect_flaps(r.isis_recon.failures).episodes;
  in.syslog_episodes =
      analysis::detect_flaps(r.syslog_recon.failures).episodes;
  in.failures = std::move(r.syslog_recon.failures);
  in.failures.insert(in.failures.end(), r.isis_recon.failures.begin(),
                     r.isis_recon.failures.end());
  in.transitions = std::move(r.syslog.transitions);
  return in;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3 || argc > 4 ||
      (argc == 4 && std::strcmp(argv[3], "--preintern") != 0)) {
    std::fprintf(stderr, "usage: render_bundle DIR NAMES [--preintern]\n");
    return 2;
  }
  std::vector<std::string> names;
  std::ifstream names_in(argv[2]);
  for (std::string line; std::getline(names_in, line);) names.push_back(line);
  if (argc == 4) {
    for (const std::string& name : names) sym::intern_id(name);
  }

  const Result<io::Bundle> bundle = io::read_bundle(argv[1]);
  if (!bundle) {
    std::fprintf(stderr, "error: %s\n", bundle.error().to_string().c_str());
    return 1;
  }
  const analysis::CaptureView view{bundle->period,      bundle->census,
                                   bundle->collector,   bundle->lsp_records,
                                   bundle->tickets,     bundle->listener_gaps};

  std::string out = "symbol ids:";
  for (const std::string& name : names) {
    out += ' ' + std::to_string(sym::find_id(name));
  }
  out += "\n==== analyze\n";
  out += analysis::render_comparison(analysis::run_analysis(view),
                                     bundle->census);
  const svc::ExportInputs inputs = export_inputs(view, bundle->census);
  svc::ExportOptions options;
  out += "==== export\n" + svc::render_export(inputs, options);
  options.anonymize = true;
  out += "==== export --anonymize\n" + svc::render_export(inputs, options);
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}
