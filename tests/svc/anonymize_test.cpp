// Anonymized-export guarantees, enforced as a round-trip:
//
//   - structural isomorphism: the anonymized export has the same lines in
//     the same order with identical numeric payloads — only `link` names
//     and `T` reporter/reason fields differ;
//   - zero original bytes: no census hostname, interface name, or syslog
//     free-text reason survives anonymization;
//   - bijectivity + determinism: distinct names stay distinct, the same
//     seed reproduces the same pseudonyms, a different seed changes them.
#include "src/svc/export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/scenario_cache.hpp"
#include "src/sim/network_sim.hpp"
#include "src/svc/anonymize.hpp"

namespace netfail::svc {
namespace {

using Scenario = std::shared_ptr<const analysis::PipelineCapture>;

Scenario scenario() {
  static Scenario s =
      analysis::ScenarioCache::global().capture(sim::test_scenario(5));
  return s;
}

/// The batch pipeline's outputs assembled exactly as `netfail export` does.
const ExportInputs& inputs() {
  static const ExportInputs in = [] {
    const Scenario s = scenario();
    ExportInputs out;
    out.census = &s->census;
    analysis::Reconstructed r = analysis::extract_and_reconstruct(s->view());
    out.syslog_episodes =
        analysis::detect_flaps(r.syslog_recon.failures).episodes;
    out.isis_episodes = analysis::detect_flaps(r.isis_recon.failures).episodes;
    out.failures = std::move(r.syslog_recon.failures);
    out.failures.insert(out.failures.end(), r.isis_recon.failures.begin(),
                        r.isis_recon.failures.end());
    out.transitions = std::move(r.syslog.transitions);
    return out;
  }();
  return in;
}

std::vector<std::string_view> lines_of(const std::string& text) {
  std::vector<std::string_view> out;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    out.push_back(rest.substr(0, nl));
    if (nl == std::string_view::npos) break;
    rest.remove_prefix(nl + 1);
  }
  return out;
}

/// Every name byte-string that must not survive anonymization.
std::vector<std::string> sensitive_strings() {
  std::vector<std::string> out;
  for (const CensusLink& cl : scenario()->census.links()) {
    out.push_back(std::string(cl.a.host.view()));
    out.push_back(std::string(cl.b.host.view()));
    out.push_back(std::string(cl.a.iface.view()));
    out.push_back(std::string(cl.b.iface.view()));
    out.push_back(cl.name);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(Anonymize, PlainExportCarriesTheFullStructure) {
  const std::string plain = render_export(inputs(), {});
  const auto ls = lines_of(plain);
  ASSERT_GT(ls.size(), 2u);
  EXPECT_EQ(ls[0], "netfail-export v1");
  EXPECT_EQ(ls[1], "links " + std::to_string(scenario()->census.size()));
  std::size_t link_lines = 0;
  std::size_t end_lines = 0;
  std::size_t failure_lines = 0;
  for (const std::string_view l : ls) {
    if (l.substr(0, 5) == "link ") ++link_lines;
    if (l == "end") ++end_lines;
    if (l.substr(0, 2) == "F ") ++failure_lines;
  }
  EXPECT_EQ(link_lines, scenario()->census.size());
  EXPECT_EQ(end_lines, scenario()->census.size());
  EXPECT_EQ(failure_lines, inputs().failures.size());
  for (const CensusLink& cl : scenario()->census.links()) {
    EXPECT_NE(plain.find("link " + cl.name + "\n"), std::string::npos)
        << cl.name;
  }
}

TEST(Anonymize, AnonymizedExportIsStructurallyIsomorphic) {
  const std::string plain = render_export(inputs(), {});
  ExportOptions opts;
  opts.anonymize = true;
  const std::string anon = render_export(inputs(), opts);

  const auto pl = lines_of(plain);
  const auto al = lines_of(anon);
  ASSERT_EQ(pl.size(), al.size());
  for (std::size_t i = 0; i < pl.size(); ++i) {
    SCOPED_TRACE("line " + std::to_string(i));
    if (pl[i].substr(0, 5) == "link ") {
      // Name remapped, record type preserved.
      EXPECT_EQ(al[i].substr(0, 5), "link ");
      EXPECT_NE(al[i], pl[i]);
    } else if (pl[i].substr(0, 2) == "T ") {
      // Timestamps and direction identical; reporter/reason remapped.
      EXPECT_EQ(al[i].substr(0, 2), "T ");
      const auto numeric_prefix = [](std::string_view l) {
        return l.substr(0, l.find(" reporter="));
      };
      EXPECT_EQ(numeric_prefix(al[i]), numeric_prefix(pl[i]));
    } else {
      // S/F/E/A/header/end lines carry no names: byte-identical.
      EXPECT_EQ(al[i], pl[i]);
    }
  }
}

TEST(Anonymize, NoOriginalNameOrReasonByteSurvives) {
  ExportOptions opts;
  opts.anonymize = true;
  const std::string anon = render_export(inputs(), opts);
  for (const std::string& s : sensitive_strings()) {
    EXPECT_EQ(anon.find(s), std::string::npos) << s;
  }
  // Free-text reasons are redacted wholesale, not remapped.
  bool any_transition = false;
  for (const std::string_view l : lines_of(anon)) {
    if (l.substr(0, 2) != "T ") continue;
    any_transition = true;
    EXPECT_NE(l.find(std::string("reason=") + kRedactedText),
              std::string_view::npos)
        << l;
  }
  ASSERT_TRUE(any_transition) << "scenario produced no syslog transitions";
}

TEST(Anonymize, LinkNamesStayDistinctAndDeterministic) {
  ExportOptions opts;
  opts.anonymize = true;
  const std::string anon = render_export(inputs(), opts);
  std::set<std::string_view> names;
  for (const std::string_view l : lines_of(anon)) {
    if (l.substr(0, 5) == "link ") names.insert(l.substr(5));
  }
  EXPECT_EQ(names.size(), scenario()->census.size());  // bijective
  EXPECT_EQ(anon, render_export(inputs(), opts));      // deterministic
}

TEST(Anonymize, SeedSelectsThePseudonymUniverse) {
  ExportOptions a;
  a.anonymize = true;
  ExportOptions b = a;
  b.seed = 12345;
  const std::string ea = render_export(inputs(), a);
  const std::string eb = render_export(inputs(), b);
  EXPECT_NE(ea, eb);
  // Structure is seed-independent: same line count, same record types.
  const auto la = lines_of(ea);
  const auto lb = lines_of(eb);
  ASSERT_EQ(la.size(), lb.size());
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].substr(0, 2), lb[i].substr(0, 2));
  }
}

TEST(Anonymize, MapperIsInjectiveOverTheCensusUniverse) {
  const Anonymizer anon(scenario()->census, kDefaultAnonymizeSeed);
  std::set<std::string_view> originals;
  std::set<std::string_view> mapped;
  for (const CensusLink& cl : scenario()->census.links()) {
    for (const Symbol s : {cl.a.host, cl.b.host, cl.a.iface, cl.b.iface}) {
      originals.insert(s.view());
      mapped.insert(anon.map_view(s));
      EXPECT_NE(anon.map_view(s), s.view());
    }
  }
  EXPECT_EQ(mapped.size(), originals.size());
  // Symbols outside the census universe pass through unmapped.
  const Symbol foreign("not-a-census-name");
  EXPECT_EQ(anon.map_symbol(foreign), foreign);
}

TEST(ExportSink, PiecesAreBoundedAndJoinToTheString) {
  // `netfail export` writes each piece as it is rendered: the pieces,
  // joined, must be the string render byte for byte, plain and anonymized.
  for (const bool anonymize : {false, true}) {
    ExportOptions opts;
    opts.anonymize = anonymize;
    const std::string whole = render_export(inputs(), opts);
    ASSERT_GT(whole.size(), 2 * kExportPieceBytes);
    std::vector<std::string> pieces;
    const Result<std::size_t> written =
        render_export(inputs(), opts, [&](std::string_view piece) {
          pieces.emplace_back(piece);
          return true;
        });
    ASSERT_TRUE(written);
    EXPECT_EQ(*written, whole.size());
    std::string joined;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      // Every piece but the last is a full one, ending on a line end.
      if (i + 1 < pieces.size()) {
        EXPECT_GE(pieces[i].size(), kExportPieceBytes);
      }
      EXPECT_LT(pieces[i].size(), kExportPieceBytes + 4096);
      EXPECT_EQ(pieces[i].back(), '\n');
      joined += pieces[i];
    }
    EXPECT_TRUE(joined == whole) << "anonymize " << anonymize;
  }
}

TEST(ExportSink, RefusedPieceStopsTheRender) {
  int calls = 0;
  const Result<std::size_t> written =
      render_export(inputs(), {}, [&calls](std::string_view) {
        return ++calls < 2;
      });
  EXPECT_FALSE(written);
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace netfail::svc
