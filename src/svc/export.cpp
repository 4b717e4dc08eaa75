#include "src/svc/export.hpp"

#include <algorithm>
#include <charconv>
#include <optional>

namespace netfail::svc {
namespace {

void put_i64(std::string& out, std::int64_t v) {
  char buf[24];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, p);
}

void put_f64(std::string& out, double v) {
  char buf[40];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, p);
}

const char* source_tag(analysis::Source s) {
  return s == analysis::Source::kSyslog ? "syslog" : "isis";
}

struct PerLink {
  std::vector<const analysis::Failure*> failures;
  std::vector<std::pair<const analysis::FlapEpisode*, analysis::Source>>
      episodes;
  std::vector<const syslog::SyslogTransition*> transitions;
  std::vector<const detect::LinkAlert*> alerts;
  std::int64_t downtime_ms[2] = {0, 0};  // indexed by Source
  std::int64_t failure_count[2] = {0, 0};
};

/// The render's one buffer: lines are appended to `text`, and each line
/// end hands it to the sink once it holds a piece. After the sink refuses
/// a piece, later pieces are dropped unsent.
class PieceWriter {
 public:
  explicit PieceWriter(const ExportSink& sink) : sink_(sink) {
    text.reserve(kExportPieceBytes + kExportPieceBytes / 4);
  }

  std::string text;

  void end_line() {
    if (text.size() >= kExportPieceBytes) flush();
  }
  void flush() {
    if (ok_ && !text.empty()) {
      ok_ = sink_(text);
      if (ok_) written_ += text.size();
    }
    text.clear();
  }
  bool ok() const { return ok_; }
  std::size_t written() const { return written_; }

 private:
  const ExportSink& sink_;
  bool ok_ = true;
  std::size_t written_ = 0;
};

}  // namespace

std::string render_export(const ExportInputs& in, const ExportOptions& opts) {
  std::string out;
  // A string takes every piece, so this render cannot fail.
  static_cast<void>(render_export(in, opts, [&out](std::string_view piece) {
    out.append(piece);
    return true;
  }));
  return out;
}

Result<std::size_t> render_export(const ExportInputs& in,
                                  const ExportOptions& opts,
                                  const ExportSink& sink) {
  const LinkCensus& census = *in.census;
  std::vector<PerLink> rows(census.size());
  const auto row_of = [&rows](LinkId link) -> PerLink* {
    if (!link.valid() || link.index() >= rows.size()) return nullptr;
    return &rows[link.index()];
  };

  for (const auto& f : in.failures) {
    if (PerLink* row = row_of(f.link); row != nullptr) {
      row->failures.push_back(&f);
      const int s = f.source == analysis::Source::kSyslog ? 0 : 1;
      row->downtime_ms[s] += f.duration().total_millis();
      ++row->failure_count[s];
    }
  }
  for (const auto& e : in.syslog_episodes) {
    if (PerLink* row = row_of(e.link); row != nullptr) {
      row->episodes.emplace_back(&e, analysis::Source::kSyslog);
    }
  }
  for (const auto& e : in.isis_episodes) {
    if (PerLink* row = row_of(e.link); row != nullptr) {
      row->episodes.emplace_back(&e, analysis::Source::kIsis);
    }
  }
  for (const auto& t : in.transitions) {
    if (PerLink* row = row_of(t.link); row != nullptr) {
      row->transitions.push_back(&t);
    }
  }
  for (const auto& a : in.alerts) {
    if (PerLink* row = row_of(a.link); row != nullptr) {
      row->alerts.push_back(&a);
    }
  }

  // Deterministic order within each link: failures/episodes by span then
  // source; transitions and alerts keep their (already time-ordered)
  // emission order.
  for (PerLink& row : rows) {
    std::stable_sort(row.failures.begin(), row.failures.end(),
                     [](const auto* a, const auto* b) {
                       if (a->span != b->span) return a->span < b->span;
                       return static_cast<int>(a->source) <
                              static_cast<int>(b->source);
                     });
    std::stable_sort(row.episodes.begin(), row.episodes.end(),
                     [](const auto& a, const auto& b) {
                       if (a.first->span != b.first->span) {
                         return a.first->span < b.first->span;
                       }
                       return static_cast<int>(a.second) <
                              static_cast<int>(b.second);
                     });
  }

  std::optional<Anonymizer> anon;
  if (opts.anonymize) anon.emplace(census, opts.seed);

  PieceWriter writer(sink);
  std::string& out = writer.text;
  out.append("netfail-export v1\n");
  out.append("links ");
  put_i64(out, static_cast<std::int64_t>(census.size()));
  out.push_back('\n');

  for (const CensusLink& link : census.links()) {
    if (!writer.ok()) break;
    const PerLink& row = rows[link.id.index()];
    out.append("link ");
    out.append(anon ? anon->link_name(link.id) : link.name);
    out.push_back('\n');
    for (const int s : {0, 1}) {
      out.append("S ");
      out.append(s == 0 ? "syslog" : "isis");
      out.append(" failures=");
      put_i64(out, row.failure_count[s]);
      out.append(" downtime_ms=");
      put_i64(out, row.downtime_ms[s]);
      out.push_back('\n');
      writer.end_line();
    }
    for (const auto* f : row.failures) {
      out.append("F ");
      out.append(source_tag(f->source));
      out.push_back(' ');
      put_i64(out, f->span.begin.unix_millis());
      out.push_back(' ');
      put_i64(out, f->span.end.unix_millis());
      out.push_back(' ');
      out.push_back(f->in_flap_episode ? '1' : '0');
      out.push_back('\n');
      writer.end_line();
    }
    for (const auto& [e, source] : row.episodes) {
      out.append("E ");
      out.append(source_tag(source));
      out.push_back(' ');
      put_i64(out, e->span.begin.unix_millis());
      out.push_back(' ');
      put_i64(out, e->span.end.unix_millis());
      out.push_back(' ');
      put_i64(out, static_cast<std::int64_t>(e->failure_count));
      out.push_back('\n');
      writer.end_line();
    }
    for (const auto* t : row.transitions) {
      out.append("T ");
      put_i64(out, t->time.unix_millis());
      out.append(t->dir == LinkDirection::kUp ? " up" : " down");
      out.append(" reporter=");
      out.append(anon ? anon->map_view(t->reporter) : t->reporter.view());
      out.append(" reason=");
      out.append(anon ? std::string_view(kRedactedText)
                      : std::string_view(t->reason));
      out.push_back('\n');
      writer.end_line();
    }
    for (const auto* a : row.alerts) {
      out.append("A ");
      put_i64(out, a->time.unix_millis());
      out.push_back(' ');
      out.append(detect::alert_kind_name(a->kind));
      out.push_back(' ');
      put_f64(out, a->score);
      out.push_back('\n');
      writer.end_line();
    }
    out.append("end\n");
    writer.end_line();
  }
  writer.flush();
  if (!writer.ok()) {
    return make_error(ErrorCode::kInternal, "the export's sink refused a piece");
  }
  return writer.written();
}

}  // namespace netfail::svc
