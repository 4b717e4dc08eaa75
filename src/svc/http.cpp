#include "src/svc/http.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>

#include "src/common/metrics.hpp"

namespace netfail::svc {
namespace {

/// Request heads larger than this are refused (431) — the whole API fits
/// in a line; anything bigger is a client bug or abuse.
constexpr std::size_t kMaxRequestHead = 16 * 1024;

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

void put_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out.append("\\u00");
          out.push_back("0123456789abcdef"[(c >> 4) & 0xf]);
          out.push_back("0123456789abcdef"[c & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// RFC 3986 percent-decoding; '+' is left alone (link names never use
/// form encoding). Invalid escapes pass through verbatim.
std::string percent_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = hex_value(s[i + 1]);
      const int lo = hex_value(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
        continue;
      }
    }
    out.push_back(s[i]);
  }
  return out;
}

bool query_has_flag(std::string_view query, std::string_view key) {
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view param = query.substr(0, amp);
    if (param == key) return true;
    if (param.size() == key.size() + 2 && param.substr(0, key.size()) == key &&
        param[key.size()] == '=' && param.back() == '1') {
      return true;
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return false;
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
  }
  return "OK";
}

std::string error_body(std::string_view message) {
  std::string out = "{\"error\":";
  put_json_string(out, message);
  out.append("}\n");
  return out;
}

/// ASCII case-insensitive comparison for header names.
bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const char ca = a[i] >= 'A' && a[i] <= 'Z' ? a[i] - 'A' + 'a' : a[i];
    const char cb = b[i] >= 'A' && b[i] <= 'Z' ? b[i] - 'A' + 'a' : b[i];
    if (ca != cb) return false;
  }
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// One link's merged row, assembled from the owning shard's checkpoint.
struct LinkRow {
  stream::LinkRunningStats syslog;
  stream::LinkRunningStats isis;
  std::uint64_t alerts_hard = 0;
  std::uint64_t alerts_cusum = 0;
  std::uint64_t alerts_drift = 0;
};

struct QueryView {
  std::vector<LinkRow> rows;  // indexed by LinkId::index()
  TimePoint high_water;
  std::uint64_t events = 0;
  std::size_t shards = 0;
};

QueryView assemble(const std::vector<stream::Checkpoint>& checkpoints,
                   std::size_t link_count) {
  QueryView view;
  view.rows.resize(link_count);
  view.shards = checkpoints.size();
  for (const stream::Checkpoint& cp : checkpoints) {
    const stream::StreamEngine& engine = cp.state();
    // Same rule as stream::merge_shard_runs: syslog lines are routed to one
    // shard each and sum; LSPs are broadcast to every shard, so shard 0's
    // count is the stream's.
    view.events += engine.syslog_events();
    if (&cp == &checkpoints.front()) view.events += engine.lsp_events();
    view.high_water = std::max(view.high_water, cp.high_water());
    for (const auto& st : engine.syslog_tracker().link_stats()) {
      if (st.link.valid() && st.link.index() < link_count) {
        view.rows[st.link.index()].syslog = st;
      }
    }
    for (const auto& st : engine.isis_tracker().link_stats()) {
      if (st.link.valid() && st.link.index() < link_count) {
        view.rows[st.link.index()].isis = st;
      }
    }
    for (const auto& alert : engine.detector().sink().snapshot()) {
      if (!alert.link.valid() || alert.link.index() >= link_count) continue;
      LinkRow& row = view.rows[alert.link.index()];
      switch (alert.kind) {
        case detect::AlertKind::kHardDown: ++row.alerts_hard; break;
        case detect::AlertKind::kFlapCusum: ++row.alerts_cusum; break;
        case detect::AlertKind::kTemplateDrift: ++row.alerts_drift; break;
      }
    }
  }
  return view;
}

void put_source_stats(std::string& out, const stream::LinkRunningStats& st,
                      TimePoint period_begin, TimePoint high_water) {
  out.append("{\"failures\":");
  put_i64(out, static_cast<std::int64_t>(st.failures));
  out.append(",\"downtime_ms\":");
  put_i64(out, st.downtime.total_millis());
  out.append(",\"flap_episodes\":");
  put_i64(out, static_cast<std::int64_t>(st.flap_episodes));
  out.append(",\"state\":");
  put_json_string(out, st.state == LinkDirection::kUp ? "up" : "down");
  out.append(",\"availability\":");
  const std::int64_t span =
      high_water.unix_millis() - period_begin.unix_millis();
  double availability = 1.0;
  if (span > 0) {
    availability = 1.0 - static_cast<double>(st.downtime.total_millis()) /
                             static_cast<double>(span);
    availability = std::clamp(availability, 0.0, 1.0);
  }
  put_f64(out, availability);
  out.push_back('}');
}

}  // namespace

HttpServer::HttpServer(const LinkCensus& census, SnapshotFn snapshot_fn,
                       CheckpointFn checkpoint_fn, HttpOptions options)
    : census_(&census),
      snapshot_fn_(std::move(snapshot_fn)),
      checkpoint_fn_(std::move(checkpoint_fn)),
      options_(std::move(options)) {}

HttpServer::~HttpServer() { stop(); }

Status HttpServer::start() {
  auto listen = net::tcp_listen(options_.host, options_.port, 16);
  if (!listen.ok()) return listen.error();
  listen_fd_ = std::move(listen).value();
  auto port = net::local_port(listen_fd_);
  if (!port.ok()) return port.error();
  port_ = *port;
  if (Status s = net::set_nonblocking(listen_fd_); !s.ok()) return s;
  loop_.add(listen_fd_.get(), [this](short revents) {
    on_listen_ready(revents);
  });
  thread_ = std::thread([this] { loop_.run(); });
  running_ = true;
  return Status::ok_status();
}

void HttpServer::stop() {
  if (!running_) return;
  loop_.stop();
  thread_.join();
  conns_.clear();  // Fd destructors close the sockets
  loop_.remove(listen_fd_.get());
  listen_fd_.reset();
  running_ = false;
}

void HttpServer::on_listen_ready(short revents) {
  if ((revents & POLLIN) == 0) return;
  for (;;) {
    const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN / transient accept errors: poll again
    Conn conn;
    conn.fd = net::Fd(fd);
    (void)net::set_nonblocking(conn.fd);
    conns_.emplace(fd, std::move(conn));
    loop_.add(fd, [this, fd](short re) { on_conn_ready(fd, re); });
  }
}

void HttpServer::on_conn_ready(int fd, short revents) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;

  if ((revents & (POLLERR | POLLNVAL)) != 0) {
    close_conn(fd);
    return;
  }
  if ((revents & (POLLIN | POLLHUP)) != 0) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {  // peer closed; flush what we owe and drop
        c.close_after = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      close_conn(fd);
      return;
    }
    if (!process_input(c)) {
      close_conn(fd);
      return;
    }
  }
  if (!flush_output(c)) close_conn(fd);
}

bool HttpServer::process_input(Conn& c) {
  for (;;) {
    const std::size_t head_end = c.in.find("\r\n\r\n");
    if (head_end == std::string::npos
            ? c.in.size() > kMaxRequestHead   // head still growing
            : head_end > kMaxRequestHead) {   // complete but oversized
      queue_response(c,
                     Response{431, "application/json",
                              error_body("request head too large")},
                     false);
      return true;
    }
    if (head_end == std::string::npos) {
      return !(c.close_after && c.out.empty() && c.in.empty());
    }
    const std::string_view head = std::string_view(c.in).substr(0, head_end);

    // Request line: METHOD SP target SP HTTP/1.x
    const std::size_t line_end = head.find("\r\n");
    const std::string_view request_line = head.substr(
        0, line_end == std::string_view::npos ? head.size() : line_end);
    const std::size_t sp1 = request_line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
      queue_response(
          c, Response{400, "application/json", error_body("malformed request")},
          false);
      c.in.clear();
      return true;
    }
    const std::string method(request_line.substr(0, sp1));
    const std::string target(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
    const std::string_view version = request_line.substr(sp2 + 1);
    if (version.substr(0, 5) != "HTTP/") {
      queue_response(
          c, Response{400, "application/json", error_body("malformed request")},
          false);
      c.in.clear();
      return true;
    }

    // Headers: keep-alive is the HTTP/1.1 default; a request body on this
    // GET-only API is refused outright.
    bool keep_alive = version != "HTTP/1.0";
    bool has_body = false;
    std::string_view rest = line_end == std::string_view::npos
                                ? std::string_view{}
                                : head.substr(line_end + 2);
    while (!rest.empty()) {
      const std::size_t eol = rest.find("\r\n");
      const std::string_view line =
          rest.substr(0, eol == std::string_view::npos ? rest.size() : eol);
      const std::size_t colon = line.find(':');
      if (colon != std::string_view::npos) {
        const std::string_view key = trim(line.substr(0, colon));
        const std::string_view value = trim(line.substr(colon + 1));
        if (iequals(key, "connection")) {
          if (iequals(value, "close")) keep_alive = false;
          if (iequals(value, "keep-alive")) keep_alive = true;
        } else if (iequals(key, "content-length")) {
          has_body = value != "0";
        } else if (iequals(key, "transfer-encoding")) {
          has_body = true;
        }
      }
      if (eol == std::string_view::npos) break;
      rest.remove_prefix(eol + 2);
    }
    c.in.erase(0, head_end + 4);

    if (has_body) {
      queue_response(c,
                     Response{400, "application/json",
                              error_body("request bodies are not accepted")},
                     false);
      c.in.clear();
      return true;
    }
    queue_response(c, handle(method, target), keep_alive);
    if (!keep_alive) {
      c.in.clear();
      return true;
    }
  }
}

HttpServer::Response HttpServer::handle(std::string_view method,
                                        std::string_view target) {
  if (method != "GET") {
    return Response{405, "application/json",
                    error_body("only GET is supported")};
  }
  const std::size_t qmark = target.find('?');
  const std::string_view query =
      qmark == std::string_view::npos ? std::string_view{}
                                      : target.substr(qmark + 1);
  const std::string path = percent_decode(target.substr(0, qmark));
  const bool anonymize = query_has_flag(query, "anonymize");

  if (path == "/healthz") {
    const QueryView view = assemble(snapshot_fn_(), census_->size());
    std::string body = "{\"status\":\"ok\",\"links\":";
    put_i64(body, static_cast<std::int64_t>(census_->size()));
    body.append(",\"shards\":");
    put_i64(body, static_cast<std::int64_t>(view.shards));
    body.append(",\"events\":");
    put_i64(body, static_cast<std::int64_t>(view.events));
    body.append(",\"high_water_ms\":");
    put_i64(body, view.high_water.unix_millis());
    body.append("}\n");
    return Response{200, "application/json", std::move(body)};
  }
  if (path == "/metrics") {
    return Response{200, "text/plain; version=0.0.4",
                    metrics::global().render_text()};
  }
  if (path == "/links" || path.rfind("/links/", 0) == 0) {
    return handle_links(path, anonymize);
  }
  if (path == "/checkpoint") {
    return handle_checkpoint();
  }
  return Response{404, "application/json", error_body("no such resource")};
}

HttpServer::Response HttpServer::handle_links(std::string_view path,
                                              bool anonymize) {
  const QueryView view = assemble(snapshot_fn_(), census_->size());
  const Anonymizer* anon = anonymize ? &anonymizer() : nullptr;

  const auto put_link = [&](std::string& out, const CensusLink& link) {
    const LinkRow& row = view.rows[link.id.index()];
    out.append("{\"name\":");
    put_json_string(out, anon != nullptr ? anon->link_name(link.id)
                                         : link.name);
    out.append(",\"syslog\":");
    put_source_stats(out, row.syslog, options_.period_begin, view.high_water);
    out.append(",\"isis\":");
    put_source_stats(out, row.isis, options_.period_begin, view.high_water);
    out.append(",\"alerts\":{\"hard_down\":");
    put_i64(out, static_cast<std::int64_t>(row.alerts_hard));
    out.append(",\"flap_cusum\":");
    put_i64(out, static_cast<std::int64_t>(row.alerts_cusum));
    out.append(",\"template_drift\":");
    put_i64(out, static_cast<std::int64_t>(row.alerts_drift));
    out.append("}}");
  };

  if (path == "/links") {
    std::string body = "{\"high_water_ms\":";
    put_i64(body, view.high_water.unix_millis());
    body.append(",\"links\":[");
    bool first = true;
    for (const CensusLink& link : census_->links()) {
      if (!first) body.push_back(',');
      first = false;
      put_link(body, link);
    }
    body.append("]}\n");
    return Response{200, "application/json", std::move(body)};
  }

  const std::string_view name = path.substr(std::string_view("/links/").size());
  const auto id = census_->find_by_name(name);
  if (!id.has_value()) {
    return Response{404, "application/json", error_body("unknown link")};
  }
  std::string body;
  put_link(body, census_->link(*id));
  body.push_back('\n');
  return Response{200, "application/json", std::move(body)};
}

HttpServer::Response HttpServer::handle_checkpoint() {
  if (!checkpoint_fn_) {
    return Response{503, "application/json",
                    error_body("checkpointing is not configured (--state-dir)")};
  }
  if (Status s = checkpoint_fn_(); !s.ok()) {
    return Response{500, "application/json", error_body(s.error().to_string())};
  }
  return Response{200, "application/json", "{\"checkpoint\":\"ok\"}\n"};
}

const Anonymizer& HttpServer::anonymizer() {
  if (!anonymizer_.has_value()) {
    anonymizer_.emplace(*census_, kDefaultAnonymizeSeed);
  }
  return *anonymizer_;
}

void HttpServer::queue_response(Conn& c, const Response& r, bool keep_alive) {
  c.out.append("HTTP/1.1 ");
  put_i64(c.out, r.status);
  c.out.push_back(' ');
  c.out.append(status_text(r.status));
  c.out.append("\r\nContent-Type: ");
  c.out.append(r.content_type);
  c.out.append("\r\nContent-Length: ");
  put_i64(c.out, static_cast<std::int64_t>(r.body.size()));
  c.out.append("\r\nConnection: ");
  c.out.append(keep_alive ? "keep-alive" : "close");
  c.out.append("\r\n\r\n");
  c.out.append(r.body);
  if (!keep_alive) c.close_after = true;
}

bool HttpServer::flush_output(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t n = ::write(c.fd.get(), c.out.data() + c.out_pos,
                              c.out.size() - c.out_pos);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      loop_.set_want_write(c.fd.get(), true);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  c.out.clear();
  c.out_pos = 0;
  loop_.set_want_write(c.fd.get(), false);
  return !c.close_after;
}

void HttpServer::close_conn(int fd) {
  loop_.remove(fd);
  conns_.erase(fd);  // Fd destructor closes
}

}  // namespace netfail::svc
