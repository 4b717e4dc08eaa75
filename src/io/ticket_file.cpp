#include "src/io/ticket_file.hpp"

#include <fstream>
#include <ostream>

#include "src/common/strfmt.hpp"

namespace netfail::io {

void write_ticket_file(const TicketStore& tickets, std::ostream& out) {
  for (const TroubleTicket& t : tickets.tickets()) {
    out << t.link_name << '\t' << t.outage.begin.unix_millis() << '\t'
        << t.outage.end.unix_millis() << '\t' << t.summary << '\n';
  }
}

Status write_ticket_file(const TicketStore& tickets, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return make_error(ErrorCode::kNotFound, "cannot open " + path);
  }
  write_ticket_file(tickets, out);
  return out.good() ? Status::ok_status()
                    : Status(make_error(ErrorCode::kInternal,
                                        "write failed for " + path));
}

Result<TicketStore> read_ticket_file(std::istream& in, TicketReadStats* stats) {
  TicketReadStats local;
  TicketReadStats& st = stats ? *stats : local;
  TicketStore store;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> cols = split(line, '\t');
    TimeRange outage;
    if (cols.size() < 4 || !parse_input_millis(cols[1], outage.begin) ||
        !parse_input_millis(cols[2], outage.end) || outage.empty()) {
      ++st.malformed;
      continue;
    }
    store.file(cols[0], outage, cols[3]);
    ++st.rows;
  }
  return store;
}

Result<TicketStore> read_ticket_file(const std::string& path,
                                     TicketReadStats* stats) {
  std::ifstream in(path);
  if (!in) {
    return make_error(ErrorCode::kNotFound, "cannot open " + path);
  }
  return read_ticket_file(in, stats);
}

}  // namespace netfail::io
