// Trouble tickets as a flat TSV file:
//
//   link_name <TAB> start_unix_ms <TAB> end_unix_ms <TAB> summary
//
// The sanitization step (sect. 4.2) needs tickets to verify long failures;
// this format lets a real deployment export theirs from whatever ticketing
// system they run.
#pragma once

#include <iosfwd>
#include <string>

#include "src/common/result.hpp"
#include "src/tickets/tickets.hpp"

namespace netfail::io {

void write_ticket_file(const TicketStore& tickets, std::ostream& out);
Status write_ticket_file(const TicketStore& tickets, const std::string& path);

struct TicketReadStats {
  std::size_t rows = 0;
  /// Skipped rows: too few columns, a time that is not a millisecond count
  /// inside kInputTimeRange, or an outage that does not end after it begins.
  std::size_t malformed = 0;
};

Result<TicketStore> read_ticket_file(std::istream& in,
                                     TicketReadStats* stats = nullptr);
Result<TicketStore> read_ticket_file(const std::string& path,
                                     TicketReadStats* stats = nullptr);

}  // namespace netfail::io
