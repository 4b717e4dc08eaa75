// Capture bundles: one directory holding everything a deployment records
// over a study period, in the formats of the readers next to this file.
//
//   META               period_begin_ms <ms> / period_end_ms <ms>, one per line
//   messages.log       flat syslog archive (syslog_file.hpp)
//   listener.nfc       NFC1 LSP capture (lsp_capture.hpp)
//   configs/           RANCID-style config archive (config_dir.hpp)
//   tickets.tsv        trouble tickets (ticket_file.hpp), optional
//   listener_gaps.tsv  listener outage windows (interval_file.hpp), optional
//
// An optional file that does not exist reads as empty. One that exists but
// cannot be read fails the whole load: a corrupt listener-gap file must not
// quietly switch sanitization off.
//
// read_bundle loads the three sources at once. After META, messages.log and
// listener.nfc are read on two worker threads while the calling thread reads
// configs/, mines the census and reads the two optional files; the load then
// joins both workers. It takes as long as the longest of the three chains
// instead of their sum. The syslog chain spreads over lanes of its own
// (read_syslog_file), and the config chain reads each file in one sized
// read and mines it without copying lines, so on a busy capture the three
// chains take about the same time. The config archive (tens of MB of text)
// is transient: it is freed as soon as it is mined, so it is allocated and
// freed on the caller, whose heap the later extraction and matching reuse.
// Only what lives as long as the Bundle (the collector, the LSP records)
// comes from worker threads. On a bad bundle the error reported is the
// first failure in the order META, configs/, messages.log, listener.nfc,
// tickets.tsv, listener_gaps.tsv, whichever thread finishes first.
//
// Extraction is not part of the load: `stream` extracts IS-IS on its own
// lookahead, and with the chains balanced there is little load left to
// overlap it with. `analyze` and `export` extract both sources at once
// afterwards (analysis::extract_and_reconstruct).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/interval_set.hpp"
#include "src/common/result.hpp"
#include "src/config/archive.hpp"
#include "src/config/census.hpp"
#include "src/isis/listener.hpp"
#include "src/syslog/collector.hpp"
#include "src/tickets/tickets.hpp"

namespace netfail::io {

struct Bundle {
  TimeRange period;
  /// Mined from configs/ with the default MinerParams.
  LinkCensus census;
  std::size_t config_files = 0;
  syslog::Collector collector;
  std::vector<isis::LspRecord> lsp_records;
  TicketStore tickets;
  IntervalSet listener_gaps;
};

Result<Bundle> read_bundle(const std::string& dir);

/// Writes every file, META last, so a bundle with a META is complete.
Status write_bundle(const std::string& dir, TimeRange period,
                    const syslog::Collector& collector,
                    const std::vector<isis::LspRecord>& lsp_records,
                    const ConfigArchive& configs, const TicketStore& tickets,
                    const IntervalSet& listener_gaps);

}  // namespace netfail::io
