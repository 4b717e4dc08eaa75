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
// read_bundle loads the three sources at once, on the caller and two
// tasks. After META the caller lists configs/ into a queue
// of host directories (io::ConfigQueue) and starts the tasks, one reading
// messages.log and one listener.nfc. The caller drains the queue at once;
// each task drains it too once its own file has loaded. Draining a host
// means listing its config files, reading them in capture-time order into
// one buffer per thread and parsing each. When the queue is empty the
// caller reads the two optional files and folds the parses into the census
// in host-name order, once every host is mined: at once when it mined them
// all itself (on a busy capture the event files load for longer), else
// after joining both tasks. Host-name order is the order read_config_dir
// returns, so the census is the one mine_archive gives over it. No config
// archive is ever built, and no thread beyond the two tasks is started.
// The syslog chain spreads over lanes of its own (read_syslog_file). Only
// what lives as long as the Bundle (each event file's bytes, mapped
// read-only, and the collector's lines and the LSP records, which are
// slices of those mappings) and the small per-file parses come from the
// tasks; the config read buffers are freed as each thread finishes
// draining. On a bad bundle
// the error reported is the first failure in the order META, configs/,
// messages.log, listener.nfc, tickets.tsv, listener_gaps.tsv, whichever
// thread finishes first.
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
