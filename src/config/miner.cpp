#include "src/config/miner.hpp"

#include <algorithm>
#include <array>
#include <map>

namespace netfail {
namespace {

/// Mask "255.255.255.254" -> 31; returns -1 for non-contiguous masks.
int prefix_length_of_mask(Ipv4Address mask) {
  const std::uint32_t m = mask.value();
  if (m == 0) return 0;
  const int len = 32 - __builtin_ctz(m);
  // Verify contiguity: the mask must be exactly `len` leading ones.
  if (m != (~std::uint32_t{0} << (32 - len))) return -1;
  return len;
}

/// std::isspace in the C locale, written out: space, \t, \n, \v, \f, \r.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Whether a line whose first non-blank byte is `c` can be a statement
/// parse_config reads: hostname, interface, net, ip/ipv4 or a bare "!".
bool may_matter(char c) { return c == 'h' || c == 'i' || c == 'n' || c == '!'; }

}  // namespace

Result<MinedConfig> parse_config(std::string_view text) {
  MinedConfig out;
  // A view into `text`; empty when outside an interface stanza.
  std::string_view current_interface;

  std::size_t start = 0;
  for (bool last = false; !last;) {
    const std::size_t nl = text.find('\n', start);
    last = nl == std::string_view::npos;
    const std::string_view raw =
        text.substr(start, last ? std::string_view::npos : nl - start);
    start = nl + 1;
    // Dispatch on the first non-blank byte: most lines (descriptions,
    // options) are skipped here, before they are cut into tokens.
    std::size_t i = 0;
    while (i < raw.size() && is_space(raw[i])) ++i;
    if (i == raw.size() || !may_matter(raw[i])) continue;
    if (raw[i] == '!') {
      // Comment or stanza separator. IOS-XR nests "interface" under
      // "router isis" too, so a bare "!" conservatively ends the stanza.
      std::size_t j = i + 1;
      while (j < raw.size() && is_space(raw[j])) ++j;
      if (j == raw.size()) current_interface = {};
      continue;
    }
    // The first four tokens are all any statement below reads.
    std::array<std::string_view, 4> tok;
    std::size_t ntok = 0;
    while (i < raw.size() && ntok < tok.size()) {
      std::size_t j = i;
      while (j < raw.size() && !is_space(raw[j])) ++j;
      tok[ntok++] = raw.substr(i, j - i);
      i = j;
      while (i < raw.size() && is_space(raw[i])) ++i;
    }

    if (tok[0] == "hostname" && ntok >= 2) {
      out.hostname = tok[1];
      continue;
    }
    if (tok[0] == "interface" && ntok >= 2 && raw[0] != ' ') {
      // Top-level interface stanza (the indented "interface" lines inside
      // "router isis" on IOS-XR carry no addresses and are skipped by the
      // raw[0] check).
      current_interface = tok[1];
      continue;
    }
    if (tok[0] == "net" && ntok >= 2) {
      // "net 49.0001.xxxx.xxxx.xxxx.00": the system id is the three
      // dot-separated fields before the last one.
      const std::string_view net = tok[1];
      if (std::count(net.begin(), net.end(), '.') >= 4) {
        const std::size_t end = net.rfind('.');
        std::size_t begin = end;
        for (int k = 0; k < 3; ++k) begin = net.rfind('.', begin - 1);
        if (Result<OsiSystemId> r =
                OsiSystemId::parse(net.substr(begin + 1, end - begin - 1))) {
          out.system_id = *r;
          out.has_system_id = true;
        }
      }
      continue;
    }
    const bool is_addr_line = ntok >= 4 &&
                              (tok[0] == "ip" || tok[0] == "ipv4") &&
                              tok[1] == "address";
    if (is_addr_line && !current_interface.empty()) {
      const Result<Ipv4Address> addr = Ipv4Address::parse(tok[2]);
      const Result<Ipv4Address> mask = Ipv4Address::parse(tok[3]);
      if (!addr || !mask) continue;  // tolerate malformed lines
      const int len = prefix_length_of_mask(*mask);
      if (len == 31) {
        out.interfaces.push_back(MinedConfig::MinedInterface{
            std::string(current_interface), *addr, len});
      }
      continue;
    }
  }

  if (out.hostname.empty()) {
    return make_error(ErrorCode::kParseError, "config has no hostname line");
  }
  return out;
}

void CensusFold::add(TimePoint captured_at, const Result<MinedConfig>& mined) {
  if (!mined) {
    ++stats_.files_failed;
    return;
  }
  ++stats_.files_parsed;
  if (mined->has_system_id) system_ids_[mined->hostname] = mined->system_id;
  for (const auto& intf : mined->interfaces) {
    const Ipv4Prefix subnet = Ipv4Prefix::slash31_of(intf.address);
    std::vector<Endpoint>& eps = by_subnet_[subnet];
    auto it = std::find_if(eps.begin(), eps.end(), [&](const Endpoint& e) {
      return e.host == mined->hostname && e.iface == intf.name;
    });
    if (it == eps.end()) {
      eps.push_back(Endpoint{mined->hostname, intf.name, intf.address,
                             captured_at, captured_at});
      ++stats_.endpoints;
    } else {
      it->first_seen = std::min(it->first_seen, captured_at);
      it->last_seen = std::max(it->last_seen, captured_at);
    }
  }
}

LinkCensus CensusFold::finish(MiningStats* stats) {
  LinkCensus census;
  for (const auto& [subnet, eps] : by_subnet_) {
    // A healthy /31 has exactly two endpoints on two different hosts.
    if (eps.size() != 2 || eps[0].host == eps[1].host) {
      ++stats_.unpaired_subnets;
      continue;
    }
    const TimePoint first =
        std::min(eps[0].first_seen, eps[1].first_seen) - params_.lifetime_slack;
    const TimePoint last =
        std::max(eps[0].last_seen, eps[1].last_seen) + params_.lifetime_slack;
    const TimeRange lifetime{std::max(first, period_.begin),
                             std::min(last, period_.end)};
    const bool cpe =
        eps[0].host.find(params_.cpe_host_token) != std::string::npos ||
        eps[1].host.find(params_.cpe_host_token) != std::string::npos;
    census.add_link(CensusEndpoint{eps[0].host, eps[0].iface, eps[0].address},
                    CensusEndpoint{eps[1].host, eps[1].iface, eps[1].address},
                    subnet, lifetime,
                    cpe ? RouterClass::kCpe : RouterClass::kCore);
  }
  for (const auto& [host, sysid] : system_ids_) {
    census.set_hostname(sysid, host);
  }
  census.finalize();
  if (stats) *stats = stats_;
  return census;
}

LinkCensus mine_archive(const ConfigArchive& archive, TimeRange period,
                        const MinerParams& params, MiningStats* stats) {
  CensusFold fold(period, params);
  for (const ConfigFile& file : archive.files()) {
    fold.add(file.captured_at, parse_config(file.text));
  }
  return fold.finish(stats);
}

}  // namespace netfail
