#include "src/topology/ipv4.hpp"

#include <algorithm>

#include "src/common/strfmt.hpp"

namespace netfail {

std::string Ipv4Address::to_string() const {
  return strformat("%u.%u.%u.%u", (v_ >> 24) & 0xff, (v_ >> 16) & 0xff,
                   (v_ >> 8) & 0xff, v_ & 0xff);
}

Result<Ipv4Address> Ipv4Address::parse(std::string_view s) {
  if (std::count(s.begin(), s.end(), '.') != 3) {
    return make_error(ErrorCode::kParseError,
                      "IPv4 address needs 4 octets: '" + std::string(s) + "'");
  }
  std::uint32_t v = 0;
  for (std::size_t start = 0, i = 0; i < 4; ++i) {
    const std::size_t dot = std::min(s.find('.', start), s.size());
    const std::string_view p = s.substr(start, dot - start);
    std::uint64_t octet = 0;
    if (!parse_uint(p, octet) || octet > 255) {
      return make_error(ErrorCode::kParseError,
                        "bad IPv4 octet '" + std::string(p) + "' in '" +
                            std::string(s) + "'");
    }
    v = (v << 8) | static_cast<std::uint32_t>(octet);
    start = dot + 1;
  }
  return Ipv4Address{v};
}

Ipv4Prefix::Ipv4Prefix(Ipv4Address network, int length) : length_(length) {
  NETFAIL_ASSERT(length >= 0 && length <= 32, "prefix length out of range");
  network_ = Ipv4Address{network.value() & mask()};
}

std::uint32_t Ipv4Prefix::mask() const {
  if (length_ == 0) return 0;
  return ~std::uint32_t{0} << (32 - length_);
}

std::string Ipv4Prefix::netmask_string() const {
  return Ipv4Address{mask()}.to_string();
}

bool Ipv4Prefix::contains(Ipv4Address a) const {
  return (a.value() & mask()) == network_.value();
}

std::string Ipv4Prefix::to_string() const {
  return network_.to_string() + "/" + std::to_string(length_);
}

Result<Ipv4Prefix> Ipv4Prefix::parse(std::string_view s) {
  const std::size_t slash = s.find('/');
  if (slash == std::string_view::npos) {
    return make_error(ErrorCode::kParseError,
                      "prefix missing '/': '" + std::string(s) + "'");
  }
  Result<Ipv4Address> addr = Ipv4Address::parse(s.substr(0, slash));
  if (!addr) return addr.error();
  std::uint64_t len = 0;
  if (!parse_uint(s.substr(slash + 1), len) || len > 32) {
    return make_error(ErrorCode::kParseError,
                      "bad prefix length in '" + std::string(s) + "'");
  }
  return Ipv4Prefix{*addr, static_cast<int>(len)};
}

}  // namespace netfail
