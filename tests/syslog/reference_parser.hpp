// The byte-at-a-time reference syslog parser: the differential oracle for
// syslog::tokenize, the memchr/SWAR tokenizer (src/syslog/tokenizer.cpp).
// The tokenizer must stay bit-identical to this on every input — including
// error code and message — which tests/syslog/tokenizer_fuzz_test.cpp
// enforces; tests/syslog/single_parse_test.cpp checks the stored parse,
// extraction and shard routing against it. Change them together.
#pragma once

#include <string_view>

#include "src/common/result.hpp"
#include "src/syslog/message.hpp"

namespace netfail::syslog {

Result<Message> parse_message_scalar(std::string_view line);

}  // namespace netfail::syslog
