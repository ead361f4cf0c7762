// Checked numeric flag values for the command-line tools.
#pragma once

#include <charconv>
#include <string>
#include <system_error>

namespace dnnfi::cli {

/// Parses the whole of `val` as an N (integer or floating point) with
/// std::from_chars. An empty token, trailing characters, a sign N cannot
/// hold, or an out-of-range value calls `usage`, which must not return.
template <typename N, typename Usage>
N number(const std::string& key, const std::string& val, Usage&& usage) {
  N v{};
  const char* end = val.data() + val.size();
  const auto [stop, ec] = std::from_chars(val.data(), end, v);
  if (val.empty() || ec != std::errc{} || stop != end)
    usage("bad value for " + key + ": '" + val + "'");
  return v;
}

}  // namespace dnnfi::cli
