// Strict text-to-number parsing shared by every textual input (policy specs,
// bench CLI flags).
//
// The C parsers this replaces are lax in ways that turn typos into valid
// configurations: std::stoul reads "2x" as 2, wraps "-1" to the type's
// maximum, and silently truncates "4294967297" when narrowed to 32 bits.
// parse_unsigned accepts exactly one base-10 number spanning the whole
// input — digits only (no sign, whitespace, prefix or suffix) — that fits
// in T, and reports anything else as nullopt.
#pragma once

#include <charconv>
#include <concepts>
#include <optional>
#include <string_view>
#include <system_error>

namespace fl {

template <std::unsigned_integral T>
[[nodiscard]] std::optional<T> parse_unsigned(std::string_view text) {
    T value{};
    const char* const first = text.data();
    const char* const last = first + text.size();
    const auto [end, ec] = std::from_chars(first, last, value);
    if (text.empty() || ec != std::errc{} || end != last) return std::nullopt;
    return value;
}

}  // namespace fl
