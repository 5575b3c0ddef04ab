// Hardened environment-variable parsing, shared by every subsystem that
// reads a numeric knob (SIMDCV_NUM_THREADS, SIMDCV_SERVE_*, SIMDCV_TRACE*).
//
// Contract: an unset variable silently yields the fallback; a set-but-
// malformed value (garbage text, trailing junk, a negative number where a
// count is expected, or a value outside [min, max]) yields the fallback too,
// but with a one-line warning on stderr naming the variable and the reason —
// never undefined behavior, never a silently nonsensical config. The
// pre-hardening parsers routed "-5" through strtoull (wrapping to a huge
// worker count) or dropped bad values without a trace; both failure modes
// are now tested (tests/platform/env_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace simdcv::platform {

/// Strict integer parse of `text` into `*out`. Accepts an optional sign and
/// decimal digits only (no trailing junk, no hex/octal). Returns false —
/// leaving *out untouched — on null/empty text, non-numeric input, overflow,
/// or a value outside [min, max].
bool parseInt(const char* text, long long min, long long max,
              long long* out) noexcept;

/// Read environment variable `name` as an integer in [min, max].
/// Unset/empty: returns `fallback` silently. Set but invalid: returns
/// `fallback` after a one-line stderr warning ("simdcv: ignoring NAME=...").
long long envInt(const char* name, long long fallback, long long min,
                 long long max) noexcept;

/// Read environment variable `name` as a boolean flag: "1" → true,
/// "0" → false, unset/empty → fallback. Anything else warns and returns
/// the fallback.
bool envFlag(const char* name, bool fallback) noexcept;

/// Read environment variable `name` as a single free-form token:
/// surrounding whitespace trimmed, ASCII-lowercased. Unset/empty (or
/// whitespace-only) yields an empty string. Token validity is the caller's
/// business — pair rejections with warnIgnoredToken so the stderr format
/// matches the numeric parsers above (SIMDCV_FORCE_BACKEND goes through
/// here; see simd/caps.hpp).
std::string envToken(const char* name);

/// Read environment variable `name` as a comma-separated token list; each
/// token is trimmed and lowercased, empty tokens are dropped. Unset yields
/// an empty list (SIMDCV_DISABLE_BACKENDS goes through here).
std::vector<std::string> envTokenList(const char* name);

/// One-line stderr warning for a rejected token, in the same
/// "simdcv: ignoring NAME=..." shape the numeric parsers emit. `reason`
/// names what would have been accepted.
void warnIgnoredToken(const char* name, const std::string& value,
                      const char* reason) noexcept;

}  // namespace simdcv::platform
