#pragma once

// Word-tokenization kernels for the text-centric hot loop (DESIGN.md §15).
//
// One *scalar reference* implementation defines the semantics and stays
// the oracle forever: a token is a maximal run of [A-Za-z0-9] bytes,
// normalized by lowercasing (byte | 0x20 — an identity on digits and
// lowercase letters); every other byte — including NUL and anything with
// the high bit set (multi-byte UTF-8) — is a delimiter. The SWAR and
// SSE2/NEON kernels classify 8/16 bytes per step and must reproduce the
// oracle token-for-token (tests/test_tokenizer_fuzz.cpp enforces this at
// every alignment offset and block-straddling length).
//
// The applications always run the best kernel compiled for the target
// (tokenize_simd, which falls back to SWAR without a 16-byte kernel and
// to the scalar loop on big-endian hosts).

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>

namespace textmr::text {

/// The kernel the applications run on this build/host ("scalar", "swar",
/// "simd-sse2", "simd-neon").
const char* resolved_kernel_name();

namespace detail {

using EmitToken = void (*)(void* ctx, std::string_view token);

/// Outlined tokenization core: finds tokens in `line` with the best
/// kernel, normalizes each into `scratch` and invokes `emit` with a view
/// into `scratch` (valid only during the call). One outlined call per
/// line; per-token cost is one indirect call.
void tokenize(std::string_view line, std::string& scratch, EmitToken emit,
              void* ctx);

/// The scalar reference loop, exposed separately so tests can compare any
/// kernel against the oracle.
void tokenize_scalar(std::string_view line, std::string& scratch,
                     EmitToken emit, void* ctx);

/// Kernel entry points for the differential fuzz battery. `tokenize_swar`
/// always exists; `tokenize_simd` falls back to SWAR when no 16-byte
/// kernel is compiled for this target (see resolved_kernel_name()).
void tokenize_swar(std::string_view line, std::string& scratch,
                   EmitToken emit, void* ctx);
void tokenize_simd(std::string_view line, std::string& scratch,
                   EmitToken emit, void* ctx);

}  // namespace detail

/// Streaming tokenizer used by the applications: invokes `fn` with each
/// normalized token as a view into `scratch`, valid only during the call.
/// Semantics are exactly the scalar oracle's, whatever kernel runs.
template <typename Fn>
void for_each_token(std::string_view line, std::string& scratch, Fn&& fn) {
  // The const_cast only strips constness for the void* hop; the trampoline
  // restores the callable's exact (possibly const) type before invoking.
  detail::tokenize(
      line, scratch,
      [](void* ctx, std::string_view token) {
        (*static_cast<std::remove_reference_t<Fn>*>(ctx))(token);
      },
      const_cast<void*>(
          static_cast<const void*>(std::addressof(fn))));
}

}  // namespace textmr::text
