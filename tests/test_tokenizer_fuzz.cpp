#include <gtest/gtest.h>

// Differential fuzz battery for the tokenizer kernels (ISSUE 10): the
// scalar reference loop is the oracle; the SWAR and SIMD kernels (and the
// applications' entry point) must reproduce it token-for-token on
// adversarial input — NULs, multi-byte UTF-8, empty lines, long delimiter
// runs, tokens straddling the 8/16-byte block edges — at every alignment
// offset 0..15. Each case also plants alphanumeric canary bytes around
// the line, so a kernel reading past either end manufactures a token
// difference instead of passing silently. TEXTMR_FUZZ_ITERS multiplies
// the random-iteration counts (the `pressure` ctest label sets 10).

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "apps/tokenizer.hpp"
#include "common/rng.hpp"
#include "text/tokenize.hpp"

namespace textmr::text {
namespace {

std::size_t fuzz_scale() {
  if (const char* env = std::getenv("TEXTMR_FUZZ_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 1) return static_cast<std::size_t>(v > 100 ? 100 : v);
  }
  return 1;
}

using Kernel = void (*)(std::string_view, std::string&, detail::EmitToken,
                        void*);

std::vector<std::string> run_kernel(Kernel kernel, std::string_view line) {
  std::vector<std::string> tokens;
  std::string scratch;
  kernel(
      line, scratch,
      [](void* ctx, std::string_view token) {
        static_cast<std::vector<std::string>*>(ctx)->emplace_back(token);
      },
      &tokens);
  return tokens;
}

struct NamedKernel {
  const char* name;
  Kernel kernel;
};

const NamedKernel kKernels[] = {
    {"swar", detail::tokenize_swar},
    {"simd", detail::tokenize_simd},
};

/// Copies `line` into a fresh buffer so that its first byte sits at
/// `offset` mod 16, with alphanumeric canaries on both sides: an
/// out-of-bounds read by a kernel extends a boundary token and fails the
/// comparison.
std::string_view place_at_offset(std::string_view line, std::size_t offset,
                                 std::vector<char>& storage) {
  storage.assign(offset + line.size() + 16, 'Z');
  std::copy(line.begin(), line.end(), storage.begin() + offset);
  return {storage.data() + offset, line.size()};
}

/// The core assertion: every kernel == oracle, at every alignment.
void expect_kernels_match(std::string_view line) {
  std::vector<char> storage;
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const std::string_view placed = place_at_offset(line, offset, storage);
    const std::vector<std::string> oracle =
        run_kernel(detail::tokenize_scalar, placed);
    for (const NamedKernel& k : kKernels) {
      SCOPED_TRACE(std::string("kernel=") + k.name +
                   " offset=" + std::to_string(offset));
      EXPECT_EQ(oracle, run_kernel(k.kernel, placed));
    }
  }
}

TEST(TokenizerFuzz, EdgeCaseCorpus) {
  const std::string cases[] = {
      "",
      " ",
      "a",
      "A",
      "7",
      "hello world",
      "Hello, World!",
      "  leading and trailing  ",
      "....!!!....,,,,;;;;::::",                 // delimiter run, no tokens
      std::string("a\0b", 3),                    // NUL is a delimiter
      std::string("\0\0\0", 3),                  // NUL run
      std::string("abc\0def\0", 8),              // NUL-separated tokens
      "caf\xc3\xa9 na\xc3\xafve",                // multi-byte UTF-8 splits
      "\xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e",    // all high bytes, no tokens
      "mixed\xc2\xa0separator",                  // NBSP between tokens
      "ALLCAPS lower 0123456789",
      "under_score-hyphen'apostrophe",
      "a@b#c$d%e^f&g*h",
      "\x7f\x80\x81 edge \xfe\xff",              // DEL and top byte values
  };
  for (const std::string& line : cases) {
    SCOPED_TRACE("case bytes=" + std::to_string(line.size()));
    expect_kernels_match(line);
  }
}

TEST(TokenizerFuzz, BlockBoundaryLengths) {
  // Tokens and delimiter runs whose lengths straddle the 8-byte SWAR and
  // 16/32-byte SIMD boundaries: an all-token line of length L, a
  // one-delimiter-at-the-end variant, and an alternating pattern.
  for (std::size_t len :
       {1u, 7u, 8u, 9u, 15u, 16u, 17u, 23u, 24u, 31u, 32u, 33u, 47u, 48u,
        63u, 64u, 65u}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    expect_kernels_match(std::string(len, 'q'));           // one long token
    expect_kernels_match(std::string(len, '.'));           // one long gap
    std::string edge(len, 'x');
    edge.back() = ' ';
    expect_kernels_match(edge);                            // token then gap
    std::string alt;
    for (std::size_t i = 0; i < len; ++i) {
      alt.push_back(i % 3 == 2 ? ' ' : static_cast<char>('a' + i % 26));
    }
    expect_kernels_match(alt);                             // mixed runs
  }
}

TEST(TokenizerFuzz, EveryByteValue) {
  // Single-byte lines covering the full byte range, plus each byte
  // sandwiched between token bytes (does it split or join?).
  for (unsigned b = 0; b < 256; ++b) {
    SCOPED_TRACE("byte=" + std::to_string(b));
    const char c = static_cast<char>(b);
    expect_kernels_match(std::string_view(&c, 1));
    std::string sandwich = "x";
    sandwich.push_back(c);
    sandwich += "y";
    expect_kernels_match(sandwich);
  }
}

TEST(TokenizerFuzz, SeededRandomLines) {
  // Mixed-alphabet random lines: mostly text bytes with deliberate
  // injections of NULs, high bytes and long runs. Fixed base seed —
  // failures replay deterministically.
  const std::size_t iters = 300 * fuzz_scale();
  Xoshiro256 rng(0x746f6b656e697aULL);  // "tokeniz"
  for (std::size_t it = 0; it < iters; ++it) {
    SCOPED_TRACE("iteration=" + std::to_string(it));
    const std::size_t len = rng.next_below(161);
    std::string line;
    line.reserve(len);
    while (line.size() < len) {
      switch (rng.next_below(8)) {
        case 0:  // run of token bytes straddling block edges
        case 1: {
          const std::size_t run = 1 + rng.next_below(40);
          for (std::size_t i = 0; i < run && line.size() < len; ++i) {
            const unsigned pick = static_cast<unsigned>(rng.next_below(62));
            line.push_back(static_cast<char>(
                pick < 26   ? 'a' + pick
                : pick < 52 ? 'A' + (pick - 26)
                            : '0' + (pick - 52)));
          }
          break;
        }
        case 2: {  // delimiter run
          const std::size_t run = 1 + rng.next_below(24);
          const char d = " \t.,;:!?"[rng.next_below(8)];
          for (std::size_t i = 0; i < run && line.size() < len; ++i) {
            line.push_back(d);
          }
          break;
        }
        case 3:  // NUL
          line.push_back('\0');
          break;
        case 4:  // high byte (multi-byte UTF-8 territory)
          line.push_back(static_cast<char>(0x80 + rng.next_below(0x80)));
          break;
        default:  // arbitrary byte
          line.push_back(static_cast<char>(rng.next_below(256)));
          break;
      }
    }
    line.resize(len);
    expect_kernels_match(line);
  }
}

TEST(TokenizerDispatch, ResolvedKernelNameIsKnown) {
  const std::string name = resolved_kernel_name();
  EXPECT_TRUE(name == "scalar" || name == "swar" || name == "simd-sse2" ||
              name == "simd-neon")
      << name;
}

TEST(TokenizerDispatch, AppsWrapperDelegates) {
  // The apps-facing template wrapper (used by every text application)
  // yields exactly the oracle's tokens, with views into the caller's
  // scratch buffer.
  const std::string line = "Framework ABstraction-Costs, 2014\xc2\xa0redux";
  const std::vector<std::string> oracle =
      run_kernel(detail::tokenize_scalar, line);
  std::vector<std::string> got;
  std::string scratch;
  apps::for_each_token(line, scratch,
                       [&](std::string_view token) { got.emplace_back(token); });
  EXPECT_EQ(oracle, got);
}

}  // namespace
}  // namespace textmr::text
