#include "text/tokenize.hpp"

#include <bit>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#define TEXTMR_SIMD_SSE2 1
#elif defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#define TEXTMR_SIMD_NEON 1
#endif

namespace textmr::text {
namespace detail {
namespace {

// The SWAR classifier and the movemask reduction index bytes by their
// position inside a little-endian 64-bit load; on a big-endian target the
// kernels would mis-map bit positions, so dispatch falls back to scalar.
constexpr bool kLittleEndian = std::endian::native == std::endian::little;

inline void append_lower(std::string& scratch, const char* p, std::size_t n) {
  const std::size_t base = scratch.size();
  scratch.resize(base + n);
  char* out = scratch.data() + base;
  // Token bytes are [A-Za-z0-9] by construction; OR 0x20 lowercases the
  // letters and is an identity on digits and lowercase letters.
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = static_cast<char>(p[k] | 0x20);
  }
}

// ---- classifiers ----------------------------------------------------------
// Each returns a bitmask with bit i set iff byte i of the block is a token
// byte ([A-Za-z0-9]); bits at and beyond the block length are zero.

/// 8-byte SWAR classifier; `n` <= 8, missing tail bytes read as NUL
/// (a delimiter, so their mask bits are naturally zero).
inline std::uint32_t classify8_swar(const char* p, std::size_t n) {
  std::uint64_t x = 0;
  std::memcpy(&x, p, n);
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  const std::uint64_t high = x & kHigh;
  // Per-byte range check on the low 7 bits: ge has bit7 set iff
  // byte >= lo (no carry: 127 + (128-lo) <= 255), le has bit7 set iff
  // byte <= hi (no borrow: minuend byte >= 128 > any 7-bit subtrahend).
  const auto in_range = [](std::uint64_t v7, unsigned lo, unsigned hi) {
    const std::uint64_t ge = (v7 + kOnes * (0x80 - lo)) & kHigh;
    const std::uint64_t le = ((kOnes * hi) | kHigh) - v7;
    return ge & le & kHigh;
  };
  // Letters on y = x | 0x20 (case fold); digits on x directly. Bytes with
  // the high bit set (multi-byte UTF-8) alias into the 7-bit ranges, so
  // they are masked back out.
  const std::uint64_t letters = in_range((x | (kOnes * 0x20)) & kLow7, 'a', 'z');
  const std::uint64_t digits = in_range(x & kLow7, '0', '9');
  const std::uint64_t flags = (letters | digits) & ~high;
  // Movemask: gather each byte's bit7 into one byte. The multiply places
  // indicator i at bit 56 + i; the terms occupy distinct bit positions,
  // so no carries disturb the top byte.
  return static_cast<std::uint32_t>(((flags >> 7) * 0x0102040810204080ULL) >>
                                    56);
}

#if defined(TEXTMR_SIMD_SSE2)

/// Full 16-byte SSE2 classifier. Unsigned range checks via the
/// min_epu8(x - lo, span) == x - lo idiom; bytes >= 0x80 wrap far outside
/// both ranges, so no separate high-bit mask is needed.
inline std::uint32_t classify16_simd(const char* p) {
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i lower = _mm_or_si128(v, _mm_set1_epi8(0x20));
  const __m128i la = _mm_sub_epi8(lower, _mm_set1_epi8('a'));
  const __m128i is_letter =
      _mm_cmpeq_epi8(_mm_min_epu8(la, _mm_set1_epi8(25)), la);
  const __m128i dg = _mm_sub_epi8(v, _mm_set1_epi8('0'));
  const __m128i is_digit =
      _mm_cmpeq_epi8(_mm_min_epu8(dg, _mm_set1_epi8(9)), dg);
  return static_cast<std::uint32_t>(
      _mm_movemask_epi8(_mm_or_si128(is_letter, is_digit)));
}

#elif defined(TEXTMR_SIMD_NEON)

/// Full 16-byte NEON (AArch64) classifier; same unsigned-range shape as
/// the SSE2 kernel, movemask via per-lane powers of two + horizontal add.
inline std::uint32_t classify16_simd(const char* p) {
  const uint8x16_t v = vld1q_u8(reinterpret_cast<const std::uint8_t*>(p));
  const uint8x16_t lower = vorrq_u8(v, vdupq_n_u8(0x20));
  const uint8x16_t is_letter =
      vcleq_u8(vsubq_u8(lower, vdupq_n_u8('a')), vdupq_n_u8(25));
  const uint8x16_t is_digit =
      vcleq_u8(vsubq_u8(v, vdupq_n_u8('0')), vdupq_n_u8(9));
  const uint8x16_t tok = vorrq_u8(is_letter, is_digit);
  static const std::uint8_t kPowers[16] = {1, 2, 4, 8, 16, 32, 64, 128,
                                           1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t bits = vandq_u8(tok, vld1q_u8(kPowers));
  const std::uint32_t lo = vaddv_u8(vget_low_u8(bits));
  const std::uint32_t hi = vaddv_u8(vget_high_u8(bits));
  return lo | (hi << 8);
}

#endif

// ---- block drivers --------------------------------------------------------

/// Walks a block's token bitmask, carrying in-token state across block
/// boundaries so tokens straddling 8/16-byte edges come out whole. `mask`
/// must have zero bits at and beyond `block`.
struct RunScanner {
  std::string& scratch;
  EmitToken emit;
  void* ctx;
  bool in_token = false;

  void scan(const char* data, std::size_t block, std::uint32_t mask) {
    std::size_t p = 0;
    while (p < block) {
      if (!in_token) {
        const std::uint32_t m = mask >> p;
        if (m == 0) return;  // only delimiters remain in this block
        p += static_cast<std::size_t>(std::countr_zero(m));
        in_token = true;
      } else {
        // ~mask has every bit >= block set, so the scan always stops at
        // the block edge and the token continues into the next block.
        const std::uint32_t m = (~mask) >> p;
        const std::size_t run =
            static_cast<std::size_t>(std::countr_zero(m));
        append_lower(scratch, data + p, run);
        p += run;
        if (p < block) {
          emit(ctx, std::string_view(scratch));
          scratch.clear();
          in_token = false;
        }
      }
    }
  }

  void finish() {
    if (in_token) {
      emit(ctx, std::string_view(scratch));
      scratch.clear();
      in_token = false;
    }
  }
};

}  // namespace

void tokenize_scalar(std::string_view line, std::string& scratch,
                     EmitToken emit, void* ctx) {
  // The reference loop — byte-at-a-time, the semantics every kernel must
  // reproduce. Kept free of the block machinery above on purpose: the
  // fuzz battery compares the kernels against *this*.
  scratch.clear();
  for (std::size_t i = 0; i <= line.size(); ++i) {
    const char c = (i < line.size()) ? line[i] : ' ';
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      scratch.push_back(c);
    } else if (c >= 'A' && c <= 'Z') {
      scratch.push_back(static_cast<char>(c - 'A' + 'a'));
    } else {
      if (!scratch.empty()) {
        emit(ctx, std::string_view(scratch));
        scratch.clear();
      }
    }
  }
}

void tokenize_swar(std::string_view line, std::string& scratch,
                   EmitToken emit, void* ctx) {
  if (!kLittleEndian) return tokenize_scalar(line, scratch, emit, ctx);
  scratch.clear();
  RunScanner scanner{scratch, emit, ctx};
  const char* data = line.data();
  std::size_t n = line.size();
  while (n > 0) {
    const std::size_t block = n < 8 ? n : 8;
    scanner.scan(data, block, classify8_swar(data, block));
    data += block;
    n -= block;
  }
  scanner.finish();
}

void tokenize_simd(std::string_view line, std::string& scratch,
                   EmitToken emit, void* ctx) {
#if defined(TEXTMR_SIMD_SSE2) || defined(TEXTMR_SIMD_NEON)
  if (!kLittleEndian) return tokenize_scalar(line, scratch, emit, ctx);
  scratch.clear();
  RunScanner scanner{scratch, emit, ctx};
  const char* data = line.data();
  std::size_t n = line.size();
  while (n >= 16) {
    scanner.scan(data, 16, classify16_simd(data));
    data += 16;
    n -= 16;
  }
  while (n > 0) {
    const std::size_t block = n < 8 ? n : 8;
    scanner.scan(data, block, classify8_swar(data, block));
    data += block;
    n -= block;
  }
  scanner.finish();
#else
  tokenize_swar(line, scratch, emit, ctx);
#endif
}

void tokenize(std::string_view line, std::string& scratch, EmitToken emit,
              void* ctx) {
  tokenize_simd(line, scratch, emit, ctx);
}

}  // namespace detail

const char* resolved_kernel_name() {
  if (!detail::kLittleEndian) return "scalar";
#if defined(TEXTMR_SIMD_SSE2)
  return "simd-sse2";
#elif defined(TEXTMR_SIMD_NEON)
  return "simd-neon";
#else
  return "swar";
#endif
}

}  // namespace textmr::text
