#pragma once

/// \file gf256.hpp
/// Arithmetic over GF(2^8) with the AES/Rijndael-compatible primitive
/// polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the field used by classic
/// Reed-Solomon storage codes (and by liberasurecode's isa-l/jerasure
/// backends). Scalar multiplication uses log/exp tables; the bulk kernels
/// (mul_acc/mul_to/add_acc) dispatch through rapids/simd/gf256_kernels.hpp
/// to runtime-selected PSHUFB/TBL split-nibble implementations (SSSE3, AVX2,
/// NEON), falling back to a per-coefficient 256-entry product table when no
/// SIMD path is available or RAPIDS_FORCE_SCALAR=1 is set.

#include <array>
#include <span>

#include "rapids/util/common.hpp"

namespace rapids::ec {

/// GF(2^8) field element operations. All functions are pure and thread-safe.
class GF256 {
 public:
  /// Field addition = XOR.
  static u8 add(u8 a, u8 b) { return a ^ b; }

  /// Field subtraction = XOR (characteristic 2).
  static u8 sub(u8 a, u8 b) { return a ^ b; }

  /// Field multiplication via log/exp tables.
  static u8 mul(u8 a, u8 b) {
    if (a == 0 || b == 0) return 0;
    const Tables& t = tables();
    return t.exp[t.log[a] + t.log[b]];
  }

  /// Multiplicative inverse. Precondition: a != 0.
  static u8 inv(u8 a) {
    RAPIDS_REQUIRE_MSG(a != 0, "GF256: inverse of zero");
    const Tables& t = tables();
    return t.exp[255 - t.log[a]];
  }

  /// a / b. Precondition: b != 0.
  static u8 div(u8 a, u8 b) {
    RAPIDS_REQUIRE_MSG(b != 0, "GF256: division by zero");
    if (a == 0) return 0;
    const Tables& t = tables();
    return t.exp[t.log[a] + 255 - t.log[b]];
  }

  /// a^e for e >= 0 (a^0 == 1, including 0^0 by convention here).
  static u8 pow(u8 a, u32 e);

  /// dst[i] ^= c * src[i] for all i — the inner kernel of RS encode/decode.
  static void mul_acc(std::span<u8> dst, std::span<const u8> src, u8 c);

  /// dst[i] = c * src[i].
  static void mul_to(std::span<u8> dst, std::span<const u8> src, u8 c);

  /// dst[i] ^= src[i] (coefficient 1 fast path).
  static void add_acc(std::span<u8> dst, std::span<const u8> src);

  /// The full 256-entry product row c*x for x in 0..255 — the table the
  /// scalar bulk kernel walks (exposed for rapids::simd's reference path).
  static const u8* mul_row(u8 c) { return tables().mul_table[c].data(); }

 private:
  struct Tables {
    // exp has 512 entries so mul can skip the mod-255 reduction.
    std::array<u8, 512> exp{};
    std::array<u16, 256> log{};
    // mul_table[c] is the full 256-entry row of products c*x, built lazily is
    // too racy; we precompute all rows once (64 KiB, trivially cache-fits for
    // the handful of hot coefficients).
    std::array<std::array<u8, 256>, 256> mul_table{};
    Tables();
  };

  static const Tables& tables();
};

}  // namespace rapids::ec
