// Differential suite for the runtime-dispatched kernels (common/cpu.{h,cc}).
//
// Every kernel runs twice on the same adversarial inputs — once with the SIMD
// knob off (baseline copy / scalar fallback) and once with it on (AVX2/AES-NI
// when the host has them) — and the outputs must match bit for bit. The
// plain-loop kernels of cpu_loops.inc compile both settings from one source,
// so "off == on" cannot catch a mistake in that source: their tests also
// check each setting against per-element expectations written here. Shapes
// deliberately include 0/1-row columns, tails of every residue mod the vector
// width, the MPC grain (8191/8192/8193 rows), base pointers offset by 1-3
// elements, exact in-place aliasing, and INT64_MIN/INT64_MAX wrap cases —
// what the compiler's loop peeling and alias versioning reach. The AES section
// additionally pins the block cipher to the FIPS-197 vector and the
// AesCounterRng stream to golden words so the (seed, stream, index)
// pure-function contract is machine-checked, not just self-consistent.

#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "conclave/common/cpu.h"
#include "conclave/common/rng.h"

namespace conclave {
namespace {

using cpu::Arith;
using cpu::Cmp;
using cpu::MaskMode;
using cpu::ScopedSimd;

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// Lengths covering every tail residue of the 4-lane i64 and 32-byte mask
// widths, plus empty and single, plus either side of kMpcGrainRows (8192).
const size_t kLengths[] = {0,  1,  2,  3,  4,   5,   7,   8,   9,    15,
                           16, 17, 31, 32, 33,  63,  64,  65,  100,  255,
                           256, 257, 1000, 8191, 8192, 8193};

// Base-pointer offsets (elements) for the plain-loop kernels' inputs and
// outputs: every misalignment the vectorizer's peeling has to handle.
const size_t kOffsets[] = {0, 1, 2, 3};

std::vector<int64_t> AdversarialColumn(size_t n, uint64_t salt) {
  std::vector<int64_t> v(n);
  Rng rng(0x5eed + salt);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.NextBelow(8)) {
      case 0:
        v[i] = kMin;
        break;
      case 1:
        v[i] = kMax;
        break;
      case 2:
        v[i] = 0;
        break;
      case 3:
        v[i] = -1;
        break;
      case 4:
        v[i] = 1;
        break;
      case 5:
        v[i] = rng.NextInRange(-4, 4);
        break;
      default:
        v[i] = static_cast<int64_t>(rng.Next());
        break;
    }
  }
  return v;
}

std::vector<uint64_t> RandomU64(size_t n, uint64_t salt) {
  std::vector<uint64_t> v(n);
  Rng rng(0xfeed + salt);
  for (auto& x : v) {
    x = rng.Next();
  }
  return v;
}

const Cmp kCmps[] = {Cmp::kEq, Cmp::kNe, Cmp::kLt, Cmp::kLe, Cmp::kGt,
                     Cmp::kGe};
const Arith kAriths[] = {Arith::kAdd, Arith::kSub, Arith::kMul, Arith::kDiv};

TEST(SimdKernels, SelectCompareMatchesScalar) {
  if (!cpu::HardwareAvx2()) {
    GTEST_SKIP() << "no AVX2 hardware; scalar path is the only path";
  }
  for (size_t n : kLengths) {
    const auto lhs = AdversarialColumn(n, 1);
    const auto rhs = AdversarialColumn(n, 2);
    for (Cmp op : kCmps) {
      for (int with_rhs = 0; with_rhs < 2; ++with_rhs) {
        std::vector<int64_t> got(n + 1, -7);
        std::vector<int64_t> want(n + 1, -7);
        const int64_t* rp = with_rhs ? rhs.data() : nullptr;
        size_t want_count;
        size_t got_count;
        {
          ScopedSimd off(false);
          want_count = cpu::SelectCompare(op, lhs.data(), rp, -1, 100, n,
                                          want.data());
        }
        {
          ScopedSimd on(true);
          got_count =
              cpu::SelectCompare(op, lhs.data(), rp, -1, 100, n, got.data());
        }
        ASSERT_EQ(want_count, got_count)
            << "op=" << static_cast<int>(op) << " n=" << n
            << " rhs=" << with_rhs;
        ASSERT_EQ(want, got) << "op=" << static_cast<int>(op) << " n=" << n;
      }
    }
  }
}

bool ExpectedCmp(Cmp op, int64_t a, int64_t b) {
  switch (op) {
    case Cmp::kEq:
      return a == b;
    case Cmp::kNe:
      return a != b;
    case Cmp::kLt:
      return a < b;
    case Cmp::kLe:
      return a <= b;
    case Cmp::kGt:
      return a > b;
    case Cmp::kGe:
      return a >= b;
  }
  return false;
}

TEST(SimdKernels, CompareMaskAllModesMatchScalar) {
  const MaskMode kModes[] = {MaskMode::kSet, MaskMode::kAnd, MaskMode::kOr};
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      const auto lhs_buf = AdversarialColumn(n + off, 3);
      const auto rhs_buf = AdversarialColumn(n + off, 4);
      const int64_t* lhs = lhs_buf.data() + off;
      for (Cmp op : kCmps) {
        for (int with_rhs = 0; with_rhs < 2; ++with_rhs) {
          const int64_t* rp = with_rhs ? rhs_buf.data() + off : nullptr;
          for (MaskMode mode : kModes) {
            // Seed the mask with an alternating 0/1 pattern so kAnd/kOr have
            // something to combine with.
            std::vector<uint8_t> seed(n + off);
            std::vector<uint8_t> want(n);
            for (size_t i = 0; i < n; ++i) {
              seed[off + i] = static_cast<uint8_t>(i & 1);
              const bool bit = ExpectedCmp(op, lhs[i], rp ? rp[i] : -1);
              want[i] = static_cast<uint8_t>(
                  mode == MaskMode::kSet   ? bit
                  : mode == MaskMode::kAnd ? (seed[off + i] != 0 && bit)
                                           : (seed[off + i] != 0 || bit));
            }
            for (bool simd : {false, true}) {
              ScopedSimd guard(simd);
              std::vector<uint8_t> got = seed;
              cpu::CompareMask(op, lhs, rp, -1, n, mode, got.data() + off);
              got.erase(got.begin(),
                        got.begin() + static_cast<std::ptrdiff_t>(off));
              ASSERT_EQ(want, got)
                  << "op=" << static_cast<int>(op)
                  << " mode=" << static_cast<int>(mode) << " n=" << n
                  << " off=" << off << " rhs=" << with_rhs << " simd=" << simd;
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernels, CountMaskAndMaskToIndicesMatchScalar) {
  if (!cpu::HardwareAvx2()) {
    GTEST_SKIP() << "no AVX2 hardware";
  }
  for (size_t n : kLengths) {
    std::vector<uint8_t> mask(n);
    Rng rng(0xabc + n);
    for (auto& b : mask) {
      b = static_cast<uint8_t>(rng.NextBool() ? 1 : 0);
    }
    size_t want_count;
    size_t got_count;
    std::vector<int64_t> want_idx(n + 1, -9);
    std::vector<int64_t> got_idx(n + 1, -9);
    {
      ScopedSimd off(false);
      want_count = cpu::CountMask(mask.data(), n);
      ASSERT_EQ(cpu::MaskToIndices(mask.data(), n, 7, want_idx.data()),
                want_count);
    }
    {
      ScopedSimd on(true);
      got_count = cpu::CountMask(mask.data(), n);
      ASSERT_EQ(cpu::MaskToIndices(mask.data(), n, 7, got_idx.data()),
                got_count);
    }
    ASSERT_EQ(want_count, got_count) << "n=" << n;
    ASSERT_EQ(want_idx, got_idx) << "n=" << n;
  }
}

// The engine's column arithmetic, one element at a time.
int64_t ExpectedArith(Arith op, int64_t lhs, int64_t rhs, int64_t scale) {
  const auto a = static_cast<uint64_t>(lhs);
  const auto b = static_cast<uint64_t>(rhs);
  switch (op) {
    case Arith::kAdd:
      return static_cast<int64_t>(a + b);
    case Arith::kSub:
      return static_cast<int64_t>(a - b);
    case Arith::kMul:
      return static_cast<int64_t>(a * b);
    case Arith::kDiv:
      break;
  }
  if (rhs == 0) {
    return 0;
  }
  const uint64_t prod = a * static_cast<uint64_t>(scale);
  return rhs == -1 ? static_cast<int64_t>(uint64_t{0} - prod)
                   : static_cast<int64_t>(prod) / rhs;
}

TEST(SimdKernels, ArithColumnMatchesScalarIncludingWrapAndDiv) {
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      const auto lhs_buf = AdversarialColumn(n + off, 5);
      const auto rhs_buf = AdversarialColumn(n + off, 6);
      const int64_t* lhs = lhs_buf.data() + off;
      for (Arith op : kAriths) {
        for (int with_rhs = 0; with_rhs < 2; ++with_rhs) {
          const int64_t* rp = with_rhs ? rhs_buf.data() + off : nullptr;
          // Literal -1 plus scale 1000 exercises the INT64_MIN / -1 rule and
          // product wrap in the same sweep.
          std::vector<int64_t> want(n);
          for (size_t i = 0; i < n; ++i) {
            want[i] = ExpectedArith(op, lhs[i], rp ? rp[i] : -1, 1000);
          }
          for (bool simd : {false, true}) {
            for (bool in_place : {false, true}) {
              ScopedSimd guard(simd);
              // In place: out == lhs, on a copy of the input.
              std::vector<int64_t> out_buf =
                  in_place ? lhs_buf : std::vector<int64_t>(n + off, 42);
              int64_t* out = out_buf.data() + off;
              cpu::ArithColumn(op, in_place ? out : lhs, rp, -1, 1000, n, out);
              ASSERT_EQ(want, std::vector<int64_t>(out, out + n))
                  << "op=" << static_cast<int>(op) << " n=" << n
                  << " off=" << off << " rhs=" << with_rhs << " simd=" << simd
                  << " in_place=" << in_place;
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernels, DivisionRuleEdgeCases) {
  // The rule itself (both dispatch levels must produce these exact values):
  // divisor 0 -> 0; INT64_MIN * 1 / -1 wraps back to INT64_MIN; product wrap.
  const int64_t lhs[] = {kMin, kMax, 10, -10, 5};
  const int64_t rhs[] = {-1, -1, 0, 3, 2};
  const int64_t want[] = {kMin, -kMax, 0, -3, 2};
  for (bool simd : {false, true}) {
    ScopedSimd guard(simd);
    int64_t out[5];
    cpu::ArithColumn(Arith::kDiv, lhs, rhs, 0, 1, 5, out);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(out[i], want[i]) << "i=" << i << " simd=" << simd;
    }
  }
}

TEST(SimdKernels, ReductionsMatchScalar) {
  // AllEqual on an equal column with one differing row, placed at the first
  // row, the last row, and either side of every 64-row chunk edge; the
  // flipped bit walks all 64 bit positions.
  constexpr int64_t kValue = 0x5555aaaa3333ccccLL;
  for (size_t n : kLengths) {
    if (n == 0) {
      continue;  // Min/Max require n > 0.
    }
    std::vector<size_t> mismatches = {0, n - 1};
    for (size_t edge = 64; edge < n; edge += 64) {
      mismatches.push_back(edge - 1);
      mismatches.push_back(edge);
    }
    for (size_t off : kOffsets) {
      const auto buf = AdversarialColumn(n + off, 7);
      const int64_t* v = buf.data() + off;
      uint64_t want_sum = 0;
      int64_t want_min = v[0];
      int64_t want_max = v[0];
      bool want_eq = true;
      for (size_t i = 0; i < n; ++i) {
        want_sum += static_cast<uint64_t>(v[i]);
        want_min = v[i] < want_min ? v[i] : want_min;
        want_max = v[i] > want_max ? v[i] : want_max;
        want_eq = want_eq && v[i] == v[0];
      }
      std::vector<int64_t> same_buf(n + off, kValue);
      int64_t* same = same_buf.data() + off;
      for (bool simd : {false, true}) {
        ScopedSimd guard(simd);
        EXPECT_EQ(static_cast<int64_t>(want_sum), cpu::SumWrap(v, n))
            << "n=" << n << " off=" << off << " simd=" << simd;
        EXPECT_EQ(want_sum,
                  cpu::SumU64(reinterpret_cast<const uint64_t*>(v), n))
            << "n=" << n << " off=" << off << " simd=" << simd;
        EXPECT_EQ(want_min, cpu::MinOf(v, n))
            << "n=" << n << " off=" << off << " simd=" << simd;
        EXPECT_EQ(want_max, cpu::MaxOf(v, n))
            << "n=" << n << " off=" << off << " simd=" << simd;
        EXPECT_EQ(want_eq, cpu::AllEqual(v, n))
            << "n=" << n << " off=" << off << " simd=" << simd;
        EXPECT_TRUE(cpu::AllEqual(same, n))
            << "n=" << n << " off=" << off << " simd=" << simd;
        for (size_t pos : n < 2 ? std::vector<size_t>{} : mismatches) {
          same[pos] = static_cast<int64_t>(static_cast<uint64_t>(kValue) ^
                                           (uint64_t{1} << (pos % 64)));
          EXPECT_FALSE(cpu::AllEqual(same, n))
              << "n=" << n << " off=" << off << " mismatch at " << pos
              << " simd=" << simd;
          same[pos] = kValue;
        }
      }
    }
  }
}

TEST(SimdKernels, GatherMatchesScalar) {
  const auto src_buf = AdversarialColumn(512 + 3, 8);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      const int64_t* src = src_buf.data() + off;
      std::vector<int64_t> rows_buf(n + off);
      int64_t* rows = rows_buf.data() + off;
      Rng rng(0x90 + n);
      for (size_t i = 0; i < n; ++i) {
        rows[i] = static_cast<int64_t>(rng.NextBelow(512));
      }
      std::vector<int64_t> want(n);
      for (size_t i = 0; i < n; ++i) {
        want[i] = src[rows[i]];
      }
      for (bool simd : {false, true}) {
        ScopedSimd guard(simd);
        std::vector<int64_t> out_buf(n + off, -5);
        cpu::GatherI64(src, rows, n, out_buf.data() + off);
        ASSERT_EQ(want, std::vector<int64_t>(out_buf.begin() + off,
                                             out_buf.end()))
            << "n=" << n << " off=" << off << " simd=" << simd;
      }
    }
  }
}

TEST(SimdKernels, RingKernelsMatchScalar) {
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      // Inputs and outputs all start `off` elements into their buffers.
      const auto a_buf = RandomU64(n + off, 1);
      const auto b_buf = RandomU64(n + off, 2);
      const auto c_buf = RandomU64(n + off, 3);
      const auto d_buf = RandomU64(n + off, 4);
      const auto e_buf = RandomU64(n + off, 5);
      const uint64_t* a = a_buf.data() + off;
      const uint64_t* b = b_buf.data() + off;
      const uint64_t* c = c_buf.data() + off;
      const uint64_t* d = d_buf.data() + off;
      const uint64_t* e = e_buf.data() + off;
      std::vector<uint8_t> bits_buf(n + off);
      std::vector<int64_t> rows(n);
      Rng rng(0x77 + n);
      for (size_t i = 0; i < n; ++i) {
        bits_buf[off + i] = static_cast<uint8_t>(rng.NextBool() ? 1 : 0);
        rows[i] = static_cast<int64_t>(rng.NextBelow(n));
      }
      const uint8_t* bits = bits_buf.data() + off;
      constexpr uint64_t kAdd = 0x9e3779b97f4a7c15ULL;
      constexpr uint64_t kMul = 0xdeadbeefcafef00dULL;

      using Outs = std::map<std::string, std::vector<uint64_t>>;
      Outs want;
      for (size_t i = 0; i < n; ++i) {
        want["add"].push_back(a[i] + b[i]);
        want["add_in_place"].push_back(a[i] + b[i]);
        want["sub"].push_back(a[i] - b[i]);
        want["subsub"].push_back(a[i] - b[i] - c[i]);
        want["add3"].push_back(a[i] + b[i] + c[i]);
        want["addc"].push_back(a[i] + kAdd);
        want["mulc"].push_back(a[i] * kMul);
        want["masksub"].push_back(uint64_t{bits[i]} - a[i] - b[i]);
        want["accdiff"].push_back(c[i] + (a[i] - b[i]));
        want["accdiff_acc_is_a"].push_back(a[i] + (a[i] - b[i]));
        want["beaver"].push_back(a[i] + b[i] * c[i] + d[i] * e[i]);
        want["accmul"].push_back(c[i] + a[i] * b[i]);
        want["accmul_acc_is_d"].push_back(a[i] + a[i] * b[i]);
        const size_t row = static_cast<size_t>(rows[i]);
        want["g0"].push_back(a[row] + d[i]);
        want["g1"].push_back(b[row] + e[i]);
        want["g2"].push_back(c[row] - d[i] - e[i]);
      }
      uint64_t want_sum = 0;
      for (size_t i = 0; i < n; ++i) {
        want_sum += a[i];
      }

      for (bool simd : {false, true}) {
        ScopedSimd guard(simd);
        Outs got;
        // An output buffer offset like the inputs, optionally seeded with a
        // copy of one (for accumulators and in-place calls).
        const auto out = [&](const char* name,
                             const std::vector<uint64_t>* seed = nullptr) {
          std::vector<uint64_t>& v = got[name];
          v = seed != nullptr ? *seed : std::vector<uint64_t>(n + off, 99);
          return v.data() + off;
        };
        cpu::AddU64(a, b, n, out("add"));
        uint64_t* in_place = out("add_in_place", &a_buf);
        cpu::AddU64(in_place, b, n, in_place);
        cpu::SubU64(a, b, n, out("sub"));
        cpu::SubSubU64(a, b, c, n, out("subsub"));
        cpu::Add3U64(a, b, c, n, out("add3"));
        cpu::AddConstU64(a, kAdd, n, out("addc"));
        cpu::MulConstU64(a, kMul, n, out("mulc"));
        cpu::MaskSubSub(bits, a, b, n, out("masksub"));
        cpu::AccumDiffU64(a, b, n, out("accdiff", &c_buf));
        uint64_t* acc_a = out("accdiff_acc_is_a", &a_buf);
        cpu::AccumDiffU64(acc_a, b, n, acc_a);
        cpu::BeaverCombineU64(a, b, c, d, e, n, out("beaver"));
        cpu::AccumMulU64(a, b, n, out("accmul", &c_buf));
        uint64_t* acc_d = out("accmul_acc_is_d", &a_buf);
        cpu::AccumMulU64(acc_d, b, n, acc_d);
        // o0/o1 arrive pre-filled with the mask words r0 = d, r1 = e.
        uint64_t* g0 = out("g0", &d_buf);
        uint64_t* g1 = out("g1", &e_buf);
        cpu::GatherRerandCombine(a, b, c, rows.data(), n, g0, g1, out("g2"));
        for (auto& [name, v] : got) {
          v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(off));
          ASSERT_EQ(want[name], v) << name << " n=" << n << " off=" << off
                                   << " simd=" << simd;
        }
        ASSERT_EQ(want_sum, cpu::SumU64(a, n))
            << "n=" << n << " off=" << off << " simd=" << simd;
      }
    }
  }
}

TEST(SimdKernels, InPlaceArithAndAddAllowed) {
  for (bool simd : {false, true}) {
    ScopedSimd guard(simd);
    auto v = AdversarialColumn(37, 9);
    auto expect = v;
    for (size_t i = 0; i < v.size(); ++i) {
      expect[i] = static_cast<int64_t>(static_cast<uint64_t>(expect[i]) * 3u);
    }
    cpu::ArithColumn(Arith::kMul, v.data(), nullptr, 3, 1, v.size(), v.data());
    EXPECT_EQ(v, expect) << "simd=" << simd;

    auto u = RandomU64(37, 10);
    auto w = RandomU64(37, 11);
    auto expect_u = u;
    for (size_t i = 0; i < u.size(); ++i) {
      expect_u[i] += w[i];
    }
    cpu::AddU64(u.data(), w.data(), u.size(), u.data());
    EXPECT_EQ(u, expect_u) << "simd=" << simd;
  }
}

// --- AES --------------------------------------------------------------------

TEST(AesCounter, Fips197KnownAnswer) {
  // FIPS-197 appendix B: AES-128 of 00112233..eeff under key 000102..0f.
  const uint8_t key[16] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                           0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  const uint8_t pt[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                          0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  const uint8_t want[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                            0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  uint8_t got[16];
  cpu::AesEncryptBlockPortable(key, pt, got);
  EXPECT_EQ(0, std::memcmp(got, want, 16));
}

TEST(AesCounter, NiMatchesPortable) {
  if (!cpu::HardwareAes()) {
    GTEST_SKIP() << "no AES-NI hardware";
  }
  const AesCounterRng rng(0x1234567890abcdefULL, 42);
  for (size_t n : kLengths) {
    std::vector<uint64_t> want_lo(n), want_hi(n), got_lo(n), got_hi(n);
    std::vector<uint64_t> want_w(n), got_w(n);
    {
      ScopedSimd off(false);
      rng.FillBlocksSplit(/*first_block=*/3, n, want_lo.data(),
                          want_hi.data());
      rng.FillWords(/*first_word=*/5, n, want_w.data());
    }
    {
      ScopedSimd on(true);
      rng.FillBlocksSplit(3, n, got_lo.data(), got_hi.data());
      rng.FillWords(5, n, got_w.data());
    }
    ASSERT_EQ(want_lo, got_lo) << "n=" << n;
    ASSERT_EQ(want_hi, got_hi) << "n=" << n;
    ASSERT_EQ(want_w, got_w) << "n=" << n;
  }
}

TEST(AesCounter, PureFunctionAddressing) {
  // At(), FillWords(), and FillBlocksSplit() are three views of one pure
  // function of (seed, stream, index): word w == half (w & 1) of block
  // (w >> 1), regardless of fill order, batching, or starting offset.
  const AesCounterRng rng(77, 5);
  constexpr size_t kN = 300;
  std::vector<uint64_t> words(kN);
  rng.FillWords(0, kN, words.data());
  for (uint64_t w = 0; w < kN; ++w) {
    ASSERT_EQ(rng.At(w), words[w]) << "w=" << w;
  }
  std::vector<uint64_t> lo(kN / 2), hi(kN / 2);
  rng.FillBlocksSplit(0, kN / 2, lo.data(), hi.data());
  for (size_t b = 0; b < kN / 2; ++b) {
    ASSERT_EQ(lo[b], words[2 * b]) << "b=" << b;
    ASSERT_EQ(hi[b], words[2 * b + 1]) << "b=" << b;
  }
  // Offset fills agree with the absolute addressing.
  std::vector<uint64_t> tail(kN - 13);
  rng.FillWords(13, tail.size(), tail.data());
  for (size_t i = 0; i < tail.size(); ++i) {
    ASSERT_EQ(tail[i], words[13 + i]) << "i=" << i;
  }
  // Distinct streams and seeds decorrelate.
  const AesCounterRng other_stream(77, 6);
  const AesCounterRng other_seed(78, 5);
  EXPECT_NE(other_stream.At(0), rng.At(0));
  EXPECT_NE(other_seed.At(0), rng.At(0));
}

TEST(AesCounter, GoldenVectors) {
  // Pinned draws by (seed, stream, index): a change to the fixed key, the
  // counter-base derivation, the block layout, or the cipher itself breaks
  // these exact words. Values come from the portable cipher (whose own ground
  // truth is the FIPS-197 test above) and must hold on both dispatch paths.
  for (bool simd : {false, true}) {
    ScopedSimd guard(simd);
    const AesCounterRng rng(0xc0ffee, 9);
    EXPECT_EQ(rng.At(0), 0x7c11c03159a2678dULL) << "simd=" << simd;
    EXPECT_EQ(rng.At(1), 0xd68fed51f06df0f8ULL) << "simd=" << simd;
    EXPECT_EQ(rng.At(1000), 0x6449cecdbe49a805ULL) << "simd=" << simd;
    const AesCounterRng other(1, 0);
    EXPECT_EQ(other.At(0), 0x3de2f745245e8efdULL) << "simd=" << simd;
    EXPECT_EQ(other.At(7), 0x2523d7be8286d65bULL) << "simd=" << simd;
  }
}

TEST(SimdKernels, KnobAndLevelNames) {
  const bool initial = cpu::SimdEnabled();
  {
    ScopedSimd off(false);
    EXPECT_FALSE(cpu::SimdEnabled());
    EXPECT_FALSE(cpu::UsingAvx2());
    EXPECT_FALSE(cpu::UsingAesNi());
    EXPECT_STREQ(cpu::SimdLevelName(), "scalar");
    {
      ScopedSimd on(true);
      EXPECT_TRUE(cpu::SimdEnabled());
      if (cpu::HardwareAvx2()) {
        EXPECT_STREQ(cpu::SimdLevelName(), "avx2");
      }
    }
    EXPECT_FALSE(cpu::SimdEnabled());
  }
  EXPECT_EQ(cpu::SimdEnabled(), initial);
}

}  // namespace
}  // namespace conclave
