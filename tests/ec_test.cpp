// Tests for GF(2^8) arithmetic, matrix algebra, and the Reed-Solomon codec:
// field axioms as property sweeps, matrix invertibility of the RS
// constructions, and the any-k-of-n recovery contract across geometries.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "rapids/ec/gf256.hpp"
#include "rapids/ec/matrix.hpp"
#include "rapids/ec/reed_solomon.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/util/rng.hpp"

namespace rapids::ec {
namespace {

// --- GF(2^8) field axioms ---

TEST(GF256, AddIsXor) {
  EXPECT_EQ(GF256::add(0xAB, 0xCD), 0xAB ^ 0xCD);
  EXPECT_EQ(GF256::sub(0xAB, 0xCD), 0xAB ^ 0xCD);
}

TEST(GF256, MulIdentityAndZero) {
  for (u32 a = 0; a < 256; ++a) {
    EXPECT_EQ(GF256::mul(static_cast<u8>(a), 1), a);
    EXPECT_EQ(GF256::mul(1, static_cast<u8>(a)), a);
    EXPECT_EQ(GF256::mul(static_cast<u8>(a), 0), 0);
  }
}

TEST(GF256, MulCommutative) {
  Rng rng(1);
  for (int t = 0; t < 2000; ++t) {
    const u8 a = static_cast<u8>(rng.next_u64());
    const u8 b = static_cast<u8>(rng.next_u64());
    ASSERT_EQ(GF256::mul(a, b), GF256::mul(b, a));
  }
}

TEST(GF256, MulAssociative) {
  Rng rng(2);
  for (int t = 0; t < 2000; ++t) {
    const u8 a = static_cast<u8>(rng.next_u64());
    const u8 b = static_cast<u8>(rng.next_u64());
    const u8 c = static_cast<u8>(rng.next_u64());
    ASSERT_EQ(GF256::mul(GF256::mul(a, b), c), GF256::mul(a, GF256::mul(b, c)));
  }
}

TEST(GF256, MulDistributesOverAdd) {
  Rng rng(3);
  for (int t = 0; t < 2000; ++t) {
    const u8 a = static_cast<u8>(rng.next_u64());
    const u8 b = static_cast<u8>(rng.next_u64());
    const u8 c = static_cast<u8>(rng.next_u64());
    ASSERT_EQ(GF256::mul(a, GF256::add(b, c)),
              GF256::add(GF256::mul(a, b), GF256::mul(a, c)));
  }
}

TEST(GF256, EveryNonzeroHasInverse) {
  for (u32 a = 1; a < 256; ++a) {
    const u8 inv = GF256::inv(static_cast<u8>(a));
    ASSERT_EQ(GF256::mul(static_cast<u8>(a), inv), 1) << "a=" << a;
  }
}

TEST(GF256, InverseOfZeroThrows) { EXPECT_THROW(GF256::inv(0), invariant_error); }

TEST(GF256, DivisionConsistent) {
  Rng rng(4);
  for (int t = 0; t < 2000; ++t) {
    const u8 a = static_cast<u8>(rng.next_u64());
    u8 b = static_cast<u8>(rng.next_u64());
    if (b == 0) b = 1;
    ASSERT_EQ(GF256::mul(GF256::div(a, b), b), a);
  }
  EXPECT_THROW(GF256::div(5, 0), invariant_error);
}

TEST(GF256, PowMatchesRepeatedMul) {
  for (u8 a : {u8{2}, u8{3}, u8{0x53}}) {
    u8 acc = 1;
    for (u32 e = 0; e < 300; ++e) {
      ASSERT_EQ(GF256::pow(a, e), acc) << "a=" << int(a) << " e=" << e;
      acc = GF256::mul(acc, a);
    }
  }
  EXPECT_EQ(GF256::pow(0, 0), 1);
  EXPECT_EQ(GF256::pow(0, 5), 0);
}

TEST(GF256, GeneratorHasFullOrder) {
  // alpha = 2 generates the multiplicative group: 2^255 == 1, 2^i != 1 before.
  u8 acc = 1;
  for (u32 e = 1; e < 255; ++e) {
    acc = GF256::mul(acc, 2);
    ASSERT_NE(acc, 1) << "order divides " << e;
  }
  EXPECT_EQ(GF256::mul(acc, 2), 1);
}

TEST(GF256, MulAccMatchesScalarLoop) {
  Rng rng(5);
  std::vector<u8> dst(1000), src(1000), expect(1000);
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] = static_cast<u8>(rng.next_u64());
    src[i] = static_cast<u8>(rng.next_u64());
  }
  for (u8 c : {u8{0}, u8{1}, u8{0x1D}, u8{0xFF}}) {
    auto d = dst;
    for (std::size_t i = 0; i < d.size(); ++i)
      expect[i] = GF256::add(dst[i], GF256::mul(c, src[i]));
    GF256::mul_acc(d, src, c);
    ASSERT_EQ(d, expect) << "c=" << int(c);
  }
}

TEST(GF256, MulToMatchesScalarLoop) {
  Rng rng(6);
  std::vector<u8> src(257);
  for (auto& v : src) v = static_cast<u8>(rng.next_u64());
  std::vector<u8> dst(src.size()), expect(src.size());
  for (u8 c : {u8{0}, u8{1}, u8{0xA7}}) {
    for (std::size_t i = 0; i < src.size(); ++i) expect[i] = GF256::mul(c, src[i]);
    GF256::mul_to(dst, src, c);
    ASSERT_EQ(dst, expect);
  }
}

// --- Matrix ---

TEST(Matrix, IdentityMultiplication) {
  const Matrix id = Matrix::identity(5);
  Matrix a(5, 5);
  Rng rng(7);
  for (u32 r = 0; r < 5; ++r)
    for (u32 c = 0; c < 5; ++c) a.at(r, c) = static_cast<u8>(rng.next_u64());
  EXPECT_EQ(id.multiply(a), a);
  EXPECT_EQ(a.multiply(id), a);
}

TEST(Matrix, InverseRoundTrip) {
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    Matrix a(6, 6);
    // Random matrices over GF(256) are invertible with high probability;
    // retry until one is.
    do {
      for (u32 r = 0; r < 6; ++r)
        for (u32 c = 0; c < 6; ++c) a.at(r, c) = static_cast<u8>(rng.next_u64());
    } while (a.singular());
    const Matrix inv = a.inverted();
    EXPECT_EQ(a.multiply(inv), Matrix::identity(6));
    EXPECT_EQ(inv.multiply(a), Matrix::identity(6));
  }
}

TEST(Matrix, SingularDetected) {
  Matrix a(3, 3);  // all zeros
  EXPECT_TRUE(a.singular());
  EXPECT_THROW(a.inverted(), invariant_error);
  Matrix b = Matrix::identity(3);
  b.at(2, 2) = 0;
  EXPECT_TRUE(b.singular());
}

TEST(Matrix, ApplyMatchesMultiply) {
  Rng rng(9);
  Matrix a(4, 6);
  for (u32 r = 0; r < 4; ++r)
    for (u32 c = 0; c < 6; ++c) a.at(r, c) = static_cast<u8>(rng.next_u64());
  std::vector<u8> x(6), y(4);
  for (auto& v : x) v = static_cast<u8>(rng.next_u64());
  a.apply(x, y);
  for (u32 r = 0; r < 4; ++r) {
    u8 expect = 0;
    for (u32 c = 0; c < 6; ++c)
      expect = GF256::add(expect, GF256::mul(a.at(r, c), x[c]));
    EXPECT_EQ(y[r], expect);
  }
}

TEST(Matrix, SelectRows) {
  Matrix a(5, 3);
  for (u32 r = 0; r < 5; ++r)
    for (u32 c = 0; c < 3; ++c) a.at(r, c) = static_cast<u8>(r * 10 + c);
  const std::vector<u32> rows = {4, 0, 2};
  const Matrix s = a.select_rows(rows);
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_EQ(s.at(0, 1), 41);
  EXPECT_EQ(s.at(1, 0), 0);
  EXPECT_EQ(s.at(2, 2), 22);
}

struct RsGeometry {
  u32 k;
  u32 m;
};

class RsMatrixTest : public ::testing::TestWithParam<RsGeometry> {};

TEST_P(RsMatrixTest, SystematicTopIsIdentity) {
  const auto [k, m] = GetParam();
  for (const Matrix& e : {Matrix::rs_vandermonde(k, m), Matrix::rs_cauchy(k, m)}) {
    ASSERT_EQ(e.rows(), k + m);
    ASSERT_EQ(e.cols(), k);
    for (u32 r = 0; r < k; ++r)
      for (u32 c = 0; c < k; ++c)
        ASSERT_EQ(e.at(r, c), r == c ? 1 : 0) << "r=" << r << " c=" << c;
  }
}

TEST_P(RsMatrixTest, EveryKRowSubmatrixInvertible) {
  const auto [k, m] = GetParam();
  for (const Matrix& e : {Matrix::rs_vandermonde(k, m), Matrix::rs_cauchy(k, m)}) {
    // Exhaustive over combinations when small, random subsets otherwise.
    std::vector<u32> idx(k + m);
    std::iota(idx.begin(), idx.end(), 0u);
    Rng rng(10);
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<u32> pick = idx;
      for (u32 i = 0; i < k; ++i) {
        const u64 j = i + rng.next_below(pick.size() - i);
        std::swap(pick[i], pick[j]);
      }
      pick.resize(k);
      std::sort(pick.begin(), pick.end());
      ASSERT_FALSE(e.select_rows(pick).singular());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, RsMatrixTest,
                         ::testing::Values(RsGeometry{2, 1}, RsGeometry{4, 2},
                                           RsGeometry{4, 4}, RsGeometry{6, 3},
                                           RsGeometry{12, 4}, RsGeometry{15, 1},
                                           RsGeometry{10, 6}),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param.k) + "m" +
                                  std::to_string(info.param.m);
                         });

// --- Reed-Solomon codec ---

std::vector<u8> random_payload(std::size_t size, u64 seed) {
  Rng rng(seed);
  std::vector<u8> data(size);
  for (auto& b : data) b = static_cast<u8>(rng.next_u64());
  return data;
}

class RsCodecTest : public ::testing::TestWithParam<RsGeometry> {};

TEST_P(RsCodecTest, EncodeGeometry) {
  const auto [k, m] = GetParam();
  const ReedSolomon rs(k, m);
  const auto data = random_payload(1000, 11);
  const auto frags = rs.encode(data, "obj", 3);
  ASSERT_EQ(frags.size(), k + m);
  const u64 expect_size = ceil_div(1000, k);
  for (u32 i = 0; i < frags.size(); ++i) {
    EXPECT_EQ(frags[i].payload.size(), expect_size);
    EXPECT_EQ(frags[i].id.index, i);
    EXPECT_EQ(frags[i].id.level, 3u);
    EXPECT_EQ(frags[i].level_bytes, 1000u);
    EXPECT_TRUE(frags[i].verify());
    EXPECT_EQ(frags[i].is_data(), i < k);
  }
}

TEST_P(RsCodecTest, AllDataFragmentsFastPath) {
  const auto [k, m] = GetParam();
  const ReedSolomon rs(k, m);
  const auto data = random_payload(997, 12);  // not divisible by k
  auto frags = rs.encode(data, "obj", 0);
  frags.resize(k);  // keep only the systematic rows
  EXPECT_EQ(rs.decode(frags), data);
}

TEST_P(RsCodecTest, RecoversFromAnyKSurvivors) {
  const auto [k, m] = GetParam();
  const ReedSolomon rs(k, m);
  const auto data = random_payload(4096 + 17, 13);
  const auto frags = rs.encode(data, "obj", 0);
  Rng rng(14);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<u32> idx(k + m);
    std::iota(idx.begin(), idx.end(), 0u);
    for (u32 i = 0; i < k; ++i) {
      const u64 j = i + rng.next_below(idx.size() - i);
      std::swap(idx[i], idx[j]);
    }
    std::vector<Fragment> survivors;
    for (u32 i = 0; i < k; ++i) survivors.push_back(frags[idx[i]]);
    ASSERT_EQ(rs.decode(survivors), data);
  }
}

TEST_P(RsCodecTest, ParityOnlyDecode) {
  const auto [k, m] = GetParam();
  if (m < k) GTEST_SKIP() << "needs m >= k to decode from parity alone";
  const ReedSolomon rs(k, m);
  const auto data = random_payload(512, 15);
  const auto frags = rs.encode(data, "obj", 0);
  std::vector<Fragment> parity(frags.begin() + k, frags.begin() + k + k);
  EXPECT_EQ(rs.decode(parity), data);
}

INSTANTIATE_TEST_SUITE_P(Geometries, RsCodecTest,
                         ::testing::Values(RsGeometry{2, 1}, RsGeometry{4, 2},
                                           RsGeometry{4, 4}, RsGeometry{6, 3},
                                           RsGeometry{12, 4}, RsGeometry{15, 1},
                                           RsGeometry{3, 6}),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param.k) + "m" +
                                  std::to_string(info.param.m);
                         });

TEST(ReedSolomon, CauchyAndVandermondeBothRecover) {
  const auto data = random_payload(2000, 16);
  for (auto kind : {MatrixKind::kVandermonde, MatrixKind::kCauchy}) {
    const ReedSolomon rs(5, 3, kind);
    auto frags = rs.encode(data, "obj", 0);
    // Drop 3 data fragments.
    std::vector<Fragment> survivors = {frags[3], frags[4], frags[5], frags[6],
                                       frags[7]};
    EXPECT_EQ(rs.decode(survivors), data);
  }
}

TEST(ReedSolomon, TooFewFragmentsThrows) {
  const ReedSolomon rs(4, 2);
  const auto data = random_payload(100, 17);
  auto frags = rs.encode(data, "obj", 0);
  std::vector<Fragment> three(frags.begin(), frags.begin() + 3);
  EXPECT_THROW(rs.decode(three), invariant_error);
}

TEST(ReedSolomon, DuplicateIndicesRejected) {
  const ReedSolomon rs(3, 2);
  const auto data = random_payload(100, 18);
  auto frags = rs.encode(data, "obj", 0);
  std::vector<Fragment> dup = {frags[0], frags[0], frags[1]};
  EXPECT_THROW(rs.decode(dup), invariant_error);
}

TEST(ReedSolomon, CorruptFragmentDetected) {
  const ReedSolomon rs(4, 2);
  const auto data = random_payload(1000, 19);
  auto frags = rs.encode(data, "obj", 0);
  frags[2].payload[10] ^= 0xFF;  // damage without updating CRC
  std::vector<Fragment> survivors(frags.begin(), frags.begin() + 4);
  EXPECT_THROW(rs.decode(survivors), invariant_error);
}

TEST(ReedSolomon, DuplicateExtrasSkipped) {
  // A duplicate index among the survivors is skipped, not fatal, as long as
  // k distinct fragments remain.
  const ReedSolomon rs(4, 2);
  const auto data = random_payload(1000, 40);
  auto frags = rs.encode(data, "obj", 0);
  std::vector<Fragment> survivors = {frags[0], frags[0], frags[1], frags[2],
                                     frags[3]};
  EXPECT_EQ(rs.decode(survivors), data);
  // Same with a parity fragment duplicated.
  std::vector<Fragment> with_parity = {frags[4], frags[4], frags[0], frags[1],
                                       frags[2]};
  EXPECT_EQ(rs.decode(with_parity), data);
}

TEST(ReedSolomon, CorruptExtraSkipped) {
  // A CRC-damaged fragment among extra survivors is skipped; decode proceeds
  // on the k healthy ones.
  const ReedSolomon rs(4, 2);
  const auto data = random_payload(1000, 41);
  auto frags = rs.encode(data, "obj", 0);
  frags[1].payload[10] ^= 0xFF;  // damage without updating CRC
  EXPECT_EQ(rs.decode(frags), data);
  // Reconstruction also routes around the damage.
  const Fragment rebuilt = rs.reconstruct_fragment(frags, 1);
  EXPECT_TRUE(rebuilt.verify());
}

TEST(ReedSolomon, CorruptBeyondRepairStillThrows) {
  // With only k survivors, damage leaves fewer than k healthy fragments.
  const ReedSolomon rs(4, 2);
  const auto data = random_payload(1000, 42);
  auto frags = rs.encode(data, "obj", 0);
  frags[2].payload[0] ^= 0x01;
  std::vector<Fragment> survivors(frags.begin(), frags.begin() + 4);
  EXPECT_THROW(rs.decode(survivors), invariant_error);
}

TEST(ReedSolomon, GeometryMismatchRejected) {
  const ReedSolomon rs4(4, 2);
  const ReedSolomon rs5(5, 2);
  const auto data = random_payload(1000, 20);
  auto frags4 = rs4.encode(data, "obj", 0);
  auto frags5 = rs5.encode(data, "obj", 0);
  std::vector<Fragment> mixed = {frags4[0], frags4[1], frags5[2], frags4[3]};
  EXPECT_THROW(rs4.decode(mixed), invariant_error);
}

TEST(ReedSolomon, InvalidGeometryRejected) {
  EXPECT_THROW(ReedSolomon(0, 2), invariant_error);
  EXPECT_THROW(ReedSolomon(2, 0), invariant_error);
  EXPECT_THROW(ReedSolomon(200, 100), invariant_error);
}

TEST(ReedSolomon, EmptyPayload) {
  const ReedSolomon rs(4, 2);
  const std::vector<u8> empty;
  auto frags = rs.encode(empty, "obj", 0);
  EXPECT_EQ(frags.size(), 6u);
  std::vector<Fragment> survivors(frags.begin() + 2, frags.end());
  EXPECT_TRUE(rs.decode(survivors).empty());
}

TEST(ReedSolomon, OneBytePayload) {
  const ReedSolomon rs(4, 2);
  const std::vector<u8> one = {0x5A};
  auto frags = rs.encode(one, "obj", 0);
  std::vector<Fragment> survivors = {frags[5], frags[4], frags[3], frags[2]};
  EXPECT_EQ(rs.decode(survivors), one);
}

TEST(ReedSolomon, ReconstructMissingDataFragment) {
  const ReedSolomon rs(6, 3);
  const auto data = random_payload(3000, 21);
  const auto frags = rs.encode(data, "obj", 2);
  for (u32 missing : {0u, 3u, 5u}) {
    std::vector<Fragment> survivors;
    for (const auto& f : frags)
      if (f.id.index != missing) survivors.push_back(f);
    const Fragment rebuilt = rs.reconstruct_fragment(survivors, missing);
    EXPECT_EQ(rebuilt.payload, frags[missing].payload);
    EXPECT_EQ(rebuilt.payload_crc, frags[missing].payload_crc);
    EXPECT_EQ(rebuilt.id.index, missing);
    EXPECT_EQ(rebuilt.id.level, 2u);
  }
}

TEST(ReedSolomon, ReconstructMissingParityFragment) {
  const ReedSolomon rs(6, 3);
  const auto data = random_payload(3000, 22);
  const auto frags = rs.encode(data, "obj", 0);
  for (u32 missing : {6u, 7u, 8u}) {
    std::vector<Fragment> survivors;
    for (const auto& f : frags)
      if (f.id.index != missing) survivors.push_back(f);
    const Fragment rebuilt = rs.reconstruct_fragment(survivors, missing);
    EXPECT_EQ(rebuilt.payload, frags[missing].payload);
  }
}

TEST(ReedSolomon, ParallelEncodeMatchesSerial) {
  ThreadPool pool(4);
  const ReedSolomon rs(8, 4);
  const auto data = random_payload(1 << 20, 23);
  const auto serial = rs.encode(data, "obj", 0);
  const auto parallel = rs.encode(data, "obj", 0, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial[i].payload, parallel[i].payload) << "fragment " << i;
}

TEST(ReedSolomon, ParallelDecodeMatchesSerial) {
  ThreadPool pool(4);
  const ReedSolomon rs(8, 4);
  const auto data = random_payload(1 << 20, 24);
  auto frags = rs.encode(data, "obj", 0);
  std::vector<Fragment> survivors(frags.begin() + 4, frags.end());
  EXPECT_EQ(rs.decode(survivors, &pool), data);
}

// --- Fragment serialization ---

TEST(Fragment, SerializeRoundTrip) {
  Fragment f;
  f.id = FragmentId{"NYX:temperature", 2, 7};
  f.k = 12;
  f.m = 4;
  f.level_bytes = 123456;
  f.payload = random_payload(500, 25);
  f.payload_crc = fragment_crc(f.payload);
  const Bytes wire = f.serialize();
  const Fragment back = Fragment::deserialize(as_bytes_view(wire));
  EXPECT_EQ(back.id, f.id);
  EXPECT_EQ(back.k, f.k);
  EXPECT_EQ(back.m, f.m);
  EXPECT_EQ(back.level_bytes, f.level_bytes);
  EXPECT_EQ(back.payload, f.payload);
  EXPECT_TRUE(back.verify());

  // The header alone is enough to decode: any k fragments, each read back
  // from its own serialized bytes, in mixed parity/data order.
  const ReedSolomon rs(4, 2);
  const auto payload = random_payload(5000, 28);
  const auto frags = rs.encode(payload, "SCALE:T", 1);
  std::vector<Fragment> survivors;
  for (const u32 i : {5u, 3u, 1u, 0u})
    survivors.push_back(
        Fragment::deserialize(as_bytes_view(frags[i].serialize())));
  EXPECT_EQ(rs.decode(survivors), payload);
}

TEST(Fragment, DeserializeBadMagicThrows) {
  Bytes junk(64, std::byte{0x11});
  EXPECT_THROW(Fragment::deserialize(as_bytes_view(junk)), io_error);
}

TEST(Fragment, TruncatedThrows) {
  Fragment f;
  f.id = FragmentId{"x", 0, 0};
  f.k = 2;
  f.m = 1;
  f.payload = random_payload(100, 26);
  f.payload_crc = fragment_crc(f.payload);
  Bytes wire = f.serialize();
  wire.resize(wire.size() / 2);
  EXPECT_THROW(Fragment::deserialize(as_bytes_view(wire)), io_error);
}

TEST(Fragment, KeyFormat) {
  const FragmentId id{"SCALE:T", 3, 15};
  EXPECT_EQ(id.key(), "frag/SCALE:T/3/15");
}

TEST(Fragment, KeyParsesBackWhateverTheName) {
  for (const FragmentId& id :
       {FragmentId{"a", 0, 5}, FragmentId{"a/0", 0, 5},
        FragmentId{"hurricane/pressure", 3, 15}, FragmentId{"obj@g1", 2, 0},
        FragmentId{"x/1/2", 4294967295u, 7}})
    EXPECT_EQ(FragmentId::parse(id.key()), std::optional<FragmentId>(id))
        << id.key();
  // The last two parts are the level and the index; the rest is the name.
  EXPECT_EQ(FragmentId::parse("frag/a/0/0/5")->object_name, "a/0");
}

TEST(Fragment, ParseRejectsOtherKeys) {
  for (const char* key :
       {"", "frag/", "frag/a", "frag/a/0", "frag/0/1", "frag/a/x/1",
        "frag/a/0/", "frag/a//1", "frag/a/0/1x", "frag/a/-1/2",
        "frag/a/0/4294967296", "obj/a/0/1", "frog/a/0/1"})
    EXPECT_FALSE(FragmentId::parse(key).has_value()) << key;
}

TEST(Fragment, KeyPrefixes) {
  EXPECT_EQ(FragmentId::key_prefix("a"), "frag/a/");
  EXPECT_EQ(FragmentId::key_prefix("a", 3), "frag/a/3/");
  const FragmentId id{"a", 3, 7};
  EXPECT_EQ(id.key(), FragmentId::key_prefix("a", 3) + "7");
}

TEST(Fragment, VerifyCatchesDamage) {
  Fragment f;
  f.payload = random_payload(64, 27);
  f.payload_crc = fragment_crc(f.payload);
  EXPECT_TRUE(f.verify());
  f.payload[0] ^= 1;
  EXPECT_FALSE(f.verify());
}

// --- stripe-ranged encode vs the whole-payload encode ---

// Edge-case payload lengths: 1 byte (all padding), straddling the k=12 row
// boundary (63/64/65 → fragment sizes 6/6/6 with varying padding), and a
// multi-stripe payload one past a power of two.
constexpr u64 kStripeLens[] = {1, 63, 64, 65, 4097};

TEST(ReedSolomonStripes, StitchedEncodeMatchesWholePayloadEncode) {
  const ReedSolomon rs(12, 4);
  u64 seed = 40;
  for (const u64 len : kStripeLens) {
    const auto data = random_payload(len, seed++);
    const auto whole = rs.encode(data, "obj", 2);
    const u64 frag_size = rs.fragment_size(len);
    for (const u64 stripe : {u64{64}, u64{1000}, frag_size}) {
      auto frags = rs.make_fragments(len, "obj", 2);
      // Walk the ranges backwards: stripe order must not matter.
      u64 hi = frag_size;
      while (hi > 0) {
        const u64 lo = hi > stripe ? hi - stripe : 0;
        rs.encode_stripe(data, lo, hi, frags);
        hi = lo;
      }
      rs.finish_fragments(frags);
      ASSERT_EQ(frags.size(), whole.size());
      for (std::size_t i = 0; i < frags.size(); ++i) {
        EXPECT_EQ(frags[i].serialize(), whole[i].serialize())
            << "len " << len << " stripe " << stripe << " fragment " << i;
        EXPECT_TRUE(frags[i].verify());
      }
    }
  }
}

TEST(ReedSolomonStripes, ClampedAndOutOfRangeStripesAreHarmless) {
  const ReedSolomon rs(12, 4);
  const auto data = random_payload(65, 50);
  const auto whole = rs.encode(data, "obj", 0);
  const u64 frag_size = rs.fragment_size(data.size());
  auto frags = rs.make_fragments(data.size(), "obj", 0);
  rs.encode_stripe(data, 0, frag_size + 100, frags);  // clamped to frag_size
  rs.encode_stripe(data, frag_size + 5, frag_size + 9, frags);  // no-op
  rs.encode_stripe(data, 3, 3, frags);                          // empty range
  rs.finish_fragments(frags);
  for (std::size_t i = 0; i < frags.size(); ++i)
    EXPECT_EQ(frags[i].serialize(), whole[i].serialize());
}

}  // namespace
}  // namespace rapids::ec
