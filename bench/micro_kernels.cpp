// google-benchmark microbenchmarks for the hot kernels: GF(2^8) bulk ops,
// Reed-Solomon encode/decode across geometries, the multigrid transform,
// bitplane codec, CRC, the key-value store, and the WAN simulators.
//
// The byte-domain kernels (GF(2^8), RS, CRC) are reported twice: the
// dispatched variant (whatever ISA the CPU selects — the label column shows
// which) and a pinned-scalar variant, so the SIMD speedup is visible in one
// run. bench/run_benchmarks.sh captures all of it as BENCH_micro.json.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "rapids/rapids.hpp"
#include "rapids/simd/cpu_features.hpp"
#include "rapids/simd/gf256_kernels.hpp"

namespace {

using namespace rapids;

std::vector<u8> random_bytes(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<u8> out(n);
  for (auto& b : out) b = static_cast<u8>(rng.next_u64());
  return out;
}

// Pins the scalar kernels for the *Scalar benchmark variants and restores
// automatic ISA selection on scope exit.
struct ScopedScalarIsa {
  ScopedScalarIsa() { simd::set_isa_override(simd::IsaLevel::kScalar); }
  ~ScopedScalarIsa() { simd::set_isa_override(std::nullopt); }
};

// --- GF(2^8) ---

void BM_Gf256MulAcc(benchmark::State& state) {
  const auto src = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  std::vector<u8> dst(src.size(), 0);
  for (auto _ : state) {
    ec::GF256::mul_acc(dst, src, 0x1D);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(simd::active_isa_name());
}
BENCHMARK(BM_Gf256MulAcc)->Arg(4 << 10)->Arg(256 << 10)->Arg(4 << 20);

void BM_Gf256MulAccScalar(benchmark::State& state) {
  ScopedScalarIsa scalar;
  const auto src = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  std::vector<u8> dst(src.size(), 0);
  for (auto _ : state) {
    ec::GF256::mul_acc(dst, src, 0x1D);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(simd::active_isa_name());
}
BENCHMARK(BM_Gf256MulAccScalar)->Arg(4 << 10)->Arg(256 << 10)->Arg(4 << 20);

void BM_Gf256AddAcc(benchmark::State& state) {
  const auto src = random_bytes(static_cast<std::size_t>(state.range(0)), 2);
  std::vector<u8> dst(src.size(), 0);
  for (auto _ : state) {
    ec::GF256::add_acc(dst, src);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(simd::active_isa_name());
}
BENCHMARK(BM_Gf256AddAcc)->Arg(4 << 20);

// The fused multi-destination kernel vs the k*m unfused passes it replaced,
// at RS(12,4)-shaped geometry over an L2-sized stripe.
void BM_Gf256MatrixApply(benchmark::State& state) {
  const u32 k = 12, m = 4;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto coeffs = random_bytes(k * m, 5);
  std::vector<std::vector<u8>> src_bufs(k), dst_bufs(m);
  std::vector<const u8*> srcs(k);
  std::vector<u8*> dsts(m);
  for (u32 d = 0; d < k; ++d) {
    src_bufs[d] = random_bytes(n, 10 + d);
    srcs[d] = src_bufs[d].data();
  }
  for (u32 j = 0; j < m; ++j) {
    dst_bufs[j].assign(n, 0);
    dsts[j] = dst_bufs[j].data();
  }
  for (auto _ : state) {
    simd::matrix_apply(dsts.data(), m, srcs.data(), k, coeffs.data(), n,
                       /*accumulate=*/false);
    benchmark::DoNotOptimize(dsts.data());
  }
  // Bytes of source data streamed per apply (the quantity the fused kernel
  // reads once instead of m times).
  state.SetBytesProcessed(state.iterations() * n * k);
  state.SetLabel(simd::active_isa_name());
}
BENCHMARK(BM_Gf256MatrixApply)->Arg(32 << 10)->Arg(1 << 20);

// --- Reed-Solomon ---

void BM_RsEncode(benchmark::State& state) {
  const u32 k = static_cast<u32>(state.range(0));
  const u32 m = static_cast<u32>(state.range(1));
  const ec::ReedSolomon rs(k, m);
  const auto payload = random_bytes(8 << 20, 3);
  for (auto _ : state) {
    auto frags = rs.encode(payload, "bench", 0);
    benchmark::DoNotOptimize(frags.data());
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
  state.SetLabel(simd::active_isa_name());
}
BENCHMARK(BM_RsEncode)->Args({4, 2})->Args({12, 4})->Args({8, 8});

void BM_RsEncodeScalar(benchmark::State& state) {
  ScopedScalarIsa scalar;
  const u32 k = static_cast<u32>(state.range(0));
  const u32 m = static_cast<u32>(state.range(1));
  const ec::ReedSolomon rs(k, m);
  const auto payload = random_bytes(8 << 20, 3);
  for (auto _ : state) {
    auto frags = rs.encode(payload, "bench", 0);
    benchmark::DoNotOptimize(frags.data());
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
  state.SetLabel(simd::active_isa_name());
}
BENCHMARK(BM_RsEncodeScalar)->Args({4, 2})->Args({12, 4})->Args({8, 8});

void BM_RsDecodeWithParity(benchmark::State& state) {
  const u32 k = static_cast<u32>(state.range(0));
  const u32 m = static_cast<u32>(state.range(1));
  const ec::ReedSolomon rs(k, m);
  const auto payload = random_bytes(8 << 20, 4);
  auto frags = rs.encode(payload, "bench", 0);
  // Worst case: m data fragments lost, parity in play.
  std::vector<ec::Fragment> survivors(frags.begin() + m, frags.end());
  for (auto _ : state) {
    auto out = rs.decode(survivors);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
  state.SetLabel(simd::active_isa_name());
}
BENCHMARK(BM_RsDecodeWithParity)->Args({4, 2})->Args({12, 4});

void BM_RsDecodeWithParityScalar(benchmark::State& state) {
  ScopedScalarIsa scalar;
  const u32 k = static_cast<u32>(state.range(0));
  const u32 m = static_cast<u32>(state.range(1));
  const ec::ReedSolomon rs(k, m);
  const auto payload = random_bytes(8 << 20, 4);
  auto frags = rs.encode(payload, "bench", 0);
  std::vector<ec::Fragment> survivors(frags.begin() + m, frags.end());
  for (auto _ : state) {
    auto out = rs.decode(survivors);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
  state.SetLabel(simd::active_isa_name());
}
BENCHMARK(BM_RsDecodeWithParityScalar)->Args({12, 4});

// --- multigrid transform ---

void BM_Decompose3D(benchmark::State& state) {
  const u64 extent = static_cast<u64>(state.range(0));
  const mgard::Dims dims{extent, extent, extent};
  const mgard::GridHierarchy h(dims, 3);
  const auto field = data::hurricane_pressure(dims, 5);
  std::vector<f64> work(field.begin(), field.end());
  const auto padded = mgard::pad_field(work, dims, h.padded());
  for (auto _ : state) {
    auto copy = padded;
    mgard::decompose(copy, h, {});
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetBytesProcessed(state.iterations() * dims.total() * sizeof(f32));
}
BENCHMARK(BM_Decompose3D)->Arg(33)->Arg(65);

void BM_Recompose3D(benchmark::State& state) {
  const u64 extent = static_cast<u64>(state.range(0));
  const mgard::Dims dims{extent, extent, extent};
  const mgard::GridHierarchy h(dims, 3);
  const auto field = data::hurricane_pressure(dims, 6);
  std::vector<f64> work(field.begin(), field.end());
  auto padded = mgard::pad_field(work, dims, h.padded());
  mgard::decompose(padded, h, {});
  for (auto _ : state) {
    auto copy = padded;
    mgard::recompose(copy, h, {});
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetBytesProcessed(state.iterations() * dims.total() * sizeof(f32));
}
BENCHMARK(BM_Recompose3D)->Arg(33)->Arg(65);

// --- bitplane codec ---

void BM_BitplaneEncode(benchmark::State& state) {
  Rng rng(7);
  std::vector<f64> coeffs(static_cast<std::size_t>(state.range(0)));
  for (auto& c : coeffs) c = rng.normal(0.0, 1.0);
  for (auto _ : state) {
    auto ps = mgard::encode_planes(coeffs);
    benchmark::DoNotOptimize(&ps);
  }
  state.SetBytesProcessed(state.iterations() * coeffs.size() * sizeof(f64));
}
BENCHMARK(BM_BitplaneEncode)->Arg(1 << 16)->Arg(1 << 20);

void BM_BitplaneDecode(benchmark::State& state) {
  Rng rng(8);
  std::vector<f64> coeffs(1 << 20);
  for (auto& c : coeffs) c = rng.normal(0.0, 1.0);
  const auto ps = mgard::encode_planes(coeffs);
  const u32 planes = static_cast<u32>(state.range(0));
  for (auto _ : state) {
    auto out = mgard::decode_planes(ps, planes);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * coeffs.size() * sizeof(f64));
}
BENCHMARK(BM_BitplaneDecode)->Arg(8)->Arg(24)->Arg(32);

// --- refactorer end-to-end ---

void BM_RefactorEndToEnd(benchmark::State& state) {
  const mgard::Dims dims{65, 65, 33};
  const auto field = data::scale_pressure(dims, 9);
  mgard::RefactorOptions opt;
  opt.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-7};
  const mgard::Refactorer rf(opt, nullptr);
  for (auto _ : state) {
    auto obj = rf.refactor(field, dims, "bench");
    benchmark::DoNotOptimize(&obj);
  }
  state.SetBytesProcessed(state.iterations() * dims.total() * sizeof(f32));
}
BENCHMARK(BM_RefactorEndToEnd);

// --- crc32c ---

void BM_Crc32c(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 10);
  for (auto _ : state)
    benchmark::DoNotOptimize(rapids::crc32c(data.data(), data.size()));
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(simd::active_isa_name());
}
BENCHMARK(BM_Crc32c)->Arg(4 << 10)->Arg(4 << 20);

void BM_Crc32cScalar(benchmark::State& state) {
  ScopedScalarIsa scalar;
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 10);
  for (auto _ : state)
    benchmark::DoNotOptimize(rapids::crc32c(data.data(), data.size()));
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(simd::active_isa_name());
}
BENCHMARK(BM_Crc32cScalar)->Arg(4 << 10)->Arg(4 << 20);

// --- key-value store ---

void BM_KvPut(benchmark::State& state) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "rapids_bench_kv").string();
  std::filesystem::remove_all(dir);
  auto db = kv::Db::open(dir);
  u64 i = 0;
  for (auto _ : state) {
    const std::string key = "key" + std::to_string(i++);
    db->put(key, "system-" + std::to_string(i % 16));
  }
  state.SetItemsProcessed(state.iterations());
  db.reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_KvPut);

void BM_KvGet(benchmark::State& state) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "rapids_bench_kv2").string();
  std::filesystem::remove_all(dir);
  auto db = kv::Db::open(dir);
  for (u64 i = 0; i < 10000; ++i)
    db->put("key" + std::to_string(i), std::to_string(i));
  db->flush();
  u64 i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->get("key" + std::to_string(i++ % 10000)));
  }
  state.SetItemsProcessed(state.iterations());
  db.reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_KvGet);

// --- WAN simulators ---

void BM_EqualShareModel(benchmark::State& state) {
  const auto bw = net::sample_endpoint_bandwidths(16, 1);
  std::vector<net::Transfer> transfers;
  Rng rng(2);
  for (u32 i = 0; i < 64; ++i)
    transfers.push_back({static_cast<u32>(rng.next_below(16)),
                         1 + rng.next_below(1u << 30)});
  for (auto _ : state)
    benchmark::DoNotOptimize(net::equal_share_mean_time(transfers, bw));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EqualShareModel);

void BM_ProgressiveSim(benchmark::State& state) {
  const auto bw = net::sample_endpoint_bandwidths(16, 1);
  std::vector<net::Transfer> transfers;
  Rng rng(2);
  for (u32 i = 0; i < 64; ++i)
    transfers.push_back({static_cast<u32>(rng.next_below(16)),
                         1 + rng.next_below(1u << 30)});
  for (auto _ : state)
    benchmark::DoNotOptimize(net::progressive_latency(transfers, bw));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProgressiveSim);

}  // namespace
