// Microbenchmarks for the filesystem substrates: the KV store's write/read
// path (the nameserver's hot loop), RPC serialization, and extent slicing/
// checksumming — the per-request CPU costs a deployment would pay.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "fs/data.hpp"
#include "fs/kv/kvstore.hpp"
#include "fs/rpc/messages.hpp"

namespace mayflower::fs {
namespace {

void BM_KvPut(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() /
                   strfmt("mayflower-kvbench-%d", static_cast<int>(::getpid()));
  std::filesystem::remove_all(dir);
  KvStore kv;
  KvStore::Options options;
  options.compact_after = 1u << 20;  // isolate the WAL append cost
  kv.open(dir, options);
  Rng rng(1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    kv.put(strfmt("f/file-%llu", static_cast<unsigned long long>(i++ % 4096)),
           "0123456789abcdef0123456789abcdef0123456789abcdef");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  kv.close();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_KvPut);

void BM_KvGet(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() /
                   strfmt("mayflower-kvbench-g-%d", static_cast<int>(::getpid()));
  std::filesystem::remove_all(dir);
  KvStore kv;
  kv.open(dir);
  for (int i = 0; i < 4096; ++i) {
    kv.put(strfmt("f/file-%d", i), "value");
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kv.get(strfmt("f/file-%llu", static_cast<unsigned long long>(i++ % 4096))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  kv.close();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_KvGet);

void BM_FileInfoRoundTrip(benchmark::State& state) {
  Rng rng(2);
  FileInfo info;
  info.uuid = Uuid::generate(rng);
  info.name = "warehouse/2026-07/part-00042.sst";
  info.size = 256'000'000;
  info.chunk_size = 256'000'000;
  info.replicas = {7, 21, 42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode<FileInfo>(encode(info)));
  }
}
BENCHMARK(BM_FileInfoRoundTrip);

void BM_ReadRespRoundTrip(benchmark::State& state) {
  // A 256 MB pattern payload: descriptor-sized on the wire.
  ReadResp resp;
  resp.data.append(Extent::pattern(1, 256'000'000));
  resp.file_size = 256'000'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode<ReadResp>(encode(resp)));
  }
}
BENCHMARK(BM_ReadRespRoundTrip);

void BM_ExtentSlice(benchmark::State& state) {
  ExtentList list;
  for (int i = 0; i < 64; ++i) {
    list.append(Extent::pattern(static_cast<std::uint64_t>(i), 4'000'000));
  }
  Rng rng(3);
  for (auto _ : state) {
    const std::uint64_t off = rng.next_below(list.size() - 1'000'000);
    benchmark::DoNotOptimize(list.slice(off, 1'000'000));
  }
}
BENCHMARK(BM_ExtentSlice);

void BM_ExtentChecksumPerMB(benchmark::State& state) {
  const Extent e = Extent::pattern(9, 1'000'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.checksum());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1'000'000);
}
BENCHMARK(BM_ExtentChecksumPerMB);

}  // namespace
}  // namespace mayflower::fs

BENCHMARK_MAIN();
