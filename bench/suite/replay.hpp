// Layer replays: each per-layer rate is measured by calling one layer's
// public function, single-threaded, on a workload's final-state blocks
// (from to_raw(), cut at the simulator's block size). A rate is the median
// of kPasses passes; a pass repeats sweeps over all blocks until it has
// run for kMinPassSeconds. Every pass is one traced span.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/bytes.hpp"
#include "common/timer.hpp"
#include "compression/codec_scratch.hpp"
#include "compression/compressor.hpp"
#include "lossless/huffman.hpp"
#include "lossless/lz77.hpp"
#include "lossless/zx.hpp"
#include "metrics.hpp"
#include "qsim/circuit.hpp"
#include "qsim/gates.hpp"
#include "qsim/scheduler.hpp"
#include "runtime/block_cache.hpp"
#include "runtime/spill_file.hpp"
#include "trace.hpp"

namespace cqs::bench::suite {

inline constexpr int kPasses = 5;
inline constexpr double kMinPassSeconds = 0.2;
inline constexpr double kMiB = 1024.0 * 1024.0;

/// Median over kPasses of (units of work per second); `sweep` does one
/// sweep over all blocks and returns the units it processed.
template <typename Sweep>
double median_rate(Tracer& tracer, const std::string& layer, Sweep&& sweep) {
  std::vector<double> rates;
  for (int pass = 0; pass < kPasses; ++pass) {
    Span span(tracer, "replay." + layer);
    WallTimer timer;
    double units = 0.0;
    do {
      units += sweep();
    } while (timer.seconds() < kMinPassSeconds);
    rates.push_back(units / span.stop());
  }
  return summarize(rates).median;
}

struct ReplayInput {
  std::vector<std::vector<double>> blocks;  ///< final state, one per block
  std::string codec;                        ///< the workload's lossy codec
  double lossy_bound = 0.0;                 ///< relative bound to replay at
  qsim::Circuit circuit{1};
  qsim::SchedulerOptions schedule;  ///< the options the simulator plans with
  int offset_bits = 0;              ///< block-local qubits
  std::string spill_path;           ///< scratch file for the spill replay
};

/// Fills every replayed per-layer metric of `out`.
inline void replay_layers(const ReplayInput& in, Tracer& tracer,
                          std::map<std::string, double>& out) {
  using compression::CodecScratch;
  using compression::ErrorBound;
  const std::size_t nblocks = in.blocks.size();
  auto raw_bytes = [](const std::vector<double>& b) {
    return as_bytes_span(std::span<const double>(b));
  };
  const double sweep_mb =
      static_cast<double>(nblocks * in.blocks[0].size() * sizeof(double)) /
      kMiB;

  // codec.transform: the configured lossy codec through the registry.
  {
    const auto codec = compression::make_compressor(in.codec);
    const ErrorBound bound = ErrorBound::relative(in.lossy_bound);
    CodecScratch scratch;
    std::vector<Bytes> payloads(nblocks);
    out["codec.lossy_compress_mb_s"] =
        median_rate(tracer, "codec.lossy_compress", [&] {
          for (std::size_t i = 0; i < nblocks; ++i) {
            payloads[i] = codec->compress(in.blocks[i], bound, scratch);
          }
          return sweep_mb;
        });
    std::vector<double> decoded(in.blocks[0].size());
    out["codec.lossy_decompress_mb_s"] =
        median_rate(tracer, "codec.lossy_decompress", [&] {
          for (const Bytes& p : payloads) {
            codec->decompress(p, decoded, scratch);
          }
          return sweep_mb;
        });
  }

  // codec.lz77 / codec.entropy: zx end to end, then its two stages alone.
  lossless::ZxScratch zx;
  std::vector<Bytes> payloads(nblocks);
  double payload_mb = 0.0;
  out["codec.zx_compress_mb_s"] =
      median_rate(tracer, "codec.zx_compress", [&] {
        payload_mb = 0.0;
        for (std::size_t i = 0; i < nblocks; ++i) {
          payloads[i].clear();
          lossless::zx_compress_into(raw_bytes(in.blocks[i]), {}, zx,
                                     payloads[i]);
          payload_mb += static_cast<double>(payloads[i].size()) / kMiB;
        }
        return sweep_mb;
      });
  Bytes decoded_bytes;
  out["codec.zx_decompress_mb_s"] =
      median_rate(tracer, "codec.zx_decompress", [&] {
        for (const Bytes& p : payloads) {
          lossless::zx_decompress_into(p, zx, decoded_bytes);
        }
        return sweep_mb;
      });
  std::vector<Bytes> tokens(nblocks);
  double token_mb = 0.0;
  out["codec.lz77_mb_s"] = median_rate(tracer, "codec.lz77", [&] {
    token_mb = 0.0;
    for (std::size_t i = 0; i < nblocks; ++i) {
      tokens[i].clear();
      lossless::lz77_tokenize(raw_bytes(in.blocks[i]), tokens[i], {}, zx.lz);
      token_mb += static_cast<double>(tokens[i].size()) / kMiB;
    }
    return sweep_mb;
  });
  Bytes coded;
  out["codec.entropy_mb_s"] = median_rate(tracer, "codec.entropy", [&] {
    for (const Bytes& t : tokens) {
      std::array<std::uint64_t, 256> counts{};
      for (std::byte b : t) ++counts[static_cast<std::uint8_t>(b)];
      zx.encoder.build(counts);
      coded.clear();
      zx.encoder.write_table(coded);
      BitWriter writer(coded);
      for (std::byte b : t) {
        zx.encoder.encode(writer, static_cast<std::uint8_t>(b));
      }
      writer.flush();
    }
    return token_mb;
  });

  // kernel: H on every block-local target, through the dispatched kernel.
  {
    const auto backend = qsim::detect_kernel_backend(true);
    const qsim::Mat2 h = qsim::gate_matrix({qsim::GateKind::kH, 0});
    const std::uint64_t count = in.blocks[0].size() / 2;
    std::vector<std::vector<qsim::Amplitude>> amps(nblocks);
    for (std::size_t i = 0; i < nblocks; ++i) {
      const auto* src =
          reinterpret_cast<const qsim::Amplitude*>(in.blocks[i].data());
      amps[i].assign(src, src + count);
    }
    out["kernel.gamp_s"] = median_rate(tracer, "kernel.mix", [&] {
      for (auto& block : amps) {
        for (int q = 0; q < in.offset_bits; ++q) {
          qsim::mix_kernel(block.data(), count, h, std::uint64_t{1} << q, 0,
                           backend);
        }
      }
      return static_cast<double>(nblocks * count) * in.offset_bits * 1e-9;
    });
  }

  // schedule.plan: the scheduler pass the simulator runs per chunk.
  // (build_schedule and make_run_key live in the library, so the discarded
  // results cannot be optimized away.)
  const double plans_per_s = median_rate(tracer, "schedule.plan", [&] {
    qsim::build_schedule(in.circuit, in.schedule);
    return 1.0;
  });
  out["schedule.plan_ms"] = 1e3 / plans_per_s;

  // cache.probe: the run key hashes descriptors plus the stored payload.
  {
    const std::vector<Bytes> descriptors(8, Bytes(48, std::byte{0x5a}));
    out["cache.key_mb_s"] = median_rate(tracer, "cache.key", [&] {
      for (const Bytes& p : payloads) {
        runtime::BlockCache::make_run_key(descriptors, p);
      }
      return payload_mb;
    });
  }

  // spill: write every zx payload to a fresh segment, then free them.
  {
    runtime::SpillFile file(in.spill_path);
    std::vector<runtime::SpillSegment> segments(nblocks);
    out["spill.write_mb_s"] = median_rate(tracer, "spill.write", [&] {
      for (std::size_t i = 0; i < nblocks; ++i) {
        segments[i] = file.write(payloads[i]);
      }
      for (const auto& s : segments) file.free_segment(s);
      return payload_mb;
    });
  }
}

}  // namespace cqs::bench::suite
