// Checkpoint format matrix: v7 images round-trip the accumulated
// lossy-pass count and the qubit map, v5 to v7 images that mix lossless
// and lossy blocks (which earlier versions wrote) still load and resume,
// v5 and v6 images still load, corrupt maps and codec ids are rejected,
// legacy v1-v4 magics fail by name, and an interrupted save never damages
// the previous image.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "circuits/grover.hpp"
#include "circuits/qft.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "compression/compressor.hpp"
#include "core/simulator.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault_injection.hpp"
#include "test_util.hpp"

namespace cqs {
namespace {

using core::CompressedStateSimulator;
using core::SimConfig;

SimConfig matrix_config(int qubits) {
  SimConfig config;
  config.num_qubits = qubits;
  config.num_ranks = 2;
  config.blocks_per_rank = 2;
  return config;
}

/// A run that starts at the first lossy level, so every block it writes
/// goes through qzc.
SimConfig lossy_config(int qubits) {
  SimConfig config;
  config.num_qubits = qubits;
  config.num_ranks = 2;
  config.blocks_per_rank = 4;
  config.initial_level = 1;
  return config;
}

/// The relative bound hand-built images compress their lossy blocks at.
constexpr double kImageBound = 1e-5;

/// Hand-builds a checkpoint of `raw` chopped into 2 ranks x 2 blocks in
/// v5's layout, plus the (unknown, 0) circuit digest for version 7. Each
/// block is resident and compressed by the codec its entry of
/// `block_codec_ids` names (rank-major): zx for id 0, that lossy codec at
/// kImageBound otherwise. An image with a lossy block sits at level 1
/// after one lossy pass and names the first lossy block's codec in its
/// header; one without sits at level 0. The tests inject what
/// save_checkpoint never writes: an arbitrary qubit-map table
/// (`qubit_map_override`; empty = identity), lossless blocks at a lossy
/// level, a codec id the version may not allow, and the magic's version
/// digit. Returns the state the blocks decode to.
std::vector<double> write_checkpoint_image(
    const std::string& path, int version, const std::vector<double>& raw,
    int num_qubits, const std::vector<int>& qubit_map_override = {},
    const std::array<std::uint8_t, 4>& block_codec_ids = {}) {
  const auto lossy_id = std::ranges::find_if(
      block_codec_ids, [](std::uint8_t id) { return id != 0; });
  const bool lossy = lossy_id != block_codec_ids.end();
  const std::uint8_t level = lossy ? 1 : 0;
  Bytes buffer;
  const char magic[8] = {'C', 'Q', 'S', 'C', 'K', 'P', 'T',
                         static_cast<char>('0' + version)};
  buffer.insert(buffer.end(), reinterpret_cast<const std::byte*>(magic),
                reinterpret_cast<const std::byte*>(magic) + 8);
  put_varint(buffer, static_cast<std::uint64_t>(num_qubits));
  put_varint(buffer, 2);  // num_ranks
  put_varint(buffer, 2);  // blocks_per_rank
  put_varint(buffer, level);  // ladder_level
  put_varint(buffer, 0);  // next gate index
  if (version == 7) put_scalar(buffer, std::uint64_t{0});  // circuit digest
  put_scalar(buffer, lossy ? 1.0 - kImageBound : 1.0);  // fidelity bound
  put_varint(buffer, level);  // lossy passes
  const std::string codec_name =
      lossy ? compression::codec_name_of(*lossy_id) : "qzc";
  put_varint(buffer, codec_name.size());
  for (char ch : codec_name) buffer.push_back(static_cast<std::byte>(ch));
  put_varint(buffer, qubit_map_override.size());
  for (int p : qubit_map_override) {
    put_varint(buffer, static_cast<std::uint64_t>(p));
  }

  const std::size_t doubles_per_block = raw.size() / 4;
  std::vector<double> decoded(raw.size());
  put_varint(buffer, 2);  // rank count
  for (int r = 0; r < 2; ++r) {
    put_varint(buffer, 2);  // blocks in rank
    for (int b = 0; b < 2; ++b) {
      const std::uint8_t id = block_codec_ids[r * 2 + b];
      const auto codec =
          compression::make_compressor(compression::codec_name_of(id));
      const auto bound = id == 0
                             ? compression::ErrorBound::lossless()
                             : compression::ErrorBound::relative(kImageBound);
      const std::size_t base = (r * 2 + b) * doubles_per_block;
      const Bytes payload = codec->compress(
          std::span<const double>(raw.data() + base, doubles_per_block),
          bound);
      codec->decompress(payload, std::span<double>(decoded.data() + base,
                                                   doubles_per_block));
      buffer.push_back(static_cast<std::byte>(level));
      buffer.push_back(static_cast<std::byte>(id));
      buffer.push_back(std::byte{0});  // tier: resident
      put_varint(buffer, payload.size());
      buffer.insert(buffer.end(), payload.begin(), payload.end());
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(buffer.data()),
            static_cast<std::streamsize>(buffer.size()));
  return decoded;
}

/// Each block's codec id in the image at `path`, rank-major.
std::vector<std::uint8_t> image_codec_ids(const std::string& path) {
  std::vector<std::uint8_t> ids;
  for (const auto& store : runtime::load_checkpoint_full(path).ranks) {
    for (int b = 0; b < store.num_blocks(); ++b) {
      ids.push_back(store.meta(b).codec);
    }
  }
  return ids;
}

using CheckpointMatrixTest = test::TempDirFixture;

TEST(CodecIdTest, StableRoundTrip) {
  // Ids are an on-disk format (one per block in every image): the mapping
  // must stay put.
  EXPECT_EQ(compression::codec_id("zstd"), compression::kLosslessCodecId);
  for (const auto& name : compression::compressor_names()) {
    EXPECT_EQ(compression::codec_name_of(compression::codec_id(name)), name);
  }
  EXPECT_THROW(compression::codec_id("nope"), std::invalid_argument);
  EXPECT_THROW(compression::codec_name_of(250), std::invalid_argument);
}

TEST_F(CheckpointMatrixTest, MixedCodecImagesOfEarlierVersionsResume) {
  // The simulator stores zx blocks at level 0 and lossy blocks above it,
  // but earlier versions could leave lossless blocks at a lossy level in
  // v5 to v7 images. Such an image must load, decode bit for bit and keep
  // each block's codec id and the saved pass count; a lossy gate after the
  // resume counts one codec switch per lossless block it rewrites.
  std::vector<double> raw(1 << 9);
  Rng rng(5);
  for (double& v : raw) v = rng.next_double() - 0.5;
  const std::uint8_t qzc = compression::codec_id("qzc");
  // Rank-major: blocks (0,0) and (1,1) lossless, (0,1) and (1,0) lossy.
  const std::array<std::uint8_t, 4> ids = {0, qzc, qzc, 0};
  SimConfig config = matrix_config(8);
  config.enable_cache = false;  // every rewritten block is computed
  for (int version : {5, 6, 7}) {
    SCOPED_TRACE("v" + std::to_string(version));
    const std::string path =
        this->path("mixed_v" + std::to_string(version) + ".bin");
    const std::vector<double> decoded =
        write_checkpoint_image(path, version, raw, 8, {}, ids);
    auto resumed = CompressedStateSimulator::load_checkpoint(path, config);
    CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), decoded, 0.0);
    EXPECT_EQ(resumed.ladder_level(), 1);
    auto report = resumed.report();
    EXPECT_EQ(report.lossy_passes, 1u);
    EXPECT_DOUBLE_EQ(report.fidelity_bound, 1.0 - kImageBound);
    EXPECT_EQ(report.final_lossless_blocks, 2u);
    EXPECT_EQ(report.final_lossy_blocks, 2u);
    const std::string resaved =
        this->path("resaved_v" + std::to_string(version) + ".bin");
    resumed.save_checkpoint(resaved);
    EXPECT_EQ(image_codec_ids(resaved),
              std::vector<std::uint8_t>(ids.begin(), ids.end()));
    EXPECT_EQ(runtime::load_checkpoint_full(resaved).header.lossy_passes, 1u);

    // CX(6 -> 0) rewrites the blocks whose block bit (qubit 6) is set:
    // (0,1), lossy, and (1,1), lossless. H(0) then rewrites all four, of
    // which only (0,0) is still lossless.
    resumed.apply({qsim::GateKind::kCX, 0, {6, -1}});
    report = resumed.report();
    EXPECT_EQ(report.codec_switches, 1u);
    EXPECT_EQ(report.final_lossless_blocks, 1u);
    EXPECT_EQ(report.lossy_passes, 2u);
    resumed.apply({qsim::GateKind::kH, 0});
    report = resumed.report();
    EXPECT_EQ(report.codec_switches, 2u);
    EXPECT_EQ(report.final_lossless_blocks, 0u);
    EXPECT_EQ(report.lossy_passes, 3u);
  }
}

TEST_F(CheckpointMatrixTest, SplitLossyRunMatchesUninterruptedRun) {
  // Save mid-circuit at a lossy level, resume, and compare with the
  // uninterrupted run: cursor, state and fidelity ledger must all agree
  // bit-exactly.
  const auto circuit = circuits::grover_circuit(
      {.data_qubits = 6, .marked_state = 0b110011, .iterations = 2});
  SimConfig config = lossy_config(circuit.num_qubits());
  // Per-gate mode: batched runs may not span the save point, so the
  // batched split run would legitimately recompress at different points
  // than the uninterrupted one; gate-by-gate the two are bit-comparable.
  config.enable_run_batching = false;

  CompressedStateSimulator full{config};
  full.apply_circuit(circuit);

  CompressedStateSimulator first{config};
  qsim::Circuit head(circuit.num_qubits());
  const std::uint64_t half = circuit.size() / 2;
  for (std::uint64_t i = 0; i < half; ++i) {
    head.append(circuit.ops()[i]);
  }
  first.apply_circuit(head);
  const std::string path = this->path("split_lossy.bin");
  first.save_checkpoint(path);

  auto resumed = CompressedStateSimulator::load_checkpoint(path, config);
  EXPECT_EQ(resumed.gate_cursor(), half);
  resumed.resume_circuit(circuit);
  CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), full.to_raw(), 0.0);
  EXPECT_EQ(resumed.report().lossy_passes, full.report().lossy_passes);
  EXPECT_EQ(resumed.fidelity_bound(), full.fidelity_bound());
}

TEST_F(CheckpointMatrixTest, V4RoundTripsMixedQubitMap) {
  // A QFT run ends with a non-identity layout (relabeled reversal
  // swaps). v4 must persist the map byte-exactly, and the reloaded
  // simulator must answer every logical-index query as if the run had
  // never been interrupted.
  const auto circuit = circuits::qft_circuit({.num_qubits = 8});
  const SimConfig config = matrix_config(8);
  CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  ASSERT_FALSE(sim.qubit_map().is_identity())
      << "fixture circuit no longer leaves a remapped layout";

  const std::string path = this->path("mixed_map_v4.bin");
  sim.save_checkpoint(path);

  // Raw reload: the serialized map round-trips.
  EXPECT_EQ(runtime::load_checkpoint_full(path).header.qubit_map,
            sim.qubit_map());

  // Simulator reload: same layout, same logical state.
  auto resumed = CompressedStateSimulator::load_checkpoint(path, config);
  EXPECT_EQ(resumed.qubit_map(), sim.qubit_map());
  CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), sim.to_raw(), 0.0);
}

TEST_F(CheckpointMatrixTest, V4MapHonoredEvenWithRemapDisabledOnResume) {
  // The head ends with two SWAPs, so applied alone it relabels them and
  // saves a permuted layout. The full circuit touches their qubits again,
  // so resuming it must translate every later gate through the persisted
  // map: the blocks are physically permuted.
  const auto qft = circuits::qft_circuit({.num_qubits = 8});
  qsim::Circuit head(8);
  const std::size_t half = qft.size() / 2;
  for (std::size_t i = 0; i < half; ++i) head.append(qft.ops()[i]);
  head.swap(0, 7).swap(1, 6);
  qsim::Circuit circuit = head;
  for (std::size_t i = half; i < qft.size(); ++i) {
    circuit.append(qft.ops()[i]);
  }

  CompressedStateSimulator first(matrix_config(8));
  first.apply_circuit(head);
  ASSERT_FALSE(first.qubit_map().is_identity());
  const std::string path = this->path("map_resume.bin");
  first.save_checkpoint(path);

  auto resumed =
      CompressedStateSimulator::load_checkpoint(path, matrix_config(8));
  EXPECT_EQ(resumed.qubit_map(), first.qubit_map());
  resumed.resume_circuit(circuit);

  CompressedStateSimulator reference(matrix_config(8));
  reference.apply_circuit(test::with_swaps_expanded(circuit));
  CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), reference.to_raw(), 0.0);
}

TEST_F(CheckpointMatrixTest, SplitRemappedRunMatchesUninterruptedRun) {
  // Save mid-circuit, resume, and compare with the uninterrupted run,
  // which relabels QFT's four reversal swaps: the final logical state
  // must agree bit-exactly. The last cut falls between the swaps, so the
  // head relabels the two it ends with, and the resumed run the other
  // two.
  const auto circuit = circuits::qft_circuit({.num_qubits = 8});
  SimConfig config = matrix_config(8);
  // Per-gate mode, as in SplitLossyRunMatchesUninterruptedRun: batched
  // runs may not span the save point.
  config.enable_run_batching = false;
  config.enable_fusion_prepass = false;

  CompressedStateSimulator full{config};
  full.apply_circuit(circuit);

  for (const std::uint64_t cut : {circuit.size() / 3, circuit.size() / 2,
                                  circuit.size() - 2}) {
    CompressedStateSimulator first{config};
    qsim::Circuit head(8);
    for (std::uint64_t i = 0; i < cut; ++i) {
      head.append(circuit.ops()[i]);
    }
    first.apply_circuit(head);
    const std::string path =
        this->path("split_remap_" + std::to_string(cut) + ".bin");
    first.save_checkpoint(path);

    auto resumed = CompressedStateSimulator::load_checkpoint(path, config);
    EXPECT_EQ(resumed.gate_cursor(), cut);
    resumed.resume_circuit(circuit);
    EXPECT_EQ(resumed.gate_cursor(), circuit.size());
    EXPECT_EQ(resumed.qubit_map(), full.qubit_map()) << "cut at " << cut;
    CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), full.to_raw(), 0.0)
        << "cut at " << cut;
  }
}

TEST_F(CheckpointMatrixTest, LosslessImageAtALossyLevelFailsAtLoad) {
  // A header naming the lossless codec at ladder level 1 describes a
  // state no lossless simulator can continue: its next gate would
  // compress at level 1 with no lossy codec. The load must refuse it, as
  // the constructor refuses initial_level 1 with codec "zstd".
  SimConfig config = matrix_config(8);
  config.codec = "zstd";
  CompressedStateSimulator sim(config);
  qsim::Circuit c(8);
  c.h(0).cx(0, 5);
  sim.apply_circuit(c);
  const std::string path = this->path("lossless.bin");
  sim.save_checkpoint(path);
  EXPECT_NO_THROW(CompressedStateSimulator::load_checkpoint(path, config));

  runtime::LoadedCheckpoint loaded = runtime::load_checkpoint_full(path);
  loaded.header.ladder_level = 1;
  const std::string rewritten = this->path("lossless_level1.bin");
  runtime::save_checkpoint(rewritten, loaded.header, loaded.ranks);
  EXPECT_THROW(CompressedStateSimulator::load_checkpoint(rewritten, config),
               std::invalid_argument);
}

TEST_F(CheckpointMatrixTest, V4RejectsCorruptQubitMaps) {
  const std::vector<double> raw(1 << 9, 0.0);  // 8 qubits of zeros

  // Non-permutation tables must fail at load, before any decompression.
  const std::string dup = this->path("map_dup.bin");
  write_checkpoint_image(dup, 5, raw, 8, {0, 1, 2, 3, 4, 5, 6, 6});
  EXPECT_THROW(runtime::load_checkpoint_full(dup), std::runtime_error);

  const std::string oob = this->path("map_oob.bin");
  write_checkpoint_image(oob, 5, raw, 8, {0, 1, 2, 3, 4, 5, 6, 63});
  EXPECT_THROW(runtime::load_checkpoint_full(oob), std::runtime_error);

  // A valid permutation of the wrong width fails at simulator load: the
  // map must cover exactly the checkpoint's qubits.
  const std::string narrow = this->path("map_narrow.bin");
  write_checkpoint_image(narrow, 5, raw, 8, {3, 2, 1, 0});
  EXPECT_NO_THROW(runtime::load_checkpoint_full(narrow));
  EXPECT_THROW(
      CompressedStateSimulator::load_checkpoint(narrow, matrix_config(8)),
      std::invalid_argument);

  // A correct-width permutation loads fine (control case).
  const std::string good = this->path("map_good.bin");
  write_checkpoint_image(good, 5, raw, 8, {7, 6, 5, 4, 3, 2, 1, 0});
  auto sim = CompressedStateSimulator::load_checkpoint(good,
                                                       matrix_config(8));
  EXPECT_EQ(sim.qubit_map().physical(0), 7);
}

TEST_F(CheckpointMatrixTest, V3RejectsForeignCodecIdAtLoad) {
  // A v3 block claiming a codec the resume config doesn't hold must fail
  // loudly at load (decompression runs on worker threads, which cannot
  // surface the error), not silently misdecode.
  const auto circuit = circuits::grover_circuit(
      {.data_qubits = 6, .marked_state = 0b001101, .iterations = 2});
  CompressedStateSimulator sim(lossy_config(circuit.num_qubits()));
  sim.apply_circuit(circuit);
  ASSERT_GT(sim.report().final_lossy_blocks, 0u);
  const std::string path = this->path("foreign.bin");
  sim.save_checkpoint(path);

  // Pretend the file came from an sz run: the qzc-compressed payloads
  // keep their codec id 'qzc', which an sz simulator cannot decode.
  runtime::LoadedCheckpoint loaded = runtime::load_checkpoint_full(path);
  loaded.header.codec_name = "sz";
  const std::string rewritten = this->path("foreign_sz.bin");
  runtime::save_checkpoint(rewritten, loaded.header, loaded.ranks);

  EXPECT_THROW(CompressedStateSimulator::load_checkpoint(
                   rewritten, lossy_config(circuit.num_qubits())),
               std::invalid_argument);
}

TEST_F(CheckpointMatrixTest, KilledMidSaveLeavesOldCheckpointIntact) {
  // The save writes <path>.tmp, fsyncs, then renames. Dying mid-image
  // (the checkpoint.write site tears the first chunk halfway) must throw,
  // leave no temporary behind, and — crucially — leave the previous
  // checkpoint loadable.
  const auto circuit = circuits::qft_circuit({.num_qubits = 8});
  CompressedStateSimulator sim(matrix_config(8));
  sim.apply_circuit(circuit);
  const auto expected = sim.to_raw();

  const std::string path = this->path("durable.bin");
  sim.save_checkpoint(path);
  const auto good_size = std::filesystem::file_size(path);

  // Evolve the state so the interrupted second save would have written a
  // genuinely different image.
  qsim::Circuit more(8);
  more.h(3).cx(3, 5).t(0);
  sim.apply_circuit(more);

  {
    runtime::ScopedFaultPlan plan("checkpoint.write@1:fail=" +
                                  std::to_string(good_size / 2));
    EXPECT_THROW(sim.save_checkpoint(path), std::runtime_error);
    const auto fired = runtime::FaultInjector::instance().fired();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].site, runtime::fault_sites::kCheckpointWrite);
  }

  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "failed save must clean up its temporary";
  EXPECT_EQ(std::filesystem::file_size(path), good_size);
  auto restored =
      CompressedStateSimulator::load_checkpoint(path, matrix_config(8));
  CQS_EXPECT_STATES_CLOSE(restored.to_raw(), expected, 0.0);

  // With the plan disarmed the interrupted save succeeds as-is.
  sim.save_checkpoint(path);
  auto latest =
      CompressedStateSimulator::load_checkpoint(path, matrix_config(8));
  CQS_EXPECT_STATES_CLOSE(latest.to_raw(), sim.to_raw(), 0.0);
}

/// First 8 bytes of the file — the format magic.
std::string read_magic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[8] = {};
  in.read(magic, 8);
  return std::string(magic, 8);
}

TEST_F(CheckpointMatrixTest, PreV6ImagesRejectPostV5CodecIds) {
  // A v5 image predates every codec id past fpzip (6): a block claiming
  // "zfp-rans" (7) is corruption and must be rejected cleanly, not routed
  // into a codec the image's vintage could never have produced.
  const std::vector<double> raw(1 << 9, 0.0);  // 8 qubits of zeros
  const std::uint8_t rans_id = compression::codec_id("zfp-rans");
  const std::string path = this->path("rans_id_v5.bin");
  write_checkpoint_image(path, 5, raw, 8, {},
                         {rans_id, rans_id, rans_id, rans_id});
  try {
    runtime::load_checkpoint_full(path);
    FAIL() << "v5 image with codec id " << int(rans_id) << " was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("codec id"), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST_F(CheckpointMatrixTest, LegacyV1ToV4MagicsFailNamingTheVersion) {
  // Nothing writes v1-v4 any more and the reader no longer decodes them:
  // the magic alone must fail, naming the version, before any other field
  // is parsed — a bare 8-byte magic fails exactly like a full image.
  const std::vector<double> raw(1 << 9, 0.0);  // 8 qubits of zeros
  for (int version : {1, 2, 3, 4}) {
    const std::string expected = "unsupported checkpoint format v" +
                                 std::to_string(version) + "; v5 to v7 only";
    const std::string full =
        this->path("legacy_v" + std::to_string(version) + ".bin");
    write_checkpoint_image(full, version, raw, 8);
    const std::string bare =
        this->path("bare_v" + std::to_string(version) + ".bin");
    {
      std::ofstream out(bare, std::ios::binary | std::ios::trunc);
      out << "CQSCKPT" << version;
    }
    for (const std::string& path : {full, bare}) {
      try {
        runtime::load_checkpoint_full(path);
        FAIL() << path << " was accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
            << path << " actual message: " << e.what();
      }
    }
  }
}

TEST_F(CheckpointMatrixTest, ZfpRansStatesSaveAsV6AndRoundTrip) {
  const auto circuit =
      circuits::qft_circuit({.num_qubits = 8, .random_input = true});

  // Every save writes v7, whichever codec ids its blocks carry. (Before
  // v7, a zfp state kept the v5 magic and a zfp-rans state flipped the
  // image to v6.)
  SimConfig zfp_config = matrix_config(8);
  zfp_config.codec = "zfp";
  zfp_config.initial_level = 1;
  CompressedStateSimulator zfp_sim(zfp_config);
  zfp_sim.apply_circuit(circuit);
  const std::string zfp_path = this->path("zfp_v5.bin");
  zfp_sim.save_checkpoint(zfp_path);
  EXPECT_EQ(read_magic(zfp_path), "CQSCKPT7");

  // The same run under zfp-rans stores codec id 7 somewhere, and the
  // loader must resume it exactly.
  SimConfig rans_config = matrix_config(8);
  rans_config.codec = "zfp-rans";
  rans_config.initial_level = 1;
  CompressedStateSimulator sim(rans_config);
  sim.apply_circuit(circuit);
  const auto report = sim.report();
  ASSERT_GT(report.final_lossy_blocks, 0u)
      << "fixture run produced no zfp-rans block; v6 never exercised";
  const std::string path = this->path("rans_v7.bin");
  sim.save_checkpoint(path);
  EXPECT_EQ(read_magic(path), "CQSCKPT7");

  auto resumed =
      CompressedStateSimulator::load_checkpoint(path, rans_config);
  CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), sim.to_raw(), 0.0);
  EXPECT_EQ(resumed.report().lossy_passes, report.lossy_passes);
}

TEST_F(CheckpointMatrixTest, HandBuiltV6ImageWithZfpRansResumesExactly) {
  // Nothing writes v6 any more, but images saved before v7 must still
  // load: a v6 image may carry ids past the v5 registry, such as
  // zfp-rans (7), and resumes exactly what its payloads decode to.
  std::vector<double> raw(1 << 9);
  Rng rng(11);
  for (double& v : raw) v = rng.next_double() - 0.5;
  const std::uint8_t rans_id = compression::codec_id("zfp-rans");
  ASSERT_GT(rans_id, 6);
  const std::string path = this->path("rans_v6.bin");
  const std::vector<double> decoded =
      write_checkpoint_image(path, 6, raw, 8, {},
                             {rans_id, rans_id, rans_id, rans_id});
  EXPECT_EQ(read_magic(path), "CQSCKPT6");

  auto resumed =
      CompressedStateSimulator::load_checkpoint(path, matrix_config(8));
  EXPECT_EQ(resumed.config().codec, "zfp-rans");
  EXPECT_EQ(resumed.ladder_level(), 1);
  EXPECT_EQ(resumed.report().final_lossy_blocks, 4u);
  CQS_EXPECT_STATES_CLOSE(resumed.to_raw(), decoded, 0.0);
}

}  // namespace
}  // namespace cqs
