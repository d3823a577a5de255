#include "core/simulator.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <complex>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>

#include "core/memory_model.hpp"
#include "lossless/lz77.hpp"
#include "runtime/checkpoint.hpp"

namespace cqs::core {

using compression::ErrorBound;
using qsim::Amplitude;
using qsim::GateKind;
using qsim::GateOp;
using qsim::Mat2;
using runtime::Partition;

namespace {


inline std::complex<double>* as_complex(std::span<double> raw) {
  return reinterpret_cast<std::complex<double>*>(raw.data());
}

bool is_lossless(const runtime::BlockMeta& meta) {
  return meta.codec == compression::kLosslessCodecId;
}

/// SWAP(a, b) = CX(a,b) CX(b,a) CX(a,b); SWAP keeps b in controls[0].
std::array<GateOp, 3> swap_legs(const GateOp& op) {
  const int a = op.target;
  const int b = op.controls[0];
  return {GateOp{GateKind::kCX, b, {a, -1}}, GateOp{GateKind::kCX, a, {b, -1}},
          GateOp{GateKind::kCX, b, {a, -1}}};
}

/// Sum of |a_k|^2 over one decoded block.
double block_mass(const Amplitude* amps, std::uint64_t count) {
  double sum = 0.0;
  for (std::uint64_t k = 0; k < count; ++k) sum += std::norm(amps[k]);
  return sum;
}

/// Where a Z row holds W(mask) for an offset mask with one or two bits
/// set: the single bits first, then the pairs (i, j), i < j, by i then j.
std::size_t z_row_index(std::uint64_t mask, int bits) {
  const auto i = static_cast<std::size_t>(std::countr_zero(mask));
  mask &= mask - 1;
  if (mask == 0) return i;
  const auto j = static_cast<std::size_t>(std::countr_zero(mask));
  const auto n = static_cast<std::size_t>(bits);
  return n + i * n - i * (i + 1) / 2 + (j - i - 1);
}

/// Fills `row` with W(m) = sum_k (-1)^popcount(k & m) |a_k|^2 for every
/// offset mask m with one or two of the block's `bits` offset bits set, in
/// z_row_index order, and returns the block's mass. Each entry adds its
/// terms over ascending k from 0.0, as expectation_pauli_z's own loop does.
///
/// Within a chunk of 2^low consecutive k, a term's sign is the parity of
/// the mask's bits below `low` in k, times that of its other bits in the
/// chunk's base, which is constant over the chunk. So each entry adds the
/// chunk's stream for its low bits (|a_k|^2 signed by the first parity) to
/// its running sum, negated for the chunks where the second is odd.
/// Negation is exact and rounding symmetric, so each entry keeps the
/// loop's bits, up to the sign of an exact zero, which the query's
/// in-order total, starting at +0.0, cannot see.
double fill_z_row(const Amplitude* amps, std::uint64_t count, int bits,
                  std::vector<double>& row) {
  constexpr std::size_t kLanes = 8;  // entries summed side by side
  const int low = std::min(bits, 6);
  const std::uint64_t chunk = std::uint64_t{1} << low;
  // Stream 0 is the plain |a_k|^2; stream 1 + z_row_index(p, low) is the
  // one signed by the low mask p, through sign[] (a sign bit per term).
  const auto stream_of = [&](std::uint64_t mask) -> std::size_t {
    const std::uint64_t p = mask & (chunk - 1);
    return p == 0 ? 0 : 1 + z_row_index(p, low);
  };
  const auto streams = static_cast<std::size_t>(1 + low * (low + 1) / 2);
  std::vector<std::uint64_t> sign(streams * chunk, 0);
  std::vector<std::uint64_t> masks;  // z_row_index order
  for (int i = 0; i < bits; ++i) masks.push_back(std::uint64_t{1} << i);
  for (int i = 0; i < bits; ++i) {
    for (int j = i + 1; j < bits; ++j) {
      masks.push_back((std::uint64_t{1} << i) | (std::uint64_t{1} << j));
    }
  }
  for (const std::uint64_t m : masks) {
    if (m >= chunk) continue;  // a bit at `low` or above: not a stream
    for (std::uint64_t t = 0; t < chunk; ++t) {
      sign[stream_of(m) * chunk + t] =
          static_cast<std::uint64_t>(std::popcount(t & m) & 1) << 63;
    }
  }
  const std::size_t entries = masks.size();
  // Spare lanes (mask 0) pad the last group; their sums are dropped.
  masks.resize((entries + kLanes - 1) / kLanes * kLanes, 0);
  std::vector<std::size_t> source;  // each entry's stream
  for (const std::uint64_t m : masks) source.push_back(stream_of(m));

  std::vector<double> stream(streams * chunk);
  std::vector<double> sums(masks.size(), 0.0);
  double mass = 0.0;
  for (std::uint64_t base = 0; base < count; base += chunk) {
    for (std::uint64_t t = 0; t < chunk; ++t) {
      stream[t] = std::norm(amps[base + t]);
    }
    for (std::uint64_t t = 0; t < chunk; ++t) mass += stream[t];
    for (std::size_t s = 1; s < streams; ++s) {
      for (std::uint64_t t = 0; t < chunk; ++t) {
        stream[s * chunk + t] = std::bit_cast<double>(
            std::bit_cast<std::uint64_t>(stream[t]) ^ sign[s * chunk + t]);
      }
    }
    for (std::size_t e = 0; e < masks.size(); e += kLanes) {
      std::array<std::uint64_t, kLanes> flip;
      std::array<const double*, kLanes> from;
      std::array<double, kLanes> sum;
      for (std::size_t l = 0; l < kLanes; ++l) {
        flip[l] = static_cast<std::uint64_t>(
                      std::popcount(base & masks[e + l]) & 1)
                  << 63;
        from[l] = stream.data() + source[e + l] * chunk;
        sum[l] = std::bit_cast<double>(
            std::bit_cast<std::uint64_t>(sums[e + l]) ^ flip[l]);
      }
      for (std::uint64_t t = 0; t < chunk; ++t) {
        for (std::size_t l = 0; l < kLanes; ++l) sum[l] += from[l][t];
      }
      for (std::size_t l = 0; l < kLanes; ++l) {
        sums[e + l] = std::bit_cast<double>(
            std::bit_cast<std::uint64_t>(sum[l]) ^ flip[l]);
      }
    }
  }
  sums.resize(entries);
  row.assign(sums.begin(), sums.end());
  return mass;
}

/// Adds per-block sums in block order, so a query's total does not depend
/// on which worker produced which sum.
double add_in_order(const std::vector<double>& sums) {
  double total = 0.0;
  for (double s : sums) total += s;
  return total;
}

/// Extends an FNV-1a circuit digest over `ops`, field by field: a GateOp's
/// bytes include padding, so hashing the struct would hash garbage.
std::uint64_t fold_ops(std::uint64_t digest, std::span<const GateOp> ops) {
  for (const GateOp& op : ops) {
    digest = fnv1a_u64(static_cast<std::uint64_t>(op.kind), digest);
    digest = fnv1a_u64(static_cast<std::uint64_t>(op.target), digest);
    for (int control : op.controls) {
      digest = fnv1a_u64(static_cast<std::uint64_t>(control), digest);
    }
    for (double param : op.params) {
      digest = fnv1a_u64(std::bit_cast<std::uint64_t>(param), digest);
    }
  }
  return digest;
}

/// The digest of `circuit`'s qubit count and its first `count` ops.
std::uint64_t prefix_digest(const qsim::Circuit& circuit, std::size_t count) {
  const std::uint64_t qubits = fnv1a_u64(
      static_cast<std::uint64_t>(circuit.num_qubits()), fnv1a(ByteSpan()));
  return fold_ops(qubits, std::span(circuit.ops()).first(count));
}

}  // namespace

/// One op resolved against the partition (Figure 3's three segments): its
/// unitary, where its target falls, and its control masks per segment. A
/// pairing kernel (an op with a block- or rank-segment target that is not
/// diagonal) mixes each amplitude with its partner in the block across the
/// target bit. Every other kernel is a unit kernel and runs on one block at
/// a time: the matrix on an offset target bit, or, for a diagonal with a
/// block- or rank-segment target, the factor that bit picks for the whole
/// block. A folded CX(u,v) . D . CX(u,v) is D's kernel with u's bit as a
/// parity partner: the parity of u's and v's bits picks D's factor.
struct CompressedStateSimulator::GateKernel {
  Mat2 m{};
  bool diagonal = false;
  bool pairs = false;  ///< qsim::pair_qubit(op) >= 0
  Partition::Segment target_segment = Partition::Segment::kOffset;
  int target_local_bit = 0;
  /// Block and rank bits whose parity is a diagonal's factor bit: odd picks
  /// u11. Set for a block- or rank-target diagonal (its target bit) and a
  /// folded triple (v's bit, plus u's when u is outside the offset
  /// segment). On an offset target, an odd parity swaps u00 and u11.
  int block_parity_mask = 0;
  int rank_parity_mask = 0;
  std::uint64_t offset_ctrl_mask = 0;
  int block_ctrl_mask = 0;
  int rank_ctrl_mask = 0;

  bool controls_hold(int rank, int block) const {
    return (rank & rank_ctrl_mask) == rank_ctrl_mask &&
           (block & block_ctrl_mask) == block_ctrl_mask;
  }
  int factor_bit(int rank, int block) const {
    return (std::popcount(static_cast<unsigned>(rank & rank_parity_mask)) +
            std::popcount(static_cast<unsigned>(block & block_parity_mask))) &
           1;
  }
  /// The factor of a unit kernel whose target is outside the offset
  /// segment, one constant for the whole block.
  Amplitude block_factor(int rank, int block) const {
    return factor_bit(rank, block) != 0 ? m.u11 : m.u00;
  }
  /// Whether the kernel runs on a block its sweep decodes: its controls
  /// hold there and a block-constant factor is not exactly 1 — exactly the
  /// blocks a one-op sweep of it would touch. An offset kernel runs even
  /// as an identity diagonal: a complex multiply by 1 can turn -0 into +0,
  /// so a run keeps those bytes as it always has.
  bool runs_on(int rank, int block) const {
    if (!controls_hold(rank, block)) return false;
    return target_segment == Partition::Segment::kOffset ||
           block_factor(rank, block) != Amplitude(1.0, 0.0);
  }
  /// Whether the kernel can change the block: it runs there and is not an
  /// offset identity diagonal.
  bool acts_on(int rank, int block) const {
    if (!runs_on(rank, block)) return false;
    const Amplitude one(1.0, 0.0);
    return !diagonal || target_segment != Partition::Segment::kOffset ||
           m.u00 != one || m.u11 != one;
  }
  /// What the kernel does to the block, for sweep sharing: 0 when its
  /// controls fail, else 1 plus the factor bit (0 for a plain offset
  /// kernel, whose factor varies within the block).
  std::uint64_t selection(int rank, int block) const {
    if (!controls_hold(rank, block)) return 0;
    return 1 + static_cast<std::uint64_t>(factor_bit(rank, block));
  }
  /// Makes `qubit`'s bit a term of the diagonal's factor selection: an
  /// offset qubit becomes the bit the factor varies with inside a block, a
  /// block or rank qubit joins the parity.
  void add_parity_bit(const Partition& partition, int qubit) {
    const int bit = partition.local_bit(qubit);
    switch (partition.segment_of(qubit)) {
      case Partition::Segment::kOffset:
        target_segment = Partition::Segment::kOffset;
        target_local_bit = bit;
        break;
      case Partition::Segment::kBlock:
        block_parity_mask |= 1 << bit;
        break;
      case Partition::Segment::kRank:
        rank_parity_mask |= 1 << bit;
        break;
    }
  }
  /// Applies the unit kernel to the decoded block (rank, block) if it runs
  /// there.
  void apply_unit(Amplitude* amps, std::uint64_t count, int rank, int block,
                  qsim::KernelBackend backend) const {
    if (!runs_on(rank, block)) return;
    const std::uint64_t target_bit = std::uint64_t{1} << target_local_bit;
    if (target_segment != Partition::Segment::kOffset) {
      qsim::scale_kernel(amps, count, block_factor(rank, block),
                         offset_ctrl_mask, backend);
    } else if (diagonal) {
      Mat2 factors = m;
      if (factor_bit(rank, block) != 0) std::swap(factors.u00, factors.u11);
      qsim::diag_kernel(amps, count, factors, target_bit, offset_ctrl_mask,
                        backend);
    } else {
      qsim::mix_kernel(amps, count, m, target_bit, offset_ctrl_mask,
                       backend);
    }
  }
};

/// One run_sweep task: what decides whether units share an output, and
/// what to compute on the decoded amplitudes. Each unit (rank, block) is
/// its first block and spans the rank and block bits set here: it holds
/// every block (rank | r, block | b) for r a submask of rank_bits and b of
/// block_bits, rank-major (block bits ascending within a rank), so a unit
/// holds 1, 2 or 4 blocks, and with a rank bit its second half lies on the
/// partner rank. Every field is safe to call from any worker.
struct CompressedStateSimulator::SweepSpec {
  int rank_bits = 0;  ///< at most one bit
  int block_bits = 0;
  /// Set by gate sweeps, the only sweeps whose units share (share_groups),
  /// and called for each block of a unit; empty = every unit computes its
  /// own output.
  Selections selections;
  /// Applies the unit's kernels to its decoded blocks; `where` holds each
  /// block's (rank, block), in unit order. Empty = recompress the blocks
  /// unchanged.
  std::function<void(std::span<Amplitude* const> blocks,
                     std::span<const std::pair<int, int>> where,
                     std::uint64_t count)>
      compute;
};

CompressedStateSimulator::CompressedStateSimulator(SimConfig config)
    : config_(std::move(config)),
      partition_(runtime::make_partition(config_.num_qubits,
                                         config_.num_ranks,
                                         config_.blocks_per_rank)) {
  lossless_ = compression::make_compressor("zstd");
  if (config_.codec != "zstd") {
    lossy_ = compression::make_compressor(config_.codec);
    if (!lossy_->supports(compression::BoundMode::kPointwiseRelative)) {
      throw std::invalid_argument(
          "simulator: codec must support pointwise relative bounds");
    }
    lossy_codec_id_ = compression::codec_id(config_.codec);
  }
  if (config_.error_ladder.empty()) {
    throw std::invalid_argument(
        "simulator: error ladder must not be empty (level 0 is implicit; "
        "give at least one lossy bound)");
  }
  for (double eps : config_.error_ladder) {
    if (!(eps > 0.0) || !(eps < 1.0)) {
      throw std::invalid_argument("simulator: ladder bounds must be in (0,1)");
    }
  }
  if (!std::is_sorted(config_.error_ladder.begin(),
                      config_.error_ladder.end())) {
    throw std::invalid_argument(
        "simulator: error ladder must be sorted ascending (tight to loose)");
  }
  level_ = std::clamp(config_.initial_level, 0,
                      static_cast<int>(config_.error_ladder.size()));
  if (level_ > 0 && lossy_ == nullptr) {
    throw std::invalid_argument(
        "simulator: lossless codec cannot start at a lossy level");
  }

  // Out-of-core knobs: a spill path needs a resident budget to govern the
  // tier split, and a budget without a path would silently do nothing.
  if (!config_.spill_path.empty() && config_.resident_budget_bytes == 0) {
    throw std::invalid_argument(
        "simulator: spill_path requires resident_budget_bytes > 0");
  }
  if (config_.spill_path.empty() && config_.resident_budget_bytes != 0) {
    throw std::invalid_argument(
        "simulator: resident_budget_bytes requires a spill_path");
  }
  // Auto-checkpoint knobs travel in pairs: an interval with nowhere to
  // save (or a path that never saves) is a latent misconfiguration.
  if ((config_.checkpoint_interval_gates != 0) !=
      (!config_.auto_checkpoint_path.empty())) {
    throw std::invalid_argument(
        "simulator: checkpoint_interval_gates and auto_checkpoint_path "
        "must be set together");
  }
  backend_ = qsim::detect_kernel_backend(config_.enable_simd_kernels);
  map_ = runtime::QubitMap::identity(config_.num_qubits);

  comm_ = std::make_unique<runtime::Comm>(partition_.num_ranks());

  const std::size_t threads =
      config_.threads > 0 ? static_cast<std::size_t>(config_.threads) : 0;
  pool_ = std::make_unique<ThreadPool>(threads);
  worker_timers_.resize(pool_->size());
  codec_stats_.resize(pool_->size());
  // Runs merge across two qubits only without a budget, which the ladder
  // checks between runs, and for blocks that 16-bit LZ77 chain links
  // cover: those links pay for the cell sweeps' two extra buffers.
  merge_runs_ = config_.enable_run_batching &&
                config_.memory_budget_bytes == 0 &&
                partition_.bytes_per_block() <= lossless::kMaxShortLinkBytes;
  scratch_ = std::make_unique<runtime::ScratchArena>(
      pool_->size(), partition_.doubles_per_block(), merge_runs_ ? 4 : 2);
  tier_stats_ = std::make_unique<runtime::TierStats>();
  if (!config_.spill_path.empty()) {
    // SpillError (with errno) surfaces unwritable paths at construction,
    // not at the first mid-circuit eviction.
    spill_ = std::make_unique<runtime::SpillFile>(config_.spill_path);
  }
  ranks_.reserve(static_cast<std::size_t>(partition_.num_ranks()));
  for (int r = 0; r < partition_.num_ranks(); ++r) {
    ranks_.emplace_back(partition_.blocks_per_rank());
    ranks_.back().attach(tier_stats_.get(), spill_.get());
  }
  mass_cache_.resize(ranks_.size() * partition_.blocks_per_rank());
  init_blocks();
  maintain_tiers();
}

void CompressedStateSimulator::init_blocks() {
  // |0...0>: amplitude (1,0) lives at offset 0 of block 0 of rank 0; every
  // other block is all zeros and shares one compressed payload.
  std::vector<double> zeros(partition_.doubles_per_block(), 0.0);
  auto [zero_payload, zero_meta] = encode_block(zeros, 0);
  zeros[0] = 1.0;
  auto [one_payload, one_meta] = encode_block(zeros, 0);

  for (int r = 0; r < partition_.num_ranks(); ++r) {
    for (int b = 0; b < partition_.blocks_per_rank(); ++b) {
      const bool is_origin = r == 0 && b == 0;
      ranks_[r].set_block(b, is_origin ? one_payload : zero_payload,
                          is_origin ? one_meta : zero_meta);
    }
  }
}

std::pair<Bytes, runtime::BlockMeta> CompressedStateSimulator::encode_block(
    std::span<const double> data, std::size_t worker) const {
  ScopedPhase phase(worker_timers_[worker], Phase::kCompression);
  const bool lossless = level_ == 0;
  runtime::BlockMeta meta{static_cast<std::uint8_t>(level_),
                          lossless ? compression::kLosslessCodecId
                                   : lossy_codec_id_};
  auto& scratch = scratch_->codec_scratch(worker);
  auto& stats = codec_stats_[worker];
  WallTimer codec_timer;
  Bytes payload;
  if (lossless) {
    payload = lossless_->compress(data, ErrorBound::lossless(), scratch);
    stats.lossless_compress_seconds += codec_timer.seconds();
    ++stats.lossless_compress_calls;
  } else {
    payload = lossy_->compress(
        data, ErrorBound::relative(config_.error_ladder[level_ - 1]), scratch);
    stats.lossy_compress_seconds += codec_timer.seconds();
    ++stats.lossy_compress_calls;
  }
  return {std::move(payload), meta};
}

void CompressedStateSimulator::decompress_block(int rank, int block,
                                                std::span<double> out,
                                                std::size_t worker) const {
  const auto& store = ranks_[rank];
  decompress_payload(store.payload_view(block), store.meta(block), out,
                     worker);
}

void CompressedStateSimulator::decompress_payload(
    ByteSpan payload, const runtime::BlockMeta& meta, std::span<double> out,
    std::size_t worker) const {
  ScopedPhase phase(worker_timers_[worker], Phase::kDecompression);
  auto& scratch = scratch_->codec_scratch(worker);
  auto& stats = codec_stats_[worker];
  WallTimer codec_timer;
  if (is_lossless(meta)) {
    lossless_->decompress(payload, out, scratch);
    stats.lossless_decompress_seconds += codec_timer.seconds();
    ++stats.lossless_decompress_calls;
  } else if (meta.codec == lossy_codec_id_) {
    lossy_->decompress(payload, out, scratch);
    stats.lossy_decompress_seconds += codec_timer.seconds();
    ++stats.lossy_decompress_calls;
  } else {
    throw std::runtime_error(
        "simulator: block codec id " + std::to_string(meta.codec) +
        " matches neither the lossless stage nor the configured codec '" +
        config_.codec + "'");
  }
}

void CompressedStateSimulator::apply(const GateOp& op) {
  // The circuit rules hold for ad-hoc gates too, checked before the op
  // indexes the qubit map.
  qsim::check_op(op, config_.num_qubits);
  // Ad-hoc gates arrive in logical indices like everything else; rewrite
  // through the layout. Nothing is known about what follows, so an ad-hoc
  // SWAP executes.
  apply_single_counted(qsim::translated_through(op, map_));
  settle_escalation();
  // An ad-hoc gate diverges the state from whatever circuit the cursor
  // described, so the recorded resume position is void.
  gate_cursor_ = 0;
  circuit_digest_ = 0;
}

void CompressedStateSimulator::apply_single_counted(const GateOp& op) {
  WallTimer timer;
  apply_impl(op);
  ++gates_;
  note_gate_finished(timer.seconds());
}

void CompressedStateSimulator::apply_circuit(const qsim::Circuit& circuit) {
  if (circuit.num_qubits() != config_.num_qubits) {
    throw std::invalid_argument("apply_circuit: qubit count mismatch");
  }
  gate_cursor_ = 0;  // a new circuit always starts from its first gate
  circuit_digest_ = prefix_digest(circuit, 0);
  run_from_cursor(circuit);
}

void CompressedStateSimulator::resume_circuit(const qsim::Circuit& circuit) {
  if (circuit.num_qubits() != config_.num_qubits) {
    throw std::invalid_argument("resume_circuit: qubit count mismatch");
  }
  if (gate_cursor_ > circuit.size()) {
    throw std::invalid_argument(
        "resume_circuit: cursor lies beyond the circuit");
  }
  const std::uint64_t digest = prefix_digest(circuit, gate_cursor_);
  if (circuit_digest_ != 0 && circuit_digest_ != digest) {
    throw std::invalid_argument(
        "resume_circuit: the state was not produced by the first " +
        std::to_string(gate_cursor_) + " gates of this circuit");
  }
  circuit_digest_ = digest;
  run_from_cursor(circuit);
}

void CompressedStateSimulator::run_from_cursor(const qsim::Circuit& circuit) {
  const auto& ops = circuit.ops();
  // Consume the circuit in autosave-interval-aligned chunks of source
  // gates. Fusion buffers single-qubit runs per qubit and emits them out
  // of source order, so a mid-schedule state is NOT a source-gate prefix
  // — the only honest checkpoint cursors are chunk boundaries, where the
  // whole scheduled slice has drained. Each chunk is fused / planned /
  // scheduled independently, and boundaries sit at absolute multiples of
  // the interval, so a resumed run re-chunks exactly like the
  // uninterrupted autosaved run and stays bit-identical to it. Which
  // SWAPs relabel is decided once, from the whole rest of the circuit: a
  // chunk alone cannot see that the next one uses a SWAP's qubit.
  const std::vector<bool> relabel =
      qsim::trailing_swaps(circuit, gate_cursor_);
  while (gate_cursor_ < ops.size()) {
    const std::size_t begin = gate_cursor_;
    std::size_t end = ops.size();
    if (config_.checkpoint_interval_gates > 0) {
      const std::uint64_t interval = config_.checkpoint_interval_gates;
      end = static_cast<std::size_t>(std::min<std::uint64_t>(
          end, (gate_cursor_ / interval + 1) * interval));
    }
    run_source_range(circuit, end, relabel);
    // Each op joins the digest once, as its chunk completes, so an
    // autosave records the digest of exactly the gates it holds.
    circuit_digest_ = fold_ops(
        circuit_digest_, std::span(ops).subspan(begin, gate_cursor_ - begin));
    // No autosave image or finished state holds a level its blocks were
    // not encoded at.
    settle_escalation();
    maybe_autosave();
  }
}

void CompressedStateSimulator::run_source_range(
    const qsim::Circuit& circuit, std::size_t end,
    const std::vector<bool>& relabel) {
  const auto& ops = circuit.ops();
  if (gate_cursor_ >= end) return;

  // Schedule only the unapplied slice so fused ops and runs never span
  // the resume point, keeping the cursor exact in source-gate units.
  qsim::Circuit slice(circuit.num_qubits());
  for (std::size_t i = gate_cursor_; i < end; ++i) {
    slice.append(ops[i]);
  }

  // Fuse BEFORE planning, so a relabeled SWAP flushes the same pending
  // runs an executed one does: the other ops fuse exactly as they would
  // with every SWAP executed.
  const bool fuse =
      config_.enable_run_batching && config_.enable_fusion_prepass;
  std::vector<std::size_t> origins;
  qsim::Circuit planned = fuse ? qsim::fuse_single_qubit_gates(
                                     slice, nullptr, &origins)
                               : std::move(slice);
  if (!fuse) origins.assign(planned.size(), 1);

  // Fusion passes every SWAP through, in program order, so the slice's
  // SWAPs keep their flags in order.
  std::vector<bool> planned_relabel(planned.size(), false);
  std::size_t source = gate_cursor_;
  for (std::size_t i = 0; i < planned.size(); ++i) {
    if (planned.ops()[i].kind != GateKind::kSwap) continue;
    while (ops[source].kind != GateKind::kSwap) ++source;
    planned_relabel[i] = relabel[source++];
  }
  const qsim::RemapProgram program =
      qsim::plan_remaps(planned, map_, planned_relabel, &origins);
  swaps_relabeled_ += program.stats.swaps_relabeled;

  for (const qsim::RemapItem& item : program.items) {
    switch (item.kind) {
      case qsim::RemapItem::Kind::kRelabel:
        // A SWAP absorbed into the map: zero data movement, but still one
        // source gate for the cursor and the gate count.
        map_.relabel(item.relabel_a, item.relabel_b);
        gates_ += item.relabel_source_gates;
        gate_cursor_ += item.relabel_source_gates;
        break;
      case qsim::RemapItem::Kind::kGates:
        run_segment(item.ops, item.source_gates);
        break;
    }
  }
}

void CompressedStateSimulator::run_segment(
    const qsim::Circuit& segment,
    const std::vector<std::size_t>& origin_counts) {
  if (!config_.enable_run_batching) {
    for (std::size_t i = 0; i < segment.ops().size(); ++i) {
      apply_single_counted(segment.ops()[i]);
      gate_cursor_ += origin_counts[i];
    }
    return;
  }

  qsim::SchedulerOptions options;
  options.intra_qubits = partition_.offset_bits;
  // Budget enforcement (and peak accounting) happens between runs, so an
  // unlimited run would defer Section 3.7's ladder escalation for a whole
  // stretch; under a budget, bound the deferral.
  constexpr std::size_t kBudgetedRunCap = 16;
  options.max_run_length =
      config_.memory_budget_bytes > 0 ? kBudgetedRunCap : 0;
  options.merge_runs = merge_runs_;
  options.first_rank_qubit = partition_.offset_bits + partition_.block_bits;
  const qsim::Schedule schedule =
      qsim::build_schedule(segment, options, &origin_counts);
  const std::span<const GateOp> ops = schedule.circuit().ops();

  for (const qsim::GateRun& run : schedule.runs()) {
    WallTimer timer;
    if (run.pair_qubit == qsim::kSplitSwap) {
      // Three leg sweeps, each counted as a run of one op.
      apply_impl(ops[run.first]);
      batched_runs_ += 3;
      batched_gates_ += 3;
    } else {
      apply_ops(ops.subspan(run.first, run.count), run.pair_qubit,
                run.second_pair_qubit);
      ++batched_runs_;
      batched_gates_ += run.count;
    }
    gates_ += run.source_gates;
    gate_cursor_ += run.source_gates;
    note_gate_finished(timer.seconds());
  }
}

void CompressedStateSimulator::apply_impl(const GateOp& op) {
  const int k = qsim::pair_qubit(op, partition_.offset_bits);
  if (k == qsim::kSplitSwap) {
    // Its legs pair across two qubits, so each routes on its own.
    for (const GateOp& leg : swap_legs(op)) apply_impl(leg);
  } else {
    apply_ops({&op, 1}, k);
  }
}

CompressedStateSimulator::GateKernel CompressedStateSimulator::resolve_kernel(
    const GateOp& op) const {
  GateKernel kernel;
  kernel.m = qsim::gate_matrix(op);
  kernel.diagonal = qsim::is_diagonal(op.kind);
  kernel.pairs = qsim::pair_qubit(op, partition_.offset_bits) >= 0;
  kernel.target_segment = partition_.segment_of(op.target);
  kernel.target_local_bit = partition_.local_bit(op.target);
  if (kernel.diagonal) kernel.add_parity_bit(partition_, op.target);
  for (int c : op.controls) {
    if (c < 0) continue;
    switch (partition_.segment_of(c)) {
      case Partition::Segment::kOffset:
        kernel.offset_ctrl_mask |= std::uint64_t{1} << partition_.local_bit(c);
        break;
      case Partition::Segment::kBlock:
        kernel.block_ctrl_mask |= 1 << partition_.local_bit(c);
        break;
      case Partition::Segment::kRank:
        kernel.rank_ctrl_mask |= 1 << partition_.local_bit(c);
        break;
    }
  }
  return kernel;
}

void CompressedStateSimulator::record_lossy_pass() {
  // A sweep recompresses each block once, so it costs one pass however
  // many blocks it wrote (Eq. 11 counts passes, not blocks).
  if (level_ > 0) {
    fidelity_.record_lossy_pass(config_.error_ladder[level_ - 1]);
  }
}

void CompressedStateSimulator::apply_ops(std::span<const GateOp> ops,
                                         int pair_qubit,
                                         int second_pair_qubit) {
  std::vector<GateKernel> kernels;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (qsim::starts_parity_phase(ops.subspan(i), partition_.offset_bits)) {
      // CX(u,v) . D . CX(u,v): D's kernel with u's bit as parity partner.
      GateKernel folded = resolve_kernel(ops[i + 1]);
      folded.add_parity_bit(partition_, ops[i].controls[0]);
      kernels.push_back(folded);
      i += 2;
    } else if (ops[i].kind == GateKind::kSwap) {
      for (const GateOp& leg : swap_legs(ops[i])) {
        kernels.push_back(resolve_kernel(leg));
      }
    } else {
      kernels.push_back(resolve_kernel(ops[i]));
    }
  }
  // A unit spans each pairing qubit's bit: the partner block on the same
  // rank (block segment) or the same block on the partner rank (rank
  // segment). A unit where some pairing kernel's controls hold is swept
  // whole — in a run across two qubits every unit, since the scheduler
  // merges only pairing ops without block or rank controls; every other
  // block some unit kernel changes is swept alone, and the rest are
  // skipped without decompression, unless a level raised at the last run
  // boundary is still to be paid. All lists keep rank-major order.
  SweepSpec spec;
  for (const int qubit : {pair_qubit, second_pair_qubit}) {
    if (qubit < 0) continue;
    const int bit = 1 << partition_.local_bit(qubit);
    if (partition_.segment_of(qubit) == Partition::Segment::kRank) {
      spec.rank_bits |= bit;
    } else {
      spec.block_bits |= bit;
    }
  }
  std::vector<std::pair<int, int>> units;
  std::vector<std::pair<int, int>> singles;
  std::vector<std::pair<int, int>> untouched;
  for (int r = 0; r < partition_.num_ranks(); ++r) {
    for (int b = 0; b < partition_.blocks_per_rank(); ++b) {
      const int first_rank = r & ~spec.rank_bits;
      const int first_block = b & ~spec.block_bits;
      if (std::ranges::any_of(kernels, [&](const GateKernel& kernel) {
            return kernel.pairs &&
                   kernel.controls_hold(first_rank, first_block);
          })) {
        if (r == first_rank && b == first_block) units.emplace_back(r, b);
      } else if (std::ranges::any_of(kernels, [&](const GateKernel& kernel) {
                   return kernel.acts_on(r, b);
                 })) {
        singles.emplace_back(r, b);
      } else if (escalation_pending_) {
        untouched.emplace_back(r, b);
      }
    }
  }
  // How far apart, in unit order, the two blocks a pairing kernel pairs
  // lie: past the unit's block bits below its target for a block target,
  // past the first rank's half for a rank target.
  const auto stride = [&](const GateKernel& kernel) -> std::size_t {
    const int below =
        kernel.target_segment == Partition::Segment::kRank
            ? spec.block_bits
            : spec.block_bits & ((1 << kernel.target_local_bit) - 1);
    return std::size_t{1} << std::popcount(static_cast<unsigned>(below));
  };
  // The same kernels act differently on blocks where controls or factor
  // bits differ, so their selections join what a unit computes from.
  spec.selections = [&](int rank, int block) {
    std::vector<std::uint64_t> out;
    out.reserve(kernels.size());
    for (const GateKernel& kernel : kernels) {
      out.push_back(kernel.selection(rank, block));
    }
    return out;
  };
  // Kernels run in program order: a unit kernel on each block with its own
  // (rank, block), a pairing kernel across its own qubit, on each pair
  // where its controls hold. A block swept alone is where every pairing
  // kernel's controls fail.
  spec.compute = [&](std::span<Amplitude* const> blocks,
                     std::span<const std::pair<int, int>> where,
                     std::uint64_t count) {
    for (const GateKernel& kernel : kernels) {
      if (!kernel.pairs) {
        for (std::size_t j = 0; j < blocks.size(); ++j) {
          kernel.apply_unit(blocks[j], count, where[j].first, where[j].second,
                            backend_);
        }
        continue;
      }
      if (blocks.size() == 1) continue;
      const std::size_t step = stride(kernel);
      for (std::size_t j = 0; j < blocks.size(); ++j) {
        if ((j & step) == 0 &&
            kernel.controls_hold(where[j].first, where[j].second)) {
          qsim::pair_kernel(blocks[j], blocks[j + step], count, kernel.m,
                            kernel.offset_ctrl_mask, backend_);
        }
      }
    }
  };
  run_sweep(units, spec);
  spec.rank_bits = spec.block_bits = 0;
  run_sweep(singles, spec);
  // A raised level is paid here: the blocks no kernel changes are
  // re-encoded at it from their decoded bytes, so every block leaves the
  // sweep at the new level.
  run_sweep(untouched, SweepSpec{});
  escalation_pending_ = false;
  // Each block pays one recompression for the whole run, so the fidelity
  // ledger records one lossy pass, not one per op (Eq. 11 tightens to
  // F >= (1 - delta)^runs), and an escalation the sweep pays adds none. A
  // run that rewrote no block costs none.
  if (!units.empty() || !singles.empty() || !untouched.empty()) {
    record_lossy_pass();
  }
}

// --- Block executors: every sweep that rewrites blocks runs through one ---

void CompressedStateSimulator::store_block(int rank, int block, Bytes payload,
                                           runtime::BlockMeta meta) {
  mass_cache_[global_block(rank, block)].void_sums();
  ranks_[rank].set_block(block, std::move(payload), meta);
  maybe_stream_spill(rank, block);
}

std::vector<std::vector<std::size_t>> CompressedStateSimulator::share_groups(
    std::span<const std::pair<int, int>> blocks, std::size_t per_unit,
    const Selections& selections) {
  const std::size_t count = blocks.size() / per_unit;
  std::vector<std::vector<std::size_t>> groups;
  if (!selections || !config_.enable_cache) {
    for (std::size_t i = 0; i < count; ++i) groups.push_back({i});
    return groups;
  }
  // What each block read contributes. The views are taken before the sweep
  // rewrites anything and are dropped before it starts. Comparing bytes is
  // bookkeeping, like a checkpoint save, so the views count no fault.
  struct Input {
    std::uint8_t codec;
    ByteSpan payload;
    std::vector<std::uint64_t> selections;
  };
  std::vector<Input> inputs;
  inputs.reserve(blocks.size());
  for (const auto& [rank, block] : blocks) {
    const auto& store = ranks_[rank];
    inputs.push_back({store.meta(block).codec, store.raw_view(block),
                      selections(rank, block)});
  }
  // A total order on units whose equivalence is equality of all inputs.
  auto less = [&](std::size_t x, std::size_t y) {
    if (blocks[x * per_unit].first != blocks[y * per_unit].first) {
      return blocks[x * per_unit].first < blocks[y * per_unit].first;
    }
    for (std::size_t k = 0; k < per_unit; ++k) {
      const Input& a = inputs[x * per_unit + k];
      const Input& b = inputs[y * per_unit + k];
      if (a.codec != b.codec) return a.codec < b.codec;
      if (a.selections != b.selections) return a.selections < b.selections;
      if (a.payload.size() != b.payload.size()) {
        return a.payload.size() < b.payload.size();
      }
      const int order =
          a.payload.empty()
              ? 0
              : std::memcmp(a.payload.data(), b.payload.data(),
                            a.payload.size());
      if (order != 0) return order < 0;
    }
    return false;
  };
  std::map<std::size_t, std::size_t, decltype(less)> group_of(less);
  for (std::size_t i = 0; i < count; ++i) {
    const auto [it, first] = group_of.try_emplace(i, groups.size());
    if (first) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  sharing_.hits += count - groups.size();
  sharing_.misses += groups.size();
  return groups;
}

void CompressedStateSimulator::run_sweep(
    const std::vector<std::pair<int, int>>& units, const SweepSpec& spec) {
  constexpr std::size_t kMaxUnit = 4;
  const bool cross_rank = spec.rank_bits != 0;
  // The unit's offsets from its first block, rank-major: each submask of
  // the block bits, ascending, on the unit's rank and then on its partner.
  std::vector<std::pair<int, int>> offsets;
  for (const int r : {0, spec.rank_bits}) {
    for (int b = 0;; b = (b - spec.block_bits) & spec.block_bits) {
      offsets.emplace_back(r, b);
      if (b == spec.block_bits) break;
    }
    if (!cross_rank) break;
  }
  const std::size_t per_unit = offsets.size();
  // With a rank bit, block j < half pairs with block j + half across it.
  const std::size_t half = cross_rank ? per_unit / 2 : per_unit;
  if (per_unit > std::min(kMaxUnit, scratch_->buffers())) {
    throw std::logic_error("run_sweep: a unit needs more buffers than scratch");
  }
  // The blocks of unit i: blocks[i * per_unit] onward.
  std::vector<std::pair<int, int>> blocks;
  blocks.reserve(per_unit * units.size());
  for (const auto& [rank, block] : units) {
    for (const auto& [r, b] : offsets) blocks.emplace_back(rank | r, block | b);
  }
  const auto groups = share_groups(blocks, per_unit, spec.selections);
  pool_->parallel_for(groups.size(), [&](std::size_t g, std::size_t worker) {
    const std::vector<std::size_t>& group = groups[g];
    auto& timers = worker_timers_[worker];
    // One buffered sendrecv per cross-rank pair (Section 3.3): each rank
    // ships its compressed block to the partner in a single paired
    // exchange. Both sides then hold both inputs and compute their own
    // updated blocks from the exchanged payloads, so no second round trip
    // is needed.
    auto exchange = [&](std::size_t i, std::size_t j) {
      const auto [rank_a, block_a] = blocks[per_unit * i + j];
      const auto [rank_b, block_b] = blocks[per_unit * i + j + half];
      ScopedPhase phase(timers, Phase::kCommunication);
      return comm_->exchange(rank_a, rank_b,
                             ranks_[rank_a].payload_view(block_a),
                             ranks_[rank_b].payload_view(block_b));
    };
    const std::span<const std::pair<int, int>> own(
        blocks.data() + per_unit * group.front(), per_unit);
    std::array<std::span<double>, kMaxUnit> buffers;
    std::array<Amplitude*, kMaxUnit> amps{};
    for (std::size_t k = 0; k < per_unit; ++k) {
      const auto [rank, block] = own[k];
      buffers[k] = scratch_->block_buffer(worker, k);
      if (k >= half) {
        // Decompress the partner's block from the exchanged copy — the
        // payload this rank received is the data it computes on.
        decompress_payload(exchange(group.front(), k - half).to_a,
                           ranks_[rank].meta(block), buffers[k], worker);
      } else {
        decompress_block(rank, block, buffers[k], worker);
      }
      amps[k] = as_complex(buffers[k]);
    }
    if (spec.compute) {
      ScopedPhase phase(timers, Phase::kComputation);
      spec.compute(std::span(amps).first(per_unit), own,
                   partition_.amplitudes_per_block());
    }
    std::array<std::pair<Bytes, runtime::BlockMeta>, kMaxUnit> outputs;
    for (std::size_t k = 0; k < per_unit; ++k) {
      const auto [rank, block] = own[k];
      outputs[k] = encode_block(buffers[k], worker);
      if (is_lossless(outputs[k].second) !=
          is_lossless(ranks_[rank].meta(block))) {
        ++codec_stats_[worker].codec_switches;
      }
    }
    for (std::size_t m = 1; m < group.size(); ++m) {
      const std::size_t i = group[m];
      // A rank learns its partner's payload only by exchange, so a
      // member still exchanges although the shared output makes the
      // received bytes unnecessary.
      if (cross_rank) {
        for (std::size_t j = 0; j < half; ++j) exchange(i, j);
      }
      for (std::size_t k = 0; k < per_unit; ++k) {
        const auto [rank, block] = blocks[per_unit * i + k];
        store_block(rank, block, outputs[k].first, outputs[k].second);
      }
    }
    for (std::size_t k = 0; k < per_unit; ++k) {
      store_block(own[k].first, own[k].second, std::move(outputs[k].first),
                  outputs[k].second);
    }
  });
}

void CompressedStateSimulator::note_gate_finished(double gate_seconds) {
  // Peaks are no longer sampled here: TierStats records them at every
  // block mutation, so transient maxima inside the gate are covered.
  wall_seconds_ += gate_seconds;
  maintain_tiers();
  enforce_budget();
  // Sampled before the sweep that pays a raised level: the worst ratio the
  // state reached.
  const double ratio = compression_ratio();
  min_ratio_ = min_ratio_ == 0.0 ? ratio : std::min(min_ratio_, ratio);
}

void CompressedStateSimulator::maybe_autosave() {
  if (config_.checkpoint_interval_gates == 0) return;
  if (gate_cursor_ - gates_at_last_autosave_ <
      config_.checkpoint_interval_gates) {
    return;
  }
  WallTimer timer;
  try {
    save_checkpoint(config_.auto_checkpoint_path);
    ++autosaves_;
  } catch (const std::exception&) {
    // A failed autosave must not kill a healthy run: the atomic save left
    // the previous file intact, so recovery merely falls back one
    // interval further. The report carries the count.
    ++autosave_failures_;
  }
  autosave_seconds_ += timer.seconds();
  gates_at_last_autosave_ = gate_cursor_;
}

void CompressedStateSimulator::maybe_stream_spill(int rank, int block) {
  // Unconditional while the flag is set (rather than re-checking the
  // budget per block): which blocks spill then depends only on the
  // mutation set, not worker timing, keeping spill/fault counts
  // deterministic across thread counts. (Once degraded the counts stop
  // being pinned — spilling is over for the run.)
  if (!stream_spill_ || degraded()) return;
  spill_or_degrade(rank, block);
}

void CompressedStateSimulator::spill_or_degrade(int rank, int block) {
  try {
    ranks_[rank].spill_block(block);
  } catch (const runtime::SpillError& e) {
    if (!config_.spill_degrade_on_enospc || e.code() != ENOSPC) throw;
    // Under degradation a full disk is survivable: the failed write
    // reserved no segment and the block stays resident. From here the
    // spill tier is read-only — blocks already on disk stay readable,
    // but nothing more is evicted or streamed.
    spill_write_failures_.bump();
  }
}

void CompressedStateSimulator::maintain_tiers() {
  if (spill_ == nullptr) return;
  const std::size_t budget = config_.resident_budget_bytes;
  const std::size_t total_blocks =
      static_cast<std::size_t>(partition_.num_ranks()) *
      partition_.blocks_per_rank();
  // Eviction: walk the blocks round-robin from where the last scan
  // stopped and spill each one until the resident tier fits the budget.
  // The scan order is a function of evict_cursor_ alone, so the eviction
  // set is deterministic.
  std::size_t scanned = 0;
  while (!degraded() &&
         tier_stats_->resident_bytes.load(std::memory_order_relaxed) >
             budget &&
         scanned < total_blocks) {
    const std::size_t slot = evict_cursor_ % total_blocks;
    evict_cursor_ = (evict_cursor_ + 1) % total_blocks;
    ++scanned;
    spill_or_degrade(static_cast<int>(slot) / partition_.blocks_per_rank(),
                     static_cast<int>(slot) % partition_.blocks_per_rank());
  }
  // Past the transition region the whole state no longer fits: from here
  // every freshly stored block streams straight to the spill tier.
  stream_spill_ =
      tier_stats_->resident_bytes.load(std::memory_order_relaxed) +
          tier_stats_->spilled_bytes.load(std::memory_order_relaxed) >
      budget;
}

void CompressedStateSimulator::enforce_budget() {
  const std::size_t budget = config_.memory_budget_bytes;
  if (budget == 0) return;
  // With spilling on, Eq. 8 governs the *resident* tier: bytes parked on
  // NVMe do not count against the in-memory budget, so the error ladder
  // only escalates when even the resident working set cannot fit.
  if (tier_stats_->resident_bytes.load(std::memory_order_relaxed) > budget) {
    // One level per boundary. The blocks are re-encoded at it by the next
    // gate sweep, which pays it in its own lossy pass, or by
    // settle_escalation where no sweep follows.
    if (level_ < static_cast<int>(config_.error_ladder.size()) &&
        lossy_ != nullptr) {
      ++level_;
      escalation_pending_ = true;
    } else {
      budget_exceeded_ = true;
    }
  }
  // The ENOSPC degradation contract: ride out the full disk as long as
  // the resident state fits Eq. 8's budget (the ladder has already done
  // what it can by now); past that the run cannot make progress without
  // lying about the budget, so the typed error surfaces after all.
  if (budget_exceeded_ && degraded()) {
    throw runtime::SpillError(
        "spill: disk full on '" + config_.spill_path +
            "' and the resident state exceeds the memory budget even at "
            "the last ladder level: " +
            std::strerror(ENOSPC),
        ENOSPC);
  }
}

void CompressedStateSimulator::settle_escalation() {
  while (escalation_pending_) {
    run_sweep(qsim::run_block_order(partition_.num_ranks(),
                                    partition_.blocks_per_rank()),
              SweepSpec{});
    escalation_pending_ = false;
    record_lossy_pass();
    enforce_budget();
  }
}

double CompressedStateSimulator::probability_one(int qubit) {
  if (qubit < 0 || qubit >= config_.num_qubits) {
    throw std::out_of_range("probability_one: bad qubit");
  }
  // The caller speaks logical qubits; the blocks are laid out physically.
  const int physical = map_.physical(qubit);
  const auto segment = partition_.segment_of(physical);
  const int local = partition_.local_bit(physical);

  std::vector<std::pair<int, int>> units;
  for (int r = 0; r < partition_.num_ranks(); ++r) {
    if (segment == Partition::Segment::kRank && ((r >> local) & 1) == 0) {
      continue;
    }
    for (int b = 0; b < partition_.blocks_per_rank(); ++b) {
      if (segment == Partition::Segment::kBlock && ((b >> local) & 1) == 0) {
        continue;
      }
      units.emplace_back(r, b);
    }
  }
  // A block or rank bit is one value per block: P(1) adds the masses of
  // the blocks where it is set.
  if (segment != Partition::Segment::kOffset) {
    return add_in_order(block_masses(units));
  }
  const std::uint64_t bit = std::uint64_t{1} << local;
  return add_in_order(block_sums(
      units, [&](const Amplitude* amps, std::uint64_t count, int, int) {
        double sum = 0.0;
        for (std::uint64_t k = 0; k < count; ++k) {
          if (k & bit) sum += std::norm(amps[k]);
        }
        return sum;
      }));
}

double CompressedStateSimulator::norm() {
  return add_in_order(block_masses(qsim::run_block_order(
      partition_.num_ranks(), partition_.blocks_per_rank())));
}

std::vector<double> CompressedStateSimulator::block_sums(
    const std::vector<std::pair<int, int>>& units,
    const std::function<double(const Amplitude*, std::uint64_t, int, int)>&
        block_sum) {
  std::vector<double> sums(units.size(), 0.0);
  pool_->parallel_for(units.size(), [&](std::size_t i, std::size_t worker) {
    const auto [rank, block] = units[i];
    auto vx = scratch_->block_buffer(worker, 0);
    decompress_block(rank, block, vx, worker);
    sums[i] = block_sum(as_complex(vx), partition_.amplitudes_per_block(),
                        rank, block);
  });
  return sums;
}

void CompressedStateSimulator::fill_cache(
    const std::vector<std::pair<int, int>>& units, bool rows) {
  std::vector<std::pair<int, int>> missing;
  for (const auto& [rank, block] : units) {
    const CachedSums& slot = mass_cache_[global_block(rank, block)];
    if (rows ? !slot.z_row_valid : std::isnan(slot.mass)) {
      missing.emplace_back(rank, block);
    }
  }
  // Each worker fills the slots of the units it decodes.
  block_sums(missing, [&](const Amplitude* amps, std::uint64_t count,
                          int rank, int block) {
    CachedSums& slot = mass_cache_[global_block(rank, block)];
    if (rows) {
      slot.mass = fill_z_row(amps, count, partition_.offset_bits, slot.z_row);
      slot.z_row_valid = true;
    } else {
      slot.mass = block_mass(amps, count);
    }
    return slot.mass;
  });
}

std::vector<double> CompressedStateSimulator::block_masses(
    const std::vector<std::pair<int, int>>& units) {
  fill_cache(units, false);
  std::vector<double> masses;
  masses.reserve(units.size());
  for (const auto& [rank, block] : units) {
    masses.push_back(mass_cache_[global_block(rank, block)].mass);
  }
  return masses;
}

std::vector<double> CompressedStateSimulator::to_raw() {
  if (config_.num_qubits > 26) {
    throw std::invalid_argument("to_raw: refuses above 26 qubits");
  }
  std::vector<double> out(partition_.total_amplitudes() * 2);
  const std::size_t total_blocks =
      static_cast<std::size_t>(partition_.num_ranks()) *
      partition_.blocks_per_rank();
  if (map_.is_identity()) {
    pool_->parallel_for(total_blocks, [&](std::size_t i,
                                          std::size_t worker) {
      const int rank = static_cast<int>(i) / partition_.blocks_per_rank();
      const int block = static_cast<int>(i) % partition_.blocks_per_rank();
      const std::uint64_t base = partition_.global_index(rank, block, 0) * 2;
      decompress_block(rank, block,
                       std::span<double>(out.data() + base,
                                         partition_.doubles_per_block()),
                       worker);
    });
    return out;
  }
  // Remapped layout: decompress each block into scratch and scatter every
  // amplitude to its logical index (a bijection, so the parallel writes
  // are disjoint). The result is always in logical order — callers never
  // see the physical layout.
  pool_->parallel_for(total_blocks, [&](std::size_t i, std::size_t worker) {
    const int rank = static_cast<int>(i) / partition_.blocks_per_rank();
    const int block = static_cast<int>(i) % partition_.blocks_per_rank();
    auto vx = scratch_->block_buffer(worker, 0);
    decompress_block(rank, block, vx, worker);
    for (std::uint64_t k = 0; k < partition_.amplitudes_per_block(); ++k) {
      const std::uint64_t logical =
          map_.to_logical_index(partition_.global_index(rank, block, k));
      out[2 * logical] = vx[2 * k];
      out[2 * logical + 1] = vx[2 * k + 1];
    }
  });
  return out;
}

std::vector<Amplitude> CompressedStateSimulator::to_amplitudes() {
  const auto raw = to_raw();
  std::vector<Amplitude> amps(raw.size() / 2);
  for (std::size_t i = 0; i < amps.size(); ++i) {
    amps[i] = Amplitude(raw[2 * i], raw[2 * i + 1]);
  }
  return amps;
}

bool CompressedStateSimulator::assert_probability(int qubit, double expected,
                                                  double tolerance) {
  return std::abs(probability_one(qubit) - expected) <= tolerance;
}

double CompressedStateSimulator::expectation_pauli_z(
    std::uint64_t qubit_mask) {
  if (qubit_mask >> config_.num_qubits != 0) {
    throw std::out_of_range("expectation_pauli_z: mask exceeds qubits");
  }
  // Parity over a set of logical qubits is parity over their physical
  // homes; translating the mask bit-by-bit reuses the layout-split sums.
  if (!map_.is_identity()) {
    qubit_mask = map_.to_physical_index(qubit_mask);
  }
  const std::uint64_t offset_mask =
      qubit_mask & (partition_.amplitudes_per_block() - 1);
  const auto block_mask = static_cast<int>(
      (qubit_mask >> partition_.offset_bits) &
      (static_cast<std::uint64_t>(partition_.blocks_per_rank()) - 1));
  const auto rank_mask = static_cast<int>(
      qubit_mask >> (partition_.offset_bits + partition_.block_bits));

  const std::vector<std::pair<int, int>> units = qsim::run_block_order(
      partition_.num_ranks(), partition_.blocks_per_rank());
  // Sign contribution of the block/rank index bits is block-constant.
  const auto high_parity = [&](int rank, int block) {
    return (std::popcount(static_cast<unsigned>(block & block_mask)) +
            std::popcount(static_cast<unsigned>(rank & rank_mask))) &
           1;
  };
  if (std::popcount(offset_mask) > 2) {
    return add_in_order(block_sums(
        units,
        [&](const Amplitude* amps, std::uint64_t count, int rank, int block) {
          const int parity_of_block = high_parity(rank, block);
          double sum = 0.0;
          for (std::uint64_t k = 0; k < count; ++k) {
            const int parity =
                (std::popcount(k & offset_mask) + parity_of_block) & 1;
            sum += (parity ? -1.0 : 1.0) * std::norm(amps[k]);
          }
          return sum;
        }));
  }

  // At most two offset bits: a block adds its cached W(offset_mask) (its
  // mass when there is no offset bit), negated where its block and rank
  // bits have odd parity. The negation differs from the loop above only
  // in the sign of a zero sum, which the in-order total, starting at +0.0,
  // cannot see.
  fill_cache(units, offset_mask != 0);
  const std::size_t entry =
      offset_mask == 0 ? 0 : z_row_index(offset_mask, partition_.offset_bits);
  std::vector<double> sums;
  sums.reserve(units.size());
  for (const auto& [rank, block] : units) {
    const CachedSums& slot = mass_cache_[global_block(rank, block)];
    const double w = offset_mask == 0 ? slot.mass : slot.z_row[entry];
    sums.push_back(high_parity(rank, block) ? -w : w);
  }
  return add_in_order(sums);
}

std::uint64_t CompressedStateSimulator::sample(Rng& rng) {
  // Pass 1: per-block probability mass, decoded only where not cached.
  const std::size_t total_blocks =
      static_cast<std::size_t>(partition_.num_ranks()) *
      partition_.blocks_per_rank();
  const std::vector<double> masses = block_masses(qsim::run_block_order(
      partition_.num_ranks(), partition_.blocks_per_rank()));
  const double total = add_in_order(masses);

  // Pass 2: pick the block, then the offset within it.
  double r = rng.next_double() * total;
  std::size_t chosen = total_blocks - 1;
  for (std::size_t i = 0; i < total_blocks; ++i) {
    r -= masses[i];
    if (r <= 0.0) {
      chosen = i;
      break;
    }
  }
  const int rank = static_cast<int>(chosen) / partition_.blocks_per_rank();
  const int block = static_cast<int>(chosen) % partition_.blocks_per_rank();
  auto vx = scratch_->block_buffer(0, 0);
  decompress_block(rank, block, vx, 0);
  const auto* amps = as_complex(vx);
  double r2 = rng.next_double() * masses[chosen];
  std::uint64_t offset = partition_.amplitudes_per_block() - 1;
  for (std::uint64_t k = 0; k < partition_.amplitudes_per_block(); ++k) {
    r2 -= std::norm(amps[k]);
    if (r2 <= 0.0) {
      offset = k;
      break;
    }
  }
  const std::uint64_t physical =
      partition_.global_index(rank, block, offset);
  return map_.is_identity() ? physical : map_.to_logical_index(physical);
}

int CompressedStateSimulator::measure(int qubit, Rng& rng) {
  const double p1 = probability_one(qubit);
  const int outcome = rng.next_double() < p1 ? 1 : 0;
  const double keep = outcome == 1 ? p1 : 1.0 - p1;
  const double scale = keep > 0.0 ? 1.0 / std::sqrt(keep) : 0.0;

  // Collapse along the measured qubit's *physical* bit: a block- or
  // rank-segment bit keeps or zeroes a whole block, an offset bit decides
  // per amplitude. Every block is rewritten — kept amplitudes are
  // rescaled, and scale == 1 never happens for 0 < p < 1.
  const int physical = map_.physical(qubit);
  const auto segment = partition_.segment_of(physical);
  const int local = partition_.local_bit(physical);
  SweepSpec spec;
  spec.compute = [&](std::span<Amplitude* const> blocks,
                     std::span<const std::pair<int, int>> where,
                     std::uint64_t count) {
    Amplitude* amps = blocks[0];
    const auto [rank, block] = where[0];
    int block_bit = -1;  // -1: decided per amplitude
    if (segment == Partition::Segment::kBlock) {
      block_bit = (block >> local) & 1;
    } else if (segment == Partition::Segment::kRank) {
      block_bit = (rank >> local) & 1;
    }
    const std::uint64_t bit = std::uint64_t{1} << local;
    for (std::uint64_t k = 0; k < count; ++k) {
      const int amp_bit =
          block_bit >= 0 ? block_bit : static_cast<int>((k & bit) != 0);
      if (amp_bit == outcome) {
        amps[k] *= scale;
      } else {
        amps[k] = Amplitude(0, 0);
      }
    }
  };
  run_sweep(qsim::run_block_order(partition_.num_ranks(),
                                  partition_.blocks_per_rank()),
            spec);
  record_lossy_pass();
  maintain_tiers();
  enforce_budget();
  settle_escalation();
  // Collapse diverges the state from any recorded circuit position, so
  // the resume cursor is void (same invariant as ad-hoc apply()).
  gate_cursor_ = 0;
  circuit_digest_ = 0;
  return outcome;
}

std::size_t CompressedStateSimulator::compressed_bytes() const {
  return tier_stats_->resident_bytes.load(std::memory_order_relaxed) +
         tier_stats_->spilled_bytes.load(std::memory_order_relaxed);
}

double CompressedStateSimulator::compression_ratio() const {
  const auto raw = static_cast<double>(partition_.total_amplitudes()) * 16.0;
  const auto compressed = static_cast<double>(compressed_bytes());
  return compressed == 0.0 ? 0.0 : raw / compressed;
}

void CompressedStateSimulator::save_checkpoint(
    const std::string& path) const {
  runtime::CheckpointHeader header;
  header.num_qubits = config_.num_qubits;
  header.num_ranks = config_.num_ranks;
  header.blocks_per_rank = config_.blocks_per_rank;
  header.ladder_level = static_cast<std::uint32_t>(level_);
  header.next_gate_index = gate_cursor_;
  header.circuit_digest = circuit_digest_;
  header.fidelity_bound = fidelity_.bound();
  header.lossy_passes = fidelity_.lossy_passes();
  header.codec_name = config_.codec;
  header.qubit_map = map_;
  runtime::save_checkpoint(path, header, ranks_);
}

CompressedStateSimulator CompressedStateSimulator::load_checkpoint(
    const std::string& path, SimConfig config) {
  runtime::LoadedCheckpoint loaded = runtime::load_checkpoint_full(path);
  runtime::CheckpointHeader& header = loaded.header;
  std::vector<runtime::BlockStore>& stores = loaded.ranks;
  config.num_qubits = header.num_qubits;
  config.num_ranks = header.num_ranks;
  config.blocks_per_rank = header.blocks_per_rank;
  config.codec = header.codec_name;
  if (header.ladder_level > config.error_ladder.size()) {
    // Restoring a deeper level than the resume ladder has entries would
    // index past the end of error_ladder on the next compression.
    throw std::invalid_argument(
        "load_checkpoint: saved ladder level exceeds configured ladder");
  }
  CompressedStateSimulator sim(config);
  // The constructor's init_blocks accounted its |0...0> state; the loaded
  // stores replace it wholesale, so the shared stats restart from zero and
  // attach() adds each loaded store's bytes, which the unattached loader
  // stores never counted. (BlockStore destructors never touch the stats,
  // so destroying the initial stores after the reset is safe.)
  sim.tier_stats_->reset();
  sim.ranks_ = std::move(stores);
  for (auto& store : sim.ranks_) {
    store.attach(sim.tier_stats_.get(), sim.spill_.get());
  }
  sim.level_ = static_cast<int>(header.ladder_level);
  // The constructor checked its initial level, not this one.
  if (sim.level_ > 0 && sim.lossy_ == nullptr) {
    throw std::invalid_argument(
        "load_checkpoint: lossless codec '" + config.codec +
        "' cannot resume at lossy ladder level " +
        std::to_string(sim.level_));
  }
  sim.gate_cursor_ = header.next_gate_index;
  sim.circuit_digest_ = header.circuit_digest;
  // The restore point counts as saved: a resumed run's next autosave is
  // one full interval out, matching the uninterrupted run's cadence.
  sim.gates_at_last_autosave_ = sim.gate_cursor_;
  // An empty map means the identity layout, which the constructor set;
  // any other map must cover exactly this simulation's qubits.
  if (!header.qubit_map.empty()) {
    if (header.qubit_map.size() != config.num_qubits) {
      throw std::invalid_argument(
          "load_checkpoint: qubit map covers " +
          std::to_string(header.qubit_map.size()) + " qubits, state has " +
          std::to_string(config.num_qubits));
    }
    sim.map_ = header.qubit_map;
  }
  // Validate every block's codec id up front (decompression happens on
  // worker threads, where a bad id could not throw usefully). Images of
  // earlier versions can mix lossless and lossy blocks at a lossy level.
  for (const auto& store : sim.ranks_) {
    for (int b = 0; b < store.num_blocks(); ++b) {
      const auto codec = store.meta(b).codec;
      if (codec != compression::kLosslessCodecId &&
          codec != sim.lossy_codec_id_) {
        throw std::invalid_argument(
            "load_checkpoint: block codec id " + std::to_string(codec) +
            " matches neither the lossless stage nor the checkpoint codec "
            "'" + sim.config_.codec + "'");
      }
    }
  }
  // Both the bound and the pass count resume exactly where the saved run
  // stopped; subsequent lossy passes multiply/count onto them.
  sim.fidelity_ = FidelityTracker();
  sim.fidelity_.restore(header.fidelity_bound, header.lossy_passes);
  // Re-tier under the *resuming* spill config: blocks that were spilled at
  // save time go back out first (byte-identical moves), then maintain_tiers
  // reconciles against this run's resident budget — which may differ from
  // the saving run's.
  if (sim.spill_ != nullptr) {
    for (std::size_t r = 0; r < loaded.spilled.size(); ++r) {
      for (std::size_t b = 0; b < loaded.spilled[r].size(); ++b) {
        if (loaded.spilled[r][b] != 0) {
          sim.ranks_[r].spill_block(static_cast<int>(b));
        }
      }
    }
  }
  sim.maintain_tiers();
  return sim;
}

CompressedStateSimulator CompressedStateSimulator::run_resilient(
    SimConfig config, const qsim::Circuit& circuit) {
  // A resilient run rides out a full spill disk instead of failing on it.
  config.spill_degrade_on_enospc = true;
  // An existing file at the autosave path is the resume point after a
  // crash. resume_circuit refuses it unless it holds a prefix of this
  // circuit (images without a digest resume unchecked).
  if (!config.auto_checkpoint_path.empty() &&
      std::filesystem::exists(config.auto_checkpoint_path)) {
    auto sim = load_checkpoint(config.auto_checkpoint_path, config);
    sim.resume_circuit(circuit);
    return sim;
  }
  CompressedStateSimulator sim(config);
  sim.apply_circuit(circuit);
  return sim;
}

SimulationReport CompressedStateSimulator::report() const {
  SimulationReport rep;
  rep.num_qubits = config_.num_qubits;
  rep.num_ranks = config_.num_ranks;
  rep.blocks_per_rank = config_.blocks_per_rank;
  rep.codec = config_.codec;
  rep.gates = gates_;
  rep.total_seconds = wall_seconds_;
  for (const auto& timers : worker_timers_) rep.phases.merge(timers);
  rep.memory_requirement_bytes =
      memory_required_bytes(config_.num_qubits);
  rep.peak_compressed_bytes =
      tier_stats_->peak_total_bytes.load(std::memory_order_relaxed);
  rep.scratch_bytes = scratch_->bytes();
  for (const CachedSums& slot : mass_cache_) {
    rep.scratch_bytes += slot.z_row.capacity() * sizeof(double);
  }
  rep.budget_bytes = config_.memory_budget_bytes;
  rep.budget_exceeded = budget_exceeded_;
  rep.min_compression_ratio = min_ratio_;
  rep.final_ladder_level = level_;
  rep.block_raw_bytes = partition_.bytes_per_block();
  for (const auto& store : ranks_) {
    for (int b = 0; b < store.num_blocks(); ++b) {
      if (is_lossless(store.meta(b))) {
        ++rep.final_lossless_blocks;
        rep.final_lossless_bytes += store.block_size(b);
      } else {
        ++rep.final_lossy_blocks;
        rep.final_lossy_bytes += store.block_size(b);
      }
    }
  }
  rep.batched_runs = batched_runs_;
  rep.batched_gates = batched_gates_;
  for (const auto& stats : codec_stats_) {
    rep.lossless_compress_invocations += stats.lossless_compress_calls;
    rep.lossy_compress_invocations += stats.lossy_compress_calls;
    rep.lossless_decompress_invocations += stats.lossless_decompress_calls;
    rep.lossy_decompress_invocations += stats.lossy_decompress_calls;
    rep.lossless_compress_seconds += stats.lossless_compress_seconds;
    rep.lossy_compress_seconds += stats.lossy_compress_seconds;
    rep.lossless_decompress_seconds += stats.lossless_decompress_seconds;
    rep.lossy_decompress_seconds += stats.lossy_decompress_seconds;
    rep.codec_switches += stats.codec_switches;
  }
  rep.compress_invocations =
      rep.lossless_compress_invocations + rep.lossy_compress_invocations;
  rep.decompress_invocations =
      rep.lossless_decompress_invocations + rep.lossy_decompress_invocations;
  rep.codec_scratch_bytes = scratch_->codec_scratch_bytes();
  rep.fidelity_bound = fidelity_.bound();
  rep.lossy_passes = fidelity_.lossy_passes();
  const auto comm_stats = comm_->stats();
  rep.comm_bytes = comm_stats.bytes_moved;
  rep.comm_messages = comm_stats.messages;
  rep.comm_seconds = comm_stats.seconds();
  rep.swaps_relabeled = swaps_relabeled_;
  rep.simd_kernel = qsim::kernel_backend_name(backend_);
  rep.spill_enabled = spill_ != nullptr;
  rep.resident_budget_bytes = config_.resident_budget_bytes;
  rep.resident_bytes =
      tier_stats_->resident_bytes.load(std::memory_order_relaxed);
  rep.spilled_bytes =
      tier_stats_->spilled_bytes.load(std::memory_order_relaxed);
  rep.peak_resident_bytes =
      tier_stats_->peak_resident_bytes.load(std::memory_order_relaxed);
  rep.spill_events =
      tier_stats_->spill_events.load(std::memory_order_relaxed);
  rep.fault_events =
      tier_stats_->fault_events.load(std::memory_order_relaxed);
  rep.degraded = degraded();
  rep.spill_write_failures = spill_write_failures_.get();
  rep.checkpoint_interval_gates = config_.checkpoint_interval_gates;
  rep.autosaves = autosaves_;
  rep.autosave_failures = autosave_failures_;
  rep.autosave_seconds = autosave_seconds_;
  rep.cache = sharing_;
  return rep;
}

}  // namespace cqs::core
