#include "core/simulator.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/memory_model.hpp"
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

/// Adds per-block sums in block order, so a query's total does not depend
/// on which worker produced which sum.
double add_in_order(const std::vector<double>& sums) {
  double total = 0.0;
  for (double s : sums) total += s;
  return total;
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

/// One single-block unit task for run_units: what decides whether units
/// share an output, and what to compute on the decoded amplitudes. Every
/// field is safe to call from any worker.
struct CompressedStateSimulator::UnitSpec {
  int level = 0;
  /// Set by gate sweeps, the only sweeps whose units share (share_groups);
  /// empty = every unit computes its own output.
  Selections selections;
  /// Applies the unit's kernels to the decoded block; empty = recompress
  /// the block unchanged.
  std::function<void(qsim::Amplitude* amps, std::uint64_t count, int rank,
                     int block)>
      compute;
};

/// One block-pair task for run_pairs. Each unit (rank, block) is the pair's
/// first block; its partner is (rank | partner_rank_bit, block |
/// partner_block_bit), so a nonzero rank bit makes every pair cross ranks.
struct CompressedStateSimulator::PairSpec {
  int level = 0;
  int partner_rank_bit = 0;
  int partner_block_bit = 0;
  /// As in UnitSpec, called for each block of a pair.
  Selections selections;
  /// Applies the pair's kernels to both decoded blocks; (rank, block) is
  /// the first block's.
  std::function<void(qsim::Amplitude* a, qsim::Amplitude* b,
                     std::uint64_t count, int rank, int block)>
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
  if (config_.readahead_blocks < 0 || config_.readahead_blocks > 4096) {
    throw std::invalid_argument(
        "simulator: readahead_blocks must be in [0, 4096]");
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

  runtime::ArbiterConfig arbiter_config;
  arbiter_config.policy = runtime::parse_codec_policy(config_.codec_policy);
  arbiter_ = std::make_unique<runtime::CodecArbiter>(
      arbiter_config,
      partition_.num_ranks() * partition_.blocks_per_rank());

  // Transport knobs are validated (and the transport built) before the
  // thread pool exists: the socket backend fork()s one endpoint process
  // per rank, which must happen while this process is still
  // single-threaded.
  if (config_.transport != "loopback" && config_.transport != "socket") {
    throw std::invalid_argument("simulator: unknown transport '" +
                                config_.transport +
                                "' (expected 'loopback' or 'socket')");
  }
  if (config_.rank_timeout_ms <= 0) {
    throw std::invalid_argument(
        "simulator: rank_timeout_ms must be positive");
  }
  if (config_.socket_endpoint != "local" &&
      config_.socket_endpoint != "tcp") {
    throw std::invalid_argument("simulator: unknown socket_endpoint '" +
                                config_.socket_endpoint +
                                "' (expected 'local' or 'tcp')");
  }
  if (config_.transport == "socket" && config_.num_ranks < 2) {
    throw std::invalid_argument(
        "simulator: transport 'socket' requires num_ranks >= 2 (a "
        "single-rank run has no cross-rank wire to exercise)");
  }
  runtime::TransportOptions transport_options;
  transport_options.num_ranks = partition_.num_ranks();
  transport_options.rank_timeout_ms = config_.rank_timeout_ms;
  transport_options.socket_endpoint = config_.socket_endpoint;
  comm_ = std::make_unique<runtime::Comm>(
      runtime::make_transport(config_.transport, transport_options));

  const std::size_t threads =
      config_.threads > 0 ? static_cast<std::size_t>(config_.threads) : 0;
  pool_ = std::make_unique<ThreadPool>(threads);
  worker_timers_.resize(pool_->size());
  codec_stats_.resize(pool_->size());
  scratch_ = std::make_unique<runtime::ScratchArena>(
      pool_->size(), partition_.doubles_per_block());
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
  init_blocks();
  maintain_tiers();
}

void CompressedStateSimulator::init_blocks() {
  // |0...0>: amplitude (1,0) lives at offset 0 of block 0 of rank 0; every
  // other block is all zeros and shares one compressed payload. Both
  // contents arbitrate through block 0 as the representative (every block
  // is structurally identical at t=0), then the per-block hysteresis state
  // is seeded so the arbiter remembers each block's starting codec.
  std::vector<double> zeros(partition_.doubles_per_block(), 0.0);
  auto [zero_payload, zero_meta] = encode_block(zeros, level_, 0, 0, 0);
  zeros[0] = 1.0;
  auto [one_payload, one_meta] = encode_block(zeros, level_, 0, 0, 0);

  for (int r = 0; r < partition_.num_ranks(); ++r) {
    for (int b = 0; b < partition_.blocks_per_rank(); ++b) {
      const bool is_origin = r == 0 && b == 0;
      ranks_[r].set_block(b, is_origin ? one_payload : zero_payload,
                          is_origin ? one_meta : zero_meta);
      arbiter_->seed(global_block(r, b),
                     (is_origin ? one_meta : zero_meta).codec ==
                         compression::kLosslessCodecId);
    }
  }
}

std::pair<Bytes, runtime::BlockMeta> CompressedStateSimulator::encode_block(
    std::span<const double> data, int level, int rank, int block,
    std::size_t worker) const {
  ScopedPhase phase(worker_timers_[worker], Phase::kCompression);
  const bool lossless =
      arbiter_->decide_lossless(global_block(rank, block), level, data);
  runtime::BlockMeta meta{static_cast<std::uint8_t>(level),
                          lossless ? compression::kLosslessCodecId
                                   : lossy_codec_id_};
  auto& scratch = scratch_->codec_scratch(worker);
  auto& stats = codec_stats_[worker];
  WallTimer codec_timer;
  Bytes payload;
  if (lossless) {
    payload = lossless_->compress(data, ErrorBound::lossless(), scratch);
  } else {
    payload = lossy_->compress(
        data, ErrorBound::relative(config_.error_ladder[level - 1]), scratch);
  }
  const double seconds = codec_timer.seconds();
  if (lossless) {
    stats.lossless_compress_seconds += seconds;
    ++stats.lossless_compress_calls;
  } else {
    stats.lossy_compress_seconds += seconds;
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
  if (meta.codec == compression::kLosslessCodecId) {
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

void CompressedStateSimulator::apply_remap(const qsim::RemapStep& step) {
  if (partition_.segment_of(step.phys_hot) != Partition::Segment::kRank ||
      partition_.segment_of(step.phys_cold) != Partition::Segment::kOffset) {
    throw std::logic_error("apply_remap: step does not pair rank x offset");
  }
  // Swapping physical bits (offset a, rank h) moves the amplitude at
  // (a=1, h=0) to (a=0, h=1) and back, other bits unchanged: every block
  // pairs with the same block index on the partner rank across bit h, and
  // the pair trades its complementary bit-a halves. One Comm::exchange of
  // the two compressed payloads per pair — the same wire cost as a single
  // rank-target gate — and afterwards gates on the relabeled qubit are
  // block-local.
  const std::uint64_t cold_bit =
      std::uint64_t{1} << partition_.local_bit(step.phys_cold);
  const int hot_local = partition_.local_bit(step.phys_hot);

  std::vector<std::pair<int, int>> units;  // (rank with hot bit 0, block)
  for (int r = 0; r < partition_.num_ranks(); ++r) {
    if ((r >> hot_local) & 1) continue;
    for (int b = 0; b < partition_.blocks_per_rank(); ++b) {
      units.emplace_back(r, b);
    }
  }
  PairSpec spec;
  spec.level = level_;
  spec.partner_rank_bit = 1 << hot_local;
  spec.compute = [cold_bit](Amplitude* a0, Amplitude* a1,
                            std::uint64_t count, int, int) {
    for (std::uint64_t k = 0; k < count; ++k) {
      if (k & cold_bit) std::swap(a0[k], a1[k ^ cold_bit]);
    }
  };
  record_lossy_pass(run_pairs(units, spec));
}

void CompressedStateSimulator::apply(const GateOp& op) {
  // Ad-hoc gates arrive in logical indices like everything else; rewrite
  // through the layout (no remap planning for a single gate).
  apply_single_counted(qsim::translated_through(op, map_));
  // An ad-hoc gate diverges the state from whatever circuit the cursor
  // described, so the recorded resume position is void.
  gate_cursor_ = 0;
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
  run_from_cursor(circuit);
}

void CompressedStateSimulator::run_from_cursor(const qsim::Circuit& circuit) {
  const auto& ops = circuit.ops();
  // Consume the circuit in autosave-interval-aligned chunks of source
  // gates. Fusion buffers single-qubit runs per qubit and emits them out
  // of source order, so a mid-schedule state is NOT a source-gate prefix
  // — the only honest checkpoint cursors are chunk boundaries, where the
  // whole scheduled slice has drained. Each chunk is fused / remap-
  // planned / scheduled independently, and boundaries sit at absolute
  // multiples of the interval, so a resumed run re-chunks exactly like
  // the uninterrupted autosaved run and stays bit-identical to it.
  while (gate_cursor_ < ops.size()) {
    std::size_t end = ops.size();
    if (config_.checkpoint_interval_gates > 0) {
      const std::uint64_t interval = config_.checkpoint_interval_gates;
      end = static_cast<std::size_t>(std::min<std::uint64_t>(
          end, (gate_cursor_ / interval + 1) * interval));
    }
    run_source_range(circuit, end);
    maybe_autosave();
  }
}

void CompressedStateSimulator::run_source_range(const qsim::Circuit& circuit,
                                                std::size_t end) {
  const auto& ops = circuit.ops();
  if (gate_cursor_ >= end) return;

  // Schedule only the unapplied slice so fused ops and runs never span
  // the resume point, keeping the cursor exact in source-gate units.
  qsim::Circuit slice(circuit.num_qubits());
  for (std::size_t i = gate_cursor_; i < end; ++i) {
    slice.append(ops[i]);
  }

  // Fuse BEFORE planning (instead of per scheduled segment) so remap
  // boundaries cannot change which gates fuse: remap-on then executes
  // exactly the arithmetic remap-off executes, which is what keeps the
  // two paths bit-identical at the lossless level.
  const bool fuse =
      config_.enable_run_batching && config_.enable_fusion_prepass;
  std::vector<std::size_t> origins;
  qsim::Circuit planned = fuse ? qsim::fuse_single_qubit_gates(
                                     slice, nullptr, &origins)
                               : std::move(slice);
  if (!fuse) origins.assign(planned.size(), 1);

  // With remapping off the planner only rewrites ops through the map,
  // which is the identity unless a remapped checkpoint was restored.
  qsim::RemapOptions remap_options;
  remap_options.enabled = config_.enable_qubit_remap;
  remap_options.num_qubits = config_.num_qubits;
  remap_options.offset_bits = partition_.offset_bits;
  remap_options.block_bits = partition_.block_bits;
  const qsim::RemapProgram program =
      qsim::plan_remaps(planned, map_, remap_options, &origins);
  remap_sweeps_ += program.stats.remaps;
  swaps_relabeled_ += program.stats.swaps_relabeled;
  rank_gates_localized_ += program.stats.rank_targets_localized;
  rank_gates_in_place_ += program.stats.rank_targets_in_place;
  remap_sweeps_avoided_ += program.stats.sweeps_avoided;

  for (const qsim::RemapItem& item : program.items) {
    switch (item.kind) {
      case qsim::RemapItem::Kind::kRemap: {
        WallTimer timer;
        apply_remap(item.remap);
        map_.swap_physical(item.remap.phys_hot, item.remap.phys_cold);
        note_gate_finished(timer.seconds());
        break;
      }
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
  const qsim::Schedule schedule =
      qsim::build_schedule(segment, options, &origin_counts);
  const std::span<const GateOp> ops = schedule.circuit().ops();

  for (const qsim::GateRun& run : schedule.runs()) {
    WallTimer timer;
    if (run.pair_qubit == qsim::kSplitSwap) {
      apply_impl(ops[run.first]);
    } else {
      apply_ops(ops.subspan(run.first, run.count), run.pair_qubit);
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

void CompressedStateSimulator::record_lossy_pass(std::uint64_t lossy_blocks) {
  // A sweep recompresses each block once, so it costs one pass however
  // many blocks it wrote (Eq. 11 counts passes, not blocks). Only blocks
  // the lossy codec actually wrote cost fidelity: under the adaptive
  // policy a lossy-level sweep whose blocks all stayed lossless is exact.
  if (lossy_blocks > 0 && level_ > 0) {
    fidelity_.record_lossy_pass(config_.error_ladder[level_ - 1]);
  }
}

void CompressedStateSimulator::apply_ops(std::span<const GateOp> ops,
                                         int pair_qubit) {
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
  // Every pairing kernel pairs across pair_qubit: the partner block on the
  // same rank (block segment) or the same block on the partner rank (rank
  // segment). A pair where some pairing kernel's controls hold is swept
  // whole; every other block some unit kernel changes is swept alone, and
  // the rest are skipped without decompression. Both lists keep rank-major
  // order, the order the executors advise readahead from.
  const int pair_bit =
      pair_qubit >= 0 ? 1 << partition_.local_bit(pair_qubit) : 0;
  const bool rank_pair =
      pair_qubit >= 0 &&
      partition_.segment_of(pair_qubit) == Partition::Segment::kRank;
  const int partner_rank_bit = rank_pair ? pair_bit : 0;
  const int partner_block_bit = rank_pair ? 0 : pair_bit;
  std::vector<std::pair<int, int>> pairs;
  std::vector<std::pair<int, int>> units;
  for (int r = 0; r < partition_.num_ranks(); ++r) {
    for (int b = 0; b < partition_.blocks_per_rank(); ++b) {
      const int first_rank = r & ~partner_rank_bit;
      const int first_block = b & ~partner_block_bit;
      if (std::ranges::any_of(kernels, [&](const GateKernel& kernel) {
            return kernel.pairs &&
                   kernel.controls_hold(first_rank, first_block);
          })) {
        if (r == first_rank && b == first_block) pairs.emplace_back(r, b);
      } else if (std::ranges::any_of(kernels, [&](const GateKernel& kernel) {
                   return kernel.acts_on(r, b);
                 })) {
        units.emplace_back(r, b);
      }
    }
  }
  // The same kernels act differently on blocks where controls or factor
  // bits differ, so their selections join what a unit computes from.
  const Selections selections = [&](int rank, int block) {
    std::vector<std::uint64_t> out;
    out.reserve(kernels.size());
    for (const GateKernel& kernel : kernels) {
      out.push_back(kernel.selection(rank, block));
    }
    return out;
  };
  PairSpec pair_spec;
  pair_spec.level = level_;
  pair_spec.partner_rank_bit = partner_rank_bit;
  pair_spec.partner_block_bit = partner_block_bit;
  pair_spec.selections = selections;
  pair_spec.compute = [&](Amplitude* a, Amplitude* b, std::uint64_t count,
                          int rank, int block) {
    for (const GateKernel& kernel : kernels) {
      if (!kernel.pairs) {
        kernel.apply_unit(a, count, rank, block, backend_);
        kernel.apply_unit(b, count, rank | partner_rank_bit,
                          block | partner_block_bit, backend_);
      } else if (kernel.controls_hold(rank, block)) {
        qsim::pair_kernel(a, b, count, kernel.m, kernel.offset_ctrl_mask,
                          backend_);
      }
    }
  };
  UnitSpec unit_spec;
  unit_spec.level = level_;
  unit_spec.selections = selections;
  unit_spec.compute = [&](Amplitude* amps, std::uint64_t count, int rank,
                          int block) {
    // A block swept alone is where every pairing kernel's controls fail.
    for (const GateKernel& kernel : kernels) {
      if (!kernel.pairs) kernel.apply_unit(amps, count, rank, block, backend_);
    }
  };
  // Each block pays one recompression for the whole run, so the fidelity
  // ledger records one lossy pass, not one per op (Eq. 11 tightens to
  // F >= (1 - delta)^runs). The counts add in sequence: the operands of a
  // `+` have no evaluation order.
  std::uint64_t lossy_blocks = run_pairs(pairs, pair_spec);
  lossy_blocks += run_units(units, unit_spec);
  record_lossy_pass(lossy_blocks);
}

// --- Block executors: every sweep that rewrites blocks runs through one ---

void CompressedStateSimulator::store_block(int rank, int block, Bytes payload,
                                           runtime::BlockMeta meta) {
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
  // rewrites anything and are dropped before it starts.
  struct Input {
    std::uint8_t codec;
    ByteSpan payload;
    std::vector<std::uint64_t> selections;
  };
  std::vector<Input> inputs;
  inputs.reserve(blocks.size());
  for (const auto& [rank, block] : blocks) {
    const auto& store = ranks_[rank];
    inputs.push_back({store.meta(block).codec, store.payload_view(block),
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

void CompressedStateSimulator::store_copy(int rank, int block,
                                          const Bytes& payload,
                                          runtime::BlockMeta meta) {
  arbiter_->seed(global_block(rank, block),
                 meta.codec == compression::kLosslessCodecId);
  store_block(rank, block, payload, meta);
}

std::uint64_t CompressedStateSimulator::run_units(
    const std::vector<std::pair<int, int>>& units, const UnitSpec& spec) {
  const auto groups = share_groups(units, 1, spec.selections);
  // Plan-driven readahead: the group order IS the schedule, so advising
  // group g+K's first unit while working group g keeps spilled payloads
  // arriving ahead of their faults (the other members are never decoded).
  // The first window is primed before the sweep starts.
  const std::size_t lookahead =
      spill_ != nullptr ? static_cast<std::size_t>(config_.readahead_blocks)
                        : 0;
  auto advise = [&](std::size_t g) {
    const auto [rank, block] = units[groups[g].front()];
    ranks_[rank].advise(block);
  };
  for (std::size_t g = 0; g < std::min(lookahead, groups.size()); ++g) {
    advise(g);
  }
  std::atomic<std::uint64_t> lossy_blocks{0};
  pool_->parallel_for(groups.size(), [&](std::size_t g, std::size_t worker) {
    if (lookahead > 0 && g + lookahead < groups.size()) advise(g + lookahead);
    const std::vector<std::size_t>& group = groups[g];
    const auto [rank, block] = units[group.front()];
    auto vx = scratch_->vector_x(worker);
    decompress_block(rank, block, vx, worker);
    if (spec.compute) {
      ScopedPhase phase(worker_timers_[worker], Phase::kComputation);
      spec.compute(as_complex(vx), partition_.amplitudes_per_block(), rank,
                   block);
    }
    auto [payload, meta] = encode_block(vx, spec.level, rank, block, worker);
    if (meta.codec != compression::kLosslessCodecId) {
      lossy_blocks.fetch_add(group.size(), std::memory_order_relaxed);
    }
    for (std::size_t m = 1; m < group.size(); ++m) {
      const auto [member_rank, member_block] = units[group[m]];
      store_copy(member_rank, member_block, payload, meta);
    }
    store_block(rank, block, std::move(payload), meta);
  });
  return lossy_blocks.load(std::memory_order_relaxed);
}

std::uint64_t CompressedStateSimulator::run_pairs(
    const std::vector<std::pair<int, int>>& units, const PairSpec& spec) {
  // Both blocks of unit i: blocks[2i] and its partner blocks[2i + 1].
  std::vector<std::pair<int, int>> blocks;
  blocks.reserve(2 * units.size());
  for (const auto& [rank, block] : units) {
    blocks.emplace_back(rank, block);
    blocks.emplace_back(rank | spec.partner_rank_bit,
                        block | spec.partner_block_bit);
  }
  const auto groups = share_groups(blocks, 2, spec.selections);
  // Readahead as in run_units, for both blocks of the first pair K groups
  // ahead.
  const std::size_t lookahead =
      spill_ != nullptr ? static_cast<std::size_t>(config_.readahead_blocks)
                        : 0;
  auto advise = [&](std::size_t g) {
    for (std::size_t k = 0; k < 2; ++k) {
      const auto [rank, block] = blocks[2 * groups[g].front() + k];
      ranks_[rank].advise(block);
    }
  };
  for (std::size_t g = 0; g < std::min(lookahead, groups.size()); ++g) {
    advise(g);
  }
  const bool cross_rank = spec.partner_rank_bit != 0;
  std::atomic<std::uint64_t> lossy_blocks{0};
  pool_->parallel_for(groups.size(), [&](std::size_t g, std::size_t worker) {
    if (lookahead > 0 && g + lookahead < groups.size()) advise(g + lookahead);
    const std::vector<std::size_t>& group = groups[g];
    auto& timers = worker_timers_[worker];
    // One buffered sendrecv per pair (Section 3.3): each rank ships its
    // compressed block to the partner in a single paired exchange. Both
    // sides then hold both inputs and compute their own updated block from
    // the exchanged payloads, so no second round trip is needed.
    auto exchange_begin = [&](std::size_t i) {
      const auto [rank_a, block_a] = blocks[2 * i];
      const auto [rank_b, block_b] = blocks[2 * i + 1];
      ScopedPhase phase(timers, Phase::kCommunication);
      return comm_->exchange_begin(rank_a, rank_b,
                                   ranks_[rank_a].payload_view(block_a),
                                   ranks_[rank_b].payload_view(block_b),
                                   ranks_[rank_a].meta(block_a).codec,
                                   ranks_[rank_b].meta(block_b).codec);
    };
    const auto [rank_a, block_a] = blocks[2 * group.front()];
    const auto [rank_b, block_b] = blocks[2 * group.front() + 1];
    runtime::Comm::Pending pending;
    if (cross_rank) pending = exchange_begin(group.front());
    auto vx = scratch_->vector_x(worker);
    auto vy = scratch_->vector_y(worker);
    // Decoding this rank's own block overlaps the in-flight exchange — the
    // overlap the report surfaces.
    decompress_block(rank_a, block_a, vx, worker);
    if (cross_rank) {
      runtime::Comm::Received received;
      {
        ScopedPhase phase(timers, Phase::kCommunication);
        received = comm_->exchange_wait(pending);
      }
      // Decompress the partner's block from the bytes that came over the
      // wire — the exchanged payload is the data this rank computes on.
      decompress_payload(received.to_a, ranks_[rank_b].meta(block_b), vy,
                         worker);
    } else {
      decompress_block(rank_b, block_b, vy, worker);
    }
    {
      ScopedPhase phase(timers, Phase::kComputation);
      spec.compute(as_complex(vx), as_complex(vy),
                   partition_.amplitudes_per_block(), rank_a, block_a);
    }
    auto [payload_a, meta_a] =
        encode_block(vx, spec.level, rank_a, block_a, worker);
    auto [payload_b, meta_b] =
        encode_block(vy, spec.level, rank_b, block_b, worker);
    const std::uint64_t lossy =
        (meta_a.codec != compression::kLosslessCodecId ? 1u : 0u) +
        (meta_b.codec != compression::kLosslessCodecId ? 1u : 0u);
    if (lossy > 0) {
      lossy_blocks.fetch_add(lossy * group.size(), std::memory_order_relaxed);
    }
    for (std::size_t m = 1; m < group.size(); ++m) {
      const std::size_t i = group[m];
      if (cross_rank) {
        // A rank learns its partner's payload only from the wire, so a
        // member still exchanges; the shared output makes the received
        // bytes unnecessary, but the wait drains the transport's frames
        // (and surfaces its failure).
        runtime::Comm::Pending member = exchange_begin(i);
        ScopedPhase phase(timers, Phase::kCommunication);
        comm_->exchange_wait(member);
      }
      store_copy(blocks[2 * i].first, blocks[2 * i].second, payload_a, meta_a);
      store_copy(blocks[2 * i + 1].first, blocks[2 * i + 1].second, payload_b,
                 meta_b);
    }
    store_block(rank_a, block_a, std::move(payload_a), meta_a);
    store_block(rank_b, block_b, std::move(payload_b), meta_b);
  });
  return lossy_blocks.load(std::memory_order_relaxed);
}

void CompressedStateSimulator::note_gate_finished(double gate_seconds) {
  // Peaks are no longer sampled here: TierStats records them at every
  // block mutation, so transient maxima inside the gate are covered.
  wall_seconds_ += gate_seconds;
  maintain_tiers();
  enforce_budget();
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
  if (!config_.spill_degrade_on_enospc) {
    ranks_[rank].spill_block(block);
    return;
  }
  try {
    ranks_[rank].spill_block(block);
  } catch (const runtime::SpillError& e) {
    if (e.code() != ENOSPC) throw;
    // The block simply stays resident; the next maintain_tiers sees the
    // degraded flag and stops evicting.
    spill_write_failures_.bump();
    spill_degraded_.bump();
  }
}

std::size_t CompressedStateSimulator::resident_occupancy() const {
  const std::size_t resident =
      tier_stats_->resident_bytes.load(std::memory_order_relaxed);
  // In-flight write-behind payloads are already on their way out; without
  // the projection enforce_budget would escalate the ladder for bytes the
  // next settle is about to reclaim.
  return resident > pending_spill_bytes_ ? resident - pending_spill_bytes_
                                         : 0;
}

void CompressedStateSimulator::settle_pending_spills() {
  if (pending_spills_.empty()) return;
  std::exception_ptr first_error;
  for (PendingSpill& pending : pending_spills_) {
    try {
      pending.done.get();
      ranks_[pending.rank].commit_spill(pending.block, *pending.segment,
                                        pending.generation);
    } catch (const runtime::SpillError& e) {
      // Under degradation a full disk is survivable: the failed write
      // reserved no segment and its block is still resident — mark the
      // tier degraded and keep going. Anything else stays fatal.
      if (config_.spill_degrade_on_enospc && e.code() == ENOSPC) {
        spill_write_failures_.bump();
        spill_degraded_.bump();
      } else if (!first_error) {
        first_error = std::current_exception();
      }
    } catch (...) {
      // Keep settling: every future must be consumed even when one write
      // hit ENOSPC, or later destructors would block on live jobs.
      if (!first_error) first_error = std::current_exception();
    }
  }
  pending_spills_.clear();
  pending_spill_bytes_ = 0;
  if (first_error) std::rethrow_exception(first_error);
}

void CompressedStateSimulator::discard_pending_spills() {
  for (PendingSpill& pending : pending_spills_) {
    try {
      pending.done.get();
      if (spill_ != nullptr) spill_->free_segment(*pending.segment);
    } catch (...) {
      // A failed write reserved no live segment, and the blocks these jobs
      // were spilling are being discarded wholesale — the error is moot.
    }
  }
  pending_spills_.clear();
  pending_spill_bytes_ = 0;
}

void CompressedStateSimulator::maintain_tiers() {
  if (spill_ == nullptr) return;
  settle_pending_spills();
  // Once degraded the spill tier is read-only: blocks already parked on
  // disk stay readable, but no new evictions or streaming writes happen.
  if (degraded()) {
    stream_spill_ = false;
    return;
  }
  const std::size_t budget = config_.resident_budget_bytes;
  const std::size_t total_blocks =
      static_cast<std::size_t>(partition_.num_ranks()) *
      partition_.blocks_per_rank();
  // Write-behind eviction: walk the blocks round-robin from where the last
  // sweep stopped and enqueue spill writes on the pool until the projected
  // resident size (current minus in-flight) fits the budget. The scan
  // order is a function of evict_cursor_ alone, so the eviction set is
  // deterministic.
  std::size_t scanned = 0;
  while (resident_occupancy() > budget && scanned < total_blocks) {
    const std::size_t slot = evict_cursor_ % total_blocks;
    evict_cursor_ = (evict_cursor_ + 1) % total_blocks;
    ++scanned;
    const int rank = static_cast<int>(slot) / partition_.blocks_per_rank();
    const int block = static_cast<int>(slot) % partition_.blocks_per_rank();
    runtime::BlockStore& store = ranks_[rank];
    if (store.is_spilled(block)) continue;
    PendingSpill pending;
    pending.rank = rank;
    pending.block = block;
    pending.generation = store.generation(block);
    std::shared_ptr<const Bytes> payload = store.payload_handle(block);
    if (payload == nullptr) continue;
    pending.bytes = payload->size();
    pending.segment = std::make_shared<runtime::SpillSegment>();
    runtime::SpillFile* spill = spill_.get();
    std::shared_ptr<runtime::SpillSegment> segment = pending.segment;
    pending.done = pool_->submit(
        [spill, payload = std::move(payload), segment]() mutable {
          *segment = spill->write(*payload);  // SpillError -> the future
        });
    pending_spill_bytes_ += pending.bytes;
    pending_spills_.push_back(std::move(pending));
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
  while (resident_occupancy() > budget &&
         level_ < static_cast<int>(config_.error_ladder.size()) &&
         lossy_ != nullptr) {
    ++level_;
    record_lossy_pass(recompress_all(level_));
  }
  if (resident_occupancy() > budget) budget_exceeded_ = true;
}

std::uint64_t CompressedStateSimulator::recompress_all(int new_level) {
  UnitSpec spec;
  spec.level = new_level;
  return run_units(qsim::run_block_order(partition_.num_ranks(),
                                         partition_.blocks_per_rank()),
                   spec);
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
  const std::uint64_t bit = segment == Partition::Segment::kOffset
                                ? std::uint64_t{1} << local
                                : 0;
  return add_in_order(block_sums(
      units, [&](const Amplitude* amps, std::uint64_t count, int, int) {
        if (bit == 0) return block_mass(amps, count);
        double sum = 0.0;
        for (std::uint64_t k = 0; k < count; ++k) {
          if (k & bit) sum += std::norm(amps[k]);
        }
        return sum;
      }));
}

double CompressedStateSimulator::norm() {
  return add_in_order(block_sums(
      qsim::run_block_order(partition_.num_ranks(),
                            partition_.blocks_per_rank()),
      [](const Amplitude* amps, std::uint64_t count, int, int) {
        return block_mass(amps, count);
      }));
}

std::vector<double> CompressedStateSimulator::block_sums(
    const std::vector<std::pair<int, int>>& units,
    const std::function<double(const Amplitude*, std::uint64_t, int, int)>&
        block_sum) {
  std::vector<double> sums(units.size(), 0.0);
  pool_->parallel_for(units.size(), [&](std::size_t i, std::size_t worker) {
    const auto [rank, block] = units[i];
    auto vx = scratch_->vector_x(worker);
    decompress_block(rank, block, vx, worker);
    sums[i] = block_sum(as_complex(vx), partition_.amplitudes_per_block(),
                        rank, block);
  });
  return sums;
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
    auto vx = scratch_->vector_x(worker);
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

  return add_in_order(block_sums(
      qsim::run_block_order(partition_.num_ranks(),
                            partition_.blocks_per_rank()),
      [&](const Amplitude* amps, std::uint64_t count, int rank, int block) {
        // Sign contribution of the block/rank index bits is block-constant.
        const int high_parity =
            (std::popcount(static_cast<unsigned>(block & block_mask)) +
             std::popcount(static_cast<unsigned>(rank & rank_mask))) &
            1;
        double sum = 0.0;
        for (std::uint64_t k = 0; k < count; ++k) {
          const int parity =
              (std::popcount(k & offset_mask) + high_parity) & 1;
          sum += (parity ? -1.0 : 1.0) * std::norm(amps[k]);
        }
        return sum;
      }));
}

std::uint64_t CompressedStateSimulator::sample(Rng& rng) {
  // Pass 1: per-block probability mass.
  const std::size_t total_blocks =
      static_cast<std::size_t>(partition_.num_ranks()) *
      partition_.blocks_per_rank();
  const std::vector<double> masses = block_sums(
      qsim::run_block_order(partition_.num_ranks(),
                            partition_.blocks_per_rank()),
      [](const Amplitude* amps, std::uint64_t count, int, int) {
        return block_mass(amps, count);
      });
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
  auto vx = scratch_->vector_x(0);
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
  UnitSpec spec;
  spec.level = level_;
  spec.compute = [&](Amplitude* amps, std::uint64_t count, int rank,
                     int block) {
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
  record_lossy_pass(run_units(qsim::run_block_order(
                                  partition_.num_ranks(),
                                  partition_.blocks_per_rank()),
                              spec));
  maintain_tiers();
  enforce_budget();
  // Collapse diverges the state from any recorded circuit position, so
  // the resume cursor is void (same invariant as ad-hoc apply()).
  gate_cursor_ = 0;
  return outcome;
}

std::size_t CompressedStateSimulator::compressed_bytes() const {
  std::size_t total = 0;
  for (const auto& store : ranks_) total += store.total_bytes();
  return total;
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
  // Under a small resident budget the constructor's maintain_tiers leaves
  // write-behind spills of the initial |0...0> blocks in flight. They must
  // be discarded before the stores are swapped: the loaded slots restart
  // their generation counters at the same values the initial slots had, so
  // a settle after the swap would pass commit_spill's generation guard and
  // silently re-tier restored blocks onto the stale pre-restore segments.
  sim.discard_pending_spills();
  // The constructor's init_blocks accounted its |0...0> state; the loaded
  // stores replace it wholesale, so the shared stats restart from zero and
  // attach() folds each store's actual bytes back in. (BlockStore
  // destructors never touch the stats, so destroying the initial stores
  // after the reset is safe.)
  sim.tier_stats_->reset();
  sim.ranks_ = std::move(stores);
  for (auto& store : sim.ranks_) {
    store.attach(sim.tier_stats_.get(), sim.spill_.get());
  }
  sim.level_ = static_cast<int>(header.ladder_level);
  sim.gate_cursor_ = header.next_gate_index;
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
  // worker threads, where a bad id could not throw usefully), and seed the
  // arbiter's hysteresis from the persisted codec so the first pass after
  // a restore doesn't see a blank history.
  for (int r = 0; r < sim.partition_.num_ranks(); ++r) {
    for (int b = 0; b < sim.partition_.blocks_per_rank(); ++b) {
      const auto codec = sim.ranks_[r].meta(b).codec;
      if (codec != compression::kLosslessCodecId &&
          codec != sim.lossy_codec_id_) {
        throw std::invalid_argument(
            "load_checkpoint: block codec id " + std::to_string(codec) +
            " matches neither the lossless stage nor the checkpoint codec "
            "'" + sim.config_.codec + "'");
      }
      sim.arbiter_->seed(sim.global_block(r, b),
                         codec == compression::kLosslessCodecId);
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
  // Settle the evictions maintain_tiers just enqueued so the restore
  // returns already reconciled: the report's tier split reflects the
  // resuming budget immediately, and a failing spill write surfaces here
  // as a load error instead of at the first gate boundary.
  sim.settle_pending_spills();
  return sim;
}

CompressedStateSimulator CompressedStateSimulator::run_resilient(
    SimConfig config, const qsim::Circuit& circuit,
    const RecoveryOptions& options) {
  if (options.max_recoveries < 0) {
    throw std::invalid_argument("run_resilient: max_recoveries must be >= 0");
  }
  if (options.retry_backoff_ms < 0) {
    throw std::invalid_argument(
        "run_resilient: retry_backoff_ms must be >= 0");
  }
  // A resilient run rides out a full spill disk instead of failing on it.
  config.spill_degrade_on_enospc = true;

  std::uint64_t recoveries = 0;
  std::uint64_t backoff_ms_total = 0;
  for (;;) {
    std::optional<CompressedStateSimulator> sim;
    try {
      // "The last autosave" doubles as the resume point after a *driver*
      // restart: an existing file at the configured path is trusted to be
      // this circuit's, which resume_circuit re-validates.
      const bool resume =
          !config.auto_checkpoint_path.empty() &&
          std::filesystem::exists(config.auto_checkpoint_path);
      if (resume) {
        sim.emplace(load_checkpoint(config.auto_checkpoint_path, config));
        sim->resume_circuit(circuit);
      } else {
        sim.emplace(config);
        sim->apply_circuit(circuit);
      }
      sim->recoveries_ = recoveries;
      sim->recovery_backoff_ms_ = backoff_ms_total;
      return std::move(*sim);
    } catch (const runtime::TransportError& e) {
      // Protocol violations are bugs, not environmental faults — a retry
      // would just trip over them again by construction.
      if (e.kind() == runtime::TransportError::Kind::kProtocol) throw;
      // Tear the failed attempt down *before* respawning: the destructor
      // joins the thread pool and reaps the transport's rank processes,
      // so the next constructor forks from a single-threaded process
      // again (its invariant) and no zombie endpoints accumulate.
      sim.reset();
      if (recoveries >= static_cast<std::uint64_t>(options.max_recoveries)) {
        throw;
      }
      const std::uint64_t wait =
          static_cast<std::uint64_t>(options.retry_backoff_ms)
          << std::min<std::uint64_t>(recoveries, 20);
      ++recoveries;
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(wait));
        backoff_ms_total += wait;
      }
    }
  }
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
  rep.budget_bytes = config_.memory_budget_bytes;
  rep.budget_exceeded = budget_exceeded_;
  rep.min_compression_ratio = min_ratio_;
  rep.final_ladder_level = level_;
  rep.codec_policy = config_.codec_policy;
  const auto arbiter_stats = arbiter_->stats();
  rep.codec_lossless_choices = arbiter_stats.lossless_choices;
  rep.codec_lossy_choices = arbiter_stats.lossy_choices;
  rep.codec_switches = arbiter_stats.switches;
  rep.block_raw_bytes = partition_.bytes_per_block();
  for (const auto& store : ranks_) {
    for (int b = 0; b < store.num_blocks(); ++b) {
      if (store.meta(b).codec == compression::kLosslessCodecId) {
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
  rep.transport = comm_->transport().name();
  rep.comm_seconds = comm_stats.seconds();
  rep.comm_overlap_utilization = comm_stats.overlap_utilization();
  const auto wire = comm_->wire_stats();
  rep.wire_payload_bytes = wire.payload_bytes;
  rep.wire_frame_bytes = wire.frame_bytes;
  rep.wire_frames = wire.frames;
  rep.qubit_remap_enabled = config_.enable_qubit_remap;
  rep.remap_sweeps = remap_sweeps_;
  rep.swaps_relabeled = swaps_relabeled_;
  rep.rank_gates_localized = rank_gates_localized_;
  rep.rank_gates_in_place = rank_gates_in_place_;
  // One avoided sweep = one paired exchange per (rank pair, block).
  rep.remap_exchanges_avoided =
      remap_sweeps_avoided_ *
      (static_cast<std::uint64_t>(partition_.num_ranks()) / 2 *
       partition_.blocks_per_rank());
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
  rep.readahead_issued =
      tier_stats_->readahead_issued.load(std::memory_order_relaxed);
  rep.readahead_hits =
      tier_stats_->readahead_hits.load(std::memory_order_relaxed);
  rep.degraded = degraded();
  rep.spill_write_failures = spill_write_failures_.get();
  rep.checkpoint_interval_gates = config_.checkpoint_interval_gates;
  rep.autosaves = autosaves_;
  rep.autosave_failures = autosave_failures_;
  rep.autosave_seconds = autosave_seconds_;
  rep.recoveries = recoveries_;
  rep.recovery_backoff_ms = recovery_backoff_ms_;
  rep.cache = sharing_;
  return rep;
}

}  // namespace cqs::core
