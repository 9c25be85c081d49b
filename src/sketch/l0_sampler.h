// δ-error ℓ₀-sampler (Theorem 2.1; Jowhari, Saglam, Tardos [31]).
//
// Layout: `repetitions` independent copies; each copy keeps one 1-sparse
// cell per geometric level l = 0..L where an element i is present at levels
// 0..z(i), z(i) geometric with ratio 1/2 (nested subsampling). A copy
// succeeds if some level's restricted vector is exactly 1-sparse; by
// exchangeability of the level hashes the recovered element is uniform on
// the support. Per-copy success probability is a constant, so δ error needs
// O(log 1/δ) repetitions; space is O(log²n · log 1/δ) words, matching the
// theorem.
//
// Storage comes in two flavours sharing one measurement core:
//   * L0Sampler        — owns its cells (standalone use: Baswana-Sen
//                        buckets, subgraph sketches, component sums);
//   * L0SamplerView    — a borrowed slice of a bank-owned arena
//                        (src/core/node_sketch.h), where all n node
//                        samplers live in one contiguous allocation.
// Both perform identical linear measurements for equal L0Params, so cells
// are bit-identical regardless of where they live.
#ifndef GRAPHSKETCH_SRC_SKETCH_L0_SAMPLER_H_
#define GRAPHSKETCH_SRC_SKETCH_L0_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/sketch/one_sparse.h"

namespace gsketch {

/// A sample drawn from the support of the summarized vector.
struct L0Sample {
  uint64_t index = 0;  ///< Uniform over support(x).
  int64_t value = 0;   ///< x_index (exact).
};

/// Shared parameterization of identically-measured ℓ₀-samplers. Samplers
/// with equal params perform identical linear measurements (mergeable,
/// bit-identical cells).
struct L0Params {
  uint64_t domain = 0;
  uint32_t repetitions = 0;
  uint32_t levels = 0;  ///< deepest level index; cells per rep = levels+1
  uint64_t seed = 0;

  /// Canonical construction: levels derived from the domain exactly as the
  /// original per-node sampler did.
  static L0Params Make(uint64_t domain, uint32_t repetitions, uint64_t seed);

  size_t CellsPerSampler() const {
    return static_cast<size_t>(repetitions) * (levels + 1);
  }

  bool operator==(const L0Params& o) const {
    return domain == o.domain && repetitions == o.repetitions &&
           levels == o.levels && seed == o.seed;
  }
  bool operator!=(const L0Params& o) const { return !(*this == o); }
};

// Measurement core: every operation below acts on a slice of
// p.CellsPerSampler() cells laid out rep-major (rep r, level l at
// r*(levels+1)+l), identically for owned and arena-resident samplers.

/// Applies x[index] += delta to one sampler's cells.
void L0CellsUpdate(const L0Params& p, OneSparseCell* cells, uint64_t index,
                   int64_t delta);

/// Applies x[index] += delta_a / delta_b to two samplers sharing params —
/// the per-repetition hashes are computed once and reused, which is the
/// bank hot path (both endpoints of a stream token).
void L0CellsUpdateTwo(const L0Params& p, OneSparseCell* cells_a,
                      OneSparseCell* cells_b, uint64_t index, int64_t delta_a,
                      int64_t delta_b);

/// Applies x[ids[i]] += deltas[i] for i in [0, count) to ONE sampler's
/// cells — the gutter-flush fast path. Iterates repetition-major so each
/// repetition's seed is derived once per batch (not once per update) and
/// the repetition's level cells stay hot while the batch streams through
/// them. Cell updates are commutative sums, so the resulting cells are
/// bit-identical to `count` L0CellsUpdate calls in stream order.
void L0CellsUpdateBatch(const L0Params& p, OneSparseCell* cells,
                        const uint64_t* ids, const int64_t* deltas,
                        size_t count);

/// Draws a sample from one sampler's cells (nullopt if all reps fail).
std::optional<L0Sample> L0CellsSample(const L0Params& p,
                                      const OneSparseCell* cells);

/// Fingerprint zero-test over the level-0 cells.
bool L0CellsIsZero(const L0Params& p, const OneSparseCell* cells);

/// Appends one sampler wire record (magic, params, cells) — the format of
/// L0Sampler::AppendTo, regardless of where the cells live.
void L0CellsAppendTo(const L0Params& p, const OneSparseCell* cells,
                     std::string* out);

/// Bytes of one sampler wire record header: magic (4), domain (8),
/// repetitions (4), seed (8).
inline constexpr size_t kL0HeaderBytes = 24;

/// Parses a sampler wire record header into `*p` (levels derived from the
/// domain); the caller then reads p->CellsPerSampler() cells.
bool L0ParseHeader(ByteReader* r, L0Params* p);

/// Linear ℓ₀-sampling sketch over a vector x ∈ Z^domain, owning its cells.
class L0Sampler {
 public:
  /// Constructs a sampler for indices in [0, domain) with `repetitions`
  /// independent copies. All randomness derives from `seed`; samplers with
  /// equal (domain, repetitions, seed) are mergeable and perform identical
  /// linear measurements.
  L0Sampler(uint64_t domain, uint32_t repetitions, uint64_t seed);

  /// Applies x[index] += delta. O(1) expected level updates per repetition.
  void Update(uint64_t index, int64_t delta) {
    L0CellsUpdate(params_, cells_.data(), index, delta);
  }

  /// Adds another sampler with identical parameterization.
  void Merge(const L0Sampler& other);

  /// Draws a sample, or nullopt if every repetition fails (probability
  /// exp(-Ω(repetitions))) or the vector is zero.
  std::optional<L0Sample> Sample() const {
    return L0CellsSample(params_, cells_.data());
  }

  /// True iff the summarized vector is zero w.h.p. (level-0 cells cover the
  /// full vector, so this is a fingerprint zero-test).
  bool IsZero() const { return L0CellsIsZero(params_, cells_.data()); }

  /// Number of 1-sparse cells held (space proxy used by the benchmarks).
  size_t CellCount() const { return cells_.size(); }

  /// Serializes parameters, seed, and cells (Sec 1.1 wire format).
  void AppendTo(std::string* out) const {
    L0CellsAppendTo(params_, cells_.data(), out);
  }

  /// Parses a sampler back from the wire; nullopt on malformed input.
  static std::optional<L0Sampler> Deserialize(ByteReader* r);

  uint64_t domain() const { return params_.domain; }
  uint32_t repetitions() const { return params_.repetitions; }
  uint64_t seed() const { return params_.seed; }
  const L0Params& params() const { return params_; }

 private:
  friend class NodeL0Bank;     // arena SumOver accumulates into cells_
  friend class L0SamplerView;  // Materialize copies into cells_

  L0Params params_;
  std::vector<OneSparseCell> cells_;
};

/// Read-only view of one sampler whose cells live in a bank arena. Cheap to
/// copy; valid only while the owning bank (and its arena) is alive and
/// unmoved.
class L0SamplerView {
 public:
  L0SamplerView(const L0Params* params, const OneSparseCell* cells)
      : params_(params), cells_(cells) {}

  std::optional<L0Sample> Sample() const {
    return L0CellsSample(*params_, cells_);
  }
  bool IsZero() const { return L0CellsIsZero(*params_, cells_); }
  size_t CellCount() const { return params_->CellsPerSampler(); }
  void AppendTo(std::string* out) const {
    L0CellsAppendTo(*params_, cells_, out);
  }

  /// Copies the viewed slice into an owning sampler.
  L0Sampler Materialize() const;

  uint64_t domain() const { return params_->domain; }
  uint32_t repetitions() const { return params_->repetitions; }
  uint64_t seed() const { return params_->seed; }
  const OneSparseCell* cells() const { return cells_; }

 private:
  const L0Params* params_;
  const OneSparseCell* cells_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_SKETCH_L0_SAMPLER_H_
