// End-to-end offloading solvers.
//
// PipelineOffloader is the paper's architecture with a pluggable cut
// step — exactly how the evaluation compares algorithms ("We change the
// minimum cut calculation process by the above mentioned three
// algorithms and compare their results"):
//
//   per user:  remove unoffloadable → component split → LPA compression
//              (Algorithm 1) → per compressed sub-graph two-way cut
//              (spectral | max-flow | Kernighan–Lin) → parts
//   jointly:   Algorithm 2 greedy over all users' parts.
//
// Reference offloaders (AllLocal / AllRemote / Random) bound the
// solution space and anchor the normalized figures.
#pragma once

#include <memory>
#include <string>

#include "kl/kernighan_lin.hpp"
#include "lpa/pipeline.hpp"
#include "mec/greedy.hpp"
#include "mec/scheme.hpp"
#include "mincut/bipartitioner.hpp"
#include "spectral/bipartitioner.hpp"

namespace mecoff::mec {

class Offloader {
 public:
  virtual ~Offloader() = default;

  /// Decide a placement for every function of every user.
  [[nodiscard]] virtual OffloadingScheme solve(const MecSystem& system) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

enum class CutBackend { kSpectral, kMaxFlow, kKernighanLin };

/// Degrade-don't-die budget for one solve() call. When the budget is
/// spent (or the eigensolver comes back below tolerance) the cut step
/// walks a fallback chain per sub-graph — spectral → Kernighan–Lin →
/// all-remote — so the solve ALWAYS returns a valid scheme: degraded
/// quality, never a hang, never UB. A zero budget is already expired
/// and degrades every sub-graph straight to the terminal all-remote
/// fallback (the greedy still runs, so whole components may yet be
/// pulled local).
///
/// The deadline is checked between sub-graph cuts; a single cut is
/// itself bounded by the eigensolver/KL iteration caps, so the overrun
/// past the budget is one bounded cut, not unbounded.
struct SolveDeadline {
  /// Wall-clock budget in seconds; negative = unlimited.
  double seconds = -1.0;

  [[nodiscard]] bool unlimited() const { return seconds < 0.0; }
};

struct PipelineOptions {
  lpa::PropagationConfig propagation;
  CutBackend backend = CutBackend::kSpectral;
  spectral::SpectralOptions spectral;
  mincut::MaxFlowCutOptions maxflow;
  kl::KlOptions kl;
  GreedyOptions greedy;
  /// Execution engine for the per-user solve stage (compression +
  /// cut). A multi-user solve fans out one parallel_for index per
  /// distinct user; a single-user solve fans out over its sub-graphs
  /// instead (LPA compression, then the cut). Nested levels run inline
  /// and every kernel stays serial. null = fully serial (Fig. 9's
  /// "without Spark" configuration). Schemes are bit-identical either
  /// way.
  parallel::ThreadPool* pool = nullptr;
  /// When > 0, users i and i mod period carry IDENTICAL graphs (the
  /// make_uniform_system layout): compression and cuts run once per
  /// distinct graph and parts are replicated, which is how the
  /// multi-user experiments scale to thousands of users. 0 disables.
  std::size_t identical_user_period = 0;
  /// Algorithm 2 initialization (the paper's "Insert(V2', V1)"): when
  /// true, each component may start with one cut side anchored to the
  /// device, chosen by myopic cost; when false, every part starts
  /// remote (the literal all-V2 start). Ablated in
  /// bench_ablation_initialization.
  bool anchor_initial_parts = true;
  /// Solve budget; see SolveDeadline. NOTE: a wall-clock deadline makes
  /// the scheme depend on machine speed — bit-identical replays need it
  /// unlimited (the default) or zero (deterministically expired).
  SolveDeadline deadline;
  /// Retain each distinct user's per-component Fiedler vectors in
  /// last_artifacts() after solve() — the payload a caller stores to
  /// warm the next solve of a perturbed system. Off by default: the
  /// vectors cost O(total compressed nodes) memory per solve.
  bool collect_fiedler_vectors = false;
};

class PipelineOffloader final : public Offloader {
 public:
  explicit PipelineOffloader(PipelineOptions options = {});

  [[nodiscard]] OffloadingScheme solve(const MecSystem& system) override;

  /// Inputs for an incremental re-solve: artifacts of a previous solve
  /// of a NEARBY system (same users and topology, perturbed weights or
  /// channel). Every field is advisory — a missing, empty, or
  /// wrong-shaped entry simply solves that piece cold, counted in
  /// SolveStats; warm never changes what is a valid answer, only how
  /// fast one is reached and which local optimum the greedy lands in.
  struct WarmStart {
    /// Previous placement. When it matches the system's shape, the
    /// greedy additionally starts from this placement's projection
    /// onto the new parts and the better of (warm-start, cold-start)
    /// final objectives wins — ties go to cold, so an unperturbed
    /// re-solve returns a byte-identical scheme.
    OffloadingScheme scheme;
    /// fiedler_vectors[u][c]: distinct user u's compressed component
    /// c's Fiedler vector from the previous solve; seeds Lanczos when
    /// the dimension still matches (compression can reshape under
    /// perturbation — mismatches are rejected, not UB).
    std::vector<std::vector<linalg::Vec>> fiedler_vectors;
  };

  /// Warm-start overload; `warm == nullptr` is bit-identical to the
  /// plain solve().
  [[nodiscard]] OffloadingScheme solve(const MecSystem& system,
                                       const WarmStart* warm);

  [[nodiscard]] std::string name() const override;

  /// What a warm re-solve consumes, retained from the last solve() when
  /// PipelineOptions::collect_fiedler_vectors is set (empty otherwise).
  struct SolveArtifacts {
    /// fiedler_vectors[u][c] per DISTINCT user; empty Vec where the
    /// component was degenerate, disconnected, or never cut.
    std::vector<std::vector<linalg::Vec>> fiedler_vectors;
  };
  [[nodiscard]] const SolveArtifacts& last_artifacts() const {
    return artifacts_;
  }

  struct SolveStats {
    lpa::CompressionStats compression;  ///< aggregate over ALL users,
                                        ///< replicated users included
    std::size_t num_parts = 0;
    std::size_t greedy_moves = 0;
    double final_objective = 0.0;
    /// Per-stage wall clock of the last solve(). `compress_seconds` and
    /// `cut_seconds` are summed over the per-user tasks (CPU-seconds:
    /// with a pool they may exceed the solve's wall clock); the greedy
    /// is a single global pass, so `greedy_seconds` and `total_seconds`
    /// are plain wall clock.
    double compress_seconds = 0.0;
    double cut_seconds = 0.0;
    double greedy_seconds = 0.0;
    double total_seconds = 0.0;
    /// Degrade-don't-die diagnostics, counted over DISTINCT users (the
    /// solver work actually performed — replicas reuse their
    /// prototype's cuts). The fallback chain per sub-graph is
    /// spectral → Kernighan–Lin → all-remote.
    std::size_t spectral_nonconverged = 0;  ///< Fiedler below tolerance
    std::size_t fallback_kl_cuts = 0;       ///< sub-graphs recut with KL
    std::size_t fallback_all_remote = 0;    ///< sub-graphs never cut
    bool deadline_expired = false;
    /// Warm-start diagnostics (all zero/false on cold solves). Rejected
    /// vectors are NOT degradation — the component just solved cold.
    bool warm_start_used = false;
    std::size_t warm_fiedler_seeded = 0;    ///< components seeded warm
    std::size_t warm_fiedler_rejected = 0;  ///< dimension-mismatch hints
    bool warm_greedy_won = false;  ///< projected start beat cold start

    /// Any degraded cut in the last solve()?
    [[nodiscard]] bool degraded() const {
      return spectral_nonconverged > 0 || fallback_kl_cuts > 0 ||
             fallback_all_remote > 0;
    }
  };
  /// Diagnostics from the most recent solve().
  [[nodiscard]] const SolveStats& last_stats() const { return stats_; }

 private:
  [[nodiscard]] std::unique_ptr<graph::Bipartitioner> make_cutter() const;

  PipelineOptions options_;
  SolveStats stats_;
  SolveArtifacts artifacts_;
};

/// Everything on the device.
class AllLocalOffloader final : public Offloader {
 public:
  [[nodiscard]] OffloadingScheme solve(const MecSystem& system) override {
    return OffloadingScheme::all_local(system);
  }
  [[nodiscard]] std::string name() const override { return "all_local"; }
};

/// Everything offloadable on the server.
class AllRemoteOffloader final : public Offloader {
 public:
  [[nodiscard]] OffloadingScheme solve(const MecSystem& system) override {
    return OffloadingScheme::all_remote(system);
  }
  [[nodiscard]] std::string name() const override { return "all_remote"; }
};

/// Independent coin flip per offloadable function — the sanity floor
/// any structured method must beat.
class RandomOffloader final : public Offloader {
 public:
  explicit RandomOffloader(double remote_probability = 0.5,
                           std::uint64_t seed = 0xc01);
  [[nodiscard]] OffloadingScheme solve(const MecSystem& system) override;
  [[nodiscard]] std::string name() const override { return "random"; }

 private:
  double remote_probability_;
  std::uint64_t seed_;
};

}  // namespace mecoff::mec
