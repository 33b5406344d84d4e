// Algorithm 2's greedy scheme generation. The cut step hands us parts —
// each a set of functions that stays together (one side of a compressed
// sub-graph's minimum cut) — as one list per user. All parts start on
// the edge server (V2); every round tentatively moves each remaining
// part to the device and commits the move with the lowest resulting
// E + T, stopping when no move lowers the objective ("while E_t + T_t <
// E_{t−1} + T_{t−1}").
//
// The scan uses incremental deltas — O(1) per part for the coupled
// server-contention term plus O(deg(part)) cross-weight updates only for
// the committing user's parts that contain or touch a moved node — so
// multi-user runs with tens of thousands of parts stay tractable. A
// commit finds the parts it touches in the moved parts' neighbour lists,
// reuses its candidate's cached cross-weight change, and re-classes only
// the committing user's candidates whose class key it can have changed.
// Ties within a class go to the lowest candidate id, so class order is
// a function of state and nothing else is re-filed. Everything before
// the first commit is per user (users meet only in the server term), so
// that set-up runs one index per user on the caller's pool: a user's
// placement row, aggregates, initial single-part deltas and part
// neighbour lists. A replica user copies the set-up of the first user
// holding its graph payload instead of recomputing it: it names that
// user's very part list, or one equal to it part for part. The totals,
// the group retreats' deltas, class insertion and the commit loop stay
// serial, in user and id order.
// Tests verify the incremental objective against a full evaluate()
// after every move, and the placements against a from-scratch reference
// greedy, against a run where nothing is copied (whether replicas share
// their prototype's list or hold a copy of it), against the same run
// with and without a pool, and — tie order and objective bits included —
// against the lazy greedy that took every candidate of the committing
// user through the class map, set to commit the lowest id of its best
// class.
#pragma once

#include <span>
#include <vector>

#include "mec/costs.hpp"
#include "mec/model.hpp"
#include "mec/scheme.hpp"
#include "parallel/thread_pool.hpp"

namespace mecoff::mec {

/// A set of functions that the cut step decided must stay together. It
/// belongs to the user whose list holds it.
struct Part {
  std::vector<graph::NodeId> nodes;  ///< ids in the user's graph
  double weight = 0.0;               ///< Σ node computation weights
  /// Algorithm 2's initialization (its "Insert(V2', V1)" step): the cut
  /// side anchored to the device — typically the one exchanging the
  /// most data with pinned functions — starts in V1 (local) and never
  /// moves; all other parts start in V2 (remote) and may be pulled
  /// local by the greedy loop.
  bool initially_local = false;
  /// Parts of one user sharing a group id are the cut sides of one
  /// component: the greedy may retreat the whole group in one composite
  /// move (see GreedyOptions::enable_group_moves). SIZE_MAX = ungrouped.
  std::size_t group = SIZE_MAX;
};

struct GreedyOptions {
  /// Scalarization weights of the double objective (6): the greedy
  /// minimizes energy_weight·E + time_weight·T. The paper's Algorithm 2
  /// uses E + T (both 1); the greedy ablation bench sweeps these.
  double energy_weight = 1.0;
  double time_weight = 1.0;
  /// Composite moves: additionally consider pulling ALL remaining
  /// remote parts of one group (user-component) local in a single step.
  /// This escapes the pairwise local minimum where both halves of a
  /// heavily-cut component belong on the device but each half alone is
  /// blocked by the other's cut exposure. OFF by default — the paper's
  /// Algorithm 2 moves single parts only, and its evaluation implicitly
  /// measures the cut algorithms THROUGH that myopia (a bad cut traps a
  /// component remote). bench_ablation_greedy quantifies how much this
  /// extension rescues the weaker cutters.
  bool enable_group_moves = false;
};

struct GreedyResult {
  OffloadingScheme scheme;
  std::size_t moves = 0;
  /// objective (E + T) after initialization and after every committed
  /// move; strictly decreasing by construction.
  std::vector<double> objective_history;
};

/// Run the greedy over `parts_of_user`, one part list per user of
/// `system`; several users may name the same list. Candidate ids are
/// user-major: each user's parts in list order, then, with group moves,
/// each user's group retreats; ties go to the lowest candidate id.
///
/// Preconditions: one list per user; a user's parts are disjoint, hold
/// only nodes of its graph and cover only offloadable nodes (none
/// pinned in its `unoffloadable` mask); every node weight is accounted
/// (part.weight = Σ of its nodes' weights). All but the last throw
/// PreconditionError; the node checks run where a user lays out its
/// parts, so a replica's list is checked once, as its prototype's list
/// against its prototype's mask, which is the replica's own.
///
/// User u is a replica of the first user p holding its graph payload
/// when u's `unoffloadable` mask equals p's, and u's list is p's very
/// list (the same span: no part is compared) or equals it part for part
/// in `nodes`, `weight` and `initially_local`; it copies p's set-up
/// instead of recomputing it. A user whose mask differs lays out its
/// own set-up, and the node checks run against its own mask.
/// `pool` may be null for a serial set-up; the per-user set-up fans out
/// one index per user on it, and the result is bit-identical either
/// way.
[[nodiscard]] GreedyResult generate_scheme(
    const MecSystem& system,
    std::span<const std::span<const Part>> parts_of_user,
    const GreedyOptions& options = {},
    parallel::ThreadPool* pool = nullptr);

}  // namespace mecoff::mec
