#include "mec/greedy.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <span>
#include <unordered_map>

#include "common/contracts.hpp"
#include "obs/obs.hpp"

namespace mecoff::mec {

namespace {

constexpr std::uint32_t kNoPart = UINT32_MAX;
constexpr double kImprovementEps = 1e-12;

/// Coupled server term of T for K active offloaders with total remote
/// weight S:
///   Σ t_s = Σ W_s^i / (I_S/K) = K·S/I_S
///   Σ w_t = Σ κ·S·W_s^i/I_S² = κ·S²/I_S²
double coupled_time(double total_remote, std::size_t active_users,
                    const SystemParams& p) {
  if (active_users == 0) return 0.0;
  const double k = static_cast<double>(active_users);
  const double linear = k * total_remote / p.server_capacity;
  const double congestion = p.contention_factor * total_remote *
                            total_remote /
                            (p.server_capacity * p.server_capacity);
  return linear + congestion;
}

}  // namespace

GreedyResult generate_scheme(
    const MecSystem& system,
    std::span<const std::span<const Part>> parts_of_user,
    const GreedyOptions& options, parallel::ThreadPool* pool) {
  MECOFF_EXPECTS(system.valid());
  const SystemParams& p = system.params;
  const std::size_t num_users = system.num_users();
  MECOFF_EXPECTS(parts_of_user.size() == num_users);

  GreedyResult result;
  result.scheme.placement.resize(num_users);

  // Scalarized objective factors: moving weight w to the device adds
  // local_factor·w; cross-weight x adds cross_factor·x; the coupled
  // server term (pure time) scales by time_weight.
  const double local_factor = (options.time_weight +
                               options.energy_weight * p.mobile_power) /
                              p.mobile_capacity;
  const double cross_factor = (options.time_weight +
                               options.energy_weight * p.transmit_power) /
                              p.bandwidth;

  // Candidate id space, user-major: [0, P) single parts, user u's in
  // list order at [first_part[u], first_part[u+1]); [P, P+G) group
  // retreats, user u's at P + [first_group[u], first_group[u+1]).
  std::vector<std::size_t> first_part(num_users + 1, 0);
  for (std::size_t u = 0; u < num_users; ++u)
    first_part[u + 1] = first_part[u] + parts_of_user[u].size();
  const std::size_t num_parts = first_part[num_users];
  const auto part_at = [&](std::size_t u, std::size_t id) -> const Part& {
    return parts_of_user[u][id - first_part[u]];
  };

  // Composite-move groups (user-components): each user's distinct
  // Part::group ids in first-appearance order.
  std::vector<std::vector<std::size_t>> group_members;
  std::vector<std::size_t> first_group(num_users + 1, 0);
  if (options.enable_group_moves) {
    std::map<std::size_t, std::size_t> dense;
    for (std::size_t u = 0; u < num_users; ++u) {
      dense.clear();
      for (std::size_t id = first_part[u]; id < first_part[u + 1]; ++id) {
        const std::size_t group = part_at(u, id).group;
        if (group == SIZE_MAX) continue;
        const auto [it, inserted] =
            dense.try_emplace(group, group_members.size());
        if (inserted) group_members.emplace_back();
        group_members[it->second].push_back(id);
      }
      // Singleton groups add nothing over their lone part.
      group_members.erase(
          std::remove_if(group_members.begin() +
                             static_cast<std::ptrdiff_t>(first_group[u]),
                         group_members.end(),
                         [](const std::vector<std::size_t>& m) {
                           return m.size() < 2;
                         }),
          group_members.end());
      first_group[u + 1] = group_members.size();
    }
  }
  const std::size_t num_candidates = num_parts + group_members.size();

  // Replica users. A user's initial separable state — its placement,
  // its aggregates, every single part's delta and its parts' adjacency
  // — depends only on its graph and its parts. A user whose graph
  // shares the payload of the first user holding that graph, whose
  // mask equals that user's, and whose list is that user's list or
  // equals it part for part, starts where that user starts, so it
  // copies the state instead of recomputing it. prototype[u] starts as
  // the first user holding u's graph, and the set-up resets it to u
  // when the masks or lists differ; prototype[u] == u: u computes its
  // own.
  std::vector<std::size_t> prototype(num_users);
  std::unordered_map<const void*, std::size_t> first_user_of_graph;
  first_user_of_graph.reserve(num_users);
  for (std::size_t u = 0; u < num_users; ++u)
    prototype[u] = first_user_of_graph
                       .try_emplace(system.users[u].graph.payload_id(), u)
                       .first->second;

  // Per-user aggregates under the current placement.
  std::vector<double> user_local_w(num_users, 0.0);
  std::vector<double> user_remote_w(num_users, 0.0);
  std::vector<double> user_cross_w(num_users, 0.0);

  // Cached separable delta, moving weight and cross-weight change per
  // candidate; only a commit by the SAME user that moves one of its
  // parts or a neighbour of one of its parts can change them, so they
  // are refreshed exactly then, and a commit reads its own from here.
  // kInvalid marks exhausted candidates.
  constexpr double kInvalid = std::numeric_limits<double>::infinity();
  std::vector<double> cand_sep(num_candidates, kInvalid);
  std::vector<double> cand_weight(num_candidates, 0.0);
  std::vector<double> cand_cross(num_candidates, 0.0);
  std::vector<std::size_t> cand_user(num_candidates, 0);
  for (std::size_t u = 0; u < num_users; ++u) {
    for (std::size_t id = first_part[u]; id < first_part[u + 1]; ++id)
      cand_user[id] = u;
    for (std::size_t g = first_group[u]; g < first_group[u + 1]; ++g)
      cand_user[num_parts + g] = u;
  }
  // A replica's single part's counterpart among its prototype's parts.
  std::vector<std::uint32_t> counterpart(num_candidates, kNoPart);

  // A prototype's part adjacency: for its initially-remote single part
  // k (user-local index), neighbours[offsets[k], offsets[k+1]) holds the
  // user-local indices of the other parts holding a node adjacent to one
  // of k's nodes. Only those parts are ever committed, and a commit
  // touches exactly the parts it moves and their neighbours.
  struct PartAdjacency {
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> neighbours;
  };
  std::vector<PartAdjacency> adjacency(num_users);
  // A prototype's heaviest initially-remote single part: no single part
  // of it or of a replica weighs more, which bounds whose deactivation
  // flag a commit can flip.
  std::vector<double> max_part_weight(num_users, 0.0);

  // Per-user set-up, one index per user. A user that is not the first
  // holder of its graph checks whether it replicates that user; a
  // replica is done until the copy below. Every other user lays out
  // its placement (all local except its initially-remote parts),
  // checking that its parts are in range, disjoint and offloadable, and
  // its aggregates, then, in one pass over each initially-remote part's
  // adjacency, that part's initial delta and its neighbour list. The
  // sums run in the same order as the move evaluation below, so they
  // are the same doubles.
  parallel::for_each_index(pool, num_users, [&](std::size_t u) {
    const std::span<const Part> mine = parts_of_user[u];
    const UserApp& user = system.users[u];
    if (prototype[u] != u) {
      const std::span<const Part> theirs = parts_of_user[prototype[u]];
      // The mask too: the prototype's set-up checked its parts against
      // its own mask only.
      if (user.unoffloadable == system.users[prototype[u]].unoffloadable &&
          ((mine.data() == theirs.data() && mine.size() == theirs.size()) ||
           std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end(),
                      [](const Part& a, const Part& b) {
                        return a.nodes == b.nodes && a.weight == b.weight &&
                               a.initially_local == b.initially_local;
                      })))
        return;
      prototype[u] = u;
    }
    const graph::WeightedGraph& g = user.graph;
    std::vector<Placement>& placement = result.scheme.placement[u];
    placement.assign(g.num_nodes(), Placement::kLocal);
    // part_of[node] = user-local part index (kNoPart: in no part).
    std::vector<std::uint32_t> part_of(g.num_nodes(), kNoPart);
    for (std::uint32_t k = 0; k < mine.size(); ++k) {
      const Part& part = mine[k];
      for (const graph::NodeId v : part.nodes) {
        MECOFF_EXPECTS(v < part_of.size());
        MECOFF_EXPECTS(part_of[v] == kNoPart);  // disjointness
        MECOFF_EXPECTS(user.unoffloadable.empty() ||
                       !user.unoffloadable[v]);  // offloadable only
        part_of[v] = k;
        placement[v] =
            part.initially_local ? Placement::kLocal : Placement::kRemote;
      }
    }

    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      const double w = g.node_weight(v);
      if (placement[v] == Placement::kLocal)
        user_local_w[u] += w;
      else
        user_remote_w[u] += w;
    }
    for (const graph::Edge& e : g.edges())
      if (placement[e.u] != placement[e.v]) user_cross_w[u] += e.weight;

    PartAdjacency& out = adjacency[u];
    out.offsets.resize(mine.size() + 1);
    std::vector<std::uint32_t> listed_by(mine.size(), kNoPart);
    for (std::uint32_t k = 0; k < mine.size(); ++k) {
      out.offsets[k] = static_cast<std::uint32_t>(out.neighbours.size());
      const Part& part = mine[k];
      if (part.initially_local) continue;
      double cross = 0.0;
      for (const graph::NodeId v : part.nodes) {
        for (const graph::Adjacency& adj : g.neighbors(v)) {
          const std::uint32_t j = part_of[adj.neighbor];
          if (j == k) continue;
          cross += placement[adj.neighbor] == Placement::kRemote
                       ? adj.weight
                       : -adj.weight;
          if (j != kNoPart && listed_by[j] != k) {
            listed_by[j] = k;
            out.neighbours.push_back(j);
          }
        }
      }
      const std::size_t id = first_part[u] + k;
      max_part_weight[u] = std::max(max_part_weight[u], part.weight);
      cand_weight[id] = part.weight;
      cand_cross[id] = cross;
      cand_sep[id] = part.weight * local_factor + cross * cross_factor;
    }
    out.offsets[mine.size()] =
        static_cast<std::uint32_t>(out.neighbours.size());
  });
  // Replicas copy their prototype's placement, aggregates and initial
  // single-part deltas.
  parallel::for_each_index(pool, num_users, [&](std::size_t u) {
    const std::size_t proto = prototype[u];
    if (proto == u) return;
    result.scheme.placement[u] = result.scheme.placement[proto];
    user_local_w[u] = user_local_w[proto];
    user_remote_w[u] = user_remote_w[proto];
    user_cross_w[u] = user_cross_w[proto];
    const std::size_t to = first_part[u];
    const std::size_t from = first_part[proto];
    for (std::size_t k = 0; k < parts_of_user[u].size(); ++k) {
      cand_sep[to + k] = cand_sep[from + k];
      cand_weight[to + k] = cand_weight[from + k];
      cand_cross[to + k] = cand_cross[from + k];
      counterpart[to + k] = static_cast<std::uint32_t>(from + k);
    }
  });

  double total_remote = 0.0;
  std::size_t active_users = 0;
  double separable = 0.0;  // Σ (t_c + e_c + t_t + e_t), scalarized
  for (std::size_t u = 0; u < num_users; ++u) {
    total_remote += user_remote_w[u];
    if (user_remote_w[u] > 0.0) ++active_users;
    separable += user_local_w[u] * local_factor +
                 user_cross_w[u] * cross_factor;
  }

  double objective =
      separable +
      options.time_weight * coupled_time(total_remote, active_users, p);
  result.objective_history.push_back(objective);

  // The set-up evaluated one move per initially-remote prototype part.
  std::size_t delta_evaluations = 0;
  std::vector<std::uint8_t> is_remote(num_parts, 1);
  for (std::size_t u = 0; u < num_users; ++u) {
    for (std::size_t id = first_part[u]; id < first_part[u + 1]; ++id) {
      if (part_at(u, id).initially_local)
        is_remote[id] = 0;
      else if (prototype[u] == u)
        ++delta_evaluations;
    }
  }

  // Δcross of moving the still-remote parts in `move` (all same user)
  // from remote to local under the CURRENT placement: edges to remote
  // outsiders become cross (+), edges to local outsiders stop being
  // cross (−); edges internal to the moving set never cross. Scratch
  // membership marks use an epoch stamp so the per-call cost is the
  // moving set's size, not the user's whole graph.
  std::vector<std::uint64_t> in_move_epoch;
  std::uint64_t move_epoch = 0;
  const auto cross_delta = [&](const std::vector<std::size_t>& move) {
    const std::size_t user_index = cand_user[move.front()];
    const UserApp& user = system.users[user_index];
    if (in_move_epoch.size() < user.graph.num_nodes())
      in_move_epoch.resize(user.graph.num_nodes(), 0);
    ++move_epoch;
    ++delta_evaluations;
    for (const std::size_t i : move)
      for (const graph::NodeId v : part_at(user_index, i).nodes)
        in_move_epoch[v] = move_epoch;
    double delta = 0.0;
    for (const std::size_t i : move) {
      for (const graph::NodeId v : part_at(user_index, i).nodes) {
        for (const graph::Adjacency& adj : user.graph.neighbors(v)) {
          if (in_move_epoch[adj.neighbor] == move_epoch) continue;
          delta += result.scheme.placement[user_index][adj.neighbor] ==
                           Placement::kRemote
                       ? adj.weight
                       : -adj.weight;
        }
      }
    }
    return delta;
  };

  std::vector<std::size_t> move_scratch;
  const auto candidate_moves =
      [&](std::size_t id) -> const std::vector<std::size_t>& {
    move_scratch.clear();
    if (id < num_parts) {
      if (is_remote[id]) move_scratch.push_back(id);
    } else {
      for (const std::size_t i : group_members[id - num_parts])
        if (is_remote[i]) move_scratch.push_back(i);
    }
    return move_scratch;
  };

  const auto refresh_candidate = [&](std::size_t id) {
    const std::vector<std::size_t>& move = candidate_moves(id);
    if (move.empty()) {
      cand_sep[id] = kInvalid;
      return;
    }
    double weight = 0.0;
    for (const std::size_t i : move)
      weight += part_at(cand_user[id], i).weight;
    cand_weight[id] = weight;
    cand_cross[id] = cross_delta(move);
    cand_sep[id] = weight * local_factor + cand_cross[id] * cross_factor;
  };


  // Replica classes: candidates with identical (separable delta,
  // moving weight, deactivation flag) have identical objective deltas
  // under ANY global state, so they are interchangeable argmins. In
  // multi-user systems whose users cycle over a few prototype graphs,
  // thousands of candidates collapse into a handful of classes — and
  // collapsing them is what keeps the lazy queue from thrashing on
  // bitwise ties (cycling an entire tie class per commit, O(P²)).
  struct ClassKey {
    double sep;
    double weight;
    bool deactivates;
    auto operator<=>(const ClassKey&) const = default;
  };
  // Only an active user can be deactivated: a commit clamps a spent
  // user's remote weight to exactly 0, so a zero-weight part it still
  // holds remote empties no one's remote set.
  const auto key_of = [&](std::size_t id) {
    const double remote = user_remote_w[cand_user[id]];
    return ClassKey{cand_sep[id], cand_weight[id],
                    remote > 0.0 &&
                        remote - cand_weight[id] <= kImprovementEps};
  };
  // Delta shared by every member of a class — O(1).
  const auto class_delta = [&](const ClassKey& key) {
    const double coupled_now =
        options.time_weight * coupled_time(total_remote, active_users, p);
    const double coupled_after =
        options.time_weight *
        coupled_time(total_remote - key.weight,
                     key.deactivates ? active_users - 1 : active_users, p);
    return key.sep + (coupled_after - coupled_now);
  };

  // One live queue entry per class keeps the lazy queue duplicate-free:
  // without this, every membership change pushes another entry and the
  // validate loop drowns in stale duplicates. A class keeps its ids in
  // descending order, so its back is its lowest id, the member an argmin
  // scan in id order would commit: ties go to the lowest candidate id.
  struct ClassBucket {
    std::vector<std::size_t> ids;
    bool queued = false;
  };
  using ClassMap = std::map<ClassKey, ClassBucket>;
  ClassMap classes;
  // A candidate's class; classes.end(): in none, because it is exhausted.
  std::vector<ClassMap::iterator> cand_class(num_candidates, classes.end());

  // Lazy best-first queue over CLASSES (CELF-style). Key monotonicity:
  // for a fixed (sep, weight, deactivates), the delta only INCREASES as
  // S and K shrink; members whose sep/deactivation change (same-user
  // commits only) are re-classed with a fresh queue entry. A popped
  // stale key is therefore a lower bound on the class's current delta,
  // so validating the head against the next stale key reproduces the
  // exact argmin scan of Algorithm 2 at O(log P) per evaluation.
  using QueueEntry = std::pair<double, ClassKey>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;

  // Queues a class that has no live entry.
  const auto enqueue = [&](ClassMap::iterator it) {
    if (it->second.queued) return;
    it->second.queued = true;
    queue.emplace(class_delta(it->first), it->first);
  };
  const auto insert_candidate = [&](std::size_t id) {
    if (cand_sep[id] == kInvalid) return;
    const ClassMap::iterator it = classes.try_emplace(key_of(id)).first;
    std::vector<std::size_t>& ids = it->second.ids;
    ids.insert(std::lower_bound(ids.begin(), ids.end(), id, std::greater<>()),
               id);
    cand_class[id] = it;
    enqueue(it);
  };
  const auto remove_candidate = [&](std::size_t id) {
    const ClassMap::iterator it = cand_class[id];
    if (it == classes.end()) return;
    std::vector<std::size_t>& ids = it->second.ids;
    if (ids.back() == id)  // a committed candidate is its class's back
      ids.pop_back();
    else
      ids.erase(
          std::lower_bound(ids.begin(), ids.end(), id, std::greater<>()));
    cand_class[id] = classes.end();
    if (ids.empty()) classes.erase(it);  // a queued stale entry may
                                         // float; pops skip it safely
  };

  // Parts a commit touched: the moved parts and every part adjacent to
  // a moved node (the moved parts' neighbour lists), stamped with the
  // commit's epoch and listed once each in `stamped`. A candidate
  // without a touched part keeps its move set, part weights and
  // neighbour placements, so its cached separable delta is still exact.
  std::vector<std::uint64_t> touched_epoch(num_parts, 0);
  std::uint64_t commit_epoch = 0;
  std::vector<std::size_t> stamped;
  const auto stamp = [&](std::size_t i) {
    if (touched_epoch[i] == commit_epoch) return;
    touched_epoch[i] = commit_epoch;
    stamped.push_back(i);
  };
  const auto group_touched = [&](std::size_t g) {
    for (const std::size_t i : group_members[g])
      if (touched_epoch[i] == commit_epoch) return true;
    return false;
  };

  // Group retreats evaluate their initial deltas here; single parts got
  // theirs in the set-up. Classes fill in id order, a copied part whose
  // counterpart is already in a class with its key joining that class
  // without a map lookup; each class is then put in descending order.
  for (std::size_t id = num_parts; id < num_candidates; ++id)
    refresh_candidate(id);
  for (std::size_t id = 0; id < num_candidates; ++id) {
    if (cand_sep[id] == kInvalid) continue;
    const ClassKey key = key_of(id);
    ClassMap::iterator it = counterpart[id] == kNoPart
                                ? classes.end()
                                : cand_class[counterpart[id]];
    if (it == classes.end() || it->first != key)
      it = classes.try_emplace(key).first;
    it->second.ids.push_back(id);
    cand_class[id] = it;
    enqueue(it);
  }
  for (auto& [key, bucket] : classes)
    std::reverse(bucket.ids.begin(), bucket.ids.end());

  // Takes a candidate of the committing user out of its class, refreshes
  // its delta if the commit touched it, and files it again by its key.
  std::size_t reclassed = 0;
  const auto reclass = [&](std::size_t id, bool refresh) {
    ++reclassed;
    remove_candidate(id);
    if (refresh) refresh_candidate(id);
    insert_candidate(id);
  };
  // An untouched candidate moves only if its deactivation flag flipped.
  const auto reclass_if_flipped = [&](std::size_t id) {
    if (cand_class[id] != classes.end() && key_of(id) != cand_class[id]->first)
      reclass(id, false);
  };

  // Greedy loop.
  while (true) {
    double best_delta = std::numeric_limits<double>::infinity();
    std::size_t best = SIZE_MAX;
    ClassKey best_key{};
    while (!queue.empty()) {
      const auto [stale_delta, key] = queue.top();
      queue.pop();
      const auto it = classes.find(key);
      if (it == classes.end()) continue;  // class dissolved
      const double fresh = class_delta(key);
      if (queue.empty() || fresh <= queue.top().first + 1e-15) {
        it->second.queued = false;  // its entry is consumed
        best = it->second.ids.back();  // the class's lowest id
        best_key = key;
        best_delta = fresh;
        break;
      }
      queue.emplace(fresh, key);  // single live entry, refreshed key
    }
    if (best == SIZE_MAX || best_delta >= -kImprovementEps) break;

    // Commit: move every still-remote part of the candidate local. The
    // move set is candidate_moves' scratch, read before the re-class
    // below refills it.
    const std::vector<std::size_t>& move = candidate_moves(best);
    MECOFF_ENSURES(!move.empty());
    const std::size_t user_index = cand_user[best];
    const double dx = cand_cross[best];
    const double weight = cand_weight[best];
    const PartAdjacency& part_adjacency = adjacency[prototype[user_index]];
    const std::size_t first = first_part[user_index];
    ++commit_epoch;
    stamped.clear();
    for (const std::size_t i : move) {
      stamp(i);
      for (const graph::NodeId v : part_at(user_index, i).nodes)
        result.scheme.placement[user_index][v] = Placement::kLocal;
      const std::size_t k = i - first;
      for (std::uint32_t n = part_adjacency.offsets[k];
           n < part_adjacency.offsets[k + 1]; ++n)
        stamp(first + part_adjacency.neighbours[n]);
      is_remote[i] = 0;
    }
    user_local_w[user_index] += weight;
    const bool was_active = user_remote_w[user_index] > 0.0;
    user_remote_w[user_index] -= weight;
    if (user_remote_w[user_index] <= kImprovementEps) {
      user_remote_w[user_index] = 0.0;
      if (was_active) --active_users;
    }
    user_cross_w[user_index] += dx;
    total_remote -= weight;
    if (total_remote < 0.0) total_remote = 0.0;
    separable += weight * local_factor + dx * cross_factor;
    objective = separable + options.time_weight *
                                coupled_time(total_remote, active_users, p);
    result.objective_history.push_back(objective);
    ++result.moves;

    // Class order is id order, so only a candidate whose key the commit
    // may have changed is re-classed, and its new class gets a fresh
    // queue entry if it has none, which keeps the lower-bound invariant.
    // Those are the candidates holding a touched part, each refreshed
    // once; the user's group retreats, refreshed if touched; and single
    // parts whose deactivation flag flipped. IEEE subtraction is
    // monotone, so while the user's remote weight exceeds its heaviest
    // part's by more than ε, remote − w > ε held for every part before
    // the commit and still holds: no flag can flip.
    for (const std::size_t i : stamped) reclass(i, true);
    for (std::size_t g = first_group[user_index];
         g < first_group[user_index + 1]; ++g) {
      if (group_touched(g))
        reclass(num_parts + g, true);
      else
        reclass_if_flipped(num_parts + g);
    }
    if (user_remote_w[user_index] - max_part_weight[prototype[user_index]] <=
        kImprovementEps)
      for (std::size_t id = first; id < first_part[user_index + 1]; ++id)
        reclass_if_flipped(id);
    // The selected class consumed its queue entry; if it survived the
    // refresh with members left, give it a fresh one.
    if (const auto it = classes.find(best_key); it != classes.end())
      enqueue(it);
  }

  MECOFF_COUNTER_ADD("mec.greedy.delta_evaluations", delta_evaluations);
  MECOFF_COUNTER_ADD("mec.greedy.reclassed", reclassed);
  return result;
}

}  // namespace mecoff::mec
