// Unit tests for Algorithm 2: monotone objective, consistency of the
// incremental bookkeeping with the full cost model, and termination.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/contracts.hpp"
#include "graph/generators.hpp"
#include "mec/costs.hpp"
#include "mec/greedy.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "testlib/test_graphs.hpp"

namespace mecoff::mec {
namespace {

SystemParams test_params() {
  SystemParams p;
  p.mobile_power = 1.0;
  p.transmit_power = 8.0;
  p.bandwidth = 10.0;
  p.mobile_capacity = 4.0;
  p.server_capacity = 200.0;
  return p;
}

/// A user whose graph is a weighted barbell: two natural parts.
UserApp barbell_user() {
  UserApp app;
  app.graph = graph::barbell_graph(4, 2.0, 9.0);
  return app;
}

/// generate_scheme's input form: a view of every user's part list.
std::vector<std::span<const Part>> lists_of(
    const std::vector<std::vector<Part>>& parts_of_user) {
  return {parts_of_user.begin(), parts_of_user.end()};
}

/// A part and the user whose list holds it: the flat, user-tagged input
/// the reference greedies below were written for.
struct UserPart : Part {
  std::size_t user = 0;
};

std::vector<UserPart> flatten(
    const std::vector<std::vector<Part>>& parts_of_user) {
  std::vector<UserPart> flat;
  for (std::size_t u = 0; u < parts_of_user.size(); ++u)
    for (const Part& part : parts_of_user[u]) flat.push_back({part, u});
  return flat;
}

/// Parts = the two cliques of the barbell.
std::vector<Part> barbell_parts(const MecSystem& system, std::size_t user) {
  std::vector<Part> parts(2);
  for (std::uint8_t half = 0; half < 2; ++half) {
    Part& part = parts[half];
    for (graph::NodeId v = half * 4u; v < (half + 1) * 4u; ++v) {
      part.nodes.push_back(v);
      part.weight += system.users[user].graph.node_weight(v);
    }
  }
  return parts;
}

TEST(Greedy, ObjectiveHistoryStrictlyDecreases) {
  MecSystem system{test_params(), {barbell_user(), barbell_user()}};
  const std::vector<std::vector<Part>> parts{barbell_parts(system, 0),
                                             barbell_parts(system, 1)};
  const GreedyResult r = generate_scheme(system, lists_of(parts));
  for (std::size_t i = 1; i < r.objective_history.size(); ++i)
    EXPECT_LT(r.objective_history[i], r.objective_history[i - 1]);
}

TEST(Greedy, IncrementalObjectiveMatchesEvaluate) {
  MecSystem system{test_params(), {barbell_user(), barbell_user()}};
  const std::vector<std::vector<Part>> parts{barbell_parts(system, 0),
                                             barbell_parts(system, 1)};
  const GreedyResult r = generate_scheme(system, lists_of(parts));
  const SystemCost cost = evaluate(system, r.scheme);
  EXPECT_NEAR(r.objective_history.back(), cost.objective(),
              1e-9 * (1.0 + cost.objective()));
}

TEST(Greedy, FinalSchemeBeatsBothExtremes) {
  // Mobile is slow (heavy compute worth offloading), bridge is light —
  // the greedy should land strictly between all-local and all-remote...
  // or at least never above either.
  MecSystem system{test_params(), {barbell_user()}};
  const GreedyResult r =
      generate_scheme(system, lists_of({barbell_parts(system, 0)}));
  const double obj = evaluate(system, r.scheme).objective();
  EXPECT_LE(obj,
            evaluate(system, OffloadingScheme::all_local(system)).objective() +
                1e-9);
  EXPECT_LE(
      obj,
      evaluate(system, OffloadingScheme::all_remote(system)).objective() +
          1e-9);
}

/// Pinned root 0 feeding part A = {1, 2} over a heavy edge, part
/// B = {3, 4} hanging off A over a light edge. With all parts remote
/// the heavy pinned↔A edge crosses the network.
MecSystem chain_system(SystemParams p, std::vector<Part>& parts) {
  graph::GraphBuilder b;
  for (int i = 0; i < 5; ++i) b.add_node(1.0);
  b.add_edge(0, 1, 100.0);  // pinned → A: expensive to cut
  b.add_edge(1, 2, 10.0);
  b.add_edge(2, 3, 5.0);    // A → B
  b.add_edge(3, 4, 10.0);
  UserApp app;
  app.graph = b.build();
  app.unoffloadable = {true, false, false, false, false};
  parts.assign(2, Part{});
  parts[0].nodes = {1, 2};
  parts[0].weight = 2.0;
  parts[1].nodes = {3, 4};
  parts[1].weight = 2.0;
  return MecSystem{p, {app}};
}

TEST(Greedy, ExpensiveTransmissionPullsWorkLocal) {
  // Tiny compute savings, huge cross edges: everything should come home.
  SystemParams p = test_params();
  p.transmit_power = 1000.0;
  p.bandwidth = 0.1;
  std::vector<Part> parts;
  const MecSystem system = chain_system(p, parts);
  const GreedyResult r = generate_scheme(system, lists_of({parts}));
  EXPECT_EQ(r.scheme.remote_count(0), 0u);  // all moved back local
  EXPECT_EQ(r.moves, 2u);
}

TEST(Greedy, CheapTransmissionKeepsWorkRemote) {
  // Big compute, near-free network: offloading should stick.
  SystemParams p = test_params();
  p.transmit_power = 0.01;
  p.bandwidth = 10000.0;
  p.mobile_capacity = 0.5;  // painfully slow device
  MecSystem system{p, {barbell_user()}};
  const GreedyResult r =
      generate_scheme(system, lists_of({barbell_parts(system, 0)}));
  EXPECT_EQ(r.scheme.remote_count(0), 8u);
  EXPECT_EQ(r.moves, 0u);
}

TEST(Greedy, EmptyPartsGivesAllLocal) {
  MecSystem system{test_params(), {barbell_user()}};
  const GreedyResult r = generate_scheme(
      system, lists_of(std::vector<std::vector<Part>>(system.num_users())));
  EXPECT_EQ(r.scheme.remote_count(0), 0u);
  EXPECT_EQ(r.moves, 0u);
  EXPECT_EQ(r.objective_history.size(), 1u);
}

TEST(Greedy, OverlappingPartsRejected) {
  MecSystem system{test_params(), {barbell_user()}};
  std::vector<Part> parts = barbell_parts(system, 0);
  parts[1].nodes.push_back(parts[0].nodes[0]);  // overlap
  EXPECT_THROW(generate_scheme(system, lists_of({parts})),
               mecoff::PreconditionError);
}

TEST(Greedy, ReplicaNamesItsPrototypesWholeList) {
  // User 1 holds user 0's graph payload and names the first part of
  // user 0's very list: the same data, a shorter list. It is no replica,
  // so it must start as it does with a graph of its own.
  const UserApp app = barbell_user();
  const MecSystem shared{test_params(), {app, app}};
  const MecSystem separate{test_params(), {barbell_user(), barbell_user()}};
  const std::vector<Part> parts = barbell_parts(shared, 0);
  const std::vector<std::span<const Part>> lists{
      parts, std::span<const Part>(parts).first(1)};
  const GreedyResult got = generate_scheme(shared, lists);
  const GreedyResult want = generate_scheme(separate, lists);
  EXPECT_EQ(got.scheme, want.scheme);
  EXPECT_EQ(got.moves, want.moves);
  EXPECT_EQ(got.objective_history, want.objective_history);
}

TEST(Greedy, PinnedNodesStayLocalThroughout) {
  UserApp app = barbell_user();
  app.unoffloadable = {true, false, false, false, false, false, false, false};
  MecSystem system{test_params(), {app}};
  // Parts exclude the pinned node.
  std::vector<Part> parts(2);
  for (graph::NodeId v = 1; v < 4; ++v) {
    parts[0].nodes.push_back(v);
    parts[0].weight += app.graph.node_weight(v);
  }
  for (graph::NodeId v = 4; v < 8; ++v) {
    parts[1].nodes.push_back(v);
    parts[1].weight += app.graph.node_weight(v);
  }
  const GreedyResult r = generate_scheme(system, lists_of({parts}));
  EXPECT_EQ(r.scheme.placement[0][0], Placement::kLocal);
  EXPECT_TRUE(r.scheme.valid_for(system));
}

TEST(Greedy, MultiUserContentionTriggersPullback) {
  // With many users saturating the server, some should retreat to local
  // even though a single user would offload everything.
  SystemParams p = test_params();
  p.server_capacity = 30.0;  // tiny server
  p.contention_factor = 4.0;
  std::vector<UserApp> users(12, barbell_user());
  MecSystem system{p, users};
  std::vector<std::vector<Part>> parts;
  for (std::size_t u = 0; u < system.num_users(); ++u)
    parts.push_back(barbell_parts(system, u));
  const GreedyResult r = generate_scheme(system, lists_of(parts));
  std::size_t total_remote = 0;
  for (std::size_t u = 0; u < system.num_users(); ++u)
    total_remote += r.scheme.remote_count(u);
  EXPECT_LT(total_remote, 12u * 8u);  // not everyone stays remote

  // Single-user reference keeps everything remote.
  MecSystem solo{p, {barbell_user()}};
  const GreedyResult solo_r =
      generate_scheme(solo, lists_of({barbell_parts(solo, 0)}));
  EXPECT_EQ(solo_r.scheme.remote_count(0), 8u);
}

/// The contended server of the two tests below.
SystemParams tight_server_params() {
  SystemParams p = test_params();
  p.server_capacity = 30.0;
  p.contention_factor = 0.5;
  return p;
}

/// A user whose pinned node 0 feeds nodes 1.. over `edges` (u, v,
/// weight); every node but 0 is offloadable.
UserApp pinned_user(const std::vector<double>& weights,
                    const std::vector<std::tuple<int, int, double>>& edges) {
  graph::GraphBuilder b;
  for (const double w : weights) b.add_node(w);
  for (const auto& [u, v, w] : edges)
    b.add_edge(static_cast<graph::NodeId>(u), static_cast<graph::NodeId>(v),
               w);
  UserApp app;
  app.graph = b.build();
  app.unoffloadable.assign(weights.size(), false);
  app.unoffloadable[0] = true;
  return app;
}

/// One remote part per listed node.
std::vector<Part> single_node_parts(const UserApp& app,
                                    const std::vector<graph::NodeId>& nodes) {
  std::vector<Part> parts;
  for (const graph::NodeId v : nodes)
    parts.push_back({.nodes = {v}, .weight = app.graph.node_weight(v)});
  return parts;
}

TEST(Greedy, ZeroWeightPartOfAnIdleUserDeactivatesNoOne) {
  // User B's first move (b1) empties its remote weight, yet it still
  // holds b2 remote, which weighs 0. Pulling b2 local deactivates no
  // one: if it counted B out a second time, K would fall below the one
  // user (A) still offloading, the coupled term would drop out of the
  // objective and A's retreat, which that term pays for, would never
  // come. The moves are b1, a1, b2; after each, the history must read
  // what evaluate() gives for the placement so far.
  const UserApp a = pinned_user({1.0, 50.0}, {{0, 1, 26.0}});
  const UserApp b = pinned_user({1.0, 20.0, 0.0}, {{0, 1, 100.0}, {1, 2, 1.0}});
  const MecSystem system{tight_server_params(), {a, b}};
  const std::vector<std::vector<Part>> parts{single_node_parts(a, {1}),
                                             single_node_parts(b, {1, 2})};
  const GreedyResult r = generate_scheme(system, lists_of(parts));

  OffloadingScheme scheme = OffloadingScheme::all_remote(system);
  const std::vector<std::pair<std::size_t, graph::NodeId>> order{
      {1, 1}, {0, 1}, {1, 2}};
  for (std::size_t k = 1; k < r.objective_history.size(); ++k) {
    ASSERT_LE(k, order.size());
    scheme.placement[order[k - 1].first][order[k - 1].second] =
        Placement::kLocal;
    const double want = evaluate(system, scheme).objective();
    EXPECT_NEAR(r.objective_history[k], want, 1e-9 * (1.0 + want))
        << "after move " << k;
  }
  EXPECT_EQ(r.moves, 3u);
  EXPECT_EQ(r.scheme, scheme);
  EXPECT_EQ(r.scheme.placement[0][1], Placement::kLocal);
}

TEST(Greedy, TiesGoToTheLowestCandidateId) {
  // Six replica users share one part list, so their candidates tie bit
  // for bit. The contended server makes four of them retreat; the four
  // are the lowest ids, as an argmin scan in id order picks them.
  const UserApp app = pinned_user({1.0, 30.0}, {{0, 1, 10.0}});
  const MecSystem system = make_uniform_system(tight_server_params(), {app}, 6);
  const std::vector<Part> parts = single_node_parts(app, {1});
  const std::vector<std::span<const Part>> lists(system.num_users(), parts);
  const GreedyResult r = generate_scheme(system, lists);
  EXPECT_EQ(r.moves, 4u);
  std::vector<std::size_t> local_users;
  for (std::size_t u = 0; u < system.num_users(); ++u)
    if (r.scheme.remote_count(u) == 0) local_users.push_back(u);
  EXPECT_EQ(local_users, (std::vector<std::size_t>{0, 1, 2, 3}));
}

// Which member of the best class the lazy reference greedy commits: the
// back of its swap-removed bucket, as that greedy did, or the lowest
// candidate id, as generate_scheme does.
enum class Pick { kBucketBack, kLowestId };

// The lazy greedy kept verbatim further down, the bitwise oracle of
// GreedyLazyQueue.MatchesReferenceLazyGreedyBitwise and of the replica
// test.
GreedyResult reference_lazy_greedy(const MecSystem& system,
                                   const std::vector<UserPart>& parts,
                                   const GreedyOptions& options, Pick pick);

}  // namespace
}  // namespace mecoff::mec

namespace greedy_extensions {

using mecoff::mec::GreedyOptions;
using mecoff::mec::GreedyResult;
using mecoff::mec::MecSystem;
using mecoff::mec::OffloadingScheme;
using mecoff::mec::Part;
using mecoff::mec::Placement;
using mecoff::mec::SystemParams;
using mecoff::mec::UserApp;
using mecoff::mec::UserPart;
using mecoff::mec::evaluate;
using mecoff::mec::flatten;
using mecoff::mec::generate_scheme;
using mecoff::mec::lists_of;

SystemParams ext_params() {
  SystemParams p;
  p.mobile_power = 1.0;
  p.transmit_power = 8.0;
  p.bandwidth = 10.0;
  p.mobile_capacity = 4.0;
  p.server_capacity = 100.0;
  p.contention_factor = 0.5;
  return p;
}

TEST(GreedyInit, InitiallyLocalPartsStartAndStayLocal) {
  UserApp app;
  app.graph = mecoff::graph::barbell_graph(3, 1.0, 9.0);
  MecSystem system{ext_params(), {app}};
  std::vector<Part> parts(2);
  for (std::uint8_t half = 0; half < 2; ++half) {
    for (mecoff::graph::NodeId v = half * 3u; v < (half + 1) * 3u; ++v) {
      parts[half].nodes.push_back(v);
      parts[half].weight += app.graph.node_weight(v);
    }
  }
  parts[0].initially_local = true;
  const GreedyResult r = generate_scheme(system, lists_of({parts}));
  for (mecoff::graph::NodeId v = 0; v < 3; ++v)
    EXPECT_EQ(r.scheme.placement[0][v], Placement::kLocal);
  // The initial objective already accounts for the anchored part.
  const double recomputed = evaluate(system, r.scheme).objective();
  EXPECT_NEAR(r.objective_history.back(), recomputed,
              1e-9 * (1.0 + recomputed));
}

TEST(GreedyGroups, GroupRetreatEscapesPairwiseTrap) {
  // Two parts joined by an enormous internal cut, both coupled to a
  // pinned hub by heavy edges. Moving either part alone exposes the
  // internal cut (bad); moving both together removes all transmission
  // (great). Single-move greedy must stay remote; group moves retreat.
  mecoff::graph::GraphBuilder b;
  const auto hub = b.add_node(1.0);  // pinned
  const auto a1 = b.add_node(10.0);
  const auto a2 = b.add_node(10.0);
  b.add_edge(hub, a1, 50.0);
  b.add_edge(hub, a2, 50.0);
  b.add_edge(a1, a2, 500.0);  // the trap
  UserApp app;
  app.graph = b.build();
  app.unoffloadable = {true, false, false};
  MecSystem system{ext_params(), {app}};

  std::vector<Part> parts(2);
  parts[0].nodes = {a1};
  parts[0].weight = 10.0;
  parts[0].group = 0;
  parts[1].nodes = {a2};
  parts[1].weight = 10.0;
  parts[1].group = 0;

  GreedyOptions single_only;
  single_only.enable_group_moves = false;
  const GreedyResult trapped =
      generate_scheme(system, lists_of({parts}), single_only);
  EXPECT_EQ(trapped.scheme.remote_count(0), 2u);  // stuck

  GreedyOptions with_groups;
  with_groups.enable_group_moves = true;
  const GreedyResult freed =
      generate_scheme(system, lists_of({parts}), with_groups);
  EXPECT_EQ(freed.scheme.remote_count(0), 0u);  // retreated together
  EXPECT_LE(evaluate(system, freed.scheme).objective(),
            evaluate(system, trapped.scheme).objective());
}

TEST(GreedyGroups, GroupMovesNeverWorsenTheObjective) {
  for (const std::uint64_t seed : {3ULL, 5ULL, 7ULL}) {
    mecoff::graph::NetgenParams gp;
    gp.nodes = 80;
    gp.edges = 320;
    gp.components = 2;
    gp.seed = seed;
    UserApp app;
    app.graph = mecoff::graph::netgen_style(gp);
    MecSystem system{ext_params(), {app}};

    // Parts: split each half of the node range, grouped per half.
    std::vector<Part> parts(4);
    for (std::size_t i = 0; i < 4; ++i) {
      parts[i].group = i / 2;
      for (mecoff::graph::NodeId v = static_cast<mecoff::graph::NodeId>(
               i * 20);
           v < (i + 1) * 20; ++v) {
        parts[i].nodes.push_back(v);
        parts[i].weight += app.graph.node_weight(v);
      }
    }
    GreedyOptions off;
    off.enable_group_moves = false;
    GreedyOptions on;
    on.enable_group_moves = true;
    const double obj_off =
        evaluate(system, generate_scheme(system, lists_of({parts}), off).scheme)
            .objective();
    const double obj_on =
        evaluate(system, generate_scheme(system, lists_of({parts}), on).scheme)
            .objective();
    EXPECT_LE(obj_on, obj_off + 1e-9) << "seed " << seed;
  }
}

/// Reference implementation: the naive O(P) argmin scan per round,
/// recomputing everything from scratch. Candidates are the single parts
/// and, with `group_moves`, each (user, group) of two or more parts; a
/// candidate moves its still-remote members local. The lazy queue must
/// reproduce its scheme exactly.
OffloadingScheme reference_greedy(const MecSystem& system,
                                  const std::vector<UserPart>& parts,
                                  bool group_moves = false) {
  OffloadingScheme scheme = OffloadingScheme::all_local(system);
  std::vector<bool> remote(parts.size(), true);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].initially_local) {
      remote[i] = false;
      continue;
    }
    for (const mecoff::graph::NodeId v : parts[i].nodes)
      scheme.placement[parts[i].user][v] = Placement::kRemote;
  }
  std::vector<std::vector<std::size_t>> candidates;
  for (std::size_t i = 0; i < parts.size(); ++i) candidates.push_back({i});
  if (group_moves) {
    std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>>
        groups;
    for (std::size_t i = 0; i < parts.size(); ++i)
      if (parts[i].group != SIZE_MAX)
        groups[{parts[i].user, parts[i].group}].push_back(i);
    for (const auto& [key, members] : groups)
      if (members.size() >= 2) candidates.push_back(members);
  }
  double current = evaluate(system, scheme).objective();
  while (true) {
    double best_obj = current;
    std::vector<std::size_t> best;
    for (const std::vector<std::size_t>& candidate : candidates) {
      std::vector<std::size_t> move;
      for (const std::size_t i : candidate)
        if (remote[i]) move.push_back(i);
      if (move.empty()) continue;
      OffloadingScheme trial = scheme;
      for (const std::size_t i : move)
        for (const mecoff::graph::NodeId v : parts[i].nodes)
          trial.placement[parts[i].user][v] = Placement::kLocal;
      const double obj = evaluate(system, trial).objective();
      if (obj < best_obj - 1e-12) {
        best_obj = obj;
        best = std::move(move);
      }
    }
    if (best.empty()) break;
    for (const std::size_t i : best) {
      for (const mecoff::graph::NodeId v : parts[i].nodes)
        scheme.placement[parts[i].user][v] = Placement::kLocal;
      remote[i] = false;
    }
    current = best_obj;
  }
  return scheme;
}

TEST(GreedyLazyQueue, MatchesNaiveReferenceGreedy) {
  for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL, 44ULL}) {
    mecoff::graph::NetgenParams gp;
    gp.nodes = 60;
    gp.edges = 240;
    gp.components = 3;
    gp.seed = seed;
    UserApp proto;
    proto.graph = mecoff::graph::netgen_style(gp);
    MecSystem system{ext_params(), {proto, proto}};

    // 6 parts per user: ranges of 10 nodes.
    std::vector<std::vector<Part>> parts(2);
    for (std::size_t u = 0; u < 2; ++u) {
      for (std::size_t k = 0; k < 6; ++k) {
        Part part;
        for (mecoff::graph::NodeId v =
                 static_cast<mecoff::graph::NodeId>(k * 10);
             v < (k + 1) * 10; ++v) {
          part.nodes.push_back(v);
          part.weight += proto.graph.node_weight(v);
        }
        parts[u].push_back(std::move(part));
      }
    }

    GreedyOptions opts;
    opts.enable_group_moves = false;
    const GreedyResult fast = generate_scheme(system, lists_of(parts), opts);
    const OffloadingScheme reference =
        reference_greedy(system, flatten(parts));
    for (std::size_t u = 0; u < 2; ++u)
      EXPECT_EQ(fast.scheme.placement[u], reference.placement[u])
          << "seed " << seed << " user " << u;
  }
}

TEST(GreedyLazyQueue, MatchesReferenceWithGroupsPinnedAndLocalParts) {
  // Three users with distinct graphs. Every 7th node is pinned; the rest
  // are cut into 8-node-range parts, paired into groups whose ranges
  // straddle the generator's component boundaries, so parts of different
  // groups are adjacent. Some parts start local.
  std::size_t total_moves = 0;
  for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL, 44ULL, 55ULL}) {
    std::vector<UserApp> users;
    std::vector<std::vector<Part>> parts(3);
    for (std::size_t u = 0; u < 3; ++u) {
      mecoff::graph::NetgenParams gp;
      gp.nodes = 48 + 8 * u;
      gp.edges = 4 * gp.nodes;
      gp.components = 3;
      gp.seed = seed * 10 + u;
      UserApp app;
      app.graph = mecoff::graph::netgen_style(gp);
      app.unoffloadable.assign(gp.nodes, false);
      for (std::size_t v = 0; v < gp.nodes; v += 7) app.unoffloadable[v] = true;

      std::vector<std::size_t> group_of_node(gp.nodes, SIZE_MAX);
      for (std::size_t k = 0; k < gp.nodes / 8; ++k) {
        Part part;
        part.group = k / 2;
        part.initially_local = (k + seed) % 5 == 0;
        for (auto v = static_cast<mecoff::graph::NodeId>(k * 8);
             v < (k + 1) * 8; ++v) {
          if (app.unoffloadable[v]) continue;
          part.nodes.push_back(v);
          part.weight += app.graph.node_weight(v);
          group_of_node[v] = part.group;
        }
        parts[u].push_back(std::move(part));
      }
      std::size_t cross_group_edges = 0;
      for (const mecoff::graph::Edge& e : app.graph.edges())
        if (group_of_node[e.u] != SIZE_MAX && group_of_node[e.v] != SIZE_MAX &&
            group_of_node[e.u] != group_of_node[e.v])
          ++cross_group_edges;
      ASSERT_GT(cross_group_edges, 0u) << "seed " << seed << " user " << u;
      users.push_back(std::move(app));
    }
    const MecSystem system{ext_params(), users};

    for (const bool group_moves : {false, true}) {
      GreedyOptions opts;
      opts.enable_group_moves = group_moves;
      const GreedyResult fast =
          generate_scheme(system, lists_of(parts), opts);
      const OffloadingScheme reference =
          reference_greedy(system, flatten(parts), group_moves);
      total_moves += fast.moves;
      for (std::size_t u = 0; u < system.num_users(); ++u)
        EXPECT_EQ(fast.scheme.placement[u], reference.placement[u])
            << "seed " << seed << " groups " << group_moves << " user " << u;
    }
  }
  EXPECT_GT(total_moves, 0u);
}

TEST(GreedyCongestion, ConvexWaitCapsOffloadedAmount) {
  // With strong congestion, doubling the work should NOT double the
  // offloaded amount: the cap is capacity-determined.
  SystemParams p = ext_params();
  p.contention_factor = 5.0;
  p.server_capacity = 50.0;

  const auto offloaded_for = [&](std::size_t num_parts) {
    mecoff::graph::GraphBuilder b;
    std::vector<Part> parts;
    for (std::size_t i = 0; i < num_parts; ++i) {
      const auto v = b.add_node(40.0);
      Part part;
      part.nodes = {v};
      part.weight = 40.0;
      parts.push_back(std::move(part));
    }
    UserApp app;
    app.graph = b.build();
    MecSystem system{p, {app}};
    const GreedyResult r = generate_scheme(system, lists_of({parts}));
    double remote = 0.0;
    for (std::size_t i = 0; i < num_parts; ++i)
      if (r.scheme.placement[0][i] == Placement::kRemote) remote += 40.0;
    return remote;
  };

  const double small = offloaded_for(4);
  const double large = offloaded_for(16);
  EXPECT_GT(small, 0.0);
  EXPECT_LT(large, 4.0 * small);  // strictly sublinear growth
}


/// A content-equal copy of `g` with its own payload: same nodes, edges
/// and weights, built anew, so no user holding it shares a graph
/// payload with a user holding `g`.
mecoff::graph::WeightedGraph rebuilt(const mecoff::graph::WeightedGraph& g) {
  mecoff::graph::GraphBuilder builder;
  for (mecoff::graph::NodeId v = 0; v < g.num_nodes(); ++v)
    builder.add_node(g.node_weight(v));
  for (const mecoff::graph::Edge& e : g.edges())
    builder.add_edge(e.u, e.v, e.weight);
  return builder.build();
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  for (const double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

/// `got` and `want` agree in placements, moves and objective bits.
void expect_bitwise_equal(const GreedyResult& got, const GreedyResult& want,
                          const std::string& where) {
  EXPECT_EQ(got.scheme, want.scheme) << where;
  EXPECT_EQ(got.moves, want.moves) << where;
  EXPECT_EQ(bits_of(got.objective_history), bits_of(want.objective_history))
      << where;
}

TEST(GreedyReplicas, CopiedSetUpMatchesRecomputedBitwise) {
  // 3 prototype graphs × 12 users: make_uniform_system cycles the pool,
  // so user u shares its graph payload with users u ± 3. Every 7th node
  // is pinned; the rest are cut into 8-node-range parts, paired into
  // groups, some starting local. Two users are not replicas although
  // their graphs are equal: kFlipped starts one part local that its
  // prototype (user 1) starts remote, and kRebuilt holds a content-equal
  // rebuild of its graph. Each instance runs with every user's list
  // shared (every user but kFlipped names its graph's list itself),
  // copied (every user holds a list of its own), and copied with every
  // graph rebuilt, so that no user is a replica; all three must agree
  // bit for bit, and shared lists must count the evaluations copied
  // lists count. Every run also runs with the per-user set-up on a
  // pool, which must change nothing, evaluation count included, and
  // every seed is checked bit for bit against the lazy reference
  // greedy with the lowest-id pick.
  constexpr std::size_t kProtos = 3;
  constexpr std::size_t kUsers = 36;
  constexpr std::size_t kFlipped = 7;
  constexpr std::size_t kRebuilt = 11;
  const mecoff::obs::Counter& evaluations =
      mecoff::obs::MetricsRegistry::global().counter(
          "mec.greedy.delta_evaluations");
  mecoff::parallel::ThreadPool workers(4);
  std::size_t total_moves = 0;
  for (const std::uint64_t seed : {3ULL, 5ULL, 8ULL, 13ULL}) {
    // The first seed is the smallest case, small enough for the
    // from-scratch reference greedy.
    const bool smallest = seed == 3;
    std::vector<UserApp> pool;
    std::vector<std::vector<Part>> pool_parts;
    for (std::size_t g = 0; g < kProtos; ++g) {
      mecoff::graph::NetgenParams gp;
      gp.nodes = (smallest ? 24 : 48) + 8 * g;
      gp.edges = 4 * gp.nodes;
      gp.components = 3;
      gp.seed = seed * 10 + g;
      UserApp app;
      app.graph = mecoff::graph::netgen_style(gp);
      app.unoffloadable.assign(gp.nodes, false);
      for (std::size_t v = 0; v < gp.nodes; v += 7) app.unoffloadable[v] = true;
      std::vector<Part> graph_parts;
      for (std::size_t k = 0; k < gp.nodes / 8; ++k) {
        Part part;
        part.group = k / 2;
        part.initially_local = (k + seed) % 5 == 0;
        for (auto v = static_cast<mecoff::graph::NodeId>(k * 8);
             v < (k + 1) * 8; ++v) {
          if (app.unoffloadable[v]) continue;
          part.nodes.push_back(v);
          part.weight += app.graph.node_weight(v);
        }
        graph_parts.push_back(std::move(part));
      }
      pool.push_back(std::move(app));
      pool_parts.push_back(std::move(graph_parts));
    }
    MecSystem system = mecoff::mec::make_uniform_system(ext_params(), pool,
                                                         kUsers);
    system.users[kRebuilt].graph = rebuilt(system.users[kRebuilt].graph);

    std::vector<std::vector<Part>> parts(kUsers);
    std::vector<std::span<const Part>> shared_lists(kUsers);
    for (std::size_t u = 0; u < kUsers; ++u) {
      parts[u] = pool_parts[u % kProtos];
      shared_lists[u] = pool_parts[u % kProtos];
    }
    parts[kFlipped][0].initially_local = !parts[kFlipped][0].initially_local;
    shared_lists[kFlipped] = parts[kFlipped];
    const std::vector<std::span<const Part>> copied_lists = lists_of(parts);
    // Each replica skips exactly its initially-remote single parts.
    std::uint64_t copied_deltas = 0;
    for (std::size_t u = kProtos; u < kUsers; ++u) {
      if (u == kFlipped || u == kRebuilt) continue;
      for (const Part& part : pool_parts[u % kProtos])
        if (!part.initially_local) ++copied_deltas;
    }
    ASSERT_GT(copied_deltas, 0u);

    // The same instance with every graph rebuilt: no user is a replica.
    MecSystem fresh = system;
    for (UserApp& user : fresh.users) user.graph = rebuilt(user.graph);

    for (const bool group_moves : {false, true}) {
      GreedyOptions opts;
      opts.enable_group_moves = group_moves;
      // One greedy run and the delta evaluations it counted.
      struct Run {
        GreedyResult result;
        std::uint64_t evaluations;
      };
      const auto run = [&](const MecSystem& instance,
                           const std::vector<std::span<const Part>>& lists,
                           mecoff::parallel::ThreadPool* on) {
        const std::uint64_t before = evaluations.value();
        GreedyResult result = generate_scheme(instance, lists, opts, on);
        return Run{std::move(result), evaluations.value() - before};
      };
      const Run shared = run(system, shared_lists, nullptr);
      const Run copied = run(system, copied_lists, nullptr);
      const Run computed = run(fresh, copied_lists, nullptr);
      const Run shared_pooled = run(system, shared_lists, &workers);
      const Run copied_pooled = run(system, copied_lists, &workers);
      const Run computed_pooled = run(fresh, copied_lists, &workers);

      const GreedyResult want = mecoff::mec::reference_lazy_greedy(
          system, flatten(parts), opts, mecoff::mec::Pick::kLowestId);

      const std::string where = "seed " + std::to_string(seed) +
                                " groups " + std::to_string(group_moves);
      expect_bitwise_equal(copied.result, computed.result, where);
      expect_bitwise_equal(shared.result, copied.result, where + " shared");
      expect_bitwise_equal(copied.result, want, where + " reference");
      expect_bitwise_equal(copied_pooled.result, copied.result,
                           where + " pooled");
      expect_bitwise_equal(shared_pooled.result, copied.result,
                           where + " pooled, shared");
      expect_bitwise_equal(copied_pooled.result, want,
                           where + " pooled, reference");
      expect_bitwise_equal(computed_pooled.result, computed.result,
                           where + " pooled, rebuilt");
      EXPECT_EQ(computed.evaluations - copied.evaluations, copied_deltas)
          << where;
      EXPECT_EQ(shared.evaluations, copied.evaluations) << where;
      EXPECT_EQ(copied_pooled.evaluations, copied.evaluations) << where;
      EXPECT_EQ(shared_pooled.evaluations, copied.evaluations) << where;
      EXPECT_EQ(computed_pooled.evaluations, computed.evaluations) << where;
      if (smallest) {
        EXPECT_EQ(copied.result.scheme,
                  reference_greedy(system, flatten(parts), group_moves))
            << "groups " << group_moves;
      }
      total_moves += copied.result.moves;
    }
  }
  EXPECT_GT(total_moves, 0u);
}

}  // namespace greedy_extensions

// ---- Differential: generate_scheme against the lazy greedy it replaced --

namespace mecoff::mec {
namespace {

// The generate_scheme that took every candidate of the committing user
// out of its class through the map and put it back, and re-evaluated the
// committed candidate's cross delta, kept verbatim (minus its counter)
// but for the pick rule it takes: with Pick::kLowestId, placements,
// moves and objective bits must match generate_scheme's.

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

GreedyResult reference_lazy_greedy(const MecSystem& system,
                                   const std::vector<UserPart>& parts,
                                   const GreedyOptions& options, Pick pick) {
  MECOFF_EXPECTS(system.valid());
  const SystemParams& p = system.params;

  GreedyResult result;
  result.scheme = OffloadingScheme::all_local(system);

  // Scalarized objective factors: moving weight w to the device adds
  // local_factor·w; cross-weight x adds cross_factor·x; the coupled
  // server term (pure time) scales by time_weight.
  const double local_factor = (options.time_weight +
                               options.energy_weight * p.mobile_power) /
                              p.mobile_capacity;
  const double cross_factor = (options.time_weight +
                               options.energy_weight * p.transmit_power) /
                              p.bandwidth;

  // part_of[user][node] = index into `parts` (kNoPart for pinned nodes).
  std::vector<std::vector<std::uint32_t>> part_of(system.num_users());
  for (std::size_t u = 0; u < system.num_users(); ++u)
    part_of[u].assign(system.users[u].graph.num_nodes(), kNoPart);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const UserPart& part = parts[i];
    MECOFF_EXPECTS(part.user < system.num_users());
    for (const graph::NodeId v : part.nodes) {
      MECOFF_EXPECTS(v < part_of[part.user].size());
      MECOFF_EXPECTS(part_of[part.user][v] == kNoPart);  // disjointness
      part_of[part.user][v] = static_cast<std::uint32_t>(i);
      result.scheme.placement[part.user][v] =
          part.initially_local ? Placement::kLocal : Placement::kRemote;
    }
  }

  // Composite-move groups (user-components). Dense group list from the
  // sparse Part::group ids.
  std::vector<std::vector<std::size_t>> group_members;
  if (options.enable_group_moves) {
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> dense;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (parts[i].group == SIZE_MAX) continue;
      const auto key = std::make_pair(parts[i].user, parts[i].group);
      const auto [it, inserted] =
          dense.try_emplace(key, group_members.size());
      if (inserted) group_members.emplace_back();
      group_members[it->second].push_back(i);
    }
    // Singleton groups add nothing over their lone part.
    std::erase_if(group_members,
                  [](const std::vector<std::size_t>& m) {
                    return m.size() < 2;
                  });
  }

  // Candidate id space: [0, P) single parts, [P, P+G) group retreats.
  // A user's candidates in id order: its single parts in index order,
  // then its group retreats.
  const std::size_t num_parts = parts.size();
  const std::size_t num_candidates = num_parts + group_members.size();
  std::vector<std::vector<std::size_t>> candidates_of_user(
      system.num_users());
  for (std::size_t id = 0; id < num_candidates; ++id) {
    const std::size_t user_index =
        id < num_parts ? parts[id].user
                       : parts[group_members[id - num_parts].front()].user;
    candidates_of_user[user_index].push_back(id);
  }
  const auto single_parts = [&](std::size_t u) {
    const std::vector<std::size_t>& ids = candidates_of_user[u];
    return std::span<const std::size_t>(
        ids.begin(), std::lower_bound(ids.begin(), ids.end(), num_parts));
  };

  // Replica users. A user's initial separable state — its aggregates
  // and every single part's delta — depends only on its graph and its
  // parts. A user whose graph shares the payload of the first user
  // holding that graph, and whose parts equal that user's part for part
  // in index order, starts where that user starts, so it copies the
  // state instead of recomputing it. prototype[u] == u: u computes its
  // own.
  std::vector<std::size_t> prototype(system.num_users());
  std::unordered_map<const void*, std::size_t> first_user_of_graph;
  first_user_of_graph.reserve(system.num_users());
  for (std::size_t u = 0; u < system.num_users(); ++u) {
    prototype[u] = u;
    const auto [it, inserted] = first_user_of_graph.try_emplace(
        system.users[u].graph.payload_id(), u);
    if (inserted) continue;
    const auto mine = single_parts(u);
    const auto theirs = single_parts(it->second);
    if (std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end(),
                   [&](std::size_t a, std::size_t b) {
                     return parts[a].nodes == parts[b].nodes &&
                            parts[a].weight == parts[b].weight &&
                            parts[a].initially_local ==
                                parts[b].initially_local;
                   }))
      prototype[u] = it->second;
  }

  // Per-user aggregates under the current placement.
  std::vector<double> user_local_w(system.num_users(), 0.0);
  std::vector<double> user_remote_w(system.num_users(), 0.0);
  std::vector<double> user_cross_w(system.num_users(), 0.0);
  double total_remote = 0.0;
  std::size_t active_users = 0;
  double separable = 0.0;  // Σ (t_c + e_c + t_t + e_t), scalarized

  for (std::size_t u = 0; u < system.num_users(); ++u) {
    if (const std::size_t proto = prototype[u]; proto != u) {
      user_local_w[u] = user_local_w[proto];
      user_remote_w[u] = user_remote_w[proto];
      user_cross_w[u] = user_cross_w[proto];
    } else {
      const UserApp& user = system.users[u];
      for (graph::NodeId v = 0; v < user.graph.num_nodes(); ++v) {
        const double w = user.graph.node_weight(v);
        if (result.scheme.placement[u][v] == Placement::kLocal)
          user_local_w[u] += w;
        else
          user_remote_w[u] += w;
      }
      for (const graph::Edge& e : user.graph.edges())
        if (result.scheme.placement[u][e.u] !=
            result.scheme.placement[u][e.v])
          user_cross_w[u] += e.weight;
    }
    total_remote += user_remote_w[u];
    if (user_remote_w[u] > 0.0) ++active_users;
    separable += user_local_w[u] * local_factor +
                 user_cross_w[u] * cross_factor;
  }

  double objective =
      separable +
      options.time_weight * coupled_time(total_remote, active_users, p);
  result.objective_history.push_back(objective);

  std::vector<std::uint8_t> is_remote(parts.size(), 1);
  for (std::size_t i = 0; i < parts.size(); ++i)
    if (parts[i].initially_local) is_remote[i] = 0;

  // Δcross of moving the still-remote parts in `move` (all same user)
  // from remote to local under the CURRENT placement: edges to remote
  // outsiders become cross (+), edges to local outsiders stop being
  // cross (−); edges internal to the moving set never cross. Scratch
  // membership marks use an epoch stamp so the per-call cost is the
  // moving set's size, not the user's whole graph.
  std::vector<std::uint64_t> in_move_epoch;
  std::uint64_t move_epoch = 0;
  std::size_t delta_evaluations = 0;
  const auto cross_delta = [&](const std::vector<std::size_t>& move) {
    const std::size_t user_index = parts[move.front()].user;
    const UserApp& user = system.users[user_index];
    if (in_move_epoch.size() < user.graph.num_nodes())
      in_move_epoch.resize(user.graph.num_nodes(), 0);
    ++move_epoch;
    ++delta_evaluations;
    for (const std::size_t i : move)
      for (const graph::NodeId v : parts[i].nodes)
        in_move_epoch[v] = move_epoch;
    double delta = 0.0;
    for (const std::size_t i : move) {
      for (const graph::NodeId v : parts[i].nodes) {
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

  // Cached separable delta and moving weight per candidate; only a
  // commit by the SAME user that moves one of its parts or a neighbour
  // of one of its parts can change them, so they are refreshed exactly
  // then. kInvalid marks exhausted candidates.
  constexpr double kInvalid = std::numeric_limits<double>::infinity();
  std::vector<double> cand_sep(num_candidates, kInvalid);
  std::vector<double> cand_weight(num_candidates, 0.0);
  std::vector<std::size_t> cand_user(num_candidates, 0);
  const auto refresh_candidate = [&](std::size_t id) {
    const std::vector<std::size_t>& move = candidate_moves(id);
    if (move.empty()) {
      cand_sep[id] = kInvalid;
      return;
    }
    double weight = 0.0;
    for (const std::size_t i : move) weight += parts[i].weight;
    cand_weight[id] = weight;
    cand_user[id] = parts[move.front()].user;
    cand_sep[id] =
        weight * local_factor + cross_delta(move) * cross_factor;
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
  const auto key_of = [&](std::size_t id) {
    return ClassKey{cand_sep[id], cand_weight[id],
                    user_remote_w[cand_user[id]] - cand_weight[id] <=
                        kImprovementEps};
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
  // validate loop drowns in stale duplicates.
  struct ClassBucket {
    std::vector<std::size_t> ids;
    bool queued = false;
  };
  std::map<ClassKey, ClassBucket> classes;
  std::vector<ClassKey> cand_key(num_candidates);
  std::vector<std::size_t> cand_pos(num_candidates, SIZE_MAX);

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

  const auto insert_candidate = [&](std::size_t id) {
    if (cand_sep[id] == kInvalid) return;
    const ClassKey key = key_of(id);
    cand_key[id] = key;
    ClassBucket& bucket = classes[key];
    cand_pos[id] = bucket.ids.size();
    bucket.ids.push_back(id);
    if (!bucket.queued) {
      bucket.queued = true;
      queue.emplace(class_delta(key), key);
    }
  };
  const auto remove_candidate = [&](std::size_t id) {
    if (cand_pos[id] == SIZE_MAX) return;
    const auto it = classes.find(cand_key[id]);
    std::vector<std::size_t>& ids = it->second.ids;
    const std::size_t last = ids.back();
    ids[cand_pos[id]] = last;
    cand_pos[last] = cand_pos[id];
    ids.pop_back();
    cand_pos[id] = SIZE_MAX;
    if (ids.empty()) classes.erase(it);  // a queued stale entry may
                                         // float; pops skip it safely
  };

  // Parts a commit touched: the moved parts and every part adjacent to
  // a moved node, stamped with the commit's epoch. A candidate without a
  // touched part keeps its move set, part weights and neighbour
  // placements, so its cached separable delta is still exact.
  std::vector<std::uint64_t> touched_epoch(num_parts, 0);
  std::uint64_t commit_epoch = 0;
  const auto touched = [&](std::size_t id) {
    if (id < num_parts) return touched_epoch[id] == commit_epoch;
    for (const std::size_t i : group_members[id - num_parts])
      if (touched_epoch[i] == commit_epoch) return true;
    return false;
  };

  // Initial deltas: every candidate's own, except a replica's single
  // parts, which copy their prototype's counterparts once those are
  // computed (parts may interleave across users). Insertion stays in id
  // order, so class-bucket order — the tie-break — is unchanged.
  for (std::size_t id = 0; id < num_candidates; ++id)
    if (id >= num_parts || prototype[parts[id].user] == parts[id].user)
      refresh_candidate(id);
  for (std::size_t u = 0; u < system.num_users(); ++u) {
    if (prototype[u] == u) continue;
    const auto to = single_parts(u);
    const auto from = single_parts(prototype[u]);
    for (std::size_t k = 0; k < to.size(); ++k) {
      cand_sep[to[k]] = cand_sep[from[k]];
      cand_weight[to[k]] = cand_weight[from[k]];
      cand_user[to[k]] = u;
    }
  }
  for (std::size_t id = 0; id < num_candidates; ++id) insert_candidate(id);

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
        best = pick == Pick::kBucketBack
                   ? it->second.ids.back()  // members are interchangeable
                   : *std::min_element(it->second.ids.begin(),
                                       it->second.ids.end());
        best_key = key;
        best_delta = fresh;
        break;
      }
      queue.emplace(fresh, key);  // single live entry, refreshed key
    }
    if (best == SIZE_MAX || best_delta >= -kImprovementEps) {
      // Leave consistent state for a hypothetical continuation.
      if (best != SIZE_MAX) {
        const auto it = classes.find(best_key);
        if (it != classes.end() && !it->second.queued) {
          it->second.queued = true;
          queue.emplace(best_delta, best_key);
        }
      }
      break;
    }

    // Commit: move every still-remote part of the candidate local.
    const std::vector<std::size_t> move = candidate_moves(best);
    MECOFF_ENSURES(!move.empty());
    const std::size_t user_index = parts[move.front()].user;
    const graph::WeightedGraph& g = system.users[user_index].graph;
    const double dx = cross_delta(move);
    double weight = 0.0;
    ++commit_epoch;
    for (const std::size_t i : move) {
      weight += parts[i].weight;
      touched_epoch[i] = commit_epoch;
      for (const graph::NodeId v : parts[i].nodes) {
        result.scheme.placement[user_index][v] = Placement::kLocal;
        for (const graph::Adjacency& adj : g.neighbors(v))
          if (const std::uint32_t j = part_of[user_index][adj.neighbor];
              j != kNoPart)
            touched_epoch[j] = commit_epoch;
      }
      is_remote[i] = 0;
    }
    user_local_w[user_index] += weight;
    user_remote_w[user_index] -= weight;
    if (user_remote_w[user_index] <= kImprovementEps) {
      user_remote_w[user_index] = 0.0;
      --active_users;
    }
    user_cross_w[user_index] += dx;
    total_remote -= weight;
    if (total_remote < 0.0) total_remote = 0.0;
    separable += weight * local_factor + dx * cross_factor;
    objective = separable + options.time_weight *
                                coupled_time(total_remote, active_users, p);
    result.objective_history.push_back(objective);
    ++result.moves;

    // This user's deactivation flag changed for every candidate, and the
    // touched ones also changed cross weights or remaining group members:
    // re-class them all, in the same order, with fresh queue entries so
    // the lazy queue's lower-bound invariant and bucket order hold.
    for (const std::size_t id : candidates_of_user[user_index]) {
      remove_candidate(id);
      if (touched(id)) refresh_candidate(id);
      insert_candidate(id);
    }
    // The selected class consumed its queue entry; if it survived the
    // refresh with members left, give it a fresh one.
    if (const auto it = classes.find(best_key);
        it != classes.end() && !it->second.queued) {
      it->second.queued = true;
      queue.emplace(class_delta(best_key), best_key);
    }
  }

  return result;
}

/// Parts as the pipeline cuts them: a user's offloadable nodes in
/// 6-node ranges, two ranges per group (a component's two cut sides).
/// With `anchor` (the pipeline's anchor_initial_parts), some groups
/// start one side local.
std::vector<Part> ranged_parts(const UserApp& app, bool anchor,
                               std::uint64_t seed) {
  constexpr std::size_t kRange = 6;
  std::vector<Part> parts;
  const std::size_t n = app.graph.num_nodes();
  for (std::size_t k = 0; k * kRange < n; ++k) {
    Part part;
    part.group = k / 2;
    part.initially_local = anchor && (k + seed) % 5 == 1;
    for (std::size_t v = k * kRange; v < std::min(n, (k + 1) * kRange); ++v) {
      if (app.unoffloadable[v]) continue;
      part.nodes.push_back(static_cast<graph::NodeId>(v));
      part.weight += app.graph.node_weight(static_cast<graph::NodeId>(v));
    }
    if (!part.nodes.empty()) parts.push_back(std::move(part));
  }
  return parts;
}

/// A netgen graph of `nodes` nodes with every 9th node pinned.
UserApp pinned_netgen_user(std::size_t nodes, std::uint64_t seed) {
  graph::NetgenParams gp;
  gp.nodes = nodes;
  gp.edges = 4 * nodes;
  gp.components = 3;
  gp.seed = seed;
  UserApp app;
  app.graph = graph::netgen_style(gp);
  app.unoffloadable.assign(nodes, false);
  for (std::size_t v = 0; v < nodes; v += 9) app.unoffloadable[v] = true;
  return app;
}

TEST(GreedyLazyQueue, MatchesReferenceLazyGreedyBitwise) {
  // Which of several tied candidates the greedy commits — the lowest id
  // in its class — shows up only in which user's placement moves, so
  // the lowest-id reference must agree bit for bit, not just in
  // objective. The reference that committed the back of a swap-removed
  // bucket must still agree in moves and objective bits everywhere,
  // and in placements wherever no two users tie. Replica-heavy systems
  // (many users over 3 prototypes) fill class buckets with bitwise
  // ties; distinct-user systems make one-member classes. The parameter
  // sets range from a roomy server to a tiny congested one, so users
  // retreat completely and untouched candidates flip their deactivation
  // flag. Every system also runs with the per-user set-up on a pool.
  parallel::ThreadPool workers(4);
  std::vector<SystemParams> param_sets;
  for (const auto& [capacity, contention, transmit] :
       {std::tuple{100.0, 0.5, 8.0}, std::tuple{30.0, 4.0, 8.0},
        std::tuple{300.0, 0.1, 2.0}, std::tuple{60.0, 1.0, 40.0}}) {
    SystemParams p;
    p.mobile_power = 1.0;
    p.transmit_power = transmit;
    p.bandwidth = 10.0;
    p.mobile_capacity = 4.0;
    p.server_capacity = capacity;
    p.contention_factor = contention;
    param_sets.push_back(p);
  }
  std::size_t total_moves = 0;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL}) {
    for (const bool replicas : {true, false}) {
      std::vector<UserApp> users;
      if (replicas) {
        std::vector<UserApp> pool;
        for (std::size_t g = 0; g < 3; ++g)
          pool.push_back(pinned_netgen_user(30 + 6 * g, seed * 10 + g));
        users = make_uniform_system(SystemParams{}, pool, 40).users;
      } else {
        for (std::size_t u = 0; u < 8; ++u)
          users.push_back(pinned_netgen_user(30 + 3 * u, seed * 100 + u));
      }
      for (const bool anchor : {true, false}) {
        std::vector<std::vector<Part>> parts;
        for (const UserApp& user : users)
          parts.push_back(ranged_parts(user, anchor, seed));
        const std::vector<UserPart> flat = flatten(parts);
        for (const SystemParams& params : param_sets) {
          const MecSystem system{params, users};
          for (const bool group_moves : {false, true}) {
            GreedyOptions opts;
            opts.enable_group_moves = group_moves;
            const GreedyResult got =
                generate_scheme(system, lists_of(parts), opts);
            const GreedyResult pooled =
                generate_scheme(system, lists_of(parts), opts, &workers);
            const GreedyResult want =
                reference_lazy_greedy(system, flat, opts, Pick::kLowestId);
            const GreedyResult bucket_back =
                reference_lazy_greedy(system, flat, opts, Pick::kBucketBack);
            const std::string where =
                "seed " + std::to_string(seed) + " replicas " +
                std::to_string(replicas) + " anchor " +
                std::to_string(anchor) + " capacity " +
                std::to_string(params.server_capacity) + " groups " +
                std::to_string(group_moves);
            greedy_extensions::expect_bitwise_equal(got, want, where);
            greedy_extensions::expect_bitwise_equal(pooled, got,
                                                    where + " pooled");
            greedy_extensions::expect_bitwise_equal(
                pooled, want, where + " pooled, reference");
            EXPECT_EQ(got.moves, bucket_back.moves) << where;
            EXPECT_EQ(greedy_extensions::bits_of(got.objective_history),
                      greedy_extensions::bits_of(
                          bucket_back.objective_history))
                << where;
            if (!replicas) {
              EXPECT_EQ(got.scheme, bucket_back.scheme) << where;
            }
            total_moves += got.moves;
          }
        }
      }
    }
  }
  EXPECT_GT(total_moves, 0u);
}

}  // namespace
}  // namespace mecoff::mec
