// Unit tests for Algorithm 2: monotone objective, consistency of the
// incremental bookkeeping with the full cost model, and termination.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <utility>

#include "common/contracts.hpp"
#include "graph/generators.hpp"
#include "mec/costs.hpp"
#include "mec/greedy.hpp"
#include "obs/metrics.hpp"

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

/// Parts = the two cliques of the barbell.
std::vector<Part> barbell_parts(const MecSystem& system, std::size_t user) {
  std::vector<Part> parts(2);
  for (std::uint8_t half = 0; half < 2; ++half) {
    Part& part = parts[half];
    part.user = user;
    for (graph::NodeId v = half * 4u; v < (half + 1) * 4u; ++v) {
      part.nodes.push_back(v);
      part.weight += system.users[user].graph.node_weight(v);
    }
  }
  return parts;
}

TEST(Greedy, ObjectiveHistoryStrictlyDecreases) {
  MecSystem system{test_params(), {barbell_user(), barbell_user()}};
  std::vector<Part> parts = barbell_parts(system, 0);
  for (Part& p : barbell_parts(system, 1)) parts.push_back(p);
  const GreedyResult r = generate_scheme(system, parts);
  for (std::size_t i = 1; i < r.objective_history.size(); ++i)
    EXPECT_LT(r.objective_history[i], r.objective_history[i - 1]);
}

TEST(Greedy, IncrementalObjectiveMatchesEvaluate) {
  MecSystem system{test_params(), {barbell_user(), barbell_user()}};
  std::vector<Part> parts = barbell_parts(system, 0);
  for (Part& p : barbell_parts(system, 1)) parts.push_back(p);
  const GreedyResult r = generate_scheme(system, parts);
  const SystemCost cost = evaluate(system, r.scheme);
  EXPECT_NEAR(r.objective_history.back(), cost.objective(),
              1e-9 * (1.0 + cost.objective()));
}

TEST(Greedy, FinalSchemeBeatsBothExtremes) {
  // Mobile is slow (heavy compute worth offloading), bridge is light —
  // the greedy should land strictly between all-local and all-remote...
  // or at least never above either.
  MecSystem system{test_params(), {barbell_user()}};
  const GreedyResult r = generate_scheme(system, barbell_parts(system, 0));
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
  parts[0].user = 0;
  parts[0].nodes = {1, 2};
  parts[0].weight = 2.0;
  parts[1].user = 0;
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
  const GreedyResult r = generate_scheme(system, parts);
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
  const GreedyResult r = generate_scheme(system, barbell_parts(system, 0));
  EXPECT_EQ(r.scheme.remote_count(0), 8u);
  EXPECT_EQ(r.moves, 0u);
}

TEST(Greedy, EmptyPartsGivesAllLocal) {
  MecSystem system{test_params(), {barbell_user()}};
  const GreedyResult r = generate_scheme(system, {});
  EXPECT_EQ(r.scheme.remote_count(0), 0u);
  EXPECT_EQ(r.moves, 0u);
  EXPECT_EQ(r.objective_history.size(), 1u);
}

TEST(Greedy, MaxMovesCapRespected) {
  SystemParams p = test_params();
  p.transmit_power = 1000.0;
  p.bandwidth = 0.1;
  std::vector<Part> parts;
  const MecSystem system = chain_system(p, parts);
  GreedyOptions opts;
  opts.max_moves = 1;
  const GreedyResult r = generate_scheme(system, parts, opts);
  EXPECT_EQ(r.moves, 1u);
  EXPECT_EQ(r.scheme.remote_count(0), 2u);  // one part still remote
}

TEST(Greedy, OverlappingPartsRejected) {
  MecSystem system{test_params(), {barbell_user()}};
  std::vector<Part> parts = barbell_parts(system, 0);
  parts[1].nodes.push_back(parts[0].nodes[0]);  // overlap
  EXPECT_THROW(generate_scheme(system, parts), mecoff::PreconditionError);
}

TEST(Greedy, PinnedNodesStayLocalThroughout) {
  UserApp app = barbell_user();
  app.unoffloadable = {true, false, false, false, false, false, false, false};
  MecSystem system{test_params(), {app}};
  // Parts exclude the pinned node.
  std::vector<Part> parts(2);
  parts[0].user = 0;
  for (graph::NodeId v = 1; v < 4; ++v) {
    parts[0].nodes.push_back(v);
    parts[0].weight += app.graph.node_weight(v);
  }
  parts[1].user = 0;
  for (graph::NodeId v = 4; v < 8; ++v) {
    parts[1].nodes.push_back(v);
    parts[1].weight += app.graph.node_weight(v);
  }
  const GreedyResult r = generate_scheme(system, parts);
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
  std::vector<Part> parts;
  for (std::size_t u = 0; u < system.num_users(); ++u)
    for (Part& part : barbell_parts(system, u)) parts.push_back(part);
  const GreedyResult r = generate_scheme(system, parts);
  std::size_t total_remote = 0;
  for (std::size_t u = 0; u < system.num_users(); ++u)
    total_remote += r.scheme.remote_count(u);
  EXPECT_LT(total_remote, 12u * 8u);  // not everyone stays remote

  // Single-user reference keeps everything remote.
  MecSystem solo{p, {barbell_user()}};
  const GreedyResult solo_r = generate_scheme(solo, barbell_parts(solo, 0));
  EXPECT_EQ(solo_r.scheme.remote_count(0), 8u);
}

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
using mecoff::mec::evaluate;
using mecoff::mec::generate_scheme;

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
    parts[half].user = 0;
    for (mecoff::graph::NodeId v = half * 3u; v < (half + 1) * 3u; ++v) {
      parts[half].nodes.push_back(v);
      parts[half].weight += app.graph.node_weight(v);
    }
  }
  parts[0].initially_local = true;
  const GreedyResult r = generate_scheme(system, parts);
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
  parts[0].user = 0;
  parts[0].nodes = {a1};
  parts[0].weight = 10.0;
  parts[0].group = 0;
  parts[1].user = 0;
  parts[1].nodes = {a2};
  parts[1].weight = 10.0;
  parts[1].group = 0;

  GreedyOptions single_only;
  single_only.enable_group_moves = false;
  const GreedyResult trapped = generate_scheme(system, parts, single_only);
  EXPECT_EQ(trapped.scheme.remote_count(0), 2u);  // stuck

  GreedyOptions with_groups;
  with_groups.enable_group_moves = true;
  const GreedyResult freed = generate_scheme(system, parts, with_groups);
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
      parts[i].user = 0;
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
        evaluate(system, generate_scheme(system, parts, off).scheme)
            .objective();
    const double obj_on =
        evaluate(system, generate_scheme(system, parts, on).scheme)
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
                                  const std::vector<Part>& parts,
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
    std::vector<Part> parts;
    for (std::size_t u = 0; u < 2; ++u) {
      for (std::size_t k = 0; k < 6; ++k) {
        Part part;
        part.user = u;
        for (mecoff::graph::NodeId v =
                 static_cast<mecoff::graph::NodeId>(k * 10);
             v < (k + 1) * 10; ++v) {
          part.nodes.push_back(v);
          part.weight += proto.graph.node_weight(v);
        }
        parts.push_back(std::move(part));
      }
    }

    GreedyOptions opts;
    opts.enable_group_moves = false;
    const GreedyResult fast = generate_scheme(system, parts, opts);
    const OffloadingScheme reference = reference_greedy(system, parts);
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
    std::vector<Part> parts;
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
        part.user = u;
        part.group = k / 2;
        part.initially_local = (k + seed) % 5 == 0;
        for (auto v = static_cast<mecoff::graph::NodeId>(k * 8);
             v < (k + 1) * 8; ++v) {
          if (app.unoffloadable[v]) continue;
          part.nodes.push_back(v);
          part.weight += app.graph.node_weight(v);
          group_of_node[v] = part.group;
        }
        parts.push_back(std::move(part));
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
      const GreedyResult fast = generate_scheme(system, parts, opts);
      const OffloadingScheme reference =
          reference_greedy(system, parts, group_moves);
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
      part.user = 0;
      part.nodes = {v};
      part.weight = 40.0;
      parts.push_back(std::move(part));
    }
    UserApp app;
    app.graph = b.build();
    MecSystem system{p, {app}};
    const GreedyResult r = generate_scheme(system, parts);
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

TEST(GreedyReplicas, CopiedSetUpMatchesRecomputedBitwise) {
  // 3 prototype graphs × 12 users: make_uniform_system cycles the pool,
  // so user u shares its graph payload with users u ± 3. Every 7th node
  // is pinned; the rest are cut into 8-node-range parts, paired into
  // groups, some starting local. Two users are not replicas although
  // their graphs are equal: kFlipped starts one part local that its
  // prototype (user 1) starts remote, and kRebuilt holds a content-equal
  // rebuild of its graph. The parts vector interleaves users in a
  // rotating order, so some replicas' parts precede their prototype's.
  constexpr std::size_t kProtos = 3;
  constexpr std::size_t kUsers = 36;
  constexpr std::size_t kFlipped = 7;
  constexpr std::size_t kRebuilt = 11;
  const mecoff::obs::Counter& evaluations =
      mecoff::obs::MetricsRegistry::global().counter(
          "mec.greedy.delta_evaluations");
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

    std::vector<Part> parts;
    for (std::size_t k = 0; k < pool_parts.back().size(); ++k) {
      for (std::size_t j = 0; j < kUsers; ++j) {
        const std::size_t u = (5 * j + k) % kUsers;
        if (k >= pool_parts[u % kProtos].size()) continue;
        Part part = pool_parts[u % kProtos][k];
        part.user = u;
        if (u == kFlipped && k == 0) part.initially_local = !part.initially_local;
        parts.push_back(std::move(part));
      }
    }
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
      const std::uint64_t before = evaluations.value();
      const GreedyResult copied = generate_scheme(system, parts, opts);
      const std::uint64_t between = evaluations.value();
      const GreedyResult computed = generate_scheme(fresh, parts, opts);
      const std::uint64_t after = evaluations.value();

      EXPECT_EQ(copied.scheme, computed.scheme)
          << "seed " << seed << " groups " << group_moves;
      EXPECT_EQ(copied.moves, computed.moves)
          << "seed " << seed << " groups " << group_moves;
      EXPECT_EQ(bits_of(copied.objective_history),
                bits_of(computed.objective_history))
          << "seed " << seed << " groups " << group_moves;
      EXPECT_EQ((after - between) - (between - before), copied_deltas)
          << "seed " << seed << " groups " << group_moves;
      if (smallest) {
        EXPECT_EQ(copied.scheme, reference_greedy(system, parts, group_moves))
            << "groups " << group_moves;
      }
      total_moves += copied.moves;
    }
  }
  EXPECT_GT(total_moves, 0u);
}

}  // namespace greedy_extensions
