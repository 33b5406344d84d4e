#include "mec/offloader.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "common/contracts.hpp"
#include "common/stopwatch.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "obs/request_id.hpp"

namespace mecoff::mec {

PipelineOffloader::PipelineOffloader(PipelineOptions options)
    : options_(std::move(options)) {}

std::string PipelineOffloader::name() const {
  switch (options_.backend) {
    case CutBackend::kSpectral: return "spectral";
    case CutBackend::kMaxFlow: return "maxflow";
    case CutBackend::kKernighanLin: return "kl";
  }
  return "unknown";
}

std::unique_ptr<graph::Bipartitioner> PipelineOffloader::make_cutter() const {
  switch (options_.backend) {
    case CutBackend::kSpectral:
      return std::make_unique<spectral::SpectralBipartitioner>(
          options_.spectral);
    case CutBackend::kMaxFlow:
      return std::make_unique<mincut::MaxFlowBipartitioner>(options_.maxflow);
    case CutBackend::kKernighanLin:
      return std::make_unique<kl::KernighanLinBipartitioner>();
  }
  throw PreconditionError("unknown cut backend");
}

OffloadingScheme PipelineOffloader::solve(const MecSystem& system) {
  MECOFF_EXPECTS(system.valid());
  MECOFF_TRACE_SPAN_ARG("mec.solve", system.num_users());
  MECOFF_COUNTER_ADD("mec.solve.count", 1);
  stats_ = SolveStats{};
  Stopwatch total_timer;
  // Read once on the calling thread: pool workers running solve_user
  // carry no request scope of their own.
  const std::uint64_t request_id = obs::current_request_id();

  // Degrade-don't-die budget, shared read-only by every task (steady
  // clock reads are thread-safe). Checked between sub-graph cuts.
  const double deadline_seconds = options_.deadline.seconds;
  const auto deadline_expired = [&total_timer, deadline_seconds] {
    return deadline_seconds >= 0.0 &&
           total_timer.elapsed_seconds() >= deadline_seconds;
  };

  // What one sub-graph's cut produces. Each index of the cut loop
  // writes only its own slot.
  struct ComponentCut {
    std::vector<Part> parts;
    bool nonconverged = false;
    bool kl_fallback = false;
    bool all_remote = false;
  };

  // Everything one per-user task produces. Tasks write only their own
  // slot; stats are merged on the calling thread after the join, so
  // SolveStats accumulation is race-free by construction.
  struct UserSolve {
    std::vector<Part> parts;
    lpa::CompressionStats compression;
    double compress_seconds = 0.0;
    double cut_seconds = 0.0;
    std::size_t spectral_nonconverged = 0;
    std::size_t fallback_kl_cuts = 0;
    std::size_t fallback_all_remote = 0;
  };

  // Parts for one user, computed from scratch.
  const auto solve_user = [&](std::size_t u) {
    MECOFF_TRACE_SPAN_ARG("mec.solve_user", u);
    UserSolve out;
    const UserApp& user = system.users[u];
    const std::vector<bool> mask =
        user.unoffloadable.empty()
            ? std::vector<bool>(user.graph.num_nodes(), false)
            : user.unoffloadable;
    Stopwatch compress_timer;
    const lpa::CompressionPipelineResult pipeline = [&] {
      MECOFF_TRACE_SPAN_ARG("mec.compress", u);
      return lpa::compress_application(
          user.graph, mask, options_.propagation, options_.pool,
          user.components.empty() ? nullptr : &user.components);
    }();
    out.compress_seconds = compress_timer.elapsed_seconds();
    MECOFF_QUANTILES_RECORD_ID("mec.user.compress_seconds",
                               out.compress_seconds, request_id);
    out.compression = pipeline.aggregate_stats();

    Stopwatch cut_timer;
    MECOFF_TRACE_SPAN_ARG("mec.cut", u);
    std::vector<ComponentCut> cuts(pipeline.components.size());

    // Algorithm 1's per-sub-graph process. Each call builds its own
    // cutter and KL fallback: every backend seeds a fresh RNG per
    // bipartition() call, so private cutters yield the same cuts as
    // one shared cutter while keeping sub-graphs free of shared
    // mutable state.
    const auto cut_component = [&](std::size_t c) {
      MECOFF_TRACE_SPAN_ARG("mec.cut.component", c);
      ComponentCut& result = cuts[c];
      const lpa::CompressedComponent& comp = pipeline.components[c];

      // The terminal leg of the fallback chain: the whole sub-graph as
      // one uncut all-remote part (the greedy may still retreat it to
      // the device as a unit).
      const auto all_remote = [&] {
        Part part;
        part.group = c;
        for (graph::NodeId super = 0;
             super < comp.compression.compressed.num_nodes(); ++super) {
          for (const graph::NodeId orig :
               pipeline.original_members(c, super)) {
            part.nodes.push_back(orig);
            part.weight += user.graph.node_weight(orig);
          }
        }
        if (!part.nodes.empty()) result.parts.push_back(std::move(part));
        result.all_remote = true;
      };

      if (deadline_expired()) {
        all_remote();
        return;
      }
      const std::unique_ptr<graph::Bipartitioner> cutter = make_cutter();
      // Non-convergence is only observable on the spectral backend.
      auto* spectral_cutter =
          options_.backend == CutBackend::kSpectral
              ? static_cast<spectral::SpectralBipartitioner*>(cutter.get())
              : nullptr;
      graph::Bipartition cut =
          cutter->bipartition(comp.compression.compressed);
      if (spectral_cutter != nullptr && !spectral_cutter->last_converged()) {
        // Fallback chain: a below-tolerance Fiedler vector is a guess,
        // not a cut — recut combinatorially (KL) while budget remains,
        // else degrade the sub-graph to all-remote.
        result.nonconverged = true;
        if (deadline_expired()) {
          all_remote();
          return;
        }
        cut = kl::KernighanLinBipartitioner().bipartition(
            comp.compression.compressed);
        result.kl_fallback = true;
      }

      // One part per non-empty cut side, in ORIGINAL node ids.
      std::array<Part, 2> sides;
      std::array<double, 2> pinned_boundary{0.0, 0.0};
      for (std::uint8_t side = 0; side <= 1; ++side) {
        Part& part = sides[side];
        part.group = c;  // enables the whole-component retreat move
        for (graph::NodeId super = 0;
             super < comp.compression.compressed.num_nodes(); ++super) {
          if (cut.side[super] != side) continue;
          for (const graph::NodeId orig :
               pipeline.original_members(c, super)) {
            part.nodes.push_back(orig);
            part.weight += user.graph.node_weight(orig);
            // Data exchanged with pinned (device-anchored) functions.
            for (const graph::Adjacency& adj : user.graph.neighbors(orig))
              if (mask[adj.neighbor]) pinned_boundary[side] += adj.weight;
          }
        }
      }
      // Algorithm 2 initialization ("Insert(V2', V1)"): choose this
      // component's starting configuration — both sides remote, or one
      // side anchored to the device — by myopic cost under the same
      // scalarization the greedy uses. Anchoring a side pays its local
      // compute but moves its pinned-boundary traffic off the network
      // (and exposes the cut); starting fully remote keeps the greedy
      // free to pull either side later.
      if (options_.anchor_initial_parts) {
        const SystemParams& params = system.params;
        const double lf = (options_.greedy.time_weight +
                           options_.greedy.energy_weight *
                               params.mobile_power) /
                          params.mobile_capacity;
        const double cf = (options_.greedy.time_weight +
                           options_.greedy.energy_weight *
                               params.transmit_power) /
                          params.bandwidth;
        // Marginal server cost per remote unit, at the optimistic
        // single-offloader, low-load corner (the greedy corrects for
        // real load afterwards — it can only pull work local, so the
        // initializer must not over-commit to the device).
        const double mc =
            options_.greedy.time_weight / params.server_capacity;
        const double wa = sides[0].weight;
        const double wb = sides[1].weight;
        const double pba = pinned_boundary[0];
        const double pbb = pinned_boundary[1];
        const double cost_rr = cf * (pba + pbb) + mc * (wa + wb);
        const double cost_a =
            lf * wa + cf * (pbb + cut.cut_weight) + mc * wb;
        const double cost_b =
            lf * wb + cf * (pba + cut.cut_weight) + mc * wa;
        if (cost_a < cost_rr && cost_a <= cost_b && !sides[0].nodes.empty())
          sides[0].initially_local = true;
        else if (cost_b < cost_rr && !sides[1].nodes.empty())
          sides[1].initially_local = true;
      }
      for (Part& part : sides)
        if (!part.nodes.empty()) result.parts.push_back(std::move(part));
    };
    // parallel_for runs inline when nested, so only the outermost level
    // with more than one index fans out: distinct users in a multi-user
    // solve, sub-graphs in a single-user one.
    parallel::for_each_index(options_.pool, cuts.size(), cut_component);

    // Merge in component order, so part order is the serial loop's.
    for (ComponentCut& cut : cuts) {
      for (Part& part : cut.parts) out.parts.push_back(std::move(part));
      out.spectral_nonconverged += cut.nonconverged ? 1 : 0;
      out.fallback_kl_cuts += cut.kl_fallback ? 1 : 0;
      out.fallback_all_remote += cut.all_remote ? 1 : 0;
    }
    out.cut_seconds = cut_timer.elapsed_seconds();
    MECOFF_QUANTILES_RECORD_ID("mec.user.cut_seconds", out.cut_seconds,
                               request_id);
    return out;
  };

  // Distinct users: the first `period` under identical_user_period
  // (everyone else carries an identical graph), all of them otherwise.
  const std::size_t num_users = system.num_users();
  const std::size_t period = options_.identical_user_period;
  const std::size_t distinct =
      period > 0 ? std::min(period, num_users) : num_users;

  // Algorithm 1's "in parallel": one index per distinct user.
  // Compression and the cut are per-user; only the final greedy
  // couples users, so indices never touch shared state.
  std::vector<UserSolve> solved(distinct);
  parallel::for_each_index(options_.pool, distinct, [&](std::size_t u) {
    solved[u] = solve_user(u);
  });

  // The greedy reads every user's part list in user order, so its
  // tie-breaking and the final scheme are bit-identical to the serial
  // path no matter how tasks interleaved. A replicated user names its
  // prototype's very list (the greedy then copies its prototype's
  // set-up without comparing parts) and accounts its prototype's
  // compression stats, so aggregate counters reflect every user, not
  // just the prototypes.
  const auto solved_for = [&](std::size_t u) -> const UserSolve& {
    return solved[period > 0 ? u % period : u];
  };
  std::vector<std::span<const Part>> parts_of_user(num_users);
  for (std::size_t u = 0; u < num_users; ++u) {
    stats_.compression += solved_for(u).compression;
    parts_of_user[u] = solved_for(u).parts;
    stats_.num_parts += parts_of_user[u].size();
  }
  for (const UserSolve& s : solved) {
    stats_.compress_seconds += s.compress_seconds;
    stats_.cut_seconds += s.cut_seconds;
    stats_.spectral_nonconverged += s.spectral_nonconverged;
    stats_.fallback_kl_cuts += s.fallback_kl_cuts;
    stats_.fallback_all_remote += s.fallback_all_remote;
  }
  stats_.deadline_expired = deadline_expired();

  Stopwatch greedy_timer;
  GreedyResult greedy = [&] {
    MECOFF_TRACE_SPAN_ARG("mec.greedy", stats_.num_parts);
    return generate_scheme(system, parts_of_user, options_.greedy,
                           options_.pool);
  }();
  stats_.greedy_seconds = greedy_timer.elapsed_seconds();
  stats_.greedy_moves = greedy.moves;
  stats_.final_objective = greedy.objective_history.back();
  stats_.total_seconds = total_timer.elapsed_seconds();

  // The registry reads the very doubles SolveStats holds — there is no
  // second clock (asserted in tests/obs_test.cpp). Counters accumulate
  // across solves; the objective gauge reflects the most recent one.
  // Stage timings go to quantile windows instead (mec.user.*_seconds
  // per user task, mec.solve.latency below), which keep every solve's
  // sample; a gauge would hold only the last writer's under concurrent
  // solves.
  MECOFF_GAUGE_SET("mec.solve.final_objective", stats_.final_objective);
  MECOFF_COUNTER_ADD("mec.solve.users", num_users);
  MECOFF_COUNTER_ADD("mec.solve.distinct_users", distinct);
  MECOFF_COUNTER_ADD("mec.solve.parts", stats_.num_parts);
  MECOFF_COUNTER_ADD("mec.solve.greedy_moves", stats_.greedy_moves);
  MECOFF_COUNTER_ADD("mec.fallback.spectral_nonconverged",
                     stats_.spectral_nonconverged);
  MECOFF_COUNTER_ADD("mec.fallback.kl_cuts", stats_.fallback_kl_cuts);
  MECOFF_COUNTER_ADD("mec.fallback.all_remote", stats_.fallback_all_remote);
  MECOFF_COUNTER_ADD("mec.solve.deadline_expired",
                     stats_.deadline_expired ? 1 : 0);
  // Live serving feeds, same doubles as SolveStats (the single-source
  // contract extends to the quantile window and the flight recorder):
  // the sliding-window latency summary /metrics exposes...
  MECOFF_QUANTILES_RECORD_ID("mec.solve.latency", stats_.total_seconds,
                             request_id);
  // ...and one flight-recorder record per solve. Strictly observational
  // — nothing reads the recorder back into a solve — so placements stay
  // bit-identical with the recorder armed or dumping.
  {
    obs::SolveRecord record;
    record.request_id = request_id;
    record.users = num_users;
    record.distinct_users = distinct;
    record.parts = stats_.num_parts;
    record.greedy_moves = stats_.greedy_moves;
    record.compress_seconds = stats_.compress_seconds;
    record.cut_seconds = stats_.cut_seconds;
    record.greedy_seconds = stats_.greedy_seconds;
    record.total_seconds = stats_.total_seconds;
    record.final_objective = stats_.final_objective;
    record.spectral_nonconverged = stats_.spectral_nonconverged;
    record.fallback_kl_cuts = stats_.fallback_kl_cuts;
    record.fallback_all_remote = stats_.fallback_all_remote;
    record.deadline_expired = stats_.deadline_expired;
    record.trace_dropped = obs::TraceCollector::global().dropped_count();
    (void)obs::FlightRecorder::global().record(std::move(record));
  }
  return std::move(greedy.scheme);
}

}  // namespace mecoff::mec
