// Fault scripts (builders, replay order, hostile input, the exact text
// round-trip serve::FaultInjector's input relies on) and the
// degrade-don't-die solver chain.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "graph/generators.hpp"
#include "mec/offloader.hpp"
#include "sim/fault_script.hpp"

namespace mecoff {
namespace {

using mec::UserApp;
using sim::FaultEvent;
using sim::FaultKind;
using sim::FaultScript;

UserApp netgen_user(std::uint64_t seed, std::size_t nodes = 60) {
  graph::NetgenParams gp;
  gp.nodes = nodes;
  gp.edges = nodes * 4;
  gp.seed = seed;
  UserApp user;
  user.graph = graph::netgen_style(gp);
  user.unoffloadable.assign(nodes, false);
  user.unoffloadable[0] = true;
  return user;
}

// ---------------------------------------------------------------- scripts

TEST(FaultScript, BuildersRecordEventsInInsertionOrder) {
  FaultScript script;
  script.crash_server(5.0, 1)
      .degrade_link(2.0, 0, 0.25)
      .recover_server(9.0, 1)
      .disconnect_user(2.0, 3)
      .restore_link(4.0, 0);
  ASSERT_EQ(script.size(), 5u);
  EXPECT_EQ(script.events()[0].kind, FaultKind::kServerCrash);
  EXPECT_EQ(script.events()[1].kind, FaultKind::kLinkDegrade);
  EXPECT_DOUBLE_EQ(script.events()[1].severity, 0.25);
}

TEST(FaultScript, OrderedNormalizesOutOfOrderAndKeepsTies) {
  FaultScript script;
  script.crash_server(5.0, 0)
      .disconnect_user(1.0, 7)
      .degrade_link(1.0, 1, 0.5);  // same instant as the disconnect
  const std::vector<FaultEvent> ordered = script.ordered();
  ASSERT_EQ(ordered.size(), 3u);
  EXPECT_EQ(ordered[0].kind, FaultKind::kUserDisconnect);  // stable tie
  EXPECT_EQ(ordered[1].kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(ordered[2].kind, FaultKind::kServerCrash);
}

TEST(FaultScript, RejectsHostileEventsWithTypedErrors) {
  FaultScript script;
  EXPECT_THROW(script.crash_server(-1.0, 0), PreconditionError);
  const double nan = std::nan("");
  EXPECT_THROW(script.crash_server(nan, 0), PreconditionError);
  EXPECT_THROW(script.degrade_link(1.0, 0, 0.0), PreconditionError);
  EXPECT_THROW(script.degrade_link(1.0, 0, 1.0), PreconditionError);
  EXPECT_THROW(script.degrade_link(1.0, 0, -2.0), PreconditionError);
  EXPECT_TRUE(script.empty());  // nothing slipped in
}

TEST(FaultScript, TextRoundTripIsExact) {
  FaultScript script;
  script.crash_server(1.0 / 3.0, 2)
      .degrade_link(0.1, 0, 0.123456789012345)
      .recover_server(97.25, 2)
      .disconnect_user(50.0, 11);
  const std::string text = script.to_text();
  const auto parsed = FaultScript::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  // Round trip through text reproduces the replay order EXACTLY,
  // doubles included (%.17g round-trips IEEE doubles).
  EXPECT_EQ(parsed.value().to_text(), text);
  const auto a = script.ordered();
  const auto b = parsed.value().ordered();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_EQ(a[i].severity, b[i].severity);
  }
}

TEST(FaultScript, ParseSkipsCommentsAndRejectsGarbage) {
  const auto ok = FaultScript::parse(
      "# a comment\n\nat 1 crash 0\n  # indented comment\nat 2 recover 0\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().size(), 2u);

  for (const char* junk :
       {"at x crash 0\n", "at -1 crash 0\n", "at 1 explode 0\n",
        "at 1 crash\n", "at 1 degrade 0 2.5\n", "at 1 degrade 0\n",
        "at 1 crash 0 trailing junk\n", "crash 0 at 1\n", "\x01\x02\n"}) {
    const auto r = FaultScript::parse(junk);
    EXPECT_FALSE(r.ok()) << junk;
  }
}

// ----------------------------------------------------- degrade-don't-die

mec::MecSystem single_server_system(std::size_t users) {
  mec::SystemParams p;
  p.mobile_power = 1.0;
  p.transmit_power = 8.0;
  p.bandwidth = 20.0;
  p.mobile_capacity = 5.0;
  p.server_capacity = 300.0;
  mec::MecSystem system;
  system.params = p;
  for (std::size_t u = 0; u < users; ++u)
    system.users.push_back(netgen_user(300 + u, 80));
  return system;
}

TEST(DegradeChain, StalledEigensolveFallsBackToKlAndStaysValid) {
  const mec::MecSystem system = single_server_system(3);
  mec::PipelineOptions options;
  options.backend = mec::CutBackend::kSpectral;
  // Keep the sub-graphs big (no compression) so the cut step really
  // eigensolves, then inject a stall: zero tolerance is unreachable for
  // the shifted power iteration, so EVERY eigensolve hits its iteration
  // cap and comes back converged = false — exactly what a pathological
  // graph does.
  options.propagation.coupling_threshold = 1e18;
  options.spectral.fiedler.backend = spectral::EigenBackend::kShiftedPower;
  options.spectral.fiedler.tolerance = 0.0;
  options.spectral.fiedler.max_iterations = 50;

  mec::PipelineOffloader offloader(options);
  const mec::OffloadingScheme scheme = offloader.solve(system);
  EXPECT_TRUE(scheme.valid_for(system));

  const auto& stats = offloader.last_stats();
  EXPECT_GT(stats.spectral_nonconverged, 0u);
  EXPECT_GT(stats.fallback_kl_cuts, 0u);  // KL rescued every stalled cut
  EXPECT_EQ(stats.fallback_all_remote, 0u);  // budget never ran out
  EXPECT_FALSE(stats.deadline_expired);
  EXPECT_TRUE(stats.degraded());
}

TEST(DegradeChain, ZeroDeadlineDegradesImmediatelyButValidly) {
  const mec::MecSystem system = single_server_system(3);
  mec::PipelineOptions options;
  options.deadline.seconds = 0.0;  // already expired at solve entry
  mec::PipelineOffloader offloader(options);
  const mec::OffloadingScheme scheme = offloader.solve(system);

  EXPECT_TRUE(scheme.valid_for(system));
  const auto& stats = offloader.last_stats();
  EXPECT_TRUE(stats.deadline_expired);
  EXPECT_GT(stats.fallback_all_remote, 0u);  // every sub-graph skipped
  EXPECT_EQ(stats.fallback_kl_cuts, 0u);     // no budget for recuts
  EXPECT_TRUE(stats.degraded());
}

TEST(DegradeChain, UnlimitedDeadlineReportsNoDegradation) {
  const mec::MecSystem system = single_server_system(2);
  mec::PipelineOffloader offloader;  // defaults: unlimited, tolerant
  const mec::OffloadingScheme scheme = offloader.solve(system);
  EXPECT_TRUE(scheme.valid_for(system));
  const auto& stats = offloader.last_stats();
  EXPECT_FALSE(stats.degraded());
  EXPECT_FALSE(stats.deadline_expired);
}

TEST(DegradeChain, DegradedSchemesCostMoreButBothAreSchemes) {
  const mec::MecSystem system = single_server_system(2);
  mec::PipelineOffloader healthy;
  const double good =
      mec::evaluate(system, healthy.solve(system)).objective();

  mec::PipelineOptions rushed;
  rushed.deadline.seconds = 0.0;
  mec::PipelineOffloader degraded(rushed);
  const double bad =
      mec::evaluate(system, degraded.solve(system)).objective();
  // Degraded quality, not degraded validity.
  EXPECT_GE(bad, good * (1.0 - 1e-9));
}

}  // namespace
}  // namespace mecoff
