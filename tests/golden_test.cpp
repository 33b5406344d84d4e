// Golden-file round-trip tests (ctest label: golden).
//
// The two text formats the repo persists — OffloadingScheme and
// sim::FaultScript — are replay formats, not display strings: a file
// written today must parse bit-for-bit tomorrow. Each fixture under
// tests/golden/ is the CANONICAL serialization of a value that is also
// constructed programmatically here, and the tests assert the full
// triangle:
//
//   fixture bytes == to_text(programmatic value)      (writer is stable)
//   parse(fixture) == programmatic value              (reader is correct)
//   to_text(parse(fixture)) == fixture bytes          (round trip exact)
//
// A failure means the on-disk format changed; that is a breaking change
// for saved schemes/scripts and must be deliberate (update the fixture
// in the same commit and say so in the message).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "mec/scheme_io.hpp"
#include "sim/fault_script.hpp"

#ifndef MECOFF_GOLDEN_DIR
#error "build must define MECOFF_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace mecoff {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(MECOFF_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- OffloadingScheme -----------------------------------------------------

mec::OffloadingScheme canonical_scheme() {
  using mec::Placement;
  const Placement L = Placement::kLocal;
  const Placement R = Placement::kRemote;
  mec::OffloadingScheme scheme;
  scheme.placement = {{L, R, R, L}, {L, L, L, L}, {R, L, R, R}};
  return scheme;
}

/// The scheme as write_scheme renders it.
std::string scheme_text(const mec::OffloadingScheme& scheme) {
  std::ostringstream out;
  mec::write_scheme(scheme, out);
  return out.str();
}

TEST(GoldenScheme, WriterMatchesFixtureBytes) {
  EXPECT_EQ(scheme_text(canonical_scheme()),
            read_fixture("scheme_basic.golden"));
}

TEST(GoldenScheme, ParserInvertsFixture) {
  const Result<mec::OffloadingScheme> parsed =
      mec::parse_scheme_text(read_fixture("scheme_basic.golden"));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value(), canonical_scheme());
}

TEST(GoldenScheme, RoundTripIsByteIdentical) {
  const std::string fixture = read_fixture("scheme_basic.golden");
  const Result<mec::OffloadingScheme> parsed =
      mec::parse_scheme_text(fixture);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(scheme_text(parsed.value()), fixture);
}

TEST(GoldenScheme, RoundTripSurvivesCommentsAndReordering) {
  // Comments, blank lines, and out-of-order user lines are accepted on
  // input but normalized away on output — re-serializing yields the
  // canonical bytes again.
  const std::string noisy =
      "# saved by mecoff_cli\n"
      "scheme users 3\n"
      "\n"
      "user 2 RLRR\n"
      "user 0 LRRL\n"
      "user 1 LLLL\n";
  const Result<mec::OffloadingScheme> parsed = mec::parse_scheme_text(noisy);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(scheme_text(parsed.value()),
            read_fixture("scheme_basic.golden"));
}

// ---- sim::FaultScript -----------------------------------------------------

sim::FaultScript canonical_script() {
  sim::FaultScript script;
  script.crash_server(0.5, 0)
      .degrade_link(1.25, 1, 0.25)
      .recover_server(2.0, 0)
      .restore_link(3.5, 1)
      .disconnect_user(10.125, 7);
  return script;
}

TEST(GoldenFaultScript, WriterMatchesFixtureBytes) {
  EXPECT_EQ(canonical_script().to_text(),
            read_fixture("fault_script_basic.golden"));
}

TEST(GoldenFaultScript, ParserInvertsFixture) {
  const Result<sim::FaultScript> parsed =
      sim::FaultScript::parse(read_fixture("fault_script_basic.golden"));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  ASSERT_EQ(parsed.value().size(), canonical_script().size());
  const std::vector<sim::FaultEvent> got = parsed.value().ordered();
  const std::vector<sim::FaultEvent> want = canonical_script().ordered();
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].describe(), want[i].describe()) << "event " << i;
  }
}

TEST(GoldenFaultScript, RoundTripIsByteIdentical) {
  const std::string fixture = read_fixture("fault_script_basic.golden");
  const Result<sim::FaultScript> parsed = sim::FaultScript::parse(fixture);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().to_text(), fixture);
}

TEST(GoldenFaultScript, OutOfOrderAddsNormalizeToFixtureBytes) {
  // to_text() emits replay (time) order, so an out-of-order build of
  // the same events serializes to the same canonical bytes.
  sim::FaultScript script;
  script.disconnect_user(10.125, 7)
      .crash_server(0.5, 0)
      .restore_link(3.5, 1)
      .degrade_link(1.25, 1, 0.25)
      .recover_server(2.0, 0);
  EXPECT_EQ(script.to_text(), read_fixture("fault_script_basic.golden"));
}

TEST(GoldenFaultScript, RandomScriptsRoundTripExactly) {
  // %.17g rendering must survive arbitrary doubles, not just the tidy
  // fixture values — seeded random times and severities exercise that.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Rng rng(seed);
    sim::FaultScript script;
    for (std::size_t i = 0; i < 12; ++i) {
      const double t = rng.uniform(0.0, 100.0);
      const std::size_t target = rng.index(5);
      switch (rng.index(5)) {
        case 0: script.crash_server(t, target); break;
        case 1: script.recover_server(t, target); break;
        case 2: script.degrade_link(t, target, rng.uniform(0.05, 0.95)); break;
        case 3: script.restore_link(t, target); break;
        default: script.disconnect_user(t, target); break;
      }
    }
    const Result<sim::FaultScript> reparsed =
        sim::FaultScript::parse(script.to_text());
    ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
    EXPECT_EQ(reparsed.value().to_text(), script.to_text()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mecoff
