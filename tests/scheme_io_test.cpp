// Tests for offloading-scheme serialization.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "mec/scheme_io.hpp"
#include "testlib/test_graphs.hpp"

namespace mecoff::mec {
namespace {

OffloadingScheme sample_scheme() {
  OffloadingScheme s;
  s.placement = {{Placement::kLocal, Placement::kRemote, Placement::kRemote},
                 {Placement::kRemote, Placement::kLocal}};
  return s;
}

/// The scheme as write_scheme renders it.
std::string scheme_text(const OffloadingScheme& scheme) {
  std::ostringstream out;
  write_scheme(scheme, out);
  return out.str();
}

TEST(SchemeIo, RoundTrip) {
  const OffloadingScheme original = sample_scheme();
  const std::string text = scheme_text(original);
  const Result<OffloadingScheme> parsed = parse_scheme_text(text);
  ASSERT_TRUE(parsed.ok()) << (parsed.ok() ? "" : parsed.error().message);
  EXPECT_EQ(parsed.value().placement, original.placement);
}

TEST(SchemeIo, TextIsHumanReadable) {
  const std::string text = scheme_text(sample_scheme());
  EXPECT_NE(text.find("scheme users 2"), std::string::npos);
  EXPECT_NE(text.find("user 0 LRR"), std::string::npos);
  EXPECT_NE(text.find("user 1 RL"), std::string::npos);
}

TEST(SchemeIo, AcceptsCommentsAndAnyUserOrder) {
  const auto r = parse_scheme_text(
      "# saved by the CLI\nscheme users 2\nuser 1 RL\n\nuser 0 LRR\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().placement[0].size(), 3u);
  EXPECT_EQ(r.value().placement[1][0], Placement::kRemote);
}

TEST(SchemeIo, RejectsMalformedInput) {
  EXPECT_FALSE(parse_scheme_text("").ok());
  EXPECT_FALSE(parse_scheme_text("user 0 L\n").ok());            // no header
  EXPECT_FALSE(parse_scheme_text("scheme users 1\n").ok());      // missing user
  EXPECT_FALSE(
      parse_scheme_text("scheme users 1\nuser 0 LXR\n").ok());   // bad char
  EXPECT_FALSE(
      parse_scheme_text("scheme users 1\nuser 3 L\n").ok());     // range
  EXPECT_FALSE(parse_scheme_text(
                   "scheme users 1\nuser 0 L\nuser 0 R\n").ok()); // dup
  EXPECT_FALSE(parse_scheme_text(
                   "scheme users 1\nscheme users 1\nuser 0 L\n").ok());
}

TEST(SchemeIo, ErrorsCarryLineNumbers) {
  const auto r = parse_scheme_text("scheme users 1\nuser 0 LQ\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("line 2"), std::string::npos);
}

TEST(SchemeIo, ParsedSchemeValidatesAgainstSystem) {
  UserApp app;
  app.graph = graph::path_graph(3);
  app.unoffloadable = {true, false, false};
  MecSystem system{SystemParams{}, {app}};
  const auto good = parse_scheme_text("scheme users 1\nuser 0 LRR\n");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good.value().valid_for(system));
  // Offloading the pinned node 0 must be rejected by valid_for.
  const auto bad = parse_scheme_text("scheme users 1\nuser 0 RRR\n");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad.value().valid_for(system));
}

}  // namespace
}  // namespace mecoff::mec
