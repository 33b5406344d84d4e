// Unit tests for the application model and the Soot-substitute DSL.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "appmodel/application.hpp"
#include "appmodel/dsl_parser.hpp"
#include "appmodel/synthetic_apps.hpp"
#include "graph/components.hpp"
#include "mec/offloader.hpp"
#include "support/workloads.hpp"
#include "testlib/test_apps.hpp"

#ifndef MECOFF_DSL_CORPUS_DIR
#error "build must define MECOFF_DSL_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

namespace mecoff::appmodel {
namespace {

TEST(Application, AddAndFindFunctions) {
  Application app("demo");
  const std::size_t a = app.add_function({"alpha", 10, false, "ui"});
  const std::size_t b = app.add_function({"beta", 20, true, "core"});
  EXPECT_EQ(app.num_functions(), 2u);
  EXPECT_EQ(app.find_function("alpha"), a);
  EXPECT_EQ(app.find_function("beta"), b);
  EXPECT_EQ(app.find_function("gamma"), Application::npos);
  // A view into a longer buffer finds its own bytes, not the buffer's.
  EXPECT_EQ(app.find_function(std::string_view("alphabet").substr(0, 5)), a);
  EXPECT_EQ(app.function(b).component, "core");
  EXPECT_EQ(Application().find_function("alpha"), Application::npos);

  // 5,000 names grow the flat index several times; each is found
  // through a view into a longer buffer.
  constexpr std::size_t kMany = 5000;
  Application big("big");
  for (std::size_t i = 0; i < kMany; ++i)
    ASSERT_EQ(big.add_function({"fn" + std::to_string(i), 1, false, ""}), i);
  const auto misses = [&](const Application& probed) {
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < kMany; ++i) {
      const std::string padded = "fn" + std::to_string(i) + "#tail";
      const std::string_view name(padded.data(), padded.size() - 5);
      wrong += probed.find_function(name) != i;
    }
    wrong += probed.find_function("fn5000") != Application::npos;
    wrong += probed.find_function("fn") != Application::npos;
    return wrong;
  };
  EXPECT_EQ(misses(big), 0u);

  // A copy, and a moved-from table moved again into an assigned one,
  // answer the same lookups.
  const Application copy = big;
  Application moved(std::move(big));
  Application assigned("other");
  assigned.add_function({"fn0", 9, false, ""});
  assigned = std::move(moved);
  EXPECT_EQ(misses(copy), 0u);
  EXPECT_EQ(misses(assigned), 0u);
  EXPECT_EQ(assigned.num_functions(), kMany);
  EXPECT_EQ(assigned.try_add_function({"fn17", 1, false, ""}),
            Application::npos);
  EXPECT_EQ(assigned.try_add_function({"fn5000", 1, false, ""}), kMany);
  EXPECT_EQ(copy.find_function("fn5000"), Application::npos);
}

TEST(Application, DuplicateNameRejected) {
  Application app;
  app.add_function({"f", 1, false, ""});
  EXPECT_THROW(app.add_function({"f", 2, false, ""}),
               mecoff::PreconditionError);
}

TEST(Application, ExchangeValidation) {
  Application app;
  app.add_function({"a", 1, false, ""});
  app.add_function({"b", 1, false, ""});
  EXPECT_THROW(app.add_exchange(0, 0, 5), mecoff::PreconditionError);
  EXPECT_THROW(app.add_exchange(0, 9, 5), mecoff::PreconditionError);
  EXPECT_THROW(app.add_exchange(0, 1, -1), mecoff::PreconditionError);
}

TEST(Application, ToGraphAccumulatesRepeatedExchanges) {
  Application app;
  app.add_function({"a", 3, false, ""});
  app.add_function({"b", 4, false, ""});
  app.add_exchange(0, 1, 5);
  app.add_exchange(1, 0, 7);  // same undirected pair
  const graph::WeightedGraph g = app.to_graph();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.edge_weight_between(0, 1), 12.0);
  EXPECT_DOUBLE_EQ(g.node_weight(0), 3.0);
}

TEST(Application, MaskAndComponents) {
  Application app;
  app.add_function({"a", 1, true, "x"});
  app.add_function({"b", 1, false, "y"});
  app.add_function({"c", 1, false, "x"});
  const std::vector<bool> mask = app.unoffloadable_mask();
  EXPECT_EQ(mask, (std::vector<bool>{true, false, false}));
  const std::vector<std::uint32_t> comps = app.component_ids();
  EXPECT_EQ(comps[0], comps[2]);
  EXPECT_NE(comps[0], comps[1]);
}

constexpr const char* kGoodDsl = R"(
app Demo
component ui
  function main compute=5 unoffloadable
  function render compute=8 unoffloadable
component vision
  function detect compute=120
  function embed compute=200
call main detect data=64
call detect embed data=32
)";

TEST(DslParser, ParsesValidProgram) {
  const Result<Application> r = parse_app_dsl(kGoodDsl);
  ASSERT_TRUE(r.ok()) << (r.ok() ? std::string() : r.error().message);
  const Application& app = r.value();
  EXPECT_EQ(app.name(), "Demo");
  EXPECT_EQ(app.num_functions(), 4u);
  EXPECT_TRUE(app.function(app.find_function("main")).unoffloadable);
  EXPECT_FALSE(app.function(app.find_function("detect")).unoffloadable);
  EXPECT_DOUBLE_EQ(app.function(app.find_function("embed")).computation,
                   200.0);
  EXPECT_EQ(app.function(app.find_function("detect")).component, "vision");
  ASSERT_EQ(app.exchanges().size(), 2u);
  EXPECT_DOUBLE_EQ(app.exchanges()[0].amount, 64.0);
}

TEST(DslParser, CommentsAndBlankLinesIgnored) {
  const auto r = parse_app_dsl(
      "# top comment\napp X\nfunction f compute=1 # trailing\n\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_functions(), 1u);
}

TEST(DslParser, ErrorsCarryLineNumbers) {
  const auto r = parse_app_dsl("app X\nfunction f compute=1\nfrobnicate\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("line 3"), std::string::npos);
}

TEST(DslParser, RejectsUnknownFunctionInCall) {
  const auto r =
      parse_app_dsl("app X\nfunction f compute=1\ncall f ghost data=2\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("ghost"), std::string::npos);
}

TEST(DslParser, RejectsSelfCall) {
  const auto r =
      parse_app_dsl("app X\nfunction f compute=1\ncall f f data=2\n");
  EXPECT_FALSE(r.ok());
}

TEST(DslParser, RejectsBadAttributes) {
  EXPECT_FALSE(parse_app_dsl("app X\nfunction f compute=abc\n").ok());
  EXPECT_FALSE(parse_app_dsl("app X\nfunction f turbo=1\n").ok());
  EXPECT_FALSE(parse_app_dsl("app X\nfunction f compute=-3\n").ok());
  EXPECT_FALSE(
      parse_app_dsl("app X\nfunction a compute=1\nfunction b compute=1\n"
                    "call a b bytes=3\n")
          .ok());
}

TEST(DslParser, RejectsNonFiniteValues) {
  // std::from_chars happily parses "inf"/"nan", and neither compares
  // < 0, so without an explicit isfinite() check a NaN compute cost
  // would flow into every downstream energy sum. Regression for the
  // finiteness guard; the fuzz harness (fuzz/fuzz_dsl_parser.cpp)
  // asserts the same invariant on arbitrary input.
  EXPECT_FALSE(parse_app_dsl("app X\nfunction f compute=inf\n").ok());
  EXPECT_FALSE(parse_app_dsl("app X\nfunction f compute=nan\n").ok());
  EXPECT_FALSE(parse_app_dsl("app X\nfunction f compute=-inf\n").ok());
  EXPECT_FALSE(
      parse_app_dsl("app X\nfunction a compute=1\nfunction b compute=1\n"
                    "call a b data=inf\n")
          .ok());
  EXPECT_FALSE(
      parse_app_dsl("app X\nfunction a compute=1\nfunction b compute=1\n"
                    "call a b data=nan\n")
          .ok());
}

TEST(DslParser, CanonicalFormIsAFixedPoint) {
  // The scheme cache fingerprints canonical text, so serialization
  // must be stable: parse -> serialize -> parse -> serialize yields
  // identical bytes even when the input is unnormalized (comments,
  // no app directive, odd spacing).
  const auto parsed = parse_app_dsl(
      "# unnormalized input\nfunction   z   compute=0.5\n"
      "function y compute=2 unoffloadable\ncall z y data=7\n");
  ASSERT_TRUE(parsed.ok());
  const std::string canonical = to_app_dsl(parsed.value());
  const auto reparsed = parse_app_dsl(canonical);
  ASSERT_TRUE(reparsed.ok()) << canonical;
  EXPECT_EQ(to_app_dsl(reparsed.value()), canonical);
}

TEST(DslParser, RejectsDuplicateFunction) {
  const auto r =
      parse_app_dsl("app X\nfunction f compute=1\nfunction f compute=2\n");
  EXPECT_FALSE(r.ok());
}

TEST(DslParser, RejectsEmptyProgram) {
  EXPECT_FALSE(parse_app_dsl("").ok());
  EXPECT_FALSE(parse_app_dsl("app OnlyName\n").ok());
}

TEST(DslParser, RejectsAppAfterFunctions) {
  // Naming the app starts a fresh Application, so a late `app` line
  // used to drop every function above it without an error (here the
  // pinned f) ...
  const auto dropped = parse_app_dsl(
      "function f compute=1 unoffloadable\nfunction h compute=5\napp X\n"
      "function g compute=2\n");
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.error().message,
            "line 3: 'app' must come before the first function");
  // ... or to blame a later call on a function that had been declared.
  const auto misblamed = parse_app_dsl(
      "function f compute=1\napp X\nfunction g compute=2\ncall f g data=1\n");
  ASSERT_FALSE(misblamed.ok());
  EXPECT_EQ(misblamed.error().message,
            "line 2: 'app' must come before the first function");
  // Before the first function, `app` may still follow a component.
  const auto early = parse_app_dsl("component ui\napp X\nfunction f\n");
  ASSERT_TRUE(early.ok()) << early.error().message;
  EXPECT_EQ(early.value().name(), "X");
  EXPECT_EQ(early.value().function(0).component, "ui");
}

TEST(DslParser, RoundTripThroughSerializer) {
  const Result<Application> first = parse_app_dsl(kGoodDsl);
  ASSERT_TRUE(first.ok());
  const std::string serialized = to_app_dsl(first.value());
  const Result<Application> second = parse_app_dsl(serialized);
  ASSERT_TRUE(second.ok());
  const Application& a = first.value();
  const Application& b = second.value();
  ASSERT_EQ(a.num_functions(), b.num_functions());
  for (std::size_t i = 0; i < a.num_functions(); ++i) {
    EXPECT_EQ(a.function(i).name, b.function(i).name);
    EXPECT_DOUBLE_EQ(a.function(i).computation, b.function(i).computation);
    EXPECT_EQ(a.function(i).unoffloadable, b.function(i).unoffloadable);
    EXPECT_EQ(a.function(i).component, b.function(i).component);
  }
  ASSERT_EQ(a.exchanges().size(), b.exchanges().size());
}

TEST(SyntheticApps, FaceRecognitionShape) {
  const Application app = make_face_recognition_app();
  EXPECT_GE(app.num_functions(), 15u);
  // UI functions are pinned; the vision pipeline is not.
  EXPECT_TRUE(app.function(app.find_function("camera_capture")).unoffloadable);
  EXPECT_FALSE(app.function(app.find_function("embed_conv2")).unoffloadable);
  EXPECT_TRUE(graph::is_connected(app.to_graph()));
}

TEST(SyntheticApps, ArGameHasCoupledPhysicsCluster) {
  const Application app = make_ar_game_app();
  const graph::WeightedGraph g = app.to_graph();
  // Physics exchanges are the heavy ones.
  const auto narrow = app.find_function("phys_narrowphase");
  const auto solve = app.find_function("phys_solver");
  EXPECT_GE(g.edge_weight_between(static_cast<graph::NodeId>(narrow),
                                  static_cast<graph::NodeId>(solve)),
            50.0);
}

TEST(SyntheticApps, VideoAnalyticsIsLooselyCoupledChain) {
  const Application app = make_video_analytics_app();
  const graph::WeightedGraph g = app.to_graph();
  const auto denoise = app.find_function("denoise");
  const auto stabilize = app.find_function("stabilize");
  EXPECT_LE(g.edge_weight_between(static_cast<graph::NodeId>(denoise),
                                  static_cast<graph::NodeId>(stabilize)),
            10.0);
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(SyntheticApps, AllThreeHavePinnedAndOffloadable) {
  for (const Application& app :
       {make_face_recognition_app(), make_ar_game_app(),
        make_video_analytics_app()}) {
    const std::vector<bool> mask = app.unoffloadable_mask();
    std::size_t pinned = 0;
    for (const bool b : mask)
      if (b) ++pinned;
    EXPECT_GT(pinned, 0u) << app.name();
    EXPECT_LT(pinned, mask.size()) << app.name();
  }
}

TEST(SyntheticApps, RandomAppRespectsParameters) {
  const Application app = make_random_app(100, 0.1, 42);
  EXPECT_EQ(app.num_functions(), 100u);
  EXPECT_TRUE(graph::is_connected(app.to_graph()));
  // Deterministic per seed.
  const Application again = make_random_app(100, 0.1, 42);
  EXPECT_EQ(app.exchanges().size(), again.exchanges().size());
}

}  // namespace
}  // namespace mecoff::appmodel

namespace mecoff::appmodel {
namespace {

TEST(SyntheticApps, VoiceAssistantShape) {
  const Application app = make_voice_assistant_app();
  EXPECT_TRUE(app.function(app.find_function("wake_word")).unoffloadable);
  EXPECT_FALSE(
      app.function(app.find_function("decoder_pass1")).unoffloadable);
  const graph::WeightedGraph g = app.to_graph();
  EXPECT_TRUE(graph::is_connected(g));
  // Decoder coupling dwarfs the text hand-off.
  const auto am = static_cast<graph::NodeId>(
      app.find_function("acoustic_model"));
  const auto d1 = static_cast<graph::NodeId>(
      app.find_function("decoder_pass1"));
  const auto d2 = static_cast<graph::NodeId>(
      app.find_function("decoder_rescore"));
  const auto intent = static_cast<graph::NodeId>(
      app.find_function("intent_classify"));
  EXPECT_GT(g.edge_weight_between(am, d1),
            20.0 * g.edge_weight_between(d2, intent));
}

TEST(SyntheticApps, SlamNavigationShape) {
  const Application app = make_slam_navigation_app();
  EXPECT_TRUE(app.function(app.find_function("camera_frames")).unoffloadable);
  EXPECT_FALSE(
      app.function(app.find_function("global_bundle_adjust")).unoffloadable);
  // Mapping is the heavy offloadable bulk.
  double mapping = 0.0;
  double tracking = 0.0;
  for (const FunctionInfo& f : app.functions()) {
    if (f.component == "mapping") mapping += f.computation;
    if (f.component == "tracking") tracking += f.computation;
  }
  EXPECT_GT(mapping, 3.0 * tracking);
  EXPECT_TRUE(graph::is_connected(app.to_graph()));
}

TEST(SyntheticApps, NewArchetypesSolveEndToEnd) {
  for (const Application& app :
       {make_voice_assistant_app(), make_slam_navigation_app()}) {
    mec::UserApp user;
    user.graph = app.to_graph();
    user.unoffloadable = app.unoffloadable_mask();
    user.components = app.component_ids();
    mec::MecSystem system{mec::SystemParams{}, {user}};
    mec::PipelineOptions opts;
    opts.propagation.coupling_threshold = 50.0;
    mec::PipelineOffloader offloader(opts);
    const mec::OffloadingScheme scheme = offloader.solve(system);
    EXPECT_TRUE(scheme.valid_for(system)) << app.name();
    EXPECT_GT(scheme.remote_count(0), 0u) << app.name();
  }
}

}  // namespace
}  // namespace mecoff::appmodel

// ---- Differential: parse_app_dsl against the parser it replaced ----------

namespace mecoff::appmodel {
namespace {

// The line-at-a-time parser (istringstream, split_ws, one std::string
// per token) that the one-pass parse_app_dsl replaced, kept verbatim as
// the oracle. The two must accept, reject and build alike, except that
// parse_app_dsl rejects an `app` line after a function (kLateApp).

/// Parse "key=value" into (key, value); returns false on no '='.
bool split_kv(const std::string& token, std::string& key, std::string& value) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) return false;
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

Result<Application> reference_parse_app_dsl(const std::string& text) {
  std::istringstream in(text);
  Application app;
  bool named = false;
  std::string current_component;
  std::string line;
  std::size_t line_no = 0;

  const auto fail = [&](const std::string& why) {
    return Error("line " + std::to_string(line_no) + ": " + why);
  };

  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments, then whitespace.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> tokens = split_ws(line);
    if (tokens.empty()) continue;

    if (tokens[0] == "app") {
      if (tokens.size() != 2) return fail("expected 'app <name>'");
      if (named) return fail("duplicate 'app' directive");
      app = Application(tokens[1]);
      named = true;
    } else if (tokens[0] == "component") {
      if (tokens.size() != 2)
        return fail("expected 'component <name>' ('-' resets)");
      current_component = tokens[1] == "-" ? "" : tokens[1];
    } else if (tokens[0] == "function") {
      if (tokens.size() < 2) return fail("expected 'function <name> ...'");
      FunctionInfo info;
      info.name = tokens[1];
      info.component = current_component;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i] == "unoffloadable") {
          info.unoffloadable = true;
          continue;
        }
        std::string key;
        std::string value;
        if (!split_kv(tokens[i], key, value))
          return fail("unknown function attribute '" + tokens[i] + "'");
        if (key == "compute") {
          // std::from_chars accepts "inf"/"nan"; neither compares < 0,
          // so finiteness must be checked explicitly or a NaN compute
          // cost flows into every downstream energy sum.
          if (!parse_double(value, info.computation) ||
              !std::isfinite(info.computation) || info.computation < 0)
            return fail("bad compute value '" + value + "'");
        } else {
          return fail("unknown function attribute key '" + key + "'");
        }
      }
      if (app.find_function(info.name) != Application::npos)
        return fail("duplicate function '" + info.name + "'");
      app.add_function(std::move(info));
    } else if (tokens[0] == "call") {
      if (tokens.size() != 4) return fail("expected 'call <a> <b> data=<x>'");
      const std::size_t a = app.find_function(tokens[1]);
      const std::size_t b = app.find_function(tokens[2]);
      if (a == Application::npos)
        return fail("unknown function '" + tokens[1] + "'");
      if (b == Application::npos)
        return fail("unknown function '" + tokens[2] + "'");
      if (a == b) return fail("self-call is not a data exchange");
      std::string key;
      std::string value;
      double amount = 0;
      if (!split_kv(tokens[3], key, value) || key != "data" ||
          !parse_double(value, amount) || !std::isfinite(amount) ||
          amount < 0)
        return fail("expected data=<non-negative amount>");
      app.add_exchange(a, b, amount);
    } else {
      return fail("unknown directive '" + tokens[0] + "'");
    }
  }
  if (app.num_functions() == 0) return Error("no functions declared");
  return app;
}

constexpr std::string_view kLateApp =
    "'app' must come before the first function";

/// Every field of `app`, doubles at full precision, and whether the
/// name index finds each function at its own position.
std::string full_dump(const Application& app) {
  std::string out = app.name() + '\n';
  for (std::size_t i = 0; i < app.num_functions(); ++i) {
    const FunctionInfo& f = app.function(i);
    out += f.name + ' ' + format_general(f.computation, 17) +
           (f.unoffloadable ? " pinned " : " free ") + f.component +
           (app.find_function(f.name) == i ? " indexed\n" : " lost\n");
  }
  for (const DataExchange& x : app.exchanges())
    out += std::to_string(x.from) + ' ' + std::to_string(x.to) + ' ' +
           format_general(x.amount, 17) + '\n';
  return out;
}

/// A bench workload as the benchmark posts it to /solve: functions f0,
/// f1, ... in node order, rendered with to_app_dsl.
std::string served_body(const mec::UserApp& user, std::uint64_t seed) {
  const auto indexed = [](char prefix, std::uint64_t index) {
    std::string name(1, prefix);
    name += std::to_string(index);
    return name;
  };
  Application app(indexed('a', seed));
  for (graph::NodeId v = 0; v < user.graph.num_nodes(); ++v)
    app.add_function({indexed('f', v), user.graph.node_weight(v),
                      !user.unoffloadable.empty() && user.unoffloadable[v],
                      ""});
  for (const graph::Edge& e : user.graph.edges())
    app.add_exchange(e.u, e.v, e.weight);
  return to_app_dsl(app);
}

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// 1 or 2 random edits: insert, delete or replace a byte, splice in a
/// keyword or a byte the tokenizer treats specially, widen a gap between
/// tokens with any whitespace byte, or move a line.
std::string mutate(std::string text, Rng& rng) {
  static const std::vector<std::string> kSplices = {
      "app ", "component ", "component -", "function ", "call ",
      " unoffloadable", " compute=", " data=", "inf", "nan", "+1", "-0",
      "1e999", "0x1F", "\nfunction z compute=1\n", "\napp late\n"};
  static constexpr char kSpecial[] = {'\r', '\v', '\f', '\0', '#',
                                      '=',  ' ',  '\n', '\t'};
  const auto below = [&rng](std::size_t n) {  // uniform in [0, n)
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::int64_t edits = rng.uniform_int(1, 2);
  for (std::int64_t e = 0; e < edits; ++e) {
    const std::size_t at = below(text.size() + 1);
    switch (rng.uniform_int(0, 6)) {
      case 0:
        text.insert(at, 1, static_cast<char>(rng.next_u64()));
        break;
      case 1:
        if (at < text.size()) text.erase(at, 1);
        break;
      case 2:
        if (at < text.size()) text[at] = static_cast<char>(rng.next_u64());
        break;
      case 3:
        text.insert(at, kSplices[below(kSplices.size())]);
        break;
      case 4:
        text.insert(at, 1, kSpecial[below(sizeof kSpecial)]);
        break;
      case 5: {  // widen the next gap between tokens
        const std::size_t gap = text.find_first_of(" \t", at);
        if (gap != std::string::npos)
          text.insert(gap, 1, " \t\r\v\f"[below(5)]);
        break;
      }
      default: {  // move the line holding `at` to the start of the text
        const std::size_t begin = text.rfind('\n', at == 0 ? 0 : at - 1);
        const std::size_t from = begin == std::string::npos ? 0 : begin + 1;
        const std::size_t end = text.find('\n', from);
        const std::size_t to = end == std::string::npos ? text.size() : end + 1;
        const std::string line = text.substr(from, to - from);
        text.erase(from, to - from);
        text.insert(0, line);
        break;
      }
    }
  }
  return text;
}

/// Counts across one differential run.
struct DifferentialTally {
  std::size_t inputs = 0;
  std::size_t accepted = 0;
  std::size_t late_app = 0;  ///< rejected by the kLateApp rule, not compared
};

/// Empty when both parsers agree on `input`, else what differs.
std::string disagreement(const std::string& input, DifferentialTally& tally) {
  ++tally.inputs;
  const Result<Application> got = parse_app_dsl(input);
  if (!got.ok() && got.error().message.find(kLateApp) != std::string::npos) {
    ++tally.late_app;
    return {};
  }
  const Result<Application> want = reference_parse_app_dsl(input);
  if (got.ok() != want.ok())
    return got.ok() ? "accepted; reference says " + want.error().message
                    : "rejected (" + got.error().message +
                          "); reference accepts";
  if (!got.ok())
    return got.error().message == want.error().message
               ? std::string()
               : got.error().message + " vs " + want.error().message;
  ++tally.accepted;
  if (to_app_dsl(got.value()) != to_app_dsl(want.value()))
    return "to_app_dsl differs";
  if (full_dump(got.value()) != full_dump(want.value()))
    return "built Applications differ";
  return {};
}

TEST(DslParser, MatchesReferenceParser) {
  std::vector<std::filesystem::path> corpus;
  for (const auto& entry :
       std::filesystem::directory_iterator(MECOFF_DSL_CORPUS_DIR))
    if (entry.is_regular_file()) corpus.push_back(entry.path());
  ASSERT_GE(corpus.size(), 12u);
  std::sort(corpus.begin(), corpus.end());  // the mutants depend on order
  std::vector<std::string> seeds;
  for (const std::filesystem::path& path : corpus)
    seeds.push_back(read_bytes(path));
  for (const Application& app :
       {make_face_recognition_app(), make_ar_game_app(),
        make_video_analytics_app(), make_voice_assistant_app(),
        make_slam_navigation_app()})
    seeds.push_back(to_app_dsl(app));
  const std::size_t small_seeds = seeds.size();
  for (const std::uint64_t seed : {500, 501, 502})
    seeds.push_back(served_body(bench::make_user({250, 1214}, seed), seed));
  seeds.push_back(served_body(bench::make_user({1000, 4912}, 503), 503));

  DifferentialTally tally;
  for (const std::string& seed : seeds)
    ASSERT_EQ(disagreement(seed, tally), "") << ::testing::PrintToString(seed);

  // Mutants of the small seeds keep the run short; one in 50 starts
  // from a paper-scale body instead.
  Rng rng(0x6d65636f6666ULL);
  constexpr std::size_t kMutants = 6000;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const std::size_t pick =
        rng.bernoulli(0.02)
            ? static_cast<std::size_t>(rng.uniform_int(
                  static_cast<std::int64_t>(small_seeds),
                  static_cast<std::int64_t>(seeds.size()) - 1))
            : static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(small_seeds) - 1));
    const std::string input = mutate(seeds[pick], rng);
    ASSERT_EQ(disagreement(input, tally), "")
        << "mutant " << i << ": " << ::testing::PrintToString(input);
  }

  RecordProperty("inputs", static_cast<int>(tally.inputs));
  RecordProperty("accepted", static_cast<int>(tally.accepted));
  RecordProperty("late_app_skipped", static_cast<int>(tally.late_app));
  EXPECT_GE(tally.inputs, kMutants);
  EXPECT_GE(tally.accepted * 10, tally.inputs)
      << tally.accepted << " of " << tally.inputs << " accepted";
  EXPECT_GT(tally.late_app, 0u);  // late_app.dsl at least
}

TEST(DslParser, TokenEdgeCasesMatchReference) {
  const std::string nul = std::string(1, '\0');
  struct Case {
    const char* label;
    std::string input;
    std::string want;  ///< canonical DSL if accepted, else the error
  };
  const std::vector<Case> cases = {
      {"CRLF", "app X\r\nfunction f compute=2\r\nfunction g\r\ncall f g data=1\r\n",
       "app X\nfunction f compute=2\nfunction g compute=1\ncall f g data=1\n"},
      {"last line without newline", "app X\nfunction f compute=2",
       "app X\nfunction f compute=2\n"},
      {"# mid-token", "app X\nfunction f#g compute=2\n",
       "app X\nfunction f compute=1\n"},
      {"NUL in a name", "app X\nfunction a" + nul + "b compute=2\n",
       "app X\nfunction a" + nul + "b compute=2\n"},
      {"compute=1=2", "app X\nfunction f compute=1=2\n",
       "line 2: bad compute value '1=2'"},
      {"data=", "app X\nfunction f\nfunction g\ncall f g data=\n",
       "line 4: expected data=<non-negative amount>"},
      {"+1", "app X\nfunction f compute=+1\n", "line 2: bad compute value '+1'"},
      {"component -",
       "app X\ncomponent ui\nfunction f\ncomponent -\nfunction g\n",
       "app X\ncomponent ui\nfunction f compute=1\ncomponent -\n"
       "function g compute=1\n"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    const Result<Application> got = parse_app_dsl(c.input);
    const Result<Application> want = reference_parse_app_dsl(c.input);
    ASSERT_EQ(got.ok(), want.ok());
    const std::string text =
        got.ok() ? to_app_dsl(got.value()) : got.error().message;
    EXPECT_EQ(text, want.ok() ? to_app_dsl(want.value()) : want.error().message);
    EXPECT_EQ(text, c.want);
  }
}

}  // namespace
}  // namespace mecoff::appmodel
