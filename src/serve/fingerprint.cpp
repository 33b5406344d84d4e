#include "serve/fingerprint.hpp"

#include <bit>
#include <utility>

namespace mecoff::serve {

namespace {

// Section tags so "3 nodes, 2 edges" can never collide with
// "2 nodes, 3 edges": every canonical section is prefixed.
enum : std::uint64_t {
  kTagNodes = 0xA1,
  kTagEdges = 0xA2,
  kTagPinned = 0xA3,
  kTagComponentsEmpty = 0xA4,
  kTagComponents = 0xA5,
  kTagParams = 0xA6,
};

/// The canonical scalar stream for one request, fed to any Sink with
/// u64(std::uint64_t) / f64(double) / boolean(bool) members. BOTH
/// fingerprint_request() and canonical_request_text() consume this one
/// function, so the hash and its text oracle cannot drift apart: a
/// canonicalization change edits the stream here and both sides move
/// together (the differential fuzzer pins the equivalence).
template <typename Sink>
void feed_request(const mec::UserApp& user, const mec::SystemParams& params,
                  Sink& sink) {
  const graph::WeightedGraph& g = user.graph;
  const std::size_t n = g.num_nodes();

  sink.u64(kTagNodes);
  sink.u64(n);
  for (graph::NodeId v = 0; v < n; ++v) sink.f64(g.node_weight(v));

  // Edges in the order WeightedGraph stores them: parallel copies
  // merged, each as (min, max, weight), sorted by endpoints — insertion
  // order and direction cannot leak in.
  sink.u64(kTagEdges);
  sink.u64(g.num_edges());
  for (const graph::Edge& e : g.edges()) {
    sink.u64(e.u);
    sink.u64(e.v);
    sink.f64(e.weight);
  }

  // Empty mask ≡ all offloadable: hash the EFFECTIVE per-node value so
  // the two spellings of "nothing pinned" share a fingerprint.
  sink.u64(kTagPinned);
  for (std::size_t v = 0; v < n; ++v)
    sink.boolean(!user.unoffloadable.empty() && user.unoffloadable[v]);

  // Empty components means "derive from connectivity" — a different
  // problem than any explicit labeling, hence the distinct tag.
  if (user.components.empty()) {
    sink.u64(kTagComponentsEmpty);
  } else {
    sink.u64(kTagComponents);
    for (const std::uint32_t c : user.components) sink.u64(c);
  }

  sink.u64(kTagParams);
  sink.f64(params.mobile_power);
  sink.f64(params.transmit_power);
  sink.f64(params.bandwidth);
  sink.f64(params.mobile_capacity);
  sink.f64(params.server_capacity);
  sink.f64(params.contention_factor);
}

/// Sink that hashes the stream (production path).
struct HashSink {
  FingerprintBuilder fp;
  void u64(std::uint64_t value) { fp.add_u64(value); }
  void f64(double value) { fp.add_double(value); }
  void boolean(bool value) { fp.add_bool(value); }
};

/// Sink that renders the stream as text (the differential oracle).
/// Doubles are spelled by normalized bit pattern — the same value the
/// hash consumes — so text equality and feed equality coincide exactly.
struct TextSink {
  std::string out;
  void u64(std::uint64_t value) {
    out += "u " + hex_u64(value) + "\n";
  }
  void f64(double value) {
    if (value == 0.0) value = 0.0;  // collapse -0.0 onto +0.0
    out += "f " + hex_u64(std::bit_cast<std::uint64_t>(value)) + "\n";
  }
  void boolean(bool value) { u64(value ? 1 : 0); }

  static std::string hex_u64(std::uint64_t value) {
    static const char* digits = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 0; i < 16; ++i)
      s[static_cast<std::size_t>(i)] =
          digits[(value >> (60 - 4 * i)) & 0xF];
    return s;
  }
};

}  // namespace

FingerprintBuilder::FingerprintBuilder(const Fingerprint& seed)
    : hi_(seed.hi), lo_(seed.lo) {}

Fingerprint fingerprint_request(const mec::UserApp& user,
                                const mec::SystemParams& params) {
  HashSink sink;
  feed_request(user, params, sink);
  return sink.fp.digest();
}

std::string canonical_request_text(const mec::UserApp& user,
                                   const mec::SystemParams& params) {
  TextSink sink;
  feed_request(user, params, sink);
  return std::move(sink.out);
}

}  // namespace mecoff::serve
