// Canonical content fingerprints for solve requests.
//
// The scheme cache (scheme_cache.hpp) is content-addressed: two
// requests that describe the SAME optimization problem — identical
// application graph, cost parameters, and solver configuration — must
// map to the same key, and any input that can change the resulting
// placement must perturb it. This generalizes the
// `identical_user_period` replica reuse in PipelineOffloader::solve
// (which only recognizes duplicates by POSITION in a batch) into reuse
// across arbitrary request streams.
//
// Canonicalization rules (documented in docs/serving.md):
//   * graph: node count, node weights in node-id order, then edges in
//     the order WeightedGraph stores them — (min(u,v), max(u,v), weight)
//     triples, parallel copies merged, sorted by endpoints — so the hash
//     is invariant to edge insertion order and edge direction, matching
//     WeightedGraph's undirected semantics;
//   * unoffloadable mask: hashed per node; an empty mask hashes
//     identically to an explicit all-false mask (both mean "everything
//     offloadable");
//   * components: an empty vector means "derive from connectivity" and
//     is DISTINCT from any explicit assignment, so it hashes under a
//     separate tag;
//   * doubles: hashed by bit pattern with -0.0 normalized to +0.0 (the
//     costs they feed into cannot distinguish the two); NaNs are not
//     canonicalized — model validation rejects them upstream;
//   * the solver configuration (cut backend, propagation thresholds,
//     greedy weights...) is folded in by the service as a seed
//     fingerprint, so services with different solver settings never
//     share entries. The solve DEADLINE is deliberately excluded: it
//     is a budget, not an input, and degraded (deadline-expired)
//     results are never published to the cache.
//
// The digest is 128 bits built from two 64-bit streams with different
// folds. Each canonical 64-bit word is hashed once, through a
// full-avalanche mixer (murmur3's fmix64), and folded into both — not
// cryptographic, but collision-safe for the cache's purpose (a
// collision serves a wrong-but-valid scheme; 2^64 birthday bound on
// realistic corpus sizes makes that negligible).
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "mec/model.hpp"

namespace mecoff::serve {

struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool operator==(const Fingerprint&) const = default;
};

struct FingerprintHash {
  [[nodiscard]] std::size_t operator()(const Fingerprint& f) const noexcept {
    // The streams are already well-mixed; fold them.
    return static_cast<std::size_t>(f.lo ^ (f.hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// Incremental dual-stream hasher. Feed canonical scalars in a fixed
/// order; identical feed sequences produce identical fingerprints.
class FingerprintBuilder {
 public:
  FingerprintBuilder() = default;
  /// Continue from a previous digest (how the service folds its solver
  /// configuration in front of every per-request hash).
  explicit FingerprintBuilder(const Fingerprint& seed);

  /// Mixes the word once and folds the result into both streams.
  /// Inline, so a feed loop keeps both streams in registers.
  void add_u64(std::uint64_t value) {
    const std::uint64_t mixed = mix(value);
    hi_ = std::rotl((hi_ ^ mixed) * 0x9e3779b97f4a7c15ULL, 29);
    lo_ = std::rotl((lo_ + mixed) * 0xd6e8feb86659fd93ULL, 31);
  }
  /// Bit-pattern hash with -0.0 → +0.0 normalization.
  void add_double(double value) {
    if (value == 0.0) value = 0.0;  // collapse -0.0 onto +0.0
    add_u64(std::bit_cast<std::uint64_t>(value));
  }
  void add_bool(bool value) { add_u64(value ? 1 : 0); }

  [[nodiscard]] Fingerprint digest() const { return {hi_, lo_}; }

 private:
  /// murmur3's fmix64: a bijection in which every bit of the word
  /// reaches every bit of the result, so no two word changes cancel the
  /// way two flips of bit 63 do under a bare (h ^ w) * p step. Each
  /// stream's fold (xor or add, an odd multiply, a rotate) is a
  /// bijection in the stream for a fixed word and in the word for a
  /// fixed stream, so feeds that differ in one word differ at the end.
  /// The mixer sits off the streams' dependency chains, which are one
  /// multiply long per word.
  static constexpr std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    return x ^ (x >> 33);
  }

  // Distinct non-zero starting states, one per stream.
  std::uint64_t hi_ = 0xcbf29ce484222325ULL;
  std::uint64_t lo_ = 0x84222325cbf29ce4ULL;
};

/// Canonical fingerprint of one user's solve input: application graph
/// + pinning + components + system (cost/channel) parameters.
[[nodiscard]] Fingerprint fingerprint_request(const mec::UserApp& user,
                                              const mec::SystemParams& params);

/// Canonical text rendering of the EXACT scalar stream that
/// fingerprint_request() hashes — one line per scalar, doubles spelled
/// as the bit pattern of their normalized (-0.0 → +0.0) value. Two
/// requests have equal fingerprints iff they have equal canonical text
/// (up to the 2^-128 hash-collision bound); the fuzz harness in
/// fuzz/fuzz_fingerprint.cpp enforces this differential, so any
/// canonicalization change that touches one side but not the other is
/// caught immediately. Debug/audit aid, not a wire format.
[[nodiscard]] std::string canonical_request_text(
    const mec::UserApp& user, const mec::SystemParams& params);

}  // namespace mecoff::serve
