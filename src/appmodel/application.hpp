// Application model: the metadata layer above the bare weighted graph.
// This is the repo's substitute for Soot's static analysis (DESIGN.md
// §2): where the paper extracts functions and calling relationships
// from compiled Java bytecode, we take the same information from an
// explicit description — each function's computation amount, whether it
// is pinned to the device (sensor/local-I/O access), which software
// component it belongs to, and how much data every pair of functions
// exchanges. Everything downstream of extraction is identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/weighted_graph.hpp"

namespace mecoff::appmodel {

struct FunctionInfo {
  std::string name;
  /// Amount of computation (the node weight w_j of formula (1)).
  double computation = 1.0;
  /// Pinned to the mobile device (reads sensors, touches local I/O).
  bool unoffloadable = false;
  /// Software component the function belongs to (compression boundary).
  std::string component;
};

/// One data exchange between two functions (an edge of the function
/// data flow graph; Fig. 1's |a| = 10 style annotations).
struct DataExchange {
  std::size_t from = 0;  ///< function index
  std::size_t to = 0;    ///< function index
  double amount = 0.0;   ///< s(v_j, v_l)
};

class Application {
 public:
  explicit Application(std::string name = "app");

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Add a function; names must be unique. Returns its index.
  std::size_t add_function(FunctionInfo info);

  /// Add a function unless its name is already declared: returns its
  /// index, or npos (adding nothing) for a duplicate. Hashes the name
  /// once, so a parser rejects duplicates without a separate lookup.
  std::size_t try_add_function(FunctionInfo info);

  /// Pre-size the exchange list for `n` exchanges.
  void reserve_exchanges(std::size_t n) { exchanges_.reserve(n); }

  /// Record a data exchange (both directions count as one undirected
  /// communication; repeated exchanges accumulate in the graph).
  void add_exchange(std::size_t from, std::size_t to, double amount);

  [[nodiscard]] std::size_t num_functions() const { return functions_.size(); }
  [[nodiscard]] const FunctionInfo& function(std::size_t i) const;
  [[nodiscard]] const std::vector<FunctionInfo>& functions() const {
    return functions_;
  }
  [[nodiscard]] const std::vector<DataExchange>& exchanges() const {
    return exchanges_;
  }

  /// Index of the function named `name`; npos when absent. Looks the
  /// view up directly, so a parser probes names without a copy.
  [[nodiscard]] std::size_t find_function(std::string_view name) const;
  static constexpr std::size_t npos = SIZE_MAX;

  // --- Extraction (the "Soot" step) -------------------------------------

  /// The weighted undirected function data flow graph (node = function,
  /// node weight = computation, edge weight = total data exchanged).
  [[nodiscard]] graph::WeightedGraph to_graph() const;

  /// unoffloadable mask aligned with to_graph() node ids.
  [[nodiscard]] std::vector<bool> unoffloadable_mask() const;

  /// Dense component ids aligned with to_graph() node ids (functions
  /// with empty component names share component "").
  [[nodiscard]] std::vector<std::uint32_t> component_ids() const;

 private:
  static constexpr std::uint32_t kNoFunction = UINT32_MAX;
  /// One slot of the name index: a function index and its name's 32-bit
  /// hash, which places the slot, re-places it when the table grows, and
  /// screens a probe before it compares names.
  struct NameSlot {
    std::uint32_t hash = 0;
    std::uint32_t function = kNoFunction;
  };

  /// The slot holding `name`, or the empty slot where it would go.
  [[nodiscard]] std::size_t slot_of(std::string_view name,
                                    std::uint32_t hash) const;

  std::string name_;
  std::vector<FunctionInfo> functions_;
  std::vector<DataExchange> exchanges_;
  /// Open-addressing name index over functions_ (linear probing, a
  /// power-of-two size, at most half full; each name is stored only in
  /// its FunctionInfo).
  std::vector<NameSlot> name_index_;
};

}  // namespace mecoff::appmodel
