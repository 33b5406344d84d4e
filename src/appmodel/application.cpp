#include "appmodel/application.hpp"

#include <algorithm>
#include <map>

#include "common/contracts.hpp"

namespace mecoff::appmodel {

namespace {

/// 64-bit FNV-1a over the name's bytes, high half folded onto the low
/// half that places the slot. Inline: names are short, and the library's
/// out-of-line std::hash call cost ≈ 15 µs per 2,700-name body.
std::uint32_t name_hash(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name)
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace

Application::Application(std::string name) : name_(std::move(name)) {}

std::size_t Application::add_function(FunctionInfo info) {
  const std::size_t index = try_add_function(std::move(info));
  MECOFF_EXPECTS(index != npos);  // names are unique
  return index;
}

std::size_t Application::try_add_function(FunctionInfo info) {
  MECOFF_EXPECTS(!info.name.empty());
  MECOFF_EXPECTS(info.computation >= 0.0);
  MECOFF_EXPECTS(functions_.size() < kNoFunction);
  if (2 * (functions_.size() + 1) > name_index_.size()) {
    // Double the table and re-place every slot by its stored hash.
    std::vector<NameSlot> old(
        std::max<std::size_t>(16, 2 * name_index_.size()));
    old.swap(name_index_);
    const std::size_t mask = name_index_.size() - 1;
    for (const NameSlot slot : old) {
      if (slot.function == kNoFunction) continue;
      std::size_t at = slot.hash & mask;
      while (name_index_[at].function != kNoFunction) at = (at + 1) & mask;
      name_index_[at] = slot;
    }
  }
  const std::uint32_t hash = name_hash(info.name);
  const std::size_t at = slot_of(info.name, hash);
  if (name_index_[at].function != kNoFunction) return npos;
  name_index_[at] = {hash, static_cast<std::uint32_t>(functions_.size())};
  functions_.push_back(std::move(info));
  return functions_.size() - 1;
}

std::size_t Application::slot_of(std::string_view name,
                                 std::uint32_t hash) const {
  const std::size_t mask = name_index_.size() - 1;
  std::size_t at = hash & mask;
  for (;; at = (at + 1) & mask) {
    const NameSlot slot = name_index_[at];
    if (slot.function == kNoFunction ||
        (slot.hash == hash && functions_[slot.function].name == name))
      return at;
  }
}

void Application::add_exchange(std::size_t from, std::size_t to,
                               double amount) {
  MECOFF_EXPECTS(from < functions_.size() && to < functions_.size());
  MECOFF_EXPECTS(from != to);
  MECOFF_EXPECTS(amount >= 0.0);
  exchanges_.push_back(DataExchange{from, to, amount});
}

const FunctionInfo& Application::function(std::size_t i) const {
  MECOFF_EXPECTS(i < functions_.size());
  return functions_[i];
}

std::size_t Application::find_function(std::string_view name) const {
  if (name_index_.empty()) return npos;
  const std::uint32_t function =
      name_index_[slot_of(name, name_hash(name))].function;
  return function == kNoFunction ? npos : function;
}

graph::WeightedGraph Application::to_graph() const {
  graph::GraphBuilder builder;
  builder.reserve(functions_.size(), exchanges_.size());
  for (const FunctionInfo& f : functions_) builder.add_node(f.computation);
  for (const DataExchange& x : exchanges_)
    builder.add_edge(static_cast<graph::NodeId>(x.from),
                     static_cast<graph::NodeId>(x.to), x.amount);
  return builder.build();
}

std::vector<bool> Application::unoffloadable_mask() const {
  std::vector<bool> mask(functions_.size(), false);
  for (std::size_t i = 0; i < functions_.size(); ++i)
    mask[i] = functions_[i].unoffloadable;
  return mask;
}

std::vector<std::uint32_t> Application::component_ids() const {
  std::map<std::string, std::uint32_t> remap;
  std::vector<std::uint32_t> ids(functions_.size(), 0);
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    const auto [it, inserted] = remap.try_emplace(
        functions_[i].component, static_cast<std::uint32_t>(remap.size()));
    ids[i] = it->second;
    (void)inserted;
  }
  return ids;
}

}  // namespace mecoff::appmodel
