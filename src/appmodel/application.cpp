#include "appmodel/application.hpp"

#include <map>

#include "common/contracts.hpp"

namespace mecoff::appmodel {

Application::Application(std::string name) : name_(std::move(name)) {}

std::size_t Application::add_function(FunctionInfo info) {
  MECOFF_EXPECTS(!info.name.empty());
  MECOFF_EXPECTS(info.computation >= 0.0);
  const auto [it, inserted] =
      index_by_name_.try_emplace(info.name, functions_.size());
  MECOFF_EXPECTS(inserted);
  functions_.push_back(std::move(info));
  return it->second;
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
  const auto it = index_by_name_.find(name);
  return it == index_by_name_.end() ? npos : it->second;
}

graph::WeightedGraph Application::to_graph() const {
  graph::GraphBuilder builder;
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
