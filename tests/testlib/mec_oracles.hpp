// Reference solvers and objectives for the mec test suites: a coin-flip
// offloader (the floor any structured method must beat) and the
// multi-server objective recomputed one server group at a time.
#pragma once

#include <cstdint>
#include <string>

#include "mec/costs.hpp"
#include "mec/multiserver.hpp"
#include "mec/offloader.hpp"

namespace mecoff::mec {

/// Independent coin flip per offloadable function — the sanity floor
/// any structured method must beat.
class RandomOffloader final : public Offloader {
 public:
  explicit RandomOffloader(double remote_probability = 0.5,
                           std::uint64_t seed = 0xc01);
  [[nodiscard]] OffloadingScheme solve(const MecSystem& system) override;
  [[nodiscard]] std::string name() const override { return "random"; }

 private:
  double remote_probability_;
  std::uint64_t seed_;
};

/// Cost of the users `result` attaches to `server`, evaluated from
/// scratch as a single-server system over that server's spec.
[[nodiscard]] SystemCost evaluate_server_group(
    const MultiServerSystem& system, const MultiServerResult& result,
    std::size_t server);

}  // namespace mecoff::mec
