#include "net/churn.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "checkpoint/codec.hpp"
#include "sim/event_kinds.hpp"

namespace glr::net {

namespace {

sim::EventDesc toggleDesc(std::size_t idx) {
  sim::EventDesc d;
  d.kind = sim::kChurnToggle;
  d.u0 = static_cast<std::uint64_t>(idx);
  return d;
}

}  // namespace

ChurnProcess::ChurnProcess(World& world, Params params, sim::Rng rng)
    : world_(world), params_(params) {
  if (!(params.fraction > 0.0) || params.fraction > 1.0) {
    throw std::invalid_argument{"ChurnProcess: fraction must be in (0, 1]"};
  }
  if (!(params.upMean > 0.0) || !(params.downMean > 0.0)) {
    throw std::invalid_argument{"ChurnProcess: up/down means must be > 0"};
  }
  if (params.start < 0.0) {
    throw std::invalid_argument{"ChurnProcess: negative start"};
  }
  const auto n = static_cast<std::size_t>(world.numNodes());
  if (n == 0) throw std::invalid_argument{"ChurnProcess: empty world"};
  const std::size_t k = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::llround(params.fraction * n)), 1, n);
  nodes_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    NodeState state;
    // Stride mapping i -> i*n/k yields k distinct ids spread over [0, n).
    state.id = static_cast<int>(i * n / k);
    state.rng = rng.fork(i);
    nodes_.push_back(state);
  }
  world.sim().setHandler(sim::kChurnToggle, this,
                         [](void* self, const sim::EventDesc& e) {
                           static_cast<ChurnProcess*>(self)->toggle(
                               static_cast<std::size_t>(e.u0));
                         });
}

void ChurnProcess::start() {
  for (std::size_t idx = 0; idx < nodes_.size(); ++idx) scheduleNext(idx);
}

void ChurnProcess::scheduleNext(std::size_t idx) {
  NodeState& node = nodes_[idx];
  const double mean = node.up ? params_.upMean : params_.downMean;
  sim::Simulator& sim = world_.sim();
  const sim::SimTime at =
      std::max(params_.start, sim.now()) + node.rng.exponential(mean);
  sim.scheduleAt(at, toggleDesc(idx));
}

void ChurnProcess::saveState(ckpt::Encoder& e) const {
  e.size(nodes_.size());
  for (const NodeState& node : nodes_) {
    e.i32(node.id);
    e.boolean(node.up);
    for (const std::uint64_t word : node.rng.state()) e.u64(word);
  }
  e.u64(toggles_);
}

void ChurnProcess::restoreState(ckpt::Decoder& d) {
  const std::size_t n = d.size();
  if (n != nodes_.size()) {
    d.fail("churning node count mismatch (snapshot " + std::to_string(n) +
           ", live " + std::to_string(nodes_.size()) + ")");
  }
  for (NodeState& node : nodes_) {
    const int id = d.i32();
    if (id != node.id) {
      d.fail("churning node id mismatch (snapshot " + std::to_string(id) +
             ", live " + std::to_string(node.id) + ")");
    }
    node.up = d.boolean();
    std::array<std::uint64_t, 4> state{};
    for (std::uint64_t& word : state) word = d.u64();
    node.rng.setState(state);
  }
  toggles_ = d.u64();
}

void ChurnProcess::toggle(std::size_t idx) {
  NodeState& node = nodes_[idx];
  node.up = !node.up;
  ++toggles_;
  world_.setRadioUp(node.id, node.up);
  scheduleNext(idx);
}

}  // namespace glr::net
