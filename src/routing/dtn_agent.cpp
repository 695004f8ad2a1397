#include "routing/dtn_agent.hpp"

#include <stdexcept>

#include "sim/event_kinds.hpp"

namespace glr::routing {

void DtnAgent::saveState(ckpt::Encoder& /*e*/) const {
  throw std::runtime_error{
      "DtnAgent: this protocol does not implement checkpointing"};
}

void DtnAgent::restoreState(ckpt::Decoder& /*d*/) {
  throw std::runtime_error{
      "DtnAgent: this protocol does not implement checkpoint restore"};
}

void DtnAgent::onEvent(const sim::EventDesc& e) {
  if (e.kind == sim::kTrafficPaperArrival) {
    originate(e.i1);
    return;
  }
  net::Agent::onEvent(e);
}

}  // namespace glr::routing
