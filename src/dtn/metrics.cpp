#include "dtn/metrics.hpp"

#include "checkpoint/codec.hpp"

namespace glr::dtn {

namespace {

void saveBitmaps(ckpt::Encoder& e,
                 const std::vector<std::vector<std::uint64_t>>& bits) {
  e.size(bits.size());
  for (const std::vector<std::uint64_t>& b : bits) {
    e.size(b.size());
    for (const std::uint64_t word : b) e.u64(word);
  }
}

void loadBitmaps(ckpt::Decoder& d,
                 std::vector<std::vector<std::uint64_t>>& bits) {
  const std::size_t nOrigins = d.checkedSize(d.u64(), 8);
  bits.clear();
  bits.resize(nOrigins);
  for (std::size_t i = 0; i < nOrigins; ++i) {
    const std::size_t nWords = d.checkedSize(d.u64(), 8);
    bits[i].reserve(nWords);
    for (std::size_t w = 0; w < nWords; ++w) bits[i].push_back(d.u64());
  }
}

}  // namespace

void MetricsCollector::saveState(ckpt::Encoder& e) const {
  saveBitmaps(e, createdBits_);
  saveBitmaps(e, deliveredBits_);
  ckpt::saveKeyed(e, counters_, [](ckpt::Encoder& enc, const auto& entry) {
    enc.str(entry.first);
    enc.u64(entry.second);
  });
  latencySketch_.saveState(e);
  latencyMoments_.saveState(e);
  e.u64(createdCount_);
  e.u64(deliveredCount_);
  e.f64(latencySum_);
  e.f64(hopsSum_);
  e.u64(duplicateDeliveries_);
}

void MetricsCollector::restoreState(ckpt::Decoder& d) {
  loadBitmaps(d, createdBits_);
  loadBitmaps(d, deliveredBits_);
  ckpt::loadKeyed(d, counters_, [](ckpt::Decoder& dec) {
    std::string key = dec.str();
    const std::uint64_t value = dec.u64();
    return std::pair<std::string, std::uint64_t>{std::move(key), value};
  });
  latencySketch_.restoreState(d);
  latencyMoments_.restoreState(d);
  createdCount_ = d.u64();
  deliveredCount_ = d.u64();
  latencySum_ = d.f64();
  hopsSum_ = d.f64();
  duplicateDeliveries_ = d.u64();
}

}  // namespace glr::dtn
