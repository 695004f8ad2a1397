#include "dtn/location_table.hpp"

#include "checkpoint/codec.hpp"
#include "checkpoint/message_codec.hpp"

namespace glr::dtn {

void LocationTable::saveState(ckpt::Encoder& e) const {
  ckpt::saveKeyed(e, table_, [](ckpt::Encoder& enc, const auto& entry) {
    enc.i32(entry.first);
    ckpt::savePoint(enc, entry.second.pos);
    enc.f64(entry.second.at);
  });
}

void LocationTable::restoreState(ckpt::Decoder& d) {
  ckpt::loadKeyed(d, table_, [](ckpt::Decoder& dec) {
    const int id = dec.i32();
    Entry entry;
    entry.pos = ckpt::loadPoint(dec);
    entry.at = dec.f64();
    return std::pair<int, Entry>{id, entry};
  });
}

}  // namespace glr::dtn
