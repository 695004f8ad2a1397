// Spans around the layer entry points, for the traced binary only. Each
// function is wrapped at link time (`-Wl,--wrap=<mangled name>`, listed in
// CMakeLists.txt), so only calls that cross a translation unit are seen;
// none of the program's sources change. Link-time optimisation would let
// such calls be inlined past the wrappers, so the benchmark build keeps it
// off.
//
// The wrappers take the wrapped function's exact parameter types, `this`
// first (the Itanium C++ ABI), and forward by-value arguments by move, as
// the caller's own call would have.
//
// This file also replaces the global allocator: every allocation is
// charged to the innermost open span.

#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "dtn/buffer.hpp"
#include "dtn/message.hpp"
#include "geometry/delaunay.hpp"
#include "geometry/point.hpp"
#include "geometry/tiled_grid.hpp"
#include "mac/channel.hpp"
#include "mac/frame.hpp"
#include "mac/mac.hpp"
#include "net/neighbor.hpp"
#include "net/packet.hpp"
#include "spanner/ldtg.hpp"
#include "span_tracker.hpp"

using perfbench::ScopedSpan;

// glr::spanner::localSpannerNeighbors(int, Point2, const vector<KnownNode>&,
//                                     double, bool)
extern "C" std::vector<int>
__real__ZN3glr7spanner21localSpannerNeighborsEiNS_4geom6Point2ERKSt6vectorINS0_9KnownNodeESaIS4_EEdb(
    int, glr::geom::Point2, const std::vector<glr::spanner::KnownNode>&,
    double, bool);
extern "C" std::vector<int>
__wrap__ZN3glr7spanner21localSpannerNeighborsEiNS_4geom6Point2ERKSt6vectorINS0_9KnownNodeESaIS4_EEdb(
    int selfId, glr::geom::Point2 selfPos,
    const std::vector<glr::spanner::KnownNode>& known, double radius,
    bool applyWitnessRule) {
  ScopedSpan span(perfbench::kSpanner);
  return __real__ZN3glr7spanner21localSpannerNeighborsEiNS_4geom6Point2ERKSt6vectorINS0_9KnownNodeESaIS4_EEdb(
      selfId, selfPos, known, radius, applyWitnessRule);
}

// static glr::geom::Delaunay::buildInto(Delaunay&, const vector<Point2>&)
extern "C" void
__real__ZN3glr4geom8Delaunay9buildIntoERS1_RKSt6vectorINS0_6Point2ESaIS4_EE(
    glr::geom::Delaunay&, const std::vector<glr::geom::Point2>&);
extern "C" void
__wrap__ZN3glr4geom8Delaunay9buildIntoERS1_RKSt6vectorINS0_6Point2ESaIS4_EE(
    glr::geom::Delaunay& out, const std::vector<glr::geom::Point2>& points) {
  ScopedSpan span(perfbench::kDelaunay);
  __real__ZN3glr4geom8Delaunay9buildIntoERS1_RKSt6vectorINS0_6Point2ESaIS4_EE(
      out, points);
}

// glr::geom::TiledSpatialGrid::update(int, Point2, double)
extern "C" void __real__ZN3glr4geom16TiledSpatialGrid6updateEiNS0_6Point2Ed(
    glr::geom::TiledSpatialGrid*, int, glr::geom::Point2, double);
extern "C" void __wrap__ZN3glr4geom16TiledSpatialGrid6updateEiNS0_6Point2Ed(
    glr::geom::TiledSpatialGrid* self, int i, glr::geom::Point2 p, double t) {
  ScopedSpan span(perfbench::kTiledUpdate);
  __real__ZN3glr4geom16TiledSpatialGrid6updateEiNS0_6Point2Ed(self, i, p, t);
}

// glr::mac::Mac::send(net::Packet, int)
extern "C" bool __real__ZN3glr3mac3Mac4sendENS_3net6PacketEi(
    glr::mac::Mac*, glr::net::Packet, int);
extern "C" bool __wrap__ZN3glr3mac3Mac4sendENS_3net6PacketEi(
    glr::mac::Mac* self, glr::net::Packet packet, int dstMac) {
  ScopedSpan span(perfbench::kMacSend);
  return __real__ZN3glr3mac3Mac4sendENS_3net6PacketEi(self, std::move(packet),
                                                      dstMac);
}

// glr::mac::Channel::startTransmission(int, Frame, double)
extern "C" void __real__ZN3glr3mac7Channel17startTransmissionEiNS0_5FrameEd(
    glr::mac::Channel*, int, glr::mac::Frame, double);
extern "C" void __wrap__ZN3glr3mac7Channel17startTransmissionEiNS0_5FrameEd(
    glr::mac::Channel* self, int sender, glr::mac::Frame frame,
    double duration) {
  ScopedSpan span(perfbench::kChannelTx);
  __real__ZN3glr3mac7Channel17startTransmissionEiNS0_5FrameEd(
      self, sender, std::move(frame), duration);
}

// glr::mac::Mac::onFrameReceived(const Frame&)
extern "C" void __real__ZN3glr3mac3Mac15onFrameReceivedERKNS0_5FrameE(
    glr::mac::Mac*, const glr::mac::Frame&);
extern "C" void __wrap__ZN3glr3mac3Mac15onFrameReceivedERKNS0_5FrameE(
    glr::mac::Mac* self, const glr::mac::Frame& frame) {
  ScopedSpan span(perfbench::kMacRx);
  __real__ZN3glr3mac3Mac15onFrameReceivedERKNS0_5FrameE(self, frame);
}

// glr::net::NeighborService::handlePacket(const Packet&, int)
extern "C" bool __real__ZN3glr3net15NeighborService12handlePacketERKNS0_6PacketEi(
    glr::net::NeighborService*, const glr::net::Packet&, int);
extern "C" bool __wrap__ZN3glr3net15NeighborService12handlePacketERKNS0_6PacketEi(
    glr::net::NeighborService* self, const glr::net::Packet& packet,
    int fromMac) {
  ScopedSpan span(perfbench::kNeighborRx);
  return __real__ZN3glr3net15NeighborService12handlePacketERKNS0_6PacketEi(
      self, packet, fromMac);
}

// glr::dtn::MessageBuffer::addToStore(Message)
extern "C" bool __real__ZN3glr3dtn13MessageBuffer10addToStoreENS0_7MessageE(
    glr::dtn::MessageBuffer*, glr::dtn::Message);
extern "C" bool __wrap__ZN3glr3dtn13MessageBuffer10addToStoreENS0_7MessageE(
    glr::dtn::MessageBuffer* self, glr::dtn::Message m) {
  ScopedSpan span(perfbench::kBufferStore);
  return __real__ZN3glr3dtn13MessageBuffer10addToStoreENS0_7MessageE(
      self, std::move(m));
}

// ---------------------------------------------------------------------------
// Counting global allocator. Replacement operator new/delete may not be
// inline, so they are defined here, in exactly one translation unit.
// ---------------------------------------------------------------------------

namespace {

void charge() {
  if (perfbench::gTracker != nullptr) perfbench::gTracker->countAlloc();
}

void* countedAlloc(std::size_t n) {
  charge();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}

void* countedAlignedAlloc(std::size_t n, std::size_t align) {
  charge();
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align)) {
    return p;
  }
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return countedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return countedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
