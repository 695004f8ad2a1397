#include "mac/mac.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "checkpoint/payload_codec.hpp"
#include "sim/event_kinds.hpp"

namespace glr::mac {

namespace {

sim::EventDesc macDesc(sim::EventKind kind, int self) {
  sim::EventDesc d;
  d.kind = kind;
  d.i0 = self;
  return d;
}

}  // namespace

Mac::Mac(sim::Simulator& sim, Channel& channel, int self, MacParams params,
         sim::Rng rng)
    : sim_(sim), channel_(channel), self_(self), params_(params), rng_(rng) {
  if (self < 0) throw std::invalid_argument{"Mac: negative node id"};
  channel_.attach(this);
}

double Mac::frameDuration(std::size_t bytes) const {
  return params_.phyOverhead +
         static_cast<double>(bytes) * 8.0 / params_.bitRateBps;
}

int Mac::contentionWindow(int attempts) const {
  long cw = params_.cwMin;
  for (int i = 0; i < attempts; ++i) {
    cw = std::min<long>(2 * (cw + 1) - 1, params_.cwMax);
  }
  return static_cast<int>(cw);
}

bool Mac::send(net::Packet packet, int dstMac) {
  if (!radioUp_) {
    ++stats_.radioDownDrops;
    return false;
  }
  if (queue_.size() >= params_.queueLimit) {
    ++stats_.queueDrops;
    return false;
  }
  ++stats_.enqueued;
  Outgoing out;
  out.packet = std::move(packet);
  out.dst = dstMac;
  out.seq = nextSeq_++;
  queue_.push_back(std::move(out));
  scheduleAttempt();
  return true;
}

void Mac::scheduleAttempt() {
  if (!radioUp_ || attemptScheduled_ || transmitting_ || awaitingAck_ ||
      queue_.empty()) {
    return;
  }
  attemptScheduled_ = true;
  attemptHandle_ = sim_.schedule(0.0, macDesc(sim::kMacAttempt, self_));
}

void Mac::onEvent(const sim::EventDesc& e) {
  switch (e.kind) {
    case sim::kMacAttempt:
      attempt();
      return;
    case sim::kMacBackoffExpire:
      onBackoffExpire();
      return;
    case sim::kMacTxEnd:
      onDataTxEnd(e.b0 != 0, e.u0);
      return;
    case sim::kMacAckTimeout:
      onAckTimeout();
      return;
    case sim::kMacAckReply:
      sendAckReply(e.i1, e.u0, e.f0, e.u1);
      return;
    default:
      throw std::logic_error{"Mac::onEvent: not a MAC event kind"};
  }
}

void Mac::adoptRestoredTimer(const sim::EventDesc& e, sim::EventHandle h) {
  if (e.kind == sim::kMacAckTimeout) {
    ackTimeoutHandle_ = h;
  } else if (e.kind == sim::kMacAttempt || e.kind == sim::kMacBackoffExpire) {
    attemptHandle_ = h;
  }
}

void Mac::attempt() {
  if (!radioUp_ || transmitting_ || awaitingAck_ || queue_.empty()) {
    attemptScheduled_ = false;
    return;
  }
  if (channel_.mediumBusy(self_)) {
    // Defer until the heard transmissions end, plus sub-slot jitter so
    // synchronized waiters don't re-collide deterministically.
    ++stats_.busyDeferrals;
    const sim::SimTime idleAt =
        std::max(channel_.nextIdleHint(self_), sim_.now());
    attemptHandle_ = sim_.scheduleAt(
        idleAt + rng_.uniform(0.0, params_.slotTime),
        macDesc(sim::kMacAttempt, self_));
    return;
  }
  const int cw = contentionWindow(queue_.front().attempts);
  const double backoff =
      static_cast<double>(rng_.below(static_cast<std::uint64_t>(cw) + 1)) *
      params_.slotTime;
  attemptHandle_ = sim_.schedule(params_.difs + backoff,
                                 macDesc(sim::kMacBackoffExpire, self_));
}

void Mac::onBackoffExpire() {
  if (!radioUp_ || queue_.empty()) {
    attemptScheduled_ = false;
    return;
  }
  if (channel_.mediumBusy(self_)) {
    attempt();  // medium got busy during backoff: defer again
    return;
  }
  transmitHead();
}

void Mac::transmitHead() {
  attemptScheduled_ = false;
  Outgoing& out = queue_.front();
  const bool broadcast = out.dst == net::kBroadcast;

  Frame frame;
  frame.type = Frame::Type::kData;
  frame.src = self_;
  frame.dst = out.dst;
  frame.seq = out.seq;
  frame.bytes = out.packet.bytes + params_.macHeaderBytes;
  frame.packet = out.packet;

  const double duration = frameDuration(frame.bytes);
  transmitting_ = true;
  lastTxStart_ = sim_.now();
  lastTxEnd_ = sim_.now() + duration;
  recordOwnTx(lastTxStart_, lastTxEnd_);
  ++stats_.dataTx;
  if (out.attempts > 0) ++stats_.retries;

  channel_.startTransmission(self_, std::move(frame), duration);
  sim::EventDesc desc = macDesc(sim::kMacTxEnd, self_);
  desc.b0 = broadcast ? 0 : 1;  // expectAck
  desc.u0 = radioEpoch_;
  sim_.schedule(duration, desc);
}

void Mac::onDataTxEnd(bool expectAck, std::uint64_t epoch) {
  transmitting_ = false;
  if (epoch != radioEpoch_ || queue_.empty()) {
    // Radio toggled mid-frame: that head was flushed. If we are back up
    // with newly queued traffic, restart contention for it. (A live run
    // never ends a frame of the current epoch with an empty queue; a
    // tampered checkpoint's record can, and is treated the same way.)
    scheduleAttempt();
    return;
  }
  if (!expectAck) {
    finishHead(true);
    return;
  }
  awaitingAck_ = true;
  awaitedSeq_ = queue_.front().seq;
  const double ackTimeout = params_.sifs + frameDuration(params_.ackBytes) +
                            2.0 * params_.slotTime + 20e-6;
  ackTimeoutHandle_ =
      sim_.schedule(ackTimeout, macDesc(sim::kMacAckTimeout, self_));
}

void Mac::onAckTimeout() {
  awaitingAck_ = false;
  if (queue_.empty()) return;  // defensive: down-flush cancels this timer
  ++stats_.ackTimeouts;
  Outgoing& out = queue_.front();
  ++out.attempts;
  if (out.attempts > params_.retryLimit) {
    ++stats_.retryDrops;
    finishHead(false);
    return;
  }
  scheduleAttempt();
}

void Mac::finishHead(bool success) {
  Outgoing out = std::move(queue_.front());
  queue_.pop_front();
  if (onTxStatus_ && out.dst != net::kBroadcast) {
    onTxStatus_(out.packet, out.dst, success);
  }
  scheduleAttempt();
}

void Mac::setRadioUp(bool up) {
  if (up == radioUp_) return;
  radioUp_ = up;
  ++radioEpoch_;
  if (up) {
    upSince_ = sim_.now();
    scheduleAttempt();  // queue is empty after a down-flush; harmless
    return;
  }
  // Going down: cancel pending contention/ACK timers and flush the queue.
  // The head may be mid-air — the channel finishes that frame (it left the
  // antenna), but this MAC forgets it: the epoch guard neutralizes the
  // pending tx-end event and the unicast fails below.
  attemptHandle_.cancel();
  attemptScheduled_ = false;
  ackTimeoutHandle_.cancel();
  awaitingAck_ = false;
  while (!queue_.empty()) {
    Outgoing out = std::move(queue_.front());
    queue_.pop_front();
    ++stats_.radioDownDrops;
    if (onTxStatus_ && out.dst != net::kBroadcast) {
      onTxStatus_(out.packet, out.dst, false);
    }
  }
}

void Mac::onFrameReceived(const Frame& frame) {
  if (!radioUp_) return;  // duty-cycled off: the radio hears nothing
  if (frame.type == Frame::Type::kAck) {
    if (awaitingAck_ && frame.dst == self_ && frame.seq == awaitedSeq_) {
      ++stats_.rxAck;
      ackTimeoutHandle_.cancel();
      awaitingAck_ = false;
      finishHead(true);
    }
    return;
  }

  // DATA frame.
  const bool unicastToMe = frame.dst == self_;
  if (unicastToMe) {
    // Reply with an ACK after SIFS (ACKs skip contention by design). The
    // record carries only the scalars; the Frame is built when it fires.
    sim::EventDesc desc = macDesc(sim::kMacAckReply, self_);
    desc.i1 = frame.src;
    desc.u0 = frame.seq;
    desc.u1 = radioEpoch_;
    desc.f0 = frameDuration(params_.ackBytes);
    sim_.schedule(params_.sifs, desc);
  } else if (frame.dst != net::kBroadcast) {
    return;  // unicast for someone else
  }

  // Suppress retry-duplicates: the sender repeats a frame when our ACK was
  // lost; the upper layer must see the packet only once.
  for (auto& [src, seq] : lastSeqFrom_) {
    if (src == frame.src) {
      if (seq == frame.seq && unicastToMe) {
        ++stats_.duplicatesSuppressed;
        return;
      }
      seq = frame.seq;
      ++stats_.rxData;
      if (onReceive_) onReceive_(frame.packet, frame.src);
      return;
    }
  }
  lastSeqFrom_.emplace_back(frame.src, frame.seq);
  ++stats_.rxData;
  if (onReceive_) onReceive_(frame.packet, frame.src);
}

bool Mac::transmittedDuring(sim::SimTime start, sim::SimTime end) const {
  for (std::size_t i = 0; i < recentTxCount_; ++i) {
    const auto& [s, e] = recentTx_[i];
    if (s <= end && start < e) return true;
  }
  return false;
}

void Mac::sendAckReply(int dst, std::uint64_t seq, double ackDur,
                       std::uint64_t epoch) {
  if (epoch != radioEpoch_) return;  // radio toggled during SIFS
  Frame ack;
  ack.type = Frame::Type::kAck;
  ack.src = self_;
  ack.dst = dst;
  ack.seq = seq;
  ack.bytes = params_.ackBytes;
  recordOwnTx(sim_.now(), sim_.now() + ackDur);
  ++stats_.ackTx;
  channel_.startTransmission(self_, std::move(ack), ackDur);
}

void Mac::saveState(ckpt::Encoder& e) const {
  for (const std::uint64_t word : rng_.state()) e.u64(word);
  e.size(queue_.size());
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Outgoing& out = queue_[i];
    ckpt::savePacket(e, out.packet);
    e.i32(out.dst);
    e.i32(out.attempts);
    e.u64(out.seq);
  }
  e.boolean(attemptScheduled_);
  e.boolean(transmitting_);
  e.boolean(awaitingAck_);
  e.boolean(radioUp_);
  e.f64(upSince_);
  e.u64(radioEpoch_);
  e.u64(nextSeq_);
  e.u64(awaitedSeq_);
  e.f64(lastTxStart_);
  e.f64(lastTxEnd_);
  e.size(recentTxCount_);
  e.size(recentTxNext_);
  for (const auto& [s, end] : recentTx_) {
    e.f64(s);
    e.f64(end);
  }
  e.size(lastSeqFrom_.size());
  for (const auto& [src, seq] : lastSeqFrom_) {
    e.i32(src);
    e.u64(seq);
  }
  e.u64(stats_.enqueued);
  e.u64(stats_.queueDrops);
  e.u64(stats_.dataTx);
  e.u64(stats_.ackTx);
  e.u64(stats_.retries);
  e.u64(stats_.retryDrops);
  e.u64(stats_.ackTimeouts);
  e.u64(stats_.busyDeferrals);
  e.u64(stats_.rxData);
  e.u64(stats_.rxAck);
  e.u64(stats_.duplicatesSuppressed);
  e.u64(stats_.radioDownDrops);
}

void Mac::restoreState(ckpt::Decoder& d) {
  std::array<std::uint64_t, 4> rngState{};
  for (std::uint64_t& word : rngState) word = d.u64();
  rng_.setState(rngState);
  queue_.clear();
  const std::size_t nQueued = d.checkedSize(d.u64(), 17);
  for (std::size_t i = 0; i < nQueued; ++i) {
    Outgoing out;
    out.packet = ckpt::loadPacket(d);
    out.dst = d.i32();
    out.attempts = d.i32();
    out.seq = d.u64();
    queue_.push_back(std::move(out));
  }
  attemptScheduled_ = d.boolean();
  transmitting_ = d.boolean();
  awaitingAck_ = d.boolean();
  radioUp_ = d.boolean();
  upSince_ = d.f64();
  radioEpoch_ = d.u64();
  nextSeq_ = d.u64();
  awaitedSeq_ = d.u64();
  lastTxStart_ = d.f64();
  lastTxEnd_ = d.f64();
  recentTxCount_ = d.size();
  recentTxNext_ = d.size();
  if (recentTxCount_ > recentTx_.size() ||
      recentTxNext_ >= recentTx_.size()) {
    d.fail("recent-tx ring cursor out of range");
  }
  for (auto& [s, end] : recentTx_) {
    s = d.f64();
    end = d.f64();
  }
  const std::size_t nSeen = d.checkedSize(d.u64(), 12);
  lastSeqFrom_.clear();
  lastSeqFrom_.reserve(nSeen);
  for (std::size_t i = 0; i < nSeen; ++i) {
    const int src = d.i32();
    const std::uint64_t seq = d.u64();
    lastSeqFrom_.emplace_back(src, seq);
  }
  stats_.enqueued = d.u64();
  stats_.queueDrops = d.u64();
  stats_.dataTx = d.u64();
  stats_.ackTx = d.u64();
  stats_.retries = d.u64();
  stats_.retryDrops = d.u64();
  stats_.ackTimeouts = d.u64();
  stats_.busyDeferrals = d.u64();
  stats_.rxData = d.u64();
  stats_.rxAck = d.u64();
  stats_.duplicatesSuppressed = d.u64();
  stats_.radioDownDrops = d.u64();
  // Stale handles from the pre-restore life of this object must not be able
  // to cancel the rebuilt events.
  attemptHandle_ = {};
  ackTimeoutHandle_ = {};
}

}  // namespace glr::mac
