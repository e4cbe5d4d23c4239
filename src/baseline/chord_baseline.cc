#include "src/baseline/chord_baseline.h"

#include <algorithm>

#include "src/net/wire.h"
#include "src/runtime/logging.h"

namespace p2 {
namespace {

Value Av(const std::string& a) { return Value::Addr(a); }
Value Iv(const Uint160& i) { return Value::Id(i); }

}  // namespace

BaselineChordNode::BaselineChordNode(Executor* executor, Transport* transport, uint64_t seed,
                                     const BaselineChordConfig& config,
                                     std::string landmark_addr)
    : executor_(executor),
      transport_(transport),
      rng_(seed),
      config_(config),
      addr_(transport->local_addr()),
      id_(Uint160::HashOf(addr_)),
      landmark_(std::move(landmark_addr)) {
  fingers_.resize(config_.num_fingers);
  // Frames decode only under tuple names this process has interned (see
  // UnmarshalTuple), and this node never installs a program that would
  // intern them: do it here, or the first message of a kind this process
  // has not yet sent itself would be dropped.
  for (const char* name :
       {"blookup", "blookupRes", "bstabReq", "bstabResp", "bnotify", "bping", "bpong"}) {
    InternSchema(name);
  }
  transport_->SetReceiver(
      [this](const std::string& from, const std::vector<uint8_t>& bytes) {
        OnPacket(from, bytes);
      });
}

BaselineChordNode::~BaselineChordNode() {
  Stop();
  transport_->SetReceiver(nullptr);
}

void BaselineChordNode::Start() {
  running_ = true;
  if (landmark_.empty() || landmark_ == "-") {
    AddSuccessor(Peer{id_, addr_});  // fresh ring: own successor
  } else {
    DoJoin();
  }
  ArmTimers();
}

void BaselineChordNode::Stop() {
  running_ = false;
  for (TimerId t : timers_) {
    executor_->Cancel(t);
  }
  timers_.clear();
}

void BaselineChordNode::ArmOne(size_t slot, double delay, double period,
                               void (BaselineChordNode::*fn)()) {
  timers_[slot] = executor_->ScheduleAfter(delay, [this, slot, period, fn]() {
    if (!running_) {
      return;
    }
    (this->*fn)();
    ArmOne(slot, period, period, fn);
  });
}

void BaselineChordNode::ArmTimers() {
  timers_.assign(4, kInvalidTimer);
  // Small random phases desynchronize timers the way any careful
  // implementation does.
  ArmOne(0, config_.stabilize_period_s * (0.1 + rng_.NextDouble() * 0.1),
         config_.stabilize_period_s, &BaselineChordNode::DoStabilize);
  ArmOne(1, config_.finger_fix_period_s * (0.1 + rng_.NextDouble() * 0.1),
         config_.finger_fix_period_s, &BaselineChordNode::DoFixFinger);
  ArmOne(2, config_.ping_period_s * (0.1 + rng_.NextDouble() * 0.1),
         config_.ping_period_s, &BaselineChordNode::DoPing);
  ArmOne(3, config_.join_retry_s, config_.join_retry_s, &BaselineChordNode::DoJoin);
}

void BaselineChordNode::Send(const std::string& to, const TuplePtr& t) {
  const std::string& name = t->name();
  std::vector<uint8_t> frame = FrameTuple(*t, name);
  if (frame.empty()) {
    return;  // oversize tuple, cannot be framed
  }
  if (to == addr_) {
    // Local delivery: dispatch synchronously through the same handler (no
    // deferred task — the node may be destroyed by churn before it runs).
    OnPacket(addr_, frame);
    return;
  }
  transport_->SendTo(to, std::move(frame), TrafficClassOf(name));
}

void BaselineChordNode::OnPacket(const std::string& from, const std::vector<uint8_t>& bytes) {
  (void)from;
  std::optional<TuplePtr> parsed = UnframeTuple(bytes);
  if (!parsed.has_value()) {
    return;
  }
  const Tuple& t = **parsed;
  const std::string& name = t.name();
  if (name == "blookup") {
    HandleLookup(t);
  } else if (name == "blookupRes") {
    HandleLookupRes(t);
  } else if (name == "bstabReq") {
    HandleStabReq(t);
  } else if (name == "bstabResp") {
    HandleStabResp(t);
  } else if (name == "bnotify") {
    HandleNotify(t);
  } else if (name == "bping") {
    HandlePing(t);
  } else if (name == "bpong") {
    HandlePong(t);
  }
}

// blookup(dest, K, R, E)
void BaselineChordNode::HandleLookup(const Tuple& t) {
  if (t.size() < 4) {
    return;
  }
  Uint160 key = t.field(1).AsId();
  const std::string& requester = t.field(2).AsAddr();
  Uint160 event = t.field(3).AsId();
  if (lookup_seen_) {
    lookup_seen_(event);
  }
  if (!succs_.empty() && key.InOC(id_, succs_.front().id)) {
    Send(requester, Tuple::Make("blookupRes", {Av(requester), Iv(key),
                                               Iv(succs_.front().id),
                                               Av(succs_.front().addr), Iv(event)}));
    return;
  }
  std::optional<Peer> next = ClosestPreceding(key);
  if (!next.has_value() && !succs_.empty()) {
    next = succs_.front();
  }
  if (!next.has_value() || next->addr == addr_) {
    return;  // Cannot make progress; drop (caller retries).
  }
  Send(next->addr,
       Tuple::Make("blookup", {Av(next->addr), Iv(key), Av(requester), Iv(event)}));
}

// blookupRes(dest, K, S, SI, E)
void BaselineChordNode::HandleLookupRes(const Tuple& t) {
  if (t.size() < 5) {
    return;
  }
  LookupResult r{t.field(1).AsId(), t.field(2).AsId(), t.field(3).AsAddr(),
                 t.field(4).AsId()};
  auto fix = fix_pending_.find(r.event_id.Low64());
  if (fix != fix_pending_.end()) {
    int index = fix->second;
    fix_pending_.erase(fix);
    if (index == -1) {
      AddSuccessor(Peer{r.successor_id, r.successor_addr});  // join result
    } else {
      fingers_[index] = Peer{r.successor_id, r.successor_addr};
      // Opportunistic eager population: this successor also serves every
      // later finger whose target still precedes it (mirrors P2's F6).
      for (int i = index + 1; i < config_.num_fingers; ++i) {
        Uint160 target = id_ + (Uint160(1) << static_cast<unsigned>(i));
        if (!target.InOO(id_, r.successor_id)) {
          break;
        }
        fingers_[i] = Peer{r.successor_id, r.successor_addr};
      }
    }
    return;
  }
  for (const LookupFn& fn : lookup_fns_) {
    fn(r);
  }
}

// bstabReq(dest, replyTo)
void BaselineChordNode::HandleStabReq(const Tuple& t) {
  if (t.size() < 2) {
    return;
  }
  const std::string& reply_to = t.field(1).AsAddr();
  ValueList succ_list;
  for (const Peer& s : succs_) {
    succ_list.push_back(Value::List({Iv(s.id), Av(s.addr)}));
  }
  Value pred_id = pred_.has_value() ? Iv(pred_->id) : Value::Str("-");
  Value pred_addr = pred_.has_value() ? Av(pred_->addr) : Value::Str("-");
  Send(reply_to, Tuple::Make("bstabResp", {Av(reply_to), pred_id, pred_addr,
                                           Value::List(std::move(succ_list))}));
}

// bstabResp(dest, P, PI, succlist)
void BaselineChordNode::HandleStabResp(const Tuple& t) {
  if (t.size() < 4) {
    return;
  }
  if (t.field(1).type() == ValueType::kId && t.field(2).type() == ValueType::kAddr &&
      !succs_.empty()) {
    Uint160 p = t.field(1).AsId();
    if (p.InOO(id_, succs_.front().id)) {
      AddSuccessor(Peer{p, t.field(2).AsAddr()});
    }
  }
  if (t.field(3).type() == ValueType::kList) {
    for (const Value& entry : t.field(3).AsList()) {
      if (entry.type() != ValueType::kList || entry.AsList().size() < 2) {
        continue;
      }
      const ValueList& pair = entry.AsList();
      if (pair[0].type() == ValueType::kId && pair[1].type() == ValueType::kAddr) {
        AddSuccessor(Peer{pair[0].AsId(), pair[1].AsAddr()});
      }
    }
  }
  // Notify our (possibly new) best successor of our existence.
  if (!succs_.empty() && succs_.front().addr != addr_) {
    Send(succs_.front().addr,
         Tuple::Make("bnotify", {Av(succs_.front().addr), Iv(id_), Av(addr_)}));
  }
}

// bnotify(dest, N, NI)
void BaselineChordNode::HandleNotify(const Tuple& t) {
  if (t.size() < 3) {
    return;
  }
  Uint160 n = t.field(1).AsId();
  const std::string& ni = t.field(2).AsAddr();
  if (!pred_.has_value() || n.InOO(pred_->id, id_)) {
    pred_ = Peer{n, ni};
  }
}

// bping(dest, replyTo, E)
void BaselineChordNode::HandlePing(const Tuple& t) {
  if (t.size() < 3) {
    return;
  }
  const std::string& reply_to = t.field(1).AsAddr();
  Send(reply_to, Tuple::Make("bpong", {Av(reply_to), Av(addr_), t.field(2)}));
}

// bpong(dest, from, E)
void BaselineChordNode::HandlePong(const Tuple& t) {
  if (t.size() < 3) {
    return;
  }
  ping_strikes_.erase(t.field(1).AsAddr());
}

void BaselineChordNode::AddSuccessor(const Peer& p) {
  for (const Peer& s : succs_) {
    if (s.addr == p.addr) {
      return;
    }
  }
  succs_.push_back(p);
  std::sort(succs_.begin(), succs_.end(), [this](const Peer& a, const Peer& b) {
    return (a.id - id_ - Uint160(1)) < (b.id - id_ - Uint160(1));
  });
  if (succs_.size() > static_cast<size_t>(config_.max_successors)) {
    succs_.resize(config_.max_successors);
  }
}

void BaselineChordNode::RemovePeer(const std::string& peer_addr) {
  succs_.erase(std::remove_if(succs_.begin(), succs_.end(),
                              [&](const Peer& s) { return s.addr == peer_addr; }),
               succs_.end());
  if (pred_.has_value() && pred_->addr == peer_addr) {
    pred_.reset();
  }
  for (auto& f : fingers_) {
    if (f.has_value() && f->addr == peer_addr) {
      f.reset();
    }
  }
  ping_strikes_.erase(peer_addr);
}

std::optional<BaselineChordNode::Peer> BaselineChordNode::ClosestPreceding(
    const Uint160& key) const {
  std::optional<Peer> best;
  auto consider = [&](const Peer& p) {
    if (p.addr == addr_ || !p.id.InOO(id_, key)) {
      return;
    }
    if (!best.has_value() ||
        (key - p.id - Uint160(1)) < (key - best->id - Uint160(1))) {
      best = p;
    }
  };
  for (const auto& f : fingers_) {
    if (f.has_value()) {
      consider(*f);
    }
  }
  for (const Peer& s : succs_) {
    consider(s);
  }
  return best;
}

void BaselineChordNode::DoJoin() {
  if (!succs_.empty()) {
    return;
  }
  if (landmark_provider_) {
    std::string fresh = landmark_provider_();
    if (!fresh.empty() && fresh != addr_) {
      landmark_ = fresh;
    }
  }
  if (landmark_.empty() || landmark_ == "-") {
    return;
  }
  Uint160 event = rng_.NextId();
  fix_pending_[event.Low64()] = -1;  // join marker
  Send(landmark_, Tuple::Make("blookup", {Av(landmark_), Iv(id_), Av(addr_), Iv(event)}));
}

void BaselineChordNode::DoStabilize() {
  if (succs_.empty()) {
    return;
  }
  // Note: stabilizing with ourselves is intentional, not an error. A fresh
  // ring's founder has itself as successor; asking itself for its
  // predecessor (set by the first joiner's notify) and adopting it via the
  // degenerate interval (n, n) is how the founder leaves the self-ring.
  Send(succs_.front().addr,
       Tuple::Make("bstabReq", {Av(succs_.front().addr), Av(addr_)}));
}

void BaselineChordNode::DoFixFinger() {
  if (succs_.empty()) {
    return;
  }
  int index = next_finger_;
  next_finger_ = (next_finger_ + 1) % config_.num_fingers;
  Uint160 target = id_ + (Uint160(1) << static_cast<unsigned>(index));
  Uint160 event = rng_.NextId();
  fix_pending_[event.Low64()] = index;
  Send(addr_, Tuple::Make("blookup", {Av(addr_), Iv(target), Av(addr_), Iv(event)}));
}

void BaselineChordNode::DoPing() {
  auto ping = [&](const std::string& peer) {
    if (peer == addr_) {
      return;
    }
    int strikes = ++ping_strikes_[peer];
    if (strikes > config_.ping_strikes) {
      RemovePeer(peer);
      return;
    }
    Send(peer, Tuple::Make("bping", {Av(peer), Av(addr_), Iv(rng_.NextId())}));
  };
  std::vector<std::string> peers;
  for (const Peer& s : succs_) {
    peers.push_back(s.addr);
  }
  if (pred_.has_value()) {
    peers.push_back(pred_->addr);
  }
  for (const std::string& p : peers) {
    ping(p);
  }
}

Uint160 BaselineChordNode::Lookup(const Uint160& key) {
  Uint160 event = rng_.NextId();
  RetryLookup(key, event);
  return event;
}

void BaselineChordNode::RetryLookup(const Uint160& key, const Uint160& event) {
  Send(addr_, Tuple::Make("blookup", {Av(addr_), Iv(key), Av(addr_), Iv(event)}));
}

std::optional<std::pair<Uint160, std::string>> BaselineChordNode::BestSuccessor() const {
  if (succs_.empty()) {
    return std::nullopt;
  }
  return std::make_pair(succs_.front().id, succs_.front().addr);
}

std::vector<std::pair<Uint160, std::string>> BaselineChordNode::Successors() const {
  std::vector<std::pair<Uint160, std::string>> out;
  for (const Peer& s : succs_) {
    out.emplace_back(s.id, s.addr);
  }
  return out;
}

std::optional<std::pair<Uint160, std::string>> BaselineChordNode::Predecessor() const {
  if (!pred_.has_value()) {
    return std::nullopt;
  }
  return std::make_pair(pred_->id, pred_->addr);
}

}  // namespace p2
