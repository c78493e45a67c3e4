#include "core/shared_state.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace corona {

void SharedState::load(SeqNo base_seq, const std::vector<StateEntry>& snapshot,
                       const std::vector<UpdateRecord>& updates) {
  objects_.clear();
  base_objects_.clear();
  history_.clear();
  history_bytes_ = 0;
  state_bytes_ = 0;
  base_seq_ = base_seq;
  head_seq_ = base_seq;
  for (const StateEntry& s : snapshot) {
    state_bytes_ += s.data.size();
    objects_[s.object] = s.data;
    base_objects_[s.object] = s.data;
  }
  CORONA_CHECK_INVARIANTS(*this);
  for (const UpdateRecord& u : updates) apply(u);
}

void SharedState::apply_to(std::map<ObjectId, Bytes>& objects,
                           const UpdateRecord& rec) {
  Bytes& obj = objects[rec.object];
  if (rec.kind == PayloadKind::kState) {
    obj.assign(rec.data.begin(), rec.data.end());
  } else {
    obj.insert(obj.end(), rec.data.begin(), rec.data.end());
  }
}

void SharedState::apply(const UpdateRecord& rec) {
  assert(rec.seq > head_seq_ && "records must be applied in sequence order");
  head_seq_ = rec.seq;
  if (rec.kind == PayloadKind::kState) {
    auto it = objects_.find(rec.object);
    state_bytes_ -= it != objects_.end() ? it->second.size() : 0;
    state_bytes_ += rec.data.size();
  } else {
    state_bytes_ += rec.data.size();
  }
  apply_to(objects_, rec);
  history_bytes_ += rec.data.size();
  history_.push_back(rec);
  CORONA_CHECK_INVARIANTS(*this);
}

std::vector<StateEntry> SharedState::snapshot() const {
  std::vector<StateEntry> out;
  out.reserve(objects_.size());
  for (const auto& [id, data] : objects_) out.push_back(StateEntry{id, data});
  return out;
}

std::vector<StateEntry> SharedState::snapshot_of(
    std::span<const ObjectId> ids) const {
  std::vector<StateEntry> out;
  for (ObjectId id : ids) {
    auto it = objects_.find(id);
    if (it != objects_.end()) out.push_back(StateEntry{id, it->second});
  }
  return out;
}

std::vector<UpdateRecord> SharedState::history() const {
  return {history_.begin(), history_.end()};
}

std::vector<UpdateRecord> SharedState::last_n(std::size_t n) const {
  const std::size_t take = std::min(n, history_.size());
  return {history_.end() - static_cast<std::ptrdiff_t>(take), history_.end()};
}

std::vector<UpdateRecord> SharedState::last_n_of(std::span<const ObjectId> ids,
                                                 std::size_t n) const {
  std::vector<UpdateRecord> out;
  for (auto it = history_.rbegin(); it != history_.rend() && out.size() < n;
       ++it) {
    if (std::find(ids.begin(), ids.end(), it->object) != ids.end()) {
      out.push_back(*it);
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<UpdateRecord> SharedState::since(SeqNo after) const {
  std::vector<UpdateRecord> out;
  for (const UpdateRecord& r : history_) {
    if (r.seq > after) out.push_back(r);
  }
  return out;
}

SeqNo SharedState::first_gap() const {
  SeqNo expect = base_seq_;
  for (const UpdateRecord& r : history_) {
    if (r.seq != ++expect) return expect;
  }
  return 0;
}

const Bytes* SharedState::object(ObjectId id) const {
  auto it = objects_.find(id);
  return it != objects_.end() ? &it->second : nullptr;
}

std::size_t SharedState::reduce_to(SeqNo upto) {
  upto = std::min(upto, head_seq_);
  if (upto <= base_seq_) return 0;
  std::size_t dropped = 0;
  // Fold the dropped prefix into the base snapshot so the checkpoint stays
  // "the consistent group state existing at that point" (§3.2).
  while (!history_.empty() && history_.front().seq <= upto) {
    apply_to(base_objects_, history_.front());
    history_bytes_ -= history_.front().data.size();
    history_.pop_front();
    ++dropped;
  }
  base_seq_ = upto;
  CORONA_CHECK_INVARIANTS(*this);
  return dropped;
}

InvariantReport SharedState::check_invariants() const {
  InvariantReport rep;
  if (base_seq_ > head_seq_) {
    rep.fail("SharedState: base_seq " + std::to_string(base_seq_) +
             " > head_seq " + std::to_string(head_seq_));
  }
  SeqNo prev = base_seq_;
  for (const UpdateRecord& r : history_) {
    if (r.seq <= prev) {
      rep.fail("SharedState: history seq " + std::to_string(r.seq) +
               " does not ascend past " + std::to_string(prev));
    }
    prev = r.seq;
  }
  if (!history_.empty() && history_.back().seq != head_seq_) {
    rep.fail("SharedState: newest history seq " +
             std::to_string(history_.back().seq) + " != head_seq " +
             std::to_string(head_seq_));
  }
  std::uint64_t hist_bytes = 0;
  for (const UpdateRecord& r : history_) hist_bytes += r.data.size();
  if (hist_bytes != history_bytes_) {
    rep.fail("SharedState: history_bytes " + std::to_string(history_bytes_) +
             " != recomputed " + std::to_string(hist_bytes));
  }
  std::uint64_t obj_bytes = 0;
  for (const auto& [id, data] : objects_) obj_bytes += data.size();
  if (obj_bytes != state_bytes_) {
    rep.fail("SharedState: state_bytes " + std::to_string(state_bytes_) +
             " != recomputed " + std::to_string(obj_bytes));
  }
  return rep;
}

Duration apply_cpu_cost(const UpdateRecord& rec) {
  constexpr Duration kPerMessage = 20;  // us
  constexpr double kPerByte = 0.02;     // us
  return kPerMessage + static_cast<Duration>(std::llround(
                           kPerByte * static_cast<double>(rec.data.size())));
}

std::vector<StateEntry> SharedState::snapshot_at_base() const {
  std::vector<StateEntry> out;
  out.reserve(base_objects_.size());
  for (const auto& [id, data] : base_objects_) {
    out.push_back(StateEntry{id, data});
  }
  return out;
}

}  // namespace corona
