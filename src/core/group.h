// The per-group engine (paper §3.1, and the coordinator of §4.1).
//
// A group binds together: metadata (persistent/transient), the shared state,
// the membership (with roles and per-member notification preferences), the
// sequencer for the group's total order, the lock table, and the dedup set
// used by crash recovery (one (sender, request-id) pair per sequenced
// message, so resent updates are sequenced at most once).  The single
// server and the replicated star's coordinator each keep one Group per
// group: the authoritative copy applies every record it sequences.
#pragma once

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/locks.h"
#include "core/shared_state.h"
#include "serial/message.h"
#include "storage/group_store.h"
#include "util/context.h"
#include "util/ids.h"

namespace corona {

struct Member {
  MemberRole role = MemberRole::kPrincipal;
  bool wants_membership_notices = false;
  NodeId leaf;  // replicated star: the leaf server the member connects through
};

class Group {
 public:
  explicit Group(GroupMeta meta) : meta_(std::move(meta)) {}

  const GroupMeta& meta() const { return meta_; }
  bool persistent() const { return meta_.persistent; }

  SharedState& state() { return state_; }
  const SharedState& state() const { return state_; }
  LockTable& locks() { return locks_; }
  const LockTable& locks() const { return locks_; }

  // -- membership ----------------------------------------------------------
  // Returns false if already a member.
  bool add_member(NodeId node, MemberRole role, bool wants_notices);
  // Adds `node` or replaces its entry (a coordinator's member re-registration).
  void set_member(NodeId node, Member info) { members_[node] = info; }
  // Removes `node` and releases its locks and queued lock requests, so
  // every lock holder and waiter stays a member.  Returns the (object, new
  // holder) grants that result; none if `node` was not a member.
  std::vector<std::pair<ObjectId, NodeId>> remove_member(NodeId node);
  bool is_member(NodeId node) const { return members_.contains(node); }
  std::size_t member_count() const { return members_.size(); }
  // Members in deterministic (NodeId) order — also the multicast fan-out
  // order, so the highest-id member is always reached last (the paper
  // measures its round-trip as the worst case).
  const std::map<NodeId, Member>& members() const { return members_; }
  std::vector<MemberInfo> member_list() const;
  // Members that subscribed to membership-change notifications, but `except`.
  std::vector<NodeId> notice_subscribers(NodeId except = NodeId{}) const;

  // -- sequencing ------------------------------------------------------------
  // Sequences `rec` into the group's total order: stamps the next seq, marks
  // (sender, request_id) seen, applies it to the shared state and appends it
  // to `log`.  A null `log` leaves the durable image to the caller
  // (partition reconciliation re-sequences a branch it then checkpoints).
  CORONA_HOT_PATH void sequence(UpdateRecord& rec, GroupStore* log);
  // Replaces the sequenced state: installs `snapshot` at `base_seq`, replays
  // `updates` over it and marks them seen, and resumes the sequencer right
  // after them.  Recovery, coordinator promotion, takeover and state pushes
  // all rebuild a group this way.
  void restore(SeqNo base_seq, const std::vector<StateEntry>& snapshot,
               const std::vector<UpdateRecord>& updates);
  // Allocates the next sequence number in the group's total order.
  SeqNo allocate_seq() { return next_seq_++; }
  SeqNo next_seq() const { return next_seq_; }
  void set_next_seq(SeqNo s) { next_seq_ = s; }

  // -- recovery dedup ---------------------------------------------------------
  // Marks (sender, rid) as sequenced; returns false if it already was.
  bool mark_seen(NodeId sender, RequestId rid) {
    return seen_.emplace(sender.value, rid).second;
  }
  bool was_seen(NodeId sender, RequestId rid) const {
    return seen_.contains({sender.value, rid});
  }

  // Sequencer invariants: next_seq_ is exactly head_seq+1 (the sequencer
  // never skips or reuses a number); the retained history is gapless (the
  // group applies every record it sequences, unlike client copies, which
  // may hold object-filtered tails); every lock holder and waiter is a
  // current member (remove_member keeps this); plus the nested SharedState
  // and LockTable invariants.
  InvariantReport check_invariants() const;

 private:
  friend struct GroupTestAccess;  // invariant tests corrupt internals

  GroupMeta meta_;
  SharedState state_;
  LockTable locks_;
  std::map<NodeId, Member> members_;
  SeqNo next_seq_ = 1;
  std::set<std::pair<std::uint64_t, RequestId>> seen_;
};

}  // namespace corona
