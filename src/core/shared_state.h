// The shared-state model (paper §3.1).
//
// The shared state of a group is a set S = {(O1,S1), ..., (On,Sn)} of shared
// objects, where each Si is an opaque byte-stream encoding of object Oi.  The
// service is deliberately ignorant of object semantics: it can consolidate
// state only through the two operations the protocol defines —
//
//   * bcastState(O, bytes)  — the bytes REPLACE object O's stream;
//   * bcastUpdate(O, bytes) — the bytes are APPENDED to O's stream,
//                             "preserving the history of updates".
//
// Alongside the consolidated object streams, SharedState keeps the update
// history (one UpdateRecord per sequenced message since the last reduction
// point) so that joins can be served with "the latest n updates" and log
// reduction can replace a history prefix with the consolidated state.
//
// Invariant (tested property): replaying the full message history over the
// initial state always reproduces the consolidated objects, across any
// interleaving of reductions.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <vector>

#include "serial/message.h"
#include "util/bytes.h"
#include "util/context.h"
#include "util/ids.h"
#include "util/invariant.h"
#include "util/time.h"

namespace corona {

class SharedState {
 public:
  SharedState() = default;

  // Installs a snapshot at `base_seq` and replays `updates` over it: group
  // creation, recovery from the durable log, and state-transfer installs.
  void load(SeqNo base_seq, const std::vector<StateEntry>& snapshot,
            const std::vector<UpdateRecord>& updates = {});

  // Applies one sequenced state message.  Records must arrive in sequence
  // order; `rec.seq` must exceed head_seq().
  CORONA_HOT_PATH void apply(const UpdateRecord& rec);

  // -- reads -----------------------------------------------------------------
  // Consolidated snapshot of every object, sorted by object id.
  std::vector<StateEntry> snapshot() const;
  // Snapshot as of base_seq() — what a checkpoint at the last reduction
  // point contains.  Invariant: replaying the retained history over this
  // snapshot reproduces snapshot().
  std::vector<StateEntry> snapshot_at_base() const;
  // Snapshot restricted to the given objects (missing ids are skipped).
  std::vector<StateEntry> snapshot_of(std::span<const ObjectId> ids) const;
  // The full retained history, ascending by seq.
  std::vector<UpdateRecord> history() const;
  // The latest n retained records (fewer if the history is shorter).
  std::vector<UpdateRecord> last_n(std::size_t n) const;
  // The latest n retained records touching any of `ids`.
  std::vector<UpdateRecord> last_n_of(std::span<const ObjectId> ids,
                                      std::size_t n) const;
  // Records with seq in (after, head] — for retransmission.
  std::vector<UpdateRecord> since(SeqNo after) const;

  bool has_object(ObjectId id) const { return objects_.contains(id); }
  const Bytes* object(ObjectId id) const;
  std::size_t object_count() const { return objects_.size(); }

  // Sequence number of the newest applied record (== base_seq if none).
  SeqNo head_seq() const { return head_seq_; }
  // The history covers (base_seq, head_seq].
  SeqNo base_seq() const { return base_seq_; }
  std::size_t history_size() const { return history_.size(); }
  std::uint64_t history_bytes() const { return history_bytes_; }
  std::uint64_t state_bytes() const { return state_bytes_; }
  // The lowest seq in (base_seq, head_seq] missing from the retained
  // history, or 0 if there is none.  A sequencer's copy is always gapless;
  // client copies may hold object-filtered tails (see check_invariants).
  SeqNo first_gap() const;

  // -- log reduction (paper §3.2) ---------------------------------------------
  // Drops history records with seq <= upto; the consolidated objects become
  // the authoritative state at `upto`.  No-op if upto <= base_seq.  `upto`
  // is clamped to head_seq().  Returns the number of records dropped.
  std::size_t reduce_to(SeqNo upto);

  // Structural invariants: base_seq <= head_seq; history seqs strictly
  // ascend within (base_seq, head_seq] and end exactly at head_seq; the
  // byte accounting matches the retained records and objects.  (History
  // records need not be *contiguous*: object-filtered joins install
  // filtered tails on clients.)
  InvariantReport check_invariants() const;

 private:
  friend struct SharedStateTestAccess;  // invariant tests corrupt internals

  static void apply_to(std::map<ObjectId, Bytes>& objects,
                       const UpdateRecord& rec);

  std::map<ObjectId, Bytes> objects_;       // consolidated at head_seq_
  std::map<ObjectId, Bytes> base_objects_;  // consolidated at base_seq_
  std::deque<UpdateRecord> history_;
  SeqNo base_seq_ = 0;
  SeqNo head_seq_ = 0;
  std::uint64_t history_bytes_ = 0;
  std::uint64_t state_bytes_ = 0;
};

// CPU charged for applying one record to a group's in-memory state and log:
// constant per message plus linear in payload, the state-maintenance
// overhead Figure 3 shows to be negligible next to the N point-to-point
// sends.  Every server role that applies a record charges it.
Duration apply_cpu_cost(const UpdateRecord& rec);

}  // namespace corona
