#include "storage/group_store.h"

#include <algorithm>
#include <cassert>

#include "serial/decoder.h"
#include "serial/encoder.h"
#include "storage/mem_env.h"

namespace corona {
namespace {

// Decodes the fixed prefix of a checkpoint blob (everything recovery needs
// to re-attach a group); nullopt-style failure is signaled via Decoder::ok().
struct CheckpointImage {
  GroupMeta meta;
  SeqNo base_seq = 0;
  std::vector<StateEntry> snapshot;
};

bool decode_checkpoint_blob(const Bytes& blob, CheckpointImage* out) {
  Decoder d(blob);
  out->meta.id = GroupId(d.get_u64());
  out->meta.name = d.get_string();
  out->meta.persistent = d.get_bool();
  out->base_seq = d.get_u64();
  const std::uint32_t n = d.get_u32();
  for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
    StateEntry s;
    s.object = ObjectId(d.get_u64());
    s.data = d.get_bytes();
    out->snapshot.push_back(std::move(s));
  }
  return d.ok();
}

}  // namespace

GroupStore::GroupStore()
    : owned_env_(std::make_unique<MemStorageEnv>()), env_(owned_env_.get()) {}

GroupStore::GroupStore(StorageEnv* env) : env_(env) {
  // Reap orphan logs: groups that died before their first checkpoint flush
  // have no durable identity and must not resurrect under a recycled id.
  for (GroupId id : env_->list_logs()) {
    if (!checkpoints().get_durable(checkpoint_key(id)).has_value()) {
      env_->remove_log(id);
    }
  }
  // Re-attach every group with a durable checkpoint.
  for (const std::string& key : checkpoints().durable_keys()) {
    const auto blob = checkpoints().get_durable(key);
    if (!blob) continue;
    CheckpointImage image;
    if (!decode_checkpoint_blob(*blob, &image)) continue;
    groups_.emplace(image.meta.id,
                    PerGroup{image.meta, env_->open_log(image.meta.id)});
  }
}

std::string GroupStore::checkpoint_key(GroupId id) {
  return "group/" + std::to_string(id.value);
}

Bytes GroupStore::encode_checkpoint(
    const GroupMeta& meta, SeqNo base_seq,
    const std::vector<StateEntry>& snapshot) const {
  Encoder e;
  e.put_u64(meta.id.value);
  e.put_string(meta.name);
  e.put_bool(meta.persistent);
  e.put_u64(base_seq);
  e.put_u32(static_cast<std::uint32_t>(snapshot.size()));
  for (const StateEntry& s : snapshot) {
    e.put_u64(s.object.value);
    e.put_bytes(s.data);
  }
  return e.take();
}

void GroupStore::create_group(const GroupMeta& meta,
                              const std::vector<StateEntry>& initial_state) {
  assert(!groups_.contains(meta.id));
  groups_.emplace(meta.id, PerGroup{meta, env_->open_log(meta.id)});
  checkpoints().put(checkpoint_key(meta.id),
                    encode_checkpoint(meta, 0, initial_state));
}

void GroupStore::remove_group(GroupId id) {
  groups_.erase(id);
  // Same WAL ordering rule as install_checkpoint, mirrored: the durable
  // identity (the checkpoint) must be gone BEFORE its log storage is
  // reclaimed.  Destroying the log first would let a crash in between
  // resurrect the group at its checkpoint base with every flushed update
  // above base_seq permanently lost.
  checkpoints().erase(checkpoint_key(id));
  checkpoints().flush();
  env_->remove_log(id);
}

bool GroupStore::has_group(GroupId id) const { return groups_.contains(id); }

void GroupStore::append_update(GroupId id, const UpdateRecord& update) {
  auto it = groups_.find(id);
  assert(it != groups_.end() && "append to unknown group");
  it->second.log->append(encode_update_record(update));
}

void GroupStore::install_checkpoint(GroupId id, SeqNo base_seq,
                                    const std::vector<StateEntry>& snapshot) {
  auto it = groups_.find(id);
  assert(it != groups_.end());
  checkpoints().put(checkpoint_key(id),
                    encode_checkpoint(it->second.meta, base_seq, snapshot));
  // WAL checkpoint rule: the covering checkpoint must be durable BEFORE the
  // covered log prefix is destroyed.  drop_prefix reclaims durable storage
  // at once on a real backend, so a crash between a merely-staged checkpoint
  // and the drop would leave the old checkpoint plus a gapped log.  (The
  // fork+SIGKILL property test catches exactly this if the order regresses.)
  checkpoints().flush();
  // Drop log records now covered by the checkpoint.
  LogBackend& log = *it->second.log;
  std::size_t covered = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    auto seq = decode_update_seq(log.record(i));
    if (!seq.is_ok() || seq.value() > base_seq) break;
    ++covered;
  }
  log.drop_prefix(covered);
}

std::size_t GroupStore::flush() {
  checkpoints().flush();
  std::size_t committed = 0;
  for (auto& [id, g] : groups_) committed += g.log->flush();
  return committed;
}

void GroupStore::crash() {
  checkpoints().crash();
  for (auto& [id, g] : groups_) g.log->crash();
  // Groups created but never flushed vanish entirely.
  std::vector<GroupId> gone;
  for (const auto& [id, g] : groups_) {
    if (!checkpoints().get_durable(checkpoint_key(id)).has_value()) {
      gone.push_back(id);
    }
  }
  for (GroupId id : gone) {
    groups_.erase(id);
    env_->remove_log(id);
  }
}

std::vector<RecoveredGroup> GroupStore::recover() const {
  std::vector<RecoveredGroup> out;
  for (const std::string& key : checkpoints().durable_keys()) {
    const auto blob = checkpoints().get_durable(key);
    if (!blob) continue;
    CheckpointImage image;
    if (!decode_checkpoint_blob(*blob, &image)) continue;
    RecoveredGroup rg;
    rg.meta = image.meta;
    rg.base_seq = image.base_seq;
    rg.snapshot = std::move(image.snapshot);

    auto git = groups_.find(rg.meta.id);
    if (git != groups_.end()) {
      const LogBackend& log = *git->second.log;
      for (std::size_t i = 0; i < log.durable_size(); ++i) {
        auto rec = decode_update_record(log.record(i));
        if (rec.is_ok() && rec.value().seq > rg.base_seq) {
          rg.updates.push_back(std::move(rec).value());
        }
      }
    }
    std::sort(rg.updates.begin(), rg.updates.end(),
              [](const UpdateRecord& a, const UpdateRecord& b) {
                return a.seq < b.seq;
              });
    out.push_back(std::move(rg));
  }
  std::sort(out.begin(), out.end(),
            [](const RecoveredGroup& a, const RecoveredGroup& b) {
              return a.meta.id < b.meta.id;
            });
  return out;
}

std::uint64_t GroupStore::pending_bytes() const {
  std::uint64_t b = 0;
  for (const auto& [id, g] : groups_) b += g.log->pending_bytes();
  return b;
}

std::size_t GroupStore::pending_records() const {
  std::size_t n = 0;
  for (const auto& [id, g] : groups_) n += g.log->unflushed();
  return n;
}

std::uint64_t GroupStore::log_records(GroupId id) const {
  auto it = groups_.find(id);
  return it != groups_.end() ? it->second.log->size() : 0;
}

std::uint64_t GroupStore::log_bytes() const {
  std::uint64_t b = 0;
  for (const auto& [id, g] : groups_) b += g.log->bytes_appended();
  return b;
}

}  // namespace corona
