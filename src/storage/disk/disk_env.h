// The durable StorageEnv: one data directory holding everything a server
// needs to survive kill -9.
//
// Layout:
//   <dir>/ckpt/                 checkpoint files (DiskCheckpointStore)
//   <dir>/groups/<group-id>/    one segmented log per group (DiskLog)
//
// Construction opens (creating if absent) the directory tree and loads every
// valid checkpoint; logs load lazily as GroupStore opens them.  Reopening a
// DiskEnv on the same directory after a crash and constructing a GroupStore
// over it is the entire recovery story — GroupAuthority::recover_from_store()
// then replays what GroupStore::recover() hands back.
//
// All backends of one env share one DiskCounters block, surfaced by stats().
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "storage/backend.h"
#include "storage/disk/disk_checkpoint.h"
#include "storage/disk/disk_io.h"

namespace corona::disk {

struct DiskEnvConfig {
  std::string dir;
  // Segment rotation threshold; a segment takes its last record when it
  // crosses this size, so files stay near it rather than exactly under it.
  std::size_t segment_bytes = 1u << 20;
};

class DiskEnv final : public StorageEnv {
 public:
  CORONA_BLOCKING explicit DiskEnv(DiskEnvConfig config);

  CORONA_BLOCKING std::unique_ptr<LogBackend> open_log(GroupId id) override;
  CORONA_BLOCKING void remove_log(GroupId id) override;
  CORONA_BLOCKING std::vector<GroupId> list_logs() const override;

  CheckpointBackend& checkpoints() override { return checkpoints_; }
  const CheckpointBackend& checkpoints() const override {
    return checkpoints_;
  }

  const std::string& dir() const { return config_.dir; }
  const DiskCounters& stats() const { return counters_; }

 private:
  std::string group_dir(GroupId id) const;

  DiskEnvConfig config_;
  DiskCounters counters_;
  DiskCheckpointStore checkpoints_;
};

}  // namespace corona::disk
