// Span recording for the traced benchmark run.
//
// The library is measured unchanged: every span comes from a decorator that
// sits between a layer and its caller.
//
//   TracedNode     wraps a server, replica or client node and times its
//                  on_message (per MsgType) and on_timer handlers.  It binds
//                  the inner node to a TracedRuntime, so every send, fanout
//                  and send_batch the handler makes is a child span of the
//                  handler.  disk_write is forwarded untimed: SocketRuntime's
//                  is a no-op.
//   TracedEnv      wraps a StorageEnv; its logs and checkpoint store time
//                  append and flush as child spans of the handler that
//                  called them.
//
// A handler's self time is its duration minus the child spans it covered.
// Spans are only recorded on the loop thread inside a handler, and only
// while `g_tracing` is set, so one RoleStats block is written by one thread
// and read after that thread is stopped.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

#include "runtime/runtime.h"
#include "storage/backend.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::atomic<bool> g_tracing{false};

struct Span {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;        // total duration
  std::int64_t child_ns = 0;  // part covered by child spans

  void add(std::int64_t d, std::int64_t child = 0) {
    ++calls;
    ns += d;
    child_ns += child;
  }
  void merge(const Span& o) {
    calls += o.calls;
    ns += o.ns;
    child_ns += o.child_ns;
  }
  std::int64_t self_ns() const { return ns - child_ns; }
  double mean_ns() const { return calls ? double(ns) / double(calls) : 0.0; }
  double mean_self_ns() const {
    return calls ? double(self_ns()) / double(calls) : 0.0;
  }
};

// Everything the decorators of one role on one loop thread record.
struct RoleStats {
  std::array<Span, 64> on_msg{};  // indexed by MsgType
  Span on_timer;
  Span net;          // send / fanout / send_batch (incl. encode)
  Span log_append;
  Span log_flush;
  Span ckpt_flush;
  std::uint64_t records_committed = 0;  // sum of log flush() results
  std::uint64_t commits = 0;            // log flushes that committed >= 1
  std::uint64_t bytes_appended = 0;

  void merge(const RoleStats& o) {
    for (std::size_t i = 0; i < on_msg.size(); ++i) on_msg[i].merge(o.on_msg[i]);
    on_timer.merge(o.on_timer);
    net.merge(o.net);
    log_append.merge(o.log_append);
    log_flush.merge(o.log_flush);
    ckpt_flush.merge(o.ckpt_flush);
    records_committed += o.records_committed;
    commits += o.commits;
    bytes_appended += o.bytes_appended;
  }
  Span handlers() const {
    Span s = on_timer;
    for (const Span& m : on_msg) s.merge(m);
    return s;
  }
};

// Per-thread handler context: set while a TracedNode handler runs.
struct HandlerContext {
  bool active = false;
  std::int64_t child_ns = 0;
};
inline thread_local HandlerContext t_handler;

// Times one child call if it runs inside a traced handler.
class ChildSpan {
 public:
  explicit ChildSpan(Span* out)
      : out_(t_handler.active ? out : nullptr), t0_(out_ ? now_ns() : 0) {}
  ~ChildSpan() {
    if (out_ == nullptr) return;
    const std::int64_t d = now_ns() - t0_;
    out_->add(d);
    t_handler.child_ns += d;
  }
  bool active() const { return out_ != nullptr; }
  ChildSpan(const ChildSpan&) = delete;
  ChildSpan& operator=(const ChildSpan&) = delete;

 private:
  Span* out_;
  std::int64_t t0_;
};

class TracedRuntime final : public corona::Runtime {
 public:
  TracedRuntime(corona::Runtime* real, RoleStats* stats)
      : real_(real), stats_(stats) {}

  corona::TimePoint now() const override { return real_->now(); }
  void send(corona::NodeId from, corona::NodeId to,
            const corona::Message& m) override {
    ChildSpan s(&stats_->net);
    real_->send(from, to, m);
  }
  void fanout(corona::NodeId from, const std::vector<corona::NodeId>& to,
              const corona::Message& m) override {
    ChildSpan s(&stats_->net);
    real_->fanout(from, to, m);
  }
  void send_batch(corona::NodeId from, corona::NodeId to,
                  const std::vector<corona::Message>& ms) override {
    ChildSpan s(&stats_->net);
    real_->send_batch(from, to, ms);
  }
  corona::TimePoint disk_write(corona::NodeId node, std::size_t bytes,
                               std::size_t records) override {
    return real_->disk_write(node, bytes, records);
  }
  corona::TimerHandle set_timer(corona::NodeId owner, corona::Duration delay,
                                std::uint64_t tag) override {
    return real_->set_timer(owner, delay, tag);
  }
  void cancel_timer(corona::TimerHandle h) override { real_->cancel_timer(h); }

 private:
  corona::Runtime* real_;
  RoleStats* stats_;
};

class TracedNode final : public corona::Node {
 public:
  // Binds `inner` to a forwarding runtime over `real`; the engine binds this
  // decorator itself when it is added with the same id.
  TracedNode(corona::Node* inner, corona::NodeId id, corona::Runtime* real,
             RoleStats* stats)
      : inner_(inner), stats_(stats), rt_(real, stats) {
    inner_->bind(&rt_, id);
  }

  void on_start() override { inner_->on_start(); }
  void on_message(corona::NodeId from, const corona::Message& m) override {
    if (!g_tracing.load(std::memory_order_relaxed)) {
      inner_->on_message(from, m);
      return;
    }
    Scope s;
    inner_->on_message(from, m);
    s.finish(&stats_->on_msg[static_cast<std::size_t>(m.type) % 64]);
  }
  void on_timer(std::uint64_t tag) override {
    if (!g_tracing.load(std::memory_order_relaxed)) {
      inner_->on_timer(tag);
      return;
    }
    Scope s;
    inner_->on_timer(tag);
    s.finish(&stats_->on_timer);
  }

 private:
  struct Scope {
    Scope() : t0(now_ns()) { t_handler = HandlerContext{true, 0}; }
    void finish(Span* out) {
      out->add(now_ns() - t0, t_handler.child_ns);
      t_handler = HandlerContext{};
    }
    std::int64_t t0;
  };

  corona::Node* inner_;
  RoleStats* stats_;
  TracedRuntime rt_;
};

class TracedLog final : public corona::LogBackend {
 public:
  TracedLog(std::unique_ptr<corona::LogBackend> inner, RoleStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  void append(corona::Bytes record) override {
    ChildSpan s(&stats_->log_append);
    if (s.active()) stats_->bytes_appended += record.size();
    inner_->append(std::move(record));
  }
  std::size_t flush() override {
    ChildSpan s(&stats_->log_flush);
    const std::size_t n = inner_->flush();
    if (s.active() && n > 0) {
      stats_->records_committed += n;
      ++stats_->commits;
    }
    return n;
  }
  void crash() override { inner_->crash(); }
  void drop_prefix(std::size_t n) override { inner_->drop_prefix(n); }
  std::size_t size() const override { return inner_->size(); }
  std::size_t durable_size() const override { return inner_->durable_size(); }
  std::size_t unflushed() const override { return inner_->unflushed(); }
  const corona::Bytes& record(std::size_t i) const override {
    return inner_->record(i);
  }
  std::uint64_t bytes_appended() const override {
    return inner_->bytes_appended();
  }
  std::uint64_t bytes_flushed() const override {
    return inner_->bytes_flushed();
  }
  std::uint64_t pending_bytes() const override {
    return inner_->pending_bytes();
  }
  std::uint64_t commits() const override { return inner_->commits(); }
  std::uint64_t records_flushed() const override {
    return inner_->records_flushed();
  }
  std::size_t max_commit_records() const override {
    return inner_->max_commit_records();
  }

 private:
  std::unique_ptr<corona::LogBackend> inner_;
  RoleStats* stats_;
};

class TracedCheckpoints final : public corona::CheckpointBackend {
 public:
  TracedCheckpoints(corona::CheckpointBackend* inner, RoleStats* stats)
      : inner_(inner), stats_(stats) {}

  void put(const std::string& key, corona::Bytes blob) override {
    inner_->put(key, std::move(blob));
  }
  void erase(const std::string& key) override { inner_->erase(key); }
  void flush() override {
    ChildSpan s(&stats_->ckpt_flush);
    inner_->flush();
  }
  void crash() override { inner_->crash(); }
  std::optional<corona::Bytes> get(const std::string& key) const override {
    return inner_->get(key);
  }
  std::optional<corona::Bytes> get_durable(
      const std::string& key) const override {
    return inner_->get_durable(key);
  }
  std::vector<std::string> durable_keys() const override {
    return inner_->durable_keys();
  }
  std::uint64_t bytes_committed() const override {
    return inner_->bytes_committed();
  }

 private:
  corona::CheckpointBackend* inner_;
  RoleStats* stats_;
};

class TracedEnv final : public corona::StorageEnv {
 public:
  TracedEnv(corona::StorageEnv* inner, RoleStats* stats)
      : inner_(inner), stats_(stats), ckpt_(&inner->checkpoints(), stats) {}

  std::unique_ptr<corona::LogBackend> open_log(corona::GroupId id) override {
    return std::make_unique<TracedLog>(inner_->open_log(id), stats_);
  }
  void remove_log(corona::GroupId id) override { inner_->remove_log(id); }
  std::vector<corona::GroupId> list_logs() const override {
    return inner_->list_logs();
  }
  corona::CheckpointBackend& checkpoints() override { return ckpt_; }
  const corona::CheckpointBackend& checkpoints() const override {
    return ckpt_;
  }

 private:
  corona::StorageEnv* inner_;
  RoleStats* stats_;
  TracedCheckpoints ckpt_;
};

}  // namespace perfbench
