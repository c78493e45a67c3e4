// corona_perfbench — wall-clock benchmark of the corona library over real
// SocketRuntime TCP on 127.0.0.1 (see README.md in this directory).
//
//   corona_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// One process hosts the server side (a CoronaServer, or a ReplicaServer
// coordinator plus two leaves) and the members (CoronaClient nodes spread
// over at most two client SocketRuntimes).  The main thread generates load:
// open-loop Poisson windows timed from each multicast's scheduled send
// time, then closed-loop windows with a fixed number outstanding per
// publisher.  Between windows every member leaves and rejoins with a full
// state transfer, which bounds the memory of the client replicas (they
// keep every delivered record).  The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <pthread.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/log_reduction.h"
#include "core/server.h"
#include "core/shared_state.h"
#include "core/state_transfer.h"
#include "net/socket_runtime.h"
#include "replica/replica_server.h"
#include "serial/message.h"
#include "storage/group_store.h"
#include "storage/mem_env.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace corona;
using net::Endpoint;
using net::SocketRuntime;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Topology { kSingle, kStar };

struct Workload {
  const char* name;
  Topology topo;
  int members;          // stable members (each counts toward "delivered")
  int publishers;       // the first `publishers` members send
  int client_rts;       // client SocketRuntimes (1 or 2)
  std::size_t payload;  // bytes per multicast
  int objects;
  bool appends;         // bcast_update, reset by bcast_state every 256
  double open_rate;     // msg/s, Poisson
  int outstanding;      // closed loop, per publisher
  int join_period_ms;   // the extra member's leave+rejoin cadence
  int prefill;          // multicasts sent during set-up
  int warmup;           // further untimed multicasts during set-up
  int closed_window_msgs;  // work per closed-loop window (~0.5 s on 4 cores)
};

constexpr Workload kWorkloads[] = {
    {"fanout64", Topology::kSingle, 64, 8, 2, 100, 64, false, 750, 1, 25, 64,
     1000, 1500},
    {"stateful_append", Topology::kSingle, 4, 4, 2, 1000, 16, true, 4000, 4,
     250, 4096, 2000, 16000},
    {"replicated_star", Topology::kStar, 16, 16, 1, 1000, 64, false, 1500, 4,
     250, 64, 2000, 4000},
};

constexpr int kAppendsPerReset = 256;
// Open-loop windows last at least 1 s and long enough to expect 1200
// samples, so each window's p99 has more than ten samples beyond it.
double open_window_s(const Workload& wl) {
  return std::max(1.0, 1200.0 / wl.open_rate);
}
constexpr double kClosedWindowS = 0.5;  // nominal closed-loop window length
constexpr std::uint64_t kServerId = 1;  // single server, or the coordinator
constexpr std::uint64_t kClientBase = 100;
constexpr std::uint64_t kProbeBase = 900;
constexpr GroupId kGroup{7};
constexpr std::int64_t kDeadlineNs = 5'000'000'000;  // delivery / join limit
// One CPU per thread is possible: server loops, client loops, generator.
bool can_pin(std::size_t threads) {
  return std::thread::hardware_concurrency() >= threads;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double percentile(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * double(v.size())));
  return double(v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Resets the process's peak RSS (VmHWM) to its current RSS.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

// Peak RSS since the last reset_peak_rss(), in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// CPU time the host took from this machine (the "steal" column of the
// aggregate line of /proc/stat) and all CPU time, both in clock ticks.
struct CpuTicks {
  std::uint64_t steal = 0, total = 0;
};
CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

// Pins the calling thread to one CPU, so runs do not differ in how the
// scheduler happens to place the loop threads.
void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// Captures the CPU clock of the loop thread it runs on.  One probe is added
// to every SocketRuntime, so its on_start runs on that runtime's loop.
class Probe final : public Node {
 public:
  explicit Probe(int cpu) : cpu_(cpu) {}

  void on_start() override {
    if (cpu_ >= 0) pin_to_cpu(cpu_);
    clockid_t c;
    if (pthread_getcpuclockid(pthread_self(), &c) == 0) clock_ = c;
    ready_.store(true, std::memory_order_release);
  }
  void on_message(NodeId, const Message&) override {}

  bool ready() const { return ready_.load(std::memory_order_acquire); }
  std::int64_t cpu_ns() const {
    timespec ts{};
    if (clock_gettime(clock_, &ts) != 0) return 0;
    return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }

 private:
  int cpu_;
  clockid_t clock_ = CLOCK_THREAD_CPUTIME_ID;
  std::atomic<bool> ready_{false};
};

// ---------------------------------------------------------------------------
// Load bookkeeping shared by the generator and the delivery callbacks
// ---------------------------------------------------------------------------

// What a multicast belongs to: set-up traffic, a closed-loop window, or
// open-loop window number (tag - kOpenBase).
enum Tag : int { kUntimed = 0, kClosed = 1, kOpenBase = 2 };

struct Slot {
  std::atomic<RequestId> rid{0};
  std::atomic<std::int64_t> sched{0};
  std::atomic<int> tag{0};
  std::atomic<int> remaining{0};
};

struct Completion {
  int pub;
  std::int64_t t;
};

struct Load {
  static constexpr std::size_t kRing = 1 << 15;

  struct Publisher {
    CoronaClient* client = nullptr;
    RequestId* next_rid = nullptr;  // the member's request-id counter
    std::unique_ptr<Slot[]> ring;
  };

  std::vector<Publisher> pubs;
  std::vector<int> pub_of_node;  // node id - kClientBase -> publisher
  int recipients = 0;
  // Per client runtime: (tag, scheduled-send -> last-delivery latency) of
  // open-loop multicasts.  Written by that runtime's loop thread only; read
  // after it stops.
  std::array<std::vector<std::pair<int, std::int64_t>>, 2> lat;

  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> stale{0};        // slot reused while in flight
  std::atomic<std::uint64_t> error_replies{0};
  std::atomic<std::uint64_t> join_failures{0};

  std::mutex mu;
  std::condition_variable cv;
  std::vector<Completion> done;   // closed-loop completions (guarded by mu)
  int acks = 0;                   // ok replies (guarded by mu)
  std::vector<int> joined;        // per client index: ok join replies
  std::vector<std::int64_t> joined_at;  // per client index: last ok reply

  void on_delivery(int rt, NodeId sender, RequestId rid) {
    const std::uint64_t idx = sender.value - kClientBase;
    if (idx >= pub_of_node.size() || pub_of_node[idx] < 0) return;
    Slot& s = pubs[pub_of_node[idx]].ring[rid % kRing];
    if (s.rid.load(std::memory_order_relaxed) != rid) return;
    if (s.remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    const std::int64_t t = now_ns();
    const int tag = s.tag.load(std::memory_order_relaxed);
    if (tag >= kOpenBase) {
      lat[rt].emplace_back(tag, t - s.sched.load(std::memory_order_relaxed));
    } else {
      {
        std::lock_guard<std::mutex> lock(mu);
        done.push_back(Completion{pub_of_node[idx], t});
      }
      cv.notify_one();
    }
    completed.fetch_add(1, std::memory_order_release);
  }
};

// Deterministic multicast content from the seed.
class Generator {
 public:
  Generator(const Workload& wl, std::uint64_t seed)
      : wl_(wl), rng_(seed), appends_(std::size_t(wl.objects), 0) {
    for (int i = 0; i < 32; ++i) {
      Bytes b(wl.payload);
      for (auto& x : b) x = static_cast<std::uint8_t>(rng_());
      pool_.push_back(std::move(b));
    }
    // Stagger the reset points so the consolidated state stays near its
    // average size instead of swinging in lockstep.
    for (int& a : appends_) a = int(rng_() % kAppendsPerReset);
  }

  struct Op {
    PayloadKind kind;
    ObjectId object;
    const Bytes* payload;
  };

  Op next() {
    const int obj = int(rng_() % std::uint64_t(wl_.objects));
    const Bytes* payload = &pool_[rng_() % pool_.size()];
    PayloadKind kind = PayloadKind::kState;
    if (wl_.appends) {
      if (++appends_[obj] > kAppendsPerReset) {
        appends_[obj] = 0;
      } else {
        kind = PayloadKind::kUpdate;
      }
    }
    return {kind, ObjectId{std::uint64_t(obj) + 1}, payload};
  }

  int pick_publisher() { return int(rng_() % std::uint64_t(wl_.publishers)); }
  double exp_gap_ns(double rate) {
    std::exponential_distribution<double> d(rate);
    return d(rng_) * 1e9;
  }

 private:
  const Workload& wl_;
  std::mt19937_64 rng_;
  std::vector<Bytes> pool_;
  std::vector<int> appends_;
};

// ---------------------------------------------------------------------------
// The deployment: runtimes, server side, members
// ---------------------------------------------------------------------------

struct Member {
  std::unique_ptr<CoronaClient> client;
  std::unique_ptr<TracedNode> traced;
  NodeId id;
  int rt = 0;
  // Mirrors the client's request-id counter: every API call takes the next
  // id, and only the main thread calls the API.
  RequestId next_rid = 1;
};

struct World {
  const Workload& wl;
  Load load;
  bool traced;

  // Span blocks: declared before the nodes that write them.
  RoleStats server_stats;  // CoronaServer, or the coordinator
  RoleStats leaf_stats;
  std::array<RoleStats, 2> client_stats;

  // Runtimes are declared before the nodes: stop() runs first (in ~World),
  // nodes are destroyed next, runtimes last.
  std::vector<std::unique_ptr<SocketRuntime>> server_rts;  // 1, or coord+leaves
  std::vector<std::unique_ptr<SocketRuntime>> client_rts;
  std::vector<std::unique_ptr<Probe>> server_probes;
  std::vector<std::unique_ptr<Probe>> client_probes;

  std::unique_ptr<MemStorageEnv> mem_env;
  std::unique_ptr<TracedEnv> traced_env;
  std::unique_ptr<GroupStore> store;
  std::unique_ptr<CoronaServer> server;
  std::vector<std::unique_ptr<ReplicaServer>> replicas;  // coordinator first
  std::vector<std::unique_ptr<TracedNode>> traced_servers;

  std::vector<Member> members;  // stable members, then the joiner
  bool stopped = false;

  World(const Workload& w, bool trace) : wl(w), traced(trace) {}
  ~World() { stop(); }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  void stop() {
    if (stopped) return;
    stopped = true;
    for (auto& rt : client_rts) rt->stop();
    for (auto& rt : server_rts) rt->stop();
  }


  const SharedState* server_state() const {
    if (server != nullptr) {
      const Group* g = server->group(kGroup);
      return g ? &g->state() : nullptr;
    }
    return replicas.front()->coord_state(kGroup);
  }

  void add_server_node(SocketRuntime& rt, NodeId id, Node* node,
                       RoleStats* stats) {
    if (!traced) {
      rt.add_node(id, node);
      return;
    }
    traced_servers.push_back(
        std::make_unique<TracedNode>(node, id, &rt, stats));
    rt.add_node(id, traced_servers.back().get());
  }

  void build() {
    net::SocketRuntimeConfig cfg;
    const std::size_t n_server_rts = wl.topo == Topology::kStar ? 2 : 1;
    for (std::size_t i = 0; i < n_server_rts; ++i) {
      server_rts.push_back(std::make_unique<SocketRuntime>(cfg));
    }
    for (int i = 0; i < wl.client_rts; ++i) {
      client_rts.push_back(std::make_unique<SocketRuntime>(cfg));
    }

    mem_env = std::make_unique<MemStorageEnv>();
    StorageEnv* env = mem_env.get();
    if (traced) {
      traced_env = std::make_unique<TracedEnv>(env, &server_stats);
      env = traced_env.get();
    }
    store = std::make_unique<GroupStore>(env);

    std::vector<NodeId> leaves;
    if (wl.topo == Topology::kSingle) {
      ServerConfig sc;
      // corona-serverd's default reduction: checkpoint every 1024 records.
      sc.reduction_factory = [] { return make_count_threshold(1024); };
      server = std::make_unique<CoronaServer>(sc, store.get());
      add_server_node(*server_rts[0], NodeId{kServerId}, server.get(),
                      &server_stats);
    } else {
      const std::vector<NodeId> ids{NodeId{kServerId}, NodeId{kServerId + 1},
                                    NodeId{kServerId + 2}};
      for (std::size_t i = 0; i < ids.size(); ++i) {
        replicas.push_back(std::make_unique<ReplicaServer>(
            ReplicaConfig{}, ids, i == 0 ? store.get() : nullptr));
        SocketRuntime& rt = *server_rts[i == 0 ? 0 : 1];
        add_server_node(rt, ids[i], replicas.back().get(),
                        i == 0 ? &server_stats : &leaf_stats);
      }
      leaves = {ids[1], ids[2]};
    }
    // One CPU per thread when there are enough: server loops first, then
    // client loops; the load generator takes the last CPU.
    const bool pin = can_pin(server_rts.size() + client_rts.size() + 1);
    int next_cpu = 0;
    for (auto& rt : server_rts) {
      server_probes.push_back(std::make_unique<Probe>(pin ? next_cpu++ : -1));
      rt->add_node(NodeId{kProbeBase + server_probes.size()},
                   server_probes.back().get());
    }
    for (auto& rt : client_rts) {
      client_probes.push_back(std::make_unique<Probe>(pin ? next_cpu++ : -1));
      rt->add_node(NodeId{kProbeBase + 10 + client_probes.size()},
                   client_probes.back().get());
    }

    // Members: stable ones alternate over the client runtimes (and, in the
    // star, over the leaves); the joiner is last.
    const int total = wl.members + 1;
    load.pub_of_node.assign(std::size_t(total), -1);
    load.joined.assign(std::size_t(total), 0);
    load.joined_at.assign(std::size_t(total), 0);
    load.recipients = wl.members;
    members.resize(std::size_t(total));
    for (int i = 0; i < total; ++i) {
      Member& m = members[std::size_t(i)];
      m.id = NodeId{kClientBase + std::uint64_t(i)};
      m.rt = i % wl.client_rts;
      const bool stable = i < wl.members;
      const NodeId server_id =
          leaves.empty() ? NodeId{kServerId} : leaves[std::size_t(i) % 2];
      CoronaClient::Callbacks cb;
      Load* ld = &load;
      const int rt_index = m.rt;
      if (stable) {
        cb.on_deliver = [ld, rt_index](GroupId, const UpdateRecord& rec) {
          ld->on_delivery(rt_index, rec.sender, rec.request_id);
        };
      }
      cb.on_joined = [ld, i](GroupId, Status s) {
        if (!s.is_ok()) ld->join_failures.fetch_add(1);
        const std::int64_t t = now_ns();
        {
          std::lock_guard<std::mutex> lock(ld->mu);
          if (s.is_ok()) {
            ++ld->joined[std::size_t(i)];
            ld->joined_at[std::size_t(i)] = t;
          }
        }
        ld->cv.notify_all();
      };
      cb.on_reply = [ld](RequestId, Status s) {
        if (!s.is_ok()) {
          ld->error_replies.fetch_add(1);
          return;
        }
        {
          std::lock_guard<std::mutex> lock(ld->mu);
          ++ld->acks;
        }
        ld->cv.notify_all();
      };
      CoronaClient::Config cc;
      m.client = std::make_unique<CoronaClient>(server_id, cb, cc);
      SocketRuntime& rt = *client_rts[std::size_t(m.rt)];
      if (traced) {
        m.traced = std::make_unique<TracedNode>(
            m.client.get(), m.id, &rt, &client_stats[std::size_t(m.rt)]);
        rt.add_node(m.id, m.traced.get());
      } else {
        rt.add_node(m.id, m.client.get());
      }
      if (i < wl.publishers) {
        load.pub_of_node[std::size_t(i)] = int(load.pubs.size());
        Load::Publisher p;
        p.client = m.client.get();
        p.next_rid = &m.next_rid;
        p.ring = std::make_unique<Slot[]>(Load::kRing);
        load.pubs.push_back(std::move(p));
      }
    }
  }

  // Binds listeners, wires address books, starts every loop.
  bool start(std::string* err) {
    std::vector<std::uint16_t> ports;
    for (auto& rt : server_rts) {
      auto port = rt->listen("127.0.0.1", 0);
      if (!port.is_ok()) {
        *err = "listen: " + port.status().to_string();
        return false;
      }
      ports.push_back(port.value());
    }
    const Endpoint ep0{"127.0.0.1", ports[0]};
    if (wl.topo == Topology::kSingle) {
      for (auto& rt : client_rts) rt->set_peer_address(NodeId{kServerId}, ep0);
    } else {
      const Endpoint leaves_ep{"127.0.0.1", ports[1]};
      for (std::uint64_t leaf : {kServerId + 1, kServerId + 2}) {
        server_rts[0]->set_peer_address(NodeId{leaf}, leaves_ep);
        for (auto& rt : client_rts) rt->set_peer_address(NodeId{leaf}, leaves_ep);
      }
      server_rts[1]->set_peer_address(NodeId{kServerId}, ep0);
    }
    for (auto& rt : server_rts) rt->start();
    for (auto& rt : client_rts) rt->start();
    const std::int64_t deadline = now_ns() + kDeadlineNs;
    auto all_ready = [&] {
      for (auto& p : server_probes) if (!p->ready()) return false;
      for (auto& p : client_probes) if (!p->ready()) return false;
      return true;
    };
    while (!all_ready()) {
      if (now_ns() > deadline) {
        *err = "runtimes did not start";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  std::int64_t server_cpu_ns() const {
    std::int64_t s = 0;
    for (auto& p : server_probes) s += p->cpu_ns();
    return s;
  }
  std::int64_t client_cpu_ns() const {
    std::int64_t s = 0;
    for (auto& p : client_probes) s += p->cpu_ns();
    return s;
  }
  std::uint64_t dropped() const {
    std::uint64_t d = 0;
    for (auto& rt : server_rts) d += rt->stats().messages_dropped;
    for (auto& rt : client_rts) d += rt->stats().messages_dropped;
    return d;
  }
};

// ---------------------------------------------------------------------------
// The load generator
// ---------------------------------------------------------------------------

class Bench {
 public:
  Bench(World& w, Generator& gen) : w_(w), gen_(gen), ld_(w.load) {}

  std::string error;           // first fatal problem, if any
  std::uint64_t attempted = 0;  // multicasts + joins issued
  std::vector<std::int64_t> late_ns;

  bool ok() const { return error.empty(); }

  // (Re)joins member `i` with a full state transfer.
  void rejoin(std::size_t i, bool leave_first) {
    Member& m = w_.members[i];
    if (leave_first) {
      m.client->leave(kGroup);
      ++m.next_rid;
    }
    m.client->join(kGroup, TransferPolicySpec::full(), MemberRole::kPrincipal,
                   /*notify_membership=*/false);
    ++m.next_rid;
    ++attempted;
  }

  void send_one(int p, int tag, std::int64_t sched) {
    Load::Publisher& pub = ld_.pubs[std::size_t(p)];
    const RequestId rid = (*pub.next_rid)++;
    Slot& s = pub.ring[rid % Load::kRing];
    if (s.remaining.load(std::memory_order_acquire) != 0) ld_.stale.fetch_add(1);
    s.rid.store(rid, std::memory_order_relaxed);
    s.sched.store(sched, std::memory_order_relaxed);
    s.tag.store(tag, std::memory_order_relaxed);
    s.remaining.store(ld_.recipients, std::memory_order_release);
    const Generator::Op op = gen_.next();
    const RequestId got =
        op.kind == PayloadKind::kState
            ? pub.client->bcast_state(kGroup, op.object, *op.payload)
            : pub.client->bcast_update(kGroup, op.object, *op.payload);
    if (got != rid && error.empty()) error = "request id bookkeeping broke";
    ld_.sent.fetch_add(1, std::memory_order_relaxed);
    ++attempted;
  }

  // Waits until every multicast sent so far reached every stable member.
  bool drain() {
    const std::int64_t deadline = now_ns() + kDeadlineNs;
    while (ld_.completed.load(std::memory_order_acquire) !=
           ld_.sent.load(std::memory_order_relaxed)) {
      if (now_ns() > deadline) {
        if (error.empty()) error = "multicasts not delivered within 5 s";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::lock_guard<std::mutex> lock(ld_.mu);
    ld_.done.clear();
    return true;
  }

  bool wait_joined(std::size_t member, int count) {
    std::unique_lock<std::mutex> lock(ld_.mu);
    const bool ok = ld_.cv.wait_for(lock, std::chrono::nanoseconds(kDeadlineNs),
                                    [&] { return ld_.joined[member] >= count; });
    if (!ok && error.empty()) error = "join timed out";
    return ok;
  }

  int joins_of(std::size_t member) {
    std::lock_guard<std::mutex> lock(ld_.mu);
    return ld_.joined[member];
  }

  // When member's `count`-th join completed, or 0 if it has not yet.
  std::int64_t joined_at(std::size_t member, int count) {
    std::lock_guard<std::mutex> lock(ld_.mu);
    return ld_.joined[member] >= count ? ld_.joined_at[member] : 0;
  }

  // Group creation and the first join of every member.
  bool setup_group() {
    CoronaClient& c0 = *w_.members.front().client;
    int acks0 = 0;
    {
      std::lock_guard<std::mutex> lock(ld_.mu);
      acks0 = ld_.acks;
    }
    c0.create_group(kGroup, "perfbench", /*persistent=*/true);
    ++w_.members.front().next_rid;
    {
      std::unique_lock<std::mutex> lock(ld_.mu);
      if (!ld_.cv.wait_for(lock, std::chrono::nanoseconds(kDeadlineNs),
                           [&] { return ld_.acks > acks0; })) {
        error = "create_group not acknowledged";
        return false;
      }
    }
    for (std::size_t i = 0; i < w_.members.size(); ++i) {
      rejoin(i, /*leave_first=*/false);
      if (!wait_joined(i, 1)) return false;
    }
    return true;
  }

  // Every member leaves and rejoins with a full transfer, two at a time:
  // bounds client memory between windows.  The replicated service has no
  // reduction policy, so there a member first asks for log reduction, which
  // bounds the coordinator's and leaves' histories.  Untimed.
  bool compact() {
    if (w_.wl.topo == Topology::kStar) {
      w_.members.front().client->reduce_log(kGroup);
      ++w_.members.front().next_rid;
    }
    const std::size_t n = w_.members.size();
    for (std::size_t i = 0; i < n; i += 2) {
      std::vector<std::pair<std::size_t, int>> waits;
      for (std::size_t j = i; j < std::min(n, i + 2); ++j) {
        const int before = joins_of(j);
        rejoin(j, /*leave_first=*/true);
        waits.emplace_back(j, before + 1);
      }
      for (auto [j, count] : waits) {
        if (!wait_joined(j, count)) return false;
      }
    }
    return true;
  }

  // Closed loop until `count` multicasts were sent (set-up traffic).
  bool closed_count(int count) {
    int issued = 0;
    for (int p = 0; p < int(ld_.pubs.size()) && issued < count; ++p) {
      for (int k = 0; k < w_.wl.outstanding && issued < count; ++k) {
        send_one(p, kUntimed, now_ns());
        ++issued;
      }
    }
    while (issued < count && ok()) {
      std::vector<Completion> got;
      {
        std::unique_lock<std::mutex> lock(ld_.mu);
        if (!ld_.cv.wait_for(lock, std::chrono::nanoseconds(kDeadlineNs),
                             [&] { return !ld_.done.empty(); })) {
          error = "closed loop stalled";
          return false;
        }
        got.swap(ld_.done);
      }
      for (const Completion& c : got) {
        if (issued < count) {
          send_one(c.pub, kUntimed, now_ns());
          ++issued;
        }
      }
    }
    return drain();
  }

  struct Window {
    double steal = 0;  // share of the machine's CPU time the host took
    std::int64_t wall_ns = 0;
    std::int64_t server_cpu_ns = 0;
    std::int64_t client_cpu_ns = 0;
    std::uint64_t msgs = 0;
    std::int64_t busy_ns = 0;  // closed loop: first send to last delivery
    std::uint64_t done = 0;    // closed loop: multicasts completed
    std::vector<std::int64_t> server_rt_cpu;  // per server runtime
    net::SocketRuntime::Stats server_net{};   // summed deltas
    std::vector<std::int64_t> join_ns;        // open loop: joiner's joins
    std::vector<std::int64_t> lat;  // open loop: latency of each multicast

    // Sums the counters of `o` into this window.
    void add(const Window& o) {
      wall_ns += o.wall_ns;
      server_cpu_ns += o.server_cpu_ns;
      client_cpu_ns += o.client_cpu_ns;
      msgs += o.msgs;
      server_rt_cpu.resize(o.server_rt_cpu.size());
      for (std::size_t i = 0; i < o.server_rt_cpu.size(); ++i) {
        server_rt_cpu[i] += o.server_rt_cpu[i];
      }
      server_net.frames_sent += o.server_net.frames_sent;
      server_net.bytes_sent += o.server_net.bytes_sent;
      server_net.writev_calls += o.server_net.writev_calls;
    }
  };

  // Open loop: Poisson arrivals at the workload rate for `seconds`, each
  // timed from its scheduled send time.  The generator sleeps between
  // arrivals.  The joiner leaves and rejoins every join period.
  Window open_window(double seconds, int tag) {
    Window win;
    const Snapshot before = snap();
    const std::uint64_t sent0 = ld_.sent.load();
    const std::int64_t t0 = now_ns();
    const auto end = t0 + std::int64_t(seconds * 1e9);
    auto next = t0 + std::int64_t(gen_.exp_gap_ns(w_.wl.open_rate));
    const std::int64_t period = std::int64_t(w_.wl.join_period_ms) * 1'000'000;
    std::int64_t next_join = t0 + period / 2;
    std::int64_t join_started = 0;
    int join_target = 0;
    const std::size_t jidx = w_.members.size() - 1;
    while (ok()) {
      std::int64_t now = now_ns();
      while (next <= now && next < end) {
        send_one(gen_.pick_publisher(), tag, next);
        late_ns.push_back(now_ns() - next);
        next += std::int64_t(gen_.exp_gap_ns(w_.wl.open_rate));
        now = now_ns();
      }
      if (join_started != 0) {
        if (const std::int64_t t = joined_at(jidx, join_target); t != 0) {
          win.join_ns.push_back(t - join_started);
          join_started = 0;
        }
      }
      if (next_join <= now && next_join < end) {
        if (join_started == 0) {
          join_target = joins_of(jidx) + 1;
          join_started = now_ns();
          rejoin(jidx, /*leave_first=*/true);
        }
        next_join += period;
      }
      if (next >= end && next_join >= end) break;
      const std::int64_t wake = std::min({next, next_join, end});
      std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now_ns()));
    }
    if (join_started != 0 && wait_joined(jidx, join_target)) {
      win.join_ns.push_back(joined_at(jidx, join_target) - join_started);
    }
    drain();
    finish(win, before, ld_.sent.load() - sent0);
    return win;
  }

  // Closed loop over a fixed amount of work: `outstanding` multicasts in
  // flight per publisher, each completion (delivered to every stable
  // member) releasing the next, until `count` completed.  Fixed work keeps
  // the client replicas' growth per window, and so peak RSS, independent
  // of speed.
  Window closed_window(int count) {
    Window win;
    const Snapshot before = snap();
    const std::uint64_t sent0 = ld_.sent.load();
    const std::int64_t t0 = now_ns();
    int issued = 0, completed = 0;
    std::int64_t last = t0;
    for (int k = 0; k < w_.wl.outstanding; ++k) {
      for (int p = 0; p < int(ld_.pubs.size()) && issued < count; ++p) {
        send_one(p, kClosed, t0);
        ++issued;
      }
    }
    while (ok() && completed < count) {
      std::vector<Completion> got;
      {
        std::unique_lock<std::mutex> lock(ld_.mu);
        if (!ld_.cv.wait_for(lock, std::chrono::nanoseconds(kDeadlineNs),
                             [&] { return !ld_.done.empty(); })) {
          error = "closed loop stalled";
          break;
        }
        got.swap(ld_.done);
      }
      for (const Completion& c : got) {
        ++completed;
        last = std::max(last, c.t);
        if (issued < count) {
          send_one(c.pub, kClosed, now_ns());
          ++issued;
        }
      }
    }
    win.busy_ns = last - t0;
    win.done = std::uint64_t(completed);
    drain();
    finish(win, before, ld_.sent.load() - sent0);
    return win;
  }

 private:
  struct Snapshot {
    std::int64_t t, scpu, ccpu;
    CpuTicks ticks;
    std::vector<std::int64_t> rt_cpu;
    std::vector<net::SocketRuntime::Stats> net;
  };

  Snapshot snap() const {
    Snapshot s{now_ns(), w_.server_cpu_ns(), w_.client_cpu_ns(), cpu_ticks(),
               {}, {}};
    for (auto& p : w_.server_probes) s.rt_cpu.push_back(p->cpu_ns());
    for (auto& rt : w_.server_rts) s.net.push_back(rt->stats());
    return s;
  }

  void finish(Window& win, const Snapshot& b, std::uint64_t msgs) const {
    const Snapshot a = snap();
    win.wall_ns = a.t - b.t;
    win.server_cpu_ns = a.scpu - b.scpu;
    win.client_cpu_ns = a.ccpu - b.ccpu;
    win.steal = ratio(double(a.ticks.steal - b.ticks.steal),
                      double(a.ticks.total - b.ticks.total));
    win.msgs = msgs;
    for (std::size_t i = 0; i < a.rt_cpu.size(); ++i) {
      win.server_rt_cpu.push_back(a.rt_cpu[i] - b.rt_cpu[i]);
    }
    for (std::size_t i = 0; i < a.net.size(); ++i) {
      win.server_net.frames_sent += a.net[i].frames_sent - b.net[i].frames_sent;
      win.server_net.bytes_sent += a.net[i].bytes_sent - b.net[i].bytes_sent;
      win.server_net.writev_calls +=
          a.net[i].writev_calls - b.net[i].writev_calls;
    }
  }

  World& w_;
  Generator& gen_;
  Load& ld_;
};

// ---------------------------------------------------------------------------
// Correctness oracle
// ---------------------------------------------------------------------------

// Every member's replica must equal the server's (or coordinator's) state
// and expect the next sequence number after its head; the head must count
// every multicast sent.  Runs after the runtimes stopped.
std::string check_members(World& w, std::uint64_t sent) {
  const SharedState* ss = w.server_state();
  if (ss == nullptr) return "server lost the group";
  if (ss->head_seq() != sent) {
    return "server head " + std::to_string(ss->head_seq()) + " != " +
           std::to_string(sent) + " multicasts sent";
  }
  const std::vector<StateEntry> want = ss->snapshot();
  for (const Member& m : w.members) {
    const SharedState* cs = m.client->group_state(kGroup);
    const std::string who = "member " + std::to_string(m.id.value);
    if (cs == nullptr) return who + " holds no replica";
    if (m.client->expected_seq(kGroup) != ss->head_seq() + 1) {
      return who + " expects seq " +
             std::to_string(m.client->expected_seq(kGroup)) + ", head is " +
             std::to_string(ss->head_seq());
    }
    if (cs->snapshot() != want) return who + " state differs from server";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Layer timings on the run's own records and state.  Inputs are built
// before each timer starts, so only the layer call is timed.
// ---------------------------------------------------------------------------

struct LayerTimes {
  double encode_deliver_ns = 0, decode_deliver_ns = 0;
  double encode_join_reply_us = 0;
  double apply_ns = 0, reduce_us = 0, build_us = 0;
};

LayerTimes time_layers(const SharedState& server_state,
                       const SharedState& member_state) {
  constexpr int kReps = 5;
  LayerTimes out;
  // The member's records since its last full-state join, replayed from the
  // state it joined with: the state the client really had before each one.
  std::vector<UpdateRecord> recs = member_state.history();
  if (recs.size() > 1024) recs.resize(1024);
  const std::size_t n = recs.size();

  if (n > 0) {
    // SharedState::apply, then reduce_to over the history it built.
    const std::vector<StateEntry> base = member_state.snapshot_at_base();
    std::vector<SharedState> states(kReps);
    for (SharedState& s : states) s.load(member_state.base_seq(), base);
    std::vector<double> apply, reduce;
    for (SharedState& s : states) {
      const std::int64_t t0 = now_ns();
      for (const UpdateRecord& r : recs) s.apply(r);
      apply.push_back(double(now_ns() - t0) / double(n));
    }
    for (SharedState& s : states) {
      const std::int64_t t0 = now_ns();
      s.reduce_to(s.head_seq());
      reduce.push_back(double(now_ns() - t0) / 1e3);
    }
    out.apply_ns = median(apply);
    out.reduce_us = median(reduce);

    // Message::encode / decode of kDeliver at the workload's payload size.
    std::vector<Message> msgs;
    msgs.reserve(n);
    for (const UpdateRecord& r : recs) msgs.push_back(make_deliver(kGroup, r));
    std::vector<std::vector<Bytes>> wires(kReps, std::vector<Bytes>(n));
    std::vector<double> enc, dec;
    for (auto& w : wires) {
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < n; ++i) w[i] = msgs[i].encode();
      enc.push_back(double(now_ns() - t0) / double(n));
    }
    for (int r = 0; r < kReps; ++r) {
      std::vector<std::optional<Result<Message>>> decoded(n);
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        decoded[i].emplace(Message::decode(wires[0][i]));
      }
      dec.push_back(double(now_ns() - t0) / double(n));
    }
    out.encode_deliver_ns = median(enc);
    out.decode_deliver_ns = median(dec);
  }

  // build_transfer and the join reply's encode at the run's state size.
  std::vector<double> build, join_enc;
  std::vector<TransferContent> built;
  built.reserve(kReps);
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t t0 = now_ns();
    built.push_back(build_transfer(server_state, TransferPolicySpec::full()));
    build.push_back(double(now_ns() - t0) / 1e3);
  }
  Message reply;
  reply.type = MsgType::kJoinReply;
  reply.group = kGroup;
  reply.seq = built.front().base_seq;
  reply.state = built.front().snapshot;
  reply.updates = built.front().updates;
  std::vector<Bytes> replies(kReps);
  for (Bytes& b : replies) {
    const std::int64_t t0 = now_ns();
    b = reply.encode();
    join_enc.push_back(double(now_ns() - t0) / 1e3);
  }
  out.build_us = median(build);
  out.encode_join_reply_us = median(join_enc);
  return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count etc., human-readable lines only
  bool in_json = true;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%-34s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const Metric& m : ms) {
    if (!m.in_json) continue;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string count_note(std::size_t n) { return "n=" + std::to_string(n); }

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

int fail(const std::string& why, std::uint64_t attempted, std::uint64_t failed) {
  std::fprintf(stderr, "corona_perfbench: FAILED: %s\n", why.c_str());
  print_result(false, std::max<std::uint64_t>(attempted, 1), failed, {});
  return 1;
}

// Everything one deployment contributes to the result.  A run measures
// five deployments in turn, each set up from scratch, so a property of one
// set-up (connection state, memory layout) cannot decide the whole run.  A
// traced run measures four: the odd ones decorated and traced, the even
// ones plain, so the decorators' cost is the difference between the two.
struct Slice {
  bool traced = false;
  double setup_s = 0;
  double peak_rss_mb = 0;  // VmHWM over set-up and every window
  std::vector<Bench::Window> open_w, closed_w;  // the windows kept
  Bench::Window spanned;  // sums over every window, as the spans cover
  std::vector<std::int64_t> late_ns;
  std::uint64_t attempted = 0, failed = 0, dropped = 0;
  // Traced deployments only.
  RoleStats server, leaf, client;
  double sequenced = 0, reductions = 0, batched = 0, batches = 0;
  double forwarded = 0, seq_batch_frames = 0, gaps = 0, transfer_bytes = 0;
  LayerTimes layers;
};

// A window in which the host took more than this share of the machine's CPU
// time (steal in /proc/stat) measured the host more than corona.  It is
// repeated, up to a third more windows than planned, and the planned number
// of windows with the least steal is kept.
constexpr double kMaxSteal = 0.01;

int max_windows(int planned) { return planned + (planned + 2) / 3; }

void keep_least_stolen(std::vector<Bench::Window>& v, int planned) {
  std::stable_sort(v.begin(), v.end(),
                   [](const Bench::Window& x, const Bench::Window& y) {
                     return x.steal < y.steal;
                   });
  if (v.size() > std::size_t(planned)) v.resize(std::size_t(planned));
}

void print_windows(const Slice& s, int index) {
  for (const auto& x : s.open_w) {
    std::fprintf(stderr,
                 "set-up %d open   steal=%.3f msgs=%6llu cpu/msg=%8.2fus "
                 "client=%8.2fus p50=%8.1fus p99=%8.1fus\n",
                 index, x.steal, static_cast<unsigned long long>(x.msgs),
                 ratio(double(x.server_cpu_ns) / 1e3, double(x.msgs)),
                 ratio(double(x.client_cpu_ns) / 1e3, double(x.msgs)),
                 percentile(x.lat, 0.5) / 1e3, percentile(x.lat, 0.99) / 1e3);
  }
  for (const auto& x : s.closed_w) {
    std::fprintf(stderr,
                 "set-up %d closed steal=%.3f msgs=%6llu rate=%9.1f/s "
                 "cpu/msg=%8.2fus\n",
                 index, x.steal, static_cast<unsigned long long>(x.msgs),
                 ratio(double(x.done) * 1e9, double(x.busy_ns)),
                 ratio(double(x.server_cpu_ns) / 1e3, double(x.msgs)));
  }
}

// Sets up one deployment, runs its share of the windows, checks it and
// tears it down.  Returns "" or the failure.
std::string run_slice(const Args& a, const Workload& wl, std::int64_t t0,
                      int index, int n_open, int n_closed, Slice* out) {
  reset_peak_rss();
  auto w = std::make_unique<World>(wl, out->traced);
  Generator gen(wl, a.seed);
  w->build();
  std::string err;
  if (!w->start(&err)) {
    out->attempted = out->failed = 1;
    return err;
  }
  if (can_pin(w->server_rts.size() + w->client_rts.size() + 1)) {
    pin_to_cpu(int(std::thread::hardware_concurrency()) - 1);
  }
  Bench b(*w, gen);
  if (!b.setup_group() || !b.closed_count(wl.prefill) ||
      !b.closed_count(wl.warmup) || !b.compact()) {
    out->attempted = b.attempted;
    out->failed = 1;
    return "set-up: " + b.error;
  }
  out->setup_s = double(now_ns() - t0) / 1e9;
  b.late_ns.clear();

  const double open_s = open_window_s(wl);
  int clean = 0;
  for (int i = 0; clean < n_open && i < max_windows(n_open) && b.ok(); ++i) {
    g_tracing.store(out->traced);
    out->open_w.push_back(b.open_window(open_s, kOpenBase + i));
    g_tracing.store(false);
    if (out->open_w.back().steal <= kMaxSteal) ++clean;
    b.compact();
  }
  clean = 0;
  for (int i = 0; clean < n_closed && i < max_windows(n_closed) && b.ok();
       ++i) {
    if (i > 0) b.compact();
    g_tracing.store(out->traced);
    out->closed_w.push_back(b.closed_window(wl.closed_window_msgs));
    g_tracing.store(false);
    if (out->closed_w.back().steal <= kMaxSteal) ++clean;
  }
  out->peak_rss_mb = peak_rss_mb();

  Load& ld = w->load;
  out->dropped = w->dropped();
  w->stop();
  const std::uint64_t sent = ld.sent.load();
  out->attempted = b.attempted;
  out->failed = (sent - ld.completed.load()) + ld.stale.load() +
                ld.error_replies.load() + ld.join_failures.load() + out->dropped;
  if (!b.ok()) {
    out->failed = std::max<std::uint64_t>(out->failed, 1);
    return b.error;
  }
  if (std::string why = check_members(*w, sent); !why.empty()) return why;

  for (const auto& per_rt : ld.lat) {
    for (const auto& [tag, ns] : per_rt) {
      out->open_w[std::size_t(tag - kOpenBase)].lat.push_back(ns);
    }
  }
  out->late_ns = std::move(b.late_ns);
  if (std::getenv("PERFBENCH_VERBOSE") != nullptr) print_windows(*out, index);
  for (const auto* v : {&out->open_w, &out->closed_w}) {
    for (const Bench::Window& x : *v) out->spanned.add(x);
  }
  keep_least_stolen(out->open_w, n_open);
  keep_least_stolen(out->closed_w, n_closed);

  if (out->traced) {
    const SharedState* ss = w->server_state();
    out->server = w->server_stats;
    out->leaf = w->leaf_stats;
    out->client = w->client_stats[0];
    out->client.merge(w->client_stats[1]);
    out->layers =
        time_layers(*ss, *w->members.front().client->group_state(kGroup));
    out->transfer_bytes =
        double(build_transfer(*ss, TransferPolicySpec::full()).total_bytes());
    if (w->server != nullptr) {
      const ServerStats& st = w->server->stats();
      out->sequenced = double(st.messages_sequenced);
      out->reductions = double(st.reductions);
      out->batched = double(st.batched_messages);
      out->batches = double(st.batches_sequenced);
    } else {
      for (std::size_t i = 1; i < w->replicas.size(); ++i) {
        out->forwarded += double(w->replicas[i]->stats().forwarded);
      }
      out->sequenced = double(w->replicas[0]->stats().sequenced);
      out->seq_batch_frames = double(w->replicas[0]->stats().seq_batch_frames);
    }
    for (const Member& m : w->members) {
      out->gaps += double(m.client->gaps_detected());
    }
  }
  return "";
}

int run(const Args& a, std::int64_t process_start) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (a.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "corona_perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  const Workload& wl = *found;

  // Deployments one after another.  Each set-up covers runtimes started,
  // connects, group created, members joined, state pre-filled and warm-up
  // done; the first also covers process start.  setup_s is their median.
  // 55% of the measured time is open loop, the rest closed loop.
  const int n_slices = a.trace ? 4 : 5;
  const double per_slice = a.seconds / n_slices;
  const int n_open =
      std::max(2, int(std::lround(0.55 * per_slice / open_window_s(wl))));
  const int n_closed =
      std::max(2, int(std::lround(0.45 * per_slice / kClosedWindowS)));
  std::vector<Slice> slices(static_cast<std::size_t>(n_slices));
  std::uint64_t attempted = 0, failed = 0, dropped = 0;
  for (int i = 0; i < n_slices; ++i) {
    Slice& s = slices[std::size_t(i)];
    s.traced = a.trace && i % 2 == 1;
    const std::int64_t t0 = i == 0 ? process_start : now_ns();
    const std::string why = run_slice(a, wl, t0, i, n_open, n_closed, &s);
    // Hand the torn-down deployment's free memory back, so each
    // deployment's RSS starts from the same floor.
    malloc_trim(0);
    attempted += s.attempted;
    failed += s.failed;
    dropped += s.dropped;
    if (!why.empty()) return fail(why, attempted, failed);
  }

  // Pooled over deployments.  Latency figures are medians over windows: one
  // window with a host hiccup moves a pooled percentile but not the median.
  // Each window holds over a thousand samples, so its p99 has more than ten
  // beyond it.  CPU per multicast and throughput are totals over each
  // deployment's kept windows, and the median over deployments: on
  // stateful_append single windows fall into two groups about a fifth
  // apart, where a median over windows jumps between the groups and a total
  // moves only by the share of windows that changed group; and now and then
  // a whole deployment runs a third slower, which the median over
  // deployments leaves out.
  struct OpenFigures {
    double p50_us, p99_us, cpu_us_per_msg;
    std::size_t samples, windows;
    std::vector<std::int64_t> join_ns;
  };
  auto open_figures = [&](bool traced) {
    OpenFigures f{};
    std::vector<double> p50, p99, cpu;
    for (const Slice& s : slices) {
      if (s.traced != traced) continue;
      double cpu_ns = 0, msgs = 0;
      for (const auto& x : s.open_w) {
        p50.push_back(percentile(x.lat, 0.50) / 1e3);
        p99.push_back(percentile(x.lat, 0.99) / 1e3);
        cpu_ns += double(x.server_cpu_ns);
        msgs += double(x.msgs);
        f.samples += x.lat.size();
        f.join_ns.insert(f.join_ns.end(), x.join_ns.begin(), x.join_ns.end());
      }
      cpu.push_back(ratio(cpu_ns / 1e3, msgs));
    }
    f.p50_us = median(p50);
    f.p99_us = median(p99);
    f.cpu_us_per_msg = median(cpu);
    f.windows = p50.size();
    return f;
  };
  std::vector<double> setup_s, rss, rates;
  std::vector<std::int64_t> late_ns;
  std::size_t closed_windows = 0;
  for (const Slice& s : slices) {
    setup_s.push_back(s.setup_s);
    rss.push_back(s.peak_rss_mb);
    double done = 0, busy_ns = 0;
    for (const auto& cw : s.closed_w) {
      done += double(cw.done);
      busy_ns += double(cw.busy_ns);
    }
    rates.push_back(ratio(done * 1e9, busy_ns));
    closed_windows += s.closed_w.size();
    late_ns.insert(late_ns.end(), s.late_ns.begin(), s.late_ns.end());
  }

  const double late_p99_us = percentile(late_ns, 0.99) / 1e3;
  const bool behind = late_p99_us > 1000.0;
  if (behind) {
    std::fprintf(stderr,
                 "corona_perfbench: WARNING: load generator fell behind "
                 "(late p99 %.0f us)\n", late_p99_us);
  }
  std::printf("workload %s seed %llu seconds %g trace %d: %d set-ups x "
              "(%d open + %d closed windows), oracle ok%s\n",
              wl.name, static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, n_slices, n_open, n_closed,
              behind ? ", GENERATOR BEHIND" : "");

  std::vector<Metric> ms;
  if (!a.trace) {
    const OpenFigures of = open_figures(false);
    const std::string lat_note = "median of " + std::to_string(of.windows) +
                                 " windows, n=" + std::to_string(of.samples);
    ms.push_back({"setup_s", median(setup_s), "s",
                  "median of " + std::to_string(n_slices) + " set-ups"});
    ms.push_back({"deliver_p50_us", of.p50_us, "us", lat_note});
    // The tails are printed here but reported in the traced run: on a shared
    // host their run-to-run spread is wider than any regression bound.
    ms.push_back({"deliver_p99_us", of.p99_us, "us", lat_note, false});
    ms.push_back({"server_cpu_us_per_msg", of.cpu_us_per_msg, "us",
                  "open loop, median of " + std::to_string(n_slices) +
                      " set-ups, " + std::to_string(of.windows) + " windows"});
    ms.push_back({"msgs_per_s", median(rates), "1/s",
                  "median of " + std::to_string(n_slices) + " set-ups, " +
                      std::to_string(closed_windows) + " windows"});
    ms.push_back({"join_p50_ms", percentile(of.join_ns, 0.50) / 1e6, "ms",
                  count_note(of.join_ns.size())});
    ms.push_back({"join_p90_ms", percentile(of.join_ns, 0.90) / 1e6, "ms",
                  count_note(of.join_ns.size()), false});
    ms.push_back({"peak_rss_mb", median(rss), "MB",
                  "median of " + std::to_string(n_slices) + " set-ups"});
  } else {
    // Spans and counters of the traced deployments, over every window.
    const bool star = wl.topo == Topology::kStar;
    const std::size_t n_srv = star ? 2 : 1;
    const double n_cli = double(wl.client_rts);
    double wall = 0, msgs = 0, scpu = 0, ccpu = 0;
    std::vector<double> rt_cpu(n_srv, 0.0);
    net::SocketRuntime::Stats sn{};
    RoleStats srv, leaf, cli;
    Slice sum;  // counters summed over deployments
    for (const Slice& s : slices) {
      if (!s.traced) continue;
      const Bench::Window& x = s.spanned;
      wall += double(x.wall_ns);
      msgs += double(x.msgs);
      scpu += double(x.server_cpu_ns);
      ccpu += double(x.client_cpu_ns);
      for (std::size_t i = 0; i < n_srv; ++i) rt_cpu[i] += double(x.server_rt_cpu[i]);
      sn.frames_sent += x.server_net.frames_sent;
      sn.bytes_sent += x.server_net.bytes_sent;
      sn.writev_calls += x.server_net.writev_calls;
      srv.merge(s.server);
      leaf.merge(s.leaf);
      cli.merge(s.client);
      sum.sequenced += s.sequenced;
      sum.reductions += s.reductions;
      sum.batched += s.batched;
      sum.batches += s.batches;
      sum.forwarded += s.forwarded;
      sum.seq_batch_frames += s.seq_batch_frames;
      sum.gaps += s.gaps;
    }
    // Layer timings and transfer size: median over the traced deployments.
    auto med = [&](auto field) {
      std::vector<double> v;
      for (const Slice& s : slices) {
        if (s.traced) v.push_back(field(s));
      }
      return median(v);
    };
    const LayerTimes lt{
        med([](const Slice& s) { return s.layers.encode_deliver_ns; }),
        med([](const Slice& s) { return s.layers.decode_deliver_ns; }),
        med([](const Slice& s) { return s.layers.encode_join_reply_us; }),
        med([](const Slice& s) { return s.layers.apply_ns; }),
        med([](const Slice& s) { return s.layers.reduce_us; }),
        med([](const Slice& s) { return s.layers.build_us; })};
    const double transfer_bytes = med([](const Slice& s) { return s.transfer_bytes; });

    auto type = [](MsgType t) { return std::size_t(t); };
    Span handlers = srv.handlers();
    handlers.merge(leaf.handlers());
    Span net_calls = srv.net;
    net_calls.merge(leaf.net);
    Span bcast = star ? srv.on_msg[type(MsgType::kFwdMulticast)]
                      : srv.on_msg[type(MsgType::kBcastState)];
    if (!star) bcast.merge(srv.on_msg[type(MsgType::kBcastUpdate)]);
    const Span& join = star ? leaf.on_msg[type(MsgType::kJoin)]
                            : srv.on_msg[type(MsgType::kJoin)];
    const OpenFigures fu = open_figures(false), ft = open_figures(true);
    const double payload_bytes = msgs * wl.members * double(wl.payload);

    ms = {
        {"net.server_loop.busy_frac", ratio(scpu, wall * double(n_srv)), "frac", ""},
        {"net.server_loop.self_us_per_msg",
         ratio((scpu - double(handlers.ns)) / 1e3, msgs), "us", ""},
        {"net.enqueue_ns", net_calls.mean_ns(), "ns", count_note(net_calls.calls)},
        {"net.frames_per_msg", ratio(double(sn.frames_sent), msgs), "count", ""},
        {"net.frames_per_writev",
         ratio(double(sn.frames_sent), double(sn.writev_calls)), "count", ""},
        {"net.wire_bytes_per_payload_byte", ratio(double(sn.bytes_sent), payload_bytes),
         "ratio", ""},
        {"net.dropped", double(dropped), "count", ""},
        {"net.client_loop.busy_frac", ratio(ccpu, wall * n_cli), "frac", ""},
        {"serial.encode_deliver_ns", lt.encode_deliver_ns, "ns", ""},
        {"serial.decode_deliver_ns", lt.decode_deliver_ns, "ns", ""},
        {"serial.encode_join_reply_us", lt.encode_join_reply_us, "us", ""},
        {"core.server.bcast_self_us", bcast.mean_self_ns() / 1e3, "us",
         count_note(bcast.calls)},
        {"core.server.timer_self_us", srv.on_timer.mean_self_ns() / 1e3, "us",
         count_note(srv.on_timer.calls)},
        {"core.server.join_us", join.mean_ns() / 1e3, "us", count_note(join.calls)},
        {"core.state.apply_ns", lt.apply_ns, "ns", ""},
        {"core.state.reduce_us", lt.reduce_us, "us", ""},
        {"core.transfer.build_us", lt.build_us, "us", ""},
        {"core.reductions_per_kmsg", ratio(sum.reductions * 1e3, sum.sequenced),
         "count", ""},
        {"core.transfer_bytes_per_join", transfer_bytes, "bytes", ""},
        {"core.batch_mean", sum.batches > 0 ? sum.batched / sum.batches : 1.0,
         "count", ""},
        {"core.client.on_message_us", cli.handlers().mean_ns() / 1e3, "us",
         count_note(cli.handlers().calls)},
        {"core.client.gaps", sum.gaps, "count", ""},
        {"storage.log.append_ns", srv.log_append.mean_ns(), "ns",
         count_note(srv.log_append.calls)},
        {"storage.log.flush_us", srv.log_flush.mean_ns() / 1e3, "us",
         count_note(srv.log_flush.calls)},
        {"storage.ckpt.flush_us", srv.ckpt_flush.mean_ns() / 1e3, "us",
         count_note(srv.ckpt_flush.calls)},
        {"storage.records_per_commit",
         ratio(double(srv.records_committed), double(srv.commits)), "count", ""},
        {"storage.bytes_written_per_msg",
         ratio(double(srv.bytes_appended), msgs), "bytes", ""},
        {"replica.coord.self_us_per_msg",
         star ? ratio(double(srv.handlers().self_ns()) / 1e3, msgs) : 0.0, "us", ""},
        {"replica.leaf.self_us_per_msg",
         star ? ratio(double(leaf.handlers().self_ns()) / 1e3, msgs) : 0.0, "us", ""},
        {"replica.coord_loop.busy_frac", star ? ratio(rt_cpu[0], wall) : 0.0, "frac", ""},
        {"replica.leaf_loop.busy_frac", star ? ratio(rt_cpu[1], wall) : 0.0, "frac", ""},
        {"replica.forwarded_per_msg", ratio(sum.forwarded, sum.sequenced), "count", ""},
        {"replica.seq_batch_frames", sum.seq_batch_frames, "count", ""},
        {"deliver_p99_us", fu.p99_us, "us",
         "untraced windows, median of " + std::to_string(fu.windows)},
        {"join_p90_ms", percentile(fu.join_ns, 0.90) / 1e6, "ms",
         count_note(fu.join_ns.size())},
        {"loadgen.late_p99_us", late_p99_us, "us", count_note(late_ns.size())},
        {"trace.overhead_frac", ratio(ft.cpu_us_per_msg, fu.cpu_us_per_msg) - 1.0,
         "frac", "server_cpu_us_per_msg, traced vs plain deployments"},
        {"trace.overhead_p50_frac", ratio(ft.p50_us, fu.p50_us) - 1.0, "frac",
         "deliver_p50_us, traced vs plain deployments"},
        {"failed_ratio", ratio(double(failed), double(attempted)), "frac", ""},
    };
  }
  print_result(true, attempted, failed, ms);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::int64_t process_start = perfbench::now_ns();
  // Fixed allocator thresholds.  By default glibc raises its mmap threshold
  // each time it frees a large mmapped block, so whether the state's large
  // objects live in mmapped blocks or on the heap depends on the history of
  // frees, and closed-loop throughput on stateful_append differed by a
  // third between deployments of one run.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "corona_perfbench: %s needs a value\n", arg.c_str());
      return 2;
    }
    const char* v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      a.trace = std::strtol(v, nullptr, 10) != 0;
    } else {
      std::fprintf(stderr, "corona_perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (a.workload.empty() || !(a.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: corona_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  return perfbench::run(a, process_start);
}
