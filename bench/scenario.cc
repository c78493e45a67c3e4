#include "bench/scenario.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>

namespace corona::bench {

namespace {

constexpr GroupId kGroup{1};
constexpr ObjectId kObject{1};

NodeId server_node(std::size_t i) { return NodeId{1 + i}; }
NodeId client_node(std::size_t i) { return NodeId{100 + i}; }

// Drives the measuring client: records send time per request id and samples
// the round trip when its own multicast comes back.
class RoundTripDriver {
 public:
  RoundTripDriver(SimRuntime& rt, CoronaClient& client, GroupId group,
                  std::size_t bytes, std::size_t messages, Duration interval,
                  bool self_clocked)
      : rt_(rt), client_(client), group_(group), bytes_(bytes),
        messages_(messages), interval_(interval),
        self_clocked_(self_clocked) {}

  CoronaClient::Callbacks callbacks() {
    CoronaClient::Callbacks cb;
    cb.on_deliver = [this](GroupId g, const UpdateRecord& rec) {
      if (!(g == group_) || !(rec.sender == client_.id())) return;
      auto it = in_flight_.find(rec.request_id);
      if (it == in_flight_.end()) return;
      stats_.add(to_ms(rt_.now() - it->second));
      in_flight_.erase(it);
      if (self_clocked_) send_next();
    };
    return cb;
  }

  // Kick off the send schedule.  In timed mode every send is pre-scheduled
  // at the paper's cadence; in self-clocked mode each delivery triggers the
  // next send.
  void start() {
    if (self_clocked_) {
      send_next();
      return;
    }
    for (std::size_t i = 0; i < messages_; ++i) {
      rt_.sim().queue().schedule_after(
          static_cast<Duration>(i) * interval_, [this] { send_one(); });
    }
  }

  bool done() const { return sent_ >= messages_ && in_flight_.empty(); }
  const LatencyStats& stats() const { return stats_; }

 private:
  void send_one() {
    const RequestId rid =
        client_.bcast_update(group_, kObject, filler_bytes(bytes_), true);
    in_flight_[rid] = rt_.now();
    ++sent_;
  }
  void send_next() {
    if (sent_ < messages_) send_one();
  }

  SimRuntime& rt_;
  CoronaClient& client_;
  GroupId group_;
  std::size_t bytes_;
  std::size_t messages_;
  Duration interval_;
  bool self_clocked_;
  std::map<RequestId, TimePoint> in_flight_;
  LatencyStats stats_;
  std::size_t sent_ = 0;
};

}  // namespace

RoundTripResult run_single_server_roundtrip(const RoundTripConfig& cfg) {
  SimRuntime rt;
  rt.network().set_shared_bandwidth(cfg.shared_bandwidth_bytes_per_sec);
  const HostId server_host = rt.network().add_host(cfg.server_profile);
  std::vector<HostId> machines;
  for (std::size_t i = 0; i < cfg.client_machines; ++i) {
    machines.push_back(rt.network().add_host(cfg.client_profile));
  }

  ServerConfig scfg;
  scfg.flush = cfg.flush;
  scfg.use_ip_multicast = cfg.use_ip_multicast;
  GroupStore store;
  CoronaServer stateful_server(scfg, &store);
  StatelessServer stateless_server;
  Node* server = cfg.stateful ? static_cast<Node*>(&stateful_server)
                              : static_cast<Node*>(&stateless_server);
  rt.add_node(server_node(0), server, server_host);
  rt.set_disk(server_node(0), DiskProfile::nineties_disk());

  // Receivers first (lower ids), the measuring sender last: the server fans
  // out in member-id order, so the measurement is the worst case.
  std::vector<std::unique_ptr<CoronaClient>> receivers;
  for (std::size_t i = 0; i + 1 < cfg.clients; ++i) {
    receivers.push_back(std::make_unique<CoronaClient>(server_node(0)));
    rt.add_node(client_node(i), receivers.back().get(),
                machines[i % machines.size()]);
  }
  auto measurer = std::make_unique<CoronaClient>(server_node(0));
  RoundTripDriver driver(rt, *measurer, kGroup, cfg.message_bytes,
                         cfg.messages, cfg.send_interval, cfg.self_clocked);
  measurer->set_callbacks(driver.callbacks());
  rt.add_node(client_node(cfg.clients - 1), measurer.get(),
              machines[(cfg.clients - 1) % machines.size()]);

  rt.start();
  rt.run_for(50 * kMillisecond);
  measurer->create_group(kGroup, "bench", false);
  rt.run_for(50 * kMillisecond);
  // Receivers are pure sinks: no transfer, no membership awareness (the
  // O(N^2) notice traffic would otherwise pollute the warm-up).
  for (auto& r : receivers) {
    r->join(kGroup, TransferPolicySpec::nothing(), MemberRole::kObserver,
            /*notify_membership=*/false);
  }
  rt.run_for(2 * kSecond);
  measurer->join(kGroup, TransferPolicySpec::nothing(),
                 MemberRole::kPrincipal, /*notify_membership=*/false);
  rt.run_for(1 * kSecond);

  driver.start();
  // Generous ceiling: cadence * messages + drain time.
  const Duration budget =
      cfg.send_interval * static_cast<Duration>(cfg.messages) + 120 * kSecond;
  TimePoint deadline = rt.now() + budget;
  while (!driver.done() && rt.now() < deadline) {
    rt.run_for(1 * kSecond);
  }

  RoundTripResult out;
  out.round_trip_ms = driver.stats();
  out.messages_sequenced = cfg.stateful
                               ? stateful_server.stats().messages_sequenced
                               : stateless_server.stats().messages_sequenced;
  return out;
}

ThroughputResult run_single_server_throughput(const ThroughputConfig& cfg) {
  SimRuntime rt;
  rt.network().set_shared_bandwidth(cfg.shared_bandwidth_bytes_per_sec);
  const HostId server_host = rt.network().add_host(cfg.server_profile);

  GroupStore store;
  ServerConfig scfg;
  scfg.flush = cfg.flush;
  scfg.batch_max_msgs = cfg.batch_max_msgs;
  scfg.batch_max_delay = cfg.batch_max_delay;
  CoronaServer server(scfg, &store);
  rt.add_node(server_node(0), &server, server_host);
  rt.set_disk(server_node(0), DiskProfile::nineties_disk());

  // Closed-loop blasting clients: each keeps `window` multicasts in flight,
  // sending a new one whenever one of its own comes back.  Each sender
  // samples the send -> own-delivery latency of every multicast.
  struct Blaster {
    std::unique_ptr<CoronaClient> client;
    std::size_t bytes;
    SimRuntime* rt;
    LatencyStats* latency;
    std::map<RequestId, TimePoint> in_flight;
    void pump() {
      const RequestId rid =
          client->bcast_update(kGroup, kObject, filler_bytes(bytes));
      in_flight[rid] = rt->now();
    }
    void sample(RequestId rid) {
      auto it = in_flight.find(rid);
      if (it == in_flight.end()) return;
      latency->add(to_ms(rt->now() - it->second));
      in_flight.erase(it);
    }
  };
  std::vector<std::unique_ptr<Blaster>> blasters;
  ThroughputMeter delivered;
  LatencyStats latency;
  for (std::size_t i = 0; i < cfg.clients; ++i) {
    auto b = std::make_unique<Blaster>();
    Blaster* bp = b.get();
    b->bytes = cfg.message_bytes;
    b->rt = &rt;
    b->latency = &latency;
    CoronaClient::Callbacks cb;
    const NodeId self = client_node(i);
    cb.on_deliver = [bp, self, &delivered](GroupId, const UpdateRecord& rec) {
      delivered.on_delivery(rec.data.size());
      if (rec.sender == self) {
        bp->sample(rec.request_id);
        bp->pump();
      }
    };
    b->client = std::make_unique<CoronaClient>(server_node(0), cb);
    rt.add_node(self, b->client.get(),
                rt.network().add_host(HostProfile::sparc20()));
    blasters.push_back(std::move(b));
  }

  rt.start();
  rt.run_for(50 * kMillisecond);
  blasters[0]->client->create_group(kGroup, "bench", false);
  rt.run_for(50 * kMillisecond);
  for (auto& b : blasters) {
    b->client->join(kGroup, TransferPolicySpec::nothing(),
                    MemberRole::kPrincipal, /*notify_membership=*/false);
  }
  rt.run_for(500 * kMillisecond);

  const TimePoint t0 = rt.now();
  delivered.start(t0);
  const std::uint64_t sequenced0 = server.stats().messages_sequenced;
  for (auto& b : blasters) {
    for (std::size_t k = 0; k < cfg.window; ++k) b->pump();
  }
  rt.run_for(cfg.run_time);
  delivered.stop(rt.now());

  ThroughputResult out;
  const double secs = to_sec(rt.now() - t0);
  const std::uint64_t sequenced =
      server.stats().messages_sequenced - sequenced0;
  out.aggregate_kbytes_per_sec =
      static_cast<double>(sequenced) * static_cast<double>(cfg.message_bytes) /
      1000.0 / secs;
  out.delivered_kbytes_per_sec = delivered.kbytes_per_sec();
  out.messages_per_sec = static_cast<double>(sequenced) / secs;
  out.latency_ms = latency;
  out.batch_frames_sent = server.stats().batch_frames_sent;
  out.group_commits = server.stats().group_commits;
  out.group_commit_records = server.stats().group_commit_records;
  out.flushes = server.stats().flushes;
  return out;
}

RoundTripResult run_replicated_roundtrip(const ReplicatedConfig& cfg) {
  SimRuntime rt;
  rt.network().set_shared_bandwidth(cfg.shared_bandwidth_bytes_per_sec);
  rt.network().set_default_latency(cfg.client_latency);

  std::vector<NodeId> server_ids;
  for (std::size_t i = 0; i < cfg.servers; ++i) {
    server_ids.push_back(server_node(i));
  }
  std::vector<HostId> server_hosts;
  std::vector<std::unique_ptr<ReplicaServer>> servers;
  ReplicaConfig rcfg;
  rcfg.batch_max_msgs = cfg.batch_max_msgs;
  rcfg.batch_max_delay = cfg.batch_max_delay;
  for (std::size_t i = 0; i < cfg.servers; ++i) {
    server_hosts.push_back(rt.network().add_host(HostProfile::ultrasparc()));
    servers.push_back(std::make_unique<ReplicaServer>(rcfg, server_ids));
    rt.add_node(server_ids[i], servers[i].get(), server_hosts[i]);
  }
  for (std::size_t a = 0; a < cfg.servers; ++a) {
    for (std::size_t b = a + 1; b < cfg.servers; ++b) {
      rt.network().set_latency(server_hosts[a], server_hosts[b],
                               cfg.inter_server_latency);
    }
  }

  std::vector<HostId> machines;
  for (std::size_t i = 0; i < cfg.client_machines; ++i) {
    machines.push_back(rt.network().add_host(HostProfile::sparc20()));
  }
  // Clients round-robin over the leaves (or the single server).
  auto leaf_for = [&](std::size_t i) {
    if (cfg.servers == 1) return server_ids[0];
    return server_ids[1 + i % (cfg.servers - 1)];
  };

  std::vector<std::unique_ptr<CoronaClient>> receivers;
  for (std::size_t i = 0; i + 1 < cfg.clients; ++i) {
    receivers.push_back(std::make_unique<CoronaClient>(leaf_for(i)));
    rt.add_node(client_node(i), receivers.back().get(),
                machines[i % machines.size()]);
  }
  auto measurer = std::make_unique<CoronaClient>(leaf_for(cfg.clients - 1));
  RoundTripDriver driver(rt, *measurer, kGroup, cfg.message_bytes,
                         cfg.messages, 100 * kMillisecond, cfg.self_clocked);
  measurer->set_callbacks(driver.callbacks());
  rt.add_node(client_node(cfg.clients - 1), measurer.get(),
              machines[(cfg.clients - 1) % machines.size()]);

  rt.start();
  rt.run_for(500 * kMillisecond);
  measurer->create_group(kGroup, "bench", true);
  rt.run_for(500 * kMillisecond);
  for (auto& r : receivers) {
    r->join(kGroup, TransferPolicySpec::nothing(), MemberRole::kObserver,
            /*notify_membership=*/false);
  }
  rt.run_for(10 * kSecond);
  measurer->join(kGroup, TransferPolicySpec::nothing(),
                 MemberRole::kPrincipal, /*notify_membership=*/false);
  rt.run_for(5 * kSecond);

  driver.start();
  const TimePoint deadline = rt.now() + 600 * kSecond;
  while (!driver.done() && rt.now() < deadline) {
    rt.run_for(1 * kSecond);
  }

  RoundTripResult out;
  out.round_trip_ms = driver.stats();
  for (auto& s : servers) {
    out.messages_sequenced += s->stats().sequenced;
  }
  return out;
}

JoinCostResult run_join_cost(const JoinCostConfig& cfg) {
  SimRuntime rt;
  const HostId server_host = rt.network().add_host(HostProfile::ultrasparc());

  GroupStore store;
  ServerConfig scfg;
  if (cfg.reduction) scfg.reduction_factory = cfg.reduction;
  CoronaServer server(scfg, &store);
  rt.add_node(server_node(0), &server, server_host);
  rt.set_disk(server_node(0), DiskProfile::nineties_disk());

  CoronaClient publisher(server_node(0));
  rt.add_node(client_node(0), &publisher,
              rt.network().add_host(HostProfile::sparc20()));

  JoinCostResult out;
  bool joined = false;
  TimePoint join_sent = 0;
  CoronaClient::Callbacks cb;
  cb.on_joined = [&](GroupId, Status s) {
    if (s.is_ok()) {
      joined = true;
      out.join_ms = to_ms(rt.now() - join_sent);
    }
  };
  CoronaClient late(server_node(0), cb);
  rt.add_node(client_node(1), &late,
              rt.network().add_host(HostProfile::sparc20()));

  rt.start();
  rt.run_for(50 * kMillisecond);
  publisher.create_group(kGroup, "bench", true);
  rt.run_for(50 * kMillisecond);
  publisher.join(kGroup);
  rt.run_for(50 * kMillisecond);
  for (std::size_t i = 0; i < cfg.history_updates; ++i) {
    publisher.bcast_update(kGroup, kObject, filler_bytes(cfg.update_bytes));
    if (i % 50 == 49) rt.run_for(200 * kMillisecond);
  }
  rt.run_for(2 * kSecond);

  const std::uint64_t bytes_before = server.stats().transfer_bytes;
  out.server_history_records = server.group(kGroup)->state().history_size();
  out.server_log_bytes = server.group(kGroup)->state().history_bytes();
  join_sent = rt.now();
  late.join(kGroup, cfg.policy);
  const TimePoint deadline = rt.now() + 600 * kSecond;
  while (!joined && rt.now() < deadline) rt.run_for(100 * kMillisecond);
  out.transfer_bytes = server.stats().transfer_bytes - bytes_before;
  return out;
}

void print_banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n==================================================================\n"
            << title << "\n"
            << "Reproduces: " << paper_ref << "\n"
            << "(Stateful Group Communication Services, Litiu & Prakash, ICDCS'99)\n"
            << "==================================================================\n";
}

// ---------------------------------------------------------------------------
// JsonReport
// ---------------------------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string render_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no NaN/Inf
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

JsonReport::JsonReport(std::string bench_name) {
  add_text("bench", bench_name);
}

void JsonReport::add(const std::string& key, double value) {
  entries_.emplace_back(key, render_number(value));
}

void JsonReport::add_count(const std::string& key, std::uint64_t value) {
  entries_.emplace_back(key, std::to_string(value));
}

void JsonReport::add_text(const std::string& key, const std::string& value) {
  entries_.emplace_back(key, "\"" + json_escape(value) + "\"");
}

std::string JsonReport::to_string() const {
  std::string out = "{\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out += "  \"" + json_escape(entries_[i].first) + "\": " +
           entries_[i].second;
    if (i + 1 < entries_.size()) out += ",";
    out += "\n";
  }
  out += "}\n";
  return out;
}

bool JsonReport::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "JsonReport: cannot open " << path << " for writing\n";
    return false;
  }
  out << to_string();
  return static_cast<bool>(out);
}

std::string json_output_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return {};
}

}  // namespace corona::bench
