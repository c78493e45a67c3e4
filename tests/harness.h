// Shared test harness: topology builders over the deterministic engine.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/client.h"
#include "core/server.h"
#include "core/stateless_server.h"
#include "replica/replica_server.h"
#include "runtime/sim_runtime.h"
#include "storage/group_store.h"

namespace corona::testing {

// Node-id conventions used across the tests: servers get low ids, clients
// start at 100.
constexpr NodeId kServerId{1};
inline NodeId client_id(std::size_t i) { return NodeId{100 + i}; }
inline NodeId server_id(std::size_t i) { return NodeId{1 + i}; }

// Single-server world: one CoronaServer and N clients, each on its own host.
struct SingleServerWorld {
  SimRuntime rt;
  GroupStore store;  // the server machine's disk; outlives server restarts
  std::unique_ptr<CoronaServer> server;
  std::vector<std::unique_ptr<CoronaClient>> clients;
  HostId server_host;
  std::vector<HostId> client_hosts;

  // `session` (nullptr allows all) authorizes the clients' requests.
  explicit SingleServerWorld(std::size_t n_clients,
                             ServerConfig config = ServerConfig{},
                             CoronaClient::Callbacks callbacks = {},
                             SessionManager* session = nullptr) {
    server_host = rt.network().add_host(HostProfile{});
    server =
        std::make_unique<CoronaServer>(std::move(config), &store, session);
    rt.add_node(kServerId, server.get(), server_host);
    for (std::size_t i = 0; i < n_clients; ++i) {
      client_hosts.push_back(rt.network().add_host(HostProfile{}));
      clients.push_back(
          std::make_unique<CoronaClient>(kServerId, callbacks));
      rt.add_node(client_id(i), clients[i].get(), client_hosts[i]);
    }
    rt.start();
    settle();
  }

  CoronaClient& client(std::size_t i) { return *clients[i]; }
  // Periodic timers (async flush) keep the event queue non-empty forever,
  // so "idle" is reached by running a generous slice of virtual time.
  void settle() { rt.run_for(500 * kMillisecond); }

  // Crash the server and bring up a fresh instance over the same store
  // (the disk survives; the unflushed tail does not).
  void crash_and_restart_server(ServerConfig config = ServerConfig{}) {
    rt.crash(kServerId);
    store.crash();
    server = std::make_unique<CoronaServer>(std::move(config), &store);
    rt.restart(kServerId, server.get());
    settle();
  }
};

// Replicated world: coordinator + L leaves + clients spread over the leaves.
struct ReplicatedWorld {
  SimRuntime rt;
  std::vector<std::unique_ptr<ReplicaServer>> servers;  // [0] = coordinator
  std::vector<std::unique_ptr<CoronaClient>> clients;
  std::vector<HostId> server_hosts;
  std::vector<NodeId> server_ids;

  // `session` (nullptr allows all) authorizes the clients' requests at
  // every server.
  ReplicatedWorld(std::size_t n_servers, std::size_t n_clients,
                  ReplicaConfig cfg = ReplicaConfig{},
                  CoronaClient::Callbacks callbacks = {},
                  SessionManager* session = nullptr) {
    for (std::size_t i = 0; i < n_servers; ++i) {
      server_ids.push_back(server_id(i));
    }
    for (std::size_t i = 0; i < n_servers; ++i) {
      server_hosts.push_back(rt.network().add_host(HostProfile{}));
      servers.push_back(std::make_unique<ReplicaServer>(cfg, server_ids,
                                                        nullptr, session));
      rt.add_node(server_ids[i], servers[i].get(), server_hosts[i]);
    }
    for (std::size_t i = 0; i < n_clients; ++i) {
      // Clients round-robin over the leaves (servers 1..n-1); with a single
      // server they attach to the coordinator.
      const std::size_t leaf =
          n_servers > 1 ? 1 + (i % (n_servers - 1)) : 0;
      const HostId host = rt.network().add_host(HostProfile{});
      clients.push_back(
          std::make_unique<CoronaClient>(server_ids[leaf], callbacks));
      rt.add_node(client_id(i), clients[i].get(), host);
    }
    rt.start();
    settle();
  }

  ReplicaServer& coordinator() { return *servers[0]; }
  ReplicaServer& leaf(std::size_t i) { return *servers[i]; }
  CoronaClient& client(std::size_t i) { return *clients[i]; }
  // Heartbeat timers keep the event queue non-empty forever; settle by
  // running a generous slice of virtual time instead of draining.
  void settle() { rt.run_for(500 * kMillisecond); }
  void run_ms(std::int64_t ms) { rt.run_for(ms * kMillisecond); }
};

// Records deliveries for assertions.
struct DeliveryLog {
  struct Entry {
    NodeId client;
    GroupId group;
    UpdateRecord rec;
  };
  std::vector<Entry> entries;

  CoronaClient::Callbacks callbacks_for(NodeId client) {
    CoronaClient::Callbacks cb;
    cb.on_deliver = [this, client](GroupId g, const UpdateRecord& rec) {
      entries.push_back(Entry{client, g, rec});
    };
    return cb;
  }

  std::vector<SeqNo> seqs_for(NodeId client) const {
    std::vector<SeqNo> out;
    for (const auto& e : entries) {
      if (e.client == client) out.push_back(e.rec.seq);
    }
    return out;
  }
};

}  // namespace corona::testing
