// Claim C3 (§1) — floor control with multiple users.
//
// M students contend for the floor over the network while watching. We
// verify the Petri-net invariant (never two holders), measure FIFO fairness
// (grants follow arrival order, read off the floor_request/floor_grant trace
// events), and report the exact grant-wait latency from the
// lod.floor.grant_wait_us histogram as contention grows.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "lod/lod/classroom.hpp"
#include "lod/net/network.hpp"
#include "lod/obs/metrics.hpp"
#include "lod/obs/flight.hpp"

#include "bench_json.hpp"

using namespace lod;
namespace app = ::lod::lod;

struct Result {
  std::uint32_t users;
  bool exclusion_ok;
  bool fifo_ok;
  double mean_grant_wait_s;
  std::size_t grants;
};

static Result run(std::uint32_t users, std::uint64_t seed) {
  net::Simulator sim;
  net::Network network(sim, seed);
  const net::HostId teacher = network.add_host("teacher");
  std::vector<std::string> names;
  std::vector<net::HostId> hosts;
  net::LinkConfig lan;
  lan.latency = net::msec(2);
  for (std::uint32_t i = 0; i < users; ++i) {
    names.push_back("u" + std::to_string(i));
    hosts.push_back(network.add_host(names.back()));
    network.add_link(teacher, hosts.back(), lan);
  }
  app::FloorService service(network, teacher, 9000, names);
  // The floor service publishes into the simulator's hub; turn on tracing so
  // the request/grant order is recoverable after the fact.
  sim.obs().flight().set_tracing(true);

  std::vector<std::unique_ptr<app::FloorClient>> clients;
  for (std::uint32_t i = 0; i < users; ++i) {
    clients.push_back(std::make_unique<app::FloorClient>(
        network, hosts[i], 6000, names[i], teacher, 9000, nullptr));
    clients.back()->join();
  }
  sim.run();

  // Contention storm: every user requests at a random instant in [0, 2 s],
  // speaks, holds the floor ~1 s, releases. Verify exclusion throughout.
  net::Rng rng(seed * 17 + 3);
  struct Ask {
    std::uint32_t user;
    net::SimTime asked;
  };
  std::vector<Ask> asks;
  bool exclusion_ok = true;
  for (std::uint32_t i = 0; i < users; ++i) {
    const net::SimTime at{rng.uniform_int(0, net::sec(2).us)};
    sim.schedule_at(at, [&, i] {
      asks.push_back({i, sim.now()});
      clients[i]->request_floor();
    });
  }
  // A watchdog samples the invariant while the storm runs.
  std::function<void()> watchdog = [&] {
    const auto& fc = service.control();
    std::int64_t holders = 0;
    const auto w = fc.exclusion_invariant();
    for (std::size_t p = 0; p < fc.marking().size(); ++p) {
      holders += w[p] * fc.marking()[p];
    }
    exclusion_ok = exclusion_ok && holders == 1;
    if (sim.now().us < net::sec(60).us) {
      sim.schedule_after(net::msec(100), watchdog);
    }
  };
  sim.schedule_after(net::msec(50), watchdog);
  // Holders release after ~1 s: poll and release.
  std::function<void()> releaser = [&] {
    if (auto h = service.control().holder()) {
      for (std::uint32_t i = 0; i < users; ++i) {
        if (names[i] == *h) clients[i]->release_floor();
      }
    }
    if (sim.now().us < net::sec(60).us) {
      sim.schedule_after(net::sec(1), releaser);
    }
  };
  sim.schedule_after(net::sec(1), releaser);
  sim.run();

  // Fairness: grants must follow request-arrival order at the service. Both
  // orders come out of the trace (the detail field carries the user name),
  // and none may have aged out of it: the journal must hold every request
  // and grant the floor counted.
  const auto& journal = sim.obs().flight();
  std::vector<std::string> req_order, grant_order;
  for (const auto& e : journal.events(obs::FlightType::kFloorRequest)) {
    req_order.push_back(e.detail);
  }
  for (const auto& e : journal.events(obs::FlightType::kFloorGrant)) {
    grant_order.push_back(e.detail);
  }
  const obs::Snapshot snap = sim.obs().metrics().snapshot();
  const std::size_t grants =
      static_cast<std::size_t>(snap.counter("lod.floor.grants"));
  const bool fifo_ok =
      req_order.size() == snap.counter("lod.floor.requests") &&
      grant_order.size() == grants && grant_order.size() == req_order.size() &&
      std::equal(grant_order.begin(), grant_order.end(), req_order.begin());

  // Grant latency: request arrival to grant, exact, from the wait histogram
  // the floor control observes into at every grant.
  const auto* wait = snap.histogram("lod.floor.grant_wait_us");
  const double mean_wait = wait ? wait->mean() / 1e6 : 0.0;

  return Result{users, exclusion_ok, fifo_ok, mean_wait, grants};
}

int main() {
  std::printf("=== C3: floor control with multiple users ===\n\n");
  std::printf("%-8s %10s %10s %14s %8s\n", "users", "exclusive", "FIFO",
              "mean wait", "grants");
  bool ok = true;
  for (const std::uint32_t m : {2u, 4u, 8u, 16u, 32u}) {
    const Result r = run(m, 100 + m);
    std::printf("%-8u %10s %10s %13.2fs %8zu\n", r.users,
                r.exclusion_ok ? "yes" : "NO", r.fifo_ok ? "yes" : "NO",
                r.mean_grant_wait_s, r.grants);
    ok = ok && r.exclusion_ok && r.fifo_ok && r.grants == m;
  }
  std::printf("\nmutual exclusion + FIFO fairness at every size: %s\n",
              ok ? "holds" : "VIOLATED");
    ::lod::bench::emit_json("bench_c3_floor_control", "shape_holds",
                        ok ? 1.0 : 0.0);
  return ok ? 0 : 1;
}
