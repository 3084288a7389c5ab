#include "tracing.hpp"

#include <chrono>
#include <utility>

namespace perfbench {

std::string_view layer_name(Layer l) {
  switch (l) {
    case Layer::kNetSend: return "net.send";
    case Layer::kServer: return "streaming.server";
    case Layer::kEdgeNode: return "edge.node";
    case Layer::kGateway: return "edge.gateway";
    case Layer::kSelector: return "edge.selector";
    case Layer::kPlayer: return "streaming.player";
    case Layer::kMigrate: return "sync.migrate";
    case Layer::kDriver: return "lod.driver";
    case Layer::kEncode: return "media.encode";
    case Layer::kPublish: return "streaming.publish";
    case Layer::kUnattributed: return "unattributed";
    case Layer::kCount: break;
  }
  return "?";
}

std::string_view role_name(Role r) {
  switch (r) {
    case Role::kOrigin: return "origin";
    case Role::kEdge: return "edge";
    case Role::kClient: return "client";
    case Role::kCount: break;
  }
  return "?";
}

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Ledger::end() {
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = mono_ns() - f.start_ns;
  LayerTotals& t = totals_[static_cast<std::size_t>(f.layer)];
  t.calls++;
  t.self_ns += dur - f.child_ns;
  if (stack_.empty()) {
    top_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
}

void Ledger::add(const Ledger& o) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    totals_[i].calls += o.totals_[i].calls;
    totals_[i].self_ns += o.totals_[i].self_ns;
  }
  top_ns_ += o.top_ns_;
  timers_fired += o.timers_fired;
  for (std::size_t i = 0; i < kRoleCount; ++i) receives[i] += o.receives[i];
}

lod::net::EventId TracingTransport::schedule_at(lod::net::SimTime t,
                                                TimerFn fn) {
  const Layer layer = ledger_.active();
  return inner_.schedule_at(t, [this, layer, fn = std::move(fn)] {
    ledger_.timers_fired++;
    Span s(&ledger_, layer);
    fn();
  });
}

void TracingTransport::bind(lod::net::HostId h, lod::net::Port port,
                            Receiver r) {
  Layer layer = ledger_.active();
  if (auto it = owners_.find(key(h, port)); it != owners_.end()) {
    layer = it->second;
  }
  Role role = Role::kClient;
  if (auto it = roles_.find(h); it != roles_.end()) role = it->second;
  inner_.bind(h, port,
              [this, layer, role, r = std::move(r)](const lod::net::Datagram& d) {
                ledger_.receives[static_cast<std::size_t>(role)]++;
                Span s(&ledger_, layer);
                r(d);
              });
}

}  // namespace perfbench
