// The driver context: the one interface a protocol driver schedules through.
//
// A driver never touches a Simulator or a Network. It asks its engine for a
// context (`ctx_of(node)`) and calls now / at / in / send /
// send_with_latency / lane / record on it; the engine delivers messages to
// the driver's `receive(ctx, from, to, msg)`. Two engines supply the
// context, so each protocol driver is written once and runs on both:
//
//  * SerialNetSim (below): a thin adapter over one Simulator + one Network.
//  * ShardedNetSim (sim/parallel/sharded_sim.hpp): K lanes advancing in safe
//    windows, bit-identical to the serial core for any K.
//
// Three rules make one driver serve both engines:
//
//  * Request ids come from a lane stride, 1 + lane + K*i (LaneAccum::next_id).
//    At K = 1 this is exactly a serial ++next_id sequence. Closed-loop ids
//    never reach an observable: they feed != kNoRequest asserts and ride in
//    messages whose handlers ignore the value.
//  * Latency sums and message counters are exact per-lane integers
//    (LaneAccum), summed after the run. Integer addition is order-free, so
//    the derived doubles match the serial run bit for bit. The serial
//    engine has one lane.
//  * One-shot completions go through the engine (Ctx::record). The serial
//    engine records them at once; the sharded engine buffers them per lane
//    and records them after the run. The outcome is keyed by request id and
//    each record is unique (QueuingOutcome::record asserts so), so any flush
//    order rebuilds the identical outcome.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "proto/queuing.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"
#include "support/types.hpp"

namespace arrowdq {

/// Index stand-in for drivers that never send over graph edges (the
/// centralized and pointer-forwarding baselines only use explicit-latency
/// direct sends against a distance oracle).
struct DirectOnlyIndex {
  NodeId n = 0;
  NodeId node_count() const { return n; }
  std::size_t dir_edge_count() const { return 0; }
  DirEdgeRef find_edge(NodeId, NodeId) const {
    ARROWDQ_ASSERT_MSG(false, "direct-only driver sent over a graph edge");
    return DirEdgeRef{};
  }
};

/// The handler both engines invoke: hands (ctx, from, to, msg) to the
/// driver's receive(). Only a pointer, so a driver can name its engine type
/// before the driver class is complete.
template <typename D>
struct CtxHandler {
  D* d = nullptr;
  template <typename Ctx, typename M>
  void operator()(Ctx& ctx, NodeId from, NodeId to, const M& m) const {
    d->receive(ctx, from, to, m);
  }
};

/// Per-lane accumulators, cache-line separated: exact latency sums, message
/// counters, and the lane's request-id stride counter.
struct alignas(64) LaneAccum {
  __int128 lat_sum = 0;
  std::int64_t lat_count = 0;
  std::int64_t next_ctr = 0;
  std::uint64_t find_messages = 0;
  std::uint64_t reply_messages = 0;

  /// Lane-strided request id (see the header comment); always >= 1.
  RequestId next_id(int lane, int lane_count) {
    return static_cast<RequestId>(1 + lane + static_cast<std::int64_t>(lane_count) * next_ctr++);
  }
};

/// Mean round latency in units from the lanes' exact sums (0 with no rounds).
inline double mean_round_latency_units(const std::vector<LaneAccum>& lanes) {
  __int128 sum = 0;
  std::int64_t count = 0;
  for (const LaneAccum& a : lanes) {
    sum += a.lat_sum;
    count += a.lat_count;
  }
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count) /
                          static_cast<double>(kTicksPerUnit);
}

/// The serial engine: one Simulator (borrowed, so a caller can read the
/// clock after the run) and one Network behind the driver context.
template <typename M, typename Latency, typename Handler, typename Faults = NoFaults,
          typename Index = Graph, typename SimT = Simulator>
class SerialNetSim {
 public:
  using Sim = SimT;
  static constexpr bool kSharded = false;

  struct Setup {
    Sim* sim = nullptr;
  };

  class LaneCtx {
   public:
    explicit LaneCtx(SerialNetSim* eng) : eng_(eng) {}
    Time now() const { return eng_->sim_.now(); }
    static constexpr int lane() { return 0; }
    void send(NodeId from, NodeId to, M msg) { eng_->net_.send(from, to, msg); }
    void send_with_latency(NodeId from, NodeId to, Time latency, M msg) {
      eng_->net_.send_with_latency(from, to, latency, msg);
    }
    template <typename F>
    void at(Time t, F&& fn) {
      eng_->sim_.at(t, std::forward<F>(fn));
    }
    template <typename F>
    void in(Time delay, F&& fn) {
      eng_->sim_.in(delay, std::forward<F>(fn));
    }
    void record(const Completion& c) { eng_->out_->record(c); }

   private:
    SerialNetSim* eng_;
  };

  SerialNetSim(const Index& index, Latency latency, Faults faults, Setup setup)
      : sim_(*setup.sim), net_(index, *setup.sim, std::move(latency), std::move(faults)) {}

  SerialNetSim(const SerialNetSim&) = delete;
  SerialNetSim& operator=(const SerialNetSim&) = delete;

  void set_handler(Handler h) { net_.set_handler(Bound{this, std::move(h)}); }
  void set_service_time(Time ticks) { net_.set_service_time(ticks); }
  void reserve(std::size_t n_events, std::size_t n_msgs) {
    sim_.reserve(n_events);
    net_.reserve_messages(n_msgs);
  }
  void record_into(QueuingOutcome& out) { out_ = &out; }

  LaneCtx ctx_of(NodeId) { return LaneCtx(this); }
  int lane_count() const { return 1; }
  /// The driver's initial events, in the order the serial run schedules them.
  template <typename F>
  void post_initial(NodeId, Time t, F&& fn) {
    sim_.at(t, std::forward<F>(fn));
  }
  void run() { sim_.run(); }
  Time makespan() const { return sim_.now(); }
  const NetworkStats& stats() const { return net_.stats(); }
  Faults& faults() { return net_.faults(); }

 private:
  /// The network's handler: the driver's context handler bound to this
  /// engine. A typed callable, so a delivery inlines into the driver.
  struct Bound {
    SerialNetSim* eng;
    Handler h;
    void operator()(NodeId from, NodeId to, const M& m) const {
      LaneCtx ctx(eng);
      h(ctx, from, to, m);
    }
  };

  Sim& sim_;
  Network<M, Latency, Bound, Faults, Index, Sim> net_;
  QueuingOutcome* out_ = nullptr;
};

/// Engine selectors: a driver templated on one of these names its engine as
/// `Engine::template Net<Msg, Latency, Handler, Faults, Index, Sim>`.
/// ShardedEngine lives in sim/parallel/sharded_sim.hpp.
struct SerialEngine {
  template <typename M, typename L, typename H, typename F, typename I, typename S>
  using Net = SerialNetSim<M, L, H, F, I, S>;
};

}  // namespace arrowdq
