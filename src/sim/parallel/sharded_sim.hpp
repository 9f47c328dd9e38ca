// Sharded conservative discrete-event engine with bit-identical results.
//
// ShardedNetSim partitions the nodes of one simulation run into K shards
// ("lanes"), each with its own BucketedEventQueue + event arena, and
// advances all lanes concurrently through *safe windows* [W0, W0 + L): L is
// a lower bound on the latency of any send (sim/parallel/lookahead.hpp), so
// an event executing inside a window can only schedule deliveries at or
// beyond the window's end — lanes cannot affect each other (or themselves,
// through the network) before the next barrier. Within a window a lane only
// executes local cascades: service re-arms and driver-local at()/in() whose
// targets land inside the window.
//
// Bit-identity. The serial core's determinism contract is the global
// (time, seq) execution order, where seq is allocated per *schedule call*
// in call order. The sharded engine reproduces that exact allocation:
//
//  * Every schedule call made inside a window (send, send_with_latency,
//    at/in, service re-arm) is appended to its lane's log with the key
//    (sched_time, parent, call_index): the lane-local instant it was made,
//    the seq of the event making it, and its index among that event's
//    calls. Within one lane the log is sorted by that key, and across lanes
//    the keys are totally ordered (distinct events have distinct seqs), so
//    a K-way merge at the window barrier reconstructs the exact order in
//    which the serial run would have made these calls.
//  * The merge assigns each entry the next global sequence number — the
//    very value the serial core's schedule counter would have produced —
//    and only then times sends through the NetworkModel (sim/network.hpp)
//    the serial Network calls: latency sampling, fault draws, FIFO
//    clamping and stats all run serially at the barrier in merged order, so
//    stateful samplers, the fault filter's single RNG stream and the
//    per-edge FIFO horizons evolve exactly as in the serial run. The
//    model's service step runs lane-side, on the lane owning the receiving
//    node (its horizon is element-owned by that lane).
//  * Calls whose target lies inside the current window (possible only for
//    local events — sends are bounded below by L) are enqueued immediately
//    under a provisional key above every real seq (kProvBase + i, FIFO
//    within the window) and executed in-window; the barrier later assigns
//    their real seq so their children's parent keys resolve. Per-bucket
//    push order in the lane queues stays ascending (final seqs first, then
//    provisional keys), which is all BucketedEventQueue requires.
//
// The result: for any K — including K = 1, which runs the identical
// window/log/merge machinery inline with no threads — every event executes
// at the same (time, seq) as in the serial core, every RNG stream is
// consumed in the same order, and every observable (makespan, message
// counts, latency sums, completion records) is bit-identical.
// tests/parallel_test.cpp pins this against all 30 golden hashes at
// K ∈ {2, 4} plus randomized topology × latency × fault property runs.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "proto/queuing.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "sim/network.hpp"
#include "sim/parallel/partition.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"
#include "support/types.hpp"

namespace arrowdq {

/// The shard partition and the safe-window width (lookahead.hpp).
struct ShardSetup {
  ShardPartition partition;
  Time lookahead = 1;
};

template <typename M, typename Latency, typename Handler, typename Faults,
          typename Index = Graph>
class ShardedNetSim {
 public:
  static_assert(std::is_trivially_copyable_v<M>,
                "network message types must be trivially copyable");

  using Sim = BasicSimulator<BucketedEventQueue>;  // 48-byte inline slots
  static constexpr bool kSharded = true;
  using Setup = ShardSetup;

  /// Provisional in-window keys live above every real sequence number the
  /// merge can allocate (asserted), so a time bucket receiving final seqs
  /// (from barriers) and then provisional keys (in-window) still sees
  /// ascending pushes.
  static constexpr std::uint64_t kProvBase = std::uint64_t{1} << 35;
  static_assert(kProvBase < EventEntry::kMaxSeq);

  class LaneCtx;

  ShardedNetSim(const Index& index, Latency latency, Faults faults, Setup setup)
      : model_(index, std::move(latency), std::move(faults)),
        partition_(std::move(setup.partition)),
        lookahead_(std::max<Time>(1, setup.lookahead)),
        lanes_(static_cast<std::size_t>(partition_.shard_count())) {
    ARROWDQ_ASSERT_MSG(partition_.node_count() == index.node_count(),
                       "partition does not cover the node set");
    stats_par_.lookahead = lookahead_;
  }

  ShardedNetSim(const ShardedNetSim&) = delete;
  ShardedNetSim& operator=(const ShardedNetSim&) = delete;

  void set_handler(Handler h) { handler_ = std::move(h); }

  void set_service_time(Time ticks) { model_.set_service_time(ticks); }

  /// Capacity hint, split across lanes. Messages travel inline in their
  /// delivery events, so the message hint is the serial pool's alone.
  void reserve(std::size_t n_events, std::size_t /*n_msgs*/) {
    const std::size_t per = n_events / lanes_.size() + 16;
    for (Lane& l : lanes_) {
      l.sim.reserve(per);
      l.log.reserve(per);
      l.sends.reserve(per);
    }
  }

  int lane_of(NodeId v) const { return partition_.shard_of(v); }
  int lane_count() const { return static_cast<int>(lanes_.size()); }
  const ShardPartition& partition() const { return partition_; }
  Time makespan() const { return makespan_; }
  const NetworkStats& stats() const { return model_.stats(); }
  const ParallelStats& parallel_stats() const { return stats_par_; }
  /// Where LaneCtx::record's per-lane buffers land after the run.
  void record_into(QueuingOutcome& out) { out_ = &out; }
  Faults& faults() { return model_.faults(); }
  const Faults& faults() const { return model_.faults(); }

  /// Pre-run scheduling (the driver's initial events). Must be called in
  /// the exact order the serial driver would call sim.at(): each post
  /// consumes the next global sequence number, mirroring the serial
  /// schedule counter.
  template <typename F>
  void post_initial(NodeId owner, Time t, F&& fn) {
    ARROWDQ_ASSERT(!running_);
    const std::uint64_t seq = vseq_++;
    ARROWDQ_ASSERT_MSG(seq < kProvBase, "sequence space exhausted");
    note_makespan(t);
    lanes_[static_cast<std::size_t>(lane_of(owner))].sim.at_seq(t, seq,
                                                               std::forward<F>(fn));
  }

  /// Run to global quiescence: alternate safe windows (all lanes advance to
  /// W0 + L - 1 concurrently) with serial barrier merges until every lane
  /// queue is empty and no logged call remains.
  void run() {
    running_ = true;
    if (lane_count() == 1) {
      window_loop([this](Time t_end) { run_lane_window(0, t_end); });
    } else {
      WorkerPool pool(*this);
      window_loop([&pool](Time t_end) { pool.run_window(t_end); });
    }
    running_ = false;
    for (Lane& l : lanes_) {
      stats_par_.events_executed += l.sim.events_executed();
      for (const Completion& c : l.done) out_->record(c);
      l.done.clear();
    }
  }

  /// The driver context (sim/engine.hpp) scoped to one shard: the same
  /// calls SerialNetSim::LaneCtx makes on the serial core, logged here and
  /// finalized at the barrier in serial order.
  class LaneCtx {
   public:
    LaneCtx(ShardedNetSim* eng, int lane) : eng_(eng), lane_(lane) {}

    Time now() const { return eng_->lanes_[static_cast<std::size_t>(lane_)].sim.now(); }
    int lane() const { return lane_; }

    /// Network::send — logged here, timed by the NetworkModel at the
    /// barrier in serial order.
    void send(NodeId from, NodeId to, M msg) {
      eng_->log_call(lane_, LogKind::kEdgeSend, /*t_or_lat=*/0, SendRec{msg, from, to});
    }

    /// Network::send_with_latency. The latency must clear the direct-send
    /// floor folded into the lookahead (push_deliver asserts it).
    void send_with_latency(NodeId from, NodeId to, Time latency, M msg) {
      eng_->log_call(lane_, LogKind::kDirectSend, latency, SendRec{msg, from, to});
    }

    /// Simulator::at for driver-local events (issue loops).
    template <typename F>
    void at(Time t, F&& fn) {
      eng_->lane_at(lane_, t, std::forward<F>(fn));
    }
    template <typename F>
    void in(Time delay, F&& fn) {
      ARROWDQ_ASSERT(delay >= 0);
      at(now() + delay, std::forward<F>(fn));
    }

    /// A one-shot completion, buffered per lane and recorded after the run.
    void record(const Completion& c) {
      eng_->lanes_[static_cast<std::size_t>(lane_)].done.push_back(c);
    }

   private:
    ShardedNetSim* eng_;
    int lane_;
  };

  /// Driver-facing context for the lane owning node v (valid during events
  /// executing on that lane).
  LaneCtx ctx_of(NodeId v) { return LaneCtx(this, lane_of(v)); }

 private:
  enum class LogKind : std::uint8_t {
    kProv,        // in-window local event, already enqueued provisionally
    kLocalFut,    // future local event (callable in futs_)
    kRearmFut,    // future service re-arm (SendRec, deliver at t_or_lat)
    kEdgeSend,    // Network::send (SendRec)
    kDirectSend,  // Network::send_with_latency (SendRec, latency t_or_lat)
  };

  struct SendRec {
    M msg;
    NodeId from;
    NodeId to;
  };

  /// One schedule call made inside a window. (sched, parent, ci) is the
  /// merge key; payload indexes the per-kind side array.
  struct LogEntry {
    Time sched;            // lane-local time of the call
    std::uint64_t parent;  // seq (final or provisional) of the calling event
    Time t_or_lat;         // target time (kProv/kLocalFut/kRearmFut), latency (kDirectSend)
    std::uint32_t ci;      // call index within the calling event
    std::uint32_t payload;
    LogKind kind;
  };

  /// Deferred generic callable for a future local at(): enough for every
  /// driver issue-event (pointer + node id sized).
  struct FutRec {
    alignas(std::max_align_t) unsigned char buf[32];
    void (*enqueue)(ShardedNetSim*, int lane, Time t, std::uint64_t seq,
                    const unsigned char* buf);
  };

  /// The one event type the engine itself enqueues: the sharded counterpart
  /// of Network's DeliveryEvent, carrying the message inline (lanes have no
  /// shared message pool).
  struct DeliverEvent {
    ShardedNetSim* eng;
    NodeId from;
    NodeId to;
    M msg;
    bool in_service;
    void operator()() const { eng->on_deliver(from, to, msg, in_service); }
  };

  struct alignas(64) Lane {
    Sim sim;
    std::vector<LogEntry> log;
    std::vector<SendRec> sends;
    std::vector<FutRec> futs;
    std::vector<Completion> done;  // LaneCtx::record buffer
    /// Final seq assigned to each provisional event of the current window.
    std::vector<std::uint64_t> resolve;
    std::uint32_t prov_count = 0;
    /// Call-index tracking: ci restarts at 0 for each executing event.
    std::uint64_t last_parent = ~std::uint64_t{0};
    std::uint32_t next_ci = 0;
    Time local_makespan = 0;
  };

  // --- window loop ---------------------------------------------------------

  template <typename RunLanes>
  void window_loop(RunLanes&& run_lanes) {
    for (;;) {
      Time w0 = kTimeNever;
      for (const Lane& l : lanes_)
        if (!l.sim.idle()) w0 = std::min(w0, l.sim.next_event_time());
      if (w0 == kTimeNever) break;
      win_end_ = w0 + lookahead_;
      for (Lane& l : lanes_) {
        l.last_parent = ~std::uint64_t{0};
        l.next_ci = 0;
      }
      run_lanes(win_end_ - 1);
      ++stats_par_.windows;
      barrier_merge();
    }
    Time m = makespan_;
    for (const Lane& l : lanes_) m = std::max(m, l.local_makespan);
    makespan_ = m;
  }

  void run_lane_window(int lane, Time t_end) {
    lanes_[static_cast<std::size_t>(lane)].sim.run_until(t_end);
  }

  /// Persistent worker threads, one per lane, released per window through a
  /// generation-counted barrier. The mutex hand-offs give the necessary
  /// happens-before edges: lane state written by a worker is visible to the
  /// merging main thread and vice versa.
  struct WorkerPool {
    explicit WorkerPool(ShardedNetSim& eng) : eng_(eng) {
      const int k = eng.lane_count();
      threads_.reserve(static_cast<std::size_t>(k));
      for (int i = 0; i < k; ++i)
        threads_.emplace_back([this, i] { worker(i); });
    }
    ~WorkerPool() {
      {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
      }
      cv_start_.notify_all();
      for (std::thread& t : threads_) t.join();
    }

    void run_window(Time t_end) {
      {
        std::lock_guard<std::mutex> lk(m_);
        target_ = t_end;
        pending_ = static_cast<int>(threads_.size());
        ++gen_;
      }
      cv_start_.notify_all();
      std::unique_lock<std::mutex> lk(m_);
      cv_done_.wait(lk, [this] { return pending_ == 0; });
    }

   private:
    void worker(int lane) {
      std::uint64_t seen = 0;
      for (;;) {
        Time t_end;
        {
          std::unique_lock<std::mutex> lk(m_);
          cv_start_.wait(lk, [&] { return stop_ || gen_ != seen; });
          if (stop_) return;
          seen = gen_;
          t_end = target_;
        }
        eng_.run_lane_window(lane, t_end);
        {
          std::lock_guard<std::mutex> lk(m_);
          if (--pending_ == 0) cv_done_.notify_one();
        }
      }
    }

    ShardedNetSim& eng_;
    std::vector<std::thread> threads_;
    std::mutex m_;
    std::condition_variable cv_start_, cv_done_;
    std::uint64_t gen_ = 0;
    int pending_ = 0;
    Time target_ = 0;
    bool stop_ = false;
  };

  // --- in-window logging (lane threads) ------------------------------------

  std::uint32_t call_index(Lane& l) {
    const std::uint64_t parent = l.sim.current_seq();
    if (parent != l.last_parent) {
      l.last_parent = parent;
      l.next_ci = 0;
    }
    return l.next_ci++;
  }

  void log_call(int lane, LogKind kind, Time t_or_lat, SendRec rec) {
    Lane& l = lanes_[static_cast<std::size_t>(lane)];
    const std::uint32_t ci = call_index(l);
    l.sends.push_back(rec);
    l.log.push_back(LogEntry{l.sim.now(), l.sim.current_seq(), t_or_lat, ci,
                             static_cast<std::uint32_t>(l.sends.size() - 1), kind});
  }

  template <typename F>
  void lane_at(int lane, Time t, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_trivially_copyable_v<Fn> && sizeof(Fn) <= sizeof(FutRec::buf),
                  "sharded local events must be small trivially copyable callables");
    Lane& l = lanes_[static_cast<std::size_t>(lane)];
    const std::uint32_t ci = call_index(l);
    const Time now = l.sim.now();
    const std::uint64_t parent = l.sim.current_seq();
    if (t < win_end_) {
      // In-window target: enqueue now under a provisional key (executes
      // this window); the barrier assigns its real seq for child resolution.
      const std::uint32_t idx = l.prov_count++;
      l.resolve.push_back(0);
      l.local_makespan = std::max(l.local_makespan, t);
      l.sim.at_seq(t, kProvBase + idx, std::forward<F>(fn));
      l.log.push_back(LogEntry{now, parent, t, ci, idx, LogKind::kProv});
    } else {
      FutRec f;
      std::memcpy(f.buf, &fn, sizeof(Fn));
      f.enqueue = [](ShardedNetSim* eng, int ln, Time at, std::uint64_t seq,
                     const unsigned char* buf) {
        Fn local;
        std::memcpy(&local, buf, sizeof(Fn));
        eng->lanes_[static_cast<std::size_t>(ln)].sim.at_seq(at, seq, local);
      };
      l.futs.push_back(f);
      l.log.push_back(LogEntry{now, parent, t, ci,
                               static_cast<std::uint32_t>(l.futs.size() - 1),
                               LogKind::kLocalFut});
    }
  }

  /// Lane-side delivery: the serial Network::deliver two-phase flow. Only
  /// the lane owning `to` runs the model's service step for `to`.
  void on_deliver(NodeId from, NodeId to, const M& msg, bool in_service) {
    const int lane = lane_of(to);
    Lane& l = lanes_[static_cast<std::size_t>(lane)];
    if (model_.serial_service() && !in_service) {
      const Time done = model_.serve(to, l.sim.now());
      // The serial core consumes one seq for the re-arm here.
      const std::uint32_t ci = call_index(l);
      if (done < win_end_) {
        const std::uint32_t idx = l.prov_count++;
        l.resolve.push_back(0);
        l.local_makespan = std::max(l.local_makespan, done);
        l.sim.at_seq(done, kProvBase + idx, DeliverEvent{this, from, to, msg, true});
        l.log.push_back(
            LogEntry{l.sim.now(), l.sim.current_seq(), done, ci, idx, LogKind::kProv});
      } else {
        l.sends.push_back(SendRec{msg, from, to});
        l.log.push_back(LogEntry{l.sim.now(), l.sim.current_seq(), done, ci,
                                 static_cast<std::uint32_t>(l.sends.size() - 1),
                                 LogKind::kRearmFut});
      }
      return;
    }
    LaneCtx ctx(this, lane);
    handler_(ctx, from, to, msg);
  }

  // --- barrier merge (main thread) -----------------------------------------

  /// Resolve a parent key to its final seq. Provisional parents are always
  /// same-lane and their creating entry merges strictly earlier, so the
  /// resolve slot is filled by the time any child is compared.
  std::uint64_t resolved(const Lane& l, std::uint64_t parent) const {
    return parent < kProvBase ? parent
                              : l.resolve[static_cast<std::size_t>(parent - kProvBase)];
  }

  /// True when entry a (lane la) precedes entry b (lane lb) in the serial
  /// schedule-call order.
  bool entry_before(const Lane& la, const LogEntry& a, const Lane& lb,
                    const LogEntry& b) const {
    if (a.sched != b.sched) return a.sched < b.sched;
    const std::uint64_t pa = resolved(la, a.parent);
    const std::uint64_t pb = resolved(lb, b.parent);
    if (pa != pb) return pa < pb;
    return a.ci < b.ci;
  }

  void barrier_merge() {
    const int k = lane_count();
    // Each lane's log is already sorted by the merge key (appended in lane
    // execution order, which the header argues equals serial order
    // restricted to the lane), so a K-way head scan merges in serial order.
    // The scan carries a pointer to the best head entry instead of
    // re-reading it through `best` at each comparison: GCC 12 -O3 turned the
    // re-read form into a conditional move feeding the next load, which
    // made the barrier ~50% slower on fig10_sharded.
    head_.assign(static_cast<std::size_t>(k), 0);
    for (;;) {
      int best = -1;
      const LogEntry* best_e = nullptr;
      for (int i = 0; i < k; ++i) {
        const Lane& l = lanes_[static_cast<std::size_t>(i)];
        const std::size_t h = head_[static_cast<std::size_t>(i)];
        if (h >= l.log.size()) continue;
        const LogEntry& c = l.log[h];
        if (best_e == nullptr ||
            entry_before(l, c, lanes_[static_cast<std::size_t>(best)], *best_e)) {
          best = i;
          best_e = &c;
        }
      }
      if (best < 0) break;
      Lane& l = lanes_[static_cast<std::size_t>(best)];
      ++head_[static_cast<std::size_t>(best)];
      const LogEntry& e = *best_e;
      const std::uint64_t seq = vseq_++;
      ARROWDQ_ASSERT_MSG(seq < kProvBase, "sequence space exhausted");
      ++stats_par_.merged_entries;
      switch (e.kind) {
        case LogKind::kProv:
          l.resolve[e.payload] = seq;  // already enqueued and executed
          break;
        case LogKind::kLocalFut: {
          const FutRec& f = l.futs[e.payload];
          note_makespan(e.t_or_lat);
          f.enqueue(this, best, e.t_or_lat, seq, f.buf);
          break;
        }
        case LogKind::kRearmFut: {
          const SendRec& s = l.sends[e.payload];
          note_makespan(e.t_or_lat);
          lanes_[static_cast<std::size_t>(lane_of(s.to))].sim.at_seq(
              e.t_or_lat, seq, DeliverEvent{this, s.from, s.to, s.msg, true});
          break;
        }
        case LogKind::kEdgeSend: {
          // The model runs here in merged (serial) order, so the sampler
          // and fault RNG streams and the FIFO horizons see the draws in
          // exactly the serial sequence.
          const SendRec& s = l.sends[e.payload];
          push_deliver(model_.edge_delivery(s.from, s.to, e.sched), seq, s);
          break;
        }
        case LogKind::kDirectSend: {
          const SendRec& s = l.sends[e.payload];
          push_deliver(model_.direct_delivery(s.from, s.to, e.sched, e.t_or_lat), seq, s);
          break;
        }
      }
    }
    for (Lane& l : lanes_) {
      l.log.clear();
      l.sends.clear();
      l.futs.clear();
      l.resolve.clear();
      l.prov_count = 0;
    }
  }

  void push_deliver(Time deliver, std::uint64_t seq, const SendRec& s) {
    // The lookahead contract: no finalized delivery may land inside the
    // window that produced it. A failure here means a latency floor was
    // optimistic — loud, never a silent divergence.
    ARROWDQ_ASSERT_MSG(deliver >= win_end_, "delivery inside its own safe window");
    note_makespan(deliver);
    lanes_[static_cast<std::size_t>(lane_of(s.to))].sim.at_seq(
        deliver, seq, DeliverEvent{this, s.from, s.to, s.msg, false});
  }

  /// Makespan = max target time ever scheduled (every event executes, and
  /// the serial sim.now() after run() is exactly the last — maximal —
  /// executed event time). Lane-side targets fold in via local_makespan.
  void note_makespan(Time t) { makespan_ = std::max(makespan_, t); }

  NetworkModel<Latency, Faults, Index> model_;
  Handler handler_{};
  QueuingOutcome* out_ = nullptr;
  ShardPartition partition_;
  Time lookahead_;
  Time win_end_ = 0;
  Time makespan_ = 0;
  bool running_ = false;
  std::uint64_t vseq_ = 0;
  std::vector<Lane> lanes_;
  std::vector<std::size_t> head_;  // merge scratch
  ParallelStats stats_par_;
};

/// Engine selector (see SerialEngine in sim/engine.hpp). The lanes keep
/// their own 48-byte-slot simulators, so the driver's Sim choice is unused.
struct ShardedEngine {
  template <typename M, typename L, typename H, typename F, typename I, typename S>
  using Net = ShardedNetSim<M, L, H, F, I>;
};

}  // namespace arrowdq
