#include "rt/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

#include "rt/node.hpp"
#include "support/assert.hpp"

namespace arrowdq::rt {
namespace {

double now_sec() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Runtime {
 public:
  Runtime(const Tree& tree, const RtConfig& cfg)
      : tree_(tree),
        cfg_(cfg),
        n_(tree.node_count()),
        rounds_(cfg.rounds_per_node),
        own_(preorder_ownership(tree, cfg.threads)),
        busy_workers_(rounds_ > 0 ? own_.workers() : 0) {
    ARROWDQ_ASSERT_MSG(n_ >= 1, "runtime needs at least one node");
    ARROWDQ_ASSERT_MSG(rounds_ >= 0, "rounds_per_node must be >= 0");
    const auto cap = static_cast<std::size_t>(cfg.mailbox_capacity < 2 ? 2 : cfg.mailbox_capacity);
    for (NodeId v = 0; v < n_; ++v) {
      ArrowNode& nd = nodes_.emplace_back(cap);
      nd.link = v == tree.root() ? v : tree.parent(v);
    }
    // The root starts as the sink holding the (released) implicit request r0.
    ArrowNode& root = nodes_[static_cast<std::size_t>(tree.root())];
    root.last_issued = kRtRootReq;
    root.token_parked = true;
    for (int w = 0; w < own_.workers(); ++w) {
      const std::size_t owned = own_.nodes[static_cast<std::size_t>(w)].size();
      workers_.emplace_back(w, owned, static_cast<std::int64_t>(owned) * rounds_, &epoch_);
      if (cfg_.record_history)
        workers_.back().recorder.reserve(4 * owned * static_cast<std::size_t>(rounds_));
    }
  }

  RtResult run() {
    RtResult res;
    res.threads = own_.workers();
    if (rounds_ > 0) {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(own_.workers() - 1));
      const double t0 = now_sec();
      for (int w = 1; w < own_.workers(); ++w)
        threads.emplace_back([this, w] { worker_main(w); });
      worker_main(0);  // the calling thread is worker 0 rather than idle in join
      for (std::thread& t : threads) t.join();
      res.wall_seconds = now_sec() - t0;
    }
    ARROWDQ_ASSERT_MSG(busy_workers_.load(std::memory_order_acquire) == 0,
                       "runtime quiesced with unreleased requests");
    for (Worker& w : workers_) {
      res.queue_messages += w.queue_msgs;
      res.token_messages += w.token_msgs;
      res.remote_messages += w.remote_msgs;
      res.token_travel_units += w.travel;
    }
    res.ops = static_cast<std::int64_t>(n_) * rounds_;
    res.ops_per_sec =
        res.wall_seconds > 0 ? static_cast<double>(res.ops) / res.wall_seconds : 0.0;
    if (cfg_.record_history) {
      std::vector<HistoryRecorder> recs;
      recs.reserve(workers_.size());
      for (Worker& w : workers_) recs.push_back(std::move(w.recorder));
      res.history = merge_histories(recs);
    }
    return res;
  }

 private:
  struct LocalMsg {
    Msg msg;
    NodeId to = kNoNode;
  };

  struct alignas(64) Worker {
    Worker(int index, std::size_t owned, std::int64_t unreleased,
           std::atomic<std::uint64_t>* epoch)
        : index(index), runqueue(owned + 1), recorder(epoch), unreleased(unreleased) {}

    const int index;
    RingMailbox<NodeId> runqueue;  // one slot per owned node (scheduled-flag dedup)
    // The private FIFO for posts between this worker's own nodes: new posts
    // go to `local`, and the worker delivers `batch`, the previous `local`.
    // Swapping the two keeps their capacity, so steady state allocates nothing.
    std::vector<LocalMsg> local, batch;
    HistoryRecorder recorder;
    std::uint64_t queue_msgs = 0;
    std::uint64_t token_msgs = 0;
    std::uint64_t remote_msgs = 0;
    std::int64_t travel = 0;
    std::int64_t unreleased;  // owned requests not yet released
  };

  NodeId node_of(RtReq q) const { return static_cast<NodeId>((q - 1) / rounds_); }

  /// Deliver m to `to` on the channel fixed by the two owners: w's private
  /// FIFO when w owns `to`, else `to`'s mailbox plus a runqueue wakeup.
  void post(NodeId to, const Msg& m, Worker& w) {
    const int owner = own_.owner[static_cast<std::size_t>(to)];
    if (owner == w.index) {
      w.local.push_back(LocalMsg{m, to});
      return;
    }
    ++w.remote_msgs;
    ArrowNode& nd = nodes_[static_cast<std::size_t>(to)];
    nd.mailbox.push(m);
    if (!nd.scheduled.exchange(true, std::memory_order_acq_rel)) {
      const bool ok = workers_[static_cast<std::size_t>(owner)].runqueue.try_push(to);
      ARROWDQ_ASSERT_MSG(ok, "runqueue overflow despite scheduled-flag dedup");
    }
  }

  void send_token(NodeId from, RtReq to_req, std::int64_t payload, Worker& w) {
    ++w.token_msgs;
    post(node_of(to_req), Msg{to_req, payload, from, MsgKind::kToken}, w);
  }

  /// Issue this node's next request (arrow's issue rule).
  void issue(NodeId v, ArrowNode& nd, Worker& w) {
    const RtReq b = static_cast<RtReq>(v) * rounds_ + nd.rounds_done + 1;
    if (cfg_.record_history) w.recorder.record(EventKind::kInvoke, b, v);
    const NodeId old = nd.link;
    const RtReq prev = nd.last_issued;
    nd.last_issued = b;
    nd.succ_of_last = kRtNoReq;
    nd.link = v;
    if (old != v) {
      // prev's successor (if any) was already resolved — a terminating queue
      // message is the only thing that moves link off v — so the token is
      // never parked on this path.
      ++w.queue_msgs;
      post(old, Msg{b, 0, v, MsgKind::kQueue}, w);
      return;
    }
    // link(v) == v: no queue message terminated here since prev was issued,
    // so b queues locally behind prev — and prev's token must be parked
    // (released, successor unknown until right now). Grant it to b.
    ARROWDQ_ASSERT_MSG(prev != kRtNoReq, "sink without an id at issue");
    ARROWDQ_ASSERT_MSG(nd.token_parked, "local enqueue without a parked token");
    if (cfg_.record_history) w.recorder.record(EventKind::kEnqueue, b, v, prev);
    nd.token_parked = false;
    send_token(v, b, nd.token_payload, w);
  }

  void on_queue(NodeId u, ArrowNode& nd, const Msg& m, Worker& w) {
    const NodeId next = nd.link;
    nd.link = m.from;  // path reversal
    if (next != u) {
      ++w.queue_msgs;
      post(next, Msg{m.req, 0, u, MsgKind::kQueue}, w);
      return;
    }
    ARROWDQ_ASSERT_MSG(nd.last_issued != kRtNoReq, "sink without an id");
    ARROWDQ_ASSERT_MSG(nd.succ_of_last == kRtNoReq, "sink already has a successor");
    if (cfg_.record_history) w.recorder.record(EventKind::kEnqueue, m.req, u, nd.last_issued);
    nd.succ_of_last = m.req;
    if (nd.token_parked) {
      nd.token_parked = false;
      send_token(u, m.req, nd.token_payload, w);
    }
  }

  void on_token(NodeId v, ArrowNode& nd, const Msg& m, Worker& w) {
    ARROWDQ_ASSERT_MSG(m.req == nd.last_issued, "token for a request this node did not issue");
    std::int64_t payload = m.payload;
    std::int64_t aux = 0;
    switch (cfg_.app) {
      case RtApp::kMutex:
        break;
      case RtApp::kCounter:
        aux = ++payload;  // fetch-and-increment under the queue lock
        break;
      case RtApp::kDirectory:
        w.travel += tree_.distance(m.from, v);  // the object moved here
        break;
    }
    if (cfg_.record_history) w.recorder.record(EventKind::kAcquire, m.req, v, aux);
    for (int i = 0; i < cfg_.cs_spin; ++i) cs_sink_.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.record_history) w.recorder.record(EventKind::kRelease, m.req, v);
    ++nd.rounds_done;
    if (nd.succ_of_last != kRtNoReq) {
      send_token(v, nd.succ_of_last, payload, w);
    } else {
      nd.token_parked = true;
      nd.token_payload = payload;
    }
    if (nd.rounds_done < rounds_) issue(v, nd, w);
    // Last: once every worker has released all its owned requests, nothing is
    // pending on either channel (a pending message implies an unreleased
    // request), so the workers may exit.
    if (--w.unreleased == 0 && busy_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      done_.store(true, std::memory_order_release);
  }

  void deliver(NodeId v, ArrowNode& nd, const Msg& m, Worker& w) {
    if (m.kind == MsgKind::kQueue)
      on_queue(v, nd, m, w);
    else
      on_token(v, nd, m, w);
  }

  void drain_node(NodeId v, Worker& w) {
    ArrowNode& nd = nodes_[static_cast<std::size_t>(v)];
    // Clear before draining, with a read-modify-write: the senders' flag
    // exchanges and this one are totally ordered, so a sender that found the
    // flag still set pushed its message before this exchange, which then
    // acquires it and the drain below sees it; any later sender sees false
    // and re-enqueues the node. A plain store could sit in the store buffer
    // while the drain reads an empty mailbox and the sender reads the old
    // true: the message would never be delivered and the run would hang.
    nd.scheduled.exchange(false, std::memory_order_acq_rel);
    Msg m;
    while (nd.mailbox.try_pop(m)) deliver(v, nd, m, w);
    // Re-arm if mail raced in against the empty check above.
    if (nd.mailbox.maybe_nonempty() && !nd.scheduled.exchange(true, std::memory_order_acq_rel)) {
      const bool ok = w.runqueue.try_push(v);
      ARROWDQ_ASSERT_MSG(ok, "runqueue overflow on re-arm");
    }
  }

  void worker_main(int wi) {
    Worker& w = workers_[static_cast<std::size_t>(wi)];
    // Issue every owned node's first request before delivering anything, so
    // each issue still sees the initial link (its parent, or itself at the
    // root).
    for (NodeId v : own_.nodes[static_cast<std::size_t>(wi)])
      issue(v, nodes_[static_cast<std::size_t>(v)], w);
    // Deliver only once every worker has issued, so the first batches
    // already see the other workers' first queue messages.
    started_.fetch_add(1, std::memory_order_acq_rel);
    while (started_.load(std::memory_order_acquire) < own_.workers()) std::this_thread::yield();
    NodeId v = kNoNode;
    for (;;) {
      // One batch of the private FIFO, then one runqueue poll. Posts made
      // while a batch is delivered land in the next batch, so a node with
      // cross-worker mail waits at most one batch per runqueue entry ahead
      // of it, however busy this worker's own nodes keep it.
      w.batch.swap(w.local);
      for (const LocalMsg& lm : w.batch)
        deliver(lm.to, nodes_[static_cast<std::size_t>(lm.to)], lm.msg, w);
      const bool had_local = !w.batch.empty();
      w.batch.clear();
      if (w.runqueue.try_pop(v)) {
        drain_node(v, w);
      } else if (!had_local) {
        if (done_.load(std::memory_order_acquire)) break;
        std::this_thread::yield();
      }
    }
  }

  const Tree& tree_;
  const RtConfig cfg_;
  const NodeId n_;
  const std::int64_t rounds_;
  const Ownership own_;
  std::deque<ArrowNode> nodes_;  // deque: ArrowNode holds atomics, never moves
  std::deque<Worker> workers_;
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<int> busy_workers_;  // workers with unreleased owned requests
  std::atomic<int> started_{0};    // workers that have issued their first requests
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> cs_sink_{0};  // cs_spin scratch
};

}  // namespace

Ownership preorder_ownership(const Tree& tree, int threads) {
  const NodeId n = tree.node_count();
  ARROWDQ_ASSERT_MSG(n >= 1, "ownership needs at least one node");
  const int t = static_cast<int>(std::clamp<std::int64_t>(threads, 1, n));
  Ownership own;
  own.owner.assign(static_cast<std::size_t>(n), -1);
  own.nodes.resize(static_cast<std::size_t>(t));
  // Iterative DFS; children are pushed in reverse so they pop in order.
  std::vector<NodeId> stack{tree.root()};
  std::int64_t pos = 0;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    // Position p belongs to chunk floor(p * t / n): chunk sizes differ by <= 1.
    const auto w = static_cast<std::size_t>(pos++ * t / n);
    own.owner[static_cast<std::size_t>(v)] = static_cast<int>(w);
    own.nodes[w].push_back(v);
    const auto kids = tree.children(v);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  ARROWDQ_ASSERT_MSG(pos == n, "tree is not connected to its root");
  return own;
}

RtResult run_runtime(const Tree& tree, const RtConfig& cfg) {
  Runtime rt(tree, cfg);
  return rt.run();
}

}  // namespace arrowdq::rt
