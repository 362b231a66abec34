// Discrete-event simulator.
//
// The substrate on which the live MultiPub middleware runs (substitution #1
// in DESIGN.md): virtual time in milliseconds, a priority queue of events,
// deterministic FIFO ordering among same-timestamp events (a sequence number
// breaks ties), so every run is reproducible.
//
// Two event representations share one (time, seq) order:
//  - generic Actions (std::function) for control-plane callbacks, and
//  - typed deliveries — one message hop, dispatched straight to the
//    transport that scheduled it — so the data plane never pays a heap
//    allocation per hop: the queue holds a 16-byte handle, the hop itself is
//    a 32-byte pending record in a recycled pool slot, and the message it
//    carries is interned once per fan-out in a refcounted message pool
//    (DESIGN.md §9).
//
// Sharded parallel mode (DESIGN.md §11): configure_shards() partitions the
// address space over K shards, each with its own two-level event store and
// worker thread, synchronized by conservative time windows. Every window
// [T, T + lookahead) is executed by all shards in parallel; an event may
// only schedule a cross-shard delivery at least `lookahead` (the minimum
// cross-shard link latency) in the future, so no event inside a window can
// affect another shard within the same window. Cross-shard deliveries land
// in per-(source, destination) mailboxes and are drained at the window
// barrier in fixed source-shard order, which makes the interleaving — and
// with it every observable — bit-identical to the single-threaded run.
//
// Window policy (DESIGN.md §14): kFixed sizes every window by the single
// scalar lookahead; kAdaptive gives each shard its own window end derived
// from which shards actually hold work — E_d = min over busy shards A of
// (t_A + dist[A][d]), where dist is the shortest-walk matrix over the
// per-(source, destination) lookahead graph. Idle shards impose no bound,
// so quiet stretches collapse into a handful of wide windows while dense
// phases degenerate to exactly the fixed pacing. Both policies execute the
// identical event sequence — windows only batch, never reorder.
//
// Synchronization is one purpose-built sense-reversing barrier round per
// window: arrivals spin briefly (exponential backoff, then yields) before
// parking on a futex via std::atomic::wait; the LAST arriver drains every
// mailbox and plans the next window inside the barrier's serial phase, so
// a window costs a single synchronization episode instead of the previous
// run/drain barrier pair.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "net/address.h"
#include "net/bus.h"
#include "wire/message.h"

namespace multipub::net {

class DeliverySink;

/// One message hop as its sink sees it: deliver `msg` (sent by `from`) to
/// `to` via the transport that scheduled it. Plain trivially-copyable data,
/// materialized on the dispatcher's stack from the pending record and its
/// interned message — scheduling a delivery never touches the heap beyond
/// the simulator's recycled pools.
struct DeliveryEvent {
  DeliverySink* sink = nullptr;
  Address from;
  Address to;
  wire::Message msg;
};

/// Receiver of typed delivery events (implemented by SimTransport).
class DeliverySink {
 public:
  virtual void deliver(const DeliveryEvent& event) = 0;

 protected:
  ~DeliverySink() = default;
};

/// Static entity-to-shard assignment for the sharded data plane. Every
/// address (client or region broker) lives on exactly one shard; all events
/// OWNED by an entity (deliveries to it, its timers) execute on that shard.
struct ShardMap {
  std::uint32_t shards = 1;
  std::vector<std::uint32_t> region_shard;  ///< indexed by RegionId
  std::vector<std::uint32_t> client_shard;  ///< indexed by ClientId
  /// Indexed by flock id; a cohort lives on its home region's shard.
  std::vector<std::uint32_t> cohort_shard;

  [[nodiscard]] std::uint32_t shard_of(Address address) const {
    const auto index = static_cast<std::size_t>(address.id);
    const auto& table = address.kind == Address::Kind::kClient ? client_shard
                        : address.kind == Address::Kind::kRegion
                            ? region_shard
                            : cohort_shard;
    MP_EXPECTS(address.id >= 0 && index < table.size());
    return table[index];
  }
};

/// How the sharded plane sizes its conservative windows.
enum class WindowPolicy : std::uint8_t {
  kFixed,     ///< every window is `lookahead` wide (the PR 5 behaviour)
  kAdaptive,  ///< per-shard ends from the busy-shard horizon (DESIGN.md §14)
};

/// Telemetry of the sharded plane's window machinery. Hardware-independent
/// counters (windows, widths, mailbox traffic) prove scheduling progress
/// even on a 1-core bench host; the barrier counters diagnose whether waits
/// resolve by spinning or by parking. Reset by configure_shards().
struct WindowStats {
  std::uint64_t windows = 0;        ///< barrier rounds executed
  Millis width_sum = 0.0;           ///< sum of (max window end - round start)
  Millis width_max = 0.0;           ///< widest single round
  std::uint64_t mail_items = 0;     ///< cross-shard deliveries drained
  std::uint64_t barrier_spins = 0;  ///< waits resolved while spinning
  std::uint64_t barrier_parks = 0;  ///< waits that parked on the futex
  std::uint64_t events = 0;         ///< events dispatched by the shard stores

  [[nodiscard]] Millis width_mean() const {
    return windows > 0 ? width_sum / static_cast<double>(windows) : 0.0;
  }
  [[nodiscard]] double events_per_window() const {
    return windows > 0
               ? static_cast<double>(events) / static_cast<double>(windows)
               : 0.0;
  }
};

/// Virtual-time event loop; single-threaded by default, optionally sharded
/// over worker threads via configure_shards(). The middleware sees it as a
/// Clock (virtual time); the overrides are final, so calls through a
/// concrete Simulator* still devirtualize.
class Simulator : public Clock {
  struct EventStore;  // one shard's event state (below)

 public:
  using Action = std::function<void()>;

  Simulator() { stores_.push_back(std::make_unique<EventStore>()); }
  ~Simulator() override;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time (ms since simulation start). Inside a sharded
  /// window this is the executing shard's clock — the timestamp of the
  /// event being dispatched, exactly as in a single-threaded run.
  [[nodiscard]] Millis now() const final {
    return tls_store_ != nullptr ? tls_store_->clock : now_;
  }

  /// Schedules `action` at absolute virtual time `t`. Pre: t >= now().
  /// In sharded mode the action runs on the CALLING shard (entity timers
  /// are entity-local); from outside a window it lands on shard 0 — use the
  /// owner-hinted overload for actions that touch a specific entity.
  void schedule_at(Millis t, Action action);

  /// Owner-hinted form for sharded mode: the action executes on the shard
  /// that owns `owner` (e.g. a publisher's client address for a traffic
  /// injection). From inside a window the owner must be on the calling
  /// shard — cross-shard effects must travel as deliveries, which are the
  /// only sequenced cross-shard channel.
  void schedule_at(Millis t, Address owner, Action action);

  /// Schedules `action` `delay` ms from now. Pre: delay >= 0.
  void schedule_after(Millis delay, Action action) final;

  /// Schedules a typed message delivery at absolute virtual time `t`; the
  /// event is dispatched back to `sink` when it fires. Pre: t >= now().
  /// In sharded mode the event is routed to the shard owning `to`: directly
  /// into its store when the sender shares the shard (or no window is
  /// running), through the sequenced mailbox otherwise.
  void schedule_delivery_at(Millis t, DeliverySink& sink, Address from,
                            Address to, const wire::Message& msg);

  /// Same, `delay` ms from now. Pre: delay >= 0.
  void schedule_delivery_after(Millis delay, DeliverySink& sink, Address from,
                               Address to, const wire::Message& msg);

  /// Explicit fan-out handle: the hops scheduled through one handle share a
  /// single interned copy of its message per destination store instead of
  /// one copy each. Each hop still carries its own `subscriber` stamp. The
  /// handle borrows the message and caches the last store it interned into;
  /// it must not outlive the burst of scheduling calls it was made for (no
  /// event may be dispatched while it is in use).
  class FanOut {
   public:
    explicit FanOut(const wire::Message& msg) : msg_(&msg) {}

   private:
    friend class Simulator;
    const wire::Message* msg_;
    EventStore* store_ = nullptr;  ///< store holding the current copy
    std::uint32_t slot_ = 0;
  };

  /// Schedules one hop of `fan`'s message, delivered with `subscriber`
  /// stamped into it, `delay` ms from now — routed exactly like
  /// schedule_delivery_after, so hops keep their scheduling order. A
  /// cross-shard hop travels through the mailbox with a full stamped copy.
  /// Pre: delay >= 0.
  void schedule_fan_out_after(Millis delay, DeliverySink& sink, Address from,
                              Address to, FanOut& fan, ClientId subscriber);

  /// Interned messages referenced by pending deliveries, over every store.
  /// Engine telemetry for tests (0 once the queue drains); not an observable
  /// of the simulated system. Only between runs.
  [[nodiscard]] std::size_t interned_messages() const;

  /// Executes the earliest pending event; returns false when idle. Only
  /// meaningful single-threaded (the sharded plane runs whole windows).
  bool step();

  /// Runs until the queue drains.
  void run();

  /// Runs all events with timestamp <= t, then advances the clock to t.
  void run_until(Millis t);

  /// Splits the simulation into `map.shards` parallel shards with the given
  /// conservative window width (the minimum cross-shard link latency; see
  /// SimTransport::min_cross_shard_latency). Spawns shards-1 worker threads;
  /// the calling thread doubles as shard 0's worker inside run(). Only
  /// allowed while the queue is empty.
  /// `map.shards == 1` restores single-threaded operation.
  void configure_shards(ShardMap map, Millis lookahead);
  [[nodiscard]] std::uint32_t shards() const {
    return static_cast<std::uint32_t>(stores_.size());
  }
  [[nodiscard]] bool sharded() const { return stores_.size() > 1; }

  /// Refreshes the window width (e.g. after a FaultPlan starts shrinking
  /// latencies). Only between runs. Pre: sharded, lookahead > 0.
  void set_lookahead(Millis lookahead);
  [[nodiscard]] Millis lookahead() const { return lookahead_; }

  /// Selects how windows are sized (kFixed by default). kAdaptive requires a
  /// lookahead matrix (set_lookahead_matrix). Only between runs.
  void set_window_policy(WindowPolicy policy);
  [[nodiscard]] WindowPolicy window_policy() const { return policy_; }

  /// Per-(source shard, destination shard) lookahead matrix for the adaptive
  /// policy, row-major K*K: la[src * K + dst] is the earliest a shard-`src`
  /// event at time t can affect shard `dst` (t + la). The diagonal is
  /// ignored. Internally expanded to the shortest-walk closure (>= 1 hop),
  /// so transitive reactivation chains — A wakes B which sends back to A —
  /// bound every window correctly. Only between runs; pre: sharded, entries
  /// >= 0. Rescale together with set_lookahead when a FaultPlan shrinks
  /// latencies.
  void set_lookahead_matrix(std::vector<Millis> lookaheads);

  /// Snapshot of the window/barrier telemetry accumulated since the last
  /// configure_shards(). All zeros when unsharded. Only between runs.
  [[nodiscard]] WindowStats window_stats() const;

  /// Shard of the event being dispatched on the calling thread; 0 outside
  /// dispatch. Counters indexed by this are race-free lane-wise.
  [[nodiscard]] std::uint32_t current_shard() const { return tls_shard_; }

  /// Shard that OWNS `address` under the current map (0 when unsharded).
  /// Per-sender state (e.g. the transport's per-link RNG streams) keyed by
  /// this is single-writer: during a window only the owner shard dispatches
  /// the sender's events, and outside windows every shard is quiescent.
  [[nodiscard]] std::uint32_t owner_shard(Address address) const {
    return sharded() ? map_.shard_of(address) : 0;
  }

  /// True while the calling thread is dispatching an event (single-threaded
  /// step or a sharded window).
  [[nodiscard]] bool dispatching() const { return tls_store_ != nullptr; }

  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::uint64_t processed() const;

 private:
  /// 16-byte queue entry; the payload (an Action or a DeliveryEvent) lives
  /// in the matching pool at index `slot`. seq, kind and slot share one
  /// word: seq occupies the HIGH bits, so comparing the packed words
  /// compares seq — the FIFO tie-break for equal timestamps — and kind/slot
  /// below it never influence the order (seq is unique).
  struct CompactEvent {
    Millis time;
    std::uint64_t packed;  // seq:39 | kind:1 | slot:24

    static constexpr std::uint64_t kSlotBits = 24;
    static constexpr std::uint64_t kKindShift = kSlotBits;
    static constexpr std::uint64_t kSeqShift = kSlotBits + 1;
    static constexpr std::uint64_t kSeqBits = 64 - kSeqShift;  // 39

    [[nodiscard]] static CompactEvent make(Millis time, std::uint64_t seq,
                                           std::uint32_t kind,
                                           std::uint32_t slot) {
      // A seq past 39 bits would silently spill into kind/slot and corrupt
      // both dispatch and the FIFO tie-break; fail loudly instead (the slot
      // pools already assert their 24-bit limit).
      MP_EXPECTS(seq < (std::uint64_t{1} << kSeqBits));
      return {time, seq << kSeqShift |
                        std::uint64_t{kind} << kKindShift | slot};
    }
    [[nodiscard]] std::uint32_t kind() const {
      return static_cast<std::uint32_t>(packed >> kKindShift & 1);
    }
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(packed & ((1u << kSlotBits) - 1));
    }
  };
  /// (time, seq) is a TOTAL order (seq is unique per store), so any correct
  /// min-heap pops the exact same sequence — the container choice cannot
  /// affect determinism.
  [[nodiscard]] static bool before(const CompactEvent& a,
                                   const CompactEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.packed < b.packed;  // high bits are seq
  }

  /// One pending hop: everything but the message, which lives once per
  /// fan-out in the store's interned-message pool at `msg_slot`. Two records
  /// fit a cache line.
  struct PendingDelivery {
    DeliverySink* sink;
    Address from;
    Address to;
    std::uint32_t msg_slot;
    ClientId subscriber;  ///< stamped into the message at dispatch
  };
  static_assert(sizeof(PendingDelivery) == 32);

  /// Interned message slot. 32-byte alignment keeps a 96-byte message on
  /// exactly two cache lines, so two prefetches cover it.
  struct alignas(32) InternedMessage {
    wire::Message msg;
  };

  /// One shard's complete event state: the two-level store (see the member
  /// comment below), the recycled payload pools, its own sequence counter
  /// (assigned in insertion order, exactly as the single-threaded engine
  /// would) and its clock. In single-threaded mode there is exactly one.
  struct EventStore {
    void heap_push(const CompactEvent& event);
    CompactEvent heap_pop();
    /// Routes a compact event to the near heap, a rung bucket, or the top
    /// list.
    void far_push(const CompactEvent& event);
    /// Promotes rung buckets (rebuilding the rung from the top list when it
    /// runs out) until the near heap has events or everything is drained.
    void refill();
    void build_rung();

    [[nodiscard]] std::uint32_t acquire_action_slot();
    [[nodiscard]] std::uint32_t acquire_delivery_slot();
    /// Copies `msg` into a free message slot holding one reference.
    [[nodiscard]] std::uint32_t intern(const wire::Message& msg);
    void insert_action(Millis t, Simulator::Action action);
    /// Schedules a hop of the interned message `record.msg_slot`, taking
    /// over one of its references.
    void insert_delivery(Millis t, const PendingDelivery& record);
    /// Interns `msg` with one reference and schedules its single hop.
    void insert_delivery(Millis t, DeliverySink& sink, Address from,
                         Address to, const wire::Message& msg);
    /// Hints the cache about the next dispatch (see dispatch_one).
    void prefetch_next_record() const;
    void prefetch_next_message() const;
    /// Timestamp of the earliest pending event (kUnreachable when empty);
    /// refills the near heap as a side effect.
    [[nodiscard]] Millis next_time();
    /// Pops and invokes the earliest event, advancing `clock` to its time.
    void dispatch_one();

    Millis clock = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t processed = 0;

    // Two-level event store (a single-rung ladder queue). Pops are absorbed
    // by a small NEAR heap (4-ary min-heap, stays cache-resident); far-future
    // events wait unsorted — first in the TOP list, then distributed once
    // into the RUNG's constant-width time buckets — and are only heapified
    // when the horizon reaches their bucket. Every event is bucketed O(1)
    // times, so the steady-state cost per event stays flat even with ~10^6
    // in flight (where a single big heap spends its time in cache misses).
    //
    // Ordering stays EXACT: bucket_of(t) = floor((t - start) / width) is
    // monotone in t under IEEE rounding (subtraction, division by a
    // positive constant and floor are all monotone), so an event in a lower
    // bucket never has a later time than one in a higher bucket, and the
    // near heap — which always holds every not-yet-popped event of the
    // buckets below rung_cur_ — contains the global minimum whenever it is
    // non-empty. Ties are settled inside the near heap by the total
    // (time, seq) order.
    std::vector<CompactEvent> heap_;                // near events
    std::vector<std::vector<CompactEvent>> rung_;   // reused bucket storage
    std::vector<CompactEvent> top_;  // beyond the rung's coverage
    std::size_t rung_count_ = 0;     // active buckets this generation
    std::size_t rung_cur_ = 0;       // next bucket to promote
    Millis rung_start_ = 0.0;
    Millis rung_width_ = 1.0;
    Millis top_min_ = 0.0, top_max_ = 0.0;
    std::size_t compact_pending_ = 0;  // near + rung + top
    std::vector<Action> action_pool_;
    std::vector<std::uint32_t> action_free_;
    std::vector<PendingDelivery> delivery_pool_;
    std::vector<std::uint32_t> delivery_free_;
    // Interned messages: one copy per fan-out (per store), shared by every
    // pending record that points at it; a slot returns to msg_free_ when its
    // last record is dispatched. msg_refs_ is parallel to msg_pool_.
    std::vector<InternedMessage> msg_pool_;
    std::vector<std::uint32_t> msg_refs_;
    std::vector<std::uint32_t> msg_free_;
  };

  /// Cross-shard delivery in flight between two window barriers.
  struct MailItem {
    Millis time;
    DeliveryEvent event;
  };
  /// One (source shard, destination shard) channel. Written only by the
  /// source shard during a window, drained only in the barrier's serial
  /// phase — never both at once, so no lock is needed. Items accumulate in
  /// fixed-size chunks that the drain splices out wholesale and recycles
  /// through `spare`, so a push never copies earlier items (no mid-window
  /// vector growth) and steady-state traffic allocates nothing. The
  /// padding keeps concurrent writers off each other's cache lines.
  struct alignas(64) Mailbox {
    static constexpr std::size_t kChunkItems = 256;

    std::vector<std::vector<MailItem>> full;  ///< sealed chunks, oldest first
    std::vector<MailItem> tail;               ///< chunk being filled
    std::vector<std::vector<MailItem>> spare;  ///< recycled empty chunks

    void push(const MailItem& item) {
      if (tail.size() == kChunkItems) roll();
      if (tail.capacity() == 0) tail.reserve(kChunkItems);
      tail.push_back(item);
    }

    void roll() {
      full.push_back(std::move(tail));
      if (!spare.empty()) {
        tail = std::move(spare.back());
        spare.pop_back();
      } else {
        tail = {};
        tail.reserve(kChunkItems);
      }
    }
  };

  enum class Command : std::uint8_t { kRunWindow, kEndRun, kShutdown };

  /// Routes one hop of `fan`'s message to the store owning `to` (or its
  /// mailbox) at absolute time `t`.
  void schedule_hop(Millis t, DeliverySink& sink, Address from, Address to,
                    FanOut& fan, ClientId subscriber);

  /// Runs windows until no store has an event before `limit` (exclusive).
  void run_windows(Millis limit);
  /// Executes every event of `shard` with time < window_end_[shard].
  void run_window(std::uint32_t shard);
  void worker_loop(std::uint32_t shard);
  void shutdown_workers();

  // --- barrier protocol (sharded mode) -----------------------------------
  //
  // One epoch-counter barrier replaces the previous run/drain std::barrier
  // pair. A round: every shard runs its window, then calls arrive_and_wait;
  // the LAST arriver executes serial_phase() — drain every mailbox, plan the
  // next round (or publish kEndRun) — then releases the epoch. Waiters spin
  // with exponential backoff, then park via std::atomic::wait (futex-backed
  // on Linux). Correctness of the data handoff: each shard's window writes
  // happen-before its acq_rel fetch_add on arrivals_, so the serial thread
  // (whose fetch_add reads all prior increments) sees every mailbox and
  // store; the release bump of epoch_ then publishes the serial writes to
  // every waiter's acquire load. Epoch comparison uses != (wrap-safe).

  /// Arrive at the barrier; the last arriver runs serial_phase() and bumps
  /// the epoch. Returns the epoch after release. `seen` is the epoch
  /// observed before arriving.
  std::uint32_t arrive_and_wait(std::uint32_t shard, std::uint32_t seen);
  /// Spin-then-park until epoch_ != seen; returns the new epoch and credits
  /// sync_[shard] with a spin or a park.
  std::uint32_t await_change(std::uint32_t seen, std::uint32_t shard);
  /// Parks immediately until epoch_ != seen. Workers idle between runs use
  /// this instead of await_change: the gap is control-plane time, not
  /// barrier contention, so it must not pollute the telemetry — and not
  /// counting it keeps sync_ single-owner while window_stats() reads it.
  std::uint32_t await_publication(std::uint32_t seen);
  /// Bumps the epoch (releasing command_/window_end_) and wakes parked
  /// waiters; returns the new epoch. Thread 0 only, between rounds.
  std::uint32_t publish();
  /// Last arriver's work: drain all mailboxes, plan the next round.
  void serial_phase();
  /// Computes the next window [t_min, window_end_[*]) under policy_, or
  /// sets command_ = kEndRun when nothing remains before limit_.
  void plan_round();
  /// Moves every mailbox's items into the destination stores, in source-
  /// shard ascending FIFO order, assigning fresh shard-local sequence
  /// numbers. Serial phase only.
  void drain_all_inboxes();

  Millis now_ = 0.0;
  /// Events dispatched by stores retired when configure_shards() rebuilt
  /// them.
  std::uint64_t processed_base_ = 0;

  std::vector<std::unique_ptr<EventStore>> stores_;  // one per shard
  ShardMap map_;
  Millis lookahead_ = 0.0;
  WindowPolicy policy_ = WindowPolicy::kFixed;
  std::vector<Millis> la_;    ///< K*K per-(src,dst) lookaheads (row-major)
  std::vector<Millis> dist_;  ///< shortest-walk closure of la_ (>= 1 hop);
                              ///< diagonal = shortest cycle through the shard
  std::vector<Mailbox> mail_;  // K*K, index = src * K + dst
  std::vector<std::thread> workers_;

  Command command_ = Command::kEndRun;
  std::vector<Millis> window_end_;  ///< per-shard end of the current round
  Millis limit_ = 0.0;              ///< run_windows() horizon (exclusive)
  std::vector<Millis> next_times_;  ///< plan_round scratch: store horizons
  std::uint32_t parties_ = 1;
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> arrivals_{0};
  /// Per-shard wait counters; single-writer (each shard updates its own
  /// slot, see bump()), read between runs. Relaxed atomics: a worker
  /// released by the kEndRun ack round still counts that last wait after
  /// the driver has returned, so a read between runs can race it — the
  /// read may miss that one wait, but it is never a data race. Padded
  /// against false sharing in the spin loops.
  struct alignas(64) ShardSync {
    std::atomic<std::uint64_t> spins{0};
    std::atomic<std::uint64_t> parks{0};

    /// Single-writer increment: a plain load/store pair, no locked RMW.
    static void bump(std::atomic<std::uint64_t>& counter) {
      counter.store(counter.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    }
  };
  std::vector<ShardSync> sync_;
  // Window telemetry; written only in the serial phase (rounds are ordered
  // by the barrier, so no atomics needed).
  std::uint64_t windows_ = 0;
  Millis width_sum_ = 0.0;
  Millis width_max_ = 0.0;
  std::uint64_t mail_items_ = 0;

  // Shard context of the calling thread while it dispatches a window.
  // Static: runs of different Simulator instances never overlap on one
  // thread, and both are reset to null/0 outside dispatch. constinit
  // tells every translation unit the initializer is constant, so now() and
  // friends read them with a plain TLS load instead of a call through the
  // TLS wrapper function (which an ASan/UBSan build resolved to a null
  // address from other translation units).
  static constinit thread_local EventStore* tls_store_;
  static constinit thread_local std::uint32_t tls_shard_;
};

}  // namespace multipub::net
