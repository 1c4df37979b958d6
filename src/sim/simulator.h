// Deterministic discrete-event simulator.
//
// Every component of the blockchain network (clients, peers, OSNs, the mq
// broker) runs as callbacks scheduled on one virtual clock.  Events are
// ordered by an `EventKey` (timestamp, scheduling domain, per-domain
// sequence number).  A *domain* is the logical node a callback runs on
// behalf of; every event scheduled while that callback executes is keyed
// under the executing domain, and each domain has its own monotonic
// sequence counter.  Equal-time events therefore fire in (domain, sequence)
// order.  That tie order is part of every recorded artifact (metrics JSON,
// traces, chain and state fingerprints), so changing it is a model change.
// With a single domain (the default, domain 0), keys degenerate to (time,
// schedule order): ties fire in scheduling order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "sim/small_fn.h"

namespace fl::sim {

using EventFn = SmallFn;

/// Logical scheduling domain.  The fabric layer uses the component's
/// NodeId value; standalone simulator users can ignore domains entirely.
using DomainId = std::uint64_t;

/// Total order over events: (timestamp, scheduling domain, per-domain
/// sequence).  Keys are unique across a run — equal (at, domain) pairs
/// differ in seq.
struct EventKey {
    TimePoint at;
    DomainId domain = 0;
    std::uint64_t seq = 0;

    constexpr auto operator<=>(const EventKey&) const = default;
};

/// Handle for a cancellable scheduled event (e.g. a block-cut timer that is
/// disarmed when the block fills up early).  Cheap to copy; cancelling an
/// already-fired or empty handle is a no-op.
class TimerHandle {
public:
    TimerHandle() = default;

    void cancel();
    [[nodiscard]] bool active() const;

private:
    friend class Simulator;
    explicit TimerHandle(std::shared_ptr<bool> cancelled)
        : cancelled_(std::move(cancelled)) {}
    std::shared_ptr<bool> cancelled_;
};

class Simulator {
public:
    Simulator() { set_domain(0); }
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    [[nodiscard]] TimePoint now() const { return now_; }

    /// Schedules `fn` to run at absolute time `t` (>= now).
    void schedule_at(TimePoint t, EventFn fn);

    /// Schedules `fn` to run `delay` after now.  Negative delays clamp to 0.
    void schedule_after(Duration delay, EventFn fn);

    /// Schedules a cancellable event.
    TimerHandle schedule_timer(Duration delay, EventFn fn);

    /// Schedules `fn` `delay` after now, keyed under the current domain
    /// like schedule_after, but executed with `exec_domain` installed as the
    /// scheduling domain: a message sent by one node and handled by another.
    /// Negative delays clamp to 0.
    void schedule_after_on(Duration delay, DomainId exec_domain, EventFn fn);

    /// Sets the scheduling domain for subsequently scheduled events.  The
    /// executing event's domain is installed automatically by the run loop;
    /// setup code uses DomainScope to tag construction-time schedules.
    void set_domain(DomainId d);
    [[nodiscard]] DomainId domain() const { return current_domain_; }

    /// Runs until the event queue drains.  Returns the number of events run.
    std::uint64_t run();

    /// Runs events with time <= `deadline`; the clock ends at `deadline` if
    /// the queue drained earlier.  Returns the number of events run.
    std::uint64_t run_until(TimePoint deadline);

    /// Executes the single next event; false if the queue is empty.
    bool step();

    /// Timestamp of the earliest *live* pending event, TimePoint::max()
    /// when the queue is empty.  Cancelled timers at the head are pruned,
    /// so a dead timer cannot place a multi-channel sync window.  Pruning
    /// never touches the execution clock (now() only moves when an event is
    /// dequeued by a run call); pruned times are folded into
    /// last_event_at() instead.
    [[nodiscard]] TimePoint next_event_time();

    /// Timestamp of the most recently dequeued event — including cancelled
    /// timer pops and prunes, so after any mix of run()/run_until()/
    /// next_event_time() calls this equals what now() reads after a plain
    /// run() (run_until additionally advances the clock to its deadline;
    /// this accessor does not).  Origin if no event was ever dequeued.
    [[nodiscard]] TimePoint last_event_at() const {
        return std::max(last_event_at_, pruned_to_);
    }

    [[nodiscard]] bool empty() const { return queue_.empty(); }
    [[nodiscard]] std::size_t pending() const { return queue_.size(); }
    [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

    /// Safety valve for runaway experiments; 0 disables the limit.
    void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

private:
    struct Event {
        EventKey key;
        DomainId exec_domain = 0;
        EventFn fn;
        std::shared_ptr<bool> cancelled;  // may be null

        // Min-heap order: lexicographic on (at, domain, seq).
        friend bool operator>(const Event& a, const Event& b) {
            return b.key < a.key;
        }
    };

    [[nodiscard]] EventKey next_key(TimePoint t) {
        return EventKey{t, current_domain_, (*current_seq_)++};
    }
    bool run_one();

    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
    TimePoint now_;
    TimePoint last_event_at_;
    TimePoint pruned_to_;  ///< latest cancelled entry discarded by a peek
    DomainId current_domain_ = 0;
    std::uint64_t* current_seq_ = nullptr;  // cached &domain_seq_[current_domain_]
    std::unordered_map<DomainId, std::uint64_t> domain_seq_;
    std::uint64_t executed_ = 0;
    std::uint64_t event_limit_ = 0;
};

/// RAII scheduling-domain tag for setup code (component construction,
/// workload bootstrap): events scheduled inside the scope are keyed under
/// `d`, the node they belong to.  The tags fix the tie order of bootstrap
/// events, which is part of every recorded artifact.
class DomainScope {
public:
    DomainScope(Simulator& sim, DomainId d) : sim_(sim), prev_(sim.domain()) {
        sim_.set_domain(d);
    }
    ~DomainScope() { sim_.set_domain(prev_); }
    DomainScope(const DomainScope&) = delete;
    DomainScope& operator=(const DomainScope&) = delete;

private:
    Simulator& sim_;
    DomainId prev_;
};

}  // namespace fl::sim
