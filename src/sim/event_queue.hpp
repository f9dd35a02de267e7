/**
 * @file
 * Discrete-event simulation core.
 *
 * A time-ordered queue of typed events with deterministic FIFO
 * tie-breaking for equal timestamps. An event is plain data — when,
 * sequence number, target, kind and a 32-bit argument — so the queue
 * stores no closures, allocates nothing per event beyond its heap
 * array, and dispatches with one virtual call to the target.
 *
 * Threading: a queue and every target scheduled on it belong to one
 * thread at a time. The monolithic engine runs one queue on the
 * calling thread; the sharded engine runs one queue per shard, each
 * advanced by a single pool worker between window barriers. Given
 * the same inputs a queue fires the same events in the same order,
 * which is what makes results reproducible (same seed, same output).
 */

#ifndef FASTCAP_SIM_EVENT_QUEUE_HPP
#define FASTCAP_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/units.hpp"

namespace fastcap {

/**
 * The simulator's event kinds. Core handles the first two,
 * MemoryController the last two.
 */
enum class EventKind : std::uint8_t {
    ThinkDone,    //!< Core: the pending think interval elapsed
    L2Submit,     //!< Core: a demand read cleared the L2; submit it
    BankDone,     //!< MemoryController: bank `arg` finished service
    TransferDone, //!< MemoryController: the bus transfer finished
};

/** Receiver of typed events. */
class EventTarget
{
  public:
    /** Handle an event of `kind` with payload `arg` at queue.now(). */
    virtual void onEvent(EventKind kind, std::uint32_t arg) = 0;

  protected:
    ~EventTarget() = default;
};

/**
 * Time-ordered event queue.
 *
 * Events are scheduled at absolute simulated times. Events scheduled
 * for the same instant fire in scheduling order, whatever their
 * targets and kinds.
 */
class EventQueue
{
  public:
    /** Current simulated time in seconds. */
    Seconds now() const { return _now; }

    /** Total events executed since construction. */
    std::uint64_t processed() const { return _processed; }

    /** Number of pending events. */
    std::size_t pending() const { return _heap.size(); }
    bool empty() const { return _heap.empty(); }

    /**
     * Schedule `kind` for `target` at absolute time `when`. The
     * target must outlive the event.
     *
     * Scheduling in the past or at a non-finite time is a library bug
     * and panics; scheduling exactly at now() is allowed and fires on
     * the next run step.
     */
    void schedule(Seconds when, EventTarget &target, EventKind kind,
                  std::uint32_t arg = 0);

    /** Schedule at now() + delay. */
    void
    scheduleAfter(Seconds delay, EventTarget &target, EventKind kind,
                  std::uint32_t arg = 0)
    {
        schedule(_now + delay, target, kind, arg);
    }

    /**
     * Run all events with timestamp <= t_end, then advance now() to
     * t_end even if the queue drains early (the remaining interval is
     * idle time).
     *
     * @return number of events processed by this call.
     */
    std::uint64_t runUntil(Seconds t_end);

  private:
    /** One pending event; trivially copyable. */
    struct Event
    {
        Seconds when;
        std::uint64_t seq;
        EventTarget *target;
        EventKind kind;
        std::uint32_t arg;
    };
    static_assert(std::is_trivially_copyable_v<Event>);

    /** The (when, seq) total order: true if `a` fires before `b`. */
    static bool
    earlier(const Event &a, const Event &b)
    {
        return a.when < b.when || (a.when == b.when && a.seq < b.seq);
    }

    /** Remove the root (earliest) event from the heap. */
    void popFront();

    /**
     * Binary min-heap over (when, seq). Sifts move a hole and write
     * the sifted event once, instead of swapping at every level.
     */
    std::vector<Event> _heap;
    Seconds _now = 0.0;
    std::uint64_t _seq = 0;
    std::uint64_t _processed = 0;
};

} // namespace fastcap

#endif // FASTCAP_SIM_EVENT_QUEUE_HPP
