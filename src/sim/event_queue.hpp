/**
 * @file
 * Discrete-event simulation core.
 *
 * A time-ordered queue of typed events with deterministic FIFO
 * tie-breaking for equal timestamps. An event is plain data — when,
 * sequence number, target, kind and a 32-bit argument — so the queue
 * stores no closures, allocates nothing per event beyond its arrays,
 * and dispatches with one virtual call to the target.
 *
 * Storage is a binary min-heap plus a few fixed-delay FIFO lanes.
 * scheduleFixed() puts an event whose delay is a reused constant (the
 * L2 latency, a bank's row-hit or row-miss time, the bus transfer
 * time) into the lane keyed by that delay's exact bits, where it costs
 * an append instead of a heap sift. Each lane is already sorted by
 * (when, seq): now() never decreases and IEEE addition is monotone, so
 * now() + d never decreases for one d, and seq strictly increases.
 * runUntil() fires the (when, seq) minimum of the heap root and the
 * lane heads, which is the event a heap holding everything would fire
 * next; the firing order is the same as a heap-only queue's.
 *
 * Lanes engage only once the queue holds at least kLaneThreshold
 * events. Small queues (the sharded engine's per-lane queues hold a
 * handful) keep everything in the heap and never allocate lane
 * storage, so they pay neither a per-pop lane scan nor memory. A fixed
 * delay with no matching lane re-keys an empty lane (the transfer time
 * moves with memory DVFS and bandwidth re-division) or, when all
 * kMaxLanes lanes are busy, goes to the heap.
 *
 * Threading: a queue and every target scheduled on it belong to one
 * thread at a time. The monolithic engine runs one queue on the
 * calling thread; the sharded engine runs one queue per lane (a core
 * and its memory lane), advanced by the pool worker that runs the
 * lane's shard between window barriers. Given the same inputs a queue
 * fires the same events in the same order, which is what makes
 * results reproducible (same seed, same output).
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

    /** Number of pending events, heap and lanes together. */
    std::size_t pending() const { return _heap.size() + _laneEvents; }
    bool empty() const { return pending() == 0; }

    /** Pending-event count at which fixed-delay lanes engage. */
    static constexpr std::size_t kLaneThreshold = 32;

    /** Most distinct fixed delays held in lanes at once. */
    static constexpr std::size_t kMaxLanes = 6;

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
     * Schedule at now() + delay, where `delay` is a constant the
     * caller reuses (see the file comment). Fires exactly as
     * scheduleAfter() would; only the storage differs. A negative or
     * non-finite delay is a library bug and panics.
     */
    void scheduleFixed(Seconds delay, EventTarget &target, EventKind kind,
                       std::uint32_t arg = 0);

    /**
     * Run all events with timestamp <= t_end, then advance now() to
     * t_end even if the queue drains early (the remaining interval is
     * idle time). A non-finite t_end is a library bug and panics.
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

    /**
     * FIFO of events scheduled with one fixed delay: a ring whose
     * size is zero or a power of two.
     */
    struct Lane
    {
        std::uint64_t delayBits; //!< key: the delay's bit pattern
        std::vector<Event> ring;
        std::size_t head = 0;
        std::size_t count = 0;

        const Event &front() const { return ring[head]; }
        void push(const Event &e);
        void
        pop()
        {
            head = (head + 1) & (ring.size() - 1);
            --count;
        }
    };

    /** Push `e` onto the heap. */
    void pushHeap(const Event &e);

    /** Remove the root (earliest) event from the heap. */
    void popFront();

    /**
     * Binary min-heap over (when, seq). Sifts move a hole and write
     * the sifted event once, instead of swapping at every level.
     */
    std::vector<Event> _heap;
    /** Fixed-delay lanes; empty until the queue first grows large. */
    std::vector<Lane> _lanes;
    std::size_t _laneEvents = 0; //!< events held across all lanes
    Seconds _now = 0.0;
    std::uint64_t _seq = 0;
    std::uint64_t _processed = 0;
};

} // namespace fastcap

#endif // FASTCAP_SIM_EVENT_QUEUE_HPP
