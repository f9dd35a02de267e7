/**
 * @file
 * One DRAM bank with a FIFO request queue and transfer blocking.
 *
 * Per the paper's queuing model (Figure 1): a bank serves the request
 * at its head, and once service finishes it may not start the next
 * request until the served request has acquired the shared bus and
 * completed its transfer ("transfer blocking").
 */

#ifndef FASTCAP_SIM_MEMORY_BANK_HPP
#define FASTCAP_SIM_MEMORY_BANK_HPP

#include <deque>
#include <optional>

#include "sim/request.hpp"
#include "util/units.hpp"

namespace fastcap {

/**
 * A single memory bank. Owned and driven by MemoryController; the
 * bank itself only tracks queue/service/blocking state and busy time.
 */
class MemoryBank
{
  public:
    explicit MemoryBank(int id) : _id(id) {}

    int id() const { return _id; }

    /**
     * Add a request to the tail of the bank queue.
     * @return queue depth after insertion, counting an in-service
     *         request — the paper's Q sample at arrival.
     */
    std::size_t
    enqueue(Request req)
    {
        _queue.push_back(std::move(req));
        return depth();
    }

    /** True if a new service can begin right now. */
    bool
    canStart() const
    {
        return !_serving.has_value() && !_blocked && !_queue.empty();
    }

    /**
     * Pop the head request and mark it in service.
     * Caller schedules the completion event.
     */
    Request
    startService(Seconds now)
    {
        Request req = std::move(_queue.front());
        _queue.pop_front();
        _serviceStart = now;
        _serving = req;
        return req;
    }

    /**
     * Service done: the request leaves for the bus queue and the bank
     * becomes blocked until that transfer completes.
     */
    Request
    finishService(Seconds now)
    {
        Request req = std::move(*_serving);
        _serving.reset();
        _blocked = true;
        _busyTime += now - _serviceStart;
        return req;
    }

    /** The bank's outstanding transfer completed; it may serve again. */
    void unblock() { _blocked = false; }

    bool serving() const { return _serving.has_value(); }
    bool blocked() const { return _blocked; }

    /** Waiting requests plus any in-service request. */
    std::size_t
    depth() const
    {
        return _queue.size() + (_serving.has_value() ? 1u : 0u);
    }

    std::size_t queued() const { return _queue.size(); }

    /** Cumulative time spent actively serving requests. */
    Seconds busyTime() const { return _busyTime; }

    /** Reset the busy-time accumulator (window boundaries). */
    void resetBusyTime() { _busyTime = 0.0; }

  private:
    int _id = 0;
    std::deque<Request> _queue;
    std::optional<Request> _serving;
    bool _blocked = false;
    Seconds _serviceStart = 0.0;
    Seconds _busyTime = 0.0;
};

} // namespace fastcap

#endif // FASTCAP_SIM_MEMORY_BANK_HPP
