/**
 * @file
 * Memory request descriptor flowing through the simulated memory
 * subsystem (Figure 1 of the paper): core -> bank queue -> bank
 * service -> bus queue -> bus transfer -> core.
 */

#ifndef FASTCAP_SIM_REQUEST_HPP
#define FASTCAP_SIM_REQUEST_HPP

#include <cstdint>

#include "util/units.hpp"

namespace fastcap {

/** Kind of memory traffic. */
enum class RequestType : std::uint8_t {
    Read,       //!< demand miss; blocks the issuing core (in-order)
    Writeback,  //!< background traffic; occupies bank+bus only
};

/**
 * A single memory transaction.
 *
 * Requests are small value types owned by the bank/bus queues as they
 * move through the subsystem.
 */
struct Request
{
    RequestType type = RequestType::Read;
    int coreId = -1;          //!< issuing core
    int bankId = -1;          //!< bank within the controller
    Seconds arriveTime = 0.0; //!< when it entered the bank queue
};

} // namespace fastcap

#endif // FASTCAP_SIM_REQUEST_HPP
