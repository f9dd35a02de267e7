/**
 * @file
 * Factory for capping policies by name, so benches and examples can
 * be driven by strings ("FastCap", "CPU-only", "Freq-Par", "Eql-Pwr",
 * "Eql-Freq", "MaxBIPS", "Uncapped").
 */

#ifndef FASTCAP_POLICIES_REGISTRY_HPP
#define FASTCAP_POLICIES_REGISTRY_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"

namespace fastcap {

/** Instantiate a policy by its report name; fatal() if unknown. */
std::unique_ptr<CappingPolicy> makePolicy(const std::string &name);

/** All policy names known to the registry. */
std::vector<std::string> policyNames();

} // namespace fastcap

#endif // FASTCAP_POLICIES_REGISTRY_HPP
