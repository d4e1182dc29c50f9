// Plans don't expose operator==; tests compare this serialization of the
// placements instead: "<cardinality>x<copies>:<id>;<id>;...|" per
// placement, in plan order.

#ifndef SLADE_TESTS_PLAN_SIGNATURE_H_
#define SLADE_TESTS_PLAN_SIGNATURE_H_

#include <string>

#include "solver/plan.h"

namespace slade {

inline std::string PlanSignature(const DecompositionPlan& plan) {
  std::string sig;
  for (size_t i = 0; i < plan.num_placements(); ++i) {
    const DecompositionPlan::PlacementView p = plan.view(i);
    sig += std::to_string(p.cardinality) + "x" + std::to_string(p.copies) +
           ":";
    for (uint32_t k = 0; k < p.num_tasks; ++k) {
      sig += std::to_string(p.tasks[k]) + ";";
    }
    sig += "|";
  }
  return sig;
}

}  // namespace slade

#endif  // SLADE_TESTS_PLAN_SIGNATURE_H_
