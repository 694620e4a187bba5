#include "conflict/report.h"

namespace xmlup {

std::string_view ConflictVerdictName(ConflictVerdict verdict) {
  switch (verdict) {
    case ConflictVerdict::kConflict:
      return "conflict";
    case ConflictVerdict::kNoConflict:
      return "no-conflict";
    case ConflictVerdict::kUnknown:
      return "unknown";
  }
  return "?";
}

std::string_view DetectorMethodName(DetectorMethod method) {
  switch (method) {
    case DetectorMethod::kLinearPtime:
      return "linear-ptime";
    case DetectorMethod::kMainlineHeuristic:
      return "mainline-heuristic";
    case DetectorMethod::kBoundedSearch:
      return "bounded-search";
    case DetectorMethod::kTypePruned:
      return "type-pruned";
    case DetectorMethod::kLeafPathCertificate:
      return "leaf-path-certificate";
    case DetectorMethod::kLeafPathWitness:
      return "leaf-path-witness";
  }
  return "?";
}

}  // namespace xmlup
