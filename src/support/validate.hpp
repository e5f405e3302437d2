#pragma once
///
/// \file validate.hpp
/// \brief The one formatter for options-validation failures: every
/// `validate()` in the library returns one actionable message per offence,
/// and the throwing gates in front of constructors turn that list into a
/// single `std::invalid_argument`.
///

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace nlh::support {

/// Throws std::invalid_argument("invalid <what> (N problem[s]):\n  - ...")
/// when `errs` is non-empty; returns otherwise.
inline void throw_if_invalid(const char* what, const std::vector<std::string>& errs) {
  if (errs.empty()) return;
  std::ostringstream msg;
  msg << "invalid " << what << " (" << errs.size() << " problem"
      << (errs.size() > 1 ? "s" : "") << "):";
  for (const auto& e : errs) msg << "\n  - " << e;
  throw std::invalid_argument(msg.str());
}

}  // namespace nlh::support
