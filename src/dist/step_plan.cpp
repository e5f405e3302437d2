///
/// \file step_plan.cpp
/// \brief step_plan compilation: case splits and message tables, resolved
/// once per (tiling, ownership) pair.
///

#include "dist/step_plan.hpp"

#include <utility>

namespace nlh::dist {

step_plan compile_step_plan(const tiling& t, const ownership_map& own) {
  NLH_ASSERT(own.num_sds() == t.num_sds());

  step_plan plan;
  plan.tag_stride =
      static_cast<std::uint64_t>(t.num_sds()) * static_cast<std::uint64_t>(num_directions);
  plan.sds.resize(static_cast<std::size_t>(t.num_sds()));

  int slot = 0;
  for (int sd = 0; sd < t.num_sds(); ++sd) {
    auto& sched = plan.sds[static_cast<std::size_t>(sd)];
    const int dst = own.owner(sd);

    // Receiver-major message enumeration in direction-enum order — the
    // historical tag assignment, so serialized traffic stays bit-identical.
    for (const auto& [d, nb] : t.neighbors(sd)) {
      if (own.owner(nb) == dst) {
        sched.local_fills.emplace_back(d, nb);
        continue;
      }
      sched.boundary = true;
      plan_recv rv;
      rv.dir = d;
      rv.src_locality = own.owner(nb);
      rv.tag_base = static_cast<std::uint64_t>(sd) * num_directions +
                    static_cast<std::uint64_t>(d);
      rv.slot = slot++;
      plan.sends.push_back(
          {nb, opposite(d), rv.src_locality, dst, rv.tag_base});
      sched.recvs.push_back(rv);
    }

    sched.split = compute_case_split(t, sd, own.raw());
    plan.total_local_fills += static_cast<int>(sched.local_fills.size());
    if (sched.boundary) ++plan.boundary_sds;
  }
  plan.total_messages = slot;

  plan.post_order.reserve(static_cast<std::size_t>(t.num_sds()));
  for (int sd = 0; sd < t.num_sds(); ++sd)
    if (plan.sds[static_cast<std::size_t>(sd)].boundary) plan.post_order.push_back(sd);
  for (int sd = 0; sd < t.num_sds(); ++sd)
    if (!plan.sds[static_cast<std::size_t>(sd)].boundary) plan.post_order.push_back(sd);

  return plan;
}

}  // namespace nlh::dist
