///
/// \file step_plan.cpp
/// \brief step_plan compilation: case splits, message tables and per-locality
/// batches, resolved once per (tiling, ownership) pair.
///

#include "dist/step_plan.hpp"

#include <algorithm>
#include <utility>

namespace nlh::dist {

step_plan compile_step_plan(const tiling& t, const ownership_map& own,
                            int threads_per_locality) {
  NLH_ASSERT(own.num_sds() == t.num_sds());
  NLH_ASSERT(threads_per_locality >= 1);

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

  // Cut each locality's SDs, boundary SDs first, into contiguous batches
  // whose sizes differ by at most one.
  std::vector<std::vector<int>> owned(static_cast<std::size_t>(own.num_nodes()));
  for (const bool boundary : {true, false})
    for (int sd = 0; sd < t.num_sds(); ++sd)
      if (plan.sds[static_cast<std::size_t>(sd)].boundary == boundary)
        owned[static_cast<std::size_t>(own.owner(sd))].push_back(sd);
  std::vector<int> batch_of(static_cast<std::size_t>(t.num_sds()), -1);
  for (int l = 0; l < own.num_nodes(); ++l) {
    const auto& mine = owned[static_cast<std::size_t>(l)];
    const int n = static_cast<int>(mine.size());
    const int k = std::min(n, kBatchesPerWorker * threads_per_locality);
    for (int b = 0; b < k; ++b) {
      plan_batch batch;
      batch.locality = l;
      batch.sds.assign(mine.begin() + b * n / k, mine.begin() + (b + 1) * n / k);
      for (const int sd : batch.sds)
        batch_of[static_cast<std::size_t>(sd)] = static_cast<int>(plan.batches.size());
      plan.batches.push_back(std::move(batch));
    }
  }
  for (std::size_t i = 0; i < plan.sends.size(); ++i)
    plan.batches[static_cast<std::size_t>(
                     batch_of[static_cast<std::size_t>(plan.sends[i].sender_sd)])]
        .sends.push_back(static_cast<int>(i));

  return plan;
}

}  // namespace nlh::dist
