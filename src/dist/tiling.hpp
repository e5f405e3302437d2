#pragma once
///
/// \file tiling.hpp
/// \brief Regular SD (sub-domain) tiling of the global DP mesh and the
/// case-1/case-2 decomposition of one SD (paper Fig. 2 and §6.3).
///
/// The global n x n mesh is cut into sd_rows x sd_cols square SDs of
/// sd_size x sd_size DPs. Every SD exchanges a ghost strip of `ghost`
/// (= ceil(epsilon/h)) DP layers with each of its up to eight neighbors:
/// side strips are sd_size x ghost, corner strips ghost x ghost (the
/// epsilon-ball clips the corners, but the conservative square exchange
/// keeps the pack geometry uniform). The multi-level cell-ID mapping idiom
/// (SD id <-> grid position <-> DP origin) follows the OSRM partition
/// interface shape: every mapping is O(1) arithmetic on the row-major id.
///

#include <optional>
#include <utility>
#include <vector>

#include "nonlocal/nonlocal_operator.hpp"
#include "support/assert.hpp"

namespace nlh::dist {

/// Compass neighbors of an SD, clockwise from north. Kept dense so strip
/// buffers and tags can be indexed by the raw value.
enum class direction : int {
  north = 0,
  northeast = 1,
  east = 2,
  southeast = 3,
  south = 4,
  southwest = 5,
  west = 6,
  northwest = 7,
};

inline constexpr int num_directions = 8;

/// (row delta, col delta) of `d` on the SD grid.
constexpr std::pair<int, int> direction_offset(direction d) {
  switch (d) {
    case direction::north: return {-1, 0};
    case direction::northeast: return {-1, 1};
    case direction::east: return {0, 1};
    case direction::southeast: return {1, 1};
    case direction::south: return {1, 0};
    case direction::southwest: return {1, -1};
    case direction::west: return {0, -1};
    case direction::northwest: return {-1, -1};
  }
  return {0, 0};
}

/// The direction a neighbor sees us from: offsets negate.
constexpr direction opposite(direction d) {
  return static_cast<direction>((static_cast<int>(d) + 4) % num_directions);
}

/// Geometry of the SD grid: id <-> (row, col) <-> DP-origin mappings plus
/// the send/recv strip rectangles of the ghost exchange.
class tiling {
 public:
  /// \param sd_rows SDs along Y   \param sd_cols SDs along X
  /// \param sd_size DPs per SD side \param ghost ghost strip width in DPs
  tiling(int sd_rows, int sd_cols, int sd_size, int ghost)
      : sd_rows_(sd_rows), sd_cols_(sd_cols), sd_size_(sd_size), ghost_(ghost) {
    NLH_ASSERT(sd_rows >= 1 && sd_cols >= 1);
    NLH_ASSERT(ghost >= 1);
    NLH_ASSERT_MSG(sd_size >= ghost,
                   "tiling: SD side must cover the nonlocal horizon "
                   "(sd_size >= ghost) so one neighbor ring suffices");
  }

  int sd_rows() const { return sd_rows_; }
  int sd_cols() const { return sd_cols_; }
  int sd_size() const { return sd_size_; }
  int ghost() const { return ghost_; }

  int num_sds() const { return sd_rows_ * sd_cols_; }
  int mesh_rows() const { return sd_rows_ * sd_size_; }
  int mesh_cols() const { return sd_cols_ * sd_size_; }

  /// Row-major SD id mappings.
  int sd_row(int sd) const { return check(sd) / sd_cols_; }
  int sd_col(int sd) const { return check(sd) % sd_cols_; }
  int sd_at(int row, int col) const {
    NLH_ASSERT(row >= 0 && row < sd_rows_ && col >= 0 && col < sd_cols_);
    return row * sd_cols_ + col;
  }

  /// Global DP coordinates of the SD's top-left interior DP.
  int origin_row(int sd) const { return sd_row(sd) * sd_size_; }
  int origin_col(int sd) const { return sd_col(sd) * sd_size_; }

  /// Neighbor SD in direction `d`, or nullopt at the domain boundary.
  std::optional<int> neighbor(int sd, direction d) const {
    const auto [dr, dc] = direction_offset(d);
    const int r = sd_row(sd) + dr;
    const int c = sd_col(sd) + dc;
    if (r < 0 || r >= sd_rows_ || c < 0 || c >= sd_cols_) return std::nullopt;
    return sd_at(r, c);
  }

  /// All existing neighbors as (direction, sd) pairs, in enum order.
  std::vector<std::pair<direction, int>> neighbors(int sd) const {
    std::vector<std::pair<direction, int>> out;
    out.reserve(num_directions);
    for (int d = 0; d < num_directions; ++d) {
      const auto dir = static_cast<direction>(d);
      if (const auto nb = neighbor(sd, dir)) out.emplace_back(dir, *nb);
    }
    return out;
  }

  /// SD-local rectangle of DPs sent toward the neighbor in direction `d`
  /// (rows/cols in [0, sd_size)).
  nonlocal::dp_rect send_rect(direction d) const {
    const auto [dr, dc] = direction_offset(d);
    nonlocal::dp_rect r;
    r.row_begin = dr > 0 ? sd_size_ - ghost_ : 0;
    r.row_end = dr < 0 ? ghost_ : sd_size_;
    r.col_begin = dc > 0 ? sd_size_ - ghost_ : 0;
    r.col_end = dc < 0 ? ghost_ : sd_size_;
    return r;
  }

  /// SD-local collar rectangle filled by data arriving *from* the neighbor
  /// in direction `d` (indices extend into [-ghost, sd_size + ghost)).
  nonlocal::dp_rect recv_rect(direction d) const {
    const auto [dr, dc] = direction_offset(d);
    nonlocal::dp_rect r;
    r.row_begin = dr < 0 ? -ghost_ : (dr > 0 ? sd_size_ : 0);
    r.row_end = dr < 0 ? 0 : (dr > 0 ? sd_size_ + ghost_ : sd_size_);
    r.col_begin = dc < 0 ? -ghost_ : (dc > 0 ? sd_size_ : 0);
    r.col_end = dc < 0 ? 0 : (dc > 0 ? sd_size_ + ghost_ : sd_size_);
    return r;
  }

  /// DPs in one ghost strip toward direction `d` (side: sd_size * ghost,
  /// corner: ghost^2) — the payload size of one exchange message.
  int strip_dps(direction d) const {
    return static_cast<int>(send_rect(d).area());
  }

 private:
  int check(int sd) const {
    NLH_ASSERT(sd >= 0 && sd < num_sds());
    return sd;
  }

  int sd_rows_;
  int sd_cols_;
  int sd_size_;
  int ghost_;
};

/// The case-1/case-2 split of one SD given an ownership assignment
/// (paper §6.3): `interior` holds the case-2 DPs that read no foreign
/// data and compute while ghost messages are in flight; `remote_strips`
/// are the case-1 margins that wait for all of the SD's remote ghosts.
/// The rectangles exactly tile the SD (no DP lost or duplicated).
struct case_split {
  nonlocal::dp_rect interior;
  std::vector<nonlocal::dp_rect> remote_strips;

  long long interior_dps() const { return interior.empty() ? 0 : interior.area(); }
  long long strip_dps() const {
    long long total = 0;
    for (const auto& s : remote_strips) total += s.area();
    return total;
  }
};

/// Compute the split for `sd` under `owner` (one entry per SD). A margin is
/// marked remote when any neighbor overlapping it (sides and, conservatively,
/// diagonals) has a different owner; `active` (optional mask, one flag per
/// SD) removes inactive neighbors from consideration entirely.
case_split compute_case_split(const tiling& t, int sd, const std::vector<int>& owner,
                              const std::vector<char>* active = nullptr);

/// One fine-grained case-1 strip: an SD-local rectangle plus the exact set
/// of cross-locality directions whose ghost data its epsilon-halo reads.
/// `deps` empty means every value the strip touches is available locally at
/// post time (same-locality collar fills).
struct strip_dep {
  nonlocal::dp_rect rect;
  std::vector<direction> deps;  ///< remote directions, ascending enum order
};

/// Refine the case-1 region of `sd` into per-direction side and corner
/// strips (paper §6.3 taken one level finer than compute_case_split): the
/// returned rectangles tile exactly the same DPs as the coarse
/// `remote_strips`, but each carries only the directions whose recv collar
/// intersects its epsilon-halo. Side strips typically depend on one ghost;
/// corner strips on the two adjacent sides plus the diagonal (when those
/// are cross-locality). A tiling utility, not compiled by any overlap
/// schedule (the solver gates all of an SD's case-1 strips together, see
/// docs/overlap.md): kernel shape benches use its rects as the thinnest
/// ghost-width shapes an SD's margin splits into.
std::vector<strip_dep> compute_fine_strips(const tiling& t, int sd,
                                           const std::vector<int>& owner,
                                           const std::vector<char>* active = nullptr);

}  // namespace nlh::dist
