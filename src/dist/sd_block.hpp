#pragma once
///
/// \file sd_block.hpp
/// \brief Per-SD field storage: the sd_size^2 interior DPs surrounded by a
/// ghost collar, plus strip pack/unpack for the exchange path.
///
/// Each block holds two padded fields (u and u_next) so the forward-Euler
/// update never aliases its inputs; swap_fields flips them after a step.
/// pack/unpack serialize send/recv strips row-major as raw doubles — the
/// payload a cluster run would put on the wire — while fill_from_local is
/// the zero-copy shortcut for neighbors on the same locality. Every copy
/// moves whole rows (std::copy_n from row pointers) after checking the
/// rect's geometry once, not per DP.
///

#include <algorithm>
#include <utility>
#include <vector>

#include "dist/tiling.hpp"
#include "support/assert.hpp"

namespace nlh::dist {

class sd_block {
 public:
  sd_block(const tiling& t, int sd)
      : sd_(sd),
        size_(t.sd_size()),
        ghost_(t.ghost()),
        origin_row_(t.origin_row(sd)),
        origin_col_(t.origin_col(sd)),
        stride_(t.sd_size() + 2 * t.ghost()),
        u_(static_cast<std::size_t>(stride_) * stride_, 0.0),
        u_next_(static_cast<std::size_t>(stride_) * stride_, 0.0) {}

  int sd() const { return sd_; }
  int size() const { return size_; }
  int ghost() const { return ghost_; }
  int stride() const { return stride_; }

  /// Global DP coordinates of local (0, 0).
  int origin_row() const { return origin_row_; }
  int origin_col() const { return origin_col_; }

  /// Flat index of local DP (i, j); collar cells use i or j in
  /// [-ghost, size + ghost).
  std::size_t flat(int i, int j) const {
    NLH_ASSERT(i >= -ghost_ && i < size_ + ghost_);
    NLH_ASSERT(j >= -ghost_ && j < size_ + ghost_);
    return offset(i, j);
  }

  std::vector<double>& u() { return u_; }
  const std::vector<double>& u() const { return u_; }
  std::vector<double>& u_next() { return u_next_; }
  const std::vector<double>& u_next() const { return u_next_; }

  void swap_fields() { std::swap(u_, u_next_); }

  /// Row-major copy of the size^2 interior DPs — the migration and
  /// checkpoint payload.
  std::vector<double> interior() const {
    std::vector<double> vals(static_cast<std::size_t>(size_) * size_);
    copy_out(interior_rect(), vals.data());
    return vals;
  }

  void set_interior(const std::vector<double>& vals) {
    NLH_ASSERT_MSG(vals.size() == static_cast<std::size_t>(size_) * size_,
                   "sd_block: interior payload size mismatch");
    copy_in(interior_rect(), vals.data());
  }

  /// Row-major copy of the strip sent toward direction `d`, written into a
  /// caller-owned scratch vector: its capacity is reused across steps, so a
  /// pooled exchange path allocates only on the first step (or never, once
  /// warm — the ROADMAP ghost-strip-pooling item).
  void pack_into(const tiling& t, direction d, std::vector<double>& strip) const {
    const auto r = t.send_rect(d);
    strip.resize(static_cast<std::size_t>(r.area()));
    copy_out(r, strip.data());
  }

  /// Convenience allocating form of pack_into.
  std::vector<double> pack(const tiling& t, direction d) const {
    std::vector<double> strip;
    pack_into(t, d, strip);
    return strip;
  }

  /// Write a strip received *from* direction `d` into the matching collar.
  void unpack(const tiling& t, direction d, const std::vector<double>& strip) {
    const auto r = t.recv_rect(d);
    NLH_ASSERT_MSG(strip.size() == static_cast<std::size_t>(r.area()),
                   "sd_block: ghost strip size does not match the collar rect");
    copy_in(r, strip.data());
  }

  /// Fill the collar facing direction `d` straight from a same-locality
  /// neighbor block (equivalent to unpack(d, nbr.pack(opposite(d)))).
  void fill_from_local(const tiling& t, direction d, const sd_block& nbr) {
    const auto dst = t.recv_rect(d);
    const auto src = t.send_rect(opposite(d));
    NLH_ASSERT(dst.rows() == src.rows() && dst.cols() == src.cols());
    check_rect(dst);
    nbr.check_rect(src);
    const auto w = static_cast<std::size_t>(dst.cols());
    for (int i = 0; i < dst.rows(); ++i)
      std::copy_n(nbr.u_.data() + nbr.offset(src.row_begin + i, src.col_begin), w,
                  u_.data() + offset(dst.row_begin + i, dst.col_begin));
  }

 private:
  nonlocal::dp_rect interior_rect() const { return {0, size_, 0, size_}; }

  /// The geometry check flat() makes per DP, made once for a whole rect.
  void check_rect(const nonlocal::dp_rect& r) const {
    NLH_ASSERT(r.row_begin >= -ghost_ && r.row_end <= size_ + ghost_ &&
               r.row_begin <= r.row_end);
    NLH_ASSERT(r.col_begin >= -ghost_ && r.col_end <= size_ + ghost_ &&
               r.col_begin <= r.col_end);
  }

  /// flat() without the checks: callers validated the rect with check_rect.
  std::size_t offset(int i, int j) const {
    return static_cast<std::size_t>(i + ghost_) * static_cast<std::size_t>(stride_) +
           static_cast<std::size_t>(j + ghost_);
  }

  /// Row-major copies between u over `r` and a packed buffer, one whole
  /// row at a time.
  void copy_out(const nonlocal::dp_rect& r, double* out) const {
    check_rect(r);
    const auto w = static_cast<std::size_t>(r.cols());
    for (int i = r.row_begin; i < r.row_end; ++i, out += w)
      std::copy_n(u_.data() + offset(i, r.col_begin), w, out);
  }
  void copy_in(const nonlocal::dp_rect& r, const double* in) {
    check_rect(r);
    const auto w = static_cast<std::size_t>(r.cols());
    for (int i = r.row_begin; i < r.row_end; ++i, in += w)
      std::copy_n(in, w, u_.data() + offset(i, r.col_begin));
  }

  int sd_;
  int size_;
  int ghost_;
  int origin_row_;
  int origin_col_;
  int stride_;
  std::vector<double> u_;
  std::vector<double> u_next_;
};

}  // namespace nlh::dist
