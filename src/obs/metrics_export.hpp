#pragma once
///
/// \file metrics_export.hpp
/// \brief JSON serialization of metrics snapshots (docs/observability.md).
///

#include <string>

#include "obs/metrics.hpp"

namespace nlh::obs {

/// One snapshot as a JSON object:
/// `{"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
/// min, max, mean, p50, p90, p99}, ...}}`.
std::string metrics_json(const metrics_snapshot& snap);

/// Write `snap` to `path`; false (with a message on stderr) on failure.
bool write_metrics_json(const std::string& path, const metrics_snapshot& snap);

}  // namespace nlh::obs
