/**
 * @file
 * Small order statistics shared by the benchmark's reports.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/**
 * The q-quantile (0 <= q <= 1) of `values` by linear interpolation
 * between closest ranks; NaN for an empty sample.
 */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return std::nan("");
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
