/**
 * @file
 * Order statistics for benchmark samples: medians, quartiles (the
 * same "exclusive" method as Python's statistics.quantiles, so the
 * spreads printed here match the ones an acceptance script computes)
 * and tail percentiles.
 */

#ifndef PERFBENCH_SUMMARY_HH
#define PERFBENCH_SUMMARY_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench
{

struct Summary
{
    double median = 0;
    double q1 = 0;
    double q3 = 0;
    size_t n = 0;

    /** Interquartile range as a share of the median. */
    double spread() const { return median != 0 ? (q3 - q1) / median : 0; }
};

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    s.median = median(v);
    if (v.size() < 2) {
        s.q1 = s.q3 = v[0];
        return s;
    }
    const size_t m = v.size() + 1;
    const auto cut = [&](size_t i) {
        const size_t j = std::clamp<size_t>(i * m / 4, 1, v.size() - 1);
        const double delta = static_cast<double>(i * m) -
                             static_cast<double>(j * 4);
        return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
    };
    s.q1 = cut(1);
    s.q3 = cut(3);
    return s;
}

/** Nearest-rank percentile, @p p in (0, 1]. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

} // namespace perfbench

#endif // PERFBENCH_SUMMARY_HH
