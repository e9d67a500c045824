/**
 * @file
 * The benchmark's workloads.  Each runs its phases through the
 * layers' public APIs, checks the outputs, and fills a Report with
 * the end-to-end metrics (untraced run) or the per-layer metrics
 * (traced run).  BENCHMARK.json names them; README.md in this
 * directory states why each exists and which layer it isolates.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <vector>

#include "harness.hpp"
#include "workload/parameter_model.hpp"

namespace perfbench {

/** The paper's Fig. 6 model at its maximum-load point, single cell. */
Report run_paper_peak(const Args &args, SpanLog &spans);

/** Four real-turbo cells driven by per-cell MAC schedulers. */
Report run_turbo_mac_4cell(const Args &args, SpanLog &spans);

/** The city-scale fleet: 104 cells on 13 modelled chips. */
Report run_city_scale(const Args &args, SpanLog &spans);

/** A ParameterModel that replays a fixed list of subframes. */
class ListModel final : public lte::workload::ParameterModel
{
  public:
    explicit ListModel(std::vector<lte::phy::SubframeParams> list)
        : list_(std::move(list))
    {
    }
    lte::phy::SubframeParams next_subframe() override
    {
        return list_[next_++ % list_.size()];
    }
    void reset() override { next_ = 0; }

  private:
    std::vector<lte::phy::SubframeParams> list_;
    std::size_t next_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
