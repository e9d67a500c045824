/**
 * @file
 * Serial stage-by-stage replay of a subframe stream through
 * UserProcessor: the per-stage cost of the receive chain without
 * contention, against the op model's flop counts, and the
 * single-threaded baseline the parallel engines are compared with.
 */
#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <functional>
#include <vector>

#include "harness.hpp"
#include "phy/params.hpp"
#include "runtime/input_generator.hpp"

namespace perfbench {

/** The input generator serving a cell id. */
using InputOf = std::function<lte::runtime::InputGenerator &(std::uint32_t)>;

/**
 * Replays @p subframes one user at a time, each with the inputs of its
 * cell's generator and @p receiver re-targeted to its cell, and adds
 * the phy.* metrics to @p report.  Returns the serial time per
 * subframe in milliseconds (phy.serial_ms_per_sf).
 */
double replay_phy_stages(const std::vector<lte::phy::SubframeParams> &subframes,
                       const InputOf &input_of,
                       const lte::phy::ReceiverConfig &receiver,
                       SpanLog &spans, std::int64_t parent, Report &report);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP
