#include "replay.hpp"

#include <array>
#include <map>
#include <string>

#include "phy/op_model.hpp"
#include "phy/user_processor.hpp"

namespace perfbench {

namespace {

enum Stage : std::size_t
{
    kChanest,
    kWeights,
    kDemod,
    kTailCb,
    kDecodeCb,
    kTailReduce,
    kStages
};

constexpr std::array<const char *, kStages> kStageNames = {
    "chanest", "weights", "demod", "tail_cb", "decode_cb", "tail_reduce"};

constexpr std::array<const char *, kStages> kSpanNames = {
    "phy.chanest", "phy.weights", "phy.demod",
    "phy.tail_cb", "phy.decode_cb", "phy.tail_reduce"};

} // namespace

double
replay_phy_stages(const std::vector<lte::phy::SubframeParams> &subframes,
                  const InputOf &input_of,
                  const lte::phy::ReceiverConfig &receiver,
                  SpanLog &spans, std::int64_t parent, Report &report)
{
    std::map<std::uint32_t, lte::phy::UserProcessor> procs;
    std::vector<const lte::phy::UserSignal *> signals;
    std::array<std::uint64_t, kStages> ns{};
    std::array<std::uint64_t, kStages> flops{};
    std::uint64_t bind_ns = 0;
    std::uint64_t users = 0;
    std::uint64_t iterations = 0;
    std::uint64_t codeblocks = 0;
    std::uint64_t crc_real_pass = 0;
    std::uint64_t crc_real = 0;
    const lte::phy::DecodeModel decode = lte::phy::decode_model(receiver);

    for (const lte::phy::SubframeParams &sf : subframes) {
        input_of(sf.cell_id).signals_for(sf, signals);
        auto it = procs.find(sf.cell_id);
        if (it == procs.end()) {
            lte::phy::ReceiverConfig cell_receiver = receiver;
            cell_receiver.cell_id = sf.cell_id;
            it = procs.emplace(sf.cell_id, cell_receiver).first;
        }
        lte::phy::UserProcessor &proc = it->second;
        for (std::size_t u = 0; u < sf.users.size(); ++u) {
            const lte::phy::UserParams &user = sf.users[u];
            const std::uint64_t id =
                subframe_id(sf.cell_id - 1, sf.subframe_index);
            std::uint64_t t = now_ns();
            proc.bind(user, signals[u]);
            std::uint64_t t1 = now_ns();
            bind_ns += t1 - t;
            spans.record("phy.bind", t, t1, parent, id);

            const auto stage = [&](Stage s, std::size_t n, auto &&task) {
                if (n == 0)
                    return; // pass-through receivers have no decode
                const std::uint64_t s0 = now_ns();
                for (std::size_t i = 0; i < n; ++i)
                    task(i);
                const std::uint64_t s1 = now_ns();
                ns[s] += s1 - s0;
                spans.record(kSpanNames[s], s0, s1, parent, id);
            };
            stage(kChanest, proc.n_chanest_tasks(),
                  [&](std::size_t i) { proc.run_chanest_task(i); });
            stage(kWeights, 1, [&](std::size_t) { proc.compute_weights(); });
            stage(kDemod, proc.n_demod_tasks(),
                  [&](std::size_t i) { proc.run_demod_task(i); });
            stage(kTailCb, proc.n_tail_tasks(),
                  [&](std::size_t i) { proc.run_tail_task(i); });
            stage(kDecodeCb, proc.n_decode_tasks(),
                  [&](std::size_t i) { proc.run_decode_task(i); });
            const lte::phy::UserResult *result = nullptr;
            stage(kTailReduce, 1,
                  [&](std::size_t) { result = &proc.finish_reduce(); });

            const lte::phy::UserTaskCosts costs = lte::phy::user_task_costs(
                user, receiver.n_antennas, false, decode);
            flops[kChanest] += costs.chanest_task * costs.n_chanest_tasks;
            flops[kWeights] += costs.weights;
            flops[kDemod] += costs.demod_task * costs.n_demod_tasks;
            flops[kTailCb] += costs.tail_task * costs.n_tail_tasks;
            flops[kDecodeCb] += costs.decode_task * costs.n_decode_tasks;
            flops[kTailReduce] += costs.tail_reduce;

            ++users;
            iterations += result->decode_iterations;
            codeblocks += proc.n_decode_tasks();
            if (!result->crc_modelled) {
                ++crc_real;
                crc_real_pass += result->crc_ok;
            }
        }
    }

    std::uint64_t total_ns = bind_ns;
    std::uint64_t stage_ns = 0;
    for (std::size_t s = 0; s < kStages; ++s)
        stage_ns += ns[s];
    total_ns += stage_ns;
    for (std::size_t s = 0; s < kStages; ++s) {
        const std::string base = std::string("phy.") + kStageNames[s];
        report.add(base + ".share",
                   stage_ns ? static_cast<double>(ns[s]) /
                                  static_cast<double>(stage_ns)
                            : 0.0,
                   "frac");
        report.add(base + ".ns_per_op",
                   flops[s] ? static_cast<double>(ns[s]) /
                                  static_cast<double>(flops[s])
                            : 0.0,
                   "ns");
    }
    report.add("phy.bind.us_per_user",
               users ? static_cast<double>(bind_ns) * 1e-3 /
                           static_cast<double>(users)
                     : 0.0,
               "us");
    const double serial_ms =
        subframes.empty() ? 0.0
                          : static_cast<double>(total_ns) * 1e-6 /
                                static_cast<double>(subframes.size());
    report.add("phy.serial_ms_per_sf", serial_ms, "ms");
    report.add("phy.decode.iters_per_cb",
               codeblocks ? static_cast<double>(iterations) /
                                static_cast<double>(codeblocks)
                          : 0.0,
               "count");
    report.add("phy.crc_pass_frac",
               crc_real ? static_cast<double>(crc_real_pass) /
                              static_cast<double>(crc_real)
                        : 0.0,
               "frac");
    return serial_ms;
}

} // namespace perfbench
