#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>

#include "common/types.hpp"
#include "power/power_model.hpp"

namespace perfbench {

std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
seconds_since(std::uint64_t start_ns)
{
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

unsigned
usable_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MB
}

unsigned
live_threads()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "Threads:") {
            unsigned n = 0;
            status >> n;
            return n;
        }
    }
    return 0;
}

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back(Metric{name, value, unit});
}

void
Report::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    std::cout << "CHECK FAILED: " << what << "\n";
}

std::int64_t
SpanLog::record(const char *name, std::uint64_t start_ns,
                std::uint64_t end_ns, std::int64_t parent,
                std::uint64_t subframe)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start_ns, end_ns, parent, subframe});
    return static_cast<std::int64_t>(spans_.size() - 1);
}

std::int64_t
SpanLog::open(const char *name, std::int64_t parent)
{
    const std::uint64_t t = now_ns();
    return record(name, t, t, parent);
}

void
SpanLog::close(std::int64_t id)
{
    if (!enabled_ || id < 0)
        return;
    const std::uint64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    if (!os)
        return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"id\":" << i << ",\"name\":\"" << s.name
           << "\",\"start_ns\":" << s.start_ns
           << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent;
        if (s.subframe != kNoSubframe) {
            os << ",\"cell\":" << (s.subframe >> 32)
               << ",\"subframe\":" << (s.subframe & 0xffffffffu);
        }
        os << "}\n";
    }
    return static_cast<bool>(os);
}

double
quantile(std::vector<double> &values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t i = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[i - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t
random_input_key(const lte::phy::UserParams &user)
{
    return user.prb;
}

std::uint64_t
realistic_input_key(const lte::phy::UserParams &user)
{
    return (static_cast<std::uint64_t>(user.id) << 32) |
           (static_cast<std::uint64_t>(user.prb) << 16) |
           (static_cast<std::uint64_t>(user.layers) << 8) |
           static_cast<std::uint64_t>(user.mod);
}

// ------------------------------------------------------ StampedModel

StampedModel::StampedModel(lte::workload::ParameterModel &inner,
                           std::size_t cell, InputKeyFn key_fn,
                           SpanLog &spans)
    : inner_(inner), cell_(cell), key_fn_(std::move(key_fn)),
      spans_(spans)
{
}

void
StampedModel::begin_phase(std::size_t capacity, std::int64_t parent,
                          std::uint64_t base)
{
    parent_ = parent;
    base_ = base;
    draw_ns_.clear();
    draw_ns_.reserve(capacity);
    params_.resize(std::max(params_.size(), capacity));
    for (auto &p : params_)
        p.users.reserve(lte::kMaxUsersPerSubframe);
    inner_ns_ = 0;
    indices_ok_ = true;
}

lte::phy::SubframeParams
StampedModel::next_subframe()
{
    const std::uint64_t t0 = now_ns();
    lte::phy::SubframeParams params = inner_.next_subframe();
    const std::uint64_t t1 = now_ns();
    const std::size_t k = draw_ns_.size();
    draw_ns_.push_back(t0);
    inner_ns_ += t1 - t0;
    indices_ok_ = indices_ok_ && params.subframe_index == base_ + k;
    if (k < params_.size()) {
        params_[k].subframe_index = params.subframe_index;
        params_[k].cell_id = params.cell_id;
        params_[k].users.assign(params.users.begin(), params.users.end());
    }
    for (const lte::phy::UserParams &user : params.users) {
        const std::uint64_t key = key_fn_(user);
        if (warm_.insert(key).second && counting_)
            ++cold_keys_;
    }
    spans_.record("model.draw", t0, t1, parent_,
                  subframe_id(cell_, params.subframe_index));
    return params;
}

void
StampedModel::reset()
{
    inner_.reset();
    draw_ns_.clear();
}

// ------------------------------------------------------ StampingSink

StampingSink::StampingSink(std::size_t n_cells, SpanLog &spans,
                           lte::runtime::SubframeFeedbackSink *tee)
    : lanes_(n_cells), spans_(spans), tee_(tee)
{
}

void
StampingSink::begin_phase(std::size_t capacity, std::int64_t parent,
                          std::uint64_t base)
{
    parent_ = parent;
    base_ = base;
    for (Lane &lane : lanes_) {
        lane.complete_ns.assign(capacity, 0);
        lane.shed.assign(capacity, 0);
    }
    tee_ns_ = 0;
    tee_calls_ = 0;
    stray_ = 0;
}

std::uint64_t *
StampingSink::slot_of(std::uint32_t cell_id, std::uint64_t index,
                      bool shed)
{
    const std::size_t c = cell_id - 1;
    if (cell_id == 0 || c >= lanes_.size() || index < base_ ||
        index - base_ >= lanes_[c].complete_ns.size()) {
        ++stray_;
        return nullptr;
    }
    lanes_[c].shed[index - base_] = shed;
    return &lanes_[c].complete_ns[index - base_];
}

void
StampingSink::on_subframe_complete(
    const lte::runtime::SubframeOutcome &outcome,
    lte::phy::DegradeLevel level)
{
    const std::uint64_t t = now_ns();
    if (std::uint64_t *slot =
            slot_of(outcome.cell_id, outcome.subframe_index, false))
        *slot = t;
    const std::uint64_t sf =
        subframe_id(outcome.cell_id - 1, outcome.subframe_index);
    if (tee_ != nullptr) {
        tee_->on_subframe_complete(outcome, level);
        const std::uint64_t t1 = now_ns();
        tee_ns_ += t1 - t;
        ++tee_calls_;
        spans_.record("mac.feedback", t, t1, parent_, sf);
    } else {
        spans_.record("engine.complete", t, t, parent_, sf);
    }
}

void
StampingSink::on_subframe_shed(std::uint32_t cell_id,
                               std::uint64_t subframe_index)
{
    const std::uint64_t t = now_ns();
    if (std::uint64_t *slot = slot_of(cell_id, subframe_index, true))
        *slot = t;
    const std::uint64_t sf = subframe_id(cell_id - 1, subframe_index);
    if (tee_ != nullptr) {
        tee_->on_subframe_shed(cell_id, subframe_index);
        const std::uint64_t t1 = now_ns();
        tee_ns_ += t1 - t;
        ++tee_calls_;
        spans_.record("mac.feedback_shed", t, t1, parent_, sf);
    } else {
        spans_.record("engine.shed", t, t, parent_, sf);
    }
}

// ------------------------------------------------------ PacedTally

PacedTally
tally_paced(const std::vector<StampedModel *> &models,
            const StampingSink &sink, std::uint64_t t0_ns,
            double period_ms, double deadline_ms)
{
    PacedTally tally;
    tally.on_time.resize(models.size());
    for (std::size_t c = 0; c < models.size(); ++c) {
        const StampedModel &model = *models[c];
        tally.on_time[c].assign(model.draws(), 0);
        for (std::size_t k = 0; k < model.draws(); ++k) {
            const double due_ms =
                static_cast<double>(t0_ns) * 1e-6 +
                static_cast<double>(k) * period_ms;
            ++tally.submitted;
            tally.lag_ms.push_back(
                static_cast<double>(model.draw_ns(k)) * 1e-6 - due_ms);
            const std::uint64_t done = sink.complete_ns(c, k);
            if (done == 0) {
                ++tally.unresolved;
            } else if (sink.shed(c, k)) {
                ++tally.shed;
            } else {
                ++tally.completed;
                const double latency =
                    static_cast<double>(done) * 1e-6 - due_ms;
                tally.latency_ms.push_back(latency);
                tally.latency_tick.push_back(k);
                if (latency > deadline_ms)
                    ++tally.late;
                else
                    tally.on_time[c][k] = 1;
            }
        }
    }
    return tally;
}

double
windowed_quantile(const PacedTally &tally, std::size_t ticks,
                  std::size_t windows, double q)
{
    std::vector<std::vector<double>> slices(windows);
    for (std::size_t i = 0; i < tally.latency_ms.size(); ++i) {
        const std::size_t w = std::min(
            windows - 1, tally.latency_tick[i] * windows / ticks);
        slices[w].push_back(tally.latency_ms[i]);
    }
    std::vector<double> per_window;
    for (std::vector<double> &slice : slices)
        if (!slice.empty())
            per_window.push_back(quantile(slice, q));
    return median(per_window);
}

double
energy_mj_per_subframe(double wall_s, double activity, std::size_t workers,
                       std::size_t subframes)
{
    lte::power::PowerModelConfig pc;
    pc.base_power_w *= static_cast<double>(workers) /
                       static_cast<double>(pc.total_cores);
    lte::sim::SimInterval interval;
    interval.dur = wall_s;
    interval.busy_cs = activity * static_cast<double>(workers) * wall_s;
    interval.nap_idle_cs =
        static_cast<double>(workers) * wall_s - interval.busy_cs;
    const double watts = lte::power::PowerModel(pc).interval_power(interval);
    return 1e3 * watts * wall_s / static_cast<double>(subframes);
}

std::string
format_list(const std::vector<double> &values)
{
    std::string out;
    for (double v : values) {
        out += ' ';
        out += std::to_string(std::llround(v));
    }
    return out;
}

std::size_t
sized(double seconds, double share, double per_second, std::size_t floor)
{
    return std::max(floor, static_cast<std::size_t>(
                               std::llround(seconds * share * per_second)));
}

void
info(const std::string &line)
{
    std::cout << line << "\n" << std::flush;
}

} // namespace perfbench
