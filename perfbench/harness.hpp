/**
 * @file
 * Shared plumbing of the benchmark binary: the result record, the
 * benchmark-side span log, the subframe stamping seams (a
 * ParameterModel wrapper and a SubframeFeedbackSink) and small
 * statistics helpers.
 *
 * Everything here observes the receiver from outside, through its
 * public APIs: spans wrap calls into the layers, counts come from the
 * layers' own tallies (RunRecord, ShedStats, MacStats, SimResult,
 * FleetOutcome).  Nothing in src/ is instrumented for the benchmark.
 */
#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "phy/params.hpp"
#include "runtime/feedback.hpp"
#include "workload/parameter_model.hpp"

namespace perfbench {

/** Monotonic nanoseconds (steady_clock). */
std::uint64_t now_ns();

/** Seconds elapsed since @p start_ns. */
double seconds_since(std::uint64_t start_ns);

/** Command line of one benchmark run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory the span log is written to (traced runs only). */
    std::string trace_dir = ".bench_build";
};

/** CPUs this process may run on (sched affinity, not the host's). */
unsigned usable_cpus();

/** Peak resident set of this process so far, in MB. */
double peak_rss_mb();

/** Threads currently alive in this process (/proc/self/status). */
unsigned live_threads();

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value, const std::string &unit);

    /** Record an output check; a false @p ok marks the run incorrect
     *  and prints "CHECK FAILED: <what>". */
    void check(bool ok, const std::string &what);
};

/**
 * Benchmark-side spans, kept in memory and written at exit.  A span
 * names the layer call it wraps; spans of one subframe share its
 * subframe id (cell * 2^32 + index), and parent links a span to the
 * phase or call that caused it.  Thread-safe (the sample-plane
 * producer and the dispatch thread record concurrently); disabled
 * logs cost one branch per site.
 */
class SpanLog
{
  public:
    static constexpr std::uint64_t kNoSubframe = ~std::uint64_t{0};

    explicit SpanLog(bool enabled) : enabled_(enabled)
    {
        if (enabled_)
            spans_.reserve(1u << 16);
    }

    bool enabled() const { return enabled_; }
    /** Switch recording on or off between phases (not concurrently
     *  with recording). */
    void set_enabled(bool enabled)
    {
        enabled_ = enabled;
        if (enabled_)
            spans_.reserve(1u << 16);
    }

    /** Record a finished span; returns its id (-1 when disabled). */
    std::int64_t record(const char *name, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::int64_t parent = -1,
                        std::uint64_t subframe = kNoSubframe);

    /** Open a span whose end is filled in by close(). */
    std::int64_t open(const char *name, std::int64_t parent = -1);
    void close(std::int64_t id);

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

    std::size_t size() const;

  private:
    struct Span
    {
        const char *name;
        std::uint64_t start_ns;
        std::uint64_t end_ns;
        std::int64_t parent;
        std::uint64_t subframe;
    };

    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Subframe id shared by the spans of one cell's subframe. */
inline std::uint64_t
subframe_id(std::size_t cell, std::uint64_t index)
{
    return (static_cast<std::uint64_t>(cell) << 32) | index;
}

/** Nearest-rank quantile of @p values (sorted in place); 0 if empty. */
double quantile(std::vector<double> &values, double q);

/** Median of @p values (sorted in place); 0 if empty. */
double median(std::vector<double> values);

/** Input configuration key of one user; which fields matter is the
 *  generator's choice (PRB count for random IQ, the whole shape for
 *  realistic signals). */
using InputKeyFn = std::function<std::uint64_t(const lte::phy::UserParams &)>;

/** Key of a random-IQ pool: the PRB count. */
std::uint64_t random_input_key(const lte::phy::UserParams &user);

/** Key of a realistic-signal cache entry: (id, prb, layers, mod). */
std::uint64_t realistic_input_key(const lte::phy::UserParams &user);

/**
 * ParameterModel wrapper that stamps when each subframe was actually
 * drawn (the engine asks for it right after its pacing sleep, or on
 * the sample-plane producer thread) and keeps a copy of its
 * parameters for output checks.  It also tracks the input
 * configurations requested: keys present in warm() are warm, any other
 * key requested while counting is a cold key the input generator must
 * synthesise on the hot path.
 */
class StampedModel final : public lte::workload::ParameterModel
{
  public:
    StampedModel(lte::workload::ParameterModel &inner, std::size_t cell,
                 InputKeyFn key_fn, SpanLog &spans);

    lte::phy::SubframeParams next_subframe() override;

    /** Resets the inner model and the per-phase draw record. */
    void reset() override;

    /** Start a phase of at most @p capacity draws whose subframe
     *  indices count up from @p base; @p parent is the phase span the
     *  draw spans hang off. */
    void begin_phase(std::size_t capacity, std::int64_t parent,
                     std::uint64_t base = 0);

    /** Mark input keys as warm (already synthesised in set-up). */
    void warm(std::uint64_t key) { warm_.insert(key); }
    void set_counting(bool counting) { counting_ = counting; }

    std::size_t draws() const { return draw_ns_.size(); }
    std::uint64_t draw_ns(std::size_t k) const { return draw_ns_[k]; }
    const lte::phy::SubframeParams &params(std::size_t k) const
    {
        return params_[k];
    }
    /** Summed wall time spent inside the inner model's draws. */
    std::uint64_t inner_ns() const { return inner_ns_; }
    std::uint64_t cold_keys() const { return cold_keys_; }
    /** True if draw k of the phase carried subframe index base + k. */
    bool indices_sequential() const { return indices_ok_; }

  private:
    lte::workload::ParameterModel &inner_;
    std::size_t cell_;
    InputKeyFn key_fn_;
    SpanLog &spans_;
    std::int64_t parent_ = -1;
    std::vector<std::uint64_t> draw_ns_;
    std::vector<lte::phy::SubframeParams> params_;
    std::uint64_t base_ = 0;
    std::unordered_set<std::uint64_t> warm_;
    bool counting_ = false;
    std::uint64_t cold_keys_ = 0;
    std::uint64_t inner_ns_ = 0;
    bool indices_ok_ = true;
};

/**
 * Feedback sink that stamps each subframe's completion or shed, per
 * cell, and tees the feedback on to the MAC (when one is attached),
 * timing the MAC's feedback handling.  Lane c serves cell id c + 1.
 */
class StampingSink final : public lte::runtime::SubframeFeedbackSink
{
  public:
    StampingSink(std::size_t n_cells, SpanLog &spans,
                 lte::runtime::SubframeFeedbackSink *tee = nullptr);

    /** Start a phase of @p capacity ticks per cell whose subframe
     *  indices count up from @p base. */
    void begin_phase(std::size_t capacity, std::int64_t parent,
                     std::uint64_t base = 0);

    /** Forward feedback to @p tee from now on (nullptr: stop). */
    void set_tee(lte::runtime::SubframeFeedbackSink *tee) { tee_ = tee; }

    void on_subframe_complete(const lte::runtime::SubframeOutcome &outcome,
                              lte::phy::DegradeLevel level) override;
    void on_subframe_shed(std::uint32_t cell_id,
                          std::uint64_t subframe_index) override;

    /** Resolution time of draw k of the phase; 0 = never resolved. */
    std::uint64_t complete_ns(std::size_t cell, std::size_t k) const
    {
        return lanes_[cell].complete_ns[k];
    }
    bool shed(std::size_t cell, std::size_t k) const
    {
        return lanes_[cell].shed[k] != 0;
    }
    /** Summed wall time the tee spent handling feedback, and calls. */
    std::uint64_t tee_ns() const { return tee_ns_; }
    std::uint64_t tee_calls() const { return tee_calls_; }
    /** Callbacks for an index outside the phase (a bookkeeping bug). */
    std::uint64_t stray() const { return stray_; }

  private:
    struct Lane
    {
        std::vector<std::uint64_t> complete_ns;
        std::vector<std::uint8_t> shed;
    };
    /** The lane slot of a callback, or nullptr (counted as stray). */
    std::uint64_t *slot_of(std::uint32_t cell_id, std::uint64_t index,
                           bool shed);

    std::vector<Lane> lanes_;
    SpanLog &spans_;
    lte::runtime::SubframeFeedbackSink *tee_;
    std::int64_t parent_ = -1;
    std::uint64_t base_ = 0;
    std::uint64_t tee_ns_ = 0;
    std::uint64_t tee_calls_ = 0;
    std::uint64_t stray_ = 0;
};

/**
 * Latency and deadline accounting of one paced phase: subframe k of a
 * cell was due at t0 + k * period; its latency runs from that tick to
 * the completion callback, and it misses when shed or completed later
 * than the deadline.
 */
struct PacedTally
{
    std::vector<double> latency_ms; ///< completed subframes only
    std::vector<std::size_t> latency_tick; ///< tick of each latency
    std::vector<double> lag_ms;     ///< draw time minus due tick
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t late = 0;
    std::uint64_t unresolved = 0;
    /** Completed on time (per cell and draw index). */
    std::vector<std::vector<std::uint8_t>> on_time;
};

PacedTally tally_paced(const std::vector<StampedModel *> &models,
                       const StampingSink &sink, std::uint64_t t0_ns,
                       double period_ms, double deadline_ms);

/**
 * The @p q latency quantile of each of @p windows equal tick ranges of
 * a paced phase of @p ticks ticks, and their median: a host stall that
 * hits one window does not move it.
 */
double windowed_quantile(const PacedTally &tally, std::size_t ticks,
                         std::size_t windows, double q);

/** Operations that fill @p share of @p seconds at @p per_second,
 *  at least @p floor: phases have a fixed size per --seconds, so a
 *  faster program finishes them sooner. */
std::size_t sized(double seconds, double share, double per_second,
                  std::size_t floor);

/**
 * Modelled energy per subframe of a phase: the paper's power model
 * (PowerModel), with the chip's base power sliced to the run's
 * @p workers and idle workers priced as reactive naps, applied to the
 * phase's measured worker busy time (@p activity over @p wall_s).
 */
double energy_mj_per_subframe(double wall_s, double activity,
                              std::size_t workers, std::size_t subframes);

/** " 12 15 14": whole numbers for an info line. */
std::string format_list(const std::vector<double> &values);

/** Print a progress/info line to stdout (never the last line). */
void info(const std::string &line);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
