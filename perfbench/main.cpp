/**
 * @file
 * The benchmark binary: runs one workload and prints, as the last line of
 * stdout, {"correct", "attempted", "failed", "metrics"}.  Untraced runs
 * report the end-to-end metrics, traced runs (--trace 1) the
 * per-layer metrics and write the span log.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Usually invoked through run.py, which builds this binary first.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "simd/simd.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** BENCHMARK.json's end_to_end list: every workload reports each. */
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_sf_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"goodput_mbps", "Mb/s"},
    {"energy_mj_per_subframe", "mJ"},
    {"peak_rss_mb", "MB"},
};

/** BENCHMARK.json's per_layer list; a layer a workload does not run
 *  reports 0. */
constexpr MetricSpec kPerLayer[] = {
    {"phy.chanest.share", "frac"},
    {"phy.chanest.ns_per_op", "ns"},
    {"phy.weights.share", "frac"},
    {"phy.weights.ns_per_op", "ns"},
    {"phy.demod.share", "frac"},
    {"phy.demod.ns_per_op", "ns"},
    {"phy.tail_cb.share", "frac"},
    {"phy.tail_cb.ns_per_op", "ns"},
    {"phy.decode_cb.share", "frac"},
    {"phy.decode_cb.ns_per_op", "ns"},
    {"phy.tail_reduce.share", "frac"},
    {"phy.tail_reduce.ns_per_op", "ns"},
    {"phy.bind.us_per_user", "us"},
    {"phy.serial_ms_per_sf", "ms"},
    {"phy.decode.iters_per_cb", "count"},
    {"phy.crc_pass_frac", "frac"},
    {"runtime.pool.activity", "frac"},
    {"runtime.pool.steals_per_sf", "count"},
    {"runtime.speedup_vs_serial", "x"},
    {"runtime.gops", "Gop/s"},
    {"runtime.admission.shed_frac", "frac"},
    {"runtime.admission.expired_frac", "frac"},
    {"runtime.admission.degraded_frac", "frac"},
    {"runtime.admission.dispatch_lag_p99_ms", "ms"},
    {"runtime.input.cold_keys", "count"},
    {"io.lost_frac", "frac"},
    {"io.late_frac", "frac"},
    {"mac.grant_us_per_tti", "us"},
    {"mac.feedback_us", "us"},
    {"mac.harq_residual_frac", "frac"},
    {"mac.retx_frac", "frac"},
    {"mac.real_feedback_frac", "frac"},
    {"workload.users_per_sf", "count"},
    {"workload.prb_per_sf", "count"},
    {"core.prepare_s", "s"},
    {"mgmt.policies_tried_per_chip", "count"},
    {"sim.tasks_per_s", "1/s"},
    {"sim.sf_per_s", "1/s"},
    {"power.series_us_per_ksf", "us"},
    {"miss_frac", "frac"},
    {"obs.trace_overhead_frac", "frac"},
};

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload paper_peak|turbo_mac_4cell|"
                 "city_scale --seed N --seconds S --trace 0|1\n";
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            args.trace = std::strtol(value, &end, 10) != 0;
        } else if (flag == "--trace-dir") {
            args.trace_dir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad value for " + flag).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(args.seconds > 0.0 && args.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return args;
}

/** JSON string literal of @p s (metric names and units are plain). */
std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    std::cout << "host: {\"nproc\": " << usable_cpus()
              << ", \"simd_backend\": \"" << lte::simd::backend_name()
              << "\", \"LTE_SIMD\": " << LTE_SIMD_FLAG
              << ", \"LTE_NATIVE\": " << LTE_NATIVE_FLAG
              << ", \"build_type\": \"" << LTE_BUILD_TYPE
              << "\", \"workload\": \"" << args.workload
              << "\", \"seed\": " << args.seed
              << ", \"seconds\": " << args.seconds
              << ", \"trace\": " << (args.trace ? 1 : 0) << "}\n";

    SpanLog spans(args.trace);
    Report report;
    try {
        if (args.workload == "paper_peak")
            report = run_paper_peak(args, spans);
        else if (args.workload == "turbo_mac_4cell")
            report = run_turbo_mac_4cell(args, spans);
        else if (args.workload == "city_scale")
            report = run_city_scale(args, spans);
        else
            usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << args.workload << " failed: "
                  << e.what() << "\n";
        return 1;
    }

    if (args.trace) {
        const std::string path = args.trace_dir + "/trace-" +
                                 args.workload + "-" +
                                 std::to_string(args.seed) + ".jsonl";
        if (spans.write(path))
            std::cout << "trace: " << spans.size() << " spans -> " << path
                      << "\n";
        else
            std::cout << "trace: cannot write " << path << "\n";
    }

    // Select the mode's metric list, in BENCHMARK.json order.
    std::string metrics;
    const auto emit = [&](const MetricSpec &spec, bool zero_if_absent) {
        const Metric *found = nullptr;
        for (const Metric &m : report.metrics)
            if (m.name == spec.name)
                found = &m;
        if (found == nullptr && !zero_if_absent) {
            std::cerr << "perfbench: " << args.workload
                      << " did not measure " << spec.name << "\n";
            std::exit(1);
        }
        const double value = found ? found->value : 0.0;
        if (!std::isfinite(value)) {
            std::cerr << "perfbench: " << spec.name << " is not finite\n";
            std::exit(1);
        }
        std::cout << "metric: " << spec.name << " = " << number(value)
                  << " " << spec.unit << "\n";
        if (!metrics.empty())
            metrics += ", ";
        metrics += quoted(spec.name) + ": {\"value\": " + number(value) +
                   ", \"unit\": " + quoted(spec.unit) + "}";
    };
    if (args.trace) {
        for (const MetricSpec &spec : kPerLayer)
            emit(spec, true);
    } else {
        for (const MetricSpec &spec : kEndToEnd)
            emit(spec, false);
    }
    std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": {"
              << metrics << "}}" << std::endl;
    return 0;
}
