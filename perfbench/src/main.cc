/**
 * @file
 * perfbench — the repository's end-to-end and per-layer benchmark.
 *
 *   perfbench --workload figures|sweep_cold|sweep_warm --seed N
 *             --seconds S --trace 0|1
 *
 * Sets the workload up several times (the median is setup_s), then
 * runs timed passes for S seconds, checks every result, and prints a
 * human-readable report followed, as the last line, by one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. Untraced
 * runs report the end-to-end metrics; traced runs (--trace 1)
 * alternate untraced and traced passes, run the layer probes, write
 * the spans as Chrome trace-event JSON into the current directory, and
 * report the per-layer metrics, self times and tracing overhead. The
 * daemon sockets, caches and crash reports also live in the current
 * directory, so each run should have its own.
 *
 * Exit status: 0 when every check passed, 1 when a result was wrong
 * (the report is still printed), 2 on a usage or set-up error, 3 when
 * the simulator was not built as Release.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_error.hh"
#include "figures.hh"
#include "kernels/runner.hh"
#include "machine/sim_driver.hh"
#include "probes.hh"
#include "summary.hh"
#include "sweep.hh"
#include "trace.hh"

using namespace mtfpu;
using namespace perfbench;

namespace
{

/** Set-up repetitions per workload, a fixed count so the memory
 *  history before the timed passes is the same in every run. */
size_t
setupReps(const std::string &workload)
{
    return workload == "figures" ? 15 : workload == "sweep_cold" ? 9 : 5;
}
/** Untraced passes a run makes at least. */
constexpr size_t kMinPasses = 3;
/** peak_rss_mb is the largest pass peak of the first this many
 *  untraced passes: the in-process daemon keeps every job it served,
 *  so its RSS grows with the passes a fast build fits in. */
constexpr size_t kRssPasses = 2;
/** Hard stop for the pass loop, well inside a 180 s budget. */
constexpr double kMaxPassSeconds = 120;
/** Where the daemons keep sockets, caches and crash reports. */
const std::string kWorkDir = ".";

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--workload")
            a.workload = value;
        else if (key == "--seed")
            a.seed = std::stoull(value);
        else if (key == "--seconds")
            a.seconds = std::stod(value);
        else if (key == "--trace")
            a.trace = value == "1";
        else
            throw std::invalid_argument("unknown argument " + key);
    }
    if (a.workload != "figures" && a.workload != "sweep_cold" &&
        a.workload != "sweep_warm")
        throw std::invalid_argument(
            "--workload must be figures, sweep_cold or sweep_warm");
    return a;
}

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    Summary s;
};

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("\n%s\n  %-36s %-10s %14s %14s %14s %6s %8s\n", title,
                "metric", "unit", "median", "q1", "q3", "n", "spread");
    for (const Metric &m : metrics) {
        std::printf("  %-36s %-10s %14.6g %14.6g %14.6g %6zu %7.2f%%\n",
                    m.name.c_str(), m.unit.c_str(), m.s.median, m.s.q1,
                    m.s.q3, m.s.n, 100.0 * m.s.spread());
    }
}

/** Unit of a per-layer metric, from its name. */
std::string
unitOf(const std::string &name)
{
    const auto ends = [&](const char *suffix) {
        const std::string x = suffix;
        return name.size() >= x.size() &&
               name.compare(name.size() - x.size(), x.size(), x) == 0;
    };
    if (name.find("ns_per_cycle") != std::string::npos)
        return "ns/cycle";
    if (ends("_ns"))
        return "ns";
    if (ends("_us"))
        return "us";
    if (ends("_ms") || ends("_ms_per_job") || name.rfind("self_ms.", 0) == 0)
        return "ms";
    if (ends("_pct"))
        return "%";
    if (name.find("_vs_") != std::string::npos || ends("ratio") ||
        ends("efficiency") || ends("share"))
        return "ratio";
    return "count";
}

Summary
one(double value)
{
    return summarize({value});
}

/** Per-pass values of @p fn over @p passes. */
template <typename Fn>
Summary
perPass(const std::vector<PassResult> &passes, Fn &&fn)
{
    std::vector<double> v;
    for (const PassResult &p : passes)
        v.push_back(fn(p));
    return summarize(v);
}

std::string
workerPath()
{
    const std::filesystem::path exe =
        std::filesystem::read_symlink("/proc/self/exe");
    return (exe.parent_path() / "mtfpu-workerd").string();
}

/** Live child processes of this process: the daemon's workers. */
std::vector<std::string>
childPids()
{
    std::vector<std::string> pids;
    for (const auto &task :
         std::filesystem::directory_iterator("/proc/self/task")) {
        std::ifstream in(task.path() / "children");
        for (std::string pid; in >> pid;)
            pids.push_back(pid);
    }
    return pids;
}

/** Restart the peak-RSS count of @p pid ("self" or a child). */
void
resetPeakRss(const std::string &pid)
{
    std::ofstream("/proc/" + pid + "/clear_refs") << "5\n";
}

/** Peak RSS in MB of @p pid since its last reset; 0 once it is gone. */
double
peakRssMb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    for (std::string key; in >> key;) {
        double kb = 0;
        if (key == "VmHWM:" && in >> kb)
            return kb / 1024.0;
    }
    return 0;
}

/** Peak RSS of this process plus its largest worker, over one pass. */
template <typename Fn>
PassResult
measureRss(Fn &&runPass)
{
    const std::vector<std::string> workers = childPids();
    resetPeakRss("self");
    for (const std::string &pid : workers)
        resetPeakRss(pid);
    PassResult pass = runPass();
    double worker_mb = 0;
    for (const std::string &pid : workers)
        worker_mb = std::max(worker_mb, peakRssMb(pid));
    pass.peakRssMb = peakRssMb("self") + worker_mb;
    return pass;
}

int
run(const Args &args)
{
    const std::string build_type = MTFPU_BUILD_TYPE;
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const unsigned threads = std::min(nproc, 4u);
    std::printf("context: {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"nproc\": %u, "
                "\"threads\": %u, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\"}\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, nproc, threads, build_type.c_str(),
                MTFPU_COMPILER);
    if (build_type != "Release") {
        std::fprintf(stderr,
                     "perfbench: the simulator is a %s build; timings "
                     "are recorded from Release builds only\n",
                     build_type.c_str());
        return 3;
    }

    const bool figures = args.workload == "figures";
    const bool warm = args.workload == "sweep_warm";
    Tracer tracer;
    PassResult checks; // failures outside the timed passes
    SweepEnv env{kWorkDir, workerPath(), threads};
    const Clock::time_point started = Clock::now();

    // The seed's sweep spec set and its direct SimDriver runs: the
    // sweeps' correctness reference and the probes' inputs. Untimed.
    std::vector<service::JobSpec> specs;
    std::vector<machine::SimJob> jobs;
    std::vector<machine::RunStats> reference;
    PassResult direct;
    double fig14_err = 0;
    if (!figures || args.trace) {
        specs = sweepSpecs(args.seed);
        for (const service::JobSpec &spec : specs)
            jobs.push_back(spec.resolve());
        // Stamp each job's start on its worker (a setup closure on a
        // copy: the probes need the pure originals).
        std::vector<machine::SimJob> timed = jobs;
        std::vector<Clock::time_point> begun(jobs.size());
        std::vector<double> host(jobs.size());
        for (size_t i = 0; i < timed.size(); ++i)
            timed[i].setup = [&begun, i](machine::Machine &) {
                begun[i] = Clock::now();
            };
        machine::SimDriver driver(threads, false);
        driver.setResultCallback([&](size_t i, const machine::SimJobResult &) {
            host[i] = seconds(begun[i], Clock::now());
        });
        const Clock::time_point t0 = Clock::now();
        const std::vector<machine::SimJobResult> results = driver.run(timed);
        direct.wallS = seconds(t0, Clock::now());
        direct.threadWallS = driver.threadsFor(jobs.size()) * direct.wallS;
        for (size_t i = 0; i < results.size(); ++i) {
            if (!results[i].ok)
                checks.fail(specs[i].name + ": " + results[i].error);
            reference.push_back(results[i].stats);
            direct.jobHostS += host[i];
            direct.slowestJobShare =
                std::max(direct.slowestJobShare, host[i] / direct.wallS);
        }
    }
    if (!figures) {
        // Figure 14's accuracy through runKernelBatch, for the sweeps.
        std::vector<kernels::Kernel> fig14 = fig14Kernels();
        fig14.resize(24);
        const std::vector<kernels::KernelResult> results =
            kernels::runKernelBatch(fig14, machine::MachineConfig{}, threads);
        std::vector<double> warm24;
        for (const kernels::KernelResult &r : results) {
            if (!r.valid)
                checks.fail("fig14 " + r.name + " failed validation");
            warm24.push_back(r.mflopsWarm);
        }
        fig14_err = fig14HmeanErrPct(warm24);
    }

    // Set-up, several times; the last one is measured.
    std::vector<double> setup;
    std::unique_ptr<Figures> fig;
    std::unique_ptr<Sweep> sweep;
    while (setup.size() < setupReps(args.workload)) {
        fig.reset();
        sweep.reset();
        std::filesystem::remove_all(kWorkDir + "/cache");
        const Clock::time_point t0 = Clock::now();
        if (figures)
            fig = std::make_unique<Figures>(args.seed, threads, tracer);
        else
            sweep = std::make_unique<Sweep>(warm, specs, reference, env,
                                            args.seed, tracer);
        setup.push_back(seconds(t0, Clock::now()));
    }

    // Timed passes; a traced run alternates untraced and traced ones.
    std::vector<PassResult> untraced, traced;
    service::SimClient::Health before{};
    if (sweep)
        before = sweep->health();
    const Clock::time_point pass_start = Clock::now();
    for (bool trace_next = false;; trace_next = args.trace && !trace_next) {
        const double elapsed = seconds(pass_start, Clock::now());
        const bool enough = elapsed >= args.seconds &&
                            untraced.size() >= kMinPasses &&
                            (!args.trace || traced.size() >= 2);
        if (enough || elapsed >= kMaxPassSeconds)
            break;
        tracer.setEnabled(trace_next);
        PassResult pass = measureRss([&] {
            return fig ? fig->runPass() : sweep->runPass();
        });
        tracer.setEnabled(false);
        (trace_next ? traced : untraced).push_back(std::move(pass));
    }
    const size_t passes = untraced.size() + traced.size();
    service::SimClient::Health after{};
    if (sweep) {
        after = sweep->health();
        sweep.reset(); // stop the daemon before the probes start theirs
    }
    if (fig)
        fig14_err = fig->fig14ErrPct();

    // Every pass counts toward attempted/failed.
    size_t attempted = 0, failed = checks.failed;
    for (const std::vector<PassResult> *set : {&untraced, &traced}) {
        for (const PassResult &p : *set) {
            attempted += p.jobs;
            failed += p.failed;
            for (const std::string &e : p.errors)
                std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
        }
    }
    for (const std::string &e : checks.errors)
        std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
    double peak_rss_mb = 0;
    for (size_t i = 0; i < std::min(untraced.size(), kRssPasses); ++i)
        peak_rss_mb = std::max(peak_rss_mb, untraced[i].peakRssMb);
    std::vector<Metric> e2e = {
        {"setup_s", "s", summarize(setup)},
        {"wall_s", "s", perPass(untraced, [](const PassResult &p) {
             return p.wallS;
         })},
        {"jobs_per_s", "1/s", perPass(untraced, [](const PassResult &p) {
             return static_cast<double>(p.jobs) / p.wallS;
         })},
        {"sim_mcycles_per_s", "Mcycles/s",
         perPass(untraced, [](const PassResult &p) {
             return static_cast<double>(p.simCycles) / p.wallS * 1e-6;
         })},
        {"job_latency_p50_ms", "ms",
         perPass(untraced, [](const PassResult &p) {
             return percentile(p.latencyMs, 0.50);
         })},
        {"job_latency_p90_ms", "ms",
         perPass(untraced, [](const PassResult &p) {
             return percentile(p.latencyMs, 0.90);
         })},
        {"peak_rss_mb", "MB", one(peak_rss_mb)},
        {"fig14_hmean_err_pct", "%", one(fig14_err)},
    };
    const double error_rate =
        attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                  : 1.0;
    printTable("end-to-end (untraced passes)", e2e);
    std::printf("  %-36s %-10s %14.6g   (%zu failed of %zu attempted)\n",
                "error_rate", "ratio", error_rate, failed, attempted);
    std::printf("  passes: %zu untraced, %zu traced; setup reps: %zu; "
                "latency samples per pass: %zu\n",
                untraced.size(), traced.size(), setup.size(),
                untraced.empty() ? size_t{0}
                                 : untraced.front().latencyMs.size());

    std::vector<Metric> reported = e2e;
    if (args.trace) {
        const std::map<std::string, Tracer::LayerTime> pass_layers =
            tracer.layerTimes();
        tracer.setEnabled(true);
        ProbeOutput probes =
            runProbes(ProbeInput{specs, jobs, reference, env, args.seed},
                      tracer);
        tracer.setEnabled(false);
        failed += probes.checks.failed;
        for (const std::string &e : probes.checks.errors)
            std::fprintf(stderr, "perfbench: FAILED probe %s\n", e.c_str());

        std::vector<Metric> layer;
        const auto set = [&](const std::string &name, double value) {
            layer.push_back({name, unitOf(name), one(value)});
        };
        for (const auto &[name, value] : probes.metrics)
            set(name, value);
        const PassResult &p0 = traced.front();
        set("machine.cycles", static_cast<double>(p0.counts.cycles));
        set("machine.instructions",
            static_cast<double>(p0.counts.instructions));
        set("machine.cpu_stall_cycles",
            static_cast<double>(p0.counts.cpuStallCycles));
        set("machine.mem_stall_cycles",
            static_cast<double>(p0.counts.memStallCycles));
        set("machine.dual_issue_cycles",
            static_cast<double>(p0.counts.dualIssueCycles));
        if (figures) {
            set("driver.parallel_efficiency",
                perPass(untraced, [&](const PassResult &p) {
                    return p.jobHostS / p.threadWallS;
                }).median);
            set("driver.slowest_job_share",
                perPass(untraced, [](const PassResult &p) {
                    return p.slowestJobShare;
                }).median);
        } else {
            set("driver.parallel_efficiency",
                direct.jobHostS / direct.threadWallS);
            set("driver.slowest_job_share", direct.slowestJobShare);
        }

        // Per pass of the workload's daemon; on figures, which has
        // none, the probe daemon's cold and warm pass.
        const double hits =
            figures ? static_cast<double>(probes.cacheHits)
                    : static_cast<double>(after.cacheHits - before.cacheHits) /
                          static_cast<double>(passes);
        const double misses =
            figures
                ? static_cast<double>(probes.cacheMisses)
                : static_cast<double>(after.cacheMisses - before.cacheMisses) /
                      static_cast<double>(passes);
        set("result_cache.hits", hits);
        set("result_cache.misses", misses);
        set("result_cache.hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0);
        set("worker_pool.crashes",
            static_cast<double>(after.workerCrashes + probes.workerCrashes));
        set("worker_pool.respawns", static_cast<double>(
                                        after.workerRespawns +
                                        probes.workerRespawns));

        // Client counters: the sweep's own passes, else the probe's.
        uint64_t attempts = 0, busy = 0;
        size_t client_passes = 0;
        for (const std::vector<PassResult> *set_ :
             {&untraced, &traced}) {
            for (const PassResult &p : *set_) {
                attempts += p.submitAttempts;
                busy += p.busyRetries;
                client_passes += p.submitAttempts > 0;
            }
        }
        if (figures) {
            attempts = probes.pooledPass.submitAttempts;
            busy = probes.pooledPass.busyRetries;
            client_passes = 1;
        }
        set("client.busy_retries",
            static_cast<double>(busy) / static_cast<double>(client_passes));
        set("client.accept_ratio",
            attempts ? static_cast<double>(attempts - busy) /
                           static_cast<double>(attempts)
                     : 0);

        for (const char *l :
             {"bench", "driver", "machine", "kernels", "client", "server"}) {
            const auto it = pass_layers.find(l);
            set(std::string("self_ms.") + l,
                it == pass_layers.end()
                    ? 0
                    : it->second.selfMs / static_cast<double>(traced.size()));
        }
        const double t_wall = perPass(traced, [](const PassResult &p) {
                                  return p.wallS;
                              }).median;
        const double u_wall = perPass(untraced, [](const PassResult &p) {
                                  return p.wallS;
                              }).median;
        set("trace.overhead_ms", (t_wall - u_wall) * 1e3);
        set("trace.overhead_pct", (t_wall - u_wall) / u_wall * 100.0);

        std::sort(layer.begin(), layer.end(),
                  [](const Metric &a, const Metric &b) {
                      return a.name < b.name;
                  });
        printTable("per-layer (traced run)", layer);

        std::printf("\nself time by layer, all spans (ms)\n"
                    "  %-14s %8s %12s %12s\n",
                    "layer", "spans", "total", "self");
        for (const auto &[name, lt] : tracer.layerTimes())
            std::printf("  %-14s %8llu %12.3f %12.3f\n", name.c_str(),
                        static_cast<unsigned long long>(lt.spans),
                        lt.totalMs, lt.selfMs);
        const std::string trace_path = kWorkDir + "/trace-" +
                                       args.workload + "-seed" +
                                       std::to_string(args.seed) + ".json";
        if (!tracer.writeChromeTrace(trace_path)) {
            std::fprintf(stderr, "perfbench: FAILED cannot write %s\n",
                         trace_path.c_str());
            ++failed;
        }
        std::printf("chrome trace: %s (%zu spans)\n", trace_path.c_str(),
                    tracer.size());
        reported = layer;
    }
    std::printf("total run: %.2f s\n", seconds(started, Clock::now()));

    // The result line.
    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < reported.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", reported[i].s.median);
        json += (i ? ", \"" : "\"") + reported[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                reported[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &err) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 2;
    }
}
