/**
 * @file
 * What one measured pass of a workload reports, shared by the figure
 * regeneration and the daemon sweeps.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "machine/stats.hh"

namespace perfbench
{

/** Deterministic machine counters summed over a pass's simulations. */
struct MachineCounts
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t cpuStallCycles = 0;
    uint64_t memStallCycles = 0;
    uint64_t dualIssueCycles = 0;

    void
    add(const mtfpu::machine::RunStats &s)
    {
        cycles += s.cycles;
        instructions += s.instructionsIssued;
        cpuStallCycles += s.cpuStallCycles;
        memStallCycles += s.memoryStallCycles;
        dualIssueCycles += s.dualIssueCycles;
    }

    void
    add(const MachineCounts &o)
    {
        cycles += o.cycles;
        instructions += o.instructions;
        cpuStallCycles += o.cpuStallCycles;
        memStallCycles += o.memStallCycles;
        dualIssueCycles += o.dualIssueCycles;
    }

    bool operator==(const MachineCounts &) const = default;
};

/** One timed pass. */
struct PassResult
{
    double wallS = 0;
    size_t jobs = 0;
    /** Simulated cycles delivered (cold and warm runs). */
    uint64_t simCycles = 0;
    /** Per job: submit (or batch start) to result in hand. */
    std::vector<double> latencyMs;
    /** Jobs that failed, were refused, quarantined or wrong. */
    size_t failed = 0;
    /** First few failure descriptions, for the log. */
    std::vector<std::string> errors;
    MachineCounts counts;
    /** Peak RSS of the benchmark process plus its largest worker. */
    double peakRssMb = 0;

    // Driver batches (figures; the sweeps' reference batch).
    double jobHostS = 0;        // sum of per-job host times
    double threadWallS = 0;     // sum over batches of threads x wall
    double slowestJobShare = 0; // max over batches: longest job / wall

    // Client side of the daemon sweeps and probes.
    std::vector<double> submitMs;
    std::vector<double> resultMs;
    uint64_t submitAttempts = 0;
    uint64_t busyRetries = 0;

    void
    fail(std::string what)
    {
        ++failed;
        if (errors.size() < 5)
            errors.push_back(std::move(what));
    }

    /** Fold in the jobs of @p o (one client thread's share). */
    void
    absorb(const PassResult &o)
    {
        jobs += o.jobs;
        simCycles += o.simCycles;
        failed += o.failed;
        for (const std::string &e : o.errors)
            if (errors.size() < 5)
                errors.push_back(e);
        counts.add(o.counts);
        latencyMs.insert(latencyMs.end(), o.latencyMs.begin(),
                         o.latencyMs.end());
        submitAttempts += o.submitAttempts;
        busyRetries += o.busyRetries;
    }
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
