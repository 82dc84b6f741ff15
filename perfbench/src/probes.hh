/**
 * @file
 * Layer probes of the traced run: the same job timed at each layer it
 * passes through, through each layer's public functions — one softfp
 * op, the Machine cycle loop, kernel building, JobSpec resolution,
 * the SimDriver batch, the ResultCache, a worker process, and the
 * daemon over a Unix socket and over TCP. Every probe runs under a
 * span; every metric is a median or mean over repetitions of the
 * probe within one run, so the same-run ratios need no other machine.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <map>
#include <string>
#include <vector>

#include "machine/sim_job.hh"
#include "service/job_spec.hh"
#include "sweep.hh"
#include "trace.hh"
#include "workload.hh"

namespace perfbench
{

struct ProbeInput
{
    /** The seed's sweep spec set, resolved, with direct-run stats. */
    const std::vector<mtfpu::service::JobSpec> &specs;
    const std::vector<mtfpu::machine::SimJob> &jobs;
    const std::vector<mtfpu::machine::RunStats> &reference;
    SweepEnv env;
    uint64_t seed = 0;
};

struct ProbeOutput
{
    /** Per-layer metric name -> value. */
    std::map<std::string, double> metrics;
    /** The probe daemon's sequential cold pass (client-side view). */
    PassResult pooledPass;
    /** Every wrong or failed probe result. */
    PassResult checks;
    /** The probe daemon's census after its cold and warm pass. */
    uint64_t workerCrashes = 0;
    uint64_t workerRespawns = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
};

/** Run every probe; wrong results are recorded in checks. */
ProbeOutput runProbes(const ProbeInput &in, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
