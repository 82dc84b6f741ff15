/**
 * @file
 * The daemon sweeps: a seeded set of JobSpecs pushed through an
 * in-process SimServer running the real mtfpu-workerd pool, by one
 * client process with one thread (and connection) per pool slot. Each
 * connection drives its share of the specs as `mtfpu-cli sweep` does:
 * submit them all, then wait for each result. `sweep_cold` talks over a Unix socket and clears the
 * result cache (untimed) before every pass, so each job simulates in
 * a worker and is stored; `sweep_warm` talks over TCP loopback to a
 * daemon whose cache already holds every result, so each job is a
 * cache read.
 */

#ifndef PERFBENCH_SWEEP_HH
#define PERFBENCH_SWEEP_HH

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "machine/stats.hh"
#include "service/client.hh"
#include "service/job_spec.hh"
#include "service/server.hh"
#include "trace.hh"
#include "workload.hh"

namespace perfbench
{

/**
 * The sweep's spec set for @p seed: every Livermore loop in scalar
 * and (where it exists) vector form, each under miss penalties 10, 14
 * and 18 with a seed-picked FPU latency, plus seed-picked fuzz shards.
 */
std::vector<mtfpu::service::JobSpec> sweepSpecs(uint64_t seed);

/** Where a sweep's daemon keeps its files and finds its workers. */
struct SweepEnv
{
    std::string workDir;    // cache, crash reports (relative is fine)
    std::string workerPath; // mtfpu-workerd
    unsigned threads = 1;   // pool slots = client threads
};

class Sweep
{
  public:
    /**
     * Set up: start the daemon, connect and handshake every client,
     * spawn every worker, and for a warm sweep run the fill pass.
     * @p reference holds the direct SimDriver stats of each spec.
     */
    Sweep(bool warm, const std::vector<mtfpu::service::JobSpec> &specs,
          const std::vector<mtfpu::machine::RunStats> &reference,
          const SweepEnv &env, uint64_t seed, Tracer &tracer);
    ~Sweep();

    Sweep(const Sweep &) = delete;
    Sweep &operator=(const Sweep &) = delete;

    /** One timed pass over every spec, in a fresh seeded order. */
    PassResult runPass();

    /** The daemon's census (pool crashes/respawns, cache counters). */
    mtfpu::service::SimClient::Health health();

  private:
    /** Sweep every spec once, split over the first @p connections. */
    PassResult sweepOnce(size_t connections, bool check);

    bool warm_;
    const std::vector<mtfpu::service::JobSpec> &specs_;
    const std::vector<mtfpu::machine::RunStats> &reference_;
    Tracer &tracer_;
    uint64_t passes_ = 0;
    std::vector<size_t> order_; // submission order of the next pass
    std::mt19937_64 rng_;
    std::unique_ptr<mtfpu::service::SimServer> server_;
    std::vector<std::unique_ptr<mtfpu::service::SimClient>> clients_;
};

} // namespace perfbench

#endif // PERFBENCH_SWEEP_HH
