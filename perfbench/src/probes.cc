#include "probes.hh"

#include <cmath>
#include <filesystem>
#include <memory>
#include <random>

#include "common/sim_error.hh"
#include "kernels/linpack/linpack.hh"
#include "kernels/livermore/livermore.hh"
#include "kernels/runner.hh"
#include "machine/machine.hh"
#include "machine/result_cache.hh"
#include "machine/sim_driver.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "service/worker_pool.hh"
#include "softfp/backend.hh"
#include "softfp/fp64.hh"
#include "figures.hh"
#include "summary.hh"

namespace perfbench
{

using namespace mtfpu;

namespace
{

constexpr int kReps = 5;

/** Median wall time of @p reps calls of @p fn, in seconds. */
template <typename Fn>
double
medianSeconds(int reps, Fn &&fn)
{
    std::vector<double> s;
    for (int r = 0; r < reps; ++r) {
        const Clock::time_point t0 = Clock::now();
        fn();
        s.push_back(seconds(t0, Clock::now()));
    }
    return median(s);
}

/** ns per call of a binary softfp op over a seeded operand stream. */
double
opNs(Tracer &tracer, const char *name,
     uint64_t (*op)(uint64_t, uint64_t, softfp::Flags &),
     const std::vector<uint64_t> &a, const std::vector<uint64_t> &b,
     size_t calls)
{
    volatile uint64_t sink = 0;
    const double s = medianSeconds(kReps, [&] {
        Tracer::Scope span(tracer, "softfp", name);
        softfp::Flags flags;
        uint64_t acc = 0;
        for (size_t i = 0; i < calls; ++i) {
            const size_t k = i % a.size();
            acc ^= op(a[k], b[k], flags);
        }
        sink = sink ^ acc;
    });
    return s * 1e9 / static_cast<double>(calls);
}

void
softfpProbes(Tracer &tracer, uint64_t seed,
             std::map<std::string, double> &m)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> mant(1.0, 2.0);
    std::uniform_int_distribution<int> exp(-20, 20);
    std::vector<uint64_t> a(4096), b(4096);
    for (size_t i = 0; i < a.size(); ++i) {
        a[i] = softfp::fromDouble(std::ldexp(mant(rng), exp(rng)));
        b[i] = softfp::fromDouble(std::ldexp(mant(rng), exp(rng)));
    }
    const bool host =
        machine::MachineConfig{}.fpBackend == softfp::Backend::HostFast;
    const size_t calls = 1u << 20;
    const double add_soft = opNs(tracer, "fpAdd", softfp::fpAdd, a, b, calls);
    const double mul_soft = opNs(tracer, "fpMul", softfp::fpMul, a, b, calls);
    const double add_host =
        opNs(tracer, "fpAddHost", softfp::fpAddHost, a, b, calls);
    const double mul_host =
        opNs(tracer, "fpMulHost", softfp::fpMulHost, a, b, calls);
    m["softfp.add_ns"] = host ? add_host : add_soft;
    m["softfp.mul_ns"] = host ? mul_host : mul_soft;
    m["softfp.div_ns"] =
        opNs(tracer, "fpDivide", softfp::fpDivide, a, b, calls / 8);
    m["softfp.hostfast_vs_soft"] =
        (add_host + mul_host) / (add_soft + mul_soft);
}

/** Host ns per simulated cycle of one kernel, cold then warm. */
double
nsPerCycle(Tracer &tracer, const kernels::Kernel &k)
{
    machine::Machine m(machine::MachineConfig{});
    m.loadProgram(k.program);
    std::vector<double> ns;
    for (int r = 0; r < kReps; ++r) {
        m.resetForRun(true);
        k.init(m.mem());
        const Clock::time_point t0 = Clock::now();
        uint64_t cycles = 0;
        {
            Tracer::Scope s(tracer, "machine", k.name + "/" + k.variant);
            cycles += m.run().cycles;
            m.resetForRun(false);
            k.init(m.mem());
            cycles += m.run().cycles;
        }
        ns.push_back(seconds(t0, Clock::now()) * 1e9 /
                     static_cast<double>(cycles));
    }
    return median(ns);
}

/** One sequential pass of @p specs through a daemon at @p address. */
PassResult
sequentialPass(Tracer &tracer, const std::string &address,
               const ProbeInput &in, bool expect_cached)
{
    service::SimClient client(address, 10000);
    PassResult pass;
    for (size_t i = 0; i < in.specs.size(); ++i) {
        Tracer::Scope job(tracer, "client", in.specs[i].name,
                         1'000'000'000 + i);
        try {
            const Clock::time_point t0 = Clock::now();
            ++pass.submitAttempts;
            const uint64_t id = client.submit(in.specs[i]);
            const Clock::time_point t1 = Clock::now();
            const machine::SimJobResult r = client.resultWait(id, 120000);
            const Clock::time_point t2 = Clock::now();
            pass.submitMs.push_back(seconds(t0, t1) * 1e3);
            pass.resultMs.push_back(seconds(t1, t2) * 1e3);
            pass.latencyMs.push_back(seconds(t0, t2) * 1e3);
            if (!r.ok || !(r.stats == in.reference[i]) ||
                r.fromCache != expect_cached)
                pass.fail(in.specs[i].name + ": wrong probe result");
        } catch (const std::exception &err) {
            pass.fail(in.specs[i].name + ": " + err.what());
            pass.latencyMs.push_back(0);
        }
        ++pass.jobs;
    }
    return pass;
}

/** Mean of a[i] - b[i]. */
double
meanDelta(const std::vector<double> &a, const std::vector<double> &b)
{
    double sum = 0;
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i)
        sum += a[i] - b[i];
    return n ? sum / static_cast<double>(n) : 0;
}

} // anonymous namespace

ProbeOutput
runProbes(const ProbeInput &in, Tracer &tracer)
{
    ProbeOutput out;
    std::map<std::string, double> &m = out.metrics;
    const unsigned threads = in.env.threads;

    softfpProbes(tracer, in.seed, m);

    m["machine.ns_per_cycle.lfk21_scalar"] =
        nsPerCycle(tracer, kernels::livermore::make(21, false));
    m["machine.ns_per_cycle.lfk01_vector"] =
        nsPerCycle(tracer, kernels::livermore::make(1, true));

    std::vector<kernels::Kernel> fig14;
    m["kernels.build_ms"] = 1e3 * medianSeconds(3, [&] {
        Tracer::Scope s(tracer, "kernels", "build figure 14 + linpack");
        fig14 = fig14Kernels();
        fig14.push_back(kernels::linpack::make(false));
        fig14.push_back(kernels::linpack::make(true));
    });
    fig14.resize(fig14.size() - 2);

    // The same batch serial and parallel, through runKernelBatch.
    const machine::MachineConfig paper;
    const auto batch = [&](unsigned t) {
        return medianSeconds(3, [&] {
            Tracer::Scope s(tracer, "driver",
                            "runKernelBatch threads=" + std::to_string(t));
            kernels::runKernelBatch(fig14, paper, t);
        });
    };
    const double serial = batch(1);
    m["driver.parallel_vs_serial"] = batch(threads) / serial;

    // JobSpec: wire form back to a runnable job.
    {
        const Clock::time_point t0 = Clock::now();
        for (const service::JobSpec &spec : in.specs) {
            Tracer::Scope s(tracer, "job_spec", "parse+resolve");
            service::JobSpec::parse(spec.to_json()).resolve();
        }
        m["job_spec.resolve_us"] = seconds(t0, Clock::now()) * 1e6 /
                                   static_cast<double>(in.specs.size());
    }

    // ResultCache: stores, hits, and a hit against a cold run.
    {
        const std::string dir = in.env.workDir + "/probe-cache";
        std::filesystem::remove_all(dir);
        machine::ResultCache cache(dir);
        Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < in.jobs.size(); ++i) {
            Tracer::Scope s(tracer, "result_cache", "store");
            cache.store(in.jobs[i], in.reference[i]);
        }
        m["result_cache.store_us"] = seconds(t0, Clock::now()) * 1e6 /
                                     static_cast<double>(in.jobs.size());
        t0 = Clock::now();
        for (size_t i = 0; i < in.jobs.size(); ++i) {
            Tracer::Scope s(tracer, "result_cache", "lookup");
            const auto hit = cache.lookup(in.jobs[i]);
            if (!hit || !(*hit == in.reference[i]))
                out.checks.fail("probe cache lookup missed");
        }
        const double hit_s =
            seconds(t0, Clock::now()) / static_cast<double>(in.jobs.size());
        m["result_cache.lookup_hit_us"] = hit_s * 1e6;

        // One job: the first kernel spec of the set.
        size_t one = 0;
        while (in.specs[one].kind != service::JobKind::Kernel)
            ++one;
        const machine::SimDriver driver(1, false);
        const double cold = medianSeconds(kReps, [&] {
            Tracer::Scope s(tracer, "driver", "runAttempt");
            driver.runAttempt(in.jobs[one]);
        });
        const double lookup = medianSeconds(kReps, [&] {
            Tracer::Scope s(tracer, "result_cache", "lookup");
            cache.lookup(in.jobs[one]);
        });
        m["result_cache.hit_vs_cold"] = lookup / cold;
        std::filesystem::remove_all(dir);
    }

    // A worker process: fork, exec, ready line.
    {
        service::WorkerPoolConfig config;
        config.workerPath = in.env.workerPath;
        m["worker_pool.spawn_ms"] = 1e3 * medianSeconds(kReps, [&] {
            Tracer::Scope s(tracer, "worker_pool", "spawn");
            service::WorkerProcess worker(config);
            if (!worker.spawn())
                out.checks.fail("worker spawn failed");
            worker.kill();
        });
    }

    // Direct runAttempt time of every spec: the simulation share of
    // a daemon job's latency.
    std::vector<double> attempt_ms;
    {
        const machine::SimDriver driver(1, false);
        for (const machine::SimJob &job : in.jobs) {
            Tracer::Scope s(tracer, "driver", "runAttempt");
            const Clock::time_point t0 = Clock::now();
            driver.runAttempt(job);
            attempt_ms.push_back(seconds(t0, Clock::now()) * 1e3);
        }
    }

    // The daemon, pooled and in-process, one client, one job at a time.
    const auto daemon = [&](bool inproc, const std::string &name) {
        service::ServerConfig config;
        config.socketPath = in.env.workDir + "/" + name + ".sock";
        config.listenAddr = "127.0.0.1:0";
        config.threads = threads;
        config.cacheDir = in.env.workDir + "/" + name + "-cache";
        config.crashDir = in.env.workDir + "/crash";
        config.workerPath = in.env.workerPath;
        config.inproc = inproc;
        std::filesystem::remove_all(config.cacheDir);
        return std::make_unique<service::SimServer>(config);
    };
    const auto stopDaemon = [](service::SimServer &server) {
        server.stop();
        server.serve();
        std::filesystem::remove_all(server.config().cacheDir);
    };

    std::unique_ptr<service::SimServer> pooled = daemon(false, "probe");
    pooled->start();
    const std::string unix_addr = pooled->config().socketPath;
    const std::string tcp_addr =
        "tcp:127.0.0.1:" + std::to_string(pooled->tcpPort());
    for (const auto &[name, address] :
         {std::pair{"wire.unix.rtt_us", unix_addr},
          std::pair{"wire.tcp.rtt_us", tcp_addr}}) {
        service::SimClient client(address, 10000);
        std::vector<double> us;
        for (int i = 0; i < 200; ++i) {
            Tracer::Scope s(tracer, "wire", "ping");
            const Clock::time_point t0 = Clock::now();
            client.ping();
            us.push_back(seconds(t0, Clock::now()) * 1e6);
        }
        m[name] = median(us);
    }
    out.pooledPass = sequentialPass(tracer, unix_addr, in, false);
    const PassResult hits = sequentialPass(tracer, unix_addr, in, true);
    const service::SimClient::Health health =
        service::SimClient(unix_addr, 10000).health();
    out.workerCrashes = health.workerCrashes;
    out.workerRespawns = health.workerRespawns;
    out.cacheHits = health.cacheHits;
    out.cacheMisses = health.cacheMisses;
    stopDaemon(*pooled);

    std::unique_ptr<service::SimServer> inproc = daemon(true, "inproc");
    inproc->start();
    const PassResult local =
        sequentialPass(tracer, inproc->config().socketPath, in, false);
    stopDaemon(*inproc);

    m["server.submit_us"] = 1e3 * median(out.pooledPass.submitMs);
    m["server.result_us"] = 1e3 * median(hits.resultMs);
    m["server.overhead_ms_per_job"] =
        meanDelta(out.pooledPass.latencyMs, attempt_ms);
    m["worker_pool.overhead_ms_per_job"] =
        meanDelta(out.pooledPass.latencyMs, local.latencyMs);
    for (const PassResult *pass : std::initializer_list<const PassResult *>{
             &out.pooledPass, &hits, &local}) {
        for (const std::string &e : pass->errors)
            out.checks.fail(e);
        out.checks.failed += pass->failed - pass->errors.size();
    }
    return out;
}

} // namespace perfbench
