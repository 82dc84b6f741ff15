#include "sweep.hh"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <numeric>
#include <random>
#include <thread>

#include "common/sim_error.hh"
#include "kernels/livermore/livermore.hh"

namespace perfbench
{

using namespace mtfpu;

std::vector<service::JobSpec>
sweepSpecs(uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<service::JobSpec> specs;
    for (int id = 1; id <= kernels::livermore::kNumLoops; ++id) {
        for (const bool vector : {false, true}) {
            if (vector && !kernels::livermore::hasVectorVariant(id))
                continue;
            for (const unsigned penalty : {10u, 14u, 18u}) {
                service::JobSpec spec;
                spec.kind = service::JobKind::Kernel;
                spec.kernel = "lfk" + std::string(id < 10 ? "0" : "") +
                              std::to_string(id) +
                              (vector ? ":vector" : ":scalar");
                spec.config.memory.dataCache.missPenalty = penalty;
                spec.config.memory.instrCache.missPenalty = penalty;
                spec.config.fpuLatency = 2 + static_cast<unsigned>(rng() % 3);
                spec.name = spec.kernel + "/mp" + std::to_string(penalty) +
                            "/lat" + std::to_string(spec.config.fpuLatency);
                specs.push_back(std::move(spec));
            }
        }
    }
    for (int shard = 0; shard < 40; ++shard) {
        service::JobSpec spec;
        spec.kind = service::JobKind::Fuzz;
        spec.fuzzSeed = rng();
        spec.config.maxCycles = 2'000'000;
        spec.config.memory.memBytes = 256 * 1024;
        spec.name = "fuzz/" + std::to_string(spec.fuzzSeed);
        specs.push_back(std::move(spec));
    }
    return specs;
}

Sweep::Sweep(bool warm, const std::vector<service::JobSpec> &specs,
             const std::vector<machine::RunStats> &reference,
             const SweepEnv &env, uint64_t seed, Tracer &tracer)
    : warm_(warm), specs_(specs), reference_(reference), tracer_(tracer),
      order_(specs.size()), rng_(seed)
{
    std::iota(order_.begin(), order_.end(), 0);
    service::ServerConfig config;
    if (warm)
        config.listenAddr = "127.0.0.1:0";
    else
        config.socketPath = env.workDir + "/sweep.sock";
    config.threads = env.threads;
    config.cacheDir = env.workDir + "/cache";
    config.crashDir = env.workDir + "/crash";
    config.workerPath = env.workerPath;
    server_ = std::make_unique<service::SimServer>(config);
    server_->start();

    const std::string address =
        warm ? "tcp:127.0.0.1:" + std::to_string(server_->tcpPort())
             : config.socketPath;
    for (unsigned t = 0; t < env.threads; ++t)
        clients_.push_back(
            std::make_unique<service::SimClient>(address, 10000));

    // Spawn every worker: one job per slot, all in flight together,
    // each long enough that no slot frees before the last dispatch.
    std::vector<std::thread> spawners;
    std::mutex failure_mutex;
    std::string failure;
    for (unsigned t = 0; t < env.threads; ++t) {
        spawners.emplace_back([&, t] {
            service::JobSpec spec;
            spec.name = "spawn-" + std::to_string(t);
            spec.assembly = "        addi r1, r0, " +
                            std::to_string(8000 + t) +
                            "\nloop:   subi r1, r1, 1\n"
                            "        bne  r1, r0, loop\n"
                            "        nop\n        halt\n";
            std::string error;
            try {
                const uint64_t id = clients_[t]->submit(spec);
                error = clients_[t]->resultWait(id, 60000).error;
            } catch (const std::exception &err) {
                error = err.what();
            }
            std::lock_guard<std::mutex> lock(failure_mutex);
            if (!error.empty())
                failure = error;
        });
    }
    for (std::thread &t : spawners)
        t.join();
    if (!failure.empty())
        fatal(ErrCode::Io, "sweep set-up: a worker did not start: " + failure);

    if (warm) {
        // One `mtfpu-cli sweep` fills the cache: one connection.
        const PassResult fill = sweepOnce(1, false);
        if (fill.failed)
            fatal(ErrCode::Io, "sweep set-up: the fill pass failed: " +
                                   fill.errors.front());
    }
}

Sweep::~Sweep()
{
    try {
        if (!clients_.empty())
            clients_.front()->shutdown();
    } catch (const std::exception &) {
        // The daemon is going away either way; stop() below joins it.
    }
    clients_.clear();
    server_->stop();
    server_->serve();
}

service::SimClient::Health
Sweep::health()
{
    return clients_.front()->health();
}

PassResult
Sweep::runPass()
{
    if (!warm_)
        clients_.front()->cacheClear(); // untimed: every job misses
    std::shuffle(order_.begin(), order_.end(), rng_);
    return sweepOnce(clients_.size(), true);
}

PassResult
Sweep::sweepOnce(size_t connections, bool check)
{
    const uint64_t pass_no = ++passes_;
    PassResult pass;
    std::mutex merge;
    std::vector<std::thread> threads;
    Tracer::Scope pass_span(tracer_, "bench",
                            warm_ ? "sweep_warm.pass" : "sweep_cold.pass");
    const int64_t parent = pass_span.id();
    Clock::time_point first = Clock::time_point::max();
    Clock::time_point last = Clock::time_point::min();

    // As `mtfpu-cli sweep` does, on each connection: submit every spec
    // of its share, then wait for each result in submission order. The
    // connections split the pass's order round-robin.
    for (size_t t = 0; t < connections; ++t) {
        threads.emplace_back([&, t] {
            service::SimClient &client = *clients_[t];
            std::vector<size_t> share;
            for (size_t k = t; k < order_.size(); k += connections)
                share.push_back(order_[k]);
            const size_t n = share.size();
            std::vector<uint64_t> ids(n, 0);
            std::vector<Clock::time_point> sent(n);
            std::vector<int64_t> spans(n, Tracer::kNone);
            std::vector<std::string> refused(n);
            PassResult mine;

            // Every call of a phase is caught, so the phases' spans
            // always close.
            const int64_t submitting =
                tracer_.open("client", "submit all", 0, parent);
            for (size_t j = 0; j < n; ++j) {
                const service::JobSpec &spec = specs_[share[j]];
                const uint64_t trace_id = pass_no * 1000 + share[j];
                spans[j] =
                    tracer_.openAsync("job", spec.name, trace_id, parent);
                sent[j] = Clock::now();
                Tracer::Scope s(tracer_, "server", "SimClient::submit",
                                trace_id);
                ++mine.submitAttempts;
                try {
                    ids[j] = client.submit(spec);
                } catch (const SimError &err) {
                    // No Busy retry: this daemon has no queue bound,
                    // per-client cap or drain, so a Busy is a fault.
                    if (err.code() == ErrCode::Busy)
                        ++mine.busyRetries;
                    refused[j] = std::string("submit: ") + err.what();
                } catch (const std::exception &err) {
                    refused[j] = std::string("submit: ") + err.what();
                }
            }
            tracer_.close(submitting);

            const int64_t waiting =
                tracer_.open("client", "wait all", 0, parent);
            for (size_t j = 0; j < n; ++j) {
                const size_t i = share[j];
                const service::JobSpec &spec = specs_[i];
                try {
                    if (!refused[j].empty())
                        throw std::runtime_error(refused[j]);
                    machine::SimJobResult result;
                    {
                        Tracer::Scope s(tracer_, "server",
                                        "SimClient::resultWait",
                                        pass_no * 1000 + i);
                        result = client.resultWait(ids[j], 120000);
                    }
                    mine.latencyMs.push_back(
                        seconds(sent[j], Clock::now()) * 1e3);
                    mine.counts.add(result.stats);
                    mine.simCycles += result.stats.cycles;
                    if (!result.ok)
                        mine.fail(spec.name + ": " + result.error);
                    else if (!(result.stats == reference_[i]))
                        mine.fail(spec.name +
                                  ": stats differ from the direct run");
                    else if (check && result.fromCache != warm_)
                        mine.fail(spec.name + (warm_ ? ": not served "
                                                       "from the cache"
                                                     : ": served from "
                                                       "the cache"));
                } catch (const std::exception &err) {
                    mine.fail(spec.name + ": " + err.what());
                }
                tracer_.close(spans[j]);
                ++mine.jobs;
            }
            tracer_.close(waiting);
            const Clock::time_point done = Clock::now();
            std::lock_guard<std::mutex> lock(merge);
            if (n > 0) {
                first = std::min(first, sent.front());
                last = std::max(last, done);
            }
            pass.absorb(mine);
        });
    }
    for (std::thread &t : threads)
        t.join();
    pass.wallS = last > first ? seconds(first, last) : 0;
    return pass;
}

} // namespace perfbench
