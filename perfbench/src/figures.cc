#include "figures.hh"

#include <algorithm>
#include <cmath>
#include <random>

#include "assembler/assembler.hh"
#include "baseline/hockney.hh"
#include "baseline/published.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "kernels/linpack/linpack.hh"
#include "kernels/livermore/livermore.hh"

namespace perfbench
{

using namespace mtfpu;
using kernels::livermore::hasVectorVariant;
using kernels::livermore::kNumLoops;

namespace
{

/** The paper's worked examples assume hit-free memory. */
machine::MachineConfig
idealMemory()
{
    machine::MachineConfig cfg;
    cfg.memory.modelCaches = false;
    return cfg;
}

/** Figures 5-8: the reduction and recurrence listings. */
struct Listing
{
    const char *source;
    uint64_t paperCycles;
    bool fibonacci;
};

const Listing kListings[] = {
    {"fadd f8, f0, f1\nfadd f9, f2, f3\nfadd f10, f4, f5\n"
     "fadd f11, f6, f7\nfadd f12, f8, f9\nfadd f13, f10, f11\n"
     "fadd f14, f12, f13\nhalt\n",
     12, false},
    {"fadd f9, f8, f0, vl=8, sra, srb\nhalt\n", 24, false},
    {"fadd f8, f0, f4, vl=4, sra, srb\nfadd f12, f8, f10, vl=2, sra, "
     "srb\nfadd f14, f12, f13\nhalt\n",
     12, false},
    {"fadd f2, f1, f0, vl=8, sra, srb\nhalt\n", 24, true},
};

const int kLatencyLoops[] = {1, 3, 5, 7, 11, 21};
const int kMemoryLoops[] = {1, 2, 3, 7, 9, 12};

/** The n1/2 vector-add job (Section 2.2.1). */
machine::SimJob
vectorAddJob(kernels::KernelBuilder &b, unsigned n, bool strip)
{
    b.array("x", 16);
    b.array("y", 16);
    b.array("z", 16);
    const unsigned rx = b.ireg("rx"), ry = b.ireg("ry"),
                   rz = b.ireg("rz"), rc = b.ireg("rc");
    const unsigned A = b.fgroup("A", 16);
    const unsigned B = b.fgroup("B", 16);
    b.loadBase(rx, "x");
    b.loadBase(ry, "y");
    b.loadBase(rz, "z");
    auto body = [&] {
        b.vload(A, rx, 0, 8, n);
        b.vload(B, ry, 0, 8, n);
        b.vop("fadd", A, A, B, n, true, true);
        b.vstore(A, rz, 0, 8, n);
        if (strip) {
            b.emitf("addi r%u, r%u, %u", rx, rx, 8 * n);
            b.emitf("addi r%u, r%u, %u", ry, ry, 8 * n);
            b.emitf("addi r%u, r%u, %u", rz, rz, 8 * n);
        }
    };
    if (strip)
        b.loop(rc, 1, body);
    else
        body();

    machine::SimJob job;
    job.name = "n_half/vadd" + std::to_string(n) + (strip ? "s" : "b");
    job.config = idealMemory();
    job.program = b.build();
    job.setup = [&b](machine::Machine &m) {
        b.initConstants(m.mem());
        for (unsigned i = 0; i < 16; ++i) {
            m.mem().writeDouble(b.layout().base("x") + 8 * i, 1.0 + i);
            m.mem().writeDouble(b.layout().base("y") + 8 * i, 2.0 * i);
        }
    };
    return job;
}

/** A job body that only runs the machine, under a span. */
std::function<machine::RunStats(machine::Machine &)>
plainRun(Tracer &tracer)
{
    return [&tracer](machine::Machine &m) {
        Tracer::Scope s(tracer, "machine", "run");
        return m.run();
    };
}

double
hmeanOf(const std::vector<double> &v, size_t lo, size_t hi)
{
    return harmonicMean(std::vector<double>(v.begin() + lo, v.begin() + hi));
}

} // anonymous namespace

double
fig14HmeanErrPct(const std::vector<double> &warm24)
{
    const double paper = baseline::figure14Means().warm1to24;
    return std::fabs(harmonicMean(warm24) - paper) / paper * 100.0;
}

Figures::Figures(uint64_t seed, unsigned threads, Tracer &tracer)
    : seed_(seed), threads_(threads), tracer_(tracer)
{
    for (int i = 0; i < 16; ++i)
        matrix_[i] = 0.0625 * (i + 3);
    point_ = {1.0, 2.0, 3.0, 4.0};
    buildFigures();
}

const kernels::Kernel &
Figures::kernel(int id, bool vector)
{
    const kernels::Kernel *&k = livermore_[{id, vector}];
    if (!k) {
        kernels_.push_back(kernels::livermore::make(id, vector));
        k = &kernels_.back();
    }
    return *k;
}

size_t
Figures::addKernelJob(Batch &batch, const kernels::Kernel &k,
                      const machine::MachineConfig &config)
{
    const size_t index = runs_.size();
    runs_.emplace_back();
    KernelRun &run = runs_.back();
    Tracer &tracer = tracer_;

    machine::SimJob job;
    job.name = batch.figure + "/" + k.name + "/" + k.variant;
    job.program = k.program;
    job.config = config;
    // The paper's protocol: a cold run with every cache invalid, then
    // the data re-initialized and the same program rerun warm.
    job.body = [&k, &run, &tracer, config](machine::Machine &m) {
        const auto timed = [&](const char *what) {
            Tracer::Scope s(tracer, "machine", what);
            return m.run();
        };
        double cold_check = 0, warm_check = 0;
        {
            Tracer::Scope s(tracer, "kernels", "init");
            k.init(m.mem());
        }
        run.cold = timed("run.cold");
        {
            Tracer::Scope s(tracer, "kernels", "checksum");
            cold_check = k.checksum(m.mem());
            m.resetForRun(false);
            k.init(m.mem());
        }
        run.warm = timed("run.warm");
        {
            Tracer::Scope s(tracer, "kernels", "checksum");
            warm_check = k.checksum(m.mem());
        }
        const double want = k.reference();
        const double err = std::max(relativeError(cold_check, want),
                                    relativeError(warm_check, want));
        run.valid = err <= k.tolerance ||
                    (k.tolerance == 0.0 && cold_check == want &&
                     warm_check == want);
        run.mflopsCold = run.cold.mflops(k.flops, config.cycleNs);
        run.mflopsWarm = run.warm.mflops(k.flops, config.cycleNs);
        return run.warm;
    };
    batch.jobs.push_back(std::move(job));
    allKernelRuns_.push_back(index);
    return index;
}

void
Figures::buildFigures()
{
    const machine::MachineConfig paper;

    Batch fig5;
    fig5.figure = "fig05-08";
    for (const Listing &l : kListings) {
        machine::SimJob job;
        job.name = "fig05-08/" + std::to_string(l.paperCycles);
        job.program = assembler::assemble(l.source);
        job.config = idealMemory();
        job.body = plainRun(tracer_);
        const bool fib = l.fibonacci;
        job.setup = [fib](machine::Machine &m) {
            for (unsigned r = 0; r < (fib ? 2u : 8u); ++r)
                m.fpu().regs().writeDouble(r, fib ? 1.0 : 1.0 + r);
        };
        fig5.jobs.push_back(std::move(job));
    }
    batches_.push_back(std::move(fig5));

    Batch fig9;
    fig9.figure = "fig09";
    {
        machine::SimJob stride;
        stride.name = "fig09/stride";
        stride.config = idealMemory();
        std::string src;
        for (int i = 0; i < 8; ++i)
            src += "ldf f" + std::to_string(i) + ", " +
                   std::to_string(16 * i) + "(r1)\n";
        stride.program = assembler::assemble(src + "halt\n");
        stride.body = plainRun(tracer_);
        stride.setup = [](machine::Machine &m) {
            m.cpu().writeReg(1, 0x1000);
            for (int i = 0; i < 8; ++i)
                m.mem().writeDouble(0x1000 + 16 * i, 1.0 + i);
        };
        fig9.jobs.push_back(std::move(stride));

        machine::SimJob list;
        list.name = "fig09/list";
        list.config = idealMemory();
        src.clear();
        for (int i = 0; i < 4; ++i) {
            src += "ld  r3, 0(r2)\nldf f" + std::to_string(2 * i) +
                   ", 8(r2)\nld  r2, 0(r3)\nldf f" +
                   std::to_string(2 * i + 1) + ", 8(r3)\n";
        }
        list.program = assembler::assemble(src + "halt\n");
        list.body = plainRun(tracer_);
        list.setup = [](machine::Machine &m) {
            for (int i = 0; i < 10; ++i) {
                m.mem().write64(0x2000 + 0x100 * i,
                                0x2000 + 0x100 * (i + 1));
                m.mem().writeDouble(0x2000 + 0x100 * i + 8, 10.0 + i);
            }
            m.cpu().writeReg(2, 0x2000);
        };
        fig9.jobs.push_back(std::move(list));
    }
    batches_.push_back(std::move(fig9));

    Batch fig10;
    fig10.figure = "fig10";
    for (const char *src :
         {"fadd f2, f0, f1\nhalt\n", "fmul f2, f0, f1\nhalt\n",
          "frecip f10, f1\nfmul f11, f1, f10\nfiter f12, f10, f11\n"
          "fmul f13, f1, f12\nfiter f14, f12, f13\nfmul f15, f0, f14\n"
          "halt\n"}) {
        machine::SimJob job;
        job.name = "fig10/" + std::to_string(fig10.jobs.size());
        job.config = idealMemory();
        job.program = assembler::assemble(src);
        job.body = plainRun(tracer_);
        job.setup = [](machine::Machine &m) {
            m.fpu().regs().writeDouble(0, 1.0);
            m.fpu().regs().writeDouble(1, 3.0);
        };
        fig10.jobs.push_back(std::move(job));
    }
    batches_.push_back(std::move(fig10));

    Batch fig11;
    fig11.figure = "fig11";
    for (int id = 1; id <= kNumLoops; ++id)
        addKernelJob(fig11, kernel(id, hasVectorVariant(id)), paper);
    for (int id = 1; id <= kNumLoops; ++id)
        addKernelJob(fig11, kernel(id, false), paper);
    batches_.push_back(std::move(fig11));

    Batch fig13;
    fig13.figure = "fig13";
    fig13.jobs.push_back(kernels::graphics::makeTransformJob(
        idealMemory(), false, matrix_, point_, transformPre_));
    fig13.jobs.push_back(kernels::graphics::makeTransformJob(
        idealMemory(), true, matrix_, point_, transformFull_));
    for (machine::SimJob &job : fig13.jobs) {
        job.body = [&tracer = tracer_,
                    body = std::move(job.body)](machine::Machine &m) {
            Tracer::Scope s(tracer, "machine", "run");
            return body(m);
        };
    }
    batches_.push_back(std::move(fig13));

    Batch fig14;
    fig14.figure = "fig14";
    fig14ScalarOf_.assign(kNumLoops + 1, -1);
    for (int id = 1; id <= kNumLoops; ++id)
        fig14Runs_.push_back(
            addKernelJob(fig14, kernel(id, hasVectorVariant(id)), paper));
    for (int id = 1; id <= kNumLoops; ++id) {
        if (hasVectorVariant(id)) {
            fig14ScalarOf_[id] = static_cast<int>(
                addKernelJob(fig14, kernel(id, false), paper));
        }
    }
    batches_.push_back(std::move(fig14));

    Batch linpack;
    linpack.figure = "linpack";
    for (const bool vector : {false, true}) {
        kernels_.push_back(kernels::linpack::make(vector));
        linpackRuns_[vector] =
            addKernelJob(linpack, kernels_.back(), paper);
    }
    batches_.push_back(std::move(linpack));

    Batch nhalf;
    nhalf.figure = "n_half";
    for (unsigned n = 1; n <= 16; ++n) {
        for (const bool strip : {false, true}) {
            builders_.emplace_back();
            nhalf.jobs.push_back(vectorAddJob(builders_.back(), n, strip));
            nhalf.jobs.back().body = plainRun(tracer_);
        }
    }
    batches_.push_back(std::move(nhalf));

    Batch latency;
    latency.figure = "ablation_latency";
    const auto queueLatency = [&](const machine::MachineConfig &cfg) {
        for (int id : kLatencyLoops)
            addKernelJob(latency, kernel(id, hasVectorVariant(id)), cfg);
    };
    queueLatency(paper);
    for (unsigned lat : {1u, 2u, 3u, 4u, 6u, 8u}) {
        for (bool overlap : {true, false}) {
            machine::MachineConfig cfg;
            cfg.fpuLatency = lat;
            cfg.overlapWithVector = overlap;
            queueLatency(cfg);
        }
    }
    batches_.push_back(std::move(latency));

    Batch memory;
    memory.figure = "ablation_memory";
    const auto queueMemory = [&](const machine::MachineConfig &cfg) {
        for (int id : kMemoryLoops)
            addKernelJob(memory, kernel(id, hasVectorVariant(id)), cfg);
    };
    for (unsigned penalty : {7u, 14u, 28u, 56u}) {
        machine::MachineConfig cfg;
        cfg.memory.dataCache.missPenalty = penalty;
        cfg.memory.instrCache.missPenalty = penalty;
        queueMemory(cfg);
    }
    queueMemory(idealMemory());
    for (unsigned store_cycles : {1u, 2u, 3u}) {
        machine::MachineConfig cfg;
        cfg.storeCycles = store_cycles;
        queueMemory(cfg);
    }
    batches_.push_back(std::move(memory));

    finishBatches();
}

void
Figures::finishBatches()
{
    // The seed picks the order the figures regenerate in. Inside a
    // batch the jobs keep the paper's order, so the batch-relative job
    // latencies measure the simulator, not the shuffle.
    std::mt19937_64 rng(seed_);
    std::shuffle(batches_.begin(), batches_.end(), rng);
    for (size_t b = 0; b < batches_.size(); ++b) {
        Batch &batch = batches_[b];
        const size_t n = batch.jobs.size();
        batch.started.resize(n);
        batch.spans.assign(n, Tracer::kNone);

        // Stamp each job's start on its worker: host time runs from
        // the SimDriver handing over the built Machine to the result
        // callback. One trace id per job.
        for (size_t i = 0; i < n; ++i) {
            machine::SimJob &job = batch.jobs[i];
            job.setup = [this, &batch, id = (b + 1) * 1000 + i, i,
                         name = job.name,
                         setup = std::move(job.setup)](machine::Machine &m) {
                batch.started[i] = Clock::now();
                batch.spans[i] = tracer_.open("driver", name, traceBase_ + id,
                                              batch.batchSpan);
                if (setup)
                    setup(m);
            };
        }
    }
    stats_.resize(batches_.size());
}

std::vector<kernels::Kernel>
fig14Kernels()
{
    std::vector<kernels::Kernel> out;
    for (int id = 1; id <= kNumLoops; ++id)
        out.push_back(kernels::livermore::make(id, hasVectorVariant(id)));
    for (int id = 1; id <= kNumLoops; ++id) {
        if (hasVectorVariant(id))
            out.push_back(kernels::livermore::make(id, false));
    }
    return out;
}

PassResult
Figures::runPass()
{
    PassResult pass;
    traceBase_ += 100000; // one trace id per job per pass
    const Clock::time_point pass_start = Clock::now();
    Tracer::Scope pass_span(tracer_, "bench", "figures.pass");

    for (size_t b = 0; b < batches_.size(); ++b) {
        Batch &batch = batches_[b];
        const size_t n = batch.jobs.size();
        std::vector<double> latency(n, 0), host(n, 0);
        Tracer::Scope batch_span(tracer_, "driver",
                                 "SimDriver::run " + batch.figure);
        batch.batchSpan = batch_span.id();

        machine::SimDriver driver(threads_, false);
        const Clock::time_point batch_start = Clock::now();
        driver.setResultCallback(
            [&](size_t i, const machine::SimJobResult &) {
                const Clock::time_point now = Clock::now();
                latency[i] = seconds(batch_start, now) * 1e3;
                host[i] = seconds(batch.started[i], now);
                tracer_.close(batch.spans[i]);
            });
        const std::vector<machine::SimJobResult> results =
            driver.run(batch.jobs);
        const double batch_wall = seconds(batch_start, Clock::now());

        pass.threadWallS += driver.threadsFor(n) * batch_wall;
        std::vector<machine::RunStats> &stats = stats_[b];
        stats.assign(n, {});
        for (size_t i = 0; i < n; ++i) {
            if (!results[i].ok)
                pass.fail(batch.jobs[i].name + ": " + results[i].error);
            stats[i] = results[i].stats;
            pass.latencyMs.push_back(latency[i]);
            pass.jobHostS += host[i];
            pass.slowestJobShare =
                std::max(pass.slowestJobShare, host[i] / batch_wall);
        }
        pass.jobs += n;
    }
    pass.wallS = seconds(pass_start, Clock::now());

    // Cycles delivered: both runs of a cold+warm kernel job, the one
    // run of every other job.
    for (size_t b = 0; b < batches_.size(); ++b) {
        for (const machine::RunStats &s : stats_[b])
            pass.counts.add(s);
    }
    for (const size_t r : allKernelRuns_)
        pass.counts.add(runs_[r].cold);
    pass.simCycles = pass.counts.cycles;

    checkPass(pass);
    return pass;
}

const std::vector<machine::RunStats> &
Figures::statsOf(const std::string &figure) const
{
    for (size_t b = 0; b < batches_.size(); ++b) {
        if (batches_[b].figure == figure)
            return stats_[b];
    }
    fatal("no figure batch " + figure);
}

void
Figures::checkPass(PassResult &pass)
{
    // Determinism: every pass reproduces the first bit for bit.
    if (firstPass_.empty())
        firstPass_ = stats_;
    else if (firstPass_ != stats_)
        pass.fail("figure stats differ from the first pass");

    for (const size_t r : allKernelRuns_) {
        if (!runs_[r].valid)
            pass.fail("kernel run " + std::to_string(r) +
                      " failed checksum validation");
    }

    // Figures 5-8: 12 / 24 / 12 / 24 cycles.
    const std::vector<machine::RunStats> &fig5 = statsOf("fig05-08");
    for (size_t i = 0; i < std::size(kListings); ++i) {
        if (fig5[i].cycles != kListings[i].paperCycles)
            pass.fail("fig05-08 listing " + std::to_string(i) + ": " +
                      std::to_string(fig5[i].cycles) + " cycles");
    }

    // Figure 13: 35 cycles preloaded, 16 more to load the matrix,
    // bit-exact against the host reference.
    if (transformPre_.cycles != 35 ||
        transformFull_.cycles - transformPre_.cycles != 16)
        pass.fail("fig13: " + std::to_string(transformPre_.cycles) +
                  " / " + std::to_string(transformFull_.cycles) +
                  " cycles");
    const auto want =
        kernels::graphics::referenceTransform(matrix_, point_);
    for (int i = 0; i < 4; ++i) {
        if (transformPre_.out[i] != want[i])
            pass.fail("fig13: result differs from the host reference");
    }

    // Figure 14 shape checks.
    std::vector<double> cold, warm, vec, sca;
    for (int id = 1; id <= kNumLoops; ++id) {
        const KernelRun &r = runs_[fig14Runs_[id - 1]];
        cold.push_back(r.mflopsCold);
        warm.push_back(r.mflopsWarm);
        if (fig14ScalarOf_[id] >= 0) {
            vec.push_back(r.mflopsWarm);
            sca.push_back(runs_[fig14ScalarOf_[id]].mflopsWarm);
        }
    }
    for (size_t i = 0; i < warm.size(); ++i) {
        if (warm[i] < cold[i])
            pass.fail("fig14: loop " + std::to_string(i + 1) +
                      " warm < cold");
    }
    if (hmeanOf(warm, 0, 12) <= hmeanOf(warm, 12, 24))
        pass.fail("fig14: loops 1-12 warm HM not above loops 13-24");
    if (harmonicMean(vec) <= harmonicMean(sca))
        pass.fail("fig14: vectorization does not speed up");
    fig14ErrPct_ = perfbench::fig14HmeanErrPct(warm);

    // Linpack: vector beats scalar. n1/2: within the paper's band.
    if (runs_[linpackRuns_[1]].mflopsWarm <=
        runs_[linpackRuns_[0]].mflopsWarm)
        pass.fail("linpack: vector not faster than scalar");
    std::vector<std::pair<double, double>> strip;
    const std::vector<machine::RunStats> &nhalf = statsOf("n_half");
    for (unsigned n = 1; n <= 16; ++n)
        strip.emplace_back(n, static_cast<double>(
                                  nhalf[(n - 1) * 2 + 1].cycles));
    const double n_half = baseline::fitHockney(strip).nHalf;
    if (!(n_half >= 2.0 && n_half <= 8.0))
        pass.fail("n_half: n1/2 = " + std::to_string(n_half));
}

} // namespace perfbench
