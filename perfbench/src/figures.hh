/**
 * @file
 * The `figures` workload: a library-only regeneration of every paper
 * table and figure batch — Figs. 5-8, 9, 10, 11, 13, 14, Linpack,
 * n1/2 and the latency and memory ablations — each figure one
 * SimDriver batch at a fixed thread count, kernels measured with the
 * paper's cold-then-warm protocol, no result cache attached.
 *
 * Construction builds every program (the set-up a figure run pays);
 * runPass() simulates the whole regeneration once and checks it
 * against the paper's anchors.
 */

#ifndef PERFBENCH_FIGURES_HH
#define PERFBENCH_FIGURES_HH

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernels/builder.hh"
#include "kernels/graphics/transform.hh"
#include "kernels/kernel.hh"
#include "machine/sim_driver.hh"
#include "trace.hh"
#include "workload.hh"

namespace perfbench
{

/** The Figure 14 Livermore set: the 24 loops in their preferred
 *  form, then the scalar rerun of each vectorizable loop. */
std::vector<mtfpu::kernels::Kernel> fig14Kernels();

/** |harmonic mean of @p warm24 (loops 1-24 warm MFLOPS) - the
 *  paper's| / the paper's, in percent. */
double fig14HmeanErrPct(const std::vector<double> &warm24);

class Figures
{
  public:
    /** Build every figure's programs; @p seed orders the figures. */
    Figures(uint64_t seed, unsigned threads, Tracer &tracer);

    Figures(const Figures &) = delete;
    Figures &operator=(const Figures &) = delete;

    /** Simulate every figure batch once and check the results. */
    PassResult runPass();

    /** |warm LFK 1-24 harmonic-mean MFLOPS - paper| / paper, in %,
     *  from the last pass. */
    double fig14ErrPct() const { return fig14ErrPct_; }

  private:
    /** Cold+warm outcome of one kernel job. */
    struct KernelRun
    {
        mtfpu::machine::RunStats cold;
        mtfpu::machine::RunStats warm;
        bool valid = false;
        double mflopsWarm = 0;
        double mflopsCold = 0;
    };

    struct Batch
    {
        std::string figure;
        std::vector<mtfpu::machine::SimJob> jobs;
        // Per-pass job bookkeeping, written by the driver's workers.
        std::vector<Clock::time_point> started;
        std::vector<int64_t> spans;
        int64_t batchSpan = Tracer::kNone;
    };

    const mtfpu::kernels::Kernel &kernel(int id, bool vector);
    /** Queue a cold+warm kernel job; returns its KernelRun index. */
    size_t addKernelJob(Batch &batch, const mtfpu::kernels::Kernel &k,
                        const mtfpu::machine::MachineConfig &config);
    void buildFigures();
    /** Order the batches by the seed and wrap every job with the
     *  start stamp and span runPass() reads. */
    void finishBatches();
    void checkPass(PassResult &pass);
    const std::vector<mtfpu::machine::RunStats> &
    statsOf(const std::string &figure) const;

    uint64_t seed_;
    unsigned threads_;
    Tracer &tracer_;

    std::deque<mtfpu::kernels::Kernel> kernels_;
    std::map<std::pair<int, bool>, const mtfpu::kernels::Kernel *> livermore_;
    std::deque<mtfpu::kernels::KernelBuilder> builders_;
    std::vector<Batch> batches_;
    std::deque<KernelRun> runs_;
    /** Stats of every simulated job, by batch then job. */
    std::vector<std::vector<mtfpu::machine::RunStats>> stats_;
    std::vector<std::vector<mtfpu::machine::RunStats>> firstPass_;

    // Per-figure bookkeeping for the checks.
    std::vector<size_t> fig14Runs_;       // 24 preferred + scalar reruns
    std::vector<int> fig14ScalarOf_;      // loop id -> run index or -1
    std::array<size_t, 2> linpackRuns_{}; // scalar, vector
    std::vector<size_t> allKernelRuns_;
    mtfpu::kernels::graphics::TransformResult transformPre_;
    mtfpu::kernels::graphics::TransformResult transformFull_;
    std::array<double, 16> matrix_{};
    std::array<double, 4> point_{};
    double fig14ErrPct_ = 0;
    uint64_t traceBase_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_FIGURES_HH
