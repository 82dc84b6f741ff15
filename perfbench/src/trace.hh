/**
 * @file
 * In-memory span recorder for the traced benchmark run. A span is a
 * named interval around one call into a layer of the simulator
 * (softfp, machine, driver, kernels, job_spec, result_cache, client,
 * worker_pool, ...), with the span that caused it and the id of the
 * job it belongs to. Spans are kept in memory while the run measures
 * and written out once at the end, as Chrome trace-event JSON, plus
 * a per-layer self-time table.
 *
 * Recording is off unless enabled: an untraced pass pays one relaxed
 * atomic load per would-be span.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed between two steady-clock points. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

class Tracer
{
  public:
    /** Sentinel for "no span". */
    static constexpr int64_t kNone = -1;

    Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /**
     * Open a span on the calling thread. @p parent defaults to the
     * innermost span this thread has open; pass an explicit id for a
     * span caused by work on another thread (a driver batch's jobs).
     * Returns kNone when recording is off.
     */
    int64_t open(const char *layer, std::string name, uint64_t trace_id,
                 int64_t parent = kNone);

    /**
     * Open a span that overlaps others on its thread without nesting
     * (a job in flight while the thread submits the next ones). It is
     * never a default parent and has no self time: the threads that
     * serve the job own it. Written as a Chrome async event keyed by
     * @p trace_id.
     */
    int64_t openAsync(const char *layer, std::string name,
                      uint64_t trace_id, int64_t parent);

    /** Close a span opened by open(); a no-op for kNone. */
    void close(int64_t id);

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *layer, std::string name,
              uint64_t trace_id = 0, int64_t parent = kNone)
            : tracer_(tracer),
              id_(tracer.open(layer, std::move(name), trace_id, parent))
        {
        }
        ~Scope() { tracer_.close(id_); }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        int64_t id() const { return id_; }

      private:
        Tracer &tracer_;
        int64_t id_;
    };

    /** Per-layer totals over every recorded span. */
    struct LayerTime
    {
        uint64_t spans = 0;
        double totalMs = 0; // sum of span durations
        double selfMs = 0;  // duration minus the union of its children
    };
    std::map<std::string, LayerTime> layerTimes() const;

    /** Number of recorded spans. */
    size_t size() const;

    /** Write every span as Chrome trace-event JSON; false on IO error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        const char *layer;
        std::string name;
        uint64_t traceId;
        int64_t parent;
        uint32_t tid;
        int64_t startNs;
        int64_t endNs; // -1 while open
        bool async;
    };

    int64_t nowNs() const;
    int64_t record(const char *layer, std::string name, uint64_t trace_id,
                   int64_t parent, bool async);

    std::atomic<bool> enabled_{false};
    Clock::time_point epoch_;
    mutable std::mutex mutex_; // guards spans_, threadIds_
    std::vector<Span> spans_;
    std::map<std::thread::id, uint32_t> threadIds_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
