#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench
{

namespace
{

/** Open spans of this thread, innermost last. */
thread_local std::vector<int64_t> tlsStack;

/** JSON string escaping for span names. */
std::string
escape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // anonymous namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

int64_t
Tracer::record(const char *layer, std::string name, uint64_t trace_id,
               int64_t parent, bool async)
{
    const int64_t start = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = threadIds_.try_emplace(
        std::this_thread::get_id(),
        static_cast<uint32_t>(threadIds_.size() + 1)).first;
    spans_.push_back(Span{layer, std::move(name), trace_id, parent,
                          it->second, start, -1, async});
    return static_cast<int64_t>(spans_.size() - 1);
}

int64_t
Tracer::open(const char *layer, std::string name, uint64_t trace_id,
             int64_t parent)
{
    if (!enabled())
        return kNone;
    if (parent == kNone && !tlsStack.empty())
        parent = tlsStack.back();
    const int64_t id = record(layer, std::move(name), trace_id, parent,
                              false);
    tlsStack.push_back(id);
    return id;
}

int64_t
Tracer::openAsync(const char *layer, std::string name, uint64_t trace_id,
                  int64_t parent)
{
    if (!enabled())
        return kNone;
    return record(layer, std::move(name), trace_id, parent, true);
}

void
Tracer::close(int64_t id)
{
    if (id == kNone)
        return;
    const int64_t end = nowNs();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<size_t>(id)].endNs = end;
    }
    // Spans close in LIFO order on their own thread.
    if (!tlsStack.empty() && tlsStack.back() == id)
        tlsStack.pop_back();
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::map<std::string, Tracer::LayerTime>
Tracer::layerTimes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<size_t>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const int64_t parent = spans_[i].parent;
        if (parent != kNone && spans_[i].endNs >= 0)
            children[static_cast<size_t>(parent)].push_back(i);
    }

    std::map<std::string, LayerTime> out;
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs < 0)
            continue;
        // Union of the children's intervals, clipped to this span:
        // children on several threads may overlap each other.
        cover.clear();
        for (const size_t c : children[i]) {
            const int64_t lo = std::max(spans_[c].startNs, s.startNs);
            const int64_t hi = std::min(spans_[c].endNs, s.endNs);
            if (hi > lo)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        int64_t covered = 0;
        int64_t reach = s.startNs;
        for (const auto &[lo, hi] : cover) {
            const int64_t from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        const int64_t dur = s.endNs - s.startNs;
        LayerTime &lt = out[s.layer];
        ++lt.spans;
        lt.totalMs += static_cast<double>(dur) * 1e-6;
        // An async span is a job in flight, overlapping its siblings;
        // the threads that serve it own its time.
        if (!s.async)
            lt.selfMs += static_cast<double>(dur - covered) * 1e-6;
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs < 0)
            continue;
        const std::string args =
            "\"args\":{\"span\":" + std::to_string(i) +
            ",\"parent\":" + std::to_string(s.parent) +
            ",\"trace_id\":" + std::to_string(s.traceId) + "}";
        const std::string head = "{\"name\":\"" + escape(s.name) +
                                 "\",\"cat\":\"" + s.layer + "\",";
        char begin[64], end[64], dur[64];
        std::snprintf(begin, sizeof begin, "%.3f",
                      static_cast<double>(s.startNs) * 1e-3);
        std::snprintf(end, sizeof end, "%.3f",
                      static_cast<double>(s.endNs) * 1e-3);
        std::snprintf(dur, sizeof dur, "%.3f",
                      static_cast<double>(s.endNs - s.startNs) * 1e-3);
        const std::string where = "\"pid\":1,\"tid\":" + std::to_string(s.tid);
        out << (first ? "" : ",\n");
        if (s.async) {
            // A begin/end pair keyed by the job's trace id.
            const std::string id = ",\"id\":" + std::to_string(s.traceId);
            out << head << "\"ph\":\"b\",\"ts\":" << begin << "," << where
                << id << "," << args << "},\n"
                << head << "\"ph\":\"e\",\"ts\":" << end << "," << where
                << id << "}";
        } else {
            out << head << "\"ph\":\"X\",\"ts\":" << begin
                << ",\"dur\":" << dur << "," << where << "," << args << "}";
        }
        first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
