/**
 * @file
 * In-memory span recorder for the benchmark's traced run. The benchmark
 * opens one span around each call it makes into a simulator layer; a
 * layer's self time is its span's busy time minus the busy time of its
 * direct children. Calls too frequent to keep one record each (the
 * per-cycle metrics-sampler callbacks) fold into one aggregate child
 * per (parent, name) that carries a call count.
 */

#ifndef SIMBENCH_SPANS_HH
#define SIMBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace simbench {

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded span. */
struct Span
{
    const char *name;    ///< layer-qualified name, e.g. "core.run"
    std::int64_t start;  ///< ns, first call's start
    std::int64_t end;    ///< ns, last call's end
    std::int64_t busy;   ///< ns inside the call(s): end - start for one
                         ///< call, the sum of call durations for an
                         ///< aggregate
    std::uint64_t calls; ///< 1, or the number of folded calls
    std::int32_t parent; ///< index into the span list, -1 for a root
    std::uint32_t cell;  ///< cell id the span belongs to
};

/**
 * Span recorder. Single-threaded: spans nest strictly, so a parent's
 * child coverage is the sum of its direct children's busy times.
 * When disabled every call is a no-op returning -1.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Cell id stamped on spans opened from now on. */
    void setCell(std::uint32_t cell) { cell_ = cell; }

    /** Open a span starting at @p start; returns its id. */
    int open(const char *name, std::int64_t start);

    /** Close span @p id (the innermost open one) at @p end. */
    void close(int id, std::int64_t end);

    /** Fold one call [start, end) of @p name under the open span. */
    void aggregate(const char *name, std::int64_t start, std::int64_t end);

    /** Self time in ns per span name, over every recorded span. */
    std::map<std::string, std::int64_t> selfTimes() const;

    /** Tab-separated dump: index, name, start, end, busy, calls,
     *  parent, cell, self (all times in ns). */
    void write(std::ostream &os) const;

  private:
    struct Frame
    {
        int span;
        /** Aggregate children of this frame, by name. */
        std::vector<std::pair<const char *, int>> aggregates;
    };

    std::vector<std::int64_t> selfNs() const;

    bool enabled_;
    std::uint32_t cell_ = 0;
    std::vector<Span> spans_;
    std::vector<Frame> stack_;
};

/** RAII span; a no-op when the tracer is disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name)
        : tracer_(tracer),
          id_(tracer.enabled() ? tracer.open(name, nowNs()) : -1)
    {
    }

    ~ScopedSpan()
    {
        if (id_ >= 0)
            tracer_.close(id_, nowNs());
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

} // namespace simbench

#endif // SIMBENCH_SPANS_HH
