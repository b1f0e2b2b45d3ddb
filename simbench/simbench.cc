/**
 * @file
 * Host-performance benchmark of the simulator. One process, one
 * thread, a closed loop of serial cells: each workload is a fixed list
 * of cells, run in a number of whole passes set by --seconds. Every
 * cell starts a fresh machine (empty modelled caches, a fresh copy of
 * the memory image) and every cell's output is checked. The benchmark
 * reaches each simulator layer only through that module's public
 * functions; the traced run (--trace 1) records one span around each
 * such call, so each layer's self time can be read off.
 *
 *   simbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--spans-out FILE] [--record-reference] [--corrupt-cell I]
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed, and the end-to-end (--trace 0) or per-layer (--trace 1)
 * metrics. README.md in this directory describes the workloads.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.hh"
#include "core/gpu.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "isa/assembler.hh"
#include "metrics/sampler.hh"
#include "ref/difftest.hh"
#include "ref/interp.hh"
#include "ref/kernelgen.hh"
#include "rt/apps.hh"
#include "rt/megakernel.hh"
#include "rt/microbench.hh"
#include "snapshot/replay.hh"
#include "snapshot/snapshot.hh"
#include "spans.hh"
#include "verify/verifier.hh"

namespace simbench {
namespace {

using si::Cycle;

/** Set-up repetitions before the first pass: at least kSetupReps, and
 *  more until kSetupSeconds are spent, so a set-up of a fraction of a
 *  millisecond is still timed over many repetitions. setup_s is their
 *  median. Each one rebuilds the suite's inputs in place, so only one
 *  copy of them is ever held. */
constexpr unsigned kSetupReps = 5;
constexpr double kSetupSeconds = 0.5;

/**
 * A run makes --seconds / nominalPassSeconds() passes, but starts no
 * pass that would end after kOverrun * --seconds.
 */
constexpr double kOverrun = 1.25;

/**
 * oracle_replay's seed range starts at 1 + seed * kOracleSeedStride.
 * Generated kernels are heavy-tailed in size, and a kernel's retirement
 * traces (kept per lane by the oracle) set the process's peak memory, so
 * a plain run of consecutive seeds made the pass's work, its cell-time
 * percentiles and its peak memory follow the seed more than the code.
 * The range is therefore filtered and stratified. Seeds whose reference
 * run needs more than kOracleWarpStepCap steps in some warp (6% of seeds
 * 1-2000) are passed over. The rest are taken into the bins below,
 * which hold reference steps summed over the 16 warps, until every bin
 * is full. The bins are the deciles of seeds 1-2000, with the top decile
 * split in two. A seed whose bin is already full is passed over. The
 * scan always covers kOracleScan seeds, so the set-up's work does not
 * depend on how soon the bins fill (after 98-261 seeds, over workload
 * seeds 0-999).
 */
constexpr std::uint64_t kOracleSeedStride = 1000;
constexpr std::uint64_t kOracleScan = 400;
constexpr std::uint64_t kOracleWarpStepCap = 512;

struct StepBin
{
    std::uint64_t lo, hi; ///< reference steps, [lo, hi)
    unsigned kernels;     ///< kernels taken per pass
};

constexpr StepBin kOracleBins[] = {
    {0, 496, 4},       {496, 656, 4},     {656, 904, 4},
    {904, 1232, 4},    {1232, 1600, 4},   {1600, 2064, 4},
    {2064, 2698, 4},   {2698, 3536, 4},   {3536, 4820, 4},
    {4820, 6000, 2},   {6000, 16 * kOracleWarpStepCap + 1, 2},
};

/** observed_apps: metrics window (cycles), checkpoints per run (the
 *  run resumes from the middle one), and metrics ring capacity. */
constexpr Cycle kObservedWindow = 8;
constexpr unsigned kObservedCheckpoints = 7;
constexpr std::size_t kObservedRing = std::size_t(1) << 16;

/** Fold the workload seed into a generator seed; seed 0 is identity,
 *  so the default seed reproduces the stock inputs exactly. */
std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t seed)
{
    return base + seed * 0x9e3779b97f4a7c15ull;
}

/** Host time and simulated work of a cell's simulation calls. */
struct SimWork
{
    std::int64_t hostNs = 0;
    std::uint64_t calls = 0;          ///< simulated runs (or resumes)
    std::uint64_t cycles = 0;         ///< simulated cycles advanced
    std::uint64_t instrs = 0;         ///< warp-instructions issued
    std::uint64_t liveWarpCycles = 0;
    std::uint64_t leaps = 0;          ///< fast-forward leaps
    std::uint64_t skipped = 0;        ///< cycles the leaps skipped

    void
    add(const SimWork &o)
    {
        hostNs += o.hostNs;
        calls += o.calls;
        cycles += o.cycles;
        instrs += o.instrs;
        liveWarpCycles += o.liveWarpCycles;
        leaps += o.leaps;
        skipped += o.skipped;
    }

    /** Host-independent part, for the repeat-exactly check. */
    std::string
    counters() const
    {
        std::ostringstream os;
        os << calls << ' ' << cycles << ' ' << instrs << ' '
           << liveWarpCycles << ' ' << leaps << ' ' << skipped;
        return os.str();
    }
};

/** What one cell reports besides its host time. */
struct CellReport
{
    std::string failure;   ///< empty when every output check passed
    std::string signature; ///< integer simulated statistics
    SimWork work;

    std::uint64_t interpSteps = 0;
    std::uint64_t snapshotBytes = 0;
    std::uint64_t snapshotSaves = 0;
    std::uint64_t metricsWindows = 0;

    /** Modelled-machine statistics of the cell's main run. */
    bool hasStats = false;
    si::GpuResult result;
    std::string pairKey; ///< base/SI cells of one point share this
    bool siOn = false;
};

/** Times a simulation call: always for the end-to-end rates, and as a
 *  span when tracing. */
class SimCall
{
  public:
    SimCall(Tracer &tracer, const char *name, SimWork &work)
        : span_(tracer, name), work_(work), start_(nowNs())
    {
    }

    ~SimCall() { work_.hostNs += nowNs() - start_; }

    SimCall(const SimCall &) = delete;
    SimCall &operator=(const SimCall &) = delete;

  private:
    ScopedSpan span_;
    SimWork &work_;
    std::int64_t start_;
};

/** The timed region of one cell, and its root span "bench.cell". The
 *  span and the cell time share both timestamps, so the traced layer
 *  self times add up to the cell times exactly. */
class CellClock
{
  public:
    CellClock(Tracer &tracer, std::int64_t &ns_out)
        : tracer_(tracer), ns_(ns_out), start_(nowNs()),
          id_(tracer.enabled() ? tracer.open("bench.cell", start_) : -1)
    {
    }

    ~CellClock()
    {
        const std::int64_t end = nowNs();
        if (id_ >= 0)
            tracer_.close(id_, end);
        ns_ = end - start_;
    }

    CellClock(const CellClock &) = delete;
    CellClock &operator=(const CellClock &) = delete;

  private:
    Tracer &tracer_;
    std::int64_t &ns_;
    std::int64_t start_;
    int id_;
};

/**
 * Delegating sampler: forwards every callback to the wrapped
 * MetricsSampler and, when tracing, times onCycle/horizonPin/finish
 * from outside as aggregate spans.
 */
class TimedSampler : public si::CycleSampler
{
  public:
    TimedSampler(si::CycleSampler &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    void
    onCycle(const si::Gpu &gpu, Cycle now) override
    {
        if (!tracer_.enabled())
            return inner_.onCycle(gpu, now);
        const std::int64_t t0 = nowNs();
        inner_.onCycle(gpu, now);
        tracer_.aggregate("metrics.on_cycle", t0, nowNs());
    }

    void
    finish(const si::Gpu &gpu, Cycle now) override
    {
        if (!tracer_.enabled())
            return inner_.finish(gpu, now);
        const std::int64_t t0 = nowNs();
        inner_.finish(gpu, now);
        tracer_.aggregate("metrics.finish", t0, nowNs());
    }

    Cycle
    horizonPin(Cycle now) const override
    {
        if (!tracer_.enabled())
            return inner_.horizonPin(now);
        const std::int64_t t0 = nowNs();
        const Cycle pin = inner_.horizonPin(now);
        tracer_.aggregate("metrics.horizon_pin", t0, nowNs());
        return pin;
    }

    void save(si::SnapshotWriter &w) const override { inner_.save(w); }
    void restore(si::SnapshotReader &r) override { inner_.restore(r); }

  private:
    si::CycleSampler &inner_;
    Tracer &tracer_;
};

/** Sum of every SM's live statistics. */
si::SmStats
gpuTotals(const si::Gpu &gpu)
{
    si::SmStats total;
    for (unsigned i = 0; i < gpu.numSms(); ++i)
        total.accumulate(gpu.sm(i).liveStats());
    return total;
}

/**
 * Counts the simulated work of runs it cannot see the results of (the
 * three legs inside validateDeterministicReplay) through the public
 * CycleSampler interface: each leg's work is its state at finish()
 * minus its state at its first onCycle(). At the first (fresh) leg's
 * finish() it also copies that leg's final memory image, when
 * freshLegMemory names it. Never pins the fast-forward horizon and
 * carries no checkpoint state.
 */
class WorkCounter : public si::CycleSampler
{
  public:
    void
    onCycle(const si::Gpu &gpu, Cycle now) override
    {
        if (open_)
            return;
        open_ = true;
        baseCycle_ = now;
        base_ = gpuTotals(gpu);
    }

    void
    finish(const si::Gpu &gpu, Cycle now) override
    {
        const si::SmStats end = gpuTotals(gpu);
        if (!open_) {
            baseCycle_ = now;
            base_ = end;
        }
        open_ = false;
        ++work.calls;
        work.cycles += now - baseCycle_;
        work.instrs += end.instrsIssued - base_.instrsIssued;
        work.liveWarpCycles += end.liveWarpCycles - base_.liveWarpCycles;
        work.leaps += gpu.fastForwardLeaps();
        work.skipped += gpu.fastForwardCyclesSkipped();
        if (legs++ == 0) {
            firstLeg = end;
            firstLegCycles = now;
            if (freshLegMemory)
                firstLegMemory = *freshLegMemory;
        }
    }

    Cycle horizonPin(Cycle) const override { return si::invalidCycle; }
    void save(si::SnapshotWriter &) const override {}
    void restore(si::SnapshotReader &) override { open_ = false; }

    SimWork work;
    unsigned legs = 0;
    si::SmStats firstLeg; ///< final statistics of the fresh leg
    Cycle firstLegCycles = 0;
    const si::Memory *freshLegMemory = nullptr; ///< the fresh leg's memory
    si::Memory firstLegMemory; ///< its final image

  private:
    bool open_ = false;
    Cycle baseCycle_ = 0;
    si::SmStats base_;
};

/** Integer simulated statistics compared against the recorded
 *  reference (the double divergent-stall accumulator is left out). */
std::string
statsSignature(Cycle cycles, const si::SmStats &s)
{
    std::ostringstream os;
    os << "cycles=" << cycles << " instrs=" << s.instrsIssued
       << " live=" << s.liveWarpCycles << " arb=" << s.arbLossCycles
       << " stalls=";
    for (std::size_t i = 0; i < s.stallCyclesByReason.size(); ++i)
        os << (i ? "," : "") << s.stallCyclesByReason[i];
    os << " l1d=" << s.l1dHits << "/" << s.l1dMisses << " l1i="
       << s.l1iHits << "/" << s.l1iMisses << " l0i=" << s.l0iHits << "/"
       << s.l0iMisses;
    return os.str();
}

/** liveWarpCycles == instrsIssued + arbLossCycles + sum of stalls. */
bool
partitionHolds(const si::SmStats &s)
{
    std::uint64_t sum = s.instrsIssued + s.arbLossCycles;
    for (std::uint64_t c : s.stallCyclesByReason)
        sum += c;
    return sum == s.liveWarpCycles;
}

/** Status and warp-cycle partition checks of a finished run. */
std::string
checkRun(const si::GpuResult &r)
{
    if (!r.ok())
        return "run failed: " + r.status.summary();
    if (!partitionHolds(r.total))
        return "warp-cycle partition identity broken (gpu total)";
    for (std::size_t i = 0; i < r.perSm.size(); ++i) {
        if (!partitionHolds(r.perSm[i]))
            return "warp-cycle partition identity broken (sm " +
                   std::to_string(i) + ")";
    }
    return "";
}

std::string
checkMemory(const si::Memory &got, const si::Memory &want)
{
    si::Addr at = 0;
    if (!got.firstDifference(want, at))
        return "";
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "final memory differs from interpret() at 0x%llx",
                  static_cast<unsigned long long>(at));
    return buf;
}

/** Flip one word of @p mem: the corruption the benchmark's own test
 *  uses to show a wrong output is caught. */
void
corruptWord(si::Memory &mem)
{
    const si::Addr at = si::layout::outBufBase;
    mem.write(at, mem.read(at) ^ 1u);
}

si::GpuConfig
siConfig()
{
    return si::withSi(si::baselineConfig(), si::bestSiConfigPoint());
}

/**
 * Run @p wl under @p config on a fresh machine: a new Gpu (empty
 * modelled caches) over a fresh copy of the workload's memory image,
 * which is left in @p mem.
 */
si::GpuResult
runFresh(const si::Workload &wl, si::GpuConfig config, si::Memory &mem,
         Tracer &tracer, SimWork &work)
{
    config.rtc = wl.rtc;
    {
        ScopedSpan span(tracer, "mem.image_copy");
        mem = *wl.memory;
    }
    SimCall call(tracer, "core.run", work);
    si::Gpu gpu(config, mem, wl.bvh());
    si::GpuResult r = gpu.run(wl.program, wl.launch);
    ++work.calls;
    work.cycles += r.cycles;
    work.instrs += r.total.instrsIssued;
    work.liveWarpCycles += r.total.liveWarpCycles;
    work.leaps += gpu.fastForwardLeaps();
    work.skipped += gpu.fastForwardCyclesSkipped();
    return r;
}

/** Final memory image of interpret() on @p wl: the output reference. */
si::Memory
interpretReference(const si::Workload &wl)
{
    si::Memory mem = *wl.memory;
    const si::RefResult rr = si::interpret(
        wl.program, mem,
        si::RefLaunch{wl.launch.numWarps, wl.launch.warpsPerCta},
        wl.bvh());
    if (!rr.ok)
        throw std::runtime_error(wl.name + ": interpret() failed: " +
                                 rr.error);
    return mem;
}

/** One application trace with its seed folded in (seed 0 reproduces
 *  buildApp exactly). */
si::Workload
buildSeededApp(si::AppId id, std::uint64_t seed, Tracer &tracer)
{
    si::AppBuild b = si::appBuildConfig(id);
    b.scene.seed = mixSeed(b.scene.seed, seed);
    b.kernel.seed = mixSeed(b.kernel.seed, seed);
    std::shared_ptr<si::Scene> scene;
    {
        ScopedSpan span(tracer, "rtcore.scene_build");
        scene = si::makeScene(b.scene);
    }
    si::Workload wl;
    {
        ScopedSpan span(tracer, "rt.megakernel_build");
        wl = si::buildMegakernel(b.kernel, std::move(scene));
    }
    wl.rtc = b.rtc;
    return wl;
}

/** A workload: a fixed list of cells and the inputs they share. */
class Suite
{
  public:
    virtual ~Suite() = default;

    /** Build the inputs (timed as setup_s). */
    virtual void setup(Tracer &tracer) = 0;

    /** Compute reference outputs, outside every timed region. */
    virtual void prepareChecks() {}

    virtual std::size_t cells() const = 0;
    virtual std::string cellName(std::size_t i) const = 0;

    /** A pass's duration on the host README.md describes. */
    virtual double nominalPassSeconds() const = 0;

    /**
     * Run cell @p i inside a CellClock writing @p ns, then check its
     * outputs. @p corrupt flips a word of the final memory image
     * before the memory check.
     */
    virtual CellReport run(std::size_t i, Tracer &tracer,
                           std::int64_t &ns, bool corrupt) = 0;
};

/** A simulator workload with its interpret() output reference. */
struct Input
{
    si::Workload wl;
    si::Memory reference;
};

/** Run one baseline or SI cell of a plain (observer-free) workload. */
CellReport
runPlainCell(const Input &in, const std::string &point, bool si_on,
             si::GpuConfig config, Tracer &tracer, std::int64_t &ns,
             bool corrupt)
{
    CellReport rep;
    si::Memory mem;
    {
        CellClock clock(tracer, ns);
        rep.result = runFresh(in.wl, config, mem, tracer, rep.work);
    }
    if (corrupt)
        corruptWord(mem);
    rep.hasStats = true;
    rep.pairKey = point;
    rep.siOn = si_on;
    rep.signature = statsSignature(rep.result.cycles, rep.result.total);
    rep.failure = checkRun(rep.result);
    if (rep.failure.empty())
        rep.failure = checkMemory(mem, in.reference);
    return rep;
}

/** The ten Table II megakernels, baseline and SI, default latency. */
class PaperApps : public Suite
{
  public:
    explicit PaperApps(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Tracer &tracer) override
    {
        apps_.clear();
        for (si::AppId id : si::allApps())
            apps_.push_back({buildSeededApp(id, seed_, tracer), {}});
    }

    void
    prepareChecks() override
    {
        for (std::size_t i = 0; i < apps_.size(); ++i) {
            const si::Workload &wl = apps_[i].wl;
            apps_[i].reference = interpretReference(wl);
            if (seed_ != 0)
                continue;
            // The default seed must reproduce buildApp exactly.
            const si::Workload stock = si::buildApp(si::allApps()[i]);
            si::Addr at = 0;
            if (si::programFingerprint(stock.program) !=
                    si::programFingerprint(wl.program) ||
                stock.launch.numWarps != wl.launch.numWarps ||
                stock.memory->firstDifference(*wl.memory, at))
                throw std::runtime_error(wl.name + ": seed 0 does not "
                                         "reproduce buildApp");
        }
    }

    std::size_t cells() const override { return apps_.size() * 2; }
    double nominalPassSeconds() const override { return 6.5; }

    std::string
    cellName(std::size_t i) const override
    {
        return apps_[i / 2].wl.name + (i % 2 ? "/si" : "/base");
    }

    CellReport
    run(std::size_t i, Tracer &tracer, std::int64_t &ns,
        bool corrupt) override
    {
        const bool si_on = i % 2 != 0;
        const Input &app = apps_[i / 2];
        return runPlainCell(app, app.wl.name, si_on,
                            si_on ? siConfig() : si::baselineConfig(),
                            tracer, ns, corrupt);
    }

  private:
    std::uint64_t seed_;
    std::vector<Input> apps_;
};

/**
 * The Fig. 11 microbenchmark at every subwarp size plus
 * kernels/memlat.sasm, baseline and SI, at the Fig. 13 latencies and
 * memlat's showcase latency. Seed-independent: these kernels take no
 * generated input.
 */
class LatencyBound : public Suite
{
  public:
    LatencyBound()
    {
        std::ifstream in("kernels/memlat.sasm");
        if (!in)
            throw std::runtime_error("cannot read kernels/memlat.sasm");
        memlatSource_.assign(std::istreambuf_iterator<char>(in), {});

        const Cycle fig13[] = {300, 600, 900};
        for (std::size_t k = 0; k <= kSubwarpSizes.size(); ++k) {
            std::vector<Cycle> lats(std::begin(fig13), std::end(fig13));
            if (k == kSubwarpSizes.size())
                lats.push_back(2000); // memlat's showcase latency
            for (Cycle lat : lats) {
                cells_.push_back({k, lat, false});
                cells_.push_back({k, lat, true});
            }
        }
    }

    void
    setup(Tracer &tracer) override
    {
        inputs_.clear();
        for (unsigned size : kSubwarpSizes) {
            si::MicrobenchConfig mc;
            mc.subwarpSize = size;
            ScopedSpan span(tracer, "rt.microbench_build");
            inputs_.push_back({si::buildMicrobench(mc), {}});
        }
        si::AsmResult a;
        {
            ScopedSpan span(tracer, "isa.assemble");
            a = si::assemble(memlatSource_);
        }
        if (!a.ok)
            throw std::runtime_error("memlat.sasm: " + a.error);
        si::Workload memlat;
        memlat.name = a.program.name();
        memlat.program = std::move(a.program);
        memlat.launch = {8, 4};
        memlat.memory = std::make_shared<si::Memory>();
        inputs_.push_back({std::move(memlat), {}});
    }

    void
    prepareChecks() override
    {
        for (Input &in : inputs_)
            in.reference = interpretReference(in.wl);
    }

    std::size_t cells() const override { return cells_.size(); }
    double nominalPassSeconds() const override { return 0.6; }

    std::string
    cellName(std::size_t i) const override
    {
        const Cell &c = cells_[i];
        return pointName(c) + (c.si ? "/si" : "/base");
    }

    CellReport
    run(std::size_t i, Tracer &tracer, std::int64_t &ns,
        bool corrupt) override
    {
        const Cell &c = cells_[i];
        si::GpuConfig config = si::baselineConfig(c.lat);
        if (c.si)
            config = si::withSi(config, si::bestSiConfigPoint());
        return runPlainCell(inputs_[c.kernel], pointName(c), c.si,
                            config, tracer, ns, corrupt);
    }

  private:
    struct Cell
    {
        std::size_t kernel; ///< index into inputs_
        Cycle lat;          ///< L1 miss latency
        bool si;
    };

    std::string
    pointName(const Cell &c) const
    {
        const std::string kernel =
            c.kernel < kSubwarpSizes.size()
                ? "fig11-sw" + std::to_string(kSubwarpSizes[c.kernel])
                : std::string("memlat");
        return kernel + "@" + std::to_string(c.lat);
    }

    static constexpr std::array<unsigned, 6> kSubwarpSizes = {
        1, 2, 4, 8, 16, 32};

    std::string memlatSource_;
    std::vector<Cell> cells_;
    std::vector<Input> inputs_;
};

/**
 * The differential oracle and the replay validator over generated
 * kernels from a stratified seed range (see kOracleBins). Per seed:
 * generateKernel, verifyProgram, interpret, diffProgram over the
 * six-point matrix, and a three-leg validateDeterministicReplay at the
 * SI four-slot point.
 */
class OracleReplay : public Suite
{
  public:
    explicit OracleReplay(std::uint64_t seed)
        : first_(1 + seed * kOracleSeedStride)
    {
        for (const si::DiffPoint &pt : si::diffMatrix()) {
            if (pt.name == "si-slots4")
                replayConfig_ = pt.config;
        }
        if (!replayConfig_.siEnabled)
            throw std::runtime_error("diffMatrix() has no si-slots4");
    }

    void
    setup(Tracer &tracer) override
    {
        {
            ScopedSpan span(tracer, "ref.input_image");
            image_ = si::makeInputImage(opts_.imageSeed);
        }
        ScopedSpan span(tracer, "ref.seed_range");
        seeds_.clear();
        std::vector<unsigned> taken(std::size(kOracleBins));
        std::size_t open_bins = taken.size();
        for (std::uint64_t s = first_; s < first_ + kOracleScan; ++s) {
            si::Memory mem = image_;
            const si::RefResult ref = si::interpret(
                si::generateKernel(s), mem,
                si::RefLaunch{opts_.numWarps, opts_.warpsPerCta}, nullptr,
                kOracleWarpStepCap);
            for (std::size_t b = 0; ref.ok && b < taken.size(); ++b) {
                const StepBin &bin = kOracleBins[b];
                if (ref.steps >= bin.lo && ref.steps < bin.hi &&
                    taken[b] < bin.kernels) {
                    seeds_.push_back(s);
                    open_bins -= ++taken[b] == bin.kernels;
                }
            }
        }
        if (open_bins > 0)
            throw std::runtime_error("oracle step bins not filled by " +
                                     std::to_string(kOracleScan) +
                                     " seeds");
    }

    std::size_t cells() const override { return seeds_.size(); }
    double nominalPassSeconds() const override { return 2.8; }

    std::string
    cellName(std::size_t i) const override
    {
        return "seed" + std::to_string(seeds_[i]);
    }

    /** @p corrupt flips a word of the replay's fresh-leg final memory
     *  image before it is compared with interpret()'s. */
    CellReport
    run(std::size_t i, Tracer &tracer, std::int64_t &ns,
        bool corrupt) override
    {
        CellReport rep;
        const si::LaunchParams launch{opts_.numWarps, opts_.warpsPerCta};
        WorkCounter counter;
        si::Program prog;
        si::VerifyReport verdict;
        si::RefResult ref;
        si::DiffResult diff;
        si::ReplayCheckResult replay;
        si::Memory mem;
        {
            CellClock clock(tracer, ns);
            {
                ScopedSpan span(tracer, "ref.kernelgen");
                prog = si::generateKernel(seeds_[i]);
            }
            {
                ScopedSpan span(tracer, "verify.verify");
                verdict = si::verifyProgram(prog);
            }
            {
                ScopedSpan span(tracer, "mem.image_copy");
                mem = image_;
            }
            {
                ScopedSpan span(tracer, "ref.interp");
                ref = si::interpret(
                    prog, mem,
                    si::RefLaunch{launch.numWarps, launch.warpsPerCta});
            }
            {
                ScopedSpan span(tracer, "ref.diff_program");
                diff = si::diffProgram(prog, opts_);
            }
            {
                SimCall call(tracer, "snapshot.replay", rep.work);
                si::GpuConfig config = replayConfig_;
                config.metricsSampler = &counter;
                si::ReplayCheckOptions ro;
                // The legs' memories are poured in leg order, so the
                // first one poured is the fresh leg's.
                ro.initMemory = [this, &counter](si::Memory &m) {
                    m = image_;
                    if (!counter.freshLegMemory)
                        counter.freshLegMemory = &m;
                };
                replay = si::validateDeterministicReplay(
                    config, {{&prog, launch}}, ro);
            }
        }
        if (corrupt)
            corruptWord(counter.firstLegMemory);
        rep.work.add(counter.work);
        rep.interpSteps = ref.steps;
        rep.signature =
            statsSignature(counter.firstLegCycles, counter.firstLeg);

        if (!verdict.spotless())
            rep.failure = "verifyProgram flagged the generated kernel";
        else if (!ref.ok)
            rep.failure = "interpret() failed: " + ref.error;
        else if (!diff.agree)
            rep.failure = "diffProgram disagrees at " + diff.point +
                          ": " + diff.detail;
        else if (!replay.ok())
            rep.failure = "replay not deterministic: " + replay.detail;
        else if (counter.legs != 3)
            rep.failure = "replay ran " + std::to_string(counter.legs) +
                          " legs, expected 3";
        else if (counter.firstLegCycles != replay.cycles ||
                 !partitionHolds(counter.firstLeg))
            rep.failure = "replay fresh-leg statistics inconsistent";
        else
            rep.failure = checkMemory(counter.firstLegMemory, mem);
        return rep;
    }

  private:
    const si::DiffOptions opts_{};
    std::uint64_t first_;
    std::vector<std::uint64_t> seeds_;
    si::GpuConfig replayConfig_;
    si::Memory image_;
};

/**
 * Three apps under SI with observers attached: a fine-window
 * MetricsSampler, kObservedCheckpoints in-memory checkpoints through
 * Gpu::save, a resume from the middle one, and statsJson/metricsJson
 * exports of both runs, which must be byte-identical. With only three
 * cells, the cell percentiles are single apps, so the apps are the ones
 * whose work moves least with the scene seed: Coll1 and Coll2 (cycles
 * and instructions within +-3% over seeds 0-7, convergent-stall heavy)
 * and BFV2 (within +-4% cycles and +-10% instructions, divergent-stall
 * heavy, SI's best case).
 */
class ObservedApps : public Suite
{
  public:
    explicit ObservedApps(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Tracer &tracer) override
    {
        apps_.clear();
        for (si::AppId id : {si::AppId::Coll1, si::AppId::Coll2,
                             si::AppId::BFV2})
            apps_.push_back({buildSeededApp(id, seed_, tracer), {}});
    }

    /** Also runs each app once, untimed, to space the checkpoints. */
    void
    prepareChecks() override
    {
        checkpointEvery_.clear();
        for (Input &a : apps_) {
            a.reference = interpretReference(a.wl);
            const si::GpuResult r = si::runWorkload(a.wl, siConfig());
            if (!r.ok())
                throw std::runtime_error(a.wl.name + ": " +
                                         r.status.summary());
            checkpointEvery_.push_back(r.cycles /
                                           (kObservedCheckpoints + 1) +
                                       1);
        }
    }

    std::size_t cells() const override { return apps_.size(); }
    double nominalPassSeconds() const override { return 2.0; }

    std::string
    cellName(std::size_t i) const override
    {
        return apps_[i].wl.name + "/si+observers";
    }

    CellReport run(std::size_t i, Tracer &tracer, std::int64_t &ns,
                   bool corrupt) override;

  private:
    std::uint64_t seed_;
    std::vector<Input> apps_;
    std::vector<std::uint64_t> checkpointEvery_;
};

CellReport
ObservedApps::run(std::size_t i, Tracer &tracer, std::int64_t &ns,
                  bool corrupt)
{
    const Input &app = apps_[i];
    const si::Workload &wl = app.wl;
    CellReport rep;

    si::GpuConfig config = siConfig();
    config.rtc = wl.rtc;
    si::MetricsSampler sampler(kObservedWindow, kObservedRing);
    TimedSampler timed(sampler, tracer);
    config.metricsSampler = &timed;
    // Every checkpoint is saved; only the middle one is kept, with the
    // statistics it was taken at (the resume's work is measured from
    // there).
    struct
    {
        Cycle cycle = 0;
        std::string data;
        std::uint64_t instrs = 0;
        std::uint64_t liveWarpCycles = 0;
    } mid;
    config.checkpointInterval = checkpointEvery_[i];
    config.checkpointHook = [&](const si::Gpu &gpu, Cycle now) {
        std::string data;
        {
            ScopedSpan span(tracer, "snapshot.save");
            si::SnapshotWriter w;
            gpu.save(w);
            data = w.finish();
        }
        ++rep.snapshotSaves;
        rep.snapshotBytes += data.size();
        if (rep.snapshotSaves == (kObservedCheckpoints + 1) / 2) {
            const si::SmStats at = gpuTotals(gpu);
            mid = {now, std::move(data), at.instrsIssued,
                   at.liveWarpCycles};
        }
    };

    si::MetricsSampler resumed_sampler(kObservedWindow, kObservedRing);
    TimedSampler resumed_timed(resumed_sampler, tracer);
    si::Memory mem, resumed_mem;
    si::GpuResult resumed;
    std::string stats, metrics, resumed_stats, resumed_metrics;
    si::StatsJsonOptions json_opts;
    json_opts.regionNames = wl.program.regionNames();
    {
        CellClock clock(tracer, ns);
        rep.result = runFresh(wl, config, mem, tracer, rep.work);
        {
            ScopedSpan span(tracer, "harness.stats_json");
            stats = si::statsJson(rep.result, wl.name, json_opts);
        }
        {
            ScopedSpan span(tracer, "metrics.export");
            metrics = si::metricsJson(sampler, wl.name,
                                      json_opts.regionNames);
        }
        if (!mid.data.empty()) {
            si::GpuConfig resume_config = config;
            resume_config.metricsSampler = &resumed_timed;
            resume_config.checkpointHook = nullptr;
            resume_config.checkpointInterval = 0;
            {
                SimCall call(tracer, "snapshot.resume", rep.work);
                si::Gpu gpu(resume_config, resumed_mem, wl.bvh());
                si::SnapshotReader reader(mid.data);
                resumed = gpu.resumeMulti({{&wl.program, wl.launch}},
                                          reader);
                ++rep.work.calls;
                rep.work.cycles += resumed.cycles - mid.cycle;
                rep.work.instrs += resumed.total.instrsIssued - mid.instrs;
                rep.work.liveWarpCycles +=
                    resumed.total.liveWarpCycles - mid.liveWarpCycles;
                rep.work.leaps += gpu.fastForwardLeaps();
                rep.work.skipped += gpu.fastForwardCyclesSkipped();
            }
            {
                ScopedSpan span(tracer, "harness.stats_json");
                resumed_stats =
                    si::statsJson(resumed, wl.name, json_opts);
            }
            {
                ScopedSpan span(tracer, "metrics.export");
                resumed_metrics = si::metricsJson(
                    resumed_sampler, wl.name, json_opts.regionNames);
            }
        }
    }
    if (corrupt)
        corruptWord(mem);

    rep.hasStats = true;
    rep.pairKey = wl.name;
    rep.siOn = true;
    rep.signature = statsSignature(rep.result.cycles, rep.result.total);
    for (unsigned sm = 0; sm < sampler.numSms(); ++sm)
        rep.metricsWindows += sampler.windows(sm).size();
    for (unsigned sm = 0; sm < resumed_sampler.numSms(); ++sm)
        rep.metricsWindows += resumed_sampler.windows(sm).size();

    rep.failure = checkRun(rep.result);
    if (rep.failure.empty())
        rep.failure = checkMemory(mem, app.reference);
    if (rep.failure.empty() && rep.snapshotSaves != kObservedCheckpoints)
        rep.failure = "took " + std::to_string(rep.snapshotSaves) +
                      " checkpoints, expected " +
                      std::to_string(kObservedCheckpoints);
    if (rep.failure.empty() &&
        sampler.droppedTotal() + resumed_sampler.droppedTotal() != 0)
        rep.failure = "metrics ring dropped windows";
    if (rep.failure.empty())
        rep.failure = checkRun(resumed);
    if (rep.failure.empty())
        rep.failure = checkMemory(resumed_mem, app.reference);
    if (rep.failure.empty() && resumed_stats != stats)
        rep.failure = "resumed statsJson differs from the uninterrupted";
    if (rep.failure.empty() && resumed_metrics != metrics)
        rep.failure = "resumed metricsJson differs from the uninterrupted";
    return rep;
}

// ---------------------------------------------------------------------
// The closed loop, statistics and output.

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string spansOut;
    bool recordReference = false;
    long corruptCell = -1;
};

std::unique_ptr<Suite>
makeSuite(const Options &o)
{
    if (o.workload == "paper_apps")
        return std::make_unique<PaperApps>(o.seed);
    if (o.workload == "latency_bound")
        return std::make_unique<LatencyBound>();
    if (o.workload == "oracle_replay")
        return std::make_unique<OracleReplay>(o.seed);
    if (o.workload == "observed_apps")
        return std::make_unique<ObservedApps>(o.seed);
    return nullptr;
}

/** Per-pass totals. */
struct Pass
{
    std::int64_t ns = 0; ///< sum of the pass's cell times
    SimWork work;
    std::uint64_t interpSteps = 0;
    std::uint64_t snapshotBytes = 0;
    std::uint64_t snapshotSaves = 0;
    std::uint64_t metricsWindows = 0;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * The highest percentile of a fixed ladder with at least ten samples
 * beyond it (nearest rank); the maximum when there are too few.
 */
std::pair<double, double>
tailPercentile(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const auto rank = std::size_t(std::ceil(p / 100.0 * double(n)));
        if (rank >= 1 && n - rank >= 10)
            return {p, v[rank - 1]};
    }
    return {100.0, n ? v.back() : 0.0};
}

std::string
referencePath(const std::string &workload)
{
    return "simbench/reference/" + workload + ".tsv";
}

std::map<std::string, std::string>
loadReference(const std::string &workload)
{
    std::map<std::string, std::string> ref;
    std::ifstream in(referencePath(workload));
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t tab = line.find('\t');
        if (tab != std::string::npos)
            ref[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return ref;
}

/** Empty when @p signature matches the recorded one for @p cell. */
std::string
checkReference(const std::map<std::string, std::string> &reference,
               const std::string &cell, const std::string &signature)
{
    const auto it = reference.find(cell);
    if (it == reference.end())
        return "no reference statistics";
    if (it->second != signature)
        return "statistics differ from the reference: " + signature +
               " vs " + it->second;
    return "";
}

/** Accumulates "name": {"value": v, "unit": u} entries in order. */
class MetricsJson
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.10g",
                      std::isfinite(value) ? value : 0.0);
        out_ += (out_.empty() ? "" : ", ") + ("\"" + name + "\"") +
                ": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
    }

    std::string str() const { return "{" + out_ + "}"; }

  private:
    std::string out_;
};

/** Modelled-machine metrics of one pass's cell reports. */
struct MachineSummary
{
    double siSpeedupPctMean = 0;
    std::size_t siPairs = 0;
    double exposedLoadStallFrac = 0;
    double l1dMissRatio = 0;
    double l0iMissRatio = 0;
};

MachineSummary
summarizeMachine(const std::vector<CellReport> &reports)
{
    MachineSummary m;
    std::map<std::string, std::pair<const si::GpuResult *,
                                    const si::GpuResult *>>
        pairs;
    std::uint64_t exposed = 0, norm = 0, l1d = 0, l1d_miss = 0, l0i = 0,
                  l0i_miss = 0;
    for (const CellReport &r : reports) {
        if (!r.hasStats)
            continue;
        const si::SmStats &s = r.result.total;
        exposed += s.exposedLoadStallCycles;
        norm += r.result.smCycleSum();
        l1d += s.l1dHits + s.l1dMisses;
        l1d_miss += s.l1dMisses;
        l0i += s.l0iHits + s.l0iMisses;
        l0i_miss += s.l0iMisses;
        auto &p = pairs[r.pairKey];
        (r.siOn ? p.second : p.first) = &r.result;
    }
    std::vector<double> speedups;
    for (const auto &[key, p] : pairs) {
        if (p.first && p.second)
            speedups.push_back(si::speedupPct(*p.first, *p.second));
    }
    m.siPairs = speedups.size();
    m.siSpeedupPctMean = speedups.empty() ? 0 : si::mean(speedups);
    m.exposedLoadStallFrac = norm ? double(exposed) / double(norm) : 0;
    m.l1dMissRatio = l1d ? double(l1d_miss) / double(l1d) : 0;
    m.l0iMissRatio = l0i ? double(l0i_miss) / double(l0i) : 0;
    return m;
}

/** Layers whose self time the traced run reports, with their metric. */
const char *const kSweepLayers[] = {
    "bench.cell",      "core.run",         "snapshot.resume",
    "snapshot.replay", "snapshot.save",    "metrics.on_cycle",
    "metrics.horizon_pin", "metrics.finish", "metrics.export",
    "harness.stats_json",  "mem.image_copy", "ref.kernelgen",
    "ref.interp",      "ref.diff_program", "verify.verify",
};
const char *const kSetupLayers[] = {
    "rtcore.scene_build", "rt.megakernel_build", "rt.microbench_build",
    "isa.assemble",       "ref.input_image",     "ref.seed_range",
};

int
runBenchmark(const Options &o)
{
    si::verboseLogging = false;
    std::unique_ptr<Suite> suite = makeSuite(o);
    if (!suite) {
        std::fprintf(stderr, "simbench: unknown workload '%s'\n",
                     o.workload.c_str());
        return 2;
    }

    // Set-up, repeated; setup_s is the median. The cells run on the
    // inputs of the last repetition.
    std::vector<double> setup_s;
    std::map<std::string, std::vector<double>> setup_layers;
    for (const std::int64_t t_setup = nowNs();
         setup_s.size() < kSetupReps ||
         double(nowNs() - t_setup) / 1e9 < kSetupSeconds;) {
        Tracer tracer(true);
        const std::int64_t t0 = nowNs();
        suite->setup(tracer);
        setup_s.push_back(double(nowNs() - t0) / 1e9);
        for (const auto &[name, ns] : tracer.selfTimes())
            setup_layers[name].push_back(double(ns) / 1e9);
    }
    suite->prepareChecks();
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    const double setup_rss_mb = double(ru.ru_maxrss) / 1024.0;

    const std::size_t ncells = suite->cells();
    const std::map<std::string, std::string> reference =
        o.seed == 0 && !o.recordReference ? loadReference(o.workload)
                                          : std::map<std::string,
                                                     std::string>{};
    std::vector<std::string> first_signature(ncells);
    std::vector<std::string> first_counters(ncells);
    std::vector<CellReport> first_reports;

    // Host noise on a shared machine only ever adds time, in phases of
    // seconds, so each cell is timed by its best (minimum) over the
    // run's passes: for the cell and for its simulation calls, kept
    // apart for untraced and traced passes.
    constexpr std::int64_t none = std::numeric_limits<std::int64_t>::max();
    std::vector<std::int64_t> best_ns(ncells, none);
    std::vector<std::int64_t> best_sim_ns(ncells, none);
    std::vector<std::int64_t> best_traced_ns(ncells, none);

    Tracer tracer(false);
    std::vector<double> pass_s, traced_pass_s;
    Pass first_pass;
    std::uint64_t attempted = 0, failed = 0;
    std::size_t pass_index = 0;

    auto run_pass = [&](bool traced) {
        tracer.setEnabled(traced);
        Pass pass;
        for (std::size_t i = 0; i < ncells; ++i) {
            tracer.setCell(std::uint32_t(pass_index * ncells + i));
            std::int64_t ns = 0;
            CellReport rep;
            try {
                rep = suite->run(i, tracer, ns,
                                 pass_index == 0 &&
                                     long(i) == o.corruptCell);
            } catch (const std::exception &e) {
                rep.failure = std::string("exception: ") + e.what();
            }
            const std::string counters = rep.work.counters();
            if (pass_index == 0) {
                first_signature[i] = rep.signature;
                first_counters[i] = counters;
            }
            if (rep.failure.empty() && pass_index != 0 &&
                (rep.signature != first_signature[i] ||
                 counters != first_counters[i]))
                rep.failure = "work counters differ from pass 1";
            if (rep.failure.empty() && pass_index == 0 && !reference.empty())
                rep.failure = checkReference(reference, suite->cellName(i),
                                             rep.signature);
            ++attempted;
            if (!rep.failure.empty()) {
                ++failed;
                std::fprintf(stderr, "simbench: FAIL %s (pass %zu): %s\n",
                             suite->cellName(i).c_str(), pass_index + 1,
                             rep.failure.c_str());
            }
            if (traced) {
                best_traced_ns[i] = std::min(best_traced_ns[i], ns);
            } else {
                best_ns[i] = std::min(best_ns[i], ns);
                best_sim_ns[i] = std::min(best_sim_ns[i], rep.work.hostNs);
            }
            pass.ns += ns;
            pass.work.add(rep.work);
            pass.interpSteps += rep.interpSteps;
            pass.snapshotBytes += rep.snapshotBytes;
            pass.snapshotSaves += rep.snapshotSaves;
            pass.metricsWindows += rep.metricsWindows;
            if (pass_index == 0)
                first_reports.push_back(std::move(rep));
        }
        tracer.setEnabled(false);
        (traced ? traced_pass_s : pass_s).push_back(double(pass.ns) / 1e9);
        if (pass_index == 0)
            first_pass = pass;
        ++pass_index;
    };

    // A fixed number of whole passes, set by --seconds and the nominal
    // pass time, not by how fast this build runs: best-of-N is then the
    // same estimator for every build. Only a run much slower than
    // nominal makes fewer, to end by kOverrun * --seconds. The traced
    // run spends half the passes untraced (the overhead baseline), then
    // runs as many traced passes, so both sides take the best of
    // equally many.
    const std::size_t planned = std::max<std::size_t>(
        1, std::size_t(std::lround(o.seconds / suite->nominalPassSeconds())));
    const std::size_t untraced =
        o.trace ? std::max<std::size_t>(1, planned / 2) : planned;
    const double limit_s = kOverrun * (o.trace ? o.seconds / 2 : o.seconds);
    const std::int64_t start = nowNs();
    std::int64_t last = 0;
    while (pass_s.empty() ||
           (pass_s.size() < untraced &&
            double(nowNs() - start + last) / 1e9 <= limit_s)) {
        const std::int64_t t0 = nowNs();
        run_pass(false);
        last = nowNs() - t0;
    }
    if (o.trace) {
        for (std::size_t n = pass_s.size(); n > 0; --n)
            run_pass(true);
    }

    if (o.recordReference) {
        std::ofstream out(referencePath(o.workload));
        for (std::size_t i = 0; i < ncells; ++i)
            out << suite->cellName(i) << '\t' << first_signature[i] << '\n';
        if (!out)
            throw std::runtime_error("cannot write " +
                                     referencePath(o.workload));
    }

    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = double(ru.ru_maxrss) / 1024.0;
    auto seconds = [](const std::vector<std::int64_t> &ns) {
        double sum = 0;
        for (std::int64_t v : ns)
            sum += double(v) / 1e9;
        return sum;
    };
    std::vector<double> cell_ms;
    for (std::int64_t ns : best_ns)
        cell_ms.push_back(double(ns) / 1e6);
    const double sweep_s = seconds(best_ns);
    const double sim_s = seconds(best_sim_ns);
    const auto [tail_pct, tail_ms] = tailPercentile(cell_ms);
    const double fail_rate = double(failed) / double(attempted);
    const MachineSummary machine = summarizeMachine(first_reports);

    std::printf("workload %s seed %llu: %zu passes (%zu planned) of %zu "
                "cells, %llu cells attempted, %llu failed (fail_rate "
                "%.4f)\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), pass_index,
                o.trace ? 2 * untraced : planned, ncells,
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), fail_rate);
    std::printf("cell_ms_tail is p%g of %zu cell samples (each cell's "
                "best of %zu untraced passes)\n",
                tail_pct, cell_ms.size(), pass_s.size());
    std::printf("peak RSS %.1f MB (%.1f MB after set-up and reference "
                "outputs)\n",
                peak_rss_mb, setup_rss_mb);
    std::printf("set-up: %zu repetitions, median %.6f s, min %.6f s, "
                "max %.6f s\n",
                setup_s.size(), median(setup_s),
                *std::min_element(setup_s.begin(), setup_s.end()),
                *std::max_element(setup_s.begin(), setup_s.end()));
    std::printf("pass seconds:");
    for (double s : pass_s)
        std::printf(" %.4f", s);
    std::printf("\n");
    if (machine.siPairs)
        std::printf("simulated SI speedup (Both,N>=0.5), mean over %zu "
                    "points: %.2f%% (paper: 6.3%% over its ten traces; "
                    "EXPERIMENTS.md: 8.7%%)\n",
                    machine.siPairs, machine.siSpeedupPctMean);

    MetricsJson metrics;
    if (!o.trace) {
        metrics.add("sweep_s", sweep_s, "s");
        metrics.add("setup_s", median(setup_s), "s");
        metrics.add("warp_instrs_per_s", double(first_pass.work.instrs) / sim_s,
                    "1/s");
        metrics.add("sim_cycles_per_s", double(first_pass.work.cycles) / sim_s,
                    "1/s");
        metrics.add("cell_ms_p50", median(cell_ms), "ms");
        metrics.add("cell_ms_tail", tail_ms, "ms");
        metrics.add("peak_rss_mb", peak_rss_mb, "MB");
    } else {
        const double npasses = double(traced_pass_s.size());
        const std::map<std::string, std::int64_t> self =
            tracer.selfTimes();
        auto self_s = [&](const char *name) {
            const auto it = self.find(name);
            return it == self.end() ? 0.0
                                    : double(it->second) / 1e9 / npasses;
        };
        double sim_call_s = 0;
        for (const char *name :
             {"core.run", "snapshot.resume", "snapshot.replay"})
            sim_call_s += self_s(name);
        const SimWork &w = first_pass.work;
        const double ticks = double(w.cycles - w.skipped);
        auto per = [](double s, double n) { return n ? s * 1e9 / n : 0; };
        double traced_mean = 0;
        for (double s : traced_pass_s)
            traced_mean += s / npasses;
        double layer_sum = 0;

        std::printf("traced run: %zu passes; self time per pass by "
                    "layer (share of traced sweep_s %.4f s)\n",
                    traced_pass_s.size(), traced_mean);
        for (const char *name : kSweepLayers) {
            layer_sum += self_s(name);
            if (self_s(name) > 0)
                std::printf("  %-22s %10.6f s  %6.2f%%\n", name,
                            self_s(name),
                            100.0 * self_s(name) / traced_mean);
        }
        std::printf("  %-22s %10.6f s  (traced sweep_s %.6f s)\n",
                    "sum of self times", layer_sum, traced_mean);

        for (const char *name : kSweepLayers)
            metrics.add(std::string(name) + "_s", self_s(name), "s");
        for (const char *name : kSetupLayers) {
            const auto it = setup_layers.find(name);
            metrics.add(std::string(name) + "_s",
                        it == setup_layers.end() ? 0.0
                                                 : median(it->second),
                        "s");
        }
        metrics.add("core.runs", double(w.calls), "count");
        metrics.add("core.sim_cycles", double(w.cycles), "count");
        metrics.add("core.warp_instrs", double(w.instrs), "count");
        metrics.add("core.live_warp_cycles", double(w.liveWarpCycles),
                    "count");
        metrics.add("core.ticks", ticks, "count");
        metrics.add("core.ff_leaps", double(w.leaps), "count");
        metrics.add("core.ff_skip_ratio",
                    w.cycles ? double(w.skipped) / double(w.cycles) : 0,
                    "ratio");
        metrics.add("core.ns_per_live_warp_cycle",
                    per(sim_call_s, double(w.liveWarpCycles)), "ns");
        metrics.add("core.ns_per_warp_instr",
                    per(sim_call_s, double(w.instrs)), "ns");
        metrics.add("core.ns_per_tick", per(sim_call_s, ticks), "ns");
        metrics.add("ref.interp_steps", double(first_pass.interpSteps),
                    "count");
        metrics.add("snapshot.bytes", double(first_pass.snapshotBytes),
                    "B");
        metrics.add("snapshot.saves", double(first_pass.snapshotSaves),
                    "count");
        metrics.add("metrics.windows", double(first_pass.metricsWindows),
                    "count");
        metrics.add("core.si_speedup_pct_mean", machine.siSpeedupPctMean,
                    "%");
        metrics.add("core.exposed_load_stall_frac",
                    machine.exposedLoadStallFrac, "ratio");
        metrics.add("mem.l1d_miss_ratio", machine.l1dMissRatio, "ratio");
        metrics.add("mem.l0i_miss_ratio", machine.l0iMissRatio, "ratio");
        metrics.add("bench.sweep_s_traced", traced_mean, "s");
        metrics.add("bench.self_time_sum_s", layer_sum, "s");
        metrics.add("bench.trace_overhead_pct",
                    100.0 * (seconds(best_traced_ns) - sweep_s) / sweep_s,
                    "%");
        metrics.add("bench.fail_rate", fail_rate, "ratio");
        metrics.add("bench.cells", double(attempted), "count");
        metrics.add("bench.passes", double(pass_index), "count");
        metrics.add("bench.cell_tail_pct", tail_pct, "%");

        if (!o.spansOut.empty()) {
            std::ofstream out(o.spansOut);
            tracer.write(out);
            if (!out)
                throw std::runtime_error("cannot write " + o.spansOut);
        }
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metrics.str().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: simbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "                [--spans-out FILE] [--record-reference]"
                 " [--corrupt-cell I]\n"
                 "workloads: paper_apps latency_bound oracle_replay "
                 "observed_apps\n");
    return 2;
}

} // namespace
} // namespace simbench

int
main(int argc, char **argv)
{
    simbench::Options o;
    bool have_workload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument(a + " needs a value");
                return argv[++i];
            };
            if (a == "--workload") {
                o.workload = value();
                have_workload = true;
            } else if (a == "--seed") {
                o.seed = std::stoull(value());
            } else if (a == "--seconds") {
                o.seconds = std::stod(value());
            } else if (a == "--trace") {
                o.trace = std::stoi(value()) != 0;
            } else if (a == "--spans-out") {
                o.spansOut = value();
            } else if (a == "--record-reference") {
                o.recordReference = true;
            } else if (a == "--corrupt-cell") {
                o.corruptCell = std::stol(value());
            } else {
                throw std::invalid_argument("unknown argument " + a);
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "simbench: %s\n", e.what());
        return simbench::usage();
    }
    if (!have_workload || !(o.seconds > 0))
        return simbench::usage();
    try {
        return simbench::runBenchmark(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "simbench: %s\n", e.what());
        return 1;
    }
}
