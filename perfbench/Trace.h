//===-- perfbench/Trace.h - In-memory span recorder for the traced run ----===//
//
// Part of EcoSched, a reproduction of "Slot Selection and Co-allocation for
// Economic Scheduling in Distributed Computing" (Toporkov et al., PaCT 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded around the public layer calls the benchmark's replica
/// makes. One recorder per thread of work (the main thread, and one per
/// tenant in the churn fan-out), so recording never synchronizes. A
/// span holds name, start, end, parent, iteration id and tenant id;
/// spans stay in memory until the run ends and are then folded into
/// per-layer self times and written out as TSV.
///
/// Work counters (slots published, delta splices, DP cells, ...) are
/// accumulated beside the spans, but only while the current iteration
/// lies inside the deterministic prefix: counts over a fixed number of
/// iterations repeat exactly for one seed, while the timed part of the
/// run has a host-dependent length.
///
//===----------------------------------------------------------------------===//

#ifndef ECOSCHED_PERFBENCH_TRACE_H
#define ECOSCHED_PERFBENCH_TRACE_H

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Span names: one per layer boundary of the replica.
enum class Layer : uint8_t {
  /// Root of one VO (or Metascheduler) iteration.
  Iteration,
  /// One MultiVoDriver-style fan-out over every tenant.
  Fanout,
  VacantSlots,
  Mutate,
  FilterSync,
  Sweep,
  Limits,
  DpSolve,
  LedgerCommit,
  LedgerCancel,
  Queue,
  Retire,
};

constexpr size_t LayerCount = static_cast<size_t>(Layer::Retire) + 1;

/// Metric prefix of each layer, indexed by Layer.
constexpr std::array<const char *, LayerCount> LayerNames = {
    "iteration",          "engine.fanout",    "sim.vacant_slots",
    "sim.mutate",         "core.filter_sync", "core.sweep",
    "core.limits",        "core.dp_solve",    "engine.ledger_commit",
    "engine.ledger_cancel", "engine.queue",   "engine.retire",
};

/// Deterministic work done inside the prefix iterations.
struct WorkCounters {
  std::array<uint64_t, LayerCount> Calls{};
  uint64_t SlotsPublished = 0;
  uint64_t DeltaOps = 0;
  uint64_t ViewReuses = 0;
  uint64_t ViewRebuilds = 0;
  uint64_t SlotsExamined = 0;
  uint64_t GroupOps = 0;
  uint64_t Alternatives = 0;
  uint64_t SearchedJobs = 0;
  uint64_t DpCells = 0;
  uint64_t Commits = 0;

  WorkCounters &operator+=(const WorkCounters &O) {
    for (size_t I = 0; I < LayerCount; ++I)
      Calls[I] += O.Calls[I];
    SlotsPublished += O.SlotsPublished;
    DeltaOps += O.DeltaOps;
    ViewReuses += O.ViewReuses;
    ViewRebuilds += O.ViewRebuilds;
    SlotsExamined += O.SlotsExamined;
    GroupOps += O.GroupOps;
    Alternatives += O.Alternatives;
    SearchedJobs += O.SearchedJobs;
    DpCells += O.DpCells;
    Commits += O.Commits;
    return *this;
  }
};

using SteadyClock = std::chrono::steady_clock;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

/// Globally unique span id: recorder id in the high half, index in the
/// recorder's span vector in the low half.
using SpanId = uint64_t;
constexpr SpanId NoSpan = ~SpanId(0);

struct SpanRecord {
  Layer Name = Layer::Iteration;
  uint32_t Tenant = 0;
  uint32_t Iteration = 0;
  SpanId Parent = NoSpan;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
};

/// Spans and prefix counters of one thread of work.
class SpanRecorder {
public:
  /// Counters accumulate for iterations in [\p PrefixBegin, \p PrefixEnd).
  SpanRecorder(uint32_t RecorderId, uint32_t Tenant, size_t PrefixBegin,
               size_t PrefixEnd)
      : RecorderId(RecorderId), Tenant(Tenant), PrefixBegin(PrefixBegin),
        PrefixEnd(PrefixEnd) {}

  /// Starts attributing spans and counters to \p Iteration. \p Parent
  /// becomes the parent of this recorder's top-level spans, so a
  /// tenant's iteration root can hang under the fan-out span another
  /// recorder holds.
  void beginIteration(uint32_t Iteration, SpanId Parent = NoSpan) {
    CurrentIteration = Iteration;
    ExternalParent = Parent;
  }

  /// Counters of the current iteration, or a scratch sink outside the
  /// deterministic prefix.
  WorkCounters &counters() {
    return CurrentIteration >= PrefixBegin && CurrentIteration < PrefixEnd
               ? Prefix
               : Scratch;
  }

  /// RAII span: open on construction, closed on destruction.
  class Scope {
  public:
    Scope(SpanRecorder &Rec, Layer Name) : Rec(Rec), Index(Rec.open(Name)) {}
    ~Scope() { Rec.close(Index); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    SpanId id() const { return Rec.idOf(Index); }

  private:
    SpanRecorder &Rec;
    uint32_t Index;
  };

  const std::vector<SpanRecord> &spans() const { return Spans; }
  const WorkCounters &prefix() const { return Prefix; }
  uint32_t recorderId() const { return RecorderId; }

private:
  SpanId idOf(uint32_t Index) const {
    return (SpanId(RecorderId) << 32) | Index;
  }

  uint32_t open(Layer Name) {
    ++counters().Calls[static_cast<size_t>(Name)];
    SpanRecord S;
    S.Name = Name;
    S.Tenant = Tenant;
    S.Iteration = CurrentIteration;
    S.Parent = Open.empty() ? ExternalParent : idOf(Open.back());
    const auto Index = static_cast<uint32_t>(Spans.size());
    Open.push_back(Index);
    Spans.push_back(S);
    Spans.back().StartNs = nowNs();
    return Index;
  }

  void close(uint32_t Index) {
    Spans[Index].EndNs = nowNs();
    Open.pop_back();
  }

  uint32_t RecorderId;
  uint32_t Tenant;
  size_t PrefixBegin;
  size_t PrefixEnd;
  uint32_t CurrentIteration = 0;
  SpanId ExternalParent = NoSpan;
  std::vector<SpanRecord> Spans;
  std::vector<uint32_t> Open;
  WorkCounters Prefix;
  WorkCounters Scratch;
};

} // namespace perfbench

#endif // ECOSCHED_PERFBENCH_TRACE_H
