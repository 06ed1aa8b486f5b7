//===-- perfbench/main.cpp - End-to-end VO benchmark program --------------===//
//
// Part of EcoSched, a reproduction of "Slot Selection and Co-allocation for
// Economic Scheduling in Distributed Computing" (Toporkov et al., PaCT 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ecobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///          [--spans <file>]
///
/// One closed-loop caller per run: each scheduling iteration starts when
/// the previous one returns.
///
/// --trace 0 (end-to-end): set-up is repeated and its median reported;
/// the facade then runs for --seconds, and an untimed oracle pass
/// replays the same inputs through the textbook path and compares every
/// iteration's schedule digest.
///
/// --trace 1 (per-layer): the facade and the traced replica run in
/// lockstep on the same inputs for --seconds (and at least the counter
/// prefix); the replica's digests must equal the facade's and the
/// phase self times must cover the traced iteration time.
///
/// Human-readable lines come first; the last line of standard output is
/// the JSON result.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "support/Check.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#ifndef ECOBENCH_BUILD_TYPE
#define ECOBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

/// Set-up (domain construction plus warm-up) is repeated this often in
/// every end-to-end run; setup_s is the median.
constexpr int SetupRepeats = 9;
/// Every measured end-to-end iteration runs on this many identical copies
/// of the system, one after another, and its time is the fastest copy's:
/// load from elsewhere on the host that stalls one copy's iteration
/// (on vo_churn, one preempted fan-out thread stalls all of it) drops
/// out, while work the program does in that iteration is in every copy.
constexpr size_t Copies = 3;
/// peak_rss_mb is read after this many measured iterations: the ledger
/// keeps every completed job, so memory grows with the iteration count,
/// which a faster build would raise.
constexpr size_t RssIterations = 500;
/// trace.coverage must reach 1 - CoverageTolerance: the phase self
/// times add up to the traced iteration time within 5%.
constexpr double CoverageTolerance = 0.05;

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  bool Trace = false;
  std::string SpansPath;
};

[[noreturn]] void usage(const char *Message) {
  std::fprintf(stderr,
               "ecobench: %s\nusage: ecobench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n",
               Message);
  std::exit(2);
}

Options parseOptions(int Argc, char **Argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Value;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Value, &End, 10);
      HaveSeed = *Value != '\0' && *End == '\0';
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Value, &End);
      HaveSeconds = *End == '\0' && O.Seconds > 0.0 && O.Seconds <= 3600.0;
    } else if (Flag == "--trace") {
      HaveTrace = std::strcmp(Value, "0") == 0 || std::strcmp(Value, "1") == 0;
      O.Trace = std::strcmp(Value, "1") == 0;
    } else if (Flag == "--spans") {
      O.SpansPath = Value;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (O.Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds (0 < s <= 3600) and --trace 0|1 "
          "are required");
  return O;
}

//===-- Statistics --------------------------------------------------------===//

double median(std::vector<double> V) {
  ECOSCHED_CHECK(!V.empty(), "median of no samples");
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// iter_ms_tail is the p99 (nearest rank) of each consecutive block of
/// at least TailBlock measured iterations, so that each has ten samples
/// beyond it, and the median over the blocks: a burst of load from
/// elsewhere on the host moves the blocks it falls in, not the tail. The
/// measured loop runs at least one block, past --seconds if it must.
constexpr size_t TailBlock = 1000;
static_assert(RssIterations <= TailBlock,
              "every run must reach the peak_rss_mb reading");

struct Tail {
  double Value = 0.0;
  size_t Blocks = 0;
  /// Samples beyond the p99 in the block with the fewest.
  size_t Beyond = 0;
};

Tail tail(const std::vector<double> &V) {
  const size_t Blocks = V.size() / TailBlock;
  ECOSCHED_CHECK(Blocks >= 1, "{} iterations make no tail block", V.size());
  std::vector<double> P99s;
  size_t Beyond = V.size();
  for (size_t B = 0; B < Blocks; ++B) {
    std::vector<double> Block(V.begin() + B * V.size() / Blocks,
                              V.begin() + (B + 1) * V.size() / Blocks);
    std::sort(Block.begin(), Block.end());
    const auto Rank = static_cast<size_t>(std::ceil(0.99 * Block.size()));
    P99s.push_back(Block[Rank - 1]);
    Beyond = std::min(Beyond, Block.size() - Rank);
  }
  return {median(P99s), Blocks, Beyond};
}

/// VmHWM rather than getrusage's ru_maxrss: the latter survives execve,
/// so it would report the launching interpreter's footprint.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

//===-- Output ------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

std::string formatNumber(double V) {
  char Buf[64];
  const auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

void printMetrics(const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("metric %-36s %14s %s\n", M.Name.c_str(),
                formatNumber(M.Value).c_str(), M.Unit.c_str());
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Attempted);
  Json += ", \"failed\": " + std::to_string(Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    if (I)
      Json += ", ";
    Json += "\"" + Metrics[I].Name + "\": {\"value\": " +
            formatNumber(Metrics[I].Value) + ", \"unit\": \"" +
            Metrics[I].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

void printEnvironment(const Options &O, const WorkloadInfo &Info) {
#if defined(__clang__)
  const char *Compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char *Compiler = "gcc " __VERSION__;
#else
  const char *Compiler = "unknown";
#endif
  std::printf("env nproc=%u compiler=\"%s\" build_type=%s dchecks=%d "
              "pool=%zu timing_copies=%zu seed=%llu seconds=%s workload=%s "
              "trace=%d\n",
              std::thread::hardware_concurrency(), Compiler,
              ECOBENCH_BUILD_TYPE, ECOSCHED_ENABLE_DCHECKS, Info.PoolSize,
              Copies,
              static_cast<unsigned long long>(O.Seed),
              formatNumber(O.Seconds).c_str(), Info.Name.c_str(),
              O.Trace ? 1 : 0);
}

//===-- End-to-end run ----------------------------------------------------===//

int runEndToEnd(const Options &O, Workload &W) {
  const WorkloadInfo &Info = W.info();
  std::vector<std::vector<uint64_t>> Digests;

  std::vector<double> SetupSeconds;
  for (int R = 0; R < SetupRepeats; ++R) {
    Digests.clear();
    const int64_t T0 = nowNs();
    W.reset(FacadeSystem);
    for (size_t I = 0; I < Info.WarmupIterations; ++I)
      Digests.push_back(W.step(I).Facade.Digests);
    SetupSeconds.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }

  // The other copies are set up untimed; their schedules must equal the
  // first copy's, warm-up included. CopyDiffers[I * OpsPerIteration + K]
  // is set when operation K of iteration I differs between copies.
  std::vector<bool> CopyDiffers;
  const auto CompareCopy = [&](size_t I, const std::vector<uint64_t> &Copy,
                               const std::vector<uint64_t> &First) {
    CopyDiffers.resize(std::max(CopyDiffers.size(),
                                (I + 1) * Info.OpsPerIteration));
    for (size_t K = 0; K < Info.OpsPerIteration; ++K)
      if (Copy.at(K) != First.at(K))
        CopyDiffers[I * Info.OpsPerIteration + K] = true;
  };
  std::vector<std::unique_ptr<Workload>> Others;
  for (size_t C = 1; C < Copies; ++C) {
    Others.push_back(makeWorkload(O.Workload, O.Seed));
    Others.back()->reset(FacadeSystem);
    for (size_t I = 0; I < Info.WarmupIterations; ++I)
      CompareCopy(I, Others.back()->step(I).Facade.Digests, Digests[I]);
  }

  std::vector<double> IterMs;
  size_t Placed = 0, Submitted = 0;
  double BusyMs = 0.0;
  const int64_t Deadline =
      nowNs() + static_cast<int64_t>(O.Seconds * 1e9);
  size_t I = Info.WarmupIterations;
  double RssMb = 0.0;
  while (I < Info.WarmupIterations + TailBlock || nowNs() < Deadline) {
    StepOut Out = W.step(I);
    double Ms = Out.Facade.Ms;
    for (const std::unique_ptr<Workload> &Other : Others) {
      const StepOut Copy = Other->step(I);
      CompareCopy(I, Copy.Facade.Digests, Out.Facade.Digests);
      Ms = std::min(Ms, Copy.Facade.Ms);
    }
    if (++I - Info.WarmupIterations == RssIterations)
      RssMb = peakRssMb();
    IterMs.push_back(Ms);
    BusyMs += Ms;
    Placed += Out.Facade.Placed;
    Submitted += Out.Submitted;
    Digests.push_back(std::move(Out.Facade.Digests));
  }
  Others.clear();

  // Untimed oracle pass: the textbook path replays warm-up and measured
  // iterations from a fresh set-up.
  const std::vector<std::vector<uint64_t>> Oracle = W.replayOracle(I);
  uint64_t Failed = 0, OracleMismatches = 0, CopyMismatches = 0;
  for (size_t J = 0; J < I; ++J)
    for (size_t K = 0; K < Info.OpsPerIteration; ++K) {
      const bool OracleDiffers = Oracle[J].at(K) != Digests[J].at(K);
      const bool CopyDiffered =
          J * Info.OpsPerIteration + K < CopyDiffers.size() &&
          CopyDiffers[J * Info.OpsPerIteration + K];
      OracleMismatches += OracleDiffers;
      CopyMismatches += CopyDiffered;
      Failed += OracleDiffers || CopyDiffered;
    }

  // Warm-up iterations are digest-checked too.
  const uint64_t Attempted = I * Info.OpsPerIteration;
  const Tail T = tail(IterMs);
  std::printf("tail iter_ms_tail is the median over %zu blocks of %zu "
              "iterations of each block's p99 (at least %zu beyond)\n",
              T.Blocks, IterMs.size(), T.Beyond);
  std::sort(IterMs.begin(), IterMs.end());
  std::printf("iter_ms over the whole run:");
  for (double P : {50.0, 90.0, 99.0, 99.9, 100.0})
    std::printf(" p%s=%s", formatNumber(P).c_str(),
                formatNumber(IterMs[static_cast<size_t>(
                                 std::ceil(P / 100.0 * IterMs.size())) -
                             1])
                    .c_str());
  std::printf("\n");
  std::printf("copies %llu of %llu operations differ between the %zu "
              "copies\n",
              static_cast<unsigned long long>(CopyMismatches),
              static_cast<unsigned long long>(Attempted), Copies);
  std::printf("oracle %llu of %llu operations differ from the textbook "
              "path\n",
              static_cast<unsigned long long>(OracleMismatches),
              static_cast<unsigned long long>(Attempted));
  std::printf("metric %-36s %14s %s\n", "ops_failed_frac",
              formatNumber(static_cast<double>(Failed) /
                           static_cast<double>(Attempted))
                  .c_str(),
              "ratio");

  const std::vector<Metric> Metrics = {
      {"iter_ms_p50", median(IterMs), "ms"},
      {"iter_ms_tail", T.Value, "ms"},
      {"jobs_per_s", static_cast<double>(Placed) / (BusyMs / 1e3), "1/s"},
      {"placed_frac",
       static_cast<double>(Placed) / static_cast<double>(Submitted), "ratio"},
      {"setup_s", median(SetupSeconds), "s"},
      {"peak_rss_mb", RssMb, "MB"},
  };
  printMetrics(Metrics);
  const bool Correct = Failed == 0;
  printResult(Correct, Attempted, Failed, Metrics);
  return Correct ? 0 : 1;
}

//===-- Traced run --------------------------------------------------------===//

struct Interval {
  int64_t Start = 0;
  int64_t End = 0;
};

/// Length of the union of \p Children clipped to \p Parent.
int64_t coveredNs(Interval Parent, std::vector<Interval> Children) {
  std::sort(Children.begin(), Children.end(),
            [](const Interval &A, const Interval &B) {
              return A.Start < B.Start;
            });
  int64_t Covered = 0, Cursor = Parent.Start;
  for (const Interval &C : Children) {
    const int64_t S = std::max(C.Start, Cursor);
    const int64_t E = std::min(C.End, Parent.End);
    if (E > S) {
      Covered += E - S;
      Cursor = E;
    }
  }
  return Covered;
}

struct LayerTimes {
  std::vector<int64_t> SelfNs = std::vector<int64_t>(LayerCount, 0);
  /// Sum of iteration-root durations and of their children's self time.
  int64_t RootNs = 0;
  int64_t PhaseNs = 0;
  /// Fan-out wall minus the mean tenant iteration, summed.
  int64_t StragglerNs = 0;
};

/// Folds the spans of iterations >= \p FirstIteration into per-layer self
/// times, and writes every span to \p SpansPath when it is not empty.
LayerTimes foldSpans(const std::vector<const SpanRecorder *> &Recorders,
                     size_t FirstIteration, const std::string &SpansPath) {
  std::unordered_map<SpanId, std::vector<Interval>> Children;
  for (const SpanRecorder *R : Recorders)
    for (const SpanRecord &S : R->spans())
      if (S.Parent != NoSpan)
        Children[S.Parent].push_back({S.StartNs, S.EndNs});

  LayerTimes Out;
  std::unordered_map<uint32_t, std::pair<int64_t, size_t>> TenantRootNs;
  std::unordered_map<uint32_t, int64_t> FanoutNs;
  for (const SpanRecorder *R : Recorders) {
    const std::vector<SpanRecord> &Spans = R->spans();
    for (size_t I = 0; I < Spans.size(); ++I) {
      const SpanRecord &S = Spans[I];
      if (S.Iteration < FirstIteration)
        continue;
      const SpanId Id = (SpanId(R->recorderId()) << 32) | I;
      const auto It = Children.find(Id);
      const int64_t Duration = S.EndNs - S.StartNs;
      const int64_t Covered =
          It == Children.end()
              ? 0
              : coveredNs({S.StartNs, S.EndNs}, It->second);
      Out.SelfNs[static_cast<size_t>(S.Name)] += Duration - Covered;
      if (S.Name == Layer::Iteration) {
        Out.RootNs += Duration;
        Out.PhaseNs += Covered;
        auto &[Sum, Count] = TenantRootNs[S.Iteration];
        Sum += Duration;
        ++Count;
      } else if (S.Name == Layer::Fanout) {
        FanoutNs[S.Iteration] += Duration;
      }
    }
  }
  for (const auto &[Iteration, Wall] : FanoutNs) {
    const auto &[Sum, Count] = TenantRootNs[Iteration];
    if (Count)
      Out.StragglerNs += Wall - Sum / static_cast<int64_t>(Count);
  }

  if (!SpansPath.empty()) {
    std::ofstream File(SpansPath);
    File << "recorder\tindex\tname\ttenant\titeration\tparent\tstart_ns\t"
            "end_ns\n";
    for (const SpanRecorder *R : Recorders) {
      const std::vector<SpanRecord> &Spans = R->spans();
      for (size_t I = 0; I < Spans.size(); ++I) {
        const SpanRecord &S = Spans[I];
        File << R->recorderId() << '\t' << I << '\t'
             << LayerNames[static_cast<size_t>(S.Name)] << '\t' << S.Tenant
             << '\t' << S.Iteration << '\t';
        if (S.Parent == NoSpan)
          File << "-";
        else
          File << (S.Parent >> 32) << ':' << (S.Parent & 0xffffffffu);
        File << '\t' << S.StartNs << '\t' << S.EndNs << '\n';
      }
    }
    if (!File)
      std::fprintf(stderr, "ecobench: cannot write spans to %s\n",
                   SpansPath.c_str());
  }
  return Out;
}

int runTraced(const Options &O, Workload &W) {
  const WorkloadInfo &Info = W.info();
  W.reset(FacadeSystem | ReplicaSystem);
  uint64_t Failed = 0, Attempted = 0;
  auto Compare = [&](const StepOut &Out) {
    for (size_t K = 0; K < Info.OpsPerIteration; ++K)
      Failed += Out.Facade.Digests.at(K) != Out.Replica.Digests.at(K);
    Attempted += Info.OpsPerIteration;
  };
  for (size_t I = 0; I < Info.WarmupIterations; ++I)
    Compare(W.step(I));

  std::vector<double> FacadeMs, ReplicaMs;
  const size_t PrefixEnd = Info.WarmupIterations + Info.CounterIterations;
  const int64_t Deadline =
      nowNs() + static_cast<int64_t>(O.Seconds * 1e9);
  size_t I = Info.WarmupIterations;
  while (I < PrefixEnd || nowNs() < Deadline) {
    const StepOut Out = W.step(I++);
    Compare(Out);
    FacadeMs.push_back(Out.Facade.Ms);
    ReplicaMs.push_back(Out.Replica.Ms);
  }
  const auto Traced = static_cast<double>(FacadeMs.size());

  const std::vector<const SpanRecorder *> Recorders = W.recorders();
  const LayerTimes Times =
      foldSpans(Recorders, Info.WarmupIterations, O.SpansPath);
  WorkCounters C;
  for (const SpanRecorder *R : Recorders)
    C += R->prefix();

  const auto PerIter = [&](double Total) {
    return Total / static_cast<double>(Info.CounterIterations);
  };
  const auto Ms = [&](Layer L) {
    return static_cast<double>(Times.SelfNs[static_cast<size_t>(L)]) / 1e6 /
           Traced;
  };
  const auto Calls = [&](Layer L) {
    return PerIter(static_cast<double>(C.Calls[static_cast<size_t>(L)]));
  };
  const auto Ratio = [](uint64_t Num, uint64_t Den) {
    return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
  };
  const double Coverage =
      Times.RootNs ? static_cast<double>(Times.PhaseNs) /
                         static_cast<double>(Times.RootNs)
                   : 0.0;
  const double Overhead = median(ReplicaMs) / median(FacadeMs);

  const std::vector<Metric> Metrics = {
      {"sim.vacant_slots.calls", Calls(Layer::VacantSlots), "1/iter"},
      {"sim.vacant_slots.ms", Ms(Layer::VacantSlots), "ms"},
      {"sim.vacant_slots.slots", PerIter(double(C.SlotsPublished)), "1/iter"},
      {"sim.mutate.calls", Calls(Layer::Mutate), "1/iter"},
      {"sim.mutate.ms", Ms(Layer::Mutate), "ms"},
      {"core.filter_sync.calls", Calls(Layer::FilterSync), "1/iter"},
      {"core.filter_sync.ms", Ms(Layer::FilterSync), "ms"},
      {"core.filter_sync.delta_ops", PerIter(double(C.DeltaOps)), "1/iter"},
      {"core.filter_sync.reuse_ratio",
       Ratio(C.ViewReuses, C.ViewReuses + C.ViewRebuilds), "ratio"},
      {"core.sweep.calls", Calls(Layer::Sweep), "1/iter"},
      {"core.sweep.ms", Ms(Layer::Sweep), "ms"},
      {"core.sweep.slots_examined", PerIter(double(C.SlotsExamined)),
       "1/iter"},
      {"core.sweep.group_ops", PerIter(double(C.GroupOps)), "1/iter"},
      {"core.sweep.alternatives_per_job", Ratio(C.Alternatives, C.SearchedJobs),
       "ratio"},
      {"core.limits.calls", Calls(Layer::Limits), "1/iter"},
      {"core.limits.ms", Ms(Layer::Limits), "ms"},
      {"core.dp_solve.calls", Calls(Layer::DpSolve), "1/iter"},
      {"core.dp_solve.ms", Ms(Layer::DpSolve), "ms"},
      {"core.dp_solve.cells", PerIter(double(C.DpCells)), "1/iter"},
      {"engine.ledger_commit.calls", Calls(Layer::LedgerCommit), "1/iter"},
      {"engine.ledger_commit.ms", Ms(Layer::LedgerCommit), "ms"},
      {"engine.ledger_commit.count", PerIter(double(C.Commits)), "1/iter"},
      {"engine.ledger_cancel.calls", Calls(Layer::LedgerCancel), "1/iter"},
      {"engine.ledger_cancel.ms", Ms(Layer::LedgerCancel), "ms"},
      {"engine.queue.calls", Calls(Layer::Queue), "1/iter"},
      {"engine.queue.ms", Ms(Layer::Queue), "ms"},
      {"engine.retire.calls", Calls(Layer::Retire), "1/iter"},
      {"engine.retire.ms", Ms(Layer::Retire), "ms"},
      {"engine.fanout.calls", Calls(Layer::Fanout), "1/iter"},
      {"engine.fanout.ms", Ms(Layer::Fanout), "ms"},
      {"engine.fanout.straggler_ms",
       static_cast<double>(Times.StragglerNs) / 1e6 / Traced, "ms"},
      {"trace.coverage", Coverage, "ratio"},
      {"trace.overhead", Overhead, "ratio"},
  };

  // The work counters are a pure function of the seed: one digest line
  // lets two runs be compared without parsing every metric.
  uint64_t CounterDigest = 0xcbf29ce484222325ULL;
  const auto Fold = [&](uint64_t V) {
    CounterDigest = (CounterDigest ^ V) * 0x100000001b3ULL;
  };
  for (uint64_t V : C.Calls)
    Fold(V);
  for (uint64_t V : {C.SlotsPublished, C.DeltaOps, C.ViewReuses,
                     C.ViewRebuilds, C.SlotsExamined, C.GroupOps,
                     C.Alternatives, C.SearchedJobs, C.DpCells, C.Commits})
    Fold(V);

  const bool CoverageOk = Coverage >= 1.0 - CoverageTolerance;
  std::printf("counters over traced iterations %zu..%zu: digest %016llx\n",
              Info.WarmupIterations, PrefixEnd - 1,
              static_cast<unsigned long long>(CounterDigest));
  std::printf("replica %llu of %llu operations differ from the facade; "
              "%zu iterations traced\n",
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted), FacadeMs.size());
  std::printf("coverage %s (tolerance: at least %s) %s\n",
              formatNumber(Coverage).c_str(),
              formatNumber(1.0 - CoverageTolerance).c_str(),
              CoverageOk ? "ok" : "FAILED");
  printMetrics(Metrics);
  const bool Correct = Failed == 0 && CoverageOk;
  printResult(Correct, Attempted, Failed, Metrics);
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  const Options O = parseOptions(Argc, Argv);
  std::unique_ptr<Workload> W = makeWorkload(O.Workload, O.Seed);
  if (!W)
    usage(("unknown workload " + O.Workload).c_str());
  printEnvironment(O, W->info());
  return O.Trace ? runTraced(O, *W) : runEndToEnd(O, *W);
}
