//===-- perfbench/Workloads.cpp - The benchmark's three workloads ---------===//
//
// Part of EcoSched, a reproduction of "Slot Selection and Co-allocation for
// Economic Scheduling in Distributed Computing" (Toporkov et al., PaCT 2011).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Replica.h"

#include "core/AlpSearch.h"
#include "core/AmpSearch.h"
#include "core/DpOptimizer.h"
#include "engine/MultiVoDriver.h"
#include "sim/JobGenerator.h"
#include "sim/SlotGenerator.h"
#include "support/Check.h"
#include "support/Random.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

using namespace ecosched;

namespace perfbench {

namespace {

//===-- Schedule digests --------------------------------------------------===//

/// FNV-1a over the bit patterns of everything a schedule decides.
class Digest {
public:
  void addU(uint64_t V) {
    for (int B = 0; B < 8; ++B) {
      H ^= (V >> (8 * B)) & 0xffu;
      H *= 0x100000001b3ULL;
    }
  }
  void addD(double D) {
    uint64_t Bits = 0;
    std::memcpy(&Bits, &D, sizeof(Bits));
    addU(Bits);
  }
  void addI(int64_t V) { addU(static_cast<uint64_t>(V)); }
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

void digestWindow(Digest &D, const Window &W) {
  D.addD(W.startTime().value());
  D.addD(W.timeSpan().value());
  D.addD(W.totalCost().value());
  D.addU(W.size());
  for (const WindowSlot &M : W) {
    D.addI(M.Source.NodeId);
    D.addD(M.Source.Start);
    D.addD(M.Source.End);
    D.addD(M.Runtime);
    D.addD(M.Cost);
  }
}

void digestOutcome(Digest &D, const IterationOutcome &O) {
  D.addU(O.Alternatives.PerJob.size());
  for (const std::vector<Window> &Alts : O.Alternatives.PerJob) {
    D.addU(Alts.size());
    for (const Window &W : Alts)
      digestWindow(D, W);
  }
  D.addD(O.TimeQuota);
  D.addD(O.VoBudget);
  D.addU(O.Choice.Feasible);
  for (size_t Sel : O.Choice.Selected)
    D.addU(Sel);
  D.addU(O.Scheduled.size());
  for (const ScheduledJob &S : O.Scheduled) {
    D.addI(S.JobId);
    D.addU(S.BatchIndex);
    D.addU(S.AlternativeIndex);
    digestWindow(D, S.W);
  }
  D.addU(O.Postponed.size());
  for (int Id : O.Postponed)
    D.addI(Id);
}

void digestReport(Digest &D, const VirtualOrganization::IterationReport &R) {
  D.addD(R.Now);
  D.addU(R.QueueLength);
  digestOutcome(D, R.Outcome);
  D.addU(R.Committed);
  D.addU(R.Dropped);
}

//===-- Generated inputs --------------------------------------------------===//

enum StreamTag : uint64_t {
  NodesTag = 1,
  LoadTag,
  ArrivalTag,
  ChurnTag,
  PaperTag,
};

/// Independent stream per (seed, tag, A, B): changing one knob never
/// shifts the draws of another input.
uint64_t streamSeed(uint64_t Seed, uint64_t Tag, uint64_t A, uint64_t B) {
  uint64_t H = Seed;
  for (uint64_t V : {Tag, A, B})
    H = SplitMix64(H ^ (V * 0xd1342543de82ef95ULL)).next();
  return H;
}

/// Shape of one VO's domain and job stream.
struct VoSpec {
  int Nodes = 0;
  double Period = 100.0;
  /// A whole number of periods, so horizon slices tile the time axis.
  double Horizon = 0.0;
  double ArrivalMean = 0.0;
  int MaxAttempts = 0;
  size_t MaxAlternativesPerJob = 0;
  bool Churn = false;
};

/// Owner background load: each node runs one local task in a period
/// with this probability, of a length drawn from [MinTask, MaxTask).
constexpr double BusyProbability = 0.9;
constexpr double MinTask = 20.0;
constexpr double MaxTask = 60.0;
/// Job deadlines, in periods after arrival.
constexpr double MinDeadlinePeriods = 3.0;
constexpr double MaxDeadlinePeriods = 12.0;
/// Job ids are Iteration * JobIdStride + arrival index.
constexpr int64_t JobIdStride = 256;

struct NodeSpec {
  double Performance = 1.0;
  double Price = 1.0;
};

/// One owner or user write applied between iterations.
struct Write {
  enum class Kind : uint8_t { LocalTask, Fail, Repair, Cancel, SetPrice };
  Kind K = Kind::LocalTask;
  int Node = -1;
  int JobId = -1;
  double A = 0.0;
  double B = 0.0;
  /// Background load lands beyond every horizon published so far, so the
  /// domain can never refuse it; a refusal means the inputs are broken.
  bool MustSucceed = false;
};

struct TenantInput {
  std::vector<Write> Writes;
  Batch Arrivals;
};

/// The per-iteration inputs of a VO workload: background load for the
/// horizon slice that becomes visible, churn writes, and arrivals. The
/// churn planner keeps its own record of failed nodes, so next() must be
/// called for I = 0, 1, 2, ... in order.
class VoInputs {
public:
  VoInputs(const VoSpec &Spec, uint64_t Seed, size_t Tenants)
      : Spec(Spec), Seed(Seed), Nodes(Tenants), RepairAt(Tenants),
        Current(Tenants) {
    for (size_t T = 0; T < Tenants; ++T) {
      // The machine room is the same for every seed (performance evenly
      // spread over [1, 3], price noise from a fixed stream), so seeds
      // vary the load and the job stream, not the hardware.
      RandomGenerator Rng(streamSeed(0, NodesTag, T, 0));
      for (int N = 0; N < Spec.Nodes; ++N) {
        NodeSpec S;
        S.Performance =
            1.0 + 2.0 * (N + 0.5) / static_cast<double>(Spec.Nodes);
        S.Price = Rng.uniformReal(0.75, 1.25) * std::pow(1.7, S.Performance);
        Nodes[T].push_back(S);
      }
      RepairAt[T].assign(static_cast<size_t>(Spec.Nodes), -1);
    }
  }

  /// Tenant \p T's nodes with background load over the first horizon.
  ComputingDomain makeDomain(size_t T) const {
    ComputingDomain D;
    for (const NodeSpec &S : Nodes[T])
      D.addNode(S.Performance, S.Price);
    std::vector<Write> Load;
    for (uint64_t Slice = 0; Slice < horizonSlices(); ++Slice)
      sliceWrites(T, Slice, Load);
    for (const Write &W : Load)
      ECOSCHED_CHECK(D.addLocalTask(W.Node, TimePoint(W.A), TimePoint(W.B)),
                     "background task refused on node {}", W.Node);
    return D;
  }

  const std::vector<TenantInput> &next(size_t I) {
    ECOSCHED_CHECK(I == NextIteration, "inputs requested for iteration {} "
                   "but {} is next", I, NextIteration);
    ++NextIteration;
    for (size_t T = 0; T < Current.size(); ++T) {
      TenantInput &In = Current[T];
      In.Writes.clear();
      In.Arrivals.clear();
      if (Spec.Churn)
        repairWrites(T, I, In.Writes);
      // The clock reaches I * Period before iteration I, so the slice
      // ending at the new horizon end becomes visible now.
      if (I > 0)
        sliceWrites(T, horizonSlices() + I - 1, In.Writes);
      if (Spec.Churn)
        churnWrites(T, I, In.Writes);
      arrivals(T, I, In.Arrivals);
    }
    return Current;
  }

private:
  uint64_t horizonSlices() const {
    return static_cast<uint64_t>(Spec.Horizon / Spec.Period);
  }

  /// A failed node refuses new occupancy, so its owner schedules no
  /// background load until it is repaired.
  void sliceWrites(size_t T, uint64_t Slice, std::vector<Write> &Out) const {
    for (int N = 0; N < Spec.Nodes; ++N) {
      if (RepairAt[T][static_cast<size_t>(N)] >= 0)
        continue;
      RandomGenerator Rng(
          streamSeed(Seed, LoadTag, T, (Slice << 16) | static_cast<uint64_t>(N)));
      if (!Rng.bernoulli(BusyProbability))
        continue;
      const double Len = Rng.uniformReal(MinTask, MaxTask);
      const double Start = static_cast<double>(Slice) * Spec.Period +
                           Rng.uniformReal(0.0, Spec.Period - Len);
      Write W;
      W.Node = N;
      W.A = Start;
      W.B = Start + Len;
      W.MustSucceed = true;
      Out.push_back(W);
    }
  }

  void repairWrites(size_t T, size_t I, std::vector<Write> &Out) {
    for (int N = 0; N < Spec.Nodes; ++N) {
      int64_t &At = RepairAt[T][static_cast<size_t>(N)];
      if (At != static_cast<int64_t>(I))
        continue;
      Write W;
      W.K = Write::Kind::Repair;
      W.Node = N;
      Out.push_back(W);
      At = -1;
    }
  }

  void churnWrites(size_t T, size_t I, std::vector<Write> &Out) {
    constexpr size_t MaxFailed = 2;
    const double Now = static_cast<double>(I) * Spec.Period;
    std::vector<int64_t> &Repair = RepairAt[T];
    const auto Failed = static_cast<size_t>(
        std::count_if(Repair.begin(), Repair.end(),
                      [](int64_t At) { return At >= 0; }));
    RandomGenerator Rng(streamSeed(Seed, ChurnTag, T, I));
    if (Failed < MaxFailed && Rng.bernoulli(0.25)) {
      int64_t Pick = Rng.uniformInt(
          0, Spec.Nodes - static_cast<int64_t>(Failed) - 1);
      for (int N = 0; N < Spec.Nodes; ++N) {
        if (Repair[static_cast<size_t>(N)] >= 0 || Pick-- > 0)
          continue;
        Write W;
        W.K = Write::Kind::Fail;
        W.Node = N;
        Out.push_back(W);
        Repair[static_cast<size_t>(N)] =
            static_cast<int64_t>(I) + Rng.uniformInt(2, 5);
        break;
      }
    }
    // A user cancels one of the first jobs submitted in a recent
    // iteration: it may be queued, running, finished or unknown.
    const int64_t Back = Rng.uniformInt(0, 4);
    if (static_cast<int64_t>(I) >= Back) {
      Write W;
      W.K = Write::Kind::Cancel;
      W.JobId = static_cast<int>((static_cast<int64_t>(I) - Back) * JobIdStride +
                                 Rng.uniformInt(0, 3));
      Out.push_back(W);
    }
    {
      Write W;
      W.K = Write::Kind::SetPrice;
      W.Node = static_cast<int>(Rng.uniformInt(0, Spec.Nodes - 1));
      W.A = Nodes[T][static_cast<size_t>(W.Node)].Price *
            Rng.uniformReal(0.8, 1.25);
      Out.push_back(W);
    }
    // Extra owner tasks inside the published horizon; the domain refuses
    // the ones that collide with existing occupancy.
    for (int K = 0; K < 2; ++K) {
      Write W;
      W.Node = static_cast<int>(Rng.uniformInt(0, Spec.Nodes - 1));
      const double Len = Rng.uniformReal(20.0, 60.0);
      W.A = Now + Rng.uniformReal(0.0, Spec.Horizon - Len);
      W.B = W.A + Len;
      Out.push_back(W);
    }
  }

  void arrivals(size_t T, size_t I, Batch &Out) const {
    RandomGenerator Rng(streamSeed(Seed, ArrivalTag, T, I));
    const int64_t Count =
        std::min<int64_t>(Rng.poisson(Spec.ArrivalMean), JobIdStride);
    for (int64_t K = 0; K < Count; ++K) {
      Job J;
      J.Id = static_cast<int>(static_cast<int64_t>(I) * JobIdStride + K);
      J.Request.NodeCount = static_cast<int>(Rng.uniformInt(1, 4));
      J.Request.Volume = Rng.uniformReal(30.0, 120.0);
      J.Request.MinPerformance = Rng.uniformReal(1.0, 1.8);
      J.Request.MaxUnitPrice = 1.1 * std::pow(1.7, J.Request.MinPerformance);
      // A deadline a few periods out: the job competes for the near part
      // of the horizon, waits while that is booked, and is dropped once
      // MaxAttempts iterations have passed without a window.
      J.Request.Deadline =
          static_cast<double>(I) * Spec.Period +
          Spec.Period * Rng.uniformReal(MinDeadlinePeriods, MaxDeadlinePeriods);
      Out.push_back(J);
    }
  }

  VoSpec Spec;
  uint64_t Seed;
  std::vector<std::vector<NodeSpec>> Nodes;
  /// Per tenant and node: iteration of the planned repair, -1 in service.
  std::vector<std::vector<int64_t>> RepairAt;
  std::vector<TenantInput> Current;
  size_t NextIteration = 0;
};

void applyWrite(VirtualOrganization &Vo, const Write &W, Digest &D) {
  switch (W.K) {
  case Write::Kind::LocalTask: {
    const bool Ok = Vo.mutableDomain().addLocalTask(W.Node, TimePoint(W.A),
                                                    TimePoint(W.B));
    ECOSCHED_CHECK(Ok || !W.MustSucceed, "background task refused on node {}",
                   W.Node);
    D.addU(Ok);
    return;
  }
  case Write::Kind::Fail:
    D.addU(Vo.injectNodeFailure(W.Node));
    return;
  case Write::Kind::Repair:
    Vo.repairNode(W.Node);
    return;
  case Write::Kind::Cancel:
    D.addU(Vo.cancelJob(W.JobId));
    return;
  case Write::Kind::SetPrice:
    Vo.mutableDomain().setNodePrice(W.Node, Price(W.A));
    return;
  }
}

void applyWrite(ReplicaVo &Vo, const Write &W, Digest &D, SpanRecorder &Rec) {
  switch (W.K) {
  case Write::Kind::LocalTask: {
    const bool Ok =
        Vo.addLocalTask(W.Node, TimePoint(W.A), TimePoint(W.B), Rec);
    ECOSCHED_CHECK(Ok || !W.MustSucceed, "background task refused on node {}",
                   W.Node);
    D.addU(Ok);
    return;
  }
  case Write::Kind::Fail:
    D.addU(Vo.injectNodeFailure(W.Node, Rec));
    return;
  case Write::Kind::Repair:
    Vo.repairNode(W.Node, Rec);
    return;
  case Write::Kind::Cancel:
    D.addU(Vo.cancelJob(W.JobId, Rec));
    return;
  case Write::Kind::SetPrice:
    Vo.setNodePrice(W.Node, Price(W.A), Rec);
    return;
  }
}

double elapsedMs(int64_t StartNs, int64_t EndNs) {
  return static_cast<double>(EndNs - StartNs) / 1e6;
}

VirtualOrganization::Config voConfig(const VoSpec &Spec, bool Reuse) {
  VirtualOrganization::Config Cfg;
  Cfg.IterationPeriod = Spec.Period;
  Cfg.HorizonLength = Spec.Horizon;
  Cfg.MaxAttempts = Spec.MaxAttempts;
  Cfg.ReuseFilter = Reuse;
  return Cfg;
}

Metascheduler::Config schedulerConfig(const VoSpec &Spec, bool Textbook) {
  Metascheduler::Config Cfg;
  Cfg.Search.MaxAlternativesPerJob = Spec.MaxAlternativesPerJob;
  Cfg.Search.UseFilter = !Textbook;
  return Cfg;
}

} // namespace

std::vector<std::vector<uint64_t>> Workload::replayOracle(size_t Count) {
  reset(OracleSystem);
  std::vector<std::vector<uint64_t>> Digests;
  Digests.reserve(Count);
  for (size_t I = 0; I < Count; ++I)
    Digests.push_back(step(I).Oracle.Digests);
  reset(0);
  return Digests;
}

namespace {

//===-- vo_steady ---------------------------------------------------------===//

class SteadyWorkload final : public Workload {
public:
  explicit SteadyWorkload(uint64_t Seed) : Seed(Seed) {}

  const WorkloadInfo &info() const override { return Info; }

  void reset(unsigned Systems) override {
    Facade.reset();
    Oracle.reset();
    Replica.reset();
    Rec.reset();
    Inputs.emplace(Spec, Seed, 1);
    const ComputingDomain Domain = Inputs->makeDomain(0);
    if (Systems & FacadeSystem)
      Facade.emplace(Domain, Production, voConfig(Spec, true));
    if (Systems & OracleSystem)
      Oracle.emplace(Domain, Textbook, voConfig(Spec, false));
    if (Systems & ReplicaSystem) {
      Replica.emplace(Domain, Amp, Dp, schedulerConfig(Spec, false),
                      voConfig(Spec, true));
      Rec.emplace(0, 0, Info.WarmupIterations,
                  Info.WarmupIterations + Info.CounterIterations);
    }
  }

  StepOut step(size_t I) override {
    const TenantInput &In = Inputs->next(I)[0];
    StepOut Out;
    Out.Submitted = In.Arrivals.size();
    // Alternate which twin runs first so neither always finds the
    // caches warmed by the other.
    if (Replica && I % 2 == 1)
      runReplica(I, In, Out.Replica);
    if (Facade)
      runFacade(*Facade, In, Out.Facade);
    if (Oracle)
      runFacade(*Oracle, In, Out.Oracle);
    if (Replica && I % 2 == 0)
      runReplica(I, In, Out.Replica);
    return Out;
  }

  std::vector<const SpanRecorder *> recorders() const override {
    if (!Rec)
      return {};
    return {&*Rec};
  }

private:
  static void runFacade(VirtualOrganization &Vo, const TenantInput &In,
                        SystemStep &Out) {
    Digest D;
    for (const Write &W : In.Writes)
      applyWrite(Vo, W, D);
    for (const Job &J : In.Arrivals)
      Vo.submit(J);
    const int64_t T0 = nowNs();
    const VirtualOrganization::IterationReport R = Vo.runIteration();
    Out.Ms = elapsedMs(T0, nowNs());
    digestReport(D, R);
    Out.Digests.push_back(D.value());
    Out.Placed += R.Committed;
  }

  void runReplica(size_t I, const TenantInput &In, SystemStep &Out) {
    Rec->beginIteration(static_cast<uint32_t>(I));
    Digest D;
    for (const Write &W : In.Writes)
      applyWrite(*Replica, W, D, *Rec);
    for (const Job &J : In.Arrivals)
      Replica->submit(J);
    const int64_t T0 = nowNs();
    const VirtualOrganization::IterationReport R = Replica->runIteration(*Rec);
    Out.Ms = elapsedMs(T0, nowNs());
    digestReport(D, R);
    Out.Digests.push_back(D.value());
    Out.Placed += R.Committed;
  }

  /// 36 nodes x 256 periods of horizon x ~0.9 background tasks per
  /// period: about 8.4k vacant slots per iteration. 24 arrivals per
  /// period keep the VO near saturation (~84% of jobs placed).
  static constexpr VoSpec Spec = {36, 100.0, 25600.0, 24.0, 8, 2, false};

  uint64_t Seed;
  WorkloadInfo Info = {"vo_steady", 30, 200, 0, 1};
  AmpSearch Amp;
  DpOptimizer Dp;
  Metascheduler Production{Amp, Dp, schedulerConfig(Spec, false)};
  Metascheduler Textbook{Amp, Dp, schedulerConfig(Spec, true)};
  std::optional<VoInputs> Inputs;
  std::optional<VirtualOrganization> Facade;
  std::optional<VirtualOrganization> Oracle;
  std::optional<ReplicaVo> Replica;
  std::optional<SpanRecorder> Rec;
};

//===-- vo_churn ----------------------------------------------------------===//

class ChurnWorkload final : public Workload {
public:
  explicit ChurnWorkload(uint64_t Seed)
      : Seed(Seed),
        Pool(std::min<size_t>(Tenants, ThreadPool::resolveThreadCount(0)),
             ThreadPool::ScheduleFuzz()) {
    Info.PoolSize = Pool.threadCount();
  }

  const WorkloadInfo &info() const override { return Info; }

  void reset(unsigned Systems) override {
    Facade.reset();
    Oracle.reset();
    Replicas.clear();
    Recorders.clear();
    Inputs.emplace(Spec, Seed, Tenants);
    if (Systems & FacadeSystem)
      Facade.emplace(MultiVoDriver::Config{&Pool});
    if (Systems & OracleSystem)
      Oracle.emplace(MultiVoDriver::Config{&Pool});
    if (Systems & ReplicaSystem) {
      Replicas.reserve(Tenants);
      Recorders.reserve(Tenants + 1);
      Recorders.emplace_back(0, 0, Info.WarmupIterations,
                             Info.WarmupIterations + Info.CounterIterations);
    }
    for (size_t T = 0; T < Tenants; ++T) {
      const ComputingDomain Domain = Inputs->makeDomain(T);
      if (Facade)
        Facade->addTenant(Domain, Production, voConfig(Spec, true), T);
      if (Oracle)
        Oracle->addTenant(Domain, Textbook, voConfig(Spec, false), T);
      if (Systems & ReplicaSystem) {
        Replicas.emplace_back(Domain, Amp, Dp, schedulerConfig(Spec, false),
                              voConfig(Spec, true));
        Recorders.emplace_back(static_cast<uint32_t>(T + 1),
                               static_cast<uint32_t>(T), Info.WarmupIterations,
                               Info.WarmupIterations + Info.CounterIterations);
      }
    }
  }

  StepOut step(size_t I) override {
    const std::vector<TenantInput> &In = Inputs->next(I);
    StepOut Out;
    for (const TenantInput &T : In)
      Out.Submitted += T.Arrivals.size();
    const bool HasReplica = !Replicas.empty();
    if (HasReplica && I % 2 == 1)
      runReplica(I, In, Out.Replica);
    if (Facade)
      runDriver(*Facade, In, Out.Facade);
    if (Oracle)
      runDriver(*Oracle, In, Out.Oracle);
    if (HasReplica && I % 2 == 0)
      runReplica(I, In, Out.Replica);
    return Out;
  }

  std::vector<const SpanRecorder *> recorders() const override {
    std::vector<const SpanRecorder *> Out;
    for (const SpanRecorder &R : Recorders)
      Out.push_back(&R);
    return Out;
  }

private:
  static void runDriver(MultiVoDriver &Driver,
                        const std::vector<TenantInput> &In, SystemStep &Out) {
    std::vector<Digest> Digests(In.size());
    for (size_t T = 0; T < In.size(); ++T)
      for (const Write &W : In[T].Writes)
        applyWrite(Driver.tenant(T), W, Digests[T]);
    // Arrivals are read-only shared input, safe from every worker.
    const MultiVoDriver::ArrivalFn Arrivals =
        [&In](size_t Vo, size_t, RandomGenerator &) {
          return In[Vo].Arrivals;
        };
    const int64_t T0 = nowNs();
    const std::vector<MultiVoDriver::TenantIteration> Results =
        Driver.runIteration(Arrivals);
    Out.Ms = elapsedMs(T0, nowNs());
    for (size_t T = 0; T < In.size(); ++T) {
      digestReport(Digests[T], Results[T].Report);
      Out.Digests.push_back(Digests[T].value());
      Out.Placed += Results[T].Report.Committed;
    }
  }

  void runReplica(size_t I, const std::vector<TenantInput> &In,
                  SystemStep &Out) {
    const auto Iteration = static_cast<uint32_t>(I);
    SpanRecorder &Main = Recorders[0];
    Main.beginIteration(Iteration);
    std::vector<Digest> Digests(In.size());
    for (size_t T = 0; T < In.size(); ++T) {
      SpanRecorder &Rec = Recorders[T + 1];
      Rec.beginIteration(Iteration);
      for (const Write &W : In[T].Writes)
        applyWrite(Replicas[T], W, Digests[T], Rec);
    }
    std::vector<VirtualOrganization::IterationReport> Reports;
    const int64_t T0 = nowNs();
    {
      SpanRecorder::Scope Fanout(Main, Layer::Fanout);
      const SpanId Parent = Fanout.id();
      Reports = Pool.parallelMap<VirtualOrganization::IterationReport>(
          In.size(), /*Chunk=*/1, [&](size_t T) {
            SpanRecorder &Rec = Recorders[T + 1];
            Rec.beginIteration(Iteration, Parent);
            for (const Job &J : In[T].Arrivals)
              Replicas[T].submit(J);
            return Replicas[T].runIteration(Rec);
          });
    }
    Out.Ms = elapsedMs(T0, nowNs());
    for (size_t T = 0; T < In.size(); ++T) {
      digestReport(Digests[T], Reports[T]);
      Out.Digests.push_back(Digests[T].value());
      Out.Placed += Reports[T].Committed;
    }
  }

  static constexpr size_t Tenants = 8;
  /// Smaller domains than vo_steady (16 nodes x 32 periods, ~370 vacant
  /// slots each), so writes are a large share of every delta.
  static constexpr VoSpec Spec = {16, 100.0, 3200.0, 5.0, 8, 2, true};

  uint64_t Seed;
  WorkloadInfo Info = {"vo_churn", 30, 200, 0, Tenants};
  ThreadPool Pool;
  AmpSearch Amp;
  DpOptimizer Dp;
  Metascheduler Production{Amp, Dp, schedulerConfig(Spec, false)};
  Metascheduler Textbook{Amp, Dp, schedulerConfig(Spec, true)};
  std::optional<VoInputs> Inputs;
  std::optional<MultiVoDriver> Facade;
  std::optional<MultiVoDriver> Oracle;
  std::vector<ReplicaVo> Replicas;
  /// Recorder 0 holds the fan-out spans; recorder T + 1 is tenant T's.
  std::vector<SpanRecorder> Recorders;
};

//===-- paper_batch -------------------------------------------------------===//

class PaperWorkload final : public Workload {
public:
  explicit PaperWorkload(uint64_t Seed) : Seed(Seed) {}

  const WorkloadInfo &info() const override { return Info; }

  void reset(unsigned InSystems) override {
    Systems = InSystems;
    Rec.reset();
    if (Systems & ReplicaSystem)
      Rec.emplace(0, 0, Info.WarmupIterations,
                  Info.WarmupIterations + Info.CounterIterations);
  }

  StepOut step(size_t I) override {
    SlotList List;
    Batch Jobs;
    inputs(I, List, Jobs);
    const bool UseAmp = I % 2 == 1;
    StepOut Out;
    Out.Submitted = Jobs.size();
    if ((Systems & ReplicaSystem) && I % 2 == 1)
      runReplica(I, UseAmp, List, Jobs, Out.Replica);
    if (Systems & FacadeSystem)
      runFacade(UseAmp ? ProductionAmp : ProductionAlp, List, Jobs,
                Out.Facade);
    if (Systems & OracleSystem)
      runFacade(UseAmp ? TextbookAmp : TextbookAlp, List, Jobs, Out.Oracle);
    if ((Systems & ReplicaSystem) && I % 2 == 0)
      runReplica(I, UseAmp, List, Jobs, Out.Replica);
    return Out;
  }

  std::vector<const SpanRecorder *> recorders() const override {
    if (!Rec)
      return {};
    return {&*Rec};
  }

  /// Operations share no state, so the oracle fans out over every core.
  std::vector<std::vector<uint64_t>> replayOracle(size_t Count) override {
    ThreadPool Pool(0, ThreadPool::ScheduleFuzz());
    return Pool.parallelMap<std::vector<uint64_t>>(
        Count, /*Chunk=*/64, [&](size_t I) {
          SlotList List;
          Batch Jobs;
          inputs(I, List, Jobs);
          SystemStep Out;
          runFacade(I % 2 == 1 ? TextbookAmp : TextbookAlp, List, Jobs, Out);
          return Out.Digests;
        });
  }

private:
  void inputs(size_t I, SlotList &List, Batch &Jobs) const {
    RandomGenerator Rng(streamSeed(Seed, PaperTag, 0, I));
    List = SlotGen.generate(Rng);
    Jobs = JobGen.generate(Rng, 0);
  }

  static Metascheduler::Config config(bool Textbook) {
    Metascheduler::Config Cfg;
    Cfg.Task = OptimizationTaskKind::MinimizeTime;
    Cfg.Quota = QuotaPolicyKind::FlooredTerms;
    Cfg.Search.UseFilter = !Textbook;
    return Cfg;
  }

  static void runFacade(const Metascheduler &Scheduler, const SlotList &List,
                        const Batch &Jobs, SystemStep &Out) {
    const int64_t T0 = nowNs();
    const IterationOutcome O = Scheduler.runIteration(List, Jobs);
    Out.Ms = elapsedMs(T0, nowNs());
    Digest D;
    digestOutcome(D, O);
    Out.Digests.push_back(D.value());
    Out.Placed += O.Scheduled.size();
  }

  void runReplica(size_t I, bool UseAmp, const SlotList &List,
                  const Batch &Jobs, SystemStep &Out) {
    Rec->beginIteration(static_cast<uint32_t>(I));
    const SlotSearchAlgorithm &Algo =
        UseAmp ? static_cast<const SlotSearchAlgorithm &>(Amp) : Alp;
    const int64_t T0 = nowNs();
    IterationOutcome O;
    {
      SpanRecorder::Scope Root(*Rec, Layer::Iteration);
      O = tracedSchedule(Algo, Dp, config(false), List, Jobs, nullptr, *Rec);
    }
    Out.Ms = elapsedMs(T0, nowNs());
    Digest D;
    digestOutcome(D, O);
    Out.Digests.push_back(D.value());
    Out.Placed += O.Scheduled.size();
  }

  uint64_t Seed;
  WorkloadInfo Info = {"paper_batch", 200, 2000, 0, 1};
  unsigned Systems = 0;
  SlotGenerator SlotGen;
  JobGenerator JobGen;
  AlpSearch Alp;
  AmpSearch Amp;
  /// The Section 5 harness's DP resolution (ExperimentConfig::DpBins).
  DpOptimizer Dp{2048};
  Metascheduler ProductionAlp{Alp, Dp, config(false)};
  Metascheduler ProductionAmp{Amp, Dp, config(false)};
  Metascheduler TextbookAlp{Alp, Dp, config(true)};
  Metascheduler TextbookAmp{Amp, Dp, config(true)};
  std::optional<SpanRecorder> Rec;
};

} // namespace

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed) {
  if (Name == "vo_steady")
    return std::make_unique<SteadyWorkload>(Seed);
  if (Name == "paper_batch")
    return std::make_unique<PaperWorkload>(Seed);
  if (Name == "vo_churn")
    return std::make_unique<ChurnWorkload>(Seed);
  return nullptr;
}

} // namespace perfbench
