// The compiled per-step forms of the five built-in samplers. Every program
// documents its state-machine encoding (phase/aux/aux2) and mirrors the
// corresponding Draw() in core/samplers.cc / core/walk_estimate.cc /
// core/path_sampler.cc line by line: same component calls, same order, same
// RNG stream — that correspondence is what tests/engine_test.cc's
// byte-identity sweep enforces, so when one side changes the other must.
#include "engine/walker_program.h"

#include <algorithm>
#include <optional>
#include <string>

#include "util/check.h"
#include "util/string_util.h"

namespace wnw {

namespace {

// --- shared helpers ----------------------------------------------------------

std::unique_ptr<WalkerSession> MakeSession(const ProgramContext& context) {
  auto side = std::make_unique<WalkerSession>();
  side->access = std::make_unique<AccessInterface>(
      context.backend, context.query_cache, context.executor);
  return side;
}

// Geweke burn-in loop body shared by burnin and longrun (the samplers share
// it textually; see BurnInSampler::Draw). Returns true when the walk at
// state.node is the post-burn-in node. One design step per call.
bool BurnInStep(EngineWalker& w, const TransitionDesign& design,
                const BurnInSampler::Options& options) {
  WalkerSession& side = *w.side;
  w.state.node = design.Step(*side.access, w.state.node, w.rng);
  side.monitor->Add(
      static_cast<double>(side.access->EffectiveDegree(w.state.node)));
  ++w.state.aux;
  const int steps = static_cast<int>(w.state.aux);
  if (steps >= options.min_steps && steps % options.check_interval == 0 &&
      side.monitor->Converged()) {
    return true;
  }
  return steps >= options.max_steps;
}

// Starts a fresh monitored walk from home (the head of BurnInSampler::Draw:
// fresh monitor, observe the start node's degree).
void BurnInStart(EngineWalker& w, const BurnInSampler::Options& options) {
  WalkerSession& side = *w.side;
  side.monitor = std::make_unique<GewekeMonitor>(options.geweke);
  w.state.node = w.state.home;
  side.monitor->Add(
      static_cast<double>(side.access->EffectiveDegree(w.state.node)));
  w.state.aux = 0;
}

// The longrun program keeps the burn-in sampler's step bounds, which a
// longrun session (and so ReadLongRunOptions) does not enforce.
Status ValidateBurnIn(const BurnInSampler::Options& options) {
  if (options.min_steps < 1 || options.max_steps < options.min_steps) {
    return Status::InvalidArgument(
        "burn-in options need min_steps >= 1 and max_steps >= min_steps");
  }
  return Status::OK();
}

// --- walk (flat) -------------------------------------------------------------

// The four built-in transition designs, replicated step-for-step so a flat
// walker needs no AccessInterface of its own. Must mirror the Step() bodies
// in mcmc/transition.cc exactly (RNG call order included).
struct FlatStepper {
  enum class Kind { kSrw, kLazy, kMhrw, kMaxDeg };
  Kind kind = Kind::kSrw;
  double alpha = 0.5;  // kLazy
  uint32_t degree_bound = 0;  // kMaxDeg

  static std::optional<FlatStepper> For(const TransitionDesign* design) {
    FlatStepper stepper;
    if (dynamic_cast<const SimpleRandomWalk*>(design) != nullptr) {
      stepper.kind = Kind::kSrw;
    } else if (const auto* lazy =
                   dynamic_cast<const LazyRandomWalk*>(design)) {
      stepper.kind = Kind::kLazy;
      stepper.alpha = lazy->alpha();
    } else if (dynamic_cast<const MetropolisHastingsWalk*>(design) !=
               nullptr) {
      stepper.kind = Kind::kMhrw;
    } else if (const auto* maxdeg =
                   dynamic_cast<const MaxDegreeWalk*>(design)) {
      stepper.kind = Kind::kMaxDeg;
      stepper.degree_bound = maxdeg->degree_bound();
    } else {
      return std::nullopt;  // externally registered design: session mode
    }
    return stepper;
  }

  NodeId Step(FlatScan& scan, EngineWalker& w, NodeId u) const {
    Rng& rng = w.rng;
    switch (kind) {
      case Kind::kLazy:
        if (rng.NextBool(alpha)) return u;
        [[fallthrough]];  // LazyRandomWalk::Step falls into the SRW body
      case Kind::kSrw: {
        const auto nbrs = w.meter.Fetch(scan, u);
        if (nbrs.empty()) return u;  // SampleNeighbor -> kInvalidNode -> stay
        return nbrs[rng.NextBounded(nbrs.size())];
      }
      case Kind::kMhrw: {
        const auto nbrs = w.meter.Fetch(scan, u);
        if (nbrs.empty()) return u;
        const NodeId v = nbrs[rng.NextBounded(nbrs.size())];
        const double du = static_cast<double>(nbrs.size());
        const double dv =
            static_cast<double>(w.meter.Fetch(scan, v).size());
        if (dv <= 0.0) return u;
        return rng.NextDouble() < du / dv ? v : u;
      }
      case Kind::kMaxDeg: {
        const auto nbrs = w.meter.Fetch(scan, u);
        if (nbrs.empty()) return u;
        const uint64_t pick = rng.NextBounded(degree_bound);
        if (pick < nbrs.size()) return nbrs[static_cast<size_t>(pick)];
        return u;
      }
    }
    return u;
  }
};

// `walk` at scale: POD state + WalkerMeter, stepping against the worker's
// scan interface. aux = design steps into the current draw.
class FlatWalkProgram final : public WalkerProgram {
 public:
  FlatWalkProgram(FixedWalkSampler::Options options, FlatStepper stepper,
                  std::string name)
      : options_(options), stepper_(stepper), name_(std::move(name)) {}

  std::string_view name() const override { return name_; }
  bool flat() const override { return true; }

  Status Init(EngineWalker& w) const override {
    w.state.node = w.state.home;
    return Status::OK();
  }

  Result<ResumeOutcome> Resume(EngineWalker& w,
                               FlatScan* scan) const override {
    w.state.node = stepper_.Step(*scan, w, w.state.node);
    if (++w.state.aux == static_cast<uint32_t>(options_.steps)) {
      w.state.aux = 0;
      w.Emit(w.state.node);
      if (w.full()) return ResumeOutcome::kDone;
    }
    return ResumeOutcome::kContinue;
  }

 private:
  FixedWalkSampler::Options options_;
  FlatStepper stepper_;
  std::string name_;
};

// `walk` in session mode (restrictions or a shared cache in play): the
// walker owns a real access session and the real design does the stepping.
class SessionWalkProgram final : public WalkerProgram {
 public:
  SessionWalkProgram(FixedWalkSampler::Options options,
                     const TransitionDesign* design, ProgramContext context,
                     std::string name)
      : options_(options),
        design_(design),
        context_(std::move(context)),
        name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  Status Init(EngineWalker& w) const override {
    w.side = MakeSession(context_);
    w.state.node = w.state.home;
    return Status::OK();
  }

  Result<ResumeOutcome> Resume(EngineWalker& w,
                               FlatScan*) const override {
    w.state.node = design_->Step(*w.side->access, w.state.node, w.rng);
    if (++w.state.aux == static_cast<uint32_t>(options_.steps)) {
      w.state.aux = 0;
      w.Emit(w.state.node);
      if (w.full()) return ResumeOutcome::kDone;
    }
    return ResumeOutcome::kContinue;
  }

 private:
  FixedWalkSampler::Options options_;
  const TransitionDesign* design_;
  ProgramContext context_;
  std::string name_;
};

// --- burnin ------------------------------------------------------------------

// "Many short runs": phase 0 starts a fresh monitored walk from home, phase
// 1 walks until the Geweke verdict (or the cap) and emits the landing node.
// aux = steps into the current walk.
class BurnInProgram final : public WalkerProgram {
 public:
  BurnInProgram(BurnInSampler::Options options, const TransitionDesign* design,
                ProgramContext context, std::string name)
      : options_(options),
        design_(design),
        context_(std::move(context)),
        name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  Status Init(EngineWalker& w) const override {
    w.side = MakeSession(context_);
    w.state.node = w.state.home;
    w.state.phase = 0;
    return Status::OK();
  }

  Result<ResumeOutcome> Resume(EngineWalker& w,
                               FlatScan*) const override {
    if (w.state.phase == 0) {
      BurnInStart(w, options_);
      w.state.phase = 1;
      return ResumeOutcome::kContinue;
    }
    if (BurnInStep(w, *design_, options_)) {
      w.Emit(w.state.node);
      w.state.phase = 0;
      if (w.full()) return ResumeOutcome::kDone;
    }
    return ResumeOutcome::kContinue;
  }

 private:
  BurnInSampler::Options options_;
  const TransitionDesign* design_;
  ProgramContext context_;
  std::string name_;
};

// --- longrun -----------------------------------------------------------------

// Burn in once (phase 0 -> 1), emit the first post-burn-in node, then emit
// every `thinning`-th node (phase 2). aux = steps into burn-in / steps into
// the current thinning stretch.
class LongRunProgram final : public WalkerProgram {
 public:
  LongRunProgram(OneLongRunSampler::Options options,
                 const TransitionDesign* design, ProgramContext context,
                 std::string name)
      : options_(options),
        design_(design),
        context_(std::move(context)),
        name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  Status Init(EngineWalker& w) const override {
    w.side = MakeSession(context_);
    w.state.node = w.state.home;
    w.state.phase = 0;
    return Status::OK();
  }

  Result<ResumeOutcome> Resume(EngineWalker& w,
                               FlatScan*) const override {
    switch (w.state.phase) {
      case 0:
        BurnInStart(w, options_.burn_in);
        w.state.phase = 1;
        return ResumeOutcome::kContinue;
      case 1:
        if (BurnInStep(w, *design_, options_.burn_in)) {
          w.Emit(w.state.node);  // the first post-burn-in node is a sample
          w.state.phase = 2;
          w.state.aux = 0;
          if (w.full()) return ResumeOutcome::kDone;
        }
        return ResumeOutcome::kContinue;
      default:
        w.state.node = design_->Step(*w.side->access, w.state.node, w.rng);
        if (++w.state.aux == static_cast<uint32_t>(options_.thinning)) {
          w.state.aux = 0;
          w.Emit(w.state.node);
          if (w.full()) return ResumeOutcome::kDone;
        }
        return ResumeOutcome::kContinue;
    }
  }

 private:
  OneLongRunSampler::Options options_;
  const TransitionDesign* design_;
  ProgramContext context_;
  std::string name_;
};

// --- we ----------------------------------------------------------------------

// WALK-ESTIMATE: phase 0 starts a candidate walk (after the one-time
// estimator crawl), phase 1 walks t steps, then the estimate + rejection
// decision happens inline at step t — the whole post-walk block of
// WalkEstimateSampler::Draw runs in that single Resume so its access/RNG
// order is preserved. aux = steps into the walk; aux2 = candidates started
// for the current draw.
class WeProgram final : public WalkerProgram {
 public:
  WeProgram(WalkEstimateOptions options, const TransitionDesign* design,
            ProgramContext context, std::string name)
      : options_(options),
        design_(design),
        context_(std::move(context)),
        name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  Status Init(EngineWalker& w) const override {
    w.side = MakeSession(context_);
    w.side->estimator = std::make_unique<ProbabilityEstimator>(
        design_, w.state.home, options_.EffectiveWalkLength(),
        options_.estimate);
    w.side->rejection =
        std::make_unique<RejectionSampler>(options_.rejection);
    w.state.node = w.state.home;
    w.state.phase = 0;
    return Status::OK();
  }

  Result<ResumeOutcome> Resume(EngineWalker& w,
                               FlatScan*) const override {
    WalkerSession& side = *w.side;
    if (w.state.phase == 0) {
      if (!side.prepared) {
        side.estimator->Prepare(*side.access);
        side.prepared = true;
      }
      if (static_cast<int>(w.state.aux2) >=
          options_.max_candidates_per_draw) {
        return Status::ResourceExhausted(
            StrFormat("%s: no acceptance within %d candidates",
                      name_.c_str(), options_.max_candidates_per_draw));
      }
      ++w.state.aux2;
      side.path_buf.clear();
      side.path_buf.push_back(w.state.home);
      w.state.node = w.state.home;
      w.state.aux = 0;
      w.state.phase = 1;
      return ResumeOutcome::kContinue;
    }
    w.state.node = design_->Step(*side.access, w.state.node, w.rng);
    side.path_buf.push_back(w.state.node);
    if (++w.state.aux <
        static_cast<uint32_t>(options_.EffectiveWalkLength())) {
      return ResumeOutcome::kContinue;
    }
    // Step t reached: ESTIMATE + acceptance-rejection, exactly as the
    // sampler's Draw() does after its Walk() returns.
    const NodeId v = w.state.node;
    side.estimator->RecordForwardWalk(side.path_buf);
    const PtEstimate est = side.estimator->Estimate(*side.access, v, w.rng);
    const double target = design_->StationaryWeight(*side.access, v);
    const bool accept =
        (est.mean <= 0.0 || target <= 0.0)
            ? true  // degenerate ratio: accepted outright, kept out of the
                    // percentile bootstrap (see WalkEstimateSampler::Draw)
            : side.rejection->Accept(est.mean / target, w.rng);
    w.state.phase = 0;
    if (accept) {
      w.Emit(v);
      w.state.aux2 = 0;
      if (w.full()) return ResumeOutcome::kDone;
    }
    return ResumeOutcome::kContinue;
  }

 private:
  WalkEstimateOptions options_;
  const TransitionDesign* design_;
  ProgramContext context_;
  std::string name_;
};

// --- we-path -----------------------------------------------------------------

// The §6.1 path extension: phase 1's step-t Resume harvests EVERY candidate
// along the path into side.pending, then drains pending into emits (each
// emitted node ends one draw, resetting the per-draw walk guard). aux =
// steps into the walk; aux2 = walks started for the current draw.
class WePathProgram final : public WalkerProgram {
 public:
  WePathProgram(WalkEstimatePathSampler::Options options,
                const TransitionDesign* design, ProgramContext context,
                std::string name)
      : options_(options),
        design_(design),
        context_(std::move(context)),
        name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  Status Init(EngineWalker& w) const override {
    w.side = MakeSession(context_);
    w.side->estimator = std::make_unique<ProbabilityEstimator>(
        design_, w.state.home, options_.base.EffectiveWalkLength(),
        options_.base.estimate);
    w.side->rejection =
        std::make_unique<RejectionSampler>(options_.base.rejection);
    w.state.node = w.state.home;
    w.state.phase = 0;
    return Status::OK();
  }

  Result<ResumeOutcome> Resume(EngineWalker& w,
                               FlatScan*) const override {
    WalkerSession& side = *w.side;
    if (w.state.phase == 0) {
      if (!side.prepared) {
        side.estimator->Prepare(*side.access);
        side.prepared = true;
      }
      if (static_cast<int>(++w.state.aux2) > options_.max_walks_per_draw) {
        return Status::ResourceExhausted(
            StrFormat("%s: no acceptance within %d walks", name_.c_str(),
                      options_.max_walks_per_draw));
      }
      side.path_buf.clear();
      side.path_buf.push_back(w.state.home);
      w.state.node = w.state.home;
      w.state.aux = 0;
      w.state.phase = 1;
      return ResumeOutcome::kContinue;
    }
    w.state.node = design_->Step(*side.access, w.state.node, w.rng);
    side.path_buf.push_back(w.state.node);
    const int t = options_.base.EffectiveWalkLength();
    if (++w.state.aux < static_cast<uint32_t>(t)) {
      return ResumeOutcome::kContinue;
    }
    // Harvest the whole path, then prefetch + estimate per candidate — the
    // body of WalkEstimatePathSampler::Draw's while loop, verbatim.
    const int s_min = options_.EffectiveMinStep();
    side.candidate_buf.clear();
    for (int s = s_min; s <= t; s += options_.stride) {
      side.candidate_buf.push_back(side.path_buf[static_cast<size_t>(s)]);
    }
    side.access->PrefetchAsync(side.candidate_buf);
    side.estimator->RecordForwardWalk(side.path_buf);
    for (int s = s_min; s <= t; s += options_.stride) {
      const NodeId v = side.path_buf[static_cast<size_t>(s)];
      const PtEstimate est =
          side.estimator->EstimateAtStep(*side.access, v, s, w.rng);
      const double target = design_->StationaryWeight(*side.access, v);
      if (est.mean <= 0.0 || target <= 0.0) {
        side.pending.push_back(v);
        continue;
      }
      if (side.rejection->Accept(est.mean / target, w.rng)) {
        side.pending.push_back(v);
      }
    }
    // Each pending pop completes one draw (the pool would call Draw() again
    // and pop without walking), so the walk guard resets per emit. Leftover
    // pending after the last emit is discarded on both sides.
    w.state.phase = 0;
    while (!w.full() && !side.pending.empty()) {
      w.Emit(side.pending.front());
      side.pending.pop_front();
      w.state.aux2 = 0;
    }
    if (w.full()) return ResumeOutcome::kDone;
    return ResumeOutcome::kContinue;
  }

 private:
  WalkEstimatePathSampler::Options options_;
  const TransitionDesign* design_;
  ProgramContext context_;
  std::string name_;
};

std::string DesignSuffixName(const TransitionDesign* design,
                             std::string_view suffix) {
  return std::string(design->name()) + std::string(suffix);
}

}  // namespace

Result<std::unique_ptr<WalkerProgram>> CompileWalkerProgram(
    const SamplerConfig& config, const TransitionDesign* design,
    const ProgramContext& context, bool allow_flat) {
  WNW_CHECK(design != nullptr && context.backend != nullptr);
  if (config.sampler == "walk") {
    FixedWalkSampler::Options options;
    WNW_RETURN_IF_ERROR(ReadFixedWalkOptions(config, &options));
    if (allow_flat) {
      if (const auto stepper = FlatStepper::For(design)) {
        return std::unique_ptr<WalkerProgram>(
            new FlatWalkProgram(options, *stepper,
                                DesignSuffixName(design, "+FixedWalk")));
      }
    }
    return std::unique_ptr<WalkerProgram>(
        new SessionWalkProgram(options, design, context,
                               DesignSuffixName(design, "+FixedWalk")));
  }
  if (config.sampler == "burnin") {
    BurnInSampler::Options options;
    WNW_RETURN_IF_ERROR(ReadBurnInOptions(config, &options));
    return std::unique_ptr<WalkerProgram>(
        new BurnInProgram(options, design, context,
                          DesignSuffixName(design, "+Geweke")));
  }
  if (config.sampler == "longrun") {
    OneLongRunSampler::Options options;
    WNW_RETURN_IF_ERROR(ReadLongRunOptions(config, &options));
    WNW_RETURN_IF_ERROR(ValidateBurnIn(options.burn_in));
    return std::unique_ptr<WalkerProgram>(
        new LongRunProgram(options, design, context,
                           DesignSuffixName(design, "+LongRun")));
  }
  if (config.sampler == "we") {
    WNW_ASSIGN_OR_RETURN(WalkEstimateOptions options,
                         ReadWalkEstimateOptions(config));
    return std::unique_ptr<WalkerProgram>(new WeProgram(
        options, design, context,
        StrFormat("WE(%.*s)", static_cast<int>(design->name().size()),
                  design->name().data())));
  }
  if (config.sampler == "we-path") {
    WNW_ASSIGN_OR_RETURN(WalkEstimatePathSampler::Options options,
                         ReadWalkEstimatePathOptions(config));
    if (options.max_walks_per_draw < 1) {
      return Status::InvalidArgument("we-path needs max_walks >= 1");
    }
    return std::unique_ptr<WalkerProgram>(new WePathProgram(
        options, design, context,
        StrFormat("WE-Path(%.*s)", static_cast<int>(design->name().size()),
                  design->name().data())));
  }
  return Status::InvalidArgument(
      "sampler '" + config.sampler +
      "' has no block-engine walker program (supported: burnin, longrun, "
      "walk, we, we-path)");
}

}  // namespace wnw
