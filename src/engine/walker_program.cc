// The two walker programs: the generic SamplerProgram, which runs the
// registry's own Sampler one Draw() per resume, and the flat `walk` fast
// path, whose FlatStepper mirrors the built-in designs' Step() bodies in
// mcmc/transition.cc — that correspondence is what tests/engine_test.cc's
// byte-identity sweep enforces, so when one side changes the other must.
#include "engine/walker_program.h"

#include <optional>
#include <string>

#include "util/check.h"

namespace wnw {

namespace {

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
    RngCore& rng = w.rng;
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

// `walk` at scale: the walker record alone, stepping against the worker's
// scan interface. aux = design steps into the current draw.
class FlatWalkProgram final : public WalkerProgram {
 public:
  FlatWalkProgram(FixedWalkSampler::Options options, FlatStepper stepper,
                  std::string name)
      : options_(options), stepper_(stepper), name_(std::move(name)) {}

  std::string_view name() const override { return name_; }
  bool flat() const override { return true; }

  Result<ResumeOutcome> Resume(EngineWalker& w, WalkerSession*,
                               FlatScan* scan) const override {
    w.node = stepper_.Step(*scan, w, w.node);
    if (++w.aux < static_cast<uint32_t>(options_.steps)) {
      return ResumeOutcome::kContinue;
    }
    w.aux = 0;
    return ResumeOutcome::kEmit;
  }

 private:
  FixedWalkSampler::Options options_;
  FlatStepper stepper_;
  std::string name_;
};

// --- every sampler (session mode) ------------------------------------------

// Every other sampler (and `walk` off the flat path): the walker owns an
// access session and the registry's own Sampler, built with the arguments
// SamplingSession::Open passes pool walker g, and each resume is one Draw().
class SamplerProgram final : public WalkerProgram {
 public:
  SamplerProgram(SamplerConfig config, const TransitionDesign* design,
                 ProgramContext context, std::string name)
      : config_(std::move(config)),
        design_(design),
        context_(std::move(context)),
        name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  Status Init(NodeId start, uint64_t seed,
              WalkerSession* session) const override {
    session->access = std::make_unique<AccessInterface>(
        context_.backend, context_.query_cache, context_.executor);
    WNW_ASSIGN_OR_RETURN(
        session->sampler,
        SamplerRegistry::Global().Create(config_, session->access.get(),
                                         design_, start, seed));
    return Status::OK();
  }

  Result<ResumeOutcome> Resume(EngineWalker& w, WalkerSession* session,
                               FlatScan*) const override {
    WNW_ASSIGN_OR_RETURN(w.node, session->sampler->Draw());
    return ResumeOutcome::kEmit;
  }

 private:
  SamplerConfig config_;
  const TransitionDesign* design_;
  ProgramContext context_;
  std::string name_;
};

}  // namespace

Result<std::unique_ptr<WalkerProgram>> CompileWalkerProgram(
    const SamplerConfig& config, const TransitionDesign* design,
    const ProgramContext& context, bool allow_flat) {
  WNW_CHECK(design != nullptr && context.backend != nullptr);
  if (allow_flat && config.sampler == "walk") {
    if (const auto stepper = FlatStepper::For(design)) {
      FixedWalkSampler::Options options;
      WNW_RETURN_IF_ERROR(ReadFixedWalkOptions(config, &options));
      return std::unique_ptr<WalkerProgram>(new FlatWalkProgram(
          options, *stepper, std::string(design->name()) + "+FixedWalk"));
    }
  }
  // A probe built the way a session builds its sampler validates the params
  // up front (before any walker or sample buffer exists) and names the run.
  AccessInterface probe_access(context.backend, context.query_cache,
                               context.executor);
  WNW_ASSIGN_OR_RETURN(std::unique_ptr<Sampler> probe,
                       SamplerRegistry::Global().Create(
                           config, &probe_access, design, /*start=*/0,
                           /*seed=*/0));
  return std::unique_ptr<WalkerProgram>(new SamplerProgram(
      config, design, context, std::string(probe->name())));
}

}  // namespace wnw
