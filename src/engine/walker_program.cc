// The two walker programs: the generic SamplerProgram, which runs the
// registry's own Sampler one Draw() per resume, and the flat `walk` fast
// path, which runs the design's own step kernel (KernelStep in
// mcmc/transition.h) over the walker's meter and random state.
#include "engine/walker_program.h"

#include <string>

#include "util/check.h"

namespace wnw {

namespace {

// --- walk (flat) -------------------------------------------------------------

// `walk` at scale: the walker record alone, stepping against the worker's
// scan interface. aux = design steps into the current draw.
class FlatWalkProgram final : public WalkerProgram {
 public:
  FlatWalkProgram(FixedWalkSampler::Options options, StepKernel kernel,
                  std::string name)
      : options_(options), kernel_(kernel), name_(std::move(name)) {}

  std::string_view name() const override { return name_; }
  bool flat() const override { return true; }

  Result<ResumeOutcome> Resume(EngineWalker& w, WalkerSession*,
                               FlatScan* scan) const override {
    w.node = KernelStep(
        kernel_, [&](NodeId x) { return w.meter.Fetch(*scan, x); }, w.node,
        w.rng);
    if (++w.aux < static_cast<uint32_t>(options_.steps)) {
      return ResumeOutcome::kContinue;
    }
    w.aux = 0;
    return ResumeOutcome::kEmit;
  }

 private:
  FixedWalkSampler::Options options_;
  StepKernel kernel_;
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
  if (allow_flat && config.sampler == "walk" &&
      design->step_kernel() != nullptr) {
    FixedWalkSampler::Options options;
    WNW_RETURN_IF_ERROR(ReadFixedWalkOptions(config, &options));
    return std::unique_ptr<WalkerProgram>(
        new FlatWalkProgram(options, *design->step_kernel(),
                            std::string(design->name()) + "+FixedWalk"));
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
