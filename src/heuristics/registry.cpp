#include "heuristics/registry.hpp"

#include <stdexcept>

#include "heuristics/annealing.hpp"
#include "heuristics/ar.hpp"
#include "heuristics/fixpoint.hpp"
#include "heuristics/golcf.hpp"
#include "heuristics/gsdf.hpp"
#include "heuristics/h1.hpp"
#include "heuristics/h2.hpp"
#include "heuristics/op1.hpp"
#include "heuristics/rdf.hpp"
#include "support/string_util.hpp"

namespace rtsp {

namespace {

BuilderPtr make_builder(const std::string& token) {
  const std::string t = to_lower(token);
  if (t == "ar") return std::make_shared<ArBuilder>();
  if (t == "golcf") return std::make_shared<GolcfBuilder>();
  if (t == "rdf") return std::make_shared<RdfBuilder>();
  if (t == "gsdf") return std::make_shared<GsdfBuilder>();
  return nullptr;
}

ImproverPtr make_improver(const std::string& token) {
  const std::string t = to_lower(token);
  if (t == "h1") return std::make_shared<H1Improver>();
  if (t == "h2") return std::make_shared<H2Improver>();
  if (t == "op1") return std::make_shared<Op1Improver>();
  if (t == "sa") return std::make_shared<AnnealingImprover>();
  if (t == "h1h2fix") {
    // H1 and H2 alternated to a fixpoint (see heuristics/fixpoint.hpp).
    return std::make_shared<FixpointImprover>(std::vector<ImproverPtr>{
        std::make_shared<H1Improver>(), std::make_shared<H2Improver>()});
  }
  return nullptr;
}

}  // namespace

Pipeline make_pipeline(const std::string& spec) {
  const std::vector<std::string> tokens = split(spec, '+');
  if (tokens.empty() || trim(tokens.front()).empty()) {
    throw std::invalid_argument("empty pipeline spec");
  }
  BuilderPtr builder = make_builder(trim(tokens.front()));
  if (!builder) {
    throw std::invalid_argument("unknown builder '" + tokens.front() + "' in spec '" +
                                spec + "'");
  }
  std::vector<ImproverPtr> improvers;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    ImproverPtr imp = make_improver(trim(tokens[i]));
    if (!imp) {
      throw std::invalid_argument("unknown improver '" + tokens[i] + "' in spec '" +
                                  spec + "'");
    }
    improvers.push_back(std::move(imp));
  }
  return Pipeline(std::move(builder), std::move(improvers));
}

std::vector<std::string> known_builders() {
  return {"AR", "GOLCF", "RDF", "GSDF"};
}

std::vector<std::string> known_improvers() {
  return {"H1", "H2", "OP1", "SA", "H1H2FIX"};
}

}  // namespace rtsp
