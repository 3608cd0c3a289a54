#include "routing/engine.hpp"

#include "util/expect.hpp"

namespace ibvs::routing {

// Defined by the individual engine translation units.
std::unique_ptr<RoutingEngine> make_min_hop_engine();
std::unique_ptr<RoutingEngine> make_fat_tree_engine();
std::unique_ptr<RoutingEngine> make_up_down_engine();
std::unique_ptr<RoutingEngine> make_dfsssp_engine();
std::unique_ptr<RoutingEngine> make_lash_engine();

void RoutingEngine::recompute(const Fabric& fabric, const LidMap& lids,
                              RoutingResult& tables,
                              const std::vector<bool>&, HopMatrix&) {
  tables = compute(fabric, lids);
}

std::unique_ptr<RoutingEngine> make_engine(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMinHop:
      return make_min_hop_engine();
    case EngineKind::kFatTree:
      return make_fat_tree_engine();
    case EngineKind::kUpDown:
      return make_up_down_engine();
    case EngineKind::kDfsssp:
      return make_dfsssp_engine();
    case EngineKind::kLash:
      return make_lash_engine();
  }
  throw std::invalid_argument("unknown routing engine");
}

std::string to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMinHop:
      return "minhop";
    case EngineKind::kFatTree:
      return "fat-tree";
    case EngineKind::kUpDown:
      return "updn";
    case EngineKind::kDfsssp:
      return "dfsssp";
    case EngineKind::kLash:
      return "lash";
  }
  return "?";
}

std::vector<EngineKind> all_engines() {
  return {EngineKind::kMinHop, EngineKind::kFatTree, EngineKind::kUpDown,
          EngineKind::kDfsssp, EngineKind::kLash};
}

std::vector<EngineKind> fig7_engines() {
  return {EngineKind::kFatTree, EngineKind::kMinHop, EngineKind::kDfsssp,
          EngineKind::kLash};
}

}  // namespace ibvs::routing
