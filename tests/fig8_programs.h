/**
 * @file
 * The four Fig. 8 programs with their schedules, sized for tests: T32 and
 * IT32 at two layers, UNet and GNS at their bench configs. Equivalence pins
 * (per-tactic reports, propagation changes and conflicts) partition these
 * on the Fig. 8 mesh {batch:8, model:2}.
 */
#ifndef PARTIR_TESTS_FIG8_PROGRAMS_H_
#define PARTIR_TESTS_FIG8_PROGRAMS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/context.h"
#include "src/models/gns.h"
#include "src/models/schedules.h"
#include "src/models/transformer.h"
#include "src/models/unet.h"
#include "src/support/str_util.h"

namespace partir {

struct Fig8Program {
  std::string name;
  Func* (*build)(Module&);
  std::vector<Tactic> schedule;
};

inline TransformerConfig Fig8TestTransformer() {
  TransformerConfig config = TransformerConfig::T32Scaled();
  config.num_layers = 2;
  return config;
}

inline std::vector<Fig8Program> Fig8Programs() {
  using namespace schedules;
  return {
      {"T32",
       [](Module& module) {
         return BuildTransformerTrainingStep(module, Fig8TestTransformer());
       },
       TransformerBPMPZ3EMB()},
      {"UNet",
       [](Module& module) {
         return BuildUNetTrainingStep(module, UNetConfig::Bench());
       },
       {UNetBP(), UNetMP(), UNetZ3()}},
      {"GNS",
       [](Module& module) {
         return BuildGnsTrainingStep(module, GnsConfig::Bench());
       },
       {GnsES()}},
      {"IT32",
       [](Module& module) {
         TransformerConfig config = Fig8TestTransformer();
         config.seq = 16;
         return BuildTransformerInference(module, config, 8);
       },
       {InferenceBP(), TransformerMP()}},
  };
}

inline Mesh Fig8Mesh() { return Mesh({{"batch", 8}, {"model", 2}}); }

/** FNV-1a checksum of the ordered (op index, axis, reason) conflict list;
 *  ops are numbered in WalkOps order over `func`. */
inline uint64_t ConflictChecksum(const Func& func,
                                 const std::vector<Conflict>& conflicts) {
  std::map<const Operation*, int> index;
  WalkOps(func.body(), [&](const Operation& op) {
    index.emplace(&op, static_cast<int>(index.size()));
  });
  uint64_t hash = 1469598103934665603ULL;
  for (const Conflict& conflict : conflicts) {
    for (unsigned char c : StrCat(index.at(conflict.op), ":", conflict.axis,
                                  ":", conflict.reason, "\n")) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

}  // namespace partir

#endif  // PARTIR_TESTS_FIG8_PROGRAMS_H_
