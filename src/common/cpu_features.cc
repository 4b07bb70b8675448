#include "common/cpu_features.h"

namespace alt {
namespace cpu {

const char* SimdModeName() { return "none"; }

}  // namespace cpu
}  // namespace alt
