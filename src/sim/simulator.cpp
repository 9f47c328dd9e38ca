#include "sim/simulator.hpp"

namespace arrowdq {

// Instantiate every queue variant here once; consumers link against these
// instead of re-instantiating the template per translation unit.
template class BasicSimulator<BucketedEventQueue>;
template class BasicSimulator<BinaryEventQueue>;
template class BasicSimulator<BucketedEventQueue, 16>;  // CompactSimulator

}  // namespace arrowdq
