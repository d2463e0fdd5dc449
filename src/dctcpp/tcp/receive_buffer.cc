#include "dctcpp/tcp/receive_buffer.h"

namespace dctcpp {

// The production instantiation.
template class BasicReceiveBuffer<IntervalSet>;

}  // namespace dctcpp
