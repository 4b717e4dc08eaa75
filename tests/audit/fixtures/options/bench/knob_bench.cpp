// Fixture: a bench that sets knobs through an out-parameter and a step.
#include "src/common/knobs.hpp"

void sweep(WidgetOptions& o) {
  parse_number("--ratio", &o.ratio);
  o.retries++;
}
