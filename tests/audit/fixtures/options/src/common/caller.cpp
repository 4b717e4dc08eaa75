// Fixture: the callers in src/.
#include "src/common/knobs.hpp"

void configure(WidgetOptions& o, WidgetOptions* p) {
  o.width = 4;
  p->height += 1;
  o.shape.sides = 3;
  o.on_change = [](int, char) {};
  if (o.depth == 2 || o.depth >= 1) return;  // reads are not sets
}
