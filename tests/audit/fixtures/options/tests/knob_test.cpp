// Fixture: a test that sets a knob; tests/ is never a caller.
#include "src/common/knobs.hpp"

void test_depth(WidgetOptions& o) { o.depth = 7; }
