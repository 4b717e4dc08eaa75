// Fixture: an options struct with one knob no caller sets.
#pragma once

#include <functional>

struct WidgetOptions {
  /// Assigned in src/common/caller.cpp.
  int width = 1;
  /// Set only through a member chain (`o.shape.sides = ...`).
  Shape shape;
  /// Passed by address to a parser in bench/.
  double ratio = 0.5;
  /// Stepped with ++ in bench/.
  unsigned retries = 0;
  /// Only tests/ set it: the analyzer's one `options` hit.
  int depth = 2;
  /// Allowlisted by the self-test although src/ sets it: stale.
  int height = 3;
  std::function<void(int, char)> on_change;
  static constexpr int kMax = 9;
  bool operator==(const WidgetOptions&) const = default;
  int area() const { return width * height; }
};
