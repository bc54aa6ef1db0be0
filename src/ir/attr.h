/**
 * @file
 * Attribute storage for operations: a small tagged-union map keyed by name.
 */
#ifndef PARTIR_IR_ATTR_H_
#define PARTIR_IR_ATTR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "src/support/check.h"

namespace partir {

/** Per-dimension lists of mesh-axis names, e.g. [{"B"}, {}, {"M"}]. */
using AxesPerDim = std::vector<std::vector<std::string>>;

/** One attribute value. */
using Attr = std::variant<int64_t, double, std::string, std::vector<int64_t>,
                          std::vector<std::string>, AxesPerDim,
                          std::vector<float>>;

/** Named attribute map attached to each operation. */
class AttrMap {
 public:
  void Set(const std::string& name, Attr value) {
    attrs_[name] = std::move(value);
  }

  bool Has(const std::string& name) const { return attrs_.count(name) > 0; }

  template <typename T>
  const T& Get(const std::string& name) const {
    auto it = attrs_.find(name);
    PARTIR_CHECK(it != attrs_.end()) << "missing attribute '" << name << "'";
    const T* value = std::get_if<T>(&it->second);
    PARTIR_CHECK(value != nullptr)
        << "attribute '" << name << "' has a different type";
    return *value;
  }

  template <typename T>
  T GetOr(const std::string& name, T fallback) const {
    auto it = attrs_.find(name);
    if (it == attrs_.end()) return fallback;
    const T* value = std::get_if<T>(&it->second);
    PARTIR_CHECK(value != nullptr)
        << "attribute '" << name << "' has a different type";
    return *value;
  }

  /** Name-ordered attributes; find() takes a C string without copying it. */
  const std::map<std::string, Attr, std::less<>>& raw() const {
    return attrs_;
  }

 private:
  std::map<std::string, Attr, std::less<>> attrs_;
};

}  // namespace partir

#endif  // PARTIR_IR_ATTR_H_
