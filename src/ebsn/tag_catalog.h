#ifndef SES_EBSN_TAG_CATALOG_H_
#define SES_EBSN_TAG_CATALOG_H_

/// \file
/// Interned tag vocabulary. Meetup groups advertise themselves through
/// free-form topic tags ("pop-music", "fashion", ...); the catalog maps
/// each distinct tag string to a dense TagId.

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ebsn/types.h"

namespace ses::ebsn {

/// Bidirectional tag-string <-> TagId mapping.
class TagCatalog {
 public:
  /// Returns the id for \p name, interning it on first sight.
  TagId Intern(std::string_view name);

  /// The tag string for \p id. \p id must be valid.
  const std::string& name(TagId id) const;

  /// Number of distinct tags.
  size_t size() const { return names_.size(); }

  bool empty() const { return names_.empty(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, TagId> index_;
};

}  // namespace ses::ebsn

#endif  // SES_EBSN_TAG_CATALOG_H_
