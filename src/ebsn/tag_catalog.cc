#include "ebsn/tag_catalog.h"

#include "util/logging.h"

namespace ses::ebsn {

TagId TagCatalog::Intern(std::string_view name) {
  auto it = index_.find(std::string(name));
  if (it != index_.end()) return it->second;
  const TagId id = static_cast<TagId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

const std::string& TagCatalog::name(TagId id) const {
  SES_CHECK_LT(id, names_.size());
  return names_[id];
}

}  // namespace ses::ebsn
