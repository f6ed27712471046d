#include "ebsn/tag_catalog.h"

#include <gtest/gtest.h>

namespace ses::ebsn {
namespace {

TEST(TagCatalogTest, InternAssignsSequentialIds) {
  TagCatalog catalog;
  EXPECT_TRUE(catalog.empty());
  EXPECT_EQ(catalog.Intern("rock"), 0u);
  EXPECT_EQ(catalog.Intern("pop"), 1u);
  EXPECT_EQ(catalog.Intern("jazz"), 2u);
  EXPECT_EQ(catalog.size(), 3u);
}

TEST(TagCatalogTest, InternIsIdempotent) {
  TagCatalog catalog;
  const TagId a = catalog.Intern("fashion");
  const TagId b = catalog.Intern("fashion");
  EXPECT_EQ(a, b);
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(TagCatalogTest, NameRoundTrip) {
  TagCatalog catalog;
  const TagId id = catalog.Intern("theater");
  EXPECT_EQ(catalog.name(id), "theater");
}

TEST(TagCatalogTest, CaseSensitive) {
  TagCatalog catalog;
  const TagId lower = catalog.Intern("music");
  const TagId upper = catalog.Intern("Music");
  EXPECT_NE(lower, upper);
}

}  // namespace
}  // namespace ses::ebsn
