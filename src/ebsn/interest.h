#ifndef SES_EBSN_INTEREST_H_
#define SES_EBSN_INTEREST_H_

/// \file
/// Interest (likeness) model: mu(u, e) = Jaccard(user tags, event tags).
///
/// This is exactly the recipe the paper adopts from the event-participant
/// planning literature (Section IV-A): events carry the tags of the group
/// that organizes them and the interest of a user in an event is the
/// Jaccard similarity of the two tag sets.
///
/// The model pre-builds a tag -> users inverted index, so the sparse
/// interest list of one event costs O(|U| + sum over event tags of
/// |users(tag)|) with no sort: the index scatters overlap counts, and
/// one pass over the dense counts in user order emits the list.

#include <utility>
#include <vector>

#include "ebsn/dataset.h"

namespace ses::ebsn {

/// One (user, interest) entry of a sparse interest list.
struct UserInterest {
  EbsnUserId user = 0;
  float interest = 0.0f;  ///< mu in (0, 1].

  friend bool operator==(const UserInterest& a, const UserInterest& b) {
    return a.user == b.user && a.interest == b.interest;
  }
};

/// Jaccard-based interest computation over an EbsnDataset.
///
/// Thread-safe for concurrent const use: EventInterests counts into
/// per-thread scratch (thread_local, grown lazily to the user universe),
/// so one shared model serves parallel workload builds without locking.
class InterestModel {
 public:
  /// Builds the inverted tag index for \p dataset. The dataset must
  /// outlive this model.
  explicit InterestModel(const EbsnDataset& dataset);

  /// Returns the sparse interest list of an event with tag set
  /// \p event_tags (sorted unique TagIds): every user whose Jaccard
  /// similarity is >= \p min_interest, sorted by user id.
  std::vector<UserInterest> EventInterests(const std::vector<TagId>& event_tags,
                                           float min_interest) const;

 private:
  const EbsnDataset* dataset_;
  std::vector<std::vector<EbsnUserId>> tag_users_;
};

}  // namespace ses::ebsn

#endif  // SES_EBSN_INTEREST_H_
