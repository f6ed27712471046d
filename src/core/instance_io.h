#ifndef SES_CORE_INSTANCE_IO_H_
#define SES_CORE_INSTANCE_IO_H_

/// \file
/// SES instance persistence: save/load a SesInstance as a directory of
/// CSV files, so instances can be generated once, shipped, inspected with
/// standard tooling, and re-solved elsewhere.
///
/// Layout (all files written by SaveInstance):
///   meta.csv       key,value rows: users, intervals, theta, sigma kind +
///                  parameter
///   events.csv     event_id,location,required_resources,profile
///   competing.csv  competing_id,interval,profile
///   profiles.csv   profile_id,user_id,mu  (sparse triplets)
///
/// Each distinct interest row, a *profile*, is written once, numbered as
/// SesInstance numbers them; events and competing events name theirs in
/// the profile column. A directory in the earlier layout, which wrote
/// one row per event into event_interests.csv and
/// competing_interests.csv, fails to load naming the missing
/// profiles.csv.
///
/// Sigma providers serialize by kind: "const" (value) and "hash" (seed).
/// Dense matrices are not persisted: SaveInstance checks its spec
/// against the instance's provider, so an instance built from an
/// explicit matrix fails to save with InvalidArgument.
///
/// Accepted grammar (LoadInstance), a subset of CSV that SaveInstance
/// always produces:
///   - each file starts with exactly the header line shown above;
///   - fields are split at every ',': no quoting, no surrounding
///     whitespace;
///   - integers are plain decimal (no leading '+'); ids, counts, users,
///     intervals and locations must fit in 32 bits, and sigma_seed in 64;
///   - reals are std::from_chars doubles (no leading '+'; "nan"/"inf"
///     parse and are then rejected where a finite value is required);
///   - CRLF line endings, blank lines and a missing final newline are
///     tolerated;
///   - meta.csv keys may come in any order, unknown keys are ignored;
///   - events.csv and competing.csv rows are in id order (the id column
///     equals the row position);
///   - profiles are numbered in order of first use: each events.csv row,
///     then each competing.csv row, names a profile that an earlier row
///     named or the next one, so a profile column is in [0, profiles
///     named so far];
///   - profiles.csv rows are grouped by profile in ascending profile_id,
///     each profile's rows in strictly ascending user_id, with mu in
///     (0, 1] and nonzero once rounded to float; a profile without rows
///     is empty.
/// Malformed input fails with a ParseError (OutOfRange for an id or
/// count out of range) whose message starts "<path>:<line>:"; a file
/// that cannot be opened fails with an IoError naming its path.

#include <string>

#include "core/instance.h"
#include "util/status.h"

namespace ses::core {

/// Serializable description of a sigma provider.
struct SigmaSpec {
  enum class Kind { kConst, kHash };
  Kind kind = Kind::kHash;
  /// kConst: the constant probability.
  double const_value = 0.5;
  /// kHash: the hash seed.
  uint64_t seed = 0;

  /// Instantiates the provider this spec describes.
  std::shared_ptr<const SigmaProvider> Instantiate() const;
};

/// Writes \p instance under directory \p dir (which must exist), one
/// buffered stream per file; mu is written with 9 significant digits and
/// every double with 17, so a load reproduces the instance bit for bit.
/// \p sigma_spec must describe the provider the instance was built with.
/// The provider itself cannot be introspected, so SaveInstance samples
/// it before writing anything: at every interval, for the first, middle
/// and last user, the spec's sigma must equal the instance's. Otherwise
/// (a dense provider, a wrong seed or a wrong constant) it fails with
/// InvalidArgument naming the first user and interval that differ.
[[nodiscard]] util::Status SaveInstance(const SesInstance& instance,
                          const SigmaSpec& sigma_spec,
                          const std::string& dir);

/// Reads an instance previously written by SaveInstance in one streaming
/// pass per file, handing each profile's row to InstanceBuilder once,
/// with no allocation per line.
[[nodiscard]] util::Result<SesInstance> LoadInstance(const std::string& dir);

}  // namespace ses::core

#endif  // SES_CORE_INSTANCE_IO_H_
