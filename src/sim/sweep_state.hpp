#pragma once

// Campaign-scale sweep plumbing: sharding, checkpoint/resume, and the
// sweep-state files `tfmcc_sim merge` folds back together.
//
// The determinism contract extends the existing `--jobs N == --jobs 1`
// byte-identity guarantee in two directions:
//
//   * Sharding.  `--shard i/n` gives shard i every grid point p with
//     p % n == i (all of a point's replicates stay together).  Each
//     point's accumulator sees exactly the rows, in exactly the order, the
//     unsharded sweep would feed it — which other points run alongside it
//     changes nothing — so a shard's state for its points is
//     bitwise-identical to the unsharded sweep's, and `merge` only ever
//     places each point's state from its unique owner.  Merged output is
//     therefore byte-identical (`cmp`) to the unsharded aggregate, and
//     merging is exactly associative.
//
//   * Resume.  Tasks fold into the accumulators strictly in task order, so
//     a state file is always a *prefix* of the fold sequence: the folded
//     bitmap plus each touched point's serialized accumulator.  A resumed
//     sweep re-runs only the unfolded suffix and continues folding in the
//     same order, making its output byte-identical to an uninterrupted run.
//
// Checkpoints, a shard's final `--output` (its last checkpoint, every
// owned task folded) and the files `--resume` and `merge` read share one
// format.  It opens with a two-line progress header (heartbeat, folded and
// owned task counts) a campaign supervisor polls without loading any
// accumulator (read_checkpoint_progress), then a manifest — scenario,
// axes, replicate count, stats, base overrides, shard — so a resume or
// merge that does not match is refused rather than silently blended.  Row
// data uses the accumulator serialization (analysis/summary), not CSV.
//
// One missing-point rule decides what an aggregate may claim: a point
// whose replicate set the state does not hold completely — it has
// unfolded tasks, or it failed under --max-point-failures — is left out of
// the CSV, named on stderr, and makes the exit code 1.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/summary.hpp"
#include "sim/sweep.hpp"

namespace tfmcc {

/// Everything that identifies one sweep: the fields two invocations must
/// agree on for their accumulator states to be interchangeable.
struct SweepManifest {
  std::string scenario;
  std::vector<SweepAxis> axes;
  int replicate{1};
  std::vector<summary::Stat> stats;
  std::optional<std::int64_t> duration_ns;
  std::optional<std::uint64_t> seed;
  /// Base `--set` overrides, in the options' (sorted-map) order.
  std::vector<std::pair<std::string, std::string>> params;
  int shard_index{0};
  int shard_count{1};

  static SweepManifest from(const Scenario& scenario,
                            const SweepOptions& sweep);

  std::size_t n_points() const;
  std::size_t n_tasks() const {
    return n_points() * static_cast<std::size_t>(replicate);
  }

  void save(std::ostream& os) const;
  static bool load(std::istream& is, SweepManifest& out, std::string& err);

  /// True when `other` describes the same sweep.  Otherwise writes a
  /// diagnostic naming the first differing field, prefixed with `what`
  /// ("checkpoint '<path>'").  `ignore_shard_index` is set when merging
  /// shard states, which differ in shard index by construction.
  bool matches(const SweepManifest& other, bool ignore_shard_index,
               std::string_view what, std::ostream& err) const;
};

/// Shard ownership rule: grid point p belongs to shard p % shard_count.
/// Round-robin keeps monotone-cost ladders (2..2000 receivers) balanced
/// across shards instead of handing one shard the whole expensive tail.
bool shard_owns_point(const SweepManifest& m, std::size_t point);

/// One sweep's fold state, in memory and on disk: the manifest, the CSV
/// header once one was seen, the completed-task bitmap, the failed points,
/// and per-point accumulator states.
struct SweepStateFile {
  SweepManifest manifest;
  std::string header;
  /// Monotone save counter.  Incremented by the sweep on every checkpoint
  /// write (and restored across --resume), it is the heartbeat a campaign
  /// supervisor polls — see read_checkpoint_progress.
  std::uint64_t heartbeat{0};
  /// folded[t] != 0 when global task t's output has been folded.  Always a
  /// prefix of the shard's task order (ascending global index over owned
  /// tasks); load() enforces that invariant.
  std::vector<char> folded;
  /// Grid points that failed under --max-point-failures.  Their tasks
  /// count as folded but they have no accumulator state: a failed point is
  /// told apart from one that succeeded without emitting rows.
  std::vector<std::size_t> failed;
  /// (global point index, accumulator) for every point with rows.
  std::vector<std::pair<std::size_t, summary::ColumnSummary>> points;

  void save(std::ostream& os) const;
  static bool load(std::istream& is, SweepStateFile& out, std::string& err);
};

/// The cheap-to-poll progress header a checkpoint file opens with: the
/// heartbeat save counter, the number of folded tasks, and the number of
/// tasks the writing shard owns in total.  All three are monotone across a
/// shard's lifetime (including resumes), so a supervisor can detect a
/// stalled or dead worker by polling these two lines without parsing the
/// manifest or deserializing a single accumulator.
struct CheckpointProgress {
  std::uint64_t heartbeat{0};
  std::uint64_t folded_tasks{0};
  std::uint64_t owned_tasks{0};
};

/// Reads just the magic line and progress header of the checkpoint at
/// `path`.  Returns false (with a diagnostic in `err`) when the file is
/// missing, is not a checkpoint, or has a malformed header — callers poll
/// this in a loop, so the common "no checkpoint yet" case must be cheap.
bool read_checkpoint_progress(const std::string& path, CheckpointProgress& out,
                              std::string& err);

/// Writes `state` to `path` via a temp file + rename, so a kill mid-write
/// can never leave a truncated checkpoint behind.  On POSIX the temp file
/// is fsync'd before the rename and the directory entry fsync'd after it,
/// so even a machine-level crash (power loss, not just SIGKILL) cannot
/// surface a torn file — or a valid-looking stale one — under the final
/// name.  Returns false after a diagnostic on `err`.
bool save_state_file_atomic(const SweepStateFile& state,
                            const std::string& path, std::ostream& err);

/// Loads and validates `path`.  Returns false after a diagnostic on `err`
/// for unreadable, corrupt, or truncated files.
bool load_state_file(const std::string& path, SweepStateFile& out,
                     std::ostream& err);

/// Writes the aggregate CSV of `state`: raw rows in grid order when
/// replicate == 1, summary-statistics rows otherwise.  The unsharded sweep,
/// `--resume` and `merge` all end in this one code path — which is what
/// makes shard+merge byte-identical to the unsharded run.  Missing points
/// (see report_missing_points) are left out and make the result 1; so do
/// an all-rowless state and points that cannot be aggregated, after a
/// diagnostic.  0 means a complete table.
int emit_sweep_aggregate(const SweepStateFile& state, std::ostream& out,
                         std::ostream& err);

/// The missing-point rule: names on `err` every point `state`'s shard owns
/// that has an unfolded task or failed, and returns how many there are;
/// prints nothing when the state is complete.
std::size_t report_missing_points(const SweepStateFile& state,
                                  std::ostream& err);

/// CLI entry for `tfmcc_sim merge [--output <path>] <state>...`: loads one
/// state file per shard (final outputs or checkpoints), refuses mismatched
/// or incomplete shard sets, and emits the combined aggregate CSV under the
/// missing-point rule.  Returns the process exit code.
int merge_main(int argc, char** argv, std::ostream& err);

}  // namespace tfmcc
