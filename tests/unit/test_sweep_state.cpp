// Unit tests for the sweep scale-out plumbing (sim/sweep_state.hpp):
// manifest round trip and mismatch diagnostics, state-file round trip with
// the folded-bitmap prefix invariant, checkpoint/resume edge cases (corrupt
// and truncated files, grid mismatch, checkpoints covering only the first
// task and all-but-the-last task), shard ownership and out-of-range
// indices, library-level shard+merge byte-identity against the unsharded
// aggregate, and the missing-point rule over degraded and unfinished
// shard states.

#include "sim/sweep_state.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/sweep.hpp"
#include "util/csv.hpp"

namespace tfmcc {
namespace {

// Deterministic probe: one CSV row that is a pure function of x, so
// checkpoint accumulator states can be hand-built and compared exactly.
// `fail` makes the run exit nonzero instead.
TFMCC_SCENARIO(test_state_probe, "sweep state probe",
               tfmcc::param("x", 1, "integer factor", 0),
               tfmcc::param("fail", false, "exit nonzero")) {
  const int x = opts.param_or("x", 1);
  auto& os = opts.out();
  os << "# state probe\n";
  if (opts.param_or("fail", false)) return 3;
  CsvWriter csv(os, {"x", "sample"});
  csv.row(x, 2 * x);
  os << "NOTE: done\n";
  return 0;
}

const Scenario& probe() {
  const Scenario* s = ScenarioRegistry::instance().find("test_state_probe");
  EXPECT_NE(s, nullptr);
  return *s;
}

SweepOptions three_point_sweep() {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2", "3"}}};
  return sweep;
}

std::string sweep_output(const SweepOptions& sweep, int expected_rc = 0,
                         std::string* err_out = nullptr) {
  std::ostringstream out, err;
  const int rc = run_sweep(probe(), sweep, out, err);
  EXPECT_EQ(rc, expected_rc) << err.str();
  if (err_out != nullptr) *err_out = err.str();
  return out.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "tfmcc_sweep_state_" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  ASSERT_TRUE(os.is_open()) << path;
  os << content;
}

std::string read_file(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  EXPECT_TRUE(is.is_open()) << path;
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

TEST(SweepManifest, SaveLoadRoundTripPreservesEveryField) {
  SweepOptions sweep = three_point_sweep();
  sweep.replicate = 4;
  sweep.stats = {summary::Stat::kMean, summary::Stat::kMax};
  sweep.base.seed = 77;
  sweep.base.set_param("x", "9");
  sweep.shard_index = 1;
  sweep.shard_count = 2;
  const SweepManifest m = SweepManifest::from(probe(), sweep);
  EXPECT_EQ(m.n_points(), 3u);
  EXPECT_EQ(m.n_tasks(), 12u);

  std::ostringstream os;
  m.save(os);
  std::istringstream is{os.str()};
  SweepManifest back;
  std::string err;
  ASSERT_TRUE(SweepManifest::load(is, back, err)) << err;
  std::ostringstream diag;
  EXPECT_TRUE(m.matches(back, /*ignore_shard_index=*/false, "copy", diag))
      << diag.str();
  EXPECT_EQ(back.scenario, "test_state_probe");
  EXPECT_EQ(back.seed, std::optional<std::uint64_t>{77});
  EXPECT_EQ(back.shard_index, 1);
  EXPECT_EQ(back.params,
            (std::vector<std::pair<std::string, std::string>>{{"x", "9"}}));
}

TEST(SweepManifest, MatchesNamesTheDifferingField) {
  const SweepManifest base = SweepManifest::from(probe(), three_point_sweep());
  auto expect_mismatch = [&](SweepManifest other, std::string_view token) {
    std::ostringstream diag;
    EXPECT_FALSE(base.matches(other, false, "checkpoint", diag));
    EXPECT_NE(diag.str().find(token), std::string::npos) << diag.str();
  };
  SweepManifest rep = base;
  rep.replicate = 5;
  expect_mismatch(rep, "--replicate");
  SweepManifest axis = base;
  axis.axes[0].values.pop_back();
  expect_mismatch(axis, "sweep grid");
  SweepManifest seed = base;
  seed.seed = 3;
  expect_mismatch(seed, "--seed");
  SweepManifest shard = base;
  shard.shard_index = 1;
  shard.shard_count = 2;
  expect_mismatch(shard, "shard count");
}

TEST(SweepManifest, LoadRejectsTruncation) {
  std::ostringstream os;
  SweepManifest::from(probe(), three_point_sweep()).save(os);
  const std::string text = os.str();
  for (std::size_t len = 0; len + 1 < text.size(); ++len) {
    std::istringstream is{text.substr(0, len)};
    SweepManifest out;
    std::string err;
    EXPECT_FALSE(SweepManifest::load(is, out, err)) << "prefix " << len;
  }
}

TEST(ShardOwnership, RoundRobinByPointIndex) {
  SweepOptions sweep = three_point_sweep();
  sweep.shard_index = 1;
  sweep.shard_count = 2;
  const SweepManifest m = SweepManifest::from(probe(), sweep);
  EXPECT_FALSE(shard_owns_point(m, 0));
  EXPECT_TRUE(shard_owns_point(m, 1));
  EXPECT_FALSE(shard_owns_point(m, 2));
}

/// A checkpoint as run_sweep would write it after folding the first
/// `folded_tasks` tasks of the (unsharded, replicate-1) three-point sweep.
SweepStateFile checkpoint_after(std::size_t folded_tasks) {
  SweepStateFile ck;
  ck.manifest = SweepManifest::from(probe(), three_point_sweep());
  ck.header = "x,sample";
  ck.folded.assign(3, 0);
  std::ostringstream err;
  for (std::size_t t = 0; t < folded_tasks; ++t) {
    ck.folded[t] = 1;
    summary::ColumnSummary acc{{"x", "sample"}};
    const std::string x = std::to_string(t + 1);
    acc.add_row_unchecked({x, std::to_string(2 * (t + 1))});
    ck.points.emplace_back(t, std::move(acc));
  }
  if (folded_tasks == 0) ck.header.clear();
  return ck;
}

TEST(SweepStateFile, SaveLoadRoundTripIsExact) {
  const SweepStateFile ck = checkpoint_after(2);
  std::ostringstream os;
  ck.save(os);
  std::istringstream is{os.str()};
  SweepStateFile back;
  std::string err;
  ASSERT_TRUE(SweepStateFile::load(is, back, err)) << err;
  std::ostringstream os2;
  back.save(os2);
  EXPECT_EQ(os2.str(), os.str());
  EXPECT_EQ(back.folded, (std::vector<char>{1, 1, 0}));
  ASSERT_EQ(back.points.size(), 2u);
  EXPECT_EQ(back.points[1].first, 1u);
}

TEST(SweepStateFile, LoadEnforcesTheFoldedPrefixInvariant) {
  SweepStateFile ck = checkpoint_after(1);
  ck.folded = {0, 0, 1};  // a fold after a gap cannot happen
  std::ostringstream os;
  ck.save(os);
  std::istringstream is{os.str()};
  SweepStateFile back;
  std::string err;
  EXPECT_FALSE(SweepStateFile::load(is, back, err));
  EXPECT_NE(err.find("prefix"), std::string::npos) << err;
}

TEST(SweepStateFile, LoadRejectsFoldsOnUnownedTasks) {
  SweepStateFile ck = checkpoint_after(1);
  ck.manifest.shard_index = 1;
  ck.manifest.shard_count = 2;
  // Task 0 belongs to shard 0; shard 1 claiming it is corruption.
  std::ostringstream os;
  ck.save(os);
  std::istringstream is{os.str()};
  SweepStateFile back;
  std::string err;
  EXPECT_FALSE(SweepStateFile::load(is, back, err));
  EXPECT_NE(err.find("does not own"), std::string::npos) << err;
}

TEST(SweepStateFile, LoadRejectsPointStateDisagreeingWithTheHeader) {
  // Resume and merge install point states as they are, so a state whose
  // columns are not the file's CSV header must never load.
  SweepStateFile ck = checkpoint_after(2);
  ck.header = "x,other";
  std::ostringstream os;
  ck.save(os);
  std::istringstream is{os.str()};
  SweepStateFile back;
  std::string err;
  EXPECT_FALSE(SweepStateFile::load(is, back, err));
  EXPECT_NE(err.find("disagrees with the recorded CSV header"),
            std::string::npos)
      << err;
}

TEST(SweepStateFile, LoadDiagnosesTruncationAtEveryPrefix) {
  // Every proper prefix except the one missing only the trailing newline
  // after the "end" trailer (token parsing does not need it) must fail.
  std::ostringstream os;
  checkpoint_after(2).save(os);
  const std::string text = os.str();
  for (std::size_t len = 0; len + 1 < text.size(); ++len) {
    std::istringstream is{text.substr(0, len)};
    SweepStateFile back;
    std::string err;
    EXPECT_FALSE(SweepStateFile::load(is, back, err)) << "prefix " << len;
    EXPECT_FALSE(err.empty());
  }
}

TEST(SweepStateFile, AtomicSaveThenLoadBack) {
  const std::string path = temp_path("atomic.bin");
  std::ostringstream err;
  ASSERT_TRUE(save_state_file_atomic(checkpoint_after(2), path, err))
      << err.str();
  SweepStateFile back;
  ASSERT_TRUE(load_state_file(path, back, err)) << err.str();
  EXPECT_EQ(back.points.size(), 2u);
  std::remove(path.c_str());
}

TEST(SweepStateFile, LoadMissingFileIsDiagnosed) {
  SweepStateFile back;
  std::ostringstream err;
  EXPECT_FALSE(load_state_file(temp_path("nonexistent.bin"), back, err));
  EXPECT_NE(err.str().find("cannot open"), std::string::npos) << err.str();
}

// --- checkpoint progress header (campaign liveness poll) ------------------

TEST(CheckpointProgress, HeartbeatRoundTripsThroughSaveAndLoad) {
  SweepStateFile ck = checkpoint_after(2);
  ck.heartbeat = 41;
  std::ostringstream os;
  ck.save(os);
  std::istringstream is{os.str()};
  SweepStateFile back;
  std::string err;
  ASSERT_TRUE(SweepStateFile::load(is, back, err)) << err;
  EXPECT_EQ(back.heartbeat, 41u);
  // The header is the literal second line, cheap to read without touching
  // the accumulators: heartbeat, folded count, owned task count.
  std::istringstream lines{os.str()};
  std::string magic_line, progress_line;
  ASSERT_TRUE(std::getline(lines, magic_line));
  ASSERT_TRUE(std::getline(lines, progress_line));
  EXPECT_EQ(progress_line, "progress 41 2 3");
}

TEST(CheckpointProgress, ReadProgressPollsWithoutLoadingState) {
  SweepStateFile ck = checkpoint_after(2);
  ck.heartbeat = 7;
  const std::string path = temp_path("progress.bin");
  std::ostringstream werr;
  ASSERT_TRUE(save_state_file_atomic(ck, path, werr)) << werr.str();
  CheckpointProgress p;
  std::string err;
  ASSERT_TRUE(read_checkpoint_progress(path, p, err)) << err;
  EXPECT_EQ(p.heartbeat, 7u);
  EXPECT_EQ(p.folded_tasks, 2u);
  EXPECT_EQ(p.owned_tasks, 3u);
  std::remove(path.c_str());
}

TEST(CheckpointProgress, ReadProgressRefusesMissingAndGarbage) {
  CheckpointProgress p;
  std::string err;
  EXPECT_FALSE(read_checkpoint_progress(temp_path("no_ckpt.bin"), p, err));

  const std::string garbage = temp_path("garbage_ckpt.bin");
  write_file(garbage, "not a checkpoint at all\n");
  EXPECT_FALSE(read_checkpoint_progress(garbage, p, err));
  EXPECT_NE(err.find("not a sweep checkpoint"), std::string::npos) << err;

  const std::string truncated = temp_path("truncated_ckpt.bin");
  write_file(truncated, "TFMCC-SWEEP-CKPT 2\nprogress 9");
  EXPECT_FALSE(read_checkpoint_progress(truncated, p, err));

  std::remove(garbage.c_str());
  std::remove(truncated.c_str());
}

TEST(CheckpointProgress, AShardsFinalOutputPollsAsFullyFolded) {
  // The final --output of a shard is its last checkpoint: polling it shows
  // every owned task folded.
  SweepOptions sweep = three_point_sweep();
  sweep.replicate = 2;
  sweep.shard_index = 0;
  sweep.shard_count = 2;
  const std::string path = temp_path("final_as_progress.bin");
  write_file(path, sweep_output(sweep));
  CheckpointProgress p;
  std::string err;
  ASSERT_TRUE(read_checkpoint_progress(path, p, err)) << err;
  EXPECT_EQ(p.folded_tasks, 4u);  // points 0 and 2, two replicates each
  EXPECT_EQ(p.owned_tasks, 4u);
  std::remove(path.c_str());
}

TEST(CheckpointProgress, LoadRejectsAHeaderDisagreeingWithTheBitmap) {
  SweepStateFile ck = checkpoint_after(2);
  std::ostringstream os;
  ck.save(os);
  // Tamper: claim 3 folded tasks while the bitmap carries 2.
  std::string text = os.str();
  const std::string good = "progress 0 2 3";
  const auto at = text.find(good);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, good.size(), "progress 0 3 3");
  std::istringstream is{text};
  SweepStateFile back;
  std::string err;
  EXPECT_FALSE(SweepStateFile::load(is, back, err));
  EXPECT_NE(err.find("disagrees"), std::string::npos) << err;
}

// --- checkpoint/resume through run_sweep ---------------------------------

TEST(Resume, CheckpointCoveringOnlyTaskZeroYieldsIdenticalOutput) {
  const std::string full = sweep_output(three_point_sweep());
  const std::string path = temp_path("task0.bin");
  std::ostringstream err;
  ASSERT_TRUE(save_state_file_atomic(checkpoint_after(1), path, err));
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  EXPECT_EQ(sweep_output(resumed), full);
  std::remove(path.c_str());
}

TEST(Resume, CheckpointCoveringAllButTheLastTaskYieldsIdenticalOutput) {
  const std::string full = sweep_output(three_point_sweep());
  const std::string path = temp_path("all_but_last.bin");
  std::ostringstream err;
  ASSERT_TRUE(save_state_file_atomic(checkpoint_after(2), path, err));
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  EXPECT_EQ(sweep_output(resumed), full);
  std::remove(path.c_str());
}

TEST(Resume, FullyFoldedCheckpointRunsNothingAndReEmits) {
  const std::string full = sweep_output(three_point_sweep());
  const std::string path = temp_path("complete.bin");
  std::ostringstream err;
  ASSERT_TRUE(save_state_file_atomic(checkpoint_after(3), path, err));
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  EXPECT_EQ(sweep_output(resumed), full);
  std::remove(path.c_str());
}

TEST(Resume, WritingACheckpointThenResumingItIsIdentical) {
  const std::string path = temp_path("own.bin");
  SweepOptions sweep = three_point_sweep();
  sweep.replicate = 3;
  sweep.checkpoint_path = path;
  sweep.checkpoint_every = 1;
  const std::string full = sweep_output(sweep);
  SweepOptions resumed = three_point_sweep();
  resumed.replicate = 3;
  resumed.resume_path = path;
  EXPECT_EQ(sweep_output(resumed), full);
  std::remove(path.c_str());
}

TEST(Resume, RefusesAGridMismatch) {
  const std::string path = temp_path("mismatch.bin");
  std::ostringstream werr;
  ASSERT_TRUE(save_state_file_atomic(checkpoint_after(1), path, werr));
  SweepOptions resumed;
  resumed.axes = {{"x", {"1", "2"}}};
  resumed.resume_path = path;
  std::string err;
  sweep_output(resumed, 2, &err);
  EXPECT_NE(err.find("does not match"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(Resume, RefusesACorruptCheckpoint) {
  const std::string path = temp_path("corrupt.bin");
  write_file(path,
             "TFMCC-SWEEP-CKPT 2\nprogress 1 1 3\nmanifest 2\n"
             "scenario 3:zzz");
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  std::string err;
  sweep_output(resumed, 2, &err);
  EXPECT_NE(err.find("cannot load"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(Resume, RefusesAnOlderFormatVersion) {
  const std::string path = temp_path("oldver.bin");
  write_file(path, "TFMCC-SWEEP-CKPT 1\nmanifest 1\nscenario 3:zzz");
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  std::string err;
  sweep_output(resumed, 2, &err);
  EXPECT_NE(err.find("unsupported sweep state version"), std::string::npos)
      << err;
  std::remove(path.c_str());
}

TEST(Resume, RefusesAFileOfAnotherFormat) {
  const std::string path = temp_path("foreign.bin");
  write_file(path, "TFMCC-SWEEP-OLD 1\nmanifest 1\nscenario 3:zzz");
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  std::string err;
  sweep_output(resumed, 2, &err);
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(Resume, AVersion2CheckpointStillLoads) {
  // Version 2 had no failed-point list; everything else is unchanged.
  std::ostringstream os;
  checkpoint_after(1).save(os);
  std::string text = os.str();
  text.replace(text.find("TFMCC-SWEEP-CKPT 3"), 18, "TFMCC-SWEEP-CKPT 2");
  text.erase(text.find("failed 0\n"), 9);
  const std::string path = temp_path("v2.bin");
  write_file(path, text);
  SweepOptions resumed = three_point_sweep();
  resumed.resume_path = path;
  EXPECT_EQ(sweep_output(resumed), sweep_output(three_point_sweep()));
  std::remove(path.c_str());
}

TEST(Resume, AShardsFinalOutputResumesToTheSameBytes) {
  // A shard's final output is a finished checkpoint: resuming it runs
  // nothing and writes the same state back.
  SweepOptions sweep = three_point_sweep();
  sweep.shard_index = 1;
  sweep.shard_count = 2;
  const std::string final_state = sweep_output(sweep);
  const std::string path = temp_path("final_resume.bin");
  write_file(path, final_state);
  SweepOptions resumed = sweep;
  resumed.resume_path = path;
  EXPECT_EQ(sweep_output(resumed), final_state);
  std::remove(path.c_str());
}

/// The four-point grid of the degraded-shard scenario: x in {1, 2} times
/// fail in {false, true}.  Round-robin gives shard 1 of 2 exactly the two
/// failing points (indices 1 and 3).
SweepOptions degraded_sweep() {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2"}}, {"fail", {"false", "true"}}};
  sweep.max_point_failures = 2;
  return sweep;
}

TEST(Resume, ADegradedShardOutputIsNotEmittedSilently) {
  SweepOptions sweep = degraded_sweep();
  sweep.shard_index = 1;
  sweep.shard_count = 2;
  const std::string path = temp_path("degraded_resume.bin");
  write_file(path, sweep_output(sweep, 1));
  SweepOptions resumed = sweep;
  resumed.resume_path = path;
  std::string err;
  sweep_output(resumed, 1, &err);
  EXPECT_NE(err.find("missing from the aggregate:"), std::string::npos)
      << err;
  EXPECT_NE(err.find("  x=1,fail=true\n"), std::string::npos) << err;
  EXPECT_NE(err.find("  x=2,fail=true\n"), std::string::npos) << err;
  std::remove(path.c_str());
}

// --- sharding and merge ---------------------------------------------------

TEST(Shard, IndexOutOfRangeIsRefused) {
  SweepOptions sweep = three_point_sweep();
  sweep.shard_index = 5;
  sweep.shard_count = 3;
  std::string err;
  sweep_output(sweep, 2, &err);
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  sweep.shard_index = -1;
  sweep_output(sweep, 2, &err);
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

int run_merge(const std::vector<std::string>& args, std::string* err_out) {
  std::vector<std::string> owned = args;
  std::vector<char*> argv;
  for (auto& a : owned) argv.push_back(a.data());
  std::ostringstream err;
  const int rc =
      merge_main(static_cast<int>(argv.size()), argv.data(), err);
  if (err_out != nullptr) *err_out = err.str();
  return rc;
}

/// Runs the probe sweep sharded n ways, writes each partial to a temp
/// file, merges with the CLI entry point, and returns the merged CSV.
std::string shard_and_merge(SweepOptions base, int n_shards,
                            const std::string& tag) {
  std::vector<std::string> args;
  const std::string out_path = temp_path(tag + "_merged.csv");
  args.push_back("--output");
  args.push_back(out_path);
  std::vector<std::string> part_paths;
  for (int s = 0; s < n_shards; ++s) {
    SweepOptions sharded = base;
    sharded.shard_index = s;
    sharded.shard_count = n_shards;
    const std::string part = sweep_output(sharded);
    const std::string path =
        temp_path(tag + "_part" + std::to_string(s) + ".bin");
    write_file(path, part);
    part_paths.push_back(path);
    args.push_back(path);
  }
  std::string err;
  EXPECT_EQ(run_merge(args, &err), 0) << err;
  const std::string merged = read_file(out_path);
  std::remove(out_path.c_str());
  for (const auto& p : part_paths) std::remove(p.c_str());
  return merged;
}

TEST(ShardMerge, RawSweepMergesByteIdenticalToUnsharded) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2", "3", "4", "5"}}};
  const std::string full = sweep_output(sweep);
  EXPECT_EQ(shard_and_merge(sweep, 3, "raw"), full);
}

TEST(ShardMerge, ReplicatedSweepMergesByteIdenticalToUnsharded) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2", "3", "4"}}};
  sweep.replicate = 3;
  sweep.stats = {summary::Stat::kMean, summary::Stat::kMin,
                 summary::Stat::kMax};
  const std::string full = sweep_output(sweep);
  EXPECT_EQ(shard_and_merge(sweep, 2, "rep"), full);
}

TEST(ShardMerge, MoreShardsThanPointsLeavesSomeShardsEmpty) {
  SweepOptions sweep;
  sweep.axes = {{"x", {"1", "2"}}};
  const std::string full = sweep_output(sweep);
  EXPECT_EQ(shard_and_merge(sweep, 4, "sparse"), full);
}

TEST(ShardMerge, DegradedShardsMergeToTheNamedDegradedTable) {
  // Shard 1 owns both failing points; it exits 1 naming them, and merging
  // its output must not pass the degraded table off as complete: exit 1,
  // both points named, and the same rows the unsharded degraded sweep
  // emits.
  const SweepOptions sweep = degraded_sweep();
  std::string unsharded_err;
  const std::string degraded = sweep_output(sweep, 1, &unsharded_err);
  std::vector<std::string> args{"--output", temp_path("degraded_merged.csv")};
  for (int s = 0; s < 2; ++s) {
    SweepOptions sharded = sweep;
    sharded.shard_index = s;
    sharded.shard_count = 2;
    std::string shard_err;
    const std::string part =
        sweep_output(sharded, s == 1 ? 1 : 0, &shard_err);
    if (s == 1) {
      EXPECT_NE(shard_err.find("  x=1,fail=true\n"), std::string::npos)
          << shard_err;
    }
    args.push_back(temp_path("degraded_part" + std::to_string(s) + ".bin"));
    write_file(args.back(), part);
  }
  std::string err;
  EXPECT_EQ(run_merge(args, &err), 1) << err;
  EXPECT_NE(err.find("missing from the aggregate:"), std::string::npos)
      << err;
  EXPECT_NE(err.find("  x=1,fail=true\n"), std::string::npos) << err;
  EXPECT_NE(err.find("  x=2,fail=true\n"), std::string::npos) << err;
  EXPECT_EQ(read_file(args[1]), degraded);
  for (std::size_t i = 1; i < args.size(); ++i) std::remove(args[i].c_str());
}

TEST(ShardMerge, AnInProgressCheckpointNamesItsUnfinishedPoints) {
  // Shard 0 of 2 owns points 0 and 2 (x=1, x=3); its checkpoint folded
  // point 0 and one of point 2's two replicates.  Shard 1 finished.
  SweepOptions sweep = three_point_sweep();
  sweep.replicate = 2;
  const std::string full = sweep_output(sweep);

  SweepOptions shard0 = sweep;
  shard0.shard_count = 2;
  SweepStateFile ck;
  ck.manifest = SweepManifest::from(probe(), shard0);
  ck.header = "x,sample";
  ck.folded = {1, 1, 0, 0, 1, 0};
  std::ostringstream row_err;
  for (std::size_t p : {0u, 2u}) {
    summary::ColumnSummary acc{{"x", "sample"}};
    const int x = static_cast<int>(p) + 1;
    for (int rep = 0; rep < (p == 0 ? 2 : 1); ++rep) {
      ASSERT_TRUE(acc.add_row({std::to_string(x), std::to_string(2 * x)},
                              row_err));
    }
    ck.points.emplace_back(p, std::move(acc));
  }
  const std::string ck_path = temp_path("inprogress_ck.bin");
  std::ostringstream werr;
  ASSERT_TRUE(save_state_file_atomic(ck, ck_path, werr)) << werr.str();

  SweepOptions shard1 = sweep;
  shard1.shard_index = 1;
  shard1.shard_count = 2;
  const std::string part_path = temp_path("inprogress_part1.bin");
  write_file(part_path, sweep_output(shard1));

  const std::string out_path = temp_path("inprogress_merged.csv");
  std::string err;
  EXPECT_EQ(run_merge({"--output", out_path, ck_path, part_path}, &err), 1)
      << err;
  EXPECT_NE(err.find("(0 failed, 1 unfinished) missing from the aggregate:\n"
                     "  x=3\n"),
            std::string::npos)
      << err;
  // The complete points keep their bytes; the half-folded point is left
  // out rather than summarized over one replicate.
  const std::string merged = read_file(out_path);
  EXPECT_EQ(merged, full.substr(0, full.rfind('\n', full.size() - 2) + 1));
  std::remove(ck_path.c_str());
  std::remove(part_path.c_str());
  std::remove(out_path.c_str());
}

TEST(MergeCli, NoArgumentsPrintsUsage) {
  std::string err;
  EXPECT_EQ(run_merge({}, &err), 2);
  EXPECT_NE(err.find("usage:"), std::string::npos) << err;
}

TEST(MergeCli, IncompleteShardSetIsRefused) {
  SweepOptions sweep = three_point_sweep();
  sweep.shard_index = 0;
  sweep.shard_count = 2;
  const std::string path = temp_path("lonely_part.bin");
  write_file(path, sweep_output(sweep));
  std::string err;
  EXPECT_EQ(run_merge({path}, &err), 2);
  EXPECT_NE(err.find("sharded 2 ways but 1"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(MergeCli, DuplicateShardIsRefused) {
  SweepOptions sweep = three_point_sweep();
  sweep.shard_index = 0;
  sweep.shard_count = 2;
  const std::string path = temp_path("dup_part.bin");
  write_file(path, sweep_output(sweep));
  std::string err;
  EXPECT_EQ(run_merge({path, path}, &err), 2);
  EXPECT_NE(err.find("more than once"), std::string::npos) << err;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tfmcc
